import numpy as np
import pytest

from zzcompile.molecule import load_molecule, spin_system
from zzcompile.paulis import PauliString, pauli_matrix
from zzcompile.sequence import (
    CouplingBlock,
    FreeDelay,
    Gradient,
    PulseSequence,
    Rotation,
    SequenceError,
    format_angle,
    format_sequence,
    parse_angle,
    parse_sequence,
    reversed_inverse,
    sequence_duration,
    sequence_propagator,
)


@pytest.fixture(scope="module")
def crotonic():
    return load_molecule("crotonic-acid")


def unitary(instr, sys):
    """One instruction's propagator, through the propagation kernel."""
    return sequence_propagator(PulseSequence([instr]), sys)


def test_rotation_half_pi_y():
    sys1 = spin_system(1, [0.0], [])
    u = unitary(Rotation((1,), "y", np.pi / 2), sys1)
    c = np.sqrt(2) / 2
    assert np.allclose(u, [[c, -c], [c, c]])


def test_rotation_pi_y_is_minus_i_sigma_y(crotonic):
    u = unitary(Rotation((3,), "y", np.pi), crotonic)
    assert np.allclose(u, -1j * pauli_matrix(PauliString("IIYI"), 4), atol=1e-15)


def test_rotation_negative_axis(crotonic):
    plus = unitary(Rotation((2,), "y", np.pi / 2), crotonic)
    minus = unitary(Rotation((2,), "-y", np.pi / 2), crotonic)
    assert np.max(np.abs(plus @ minus - np.eye(16))) < 1e-14


def test_multi_spin_rotation(crotonic):
    u = unitary(Rotation((1, 2, 4), "y", np.pi / 2), crotonic)
    singles = [unitary(Rotation((s,), "y", np.pi / 2), crotonic)
               for s in (1, 2, 4)]
    assert np.max(np.abs(u - singles[0] @ singles[1] @ singles[2])) < 1e-13


def test_coupling_block_half_j(crotonic):
    from zzcompile.paulis import pauli_exponential
    tau = 1.0 / (2 * 72.4)
    u = unitary(CouplingBlock((1, 2), tau=tau), crotonic)
    ideal = pauli_exponential(PauliString("ZZII"), np.pi / 4, 4)
    assert np.max(np.abs(u - ideal)) < 1e-12


def test_free_delay_matches_diagonal_hamiltonian(crotonic):
    from zzcompile.molecule import hamiltonian
    from scipy.linalg import expm
    tau = 0.004
    u = unitary(FreeDelay(tau), crotonic)
    oracle = expm(-1j * hamiltonian(crotonic) * tau)
    assert np.max(np.abs(u - oracle)) < 1e-12


def test_gradient_has_no_propagator(crotonic):
    with pytest.raises(SequenceError, match="non-unitary"):
        sequence_propagator(PulseSequence([Gradient()]), crotonic)
    with pytest.raises(SequenceError, match="non-unitary"):
        sequence_propagator(PulseSequence([Rotation((1,), "x", 1.0), Gradient()]), crotonic)


def test_unknown_axis_rejected():
    with pytest.raises(SequenceError):
        Rotation((1,), "w", 0.4)


def test_empty_sequence_identity(crotonic):
    u = sequence_propagator(PulseSequence([]), crotonic)
    assert np.array_equal(u, np.eye(16))


def test_inverse_pair(crotonic):
    seq = PulseSequence([
        Rotation((1,), "y", np.pi / 2),
        Rotation((1,), "-y", np.pi / 2),
    ])
    assert np.max(np.abs(sequence_propagator(seq, crotonic) - np.eye(16))) < 1e-14


def test_instruction_unitarity(crotonic):
    instrs = [
        Rotation((2,), "-x", 1.234),
        CouplingBlock((2, 4), tau=0.003),
        FreeDelay(0.007),
    ]
    for instr in instrs:
        u = unitary(instr, crotonic)
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-12


def test_reversal_property(crotonic):
    seq = PulseSequence([
        Rotation((1,), "x", 0.7),
        CouplingBlock((1, 2), tau=0.002),
        Rotation((3,), "-y", 1.9),
        CouplingBlock((3, 4), tau=0.004),
    ])
    u = sequence_propagator(seq + reversed_inverse(seq), crotonic)
    assert np.max(np.abs(u - np.eye(16))) < 1e-10


def test_duration_single_block(crotonic):
    tau = 1.0 / (2 * 72.4)
    seq = PulseSequence([CouplingBlock((1, 2), tau=tau)])
    assert sequence_duration(seq) == pytest.approx(6.906e-3, abs=1e-6)


def test_duration_additive(crotonic):
    a = PulseSequence([FreeDelay(0.001), CouplingBlock((1, 2), tau=0.002)])
    b = PulseSequence([Rotation((1,), "x", 1.0, duration=5e-6), FreeDelay(0.003)])
    assert sequence_duration(a + b) == sequence_duration(a) + sequence_duration(b)


def test_duration_empty():
    assert sequence_duration(PulseSequence([])) == 0.0


def test_angle_tokens():
    assert parse_angle("pi/2") == np.pi / 2
    assert parse_angle("-3pi/4") == -3 * np.pi / 4
    assert parse_angle("2pi") == 2 * np.pi
    assert parse_angle("1.5707963") == 1.5707963
    assert format_angle(np.pi / 2) == "pi/2"
    assert format_angle(-np.pi) == "-pi"
    assert parse_angle(format_angle(0.123456)) == 0.123456


def test_serialization_round_trip(crotonic):
    seq = PulseSequence(
        [
            Rotation((2,), "-y", np.pi / 2),
            Rotation((1, 3), "x", np.pi, duration=1e-5),
            CouplingBlock((1, 2), tau=6.906e-3),
            CouplingBlock((3, 4), angle=np.pi / 4),
            FreeDelay(1e-3),
            Gradient(),
        ],
        name="demo",
        description="round trip check",
    )
    text = format_sequence(seq)
    back = parse_sequence(text)
    assert back == seq
    assert format_sequence(back) == text


def test_parse_rejects_garbage():
    with pytest.raises(SequenceError):
        parse_sequence("WOBBLE foo=1")
    with pytest.raises(SequenceError):
        parse_sequence("ROT spins=1 axis=q angle=pi")


@pytest.mark.parametrize("line", [
    "ROT axis=x angle=pi",           # missing spins
    "CPL tau=1e-3",                  # missing pair
    "DELAY",                         # missing tau
    "ROT spins=1,x axis=x angle=pi",
    "CPL pair=1,b tau=1e-3",
    "CPL pair=1,2,3 tau=1e-3",
    "DELAY tau=soon",
])
def test_parse_rejects_malformed_fields(line):
    with pytest.raises(SequenceError):
        parse_sequence(line)


@pytest.mark.parametrize("make", [
    lambda: FreeDelay(float("nan")),
    lambda: FreeDelay(float("inf")),
    lambda: CouplingBlock((1, 2), tau=float("nan")),
    lambda: CouplingBlock((1, 2), angle=float("inf")),
], ids=["delay-nan", "delay-inf", "coupling-tau-nan", "coupling-angle-inf"])
def test_non_finite_timing_rejected(make):
    with pytest.raises(SequenceError):
        make()


def test_compiled_coupling_mode_rejected():
    with pytest.raises(SequenceError):
        parse_sequence("CPL pair=2,3 tau=7.1e-3 mode=compiled")
    block = CouplingBlock((2, 3), tau=7.1e-3)
    assert parse_sequence("CPL pair=2,3 tau=7.1e-3").instructions == (block,)
    assert parse_sequence("CPL pair=2,3 tau=7.1e-3 mode=ideal").instructions == (block,)
