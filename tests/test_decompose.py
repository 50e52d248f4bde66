import numpy as np
import pytest
from scipy.linalg import expm

from zzcompile.decompose import (
    DecompositionError,
    FourBodyTarget,
    compile_four_body,
    decompose_chain,
    p1_block,
    p2_block,
    verify_decomposition,
)
from zzcompile.molecule import load_molecule, spin_system
from zzcompile.paulis import PauliString, pauli_matrix
from zzcompile.sequence import CouplingBlock, PulseSequence, Rotation, sequence_propagator


@pytest.fixture(scope="module")
def crotonic():
    return load_molecule("crotonic-acid")


@pytest.fixture(scope="module")
def chain5():
    # synthetic 5-spin system with nonzero couplings on every chain pair
    return spin_system(
        5,
        [120.0, -340.0, 75.0, 0.0, 51.0],
        [[1, 2, 50.0], [2, 3, 35.0], [3, 4, 61.0], [4, 5, 44.0],
         [1, 3, 4.0], [2, 4, 3.0], [3, 5, 6.0]],
    )


def z_string_oracle(n, spins, theta):
    """Independent oracle: expm of the diagonal generator."""
    return expm(-1j * theta * pauli_matrix(PauliString.z_string(n, spins), n))


def test_p1_structure(crotonic):
    seq = p1_block(1, crotonic)
    kinds = [type(i).__name__ for i in seq]
    assert kinds == ["Rotation", "CouplingBlock", "Rotation"]
    first, block, last = seq.instructions
    assert (first.spins, first.axis, first.angle) == ((2,), "y", np.pi / 2)
    assert block.pair == (1, 2) and block.angle == np.pi / 4
    assert (last.spins, last.axis, last.angle) == ((2,), "x", np.pi / 2)


def test_p2_structure(crotonic):
    seq = p2_block(1, crotonic)
    assert [type(i).__name__ for i in seq] == [
        "Rotation", "Rotation", "CouplingBlock", "Rotation"]


def test_p1_unitary(crotonic):
    u = sequence_propagator(p1_block(1, crotonic), crotonic)
    assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-12


@pytest.mark.parametrize("l", [1, 2, 3])
def test_inverse_pair_identity(crotonic, l):
    u1 = sequence_propagator(p1_block(l, crotonic), crotonic)
    u2 = sequence_propagator(p2_block(l, crotonic), crotonic)
    assert np.max(np.abs(u2 @ u1 - np.eye(16))) < 1e-12


def test_chain_base_case(crotonic):
    report = decompose_chain(crotonic, (1, 2), 1.0, 0.01)
    blocks = [i for i in report.sequence if isinstance(i, CouplingBlock)]
    assert len(report.sequence) == 1 and len(blocks) == 1
    assert report.deviation < 1e-12


def test_chain_three_spins(crotonic):
    jt = 0.5  # (pi/2) J T = pi/4 * 2 -> theta = pi/4
    report = decompose_chain(crotonic, (1, 2, 3), jt, 1.0)
    assert report.deviation < 1e-10
    u = sequence_propagator(report.sequence, crotonic)
    oracle = z_string_oracle(4, (1, 2, 3), 0.5 * np.pi * jt)
    from zzcompile.paulis import equal_up_to_global_phase
    assert equal_up_to_global_phase(u, oracle, 1e-10).equal


def test_chain_four_spins_oracle(crotonic):
    jt = 0.25  # (pi/2) J T = pi/8
    report = decompose_chain(crotonic, (1, 2, 3, 4), jt, 1.0)
    u = sequence_propagator(report.sequence, crotonic)
    oracle = z_string_oracle(4, (1, 2, 3, 4), np.pi / 8)
    from zzcompile.paulis import equal_up_to_global_phase
    assert equal_up_to_global_phase(u, oracle, 1e-10).equal
    assert report.ok


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chain_instruction_count(chain5, n):
    report = decompose_chain(chain5, tuple(range(1, n + 1)), 0.3, 1.0)
    assert len(report.sequence) == 7 * (n - 2) + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chain_randomized_soundness(chain5, n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        jt = rng.uniform(-2, 2)
        report = decompose_chain(chain5, tuple(range(1, n + 1)), jt, 1.0)
        assert report.deviation < 1e-10


def test_chain_rejects_short_input(crotonic):
    with pytest.raises(DecompositionError):
        decompose_chain(crotonic, (1,), 0.4, 1.0)
    with pytest.raises(DecompositionError):
        decompose_chain(crotonic, (1, 1, 2), 0.4, 1.0)


def test_chain_angle_linearity(crotonic):
    r1 = decompose_chain(crotonic, (1, 2, 3, 4), 0.4, 1.0)
    r2 = decompose_chain(crotonic, (1, 2, 3, 4), 0.4, 2.0)
    core1 = [i for i in r1.sequence
             if isinstance(i, CouplingBlock) and i.pair == (3, 4)]
    core2 = [i for i in r2.sequence
             if isinstance(i, CouplingBlock) and i.pair == (3, 4)]
    assert len(core1) == len(core2) == 1
    assert core2[0].tau == pytest.approx(2 * core1[0].tau)
    # conjugation blocks carry fixed angles and do not scale with duration
    rest1 = [i for i in r1.sequence if i not in core1]
    rest2 = [i for i in r2.sequence if i not in core2]
    assert rest1 == rest2


def test_four_body_variant_a_ideal(crotonic):
    # pi J T = pi/2 -> J T = 0.5 -> core tau = 0.5 / 41.3 s
    target = FourBodyTarget(j_eff=1.0, duration=0.5)
    report = compile_four_body(crotonic, target, "A", "ideal")
    assert report.deviation < 1e-10
    assert len(report.sequence) == 15
    core = [i for i in report.sequence
            if isinstance(i, CouplingBlock) and i.pair == (3, 4)]
    assert core[0].tau == pytest.approx(0.5 / 41.3)
    assert core[0].tau == pytest.approx(12.11e-3, abs=1e-5)


def test_four_body_zero_angle(crotonic):
    from zzcompile.paulis import equal_up_to_global_phase
    report = compile_four_body(crotonic, FourBodyTarget(j_eff=1.0, duration=0.0),
                               "A", "ideal")
    u = sequence_propagator(report.sequence, crotonic)
    assert equal_up_to_global_phase(u, np.eye(16), 1e-10).equal


def test_four_body_refocused(crotonic):
    target = FourBodyTarget(j_eff=1.0, duration=0.25)
    report = compile_four_body(crotonic, target, "A", "refocused")
    assert report.deviation < 1e-10
    # conjugation blocks do not scale with T
    assert report.duration == pytest.approx(
        1 / 72.4 + 1 / 70.3 + 0.25 / 41.3, rel=1e-12)


def test_four_body_variant_b_negative_duration(crotonic):
    with pytest.raises(DecompositionError, match="negative core duration"):
        compile_four_body(crotonic, FourBodyTarget(j_eff=1.0, duration=0.25), "B")


def test_variant_equivalence_positive_j():
    sys = spin_system(4, [90.0, -20.0, 45.0, 10.0],
                      [[1, 2, 55.0], [2, 3, 47.0], [3, 4, 38.0], [2, 4, 21.0],
                       [1, 3, 3.0], [1, 4, 5.0]])
    from zzcompile.paulis import equal_up_to_global_phase
    rng = np.random.default_rng(5)
    for _ in range(5):
        jt = rng.uniform(0, 2)
        ra = compile_four_body(sys, FourBodyTarget(j_eff=jt, duration=1.0), "A")
        rb = compile_four_body(sys, FourBodyTarget(j_eff=jt, duration=1.0), "B")
        ua = sequence_propagator(ra.sequence, sys)
        ub = sequence_propagator(rb.sequence, sys)
        assert equal_up_to_global_phase(ua, ub, 1e-10).equal


def test_four_body_zero_coupling_rejected():
    sys = spin_system(4, [0.0] * 4, [[1, 2, 10.0], [2, 3, 10.0]])
    with pytest.raises(DecompositionError, match="zero coupling"):
        compile_four_body(sys, FourBodyTarget(j_eff=0.1, duration=1.0), "A")


def test_verify_empty_sequence(crotonic):
    report = verify_decomposition(PulseSequence([]), np.eye(16), crotonic)
    assert report.deviation == 0.0
    assert report.global_phase == 0.0


def test_verify_pi_pulse_phase(crotonic):
    seq = PulseSequence([Rotation((1,), "x", np.pi)])
    ideal = pauli_matrix(PauliString("XIII"), 4)
    report = verify_decomposition(seq, ideal, crotonic)
    assert report.deviation < 1e-12
    assert report.global_phase == pytest.approx(-np.pi / 2)


def test_verify_mismatch_is_data_not_error(crotonic):
    seq = PulseSequence([Rotation((1,), "x", np.pi / 3)])
    ideal = pauli_matrix(PauliString("XIII"), 4)
    report = verify_decomposition(seq, ideal, crotonic)
    assert report.deviation > 0.1  # no exception raised
    assert not report.ok


def test_verify_nan_deviation_is_not_ok(crotonic):
    ideal = np.eye(16, dtype=complex)
    ideal[1, 1] = np.nan
    with np.errstate(invalid="ignore"):
        report = verify_decomposition(PulseSequence([]), ideal, crotonic)
    assert np.isnan(report.deviation)
    assert not report.ok


def test_report_serializes(crotonic):
    import json
    report = decompose_chain(crotonic, (1, 2, 3), 0.3, 1.0)
    doc = json.loads(report.to_json())
    assert doc["corrected"] is False
    assert doc["deviation"] < 1e-10
    assert isinstance(doc["sequence"], list)
