import numpy as np
import pytest

from zzcompile.decompose import FourBodyTarget, prepare_sequence
from zzcompile.molecule import load_molecule, spin_system
from zzcompile.paulis import PauliString, pauli_matrix
from zzcompile.sequence import CouplingBlock, Gradient, PulseSequence, Rotation
from zzcompile.simulate import (
    DeviationState,
    ErrorModel,
    SimulationError,
    apply_sequence,
    evolve_four_body,
    expectation,
    gradient_crush,
    prepare_initial_state,
    sweep_four_body,
    thermal_deviation_state,
)


@pytest.fixture(scope="module")
def crotonic():
    return load_molecule("crotonic-acid")


def state_of(letters, coeff=1.0):
    return DeviationState(coeff * pauli_matrix(PauliString(letters), len(letters)))


def test_thermal_single_spin():
    sys1 = spin_system(1, [0.0], [])
    assert np.array_equal(thermal_deviation_state(sys1).matrix, np.diag([1, -1]))


def test_thermal_two_spins():
    sys2 = spin_system(2, [0.0, 0.0], [])
    assert np.array_equal(thermal_deviation_state(sys2).matrix,
                          np.diag([2, 0, 0, -2]))


def test_thermal_four_spins(crotonic):
    coeffs = thermal_deviation_state(crotonic).coefficients()
    assert coeffs == pytest.approx(
        {"ZIII": 1.0, "IZII": 1.0, "IIZI": 1.0, "IIIZ": 1.0})


def test_crush_kills_transverse():
    crushed = gradient_crush(state_of("XIII"))
    assert np.max(np.abs(crushed.matrix)) == 0


def test_crush_keeps_longitudinal():
    s = state_of("IIZI")
    assert np.array_equal(gradient_crush(s).matrix, s.matrix)


def test_crush_xx_zero_quantum_part():
    crushed = gradient_crush(state_of("XXII"))
    expected = 0.5 * (pauli_matrix(PauliString("XXII"), 4)
                      + pauli_matrix(PauliString("YYII"), 4))
    assert np.max(np.abs(crushed.matrix - expected)) < 1e-14


def test_crush_idempotent():
    s = DeviationState(pauli_matrix(PauliString("XYZI"), 4)
                       + pauli_matrix(PauliString("ZZII"), 4))
    once = gradient_crush(s)
    twice = gradient_crush(once)
    assert np.array_equal(once.matrix, twice.matrix)


def test_prepare_initial_state(crotonic):
    coeffs = prepare_initial_state(crotonic).coefficients(cutoff=1e-10)
    assert coeffs == pytest.approx({"IIXI": 1.0})


def test_prepare_without_gradient(crotonic):
    seq = prepare_sequence(crotonic, 3)
    no_grad = PulseSequence([i for i in seq if not isinstance(i, Gradient)])
    state = apply_sequence(thermal_deviation_state(crotonic), no_grad, crotonic)
    coeffs = state.coefficients(cutoff=1e-10)
    assert coeffs == pytest.approx(
        {"XIII": 1.0, "IXII": 1.0, "IIXI": 1.0, "IIIX": 1.0})


def test_prepare_other_target(crotonic):
    coeffs = prepare_initial_state(crotonic, target_spin=1).coefficients(1e-10)
    assert coeffs == pytest.approx({"XIII": 1.0})


def test_apply_matches_prepare(crotonic):
    seq = prepare_sequence(crotonic, 3)
    state = apply_sequence(thermal_deviation_state(crotonic), seq, crotonic)
    assert np.max(np.abs(state.matrix - prepare_initial_state(crotonic).matrix)) < 1e-12


def test_pi_pulse_flips_x(crotonic):
    seq = PulseSequence([Rotation((3,), "y", np.pi)])
    out = apply_sequence(state_of("IIXI"), seq, crotonic)
    assert out.coefficients(1e-10) == pytest.approx({"IIXI": -1.0})


def test_damping_scales_transverse(crotonic):
    err = ErrorModel(per_instruction_damping=0.9)
    seq = PulseSequence([Rotation((1,), "z", 0.0)])
    out = apply_sequence(state_of("IIXI"), seq, crotonic, err)
    assert out.coefficients() == pytest.approx({"IIXI": 0.9})
    # longitudinal terms untouched
    out_z = apply_sequence(state_of("ZZII"), seq, crotonic, err)
    assert out_z.coefficients() == pytest.approx({"ZZII": 1.0})


def test_error_model_validation():
    with pytest.raises(SimulationError):
        ErrorModel(angle_scale=0.0)
    with pytest.raises(SimulationError):
        ErrorModel(per_instruction_damping=1.5)


def test_expectation_normalization():
    s = state_of("IIXI")
    assert expectation(s, PauliString("IIXI")) == pytest.approx(1.0)
    assert expectation(s, PauliString("IIYI")) == pytest.approx(0.0)


def test_expectation_dimension_mismatch():
    with pytest.raises(SimulationError):
        expectation(state_of("XI"), PauliString("XII"))


def test_evolution_matches_closed_form(crotonic):
    # starting from sx3 the four-body evolution mixes sx3 and sz1 sz2 sy3 sz4
    jt = 1.0 / 3.0  # pi J T = pi/3
    out = evolve_four_body(state_of("IIXI"), crotonic,
                           FourBodyTarget(j_eff=1.0, duration=jt), "analytic")
    assert expectation(out, PauliString("IIXI")) == pytest.approx(0.5, abs=1e-12)
    coeffs = out.coefficients(1e-10)
    assert coeffs["IIXI"] == pytest.approx(np.cos(np.pi * jt))
    assert coeffs["ZZYZ"] == pytest.approx(np.sin(np.pi * jt))


def test_evolution_zero_time(crotonic):
    out = evolve_four_body(state_of("IIXI"), crotonic,
                           FourBodyTarget(j_eff=1.0, duration=0.0), "analytic")
    assert out.coefficients(1e-10) == pytest.approx({"IIXI": 1.0})


def test_evolution_quarter_period(crotonic):
    out = evolve_four_body(state_of("IIXI"), crotonic,
                           FourBodyTarget(j_eff=1.0, duration=0.5), "analytic")
    assert out.coefficients(1e-10) == pytest.approx({"ZZYZ": 1.0})


def test_evolution_eighth_period(crotonic):
    out = evolve_four_body(state_of("IIXI"), crotonic,
                           FourBodyTarget(j_eff=1.0, duration=0.25), "analytic")
    c = np.sqrt(2) / 2
    assert out.coefficients(1e-10) == pytest.approx({"IIXI": c, "ZZYZ": c})


def test_sweep_cosine_grid(crotonic):
    t_points = [n / 4 for n in range(9)]
    rows = sweep_four_body(crotonic, 1.0, t_points, "analytic")
    expected = [np.cos(n * np.pi / 4) for n in range(9)]
    assert [y for _, y in rows] == pytest.approx(expected, abs=1e-12)
    assert [x for x, _ in rows] == pytest.approx([n * np.pi / 4 for n in range(9)])


def test_sweep_empty(crotonic):
    assert sweep_four_body(crotonic, 1.0, [], "analytic") == []


def test_mode_agreement(crotonic):
    t_points = [n / 4 for n in range(9)]
    results = {
        mode: [y for _, y in sweep_four_body(crotonic, 1.0, t_points, mode)]
        for mode in ("analytic", "compiled-ideal", "compiled-refocused")
    }
    for mode in ("compiled-ideal", "compiled-refocused"):
        assert results[mode] == pytest.approx(results["analytic"], abs=1e-9)


def test_state_level_coupling_evolution(crotonic):
    # sx1 under an ideal zz block: cos(pi J t) on X1, sin(pi J t) on Y1 Z2
    rng = np.random.default_rng(17)
    sys2 = spin_system(2, [100.0, -50.0], [[1, 2, 33.0]])
    for _ in range(5):
        t = rng.uniform(0, 0.05)
        seq = PulseSequence([CouplingBlock((1, 2), tau=t)])
        out = apply_sequence(state_of("XI"), seq, sys2)
        coeffs = out.coefficients(1e-12)
        assert coeffs.get("XI", 0.0) == pytest.approx(np.cos(np.pi * 33.0 * t), abs=1e-10)
        assert coeffs.get("YZ", 0.0) == pytest.approx(np.sin(np.pi * 33.0 * t), abs=1e-10)


def test_hermiticity_and_trace_preserved(crotonic):
    seq = prepare_sequence(crotonic, 3)
    err = ErrorModel(angle_scale=1.02, per_instruction_damping=0.98)
    state = apply_sequence(thermal_deviation_state(crotonic), seq, crotonic, err)
    m = state.matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-9
    assert abs(np.trace(m)) < 1e-9


def test_norm_monotone_under_damping(crotonic):
    err = ErrorModel(per_instruction_damping=0.95)
    state = state_of("IIXI")
    norms = [np.linalg.norm(state.matrix)]
    for instr in prepare_sequence(crotonic, 3):
        state = apply_sequence(state, PulseSequence([instr]), crotonic, err)
        norms.append(np.linalg.norm(state.matrix))
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_imperfect_pulses_change_amplitude(crotonic):
    from zzcompile.spectra import fit_cosine
    err = ErrorModel(angle_scale=1.01, per_instruction_damping=0.999)
    rows = sweep_four_body(crotonic, 1.0, [n / 4 for n in range(9)],
                           "compiled-refocused", err)
    fit = fit_cosine([x for x, _ in rows], [y for _, y in rows])
    assert abs(fit.amplitude - 1.0) > 1e-3


def test_apply_sequence_rejects_spin_count_mismatch(crotonic):
    seq = PulseSequence([Rotation((1,), "x", np.pi / 2)])
    with pytest.raises(SimulationError, match="spins"):
        apply_sequence(state_of("XI"), seq, crotonic)
