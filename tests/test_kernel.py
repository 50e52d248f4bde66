"""Property tests: the propagation kernel and the Pauli transform against dense oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from zzcompile.molecule import spin_system
from zzcompile.paulis import pauli_coefficients
from zzcompile.sequence import (
    AXES,
    CouplingBlock,
    FreeDelay,
    Gradient,
    PulseSequence,
    Rotation,
    sequence_propagator,
)
from zzcompile.simulate import DeviationState, ErrorModel, apply_sequence

KERNEL = settings(max_examples=30, deadline=None)
TRANSFORM = settings(max_examples=20, deadline=None)

angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@st.composite
def molecules(draw, max_spins=6):
    """Shifts within +-1 kHz and a coupling of up to +-100 Hz (possibly 0) on every pair."""
    n = draw(st.integers(1, max_spins))
    hz = st.floats(-1000.0, 1000.0, allow_nan=False)
    shifts = draw(st.lists(hz, min_size=n, max_size=n))
    triples = [[k, l, draw(st.floats(-100.0, 100.0, allow_nan=False))]
               for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    return spin_system(n, shifts, triples)


@st.composite
def instructions(draw, n, gradients=False):
    """Rotations on random spin subsets and all six axes, blocks by tau or angle, delays."""
    kinds = ["rotation", "delay"] + (["coupling"] if n > 1 else [])
    if gradients:
        kinds.append("gradient")
    kind = draw(st.sampled_from(kinds))
    if kind == "rotation":
        spins = draw(st.sets(st.integers(1, n), min_size=1))
        return Rotation(tuple(spins), draw(st.sampled_from(AXES)), draw(angles))
    if kind == "coupling":
        pair = tuple(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
        if draw(st.booleans()):
            return CouplingBlock(pair, tau=draw(st.floats(-0.02, 0.02, allow_nan=False)))
        return CouplingBlock(pair, angle=draw(angles))
    if kind == "delay":
        return FreeDelay(draw(st.floats(0.0, 1e-3, allow_nan=False)))
    return Gradient()


@st.composite
def programs(draw, gradients=False):
    mol = draw(molecules())
    instrs = draw(st.lists(instructions(mol.n, gradients), max_size=8))
    return mol, instrs


def random_state(seed: int, n: int) -> np.ndarray:
    """Traceless Hermitian matrix with entries of order one."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    h = 0.5 * (a + a.conj().T)
    return h - np.trace(h) / 2 ** n * np.eye(2 ** n)


@KERNEL
@given(programs())
def test_propagator_matches_gate_by_gate_expm(program):
    mol, instrs = program
    u = sequence_propagator(PulseSequence(instrs), mol)
    assert np.max(np.abs(u - dense_oracle.sequence_unitary(instrs, mol))) <= 1e-12


@KERNEL
@given(programs(gradients=True), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(1.0, 1.0), (1.03, 1.0), (1.0, 0.9), (0.97, 0.95)]))
def test_apply_sequence_matches_dense_conjugation(program, seed, err):
    mol, instrs = program
    scale, damping = err
    rho = random_state(seed, mol.n)
    out = apply_sequence(DeviationState(rho), PulseSequence(instrs), mol,
                         ErrorModel(angle_scale=scale, per_instruction_damping=damping))
    ref = dense_oracle.apply_instructions(rho, instrs, mol, scale, damping)
    assert np.max(np.abs(out.matrix - ref)) <= 1e-12


@st.composite
def hermitian_operators(draw, max_spins=4):
    """Hermitian matrices with entries in quarter steps, so most coefficients are exactly 0 or far from the cutoff."""
    n = draw(st.integers(1, max_spins))
    dim = 2 ** n
    quarters = st.integers(-4, 4)
    re = np.array(draw(st.lists(quarters, min_size=dim * dim, max_size=dim * dim)))
    im = np.array(draw(st.lists(quarters, min_size=dim * dim, max_size=dim * dim)))
    a = (re + 1j * im).reshape(dim, dim) / 4
    return a + a.conj().T


@TRANSFORM
@given(hermitian_operators())
def test_pauli_transform_matches_trace_loop(op):
    fast = pauli_coefficients(op)
    slow = dense_oracle.pauli_table(op)
    assert list(fast) == list(slow)
    for key, c in slow.items():
        assert abs(fast[key] - c) <= 1e-12


@TRANSFORM
@given(hermitian_operators())
def test_pauli_coefficients_rebuild_operator(op):
    n = op.shape[0].bit_length() - 1
    rebuilt = sum((c * dense_oracle.on_spins(n, dict(enumerate(key, start=1)))
                   for key, c in pauli_coefficients(op).items()),
                  np.zeros_like(op, dtype=complex))
    assert np.max(np.abs(rebuilt - op)) <= 1e-12
