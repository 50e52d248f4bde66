"""Deviation-density-matrix dynamics: preparation, evolution, expectation values.

States are traceless Hermitian matrices (the deviation convention of
high-temperature NMR).  Expectation values are normalized as
Tr(rho * M(p)) / 2^n so a state equal to M(p) reads exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import FourBodyTarget, compile_four_body, prepare_sequence
from .molecule import SpinSystem, z_eigenvalues
from .paulis import PauliString, pauli_coefficients, pauli_exponential, pauli_matrix
from .sequence import (
    Gradient,
    PulseSequence,
    Rotation,
    instruction_propagator,
)


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class DeviationState:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > 1e-9:
            raise SimulationError("deviation state must be Hermitian")
        if abs(np.trace(m)) > 1e-9:
            raise SimulationError("deviation state must be traceless")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    def coefficients(self, cutoff: float = 1e-12) -> dict:
        return pauli_coefficients(self.matrix, cutoff)


@dataclass(frozen=True)
class ErrorModel:
    angle_scale: float = 1.0
    per_instruction_damping: float = 1.0

    def __post_init__(self):
        if self.angle_scale <= 0:
            raise SimulationError("angle_scale must be positive")
        if not 0 < self.per_instruction_damping <= 1:
            raise SimulationError("damping must lie in (0, 1]")

    @property
    def is_ideal(self) -> bool:
        return self.angle_scale == 1.0 and self.per_instruction_damping == 1.0


IDEAL = ErrorModel()


def thermal_deviation_state(sys: SpinSystem) -> DeviationState:
    """Equal-weight longitudinal state: sum_k sz_k (unnormalized)."""
    z = z_eigenvalues(sys.n)
    return DeviationState(np.diag(z.sum(axis=0).astype(complex)))


def _gradient_mask(n: int) -> np.ndarray:
    """True where the row and column states have equal total magnetization."""
    pops = np.array([bin(b).count("1") for b in range(2 ** n)])
    return pops[:, None] == pops[None, :]


def gradient_crush(state: DeviationState) -> DeviationState:
    """Keep only matrix elements between states of equal total magnetization."""
    return DeviationState(np.where(_gradient_mask(state.n), state.matrix, 0))


def _damp(matrix: np.ndarray, damping: float) -> np.ndarray:
    """Scale transverse (off-diagonal) components; I/Z-only strings are diagonal."""
    if damping == 1.0:
        return matrix
    diag = np.diag(np.diag(matrix))
    return diag + damping * (matrix - diag)


def apply_sequence(state: DeviationState, seq: PulseSequence, sys: SpinSystem,
                   err: ErrorModel = IDEAL) -> DeviationState:
    m = state.matrix
    for instr in seq:
        if isinstance(instr, Gradient):
            m = np.where(_gradient_mask(state.n), m, 0)
        else:
            if isinstance(instr, Rotation) and err.angle_scale != 1.0:
                instr = Rotation(instr.spins, instr.axis,
                                 instr.angle * err.angle_scale, instr.duration)
            u = instruction_propagator(instr, sys)
            m = u @ m @ u.conj().T
        m = _damp(m, err.per_instruction_damping)
    return DeviationState(m)


def prepare_initial_state(sys: SpinSystem, target_spin: int = 3,
                          err: ErrorModel = IDEAL) -> DeviationState:
    """Run the preparation program on the thermal state; ideally yields sx on the target."""
    seq = prepare_sequence(sys, target_spin)
    return apply_sequence(thermal_deviation_state(sys), seq, sys, err)


def expectation(state: DeviationState, p: PauliString) -> float:
    dim = state.matrix.shape[0]
    if 2 ** p.n != dim:
        raise SimulationError("dimension mismatch between state and Pauli string")
    return float(np.trace(state.matrix @ pauli_matrix(p, p.n)).real / dim)


MODES = ("analytic", "compiled-ideal", "compiled-refocused")


def evolve_four_body(state: DeviationState, sys: SpinSystem, target: FourBodyTarget,
                     mode: str = "analytic", err: ErrorModel = IDEAL,
                     variant: str = "A") -> DeviationState:
    """Apply the four-body propagator by direct exponentiation or via compilation."""
    if mode not in MODES:
        raise SimulationError(f"unknown mode {mode!r}")
    if mode == "analytic":
        theta = 0.5 * np.pi * target.j_eff * target.duration
        u = pauli_exponential(PauliString.z_string(sys.n, target.spins), theta, sys.n)
        return DeviationState(u @ state.matrix @ u.conj().T)
    realization = "ideal" if mode == "compiled-ideal" else "refocused"
    report = compile_four_body(sys, target, variant=variant, realization=realization)
    return apply_sequence(state, report.sequence, sys, err)


def sweep_four_body(sys: SpinSystem, j_eff: float, t_points, mode: str = "analytic",
                    err: ErrorModel = IDEAL, target_spin: int = 3, variant: str = "A"):
    """For each duration T: prepare, evolve, read out <sx on target spin>.

    Returns a list of (pi*J_eff*T, expectation) rows in input order.
    """
    probe = PauliString.single(sys.n, target_spin, "X")
    state = prepare_initial_state(sys, target_spin, err)
    rows = []
    for t in t_points:
        tgt = FourBodyTarget(spins=(1, 2, 3, 4), j_eff=j_eff, duration=t)
        evolved = evolve_four_body(state, sys, tgt, mode, err, variant)
        rows.append((np.pi * j_eff * t, expectation(evolved, probe)))
    return rows


def sweep_to_csv(rows, mode: str) -> str:
    lines = ["pi_J_T,expectation_sx3,mode"]
    for x, y in rows:
        lines.append(f"{x!r},{y!r},{mode}")
    return "\n".join(lines) + "\n"
