"""Independent references for the benchmark's output checks.

Nothing here calls zzcompile: each reference is rebuilt from scratch with
numpy and scipy, so a defect in the package cannot hide by agreeing with
itself.  The check functions return a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import io
import math
from functools import lru_cache

import numpy as np

# Tolerances are fixed here, before any run: the sweep and fit bounds come
# from the paper's curve, the chain bound leaves room for rounding in two
# independent 50-factor products, and the table bound is what a 32x32
# Pauli rebuild reaches in double precision.
COMPILE_TOL = 1e-10        # the CLI's default verification tolerance
SWEEP_TOL = 1e-9
FIT_TOL = 1e-6
CHAIN_TOL = 1e-9
TABLE_TOL = 1e-10
RATIO_TOL = 0.02
SPECTRUM_POINTS = 2 ** 17
NUMPY_SCALAR = "np.float64("

LETTERS = "IXYZ"
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def within(value: float, tol: float) -> bool:
    """True only for a finite value at most tol; NaN never passes."""
    return value <= tol


def z_string_diagonal(n: int, spins) -> np.ndarray:
    """Eigenvalues (+1/-1) of the product of sigma-z over `spins`; spin 1 is the top bit."""
    basis = np.arange(2 ** n)
    diag = np.ones(2 ** n)
    for s in spins:
        diag *= 1 - 2 * ((basis >> (n - s)) & 1)
    return diag


def apply_gate(u: np.ndarray, gate: np.ndarray, spins, n: int) -> np.ndarray:
    """Left-multiply u (2^n rows) by `gate` acting on the given 1-based spins."""
    k = len(spins)
    axes = [s - 1 for s in spins]
    t = u.reshape((2,) * n + (-1,))
    t = np.tensordot(gate.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(t, list(range(k)), axes).reshape(u.shape)


@lru_cache(maxsize=4096)
def _gate(letters: str, phi: float) -> np.ndarray:
    """expm(-i*phi*P) for a one- or two-spin Pauli product P, from scipy."""
    from scipy.linalg import expm   # imported on first use, after set-up is timed

    generator = PAULI[letters[0]] if len(letters) == 1 else np.kron(PAULI[letters[0]],
                                                                     PAULI[letters[1]])
    return expm(-1j * phi * generator)


def instruction_gates(instr, couplings):
    """(gate, spins) factors of one ideal instruction, each a scipy expm.

    Rotation [theta]_a generates exp(-i*(theta/2)*sigma_a) on every listed
    spin; a coupling block is exp(-i*phi*sz_k*sz_l) with phi its angle, or
    (pi/2)*J_kl*tau when only tau is given.
    """
    kind = type(instr).__name__
    if kind == "Rotation":
        sign = -1.0 if instr.axis.startswith("-") else 1.0
        gate = _gate(instr.axis.lstrip("-").upper(), 0.5 * sign * instr.angle)
        return [(gate, (s,)) for s in instr.spins]
    if kind == "CouplingBlock":
        k, l = instr.pair
        phi = instr.angle
        if phi is None:
            phi = 0.5 * math.pi * couplings[(k, l)] * instr.tau
        return [(_gate("ZZ", phi), (k, l))]
    raise ValueError(f"chain programs hold only rotations and coupling blocks, got {kind}")


def phase_aligned_deviation(u: np.ndarray, v: np.ndarray) -> float:
    """max|u - e^{i phi} v| with phi the phase of the overlap Tr(v^dagger u)."""
    overlap = np.vdot(v, u)
    if overlap == 0:
        return math.inf
    return float(np.max(np.abs(u - (overlap / abs(overlap)) * v)))


def check_chain(instructions, n: int, couplings, spins, jt: float) -> list:
    """The emitted chain multiplied out gate by gate must equal expm of the target."""
    from scipy.linalg import expm

    u = np.eye(2 ** n, dtype=complex)
    for instr in instructions:
        for gate, on in instruction_gates(instr, couplings):
            u = apply_gate(u, gate, on, n)
    generator = np.diag(z_string_diagonal(n, spins)).astype(complex)
    target = expm(-0.5j * math.pi * jt * generator)
    dev = phase_aligned_deviation(u, target)
    if not within(dev, CHAIN_TOL):
        return [f"chain differs from expm of the target by {dev:.3e}"]
    return []


def pauli_sum(table: dict, n: int) -> np.ndarray:
    """Sum of c_P * P over a {letters: c_P} table, contracted one spin at a time."""
    coeffs = np.zeros((4,) * n, dtype=complex)
    for letters, c in table.items():
        coeffs[tuple(LETTERS.index(ch) for ch in letters)] = c
    basis = np.stack([PAULI[ch] for ch in LETTERS])          # (4, 2, 2)
    t = coeffs
    for _ in range(n):
        t = np.tensordot(t, basis, axes=([0], [0]))          # appends (row, col) of one spin
    rows = [2 * k for k in range(n)]
    cols = [2 * k + 1 for k in range(n)]
    return t.transpose(rows + cols).reshape(2 ** n, 2 ** n)


def check_pauli_table(table: dict, op: np.ndarray) -> list:
    """The table's Pauli sum must rebuild the input matrix."""
    n = op.shape[0].bit_length() - 1
    bad = [k for k in table if len(k) != n or set(k) - set(LETTERS)]
    if bad:
        return [f"Pauli keys {bad[:3]!r} are not {n}-letter strings"]
    dev = float(np.max(np.abs(pauli_sum(table, n) - op)))
    if not within(dev, TABLE_TOL):
        return [f"Pauli table rebuilds the input to {dev:.3e}"]
    return []


def check_report(summary: dict, grid) -> list:
    """`report` summary: the sweep follows cos(pi*J*T), the fit is (1, 1), compile verified."""
    problems = []
    rows = summary["sweep"]
    if len(rows) != len(grid):
        return [f"sweep has {len(rows)} rows, expected {len(grid)}"]
    for x, row in zip(grid, rows):
        if not within(abs(row["pi_J_T"] - x), 1e-12):
            problems.append(f"sweep point {row['pi_J_T']!r} is not the requested {x!r}")
        err = abs(row["expectation_sx3"] - math.cos(x))
        if not within(err, SWEEP_TOL):
            problems.append(f"sweep value at {x:.6f} is off cos(x) by {err:.3e}")
    fit = summary["fit"]
    if not (within(abs(fit["A"] - 1), FIT_TOL) and within(abs(fit["b"] - 1), FIT_TOL)):
        problems.append(f"fit gave A={fit['A']!r}, b={fit['b']!r}")
    dev = summary["compile"]["deviation"]
    if not within(dev, COMPILE_TOL):
        problems.append(f"compile deviation {dev!r} exceeds {COMPILE_TOL}")
    return problems


def load_spectrum_csv(path) -> np.ndarray:
    """Columns freq_hz, real, imag of a `spectrum` CSV, header checked.

    Under numpy 2 the CLI writes each value as its scalar repr,
    ``np.float64(v)``; the wrapper is stripped so the values themselves can
    be checked.  The bytes are pinned separately by the golden hashes.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "freq_hz,real,imag":
            raise ValueError(f"unexpected spectrum header {header!r}")
        body = fh.read()
    if body.startswith(NUMPY_SCALAR):
        body = body.replace(NUMPY_SCALAR, "").replace(")", "")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape != (SPECTRUM_POINTS, 3):
        raise ValueError(f"spectrum has shape {data.shape}, expected ({SPECTRUM_POINTS}, 3)")
    if not np.all(np.diff(data[:, 0]) > 0):
        raise ValueError("spectrum frequency axis is not strictly increasing")
    return data


def multiplet_area(data: np.ndarray, center: float, halfwidth: float) -> float:
    """Absorption (real part) summed over center +- halfwidth, times the axis step."""
    freqs = data[:, 0]
    mask = (freqs >= center - halfwidth) & (freqs <= center + halfwidth)
    return float(np.sum(data[mask, 1]) * (freqs[1] - freqs[0]))


def check_ratio(area: float, reference: float, x: float) -> list:
    ratio = area / reference
    err = abs(ratio - math.cos(x))
    if not within(err, RATIO_TOL):
        return [f"multiplet ratio {ratio:.4f} is off cos({x:.6f}) by {err:.4f}"]
    return []
