"""Dense operator algebra over n spins: Pauli strings, exponentials, composition.

Convention (binding for the whole package): spin 1 is the leftmost tensor
factor, i.e. the most significant qubit of the basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

LETTERS = "IXYZ"

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class PauliError(ValueError):
    pass


@dataclass(frozen=True)
class PauliString:
    """Signed tensor product of single-spin Pauli letters."""

    letters: str
    coefficient: float = 1.0

    def __post_init__(self):
        bad = set(self.letters) - set(LETTERS)
        if bad:
            raise PauliError(f"unknown Pauli letters: {sorted(bad)}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) <= {"I"}

    @classmethod
    def single(cls, n: int, spin: int, letter: str, coefficient: float = 1.0) -> "PauliString":
        """Pauli `letter` on 1-based `spin`, identity elsewhere."""
        if not 1 <= spin <= n:
            raise PauliError(f"spin {spin} out of range 1..{n}")
        letters = "I" * (spin - 1) + letter + "I" * (n - spin)
        return cls(letters, coefficient)

    @classmethod
    def z_string(cls, n: int, spins, coefficient: float = 1.0) -> "PauliString":
        """Product of sigma-z over the given 1-based spins."""
        letters = ["I"] * n
        for s in spins:
            if not 1 <= s <= n:
                raise PauliError(f"spin {s} out of range 1..{n}")
            letters[s - 1] = "Z"
        return cls("".join(letters), coefficient)


def pauli_matrix(p: PauliString, n: int) -> np.ndarray:
    """Dense matrix of a PauliString on n spins (spin 1 = leftmost factor)."""
    if p.n != n:
        raise PauliError(f"PauliString has {p.n} letters, expected {n}")
    m = reduce(np.kron, (_SINGLE[c] for c in p.letters))
    return p.coefficient * m


def pauli_exponential(p: PauliString, theta: float, n: int) -> np.ndarray:
    """exp(-i*theta*M(p)) in closed form, for p with coefficient +-1."""
    if p.is_identity:
        raise PauliError("exponential of identity string is a pure phase; not supported")
    if abs(abs(p.coefficient) - 1.0) > 1e-12:
        raise PauliError("pauli_exponential requires coefficient +-1")
    m = pauli_matrix(p, n)
    dim = 2 ** n
    return np.cos(theta) * np.eye(dim) - 1j * np.sin(theta) * m


def compose(ops) -> np.ndarray:
    """Product of operators; the FIRST list element is applied first to states."""
    ops = list(ops)
    if not ops:
        raise PauliError("compose of empty list")
    dim = ops[0].shape[0]
    for op in ops:
        if op.shape != (dim, dim):
            raise PauliError("dimension mismatch in compose")
    out = ops[0]
    for op in ops[1:]:
        out = op @ out
    return out


@dataclass(frozen=True)
class PhaseVerdict:
    equal: bool
    phase: float
    deviation: float


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> PhaseVerdict:
    """Find phi minimizing max|a - e^{i phi} b|; phi read off the largest entry of b."""
    if not 0 <= tol < np.inf:
        raise PauliError(f"tolerance must be finite and non-negative, got {tol!r}")
    if a.shape != b.shape:
        raise PauliError("shape mismatch")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) == 0:
        raise PauliError("zero matrix has no global phase")
    ratio = a[idx] / b[idx]
    if abs(ratio) == 0:
        # a vanishes where b peaks; no phase can align them
        return PhaseVerdict(False, 0.0, float(np.max(np.abs(a - b))))
    phase = float(np.angle(ratio))
    deviation = float(np.max(np.abs(a - np.exp(1j * phase) * b)))
    return PhaseVerdict(deviation <= tol, phase, deviation)


# Row P of this map holds the entries of M(P)^T / 2, so that contracting it
# with a spin's (row, column) index pair gives Tr(a M(P)) / 2 for a 2x2 block a.
_TO_PAULI = np.array([_SINGLE[c].T.reshape(4) for c in LETTERS]) / 2


def pauli_coefficients(op: np.ndarray, cutoff: float = 1e-12) -> dict:
    """Expand a Hermitian operator in the Pauli basis: c_P = Tr(op M(P)) / 2^n.

    The transform pairs each spin's row and column axes into one index of
    size 4 and contracts it with the fixed (I, X, Y, Z)/2 map: n passes over
    4^n numbers.  Keys come in `itertools.product(LETTERS, repeat=n)` order.
    """
    dim = op.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise PauliError("dimension is not a power of two")
    if np.max(np.abs(op - op.conj().T)) > 1e-9:
        raise PauliError("operator is not Hermitian")
    pairs = [axis for k in range(n) for axis in (k, n + k)]
    t = np.asarray(op, dtype=complex).reshape((2,) * 2 * n).transpose(pairs)
    t = t.reshape(4 ** n)
    for k in range(n):
        t = (_TO_PAULI @ t.reshape(4 ** k, 4, -1)).reshape(-1)
    coeffs = t.real
    out = {}
    for index in np.flatnonzero(np.abs(coeffs) > cutoff):
        letters = "".join(LETTERS[(index >> 2 * (n - 1 - k)) & 3] for k in range(n))
        out[letters] = float(coeffs[index])
    return out
