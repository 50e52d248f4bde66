"""Dense reference implementations the kernel tests compare against.

Each instruction becomes a full 2^n x 2^n unitary, the matrix exponential
(scipy.linalg.expm) of its own generator built from Kronecker products.
Nothing here calls the package's propagation code, so an error in the
kernel cannot hide by agreeing with itself.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

import numpy as np
from scipy.linalg import expm

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def on_spins(n: int, letters: dict) -> np.ndarray:
    """Dense Pauli product with letters[s] on 1-based spin s, identity elsewhere."""
    return reduce(np.kron, (PAULI[letters.get(s, "I")] for s in range(1, n + 1)))


def hamiltonian(sys) -> np.ndarray:
    """-pi * sum nu_k sz_k + (pi/2) * sum_{k<l} J_kl sz_k sz_l, from Kronecker products."""
    n = sys.n
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for k in range(1, n + 1):
        h -= np.pi * sys.shifts[k - 1] * on_spins(n, {k: "Z"})
        for l in range(k + 1, n + 1):
            h += 0.5 * np.pi * sys.couplings[k - 1][l - 1] * on_spins(n, {k: "Z", l: "Z"})
    return h


def instruction_unitary(instr, sys) -> np.ndarray:
    """expm(-i * generator) of one Rotation, CouplingBlock or FreeDelay."""
    n = sys.n
    kind = type(instr).__name__
    if kind == "Rotation":
        sign = -1.0 if instr.axis.startswith("-") else 1.0
        letter = instr.axis.lstrip("-").upper()
        gen = sum(on_spins(n, {s: letter}) for s in instr.spins)
        return expm(-0.5j * sign * instr.angle * gen)
    if kind == "CouplingBlock":
        k, l = instr.pair
        theta = instr.angle
        if theta is None:
            theta = 0.5 * np.pi * sys.couplings[k - 1][l - 1] * instr.tau
        return expm(-1j * theta * on_spins(n, {k: "Z", l: "Z"}))
    if kind == "FreeDelay":
        return expm(-1j * instr.tau * hamiltonian(sys))
    raise ValueError(f"no unitary for {kind}")


def sequence_unitary(instructions, sys) -> np.ndarray:
    """Gate-by-gate product, first instruction applied first."""
    u = np.eye(2 ** sys.n, dtype=complex)
    for instr in instructions:
        u = instruction_unitary(instr, sys) @ u
    return u


def gradient_mask(n: int) -> np.ndarray:
    """True where row and column basis states have the same number of down spins."""
    ones = [sum(bits) for bits in product((0, 1), repeat=n)]
    return np.equal.outer(ones, ones)


def apply_instructions(m: np.ndarray, instructions, sys, angle_scale=1.0,
                       damping=1.0) -> np.ndarray:
    """rho -> U rho U^dagger per instruction, crushers as masks, then transverse damping."""
    n = sys.n
    for instr in instructions:
        kind = type(instr).__name__
        if kind == "Gradient":
            m = np.where(gradient_mask(n), m, 0)
        else:
            if kind == "Rotation":
                instr = type(instr)(instr.spins, instr.axis, instr.angle * angle_scale)
            u = instruction_unitary(instr, sys)
            m = u @ m @ u.conj().T
        diag = np.diag(np.diag(m))
        m = diag + damping * (m - diag)
    return m


def pauli_table(op: np.ndarray, cutoff: float = 1e-12) -> dict:
    """c_P = Tr(op P) / 2^n by one dense trace per Pauli string, in product order."""
    dim = op.shape[0]
    n = dim.bit_length() - 1
    out = {}
    for letters in product("IXYZ", repeat=n):
        c = np.trace(op @ on_spins(n, dict(enumerate(letters, start=1)))).real / dim
        if abs(c) > cutoff:
            out["".join(letters)] = float(c)
    return out
