"""Spin-system model: chemical shifts, J-couplings, static Hamiltonian.

Units: configuration files carry Hz; the Hamiltonian is returned in rad/s,
H = -pi * sum_k nu_k sz_k + (pi/2) * sum_{k<l} J_kl sz_k sz_l.
Negative J values are legitimate and propagated as-is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np


class MoleculeError(ValueError):
    pass


@dataclass(frozen=True)
class SpinSystem:
    n: int
    shifts: tuple            # nu_k in Hz
    couplings: tuple         # n x n symmetric nested tuple, Hz, zero diagonal
    labels: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise MoleculeError("spin count must be >= 1")
        if len(self.shifts) != self.n:
            raise MoleculeError("shifts length must equal spin count")
        if len(self.couplings) != self.n or any(len(r) != self.n for r in self.couplings):
            raise MoleculeError("couplings must be an n x n table")
        for k in range(self.n):
            if self.couplings[k][k] != 0:
                raise MoleculeError("coupling diagonal must be zero")
            for l in range(self.n):
                if self.couplings[k][l] != self.couplings[l][k]:
                    raise MoleculeError("asymmetric coupling")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"S{i+1}" for i in range(self.n)))
        elif len(self.labels) != self.n:
            raise MoleculeError("labels length must equal spin count")

    def coupling(self, k: int, l: int) -> float:
        """J_kl in Hz, 1-based indices."""
        self._check_spin(k)
        self._check_spin(l)
        return self.couplings[k - 1][l - 1]

    def shift(self, k: int) -> float:
        self._check_spin(k)
        return self.shifts[k - 1]

    def _check_spin(self, k: int):
        if not 1 <= k <= self.n:
            raise MoleculeError(f"spin index {k} out of range 1..{self.n}")


def spin_system(n, shifts_hz, coupling_triples, labels=None) -> SpinSystem:
    """Build a SpinSystem from [k, l, J] triples with 1-based indices."""
    table = [[0.0] * n for _ in range(n)]
    seen = set()
    for entry in coupling_triples:
        if len(entry) != 3:
            raise MoleculeError(f"coupling entry must be [k, l, J]: {entry!r}")
        k, l, j = entry
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in (k, l)):
            raise MoleculeError(f"coupling indices must be integers: {entry!r}")
        if not 1 <= k <= n or not 1 <= l <= n or k == l:
            raise MoleculeError(f"coupling index out of range: {entry!r}")
        try:
            j = float(j)
        except (TypeError, ValueError):
            raise MoleculeError(f"non-numeric coupling: {entry!r}") from None
        pair = (min(k, l), max(k, l))
        if pair in seen:
            if table[pair[0] - 1][pair[1] - 1] != j:
                raise MoleculeError(f"asymmetric coupling for pair {pair}")
            raise MoleculeError(f"duplicate coupling for pair {pair}")
        seen.add(pair)
        table[k - 1][l - 1] = j
        table[l - 1][k - 1] = j
    return SpinSystem(
        n=n,
        shifts=tuple(float(s) for s in shifts_hz),
        couplings=tuple(tuple(r) for r in table),
        labels=tuple(labels) if labels else (),
    )


def _from_dict(doc) -> SpinSystem:
    if not isinstance(doc, dict):
        raise MoleculeError("molecule document must be a JSON object")
    for key in ("n", "shifts_hz"):
        if key not in doc:
            raise MoleculeError(f"missing field {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MoleculeError("field 'n' must be a positive integer")
    shifts = doc["shifts_hz"]
    if not isinstance(shifts, list):
        raise MoleculeError("field 'shifts_hz' must be a list")
    if len(shifts) != n:
        raise MoleculeError("shifts_hz length must equal n")
    try:
        shifts = [float(s) for s in shifts]
    except (TypeError, ValueError):
        raise MoleculeError("non-numeric value in shifts_hz") from None
    couplings = doc.get("couplings_hz", [])
    if not isinstance(couplings, list) or not all(isinstance(e, list) for e in couplings):
        raise MoleculeError("field 'couplings_hz' must be a list of [k, l, J] lists")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise MoleculeError("field 'labels' must be a list")
    return spin_system(n, shifts, couplings, labels)


PRESETS = ("crotonic-acid",)


def load_molecule(source) -> SpinSystem:
    """Load a SpinSystem from a JSON file path or a named preset."""
    name = str(source)
    if name in PRESETS:
        text = (
            resources.files("zzcompile")
            .joinpath(f"data/{name.replace('-', '_')}.json")
            .read_text()
        )
    else:
        try:
            with open(name) as fh:
                text = fh.read()
        except OSError as exc:
            raise MoleculeError(f"cannot read molecule file {name!r}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MoleculeError(f"invalid molecule document: {exc}") from None
    return _from_dict(doc)


def z_eigenvalues(n: int) -> np.ndarray:
    """Matrix of sigma-z eigenvalues: entry [k, b] = +-1 for spin k+1 in basis state b."""
    b = np.arange(2 ** n)
    return np.array([1 - 2 * ((b >> (n - 1 - k)) & 1) for k in range(n)])


def hamiltonian(sys: SpinSystem) -> np.ndarray:
    """Diagonal NMR Hamiltonian in rad/s (shift and weak-coupling zz terms only)."""
    z = z_eigenvalues(sys.n)
    diag = np.zeros(2 ** sys.n)
    for k in range(sys.n):
        diag -= np.pi * sys.shifts[k] * z[k]
    for k in range(sys.n):
        for l in range(k + 1, sys.n):
            diag += 0.5 * np.pi * sys.couplings[k][l] * z[k] * z[l]
    return np.diag(diag.astype(complex))
