import json

import numpy as np
import pytest

from zzcompile.molecule import (
    MoleculeError,
    hamiltonian,
    load_molecule,
    spin_system,
)
from zzcompile.paulis import PauliString, pauli_exponential

CROTONIC_J = {
    (1, 2): 72.4,
    (1, 3): -1.3,
    (1, 4): 7.0,
    (2, 3): 70.3,
    (2, 4): -1.6,
    (3, 4): 41.3,
}


def test_crotonic_preset():
    mol = load_molecule("crotonic-acid")
    assert mol.n == 4
    assert mol.shifts == (21468.9, 15255.6, 18668.0, 2190.4)
    assert mol.labels == ("C1", "C2", "C3", "C4")
    for (k, l), j in CROTONIC_J.items():
        assert mol.coupling(k, l) == j
        assert mol.coupling(l, k) == j


def test_single_spin_document(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "shifts_hz": [0.0]}))
    mol = load_molecule(str(path))
    assert mol.n == 1
    assert mol.couplings == ((0.0,),)
    assert mol.labels == ("S1",)


def test_asymmetric_coupling_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 2, "shifts_hz": [0.0, 0.0],
        "couplings_hz": [[1, 2, 1.0], [2, 1, 2.0]],
    }))
    with pytest.raises(MoleculeError, match="asymmetric"):
        load_molecule(str(path))


@pytest.mark.parametrize("doc", [
    {"shifts_hz": [0.0]},
    {"n": 1},
    {"n": 2, "shifts_hz": [0.0]},
    {"n": 1, "shifts_hz": ["abc"]},
    {"n": 2, "shifts_hz": [0.0, 0.0], "couplings_hz": [[1, 3, 1.0]]},
    {"n": 2, "shifts_hz": [0.0, 0.0], "couplings_hz": [[1, 1, 1.0]]},
    {"n": 1, "shifts_hz": 5},
    {"n": True, "shifts_hz": [0.0]},
    {"n": 2, "shifts_hz": [0.0, 0.0], "couplings_hz": 5},
    {"n": 2, "shifts_hz": [0.0, 0.0], "couplings_hz": [5]},
    {"n": 2, "shifts_hz": [0.0, 0.0], "couplings_hz": [[1, 2, "abc"]]},
    {"n": 2, "shifts_hz": [0.0, 0.0], "couplings_hz": [[True, 2, 1.0]]},
    {"n": 1, "shifts_hz": [0.0], "labels": 5},
    [1, 2],
])
def test_invalid_documents(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MoleculeError):
        load_molecule(str(path))


def test_missing_file():
    with pytest.raises(MoleculeError):
        load_molecule("/no/such/file.json")


def test_hamiltonian_single_spin():
    mol = spin_system(1, [1.0], [])
    h = hamiltonian(mol)
    assert np.allclose(h, np.diag([-np.pi, np.pi]))


def test_hamiltonian_pure_coupling():
    mol = spin_system(2, [0.0, 0.0], [[1, 2, 2.0]])
    h = hamiltonian(mol)
    assert np.allclose(h, np.pi * np.diag([1, -1, -1, 1]))


def test_hamiltonian_is_real_diagonal():
    mol = load_molecule("crotonic-acid")
    h = hamiltonian(mol)
    assert np.array_equal(h, np.diag(np.diag(h)))
    assert np.max(np.abs(np.diag(h).imag)) == 0


def test_coupling_term_matches_pauli_exponential():
    # restricting H to one coupling term reproduces the ideal zz block
    mol = spin_system(2, [0.0, 0.0], [[1, 2, 37.0]])
    t = 0.013
    u = np.diag(np.exp(-1j * np.diag(hamiltonian(mol)) * t))
    block = pauli_exponential(PauliString("ZZ"), 0.5 * np.pi * 37.0 * t, 2)
    assert np.max(np.abs(u - block)) < 1e-12


def test_shift_scaling_leaves_coupling_part():
    mol = load_molecule("crotonic-acid")
    scaled = spin_system(4, [s * 3 for s in mol.shifts],
                         [[k, l, j] for (k, l), j in CROTONIC_J.items()])
    zero = spin_system(4, [0.0] * 4, [[k, l, j] for (k, l), j in CROTONIC_J.items()])
    coupling_part = hamiltonian(mol) - hamiltonian(spin_system(
        4, mol.shifts, []))
    coupling_part_scaled = hamiltonian(scaled) - hamiltonian(spin_system(
        4, scaled.shifts, []))
    # subtraction of the large shift diagonal leaves only rounding noise
    assert np.max(np.abs(coupling_part - coupling_part_scaled)) < 1e-8
    assert np.max(np.abs(coupling_part - hamiltonian(zero))) < 1e-9


def test_negative_couplings_propagated():
    mol = load_molecule("crotonic-acid")
    assert mol.coupling(1, 3) == -1.3
    assert mol.coupling(2, 4) == -1.6
