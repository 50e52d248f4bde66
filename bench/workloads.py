"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload draws its inputs from the seed during set-up, runs one op at
a time (a closed loop with a single client), and checks every op's output
against the independent references in `checks`.  Every call into zzcompile
goes through a module attribute, such as ``cli.main`` or
``decompose.decompose_chain``, so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import zzcompile.cli as cli
import zzcompile.decompose as decompose
import zzcompile.paulis as paulis
from zzcompile.molecule import load_molecule, spin_system
from zzcompile.sequence import sequence_duration

import checks

POOL = 256              # seeded inputs drawn at set-up; ops cycle through them
PRESET = "crotonic-acid"
TARGET_SPIN = 3         # the spin the CLI prepares and reads out by default
MULTIPLET_HALFWIDTH = 80.0   # Hz around the target spin's shift
CHAIN_SPINS = 9
TABLE_SPINS = 5
CHAIN_CURVE = range(4, 11)
TABLE_CURVE = range(4, 7)


def open_uniform(rng, lo: float, hi: float) -> float:
    """A float drawn uniformly from the open interval (lo, hi)."""
    while True:
        x = float(rng.uniform(lo, hi))
        if x != lo:
            return x


def run_cli(argv) -> tuple:
    """cli.main in-process, with its console output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def random_molecule(rng, n: int):
    """n spins, shifts in +-2 kHz, a coupling of 30-90 Hz on every pair."""
    shifts = [float(v) for v in rng.uniform(-2000.0, 2000.0, n)]
    triples = [[k, l, float(rng.uniform(30.0, 90.0))]
               for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    return spin_system(n, shifts, triples)


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    return 0.5 * (a + a.conj().T)


def chain_case(rng, n: int) -> tuple:
    """(molecule, spin order, J*T) for one seeded chain compile."""
    mol = random_molecule(rng, n)
    spins = tuple(int(s) + 1 for s in rng.permutation(n))
    return mol, spins, open_uniform(rng, 0.1, 2.0)


def compile_chain(case):
    mol, spins, jt = case
    return decompose.decompose_chain(mol, spins, jt, 1.0)


def pauli_table(op: np.ndarray) -> dict:
    return paulis.pauli_coefficients(op)


def couplings_of(mol) -> dict:
    return {(k, l): mol.couplings[k - 1][l - 1]
            for k in range(1, mol.n + 1) for l in range(k + 1, mol.n + 1)}


def chain_problems(report, case) -> list:
    mol, spins, jt = case
    if not checks.within(report.deviation, checks.COMPILE_TOL):
        return [f"chain compile reported deviation {report.deviation!r}"]
    return checks.check_chain(report.sequence.instructions, mol.n,
                              couplings_of(mol), spins, jt)


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: str, corrupt: bool = False):
        self.outdir = outdir
        self.corrupt = corrupt
        self.rng = np.random.default_rng(seed)

    def input(self, i: int):
        return self.inputs[i % len(self.inputs)]

    def warmup(self) -> list:
        """Inputs run before timing starts; they are checked like any other op."""
        return [self.input(-1), self.input(-2)]

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list:
        raise NotImplementedError

    def program(self, inp, out):
        """(instructions, duration in s) of the pulse program the op emitted, or None."""
        return None

    def golden_paths(self) -> dict:
        """Produce the fixed-input artifacts: golden key -> file path."""
        raise NotImplementedError

    def golden(self, expected: dict) -> dict:
        files = {}
        for key, path in self.golden_paths().items():
            files[key] = {"expected": expected[key], "actual": sha256(path)}
        status = all(f["expected"] == f["actual"] for f in files.values())
        return {"status": "match" if status else "mismatch", "files": files}


class Experiment(Workload):
    """`report` on the crotonic-acid preset: compile, refocused sweep, fit."""

    name = "experiment"

    def __init__(self, seed, outdir, corrupt=False):
        super().__init__(seed, outdir, corrupt)
        self.inputs = [(open_uniform(self.rng, 0.0, 2 * math.pi),
                        open_uniform(self.rng, 0.0, math.pi / 4)) for _ in range(POOL)]

    @staticmethod
    def grid(start: float) -> list:
        return [start + k * math.pi / 4 for k in range(9)]

    def op(self, inp):
        pijt, start = inp
        spec = f"{start!r}:pi/4:{start + 2 * math.pi!r}"
        return run_cli(["--outdir", self.outdir, "report", "--piJT", repr(pijt),
                        "--grid", spec])

    def _summary(self, out):
        code, _, err = out
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()}")
        with open(os.path.join(self.outdir, "reports", "summary.json")) as fh:
            return json.load(fh)

    def check(self, inp, out):
        summary = self._summary(out)
        if self.corrupt:
            row = summary["sweep"][0]
            row["expectation_sx3"] = -row["expectation_sx3"]
        return checks.check_report(summary, self.grid(inp[1]))

    def program(self, inp, out):
        compiled = self._summary(out)["compile"]
        lines = [s for s in compiled["sequence"] if not s.startswith("#")]
        return len(lines), compiled["duration_s"]

    def golden_paths(self):
        return compile_goldens(os.path.join(self.outdir, "golden"))


def compile_goldens(outdir: str) -> dict:
    code, _, err = run_cli(["--outdir", outdir, "compile", "--piJT", "pi/2",
                            "--realization", "refocused"])
    if code != 0:
        raise RuntimeError(f"golden compile exited {code}: {err.strip()}")
    return {
        "four-body-A-refocused.seq":
            os.path.join(outdir, "sequences", "four-body-A-refocused.seq"),
        "four-body-A-refocused.json":
            os.path.join(outdir, "reports", "four-body-A-refocused.json"),
    }


class Spectroscopy(Workload):
    """`spectrum` at one seeded pi*J*T: FID, FFT and a 2^17-row CSV write."""

    name = "spectroscopy"

    def __init__(self, seed, outdir, corrupt=False):
        super().__init__(seed, outdir, corrupt)
        self.center = load_molecule(PRESET).shift(TARGET_SPIN)
        self.inputs = [open_uniform(self.rng, 0.0, 2 * math.pi) for _ in range(POOL)]
        self.reference = None

    def op(self, x):
        return run_cli(["--outdir", self.outdir, "spectrum", "--grid", f"{x!r}:1:{x!r}"])

    def _area(self, out, corrupt: bool) -> float:
        code, _, err = out
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()}")
        data = checks.load_spectrum_csv(os.path.join(self.outdir, "csv", "spectrum_00.csv"))
        if corrupt:
            # raise the absorption by 5% of the reference area across the window
            data[:, 1] += 0.05 * self.reference / (2 * MULTIPLET_HALFWIDTH)
        return checks.multiplet_area(data, self.center, MULTIPLET_HALFWIDTH)

    def warmup(self):
        # the x = 0 spectrum is the reference every later integral is divided by
        self.reference = self._area(self.op(0.0), corrupt=False)
        return super().warmup()

    def check(self, x, out):
        return checks.check_ratio(self._area(out, self.corrupt), self.reference, x)

    def golden_paths(self):
        outdir = os.path.join(self.outdir, "golden")
        code, _, err = run_cli(["--outdir", outdir, "spectrum", "--grid", "pi/2:1:pi/2"])
        if code != 0:
            raise RuntimeError(f"golden spectrum exited {code}: {err.strip()}")
        return {"spectrum-pi2.csv": os.path.join(outdir, "csv", "spectrum_00.csv")}


class Scaling(Workload):
    """A 9-spin chain compile on a random molecule, then a 5-spin Pauli table."""

    name = "scaling"

    def __init__(self, seed, outdir, corrupt=False):
        super().__init__(seed, outdir, corrupt)
        self.inputs = [chain_case(self.rng, CHAIN_SPINS)
                       + (random_hermitian(self.rng, TABLE_SPINS),) for _ in range(POOL)]

    def op(self, inp):
        return compile_chain(inp[:3]), pauli_table(inp[3])

    def check(self, inp, out):
        report, table = out
        herm = inp[3]
        if self.corrupt:
            table = dict(table)
            table[next(iter(table))] += 1e-6
        return chain_problems(report, inp[:3]) + checks.check_pauli_table(table, herm)

    def program(self, inp, out):
        seq = out[0].sequence
        return len(seq), sequence_duration(seq)

    def golden_paths(self):
        return compile_goldens(os.path.join(self.outdir, "golden"))


WORKLOADS = {w.name: w for w in (Experiment, Spectroscopy, Scaling)}


def curve_cases(seed: int):
    """Seeded inputs of the traced scaling curves: chains n=4..10, Pauli tables n=4..6."""
    rng = np.random.default_rng([seed, 1])
    chains = {n: chain_case(rng, n) for n in CHAIN_CURVE}
    tables = {n: random_hermitian(rng, n) for n in TABLE_CURVE}
    return chains, tables
