"""Self-test of the benchmark.

Checks that a short run of every workload prints every metric of
BENCHMARK.json with its unit, in both the untraced and the traced run; that
damaged outputs are counted as failed; and that a directory holding only the
benchmark files, without the package sources, exits non-zero without a
result.  Takes about two minutes, most of it the traced 10-spin chain.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("experiment", "spectroscopy", "scaling")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(argv, cwd=ROOT, env=None):
    return subprocess.run([sys.executable] + argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_short_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[section]}
        proc = run(["bench/run.py", "--seed", "11", "--seconds", "1", "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        result = result_line(proc.stdout)
        assert set(result) == RESULT_KEYS, result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
        for workload in WORKLOADS:
            metrics = result["metrics"][workload]
            assert set(metrics) == set(units), set(metrics) ^ set(units)
            for name, unit in units.items():
                assert metrics[name]["unit"] == unit, (workload, name)
                assert math.isfinite(metrics[name]["value"]), (workload, name)
        rows = proc.stdout.split("== ")[1:]
        assert [r.split()[0] for r in rows] == list(WORKLOADS)
        for row in rows:
            for name, unit in units.items():
                pattern = rf"^  {re.escape(name)} +\S+ +{re.escape(unit)}$"
                assert re.search(pattern, row, re.M), (row.split()[0], name, unit)
        print(f"ok: trace={trace} run prints all {len(units)} {section} metrics with units")


def check_corrupted_outputs_fail():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        outdir = tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out")
        try:
            proc = run(["bench/worker.py", "--workload", workload, "--seed", "5",
                        "--seconds", "1", "--outdir", outdir, "--corrupt"], env=env)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        assert proc.returncode == 0, proc.stderr
        result = result_line(proc.stdout)
        assert result["attempted"] > 0 and result["failed"] == result["attempted"], result
        print(f"ok: {workload}: all {result['attempted']} corrupted ops counted as failed")


def check_chain_oracle_rejects_a_wrong_pulse():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np
    import checks
    import workloads
    case = workloads.chain_case(np.random.default_rng(3), 5)
    report = workloads.compile_chain(case)
    assert not workloads.chain_problems(report, case)
    instructions = list(report.sequence.instructions)
    first = next(i for i, ins in enumerate(instructions) if type(ins).__name__ == "Rotation")
    instructions[first] = replace(instructions[first], angle=-instructions[first].angle)
    mol, spins, jt = case
    assert checks.check_chain(instructions, mol.n, workloads.couplings_of(mol), spins, jt)
    print("ok: the chain oracle rejects a sign-flipped pulse")


def check_bare_directory_fails():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["bench/run.py", "--workload", "experiment", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok: without the package sources the benchmark exits", proc.returncode)


def main() -> int:
    check_chain_oracle_rejects_a_wrong_pulse()
    check_bare_directory_fails()
    check_corrupted_outputs_fail()
    check_short_runs()
    try:
        (ROOT / ".bench_out").rmdir()
    except OSError:
        pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
