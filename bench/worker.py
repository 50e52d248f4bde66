"""One benchmark process: set up a workload, warm up, run timed ops, check each.

`run.py` starts this script in a fresh interpreter with the checkout's
``src/`` on PYTHONPATH.  It prints ``ready`` as soon as the workload is set
up (run.py times set-up up to that line), then one JSON line of raw results.
Ops run one at a time; each op's output is checked after its timer stops.

    python3 bench/worker.py --workload experiment --seed 1 --seconds 20 \\
        --trace 0 --outdir .bench_out/tmp
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MAX_FAILURES_KEPT = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir", required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="exit once set up (run.py's set-up samples)")
    p.add_argument("--corrupt", action="store_true",
                   help="damage every op's output before checking it (self-test only)")
    return p.parse_args(argv)


class Record:
    """Counts and sizes gathered over every op the process runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.programs = []      # (instructions, duration_s) of each emitted program

    def add(self, problems, program=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems[:MAX_FAILURES_KEPT - len(self.failures)])
        elif program is not None:
            self.programs.append(program)


def run_op(wl, inp, record, tracer=None) -> float:
    """Run, time and check one op; returns its wall time in seconds."""
    error = out = None
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception as exc:     # a failed op is counted, and the loop goes on
            error = f"op raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        problems = [error] if error else wl.check(inp, out)
        program = None if problems else wl.program(inp, out)
    except Exception as exc:         # unreadable output fails the op's check
        problems, program = [f"check raised {type(exc).__name__}: {exc}"], None
    record.add(problems, program)
    return elapsed


def numpy_env() -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def program_means(record) -> dict:
    if not record.programs:
        return {"count": 0, "instructions": 0.0, "duration_ms": 0.0}
    return {
        "count": len(record.programs),
        "instructions": statistics.fmean(p[0] for p in record.programs),
        "duration_ms": 1e3 * statistics.fmean(p[1] for p in record.programs),
    }


def traced_curves(workloads, tracer, record, seed) -> dict:
    """Chain compiles n=4..10 and Pauli tables n=4..6, each traced once and checked."""
    import checks
    chains, tables = workloads.curve_cases(seed)
    out = {}
    for n, case in chains.items():
        tracer.install()
        try:
            report = workloads.compile_chain(case)
        finally:
            tracer.uninstall()
        out[f"decompose.chain_n{n}_s"] = tracer.spans[0].duration
        record.add(workloads.chain_problems(report, case))
        del report
    for n, op in tables.items():
        tracer.install()
        try:
            table = workloads.pauli_table(op)
        finally:
            tracer.uninstall()
        out[f"paulis.pauli_table_n{n}_s"] = tracer.spans[0].duration
        record.add(checks.check_pauli_table(table, op))
    return out


def write_spans(path: Path, op: int, spans) -> None:
    """One JSON line per span of op number `op`, times relative to its first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.record(op, origin)) + "\n")


def measure(wl, args, workloads) -> dict:
    import tracer as tracing
    with open(BENCH / "goldens.json") as fh:
        golden = wl.golden(json.load(fh)["sha256"])
    record = Record()
    for inp in wl.warmup():
        run_op(wl, inp, record)
    warmup_ops = record.attempted
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, per_op = [], [], []
    spans_file = None
    spent, i = 0.0, 0
    while spent < args.seconds or (tracer is not None and not traced):
        on = tracer is not None and i % 2 == 1
        elapsed = run_op(wl, wl.input(i), record, tracer if on else None)
        spent += elapsed
        i += 1
        if on:
            traced.append(elapsed)
            per_op.append(tracing.op_metrics(tracer.spans))
            if spans_file is None:
                spans_file = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl"
                write_spans(spans_file, i - 1, tracer.spans)
        else:
            plain.append(elapsed)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "warmup_ops": warmup_ops,
        "op_times": plain,
        "golden": golden,
        "programs": program_means(record),
        "env": numpy_env(),
    }
    if tracer is not None:
        layers = tracing.median_metrics(per_op)
        layers.update(traced_curves(workloads, tracer, record, args.seed))
        programs = result["programs"]
        layers["program_instructions"] = programs["instructions"]
        layers["program_duration_ms"] = programs["duration_ms"]
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        result.update(traced_op_times=traced, layers=layers, wrapped=tracer.wrapped,
                      spans_file=str(spans_file.relative_to(ROOT)))
    result.update(attempted=record.attempted, failed=record.failed,
                  failures=record.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads                 # imports zzcompile: set-up starts here
    import zzcompile
    package = Path(zzcompile.__file__).resolve().parent
    if package != (ROOT / "src" / "zzcompile").resolve():
        print(f"error: zzcompile was imported from {package}, not this checkout's src/",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.outdir, args.corrupt)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(wl, args, workloads)
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
