"""Benchmark of zzcompile's compile -> simulate -> spectrum pipeline.

    python3 bench/run.py --workload experiment --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20          # every workload in turn

Each workload runs in fresh interpreters (bench/worker.py).  SETUP_SAMPLES
of them only set up, so that set-up time is a median; the last one also
warms up, then runs one op at a time for --seconds of op time and checks
every op's output.  With --trace 0 the end-to-end metrics of BENCHMARK.json
are printed, with --trace 1 the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Outputs go to a temporary directory under
.bench_out/ in the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("experiment", "spectroscopy", "scaling")
SETUP_SAMPLES = 7           # fresh interpreters timed per run, the main worker included
TAIL_BEYOND = 10            # samples the tail percentile must leave above it
TIME_LIMIT_S = 175.0        # per workload, start to result


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="op time measured per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spec_units(trace: int) -> dict:
    """Metric name -> unit, from BENCHMARK.json: end_to_end, or per_layer when tracing."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_state() -> dict:
    """Commit and dirty flag, or None for both when the checkout is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
        if head.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), "status",
                                 "--porcelain", "--untracked-files=no"], env=env,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Worker:
    """One fresh interpreter running bench/worker.py; always reaped by `close`."""

    def __init__(self, argv, env, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")] + argv,
                                     stdout=subprocess.PIPE, text=True, env=env)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def wait_ready(self) -> float:
        """Seconds from launch until the worker reported that set-up was done."""
        ready, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
        line = self.proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - self.started
        if line.strip() != "ready":
            raise BenchError(f"worker did not finish set-up (exit {self.proc.poll()})")
        return elapsed

    def result(self) -> dict:
        out, _ = self.proc.communicate(timeout=self.remaining())
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_worker(argv, env, deadline, want_result: bool):
    worker = Worker(argv, env, deadline)
    try:
        setup = worker.wait_ready()
        return setup, (worker.result() if want_result else None)
    finally:
        worker.close()


def tail(times) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND above it."""
    s = sorted(times)
    n = len(s)
    if n > TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return s[-1], 100.0, 0


def end_to_end(setups, res) -> tuple:
    times = res["op_times"]
    value, pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {"setup_samples": setups, "timed_ops": len(times),
              "op_tail": {"percentile": pct, "samples": len(times), "beyond": beyond}}
    return metrics, detail


def run_workload(name: str, args, env) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_out")
    base = ["--workload", name, "--seed", str(args.seed), "--outdir", outdir]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(base + ["--setup-only"], env, deadline, False)[0])
        setup, res = run_worker(base + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)], env, deadline, True)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    setups.append(setup)
    if args.trace:
        metrics = res["layers"]
        detail = {"traced_ops": len(res["traced_op_times"]), "untraced_ops": len(res["op_times"]),
                  "wrapped_bindings": res["wrapped"], "spans_file": res["spans_file"]}
    else:
        metrics, detail = end_to_end(setups, res)
    detail.update(
        workload=name, seed=args.seed, trace=args.trace,
        attempted=res["attempted"], failed=res["failed"],
        failed_ratio=res["failed"] / res["attempted"], failures=res["failures"],
        warmup_ops=res["warmup_ops"], golden=res["golden"], programs=res["programs"],
        worker_peak_rss_mb=res["peak_rss_mb"],
    )
    return {"metrics": metrics, "detail": detail, "env": res["env"]}


def print_row(row: dict, units: dict):
    d = row["detail"]
    print(f"== {d['workload']}  seed={d['seed']}  trace={d['trace']}")
    for name, unit in units.items():
        print(f"  {name:40s} {row['metrics'][name]:<24.6g} {unit}")
    if "op_tail" in d:
        t = d["op_tail"]
        print(f"  {'op_tail_s is':40s} p{t['percentile']:.1f} of {t['samples']} ops, "
              f"{t['beyond']} beyond")
    print(f"  {'failed_ratio':40s} {d['failed_ratio']:<24.6g} ratio "
          f"({d['failed']} of {d['attempted']} ops)")
    programs = d["programs"]
    if programs["count"] and not d["trace"]:
        print(f"  {'program_instructions':40s} {programs['instructions']:<24.6g} count")
        print(f"  {'program_duration_ms':40s} {programs['duration_ms']:<24.6g} ms")
    print(f"  {'golden':40s} {d['golden']['status']} ({', '.join(d['golden']['files'])})")
    for failure in d["failures"]:
        print(f"  failure: {failure}")
    print("detail " + json.dumps(dict(d, env=row["env"])))


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that kill and reap the workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "zzcompile" / "__init__.py").is_file():
        print(f"error: no zzcompile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = spec_units(args.trace)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + [p for p in [env.get("PYTHONPATH")] if p])
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    host = {"cpu_model": cpu_model(), "nproc": os.cpu_count(), **git_state()}
    rows = []
    try:
        for name in names:
            row = run_workload(name, args, env)
            row["env"] = {**host, **row["env"]}
            mismatch = set(units) ^ set(row["metrics"])
            if mismatch:
                raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
            print_row(row, units)
            rows.append(row)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".bench_out").rmdir()    # only if nothing else was left there
        except OSError:
            pass

    def packed(row):
        return {k: {"value": row["metrics"][k], "unit": u} for k, u in units.items()}

    attempted = sum(r["detail"]["attempted"] for r in rows)
    failed = sum(r["detail"]["failed"] for r in rows)
    metrics = (packed(rows[0]) if len(rows) == 1
               else {r["detail"]["workload"]: packed(r) for r in rows})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
