"""Command-line surface: compile, verify, refocus, prepare, sweep, spectrum, fit, report.

Outputs land under the chosen directory in fixed subfolders: sequences/,
reports/, csv/.  Angles are accepted as decimal radians or pi tokens
("pi", "pi/4", "3pi/4"); sweep grids as start:step:stop with the same
tokens.  All writes are atomic (temp file + rename) and deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
import tempfile

import numpy as np

from .decompose import (
    DecompositionError,
    FourBodyTarget,
    compile_four_body,
    verify_decomposition,
)
from .molecule import MoleculeError, load_molecule
from .paulis import PauliError, PauliString, pauli_exponential
from .refocus import RefocusError, refocus_block, toggling_patterns
from .sequence import (
    SequenceError,
    format_sequence,
    parse_angle,
    parse_sequence,
    parse_spins,
    sequence_duration,
)
from .simulate import (
    ErrorModel,
    SimulationError,
    evolve_four_body,
    prepare_initial_state,
    sweep_four_body,
    sweep_to_csv,
)
from .spectra import SpectroError, fid_to_spectrum, fit_cosine, synthesize_fid

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


def _fail(code: str, message: str, status: int) -> int:
    print(f"error: {code}: {message}", file=_sys.stderr)
    return status


def _write_atomic(path: str, text: str):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _outpath(args, sub: str, name: str) -> str:
    return os.path.join(args.outdir, sub, name)


def parse_grid(spec: str):
    """start:step:stop (inclusive within 1e-9), pi tokens allowed."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise SequenceError(f"grid must be start:step:stop, got {spec!r}")
    start, step, stop = (parse_angle(p) for p in parts)
    if step == 0:
        raise SequenceError("grid step must be nonzero")
    count = int(round((stop - start) / step))
    values = [start + i * step for i in range(count + 1)]
    if abs(values[-1] - stop) > 1e-9:
        raise SequenceError(f"grid step does not divide the range in {spec!r}")
    return values


def _error_model(args) -> ErrorModel:
    return ErrorModel(
        angle_scale=getattr(args, "angle_scale", 1.0),
        per_instruction_damping=getattr(args, "damping", 1.0),
    )


def _target_for(pijt: float) -> FourBodyTarget:
    # only the product J_eff * T matters; fix J_eff = 1 Hz
    return FourBodyTarget(spins=(1, 2, 3, 4), j_eff=1.0, duration=pijt / np.pi)


def cmd_compile(args) -> int:
    mol = load_molecule(args.molecule)
    pijt = parse_angle(args.piJT)
    report = compile_four_body(
        mol,
        _target_for(pijt),
        variant=args.variant,
        realization=args.realization,
        tol=args.tol,
        segments=args.segments,
    )
    name = f"four-body-{args.variant}-{args.realization}"
    _write_atomic(_outpath(args, "sequences", name + ".seq"),
                  format_sequence(report.sequence))
    _write_atomic(_outpath(args, "reports", name + ".json"), report.to_json() + "\n")
    print(f"deviation={report.deviation:.3e} global_phase={report.global_phase:.6f} "
          f"duration={report.duration * 1e3:.3f} ms")
    return EXIT_OK


def cmd_verify(args) -> int:
    mol = load_molecule(args.molecule)
    with open(args.input) as fh:
        seq = parse_sequence(fh.read())
    spins = parse_spins(args.spins)
    theta = 0.5 * parse_angle(args.piJT)
    ideal = pauli_exponential(PauliString.z_string(mol.n, spins), theta, mol.n)
    report = verify_decomposition(seq, ideal, mol, args.tol,
                                  target=f"z-string on {spins}")
    _write_atomic(_outpath(args, "reports", "verify.json"), report.to_json() + "\n")
    print(f"deviation={report.deviation:.3e} global_phase={report.global_phase:.6f}")
    if not report.ok:
        return _fail("verify", f"deviation {report.deviation:.3e} exceeds tolerance",
                     EXIT_VERIFY)
    return EXIT_OK


def cmd_refocus(args) -> int:
    mol = load_molecule(args.molecule)
    k, l = (int(s) for s in args.pair.split(","))
    tau = float(args.tau) if args.tau is not None else 1.0 / (2 * abs(mol.coupling(k, l)))
    seq = refocus_block(mol, (k, l), tau, args.segments)
    pattern = toggling_patterns(mol.n, (k, l), args.segments)
    _write_atomic(_outpath(args, "sequences", f"refocus-{k}{l}.seq"),
                  format_sequence(seq))
    _write_atomic(_outpath(args, "csv", f"pattern-{k}{l}.csv"), pattern.to_csv())
    print(f"segments={args.segments} duration={sequence_duration(seq) * 1e3:.3f} ms "
          f"instructions={len(seq)}")
    return EXIT_OK


def cmd_prepare(args) -> int:
    mol = load_molecule(args.molecule)
    state = prepare_initial_state(mol, args.target_spin, _error_model(args))
    coeffs = state.coefficients(cutoff=1e-10)
    lines = ["pauli,coefficient"]
    for key in sorted(coeffs):
        lines.append(f"{key},{coeffs[key]!r}")
    _write_atomic(_outpath(args, "csv", "prepared_state.csv"), "\n".join(lines) + "\n")
    for key in sorted(coeffs):
        print(f"{key} {coeffs[key]:+.6f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    mol = load_molecule(args.molecule)
    grid = parse_grid(args.grid)
    t_points = [x / np.pi for x in grid]  # J_eff = 1 Hz
    rows = sweep_four_body(mol, 1.0, t_points, mode=args.mode,
                           err=_error_model(args))
    csv = sweep_to_csv(rows, args.mode)
    _write_atomic(_outpath(args, "csv", "sweep.csv"), csv)
    print(f"wrote {len(rows)} points to csv/sweep.csv")
    if args.fit:
        fit = fit_cosine([r[0] for r in rows], [r[1] for r in rows])
        _write_atomic(_outpath(args, "reports", "sweep_fit.json"), fit.to_json() + "\n")
        print(f"A={fit.amplitude:.6f} b={fit.frequency_scale:.6f} "
              f"residual={fit.residual:.3e}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    mol = load_molecule(args.molecule)
    grid = parse_grid(args.grid)
    err = _error_model(args)
    state = prepare_initial_state(mol, args.target_spin, err)
    for i, x in enumerate(grid):
        evolved = evolve_four_body(state, mol, _target_for(x), mode=args.mode, err=err)
        fid = synthesize_fid(evolved, mol, t2=args.t2)
        spec = fid_to_spectrum(fid)
        _write_atomic(_outpath(args, "csv", f"spectrum_{i:02d}.csv"), spec.to_csv())
    print(f"wrote {len(grid)} spectra to csv/")
    return EXIT_OK


def cmd_fit(args) -> int:
    xs, ys = [], []
    with open(args.input) as fh:
        header = fh.readline()
        if not header.startswith("pi_J_T,"):
            raise SpectroError(f"unrecognized sweep CSV header: {header.strip()!r}")
        for line in fh:
            if not line.strip():
                continue
            cols = line.split(",")
            xs.append(float(cols[0]))
            ys.append(float(cols[1]))
    fit = fit_cosine(xs, ys)
    _write_atomic(_outpath(args, "reports", "fit.json"), fit.to_json() + "\n")
    print(f"A={fit.amplitude:.6f} b={fit.frequency_scale:.6f} residual={fit.residual:.3e}")
    return EXIT_OK


def cmd_report(args) -> int:
    """End-to-end run: compile + verify, refocused sweep, fit, summary JSON."""
    mol = load_molecule(args.molecule)
    compile_report = compile_four_body(
        mol, _target_for(parse_angle(args.piJT)), variant="A",
        realization="refocused", tol=args.tol,
    )
    grid = parse_grid(args.grid)
    rows = sweep_four_body(mol, 1.0, [x / np.pi for x in grid],
                           mode="compiled-refocused", err=_error_model(args))
    fit = fit_cosine([r[0] for r in rows], [r[1] for r in rows])
    summary = {
        "molecule": args.molecule,
        "compile": json.loads(compile_report.to_json()),
        "sweep": [{"pi_J_T": x, "expectation_sx3": y} for x, y in rows],
        "fit": json.loads(fit.to_json()),
    }
    _write_atomic(_outpath(args, "reports", "summary.json"),
                  json.dumps(summary, indent=2) + "\n")
    print(f"deviation={compile_report.deviation:.3e} "
          f"A={fit.amplitude:.6f} b={fit.frequency_scale:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zzcompile",
        description="Compile sigma-z-string propagators into NMR pulse programs "
                    "and simulate the resulting experiments.",
    )
    parser.add_argument(
        "--outdir",
        default=os.environ.get("ZZCOMPILE_OUTDIR", "out"),
        help="output directory (default: $ZZCOMPILE_OUTDIR or ./out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, molecule=True, tol=True):
        if molecule:
            p.add_argument("--molecule", default="crotonic-acid",
                           help="preset name or path to a molecule JSON file")
        if tol:
            p.add_argument("--tol", type=float, default=1e-10)

    def errmodel(p):
        p.add_argument("--angle-scale", dest="angle_scale", type=float, default=1.0)
        p.add_argument("--damping", type=float, default=1.0)

    p = sub.add_parser("compile", help="compile the four-body propagator")
    common(p)
    p.add_argument("--variant", choices=("A", "B"), default="A")
    p.add_argument("--piJT", required=True, help="pi * J_eff * T (radians or pi tokens)")
    p.add_argument("--realization", choices=("ideal", "refocused"), default="ideal")
    p.add_argument("--segments", type=int, default=8)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="verify a sequence file against a z-string propagator")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--spins", default="1,2,3,4")
    p.add_argument("--piJT", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("refocus", help="expand a selective coupling block into an echo schedule")
    common(p, tol=False)
    p.add_argument("--pair", required=True, help="e.g. 1,2")
    p.add_argument("--tau", default=None, help="seconds (default 1/(2|J_kl|))")
    p.add_argument("--segments", type=int, default=8)
    p.set_defaults(func=cmd_refocus)

    p = sub.add_parser("prepare", help="run state preparation and print the Pauli table")
    common(p, tol=False)
    p.add_argument("--target-spin", type=int, default=3)
    errmodel(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("sweep", help="expectation sweep over a pi*J*T grid")
    common(p, tol=False)
    p.add_argument("--grid", default="0:pi/4:2pi")
    p.add_argument("--mode", choices=("analytic", "compiled-ideal", "compiled-refocused"),
                   default="analytic")
    p.add_argument("--fit", action="store_true")
    errmodel(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="emit spectra over a pi*J*T grid")
    common(p, tol=False)
    p.add_argument("--grid", default="0:pi/4:2pi")
    p.add_argument("--mode", choices=("analytic", "compiled-ideal", "compiled-refocused"),
                   default="analytic")
    p.add_argument("--target-spin", type=int, default=3)
    p.add_argument("--t2", type=float, default=0.3)
    errmodel(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fit", help="fit A*cos(b*x) to a sweep CSV")
    common(p, molecule=False, tol=False)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="end-to-end compile + sweep + fit summary")
    common(p)
    p.add_argument("--piJT", default="pi/2")
    p.add_argument("--grid", default="0:pi/4:2pi")
    errmodel(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DecompositionError as exc:
        return _fail("verify", str(exc), EXIT_VERIFY)
    except (MoleculeError, SequenceError, RefocusError, SpectroError,
            SimulationError, PauliError) as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_ERROR)


if __name__ == "__main__":
    raise SystemExit(main())
