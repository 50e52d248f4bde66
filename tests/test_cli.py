import json
import os

import numpy as np
import pytest

from zzcompile.cli import main, parse_grid
from zzcompile.sequence import SequenceError


def run(tmp_path, *argv):
    return main(["--outdir", str(tmp_path)] + list(argv))


def test_parse_grid_tokens():
    grid = parse_grid("0:pi/4:2pi")
    assert len(grid) == 9
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(2 * np.pi)


def test_parse_grid_rejects_bad_step():
    with pytest.raises(SequenceError):
        parse_grid("0:0.3:1.0")
    with pytest.raises(SequenceError):
        parse_grid("0:pi/4")


def test_compile_writes_artifacts(tmp_path, capfd):
    code = run(tmp_path, "compile", "--piJT", "pi/2", "--realization", "refocused")
    out = capfd.readouterr().out
    assert code == 0
    assert "deviation=" in out and "corrected" not in out
    seq_path = tmp_path / "sequences" / "four-body-A-refocused.seq"
    rep_path = tmp_path / "reports" / "four-body-A-refocused.json"
    assert seq_path.exists() and rep_path.exists()
    report = json.loads(rep_path.read_text())
    assert report["deviation"] < 1e-10
    assert report["duration_s"] == pytest.approx(1 / 72.4 + 1 / 70.3 + 0.5 / 41.3,
                                               rel=1e-9)


def test_compile_then_verify(tmp_path, capfd):
    assert run(tmp_path, "compile", "--piJT", "pi/4") == 0
    seq_path = tmp_path / "sequences" / "four-body-A-ideal.seq"
    code = run(tmp_path, "verify", "--input", str(seq_path), "--piJT", "pi/4")
    assert code == 0
    assert "deviation=" in capfd.readouterr().out


def test_verify_failure_exit_code(tmp_path, capfd):
    assert run(tmp_path, "compile", "--piJT", "pi/4") == 0
    seq_path = tmp_path / "sequences" / "four-body-A-ideal.seq"
    # wrong target angle: verification must fail with the dedicated code
    code = run(tmp_path, "verify", "--input", str(seq_path), "--piJT", "pi/2")
    err = capfd.readouterr().err
    assert code == 3
    assert err.startswith("error: verify:")


def test_failed_compile_reports_without_search(tmp_path, capfd, monkeypatch):
    import zzcompile.decompose as decompose
    built = []
    real = decompose.sequence_propagator
    monkeypatch.setattr(decompose, "sequence_propagator",
                        lambda seq, sys: built.append(seq) or real(seq, sys))
    # an exact compile still misses a tolerance below double precision
    code = run(tmp_path, "compile", "--piJT", "pi/2", "--tol", "1e-18")
    assert code == 3
    assert capfd.readouterr().err.startswith("error: verify:")
    assert len(built) == 1


def test_verify_nan_delay_is_config_error(tmp_path, capfd):
    path = tmp_path / "nan.seq"
    path.write_text("DELAY tau=nan\n")
    code = run(tmp_path, "verify", "--input", str(path), "--piJT", "pi/2")
    assert code == 2
    assert capfd.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["compile", "verify"])
def test_bad_tolerance_is_config_error(tmp_path, capfd, command, tol):
    argv = [command, "--piJT", "pi/2", f"--tol={tol}"]
    if command == "verify":
        # the pi/4 program checked against pi/2 is off by far more than any tolerance
        assert run(tmp_path, "compile", "--piJT", "pi/4") == 0
        argv += ["--input", str(tmp_path / "sequences" / "four-body-A-ideal.seq")]
    code = run(tmp_path, *argv)
    assert code == 2
    assert capfd.readouterr().err.startswith("error: config:")


def test_verify_rejects_non_integer_spins(tmp_path, capfd):
    assert run(tmp_path, "compile", "--piJT", "pi/4") == 0
    seq_path = tmp_path / "sequences" / "four-body-A-ideal.seq"
    code = run(tmp_path, "verify", "--input", str(seq_path), "--piJT", "pi/4",
               "--spins", "1,x")
    assert code == 2
    assert capfd.readouterr().err.startswith("error: config:")


def test_verify_malformed_seq_is_config_error(tmp_path, capfd):
    path = tmp_path / "bad.seq"
    for line in ("CPL tau=1e-3", "ROT spins=1,x axis=x angle=pi"):
        path.write_text(line + "\n")
        code = run(tmp_path, "verify", "--input", str(path), "--piJT", "pi/2")
        assert code == 2
        assert capfd.readouterr().err.startswith("error: config:")


def test_config_error_exit_code(tmp_path, capfd):
    code = run(tmp_path, "compile", "--piJT", "pi/2", "--molecule", "no-such-molecule")
    err = capfd.readouterr().err
    assert code == 2
    assert err.startswith("error: config:")


def test_io_error_exit_code(tmp_path, capfd):
    code = run(tmp_path, "fit", "--input", str(tmp_path / "missing.csv"))
    err = capfd.readouterr().err
    assert code == 1
    assert err.startswith("error: io:")


def test_refocus_outputs(tmp_path, capfd):
    code = run(tmp_path, "refocus", "--pair", "1,2")
    out = capfd.readouterr().out
    assert code == 0
    assert "segments=8" in out
    seq = (tmp_path / "sequences" / "refocus-12.seq").read_text()
    assert "DELAY" in seq
    csv = (tmp_path / "csv" / "pattern-12.csv").read_text()
    assert csv.splitlines()[0].startswith("spin,seg1")


def test_prepare_prints_single_term(tmp_path, capfd):
    code = run(tmp_path, "prepare")
    out = capfd.readouterr().out
    assert code == 0
    assert out.splitlines() == ["IIXI +1.000000"]
    csv = (tmp_path / "csv" / "prepared_state.csv").read_text()
    assert csv.splitlines()[0] == "pauli,coefficient"


def test_sweep_matches_cosine(tmp_path, capfd):
    code = run(tmp_path, "sweep", "--mode", "compiled-refocused")
    assert code == 0
    capfd.readouterr()
    lines = (tmp_path / "csv" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "pi_J_T,expectation_sx3,mode"
    assert len(lines) == 10
    for n, line in enumerate(lines[1:]):
        x, y, mode = line.split(",")
        assert float(x) == pytest.approx(n * np.pi / 4)
        assert float(y) == pytest.approx(np.cos(n * np.pi / 4), abs=1e-9)
        assert mode == "compiled-refocused"


def test_sweep_then_fit(tmp_path, capfd):
    assert run(tmp_path, "sweep") == 0
    code = run(tmp_path, "fit", "--input", str(tmp_path / "csv" / "sweep.csv"))
    out = capfd.readouterr().out
    assert code == 0
    assert "A=1.000000 b=1.000000" in out
    fit = json.loads((tmp_path / "reports" / "fit.json").read_text())
    assert fit["A"] == pytest.approx(1.0, abs=1e-9)
    assert fit["b"] == pytest.approx(1.0, abs=1e-9)


def test_sweep_inline_fit(tmp_path, capfd):
    code = run(tmp_path, "sweep", "--fit")
    out = capfd.readouterr().out
    assert code == 0
    assert "A=1.000000 b=1.000000" in out


def test_spectrum_outputs(tmp_path, capfd):
    code = run(tmp_path, "spectrum", "--grid", "0:pi/2:pi")
    assert code == 0
    capfd.readouterr()
    for i in range(3):
        path = tmp_path / "csv" / f"spectrum_{i:02d}.csv"
        assert path.exists()
        assert path.read_text().splitlines()[0] == "freq_hz,real,imag"


def test_report_end_to_end(tmp_path, capfd):
    code = run(tmp_path, "report")
    out = capfd.readouterr().out
    assert code == 0
    assert "A=1.000000 b=1.000000" in out
    summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
    assert summary["compile"]["deviation"] < 1e-10
    assert len(summary["sweep"]) == 9


def test_outdir_env(tmp_path, monkeypatch, capfd):
    monkeypatch.setenv("ZZCOMPILE_OUTDIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["prepare"]) == 0
    capfd.readouterr()
    assert (tmp_path / "envout" / "csv" / "prepared_state.csv").exists()


def test_deterministic_outputs(tmp_path, capfd):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["--outdir", str(out), "compile", "--piJT", "pi/2",
                     "--realization", "refocused"]) == 0
        assert main(["--outdir", str(out), "sweep", "--mode",
                     "compiled-refocused"]) == 0
    capfd.readouterr()
    for rel in (os.path.join("sequences", "four-body-A-refocused.seq"),
                os.path.join("reports", "four-body-A-refocused.json"),
                os.path.join("csv", "sweep.csv")):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_custom_molecule_file(tmp_path, capfd):
    doc = {
        "n": 4,
        "shifts_hz": [100.0, -50.0, 25.0, 0.0],
        "couplings_hz": [[1, 2, 60.0], [2, 3, 50.0], [3, 4, 40.0]],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    code = run(tmp_path, "compile", "--molecule", str(path), "--piJT", "pi/4")
    assert code == 0
    assert "deviation=" in capfd.readouterr().out
