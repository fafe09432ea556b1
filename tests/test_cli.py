"""End-to-end tests of the command-line runners and their exit-code contract."""

import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plurisym.cli
import plurisym.verify
from plurisym.cli import CSV_COLUMNS, main
from plurisym.flow import FlowState

ROOT = Path(__file__).resolve().parents[1]
FROZEN_HEADER = ("t,V,F,d_omega_residual,hs_constraint_residual,"
                 "del_phi_residual,pluriclosed_residual,min_eig_margin")

# small grid keeps the flow tests fast; mode_cutoff 1 keeps every spectral
# product far from the N=8 Nyquist band
SMALL_FLOW = {"dimension": 2, "grid": 8, "initial": {"mode_cutoff": 1},
              "flow": {"steps": 20, "sample_every": 5}}
# enough evenly spaced samples for the volume analysis
VOLUME_FLOW = {"steps": 60, "sample_every": 5}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(SMALL_FLOW))
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# flow
# ----------------------------------------------------------------------

def test_flow_csv_header_is_frozen(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "series.csv"
    assert main(["flow", "--config", cfg, "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == FROZEN_HEADER
    assert len(lines) == 1 + 5  # t=0 plus steps 5, 10, 15, 20


def test_flow_flat_kahler_rows_are_a_fixed_point(tmp_path):
    cfg = write_config(tmp_path, initial={"type": "flat_kahler"})
    out = tmp_path / "flat.csv"
    assert main(["flow", "--config", cfg, "--output", str(out)]) == 0
    rows = [line.split(",") for line in
            out.read_text(encoding="utf-8").splitlines()[1:]]
    assert all(row[1] == "1" for row in rows)          # V exactly 1.0
    tails = {tuple(row[1:]) for row in rows}           # everything but t
    assert len(tails) == 1
    assert tails.pop() == ("1", "0", "0", "0", "0", "0", "1")


@pytest.mark.parametrize("command, overrides", [
    pytest.param("flow", {}, id="flow"),
    # volume also runs the analysis pass, whose transforms cover the full grid
    pytest.param("volume", {"flow": VOLUME_FLOW}, id="volume"),
    # n=3 runs the closed-form Hermitian inverse and the certified eigenvalue
    # range; both n=3 ids start from band-native initial data
    pytest.param("flow", {"dimension": 3, "grid": 4}, id="flow-n3"),
    pytest.param("flow", {"dimension": 3, "grid": 4, "initial": {"type": "flat_kahler"}},
                 id="flow-n3-flat-kahler"),
])
def test_flow_reruns_are_byte_identical(tmp_path, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    paths = [tmp_path / f"run{i}.csv" for i in range(2)]
    assert main([command, "--config", cfg, "--output", str(paths[0])]) == 0
    assert main([command, "--config", cfg, "--output", str(paths[1])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert b"\r" not in blobs[0]


def run_python(args, **env_overrides):
    """``python ARGS`` in a child process that imports plurisym from this source tree."""
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, capture_output=True, text=True, env=env)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_freed_blocks_are_reused_not_faulted_in_again(minor_faults):
    # the thresholds the CLI sets keep a freed 8 MiB block on the heap, so
    # filling a second one faults no page in; with glibc's dynamic rule the
    # second fill faults about 480
    fill = "np.ones(1 << 20)"
    _, second = minor_faults("import numpy as np", fill, fill)
    assert second <= 16


@pytest.mark.parametrize("command, overrides", [
    pytest.param("flow", {"flow": {"steps": 10, "sample_every": 5}}, id="flow"),
    # the volume analysis transforms full-grid fields, also BLAS products
    pytest.param("volume", {"flow": {"steps": 30, "sample_every": 5}}, id="volume"),
    # and the calculus suite's n=3 N=8 products; verify takes only the
    # output and format of a config
    pytest.param("verify", {}, id="verify"),
])
def test_flow_bytes_do_not_depend_on_blas_threads(tmp_path, command, overrides):
    # every transform is a BLAS product; at N=16 they are large enough for
    # OpenBLAS to split them over threads, which must not change a bit
    cfg = write_config(tmp_path, grid=16, initial={"mode_cutoff": 2}, **overrides)
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = run_python(["-m", "plurisym.cli", command, "--config", cfg,
                           "--output", str(out)], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only dependency: with scipy unimportable, the CLI imports
    # and a small volume runs to its end
    cfg = write_config(tmp_path, flow=VOLUME_FLOW)
    script = ("import sys; sys.modules['scipy'] = None; "
              "from plurisym.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = run_python(["-c", script, "volume", "--config", cfg])
    assert proc.returncode == 0, proc.stderr
    assert "fitted roots in flow horizon" in proc.stdout


def test_flow_keeps_the_volume_on_a_grid_of_17(tmp_path):
    # N=17 is the first size whose float frequencies fftfreq(N) * N once
    # truncated wrongly to int (7 -> 6); V drifted to 0.99999902 by t=0.001
    cfg = write_config(tmp_path, grid=17, initial={"mode_cutoff": 2},
                       flow={"steps": 10, "sample_every": 5})
    out = tmp_path / "g17.csv"
    assert main(["flow", "--config", cfg, "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 3
    for row in rows:
        assert abs(float(row[1]) - 1.0) <= 1e-12


def test_flow_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    base, seeded = tmp_path / "base.csv", tmp_path / "seeded.csv"
    assert main(["flow", "--config", cfg, "--output", str(base)]) == 0
    assert main(["flow", "--config", cfg, "--seed", "7",
                 "--output", str(seeded)]) == 0
    assert base.read_bytes() != seeded.read_bytes()


def test_flow_huge_dt_exits_4_with_truncated_series(tmp_path, capsys):
    cfg = write_config(tmp_path, flow={"dt": 0.5, "steps": 20, "sample_every": 1})
    out = tmp_path / "blown.csv"
    with pytest.warns(RuntimeWarning, match="parabolic guideline"):
        code = main(["flow", "--config", cfg, "--output", str(out)])
    assert code == 4
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == FROZEN_HEADER
    assert 1 <= len(lines) - 1 < 21  # partial series, header still written
    assert "constraint violation" in capsys.readouterr().err


def test_flow_initial_positivity_loss_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, initial={"epsilon": 0.999, "mode_cutoff": 1})
    out = tmp_path / "neg.csv"
    assert main(["flow", "--config", cfg, "--output", str(out)]) == 2
    assert out.read_text(encoding="utf-8").splitlines() == [FROZEN_HEADER]
    assert "positivity lost" in capsys.readouterr().err


def test_volume_initial_positivity_loss_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, initial={"epsilon": 0.999, "mode_cutoff": 1})
    assert main(["volume", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positivity lost" in captured.err


@pytest.mark.parametrize(
    "dimension, name, code, message",
    [(3, "omega", 2, "positivity lost"), (2, "phi", 4, "constraint violation")],
    ids=["n3-omega", "n2-phi"],
)
def test_flow_non_finite_initial_state_exits_nonzero(tmp_path, capsys, monkeypatch,
                                                     dimension, name, code, message):
    make_initial_hs = plurisym.cli.make_initial_hs

    def with_nan(grid, *args):
        st = make_initial_hs(grid, *args)
        coeffs = getattr(st, name).coeffs
        coeffs[(0,) * coeffs.ndim] = np.nan
        return FlowState.make(grid, 0.0, st.omega, st.phi)

    monkeypatch.setattr(plurisym.cli, "make_initial_hs", with_nan)
    cfg = write_config(tmp_path, dimension=dimension, grid=4,
                       flow={"steps": 2, "sample_every": 1})
    out = tmp_path / "nan.csv"
    assert main(["flow", "--config", cfg, "--output", str(out)]) == code
    assert out.read_text(encoding="utf-8").splitlines()[0] == FROZEN_HEADER
    assert message in capsys.readouterr().err


def test_flow_json_series_is_valid(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["flow", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == list(CSV_COLUMNS)
    assert len(payload["rows"]) == 5
    assert payload["rows"][0][0] == 0.0


@pytest.mark.slow
def test_one_step_n3_grid12_flow_peaks_under_2gb(tmp_path):
    # a complex field of the n=3 N=12 grid takes 45 MiB.  The command's peak
    # RSS, read by the child itself, is 1 072 MiB while a step drops its
    # state's metric after the first stage and stages 2-4 invert g's half in
    # place; it was 1 397 MiB while the step kept its state's metric and
    # each stage built a new inverse half, with each (2,1) component traced
    # through a scalar buffer, 1 766 MiB with a (2,1) work array and the
    # inverse built per trace (1 685 MiB before that array, while metrics
    # first kept the Hermitian half of g), 2 262 MiB while metrics kept the
    # full block and 3 781 MiB while they kept the inverse too.  The bound
    # is 2e9 bytes
    path = tmp_path / "n3-grid12.json"
    path.write_text(json.dumps({"dimension": 3, "grid": 12,
                                "flow": {"steps": 1, "sample_every": 1}}), encoding="utf-8")
    script = ("import resource, sys; from plurisym.cli import main; code = main(sys.argv[1:]); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
              "sys.exit(code)")
    proc = run_python(["-c", script, "flow", "--config", str(path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(FROZEN_HEADER) and len(proc.stdout.splitlines()) == 3
    peak_kib = int(proc.stderr.split()[-1])  # ru_maxrss is in KiB on Linux
    assert peak_kib * 1024 < 2e9


@pytest.mark.slow
def test_default_n2_volume_peaks_under_450mb(tmp_path):
    # a default n=2 `volume` keeps 401 samples.  Its peak RSS, read by the
    # child itself, is 354 MiB while a step drops its state's metric after
    # the first stage; 383-386 MiB while the step kept it, with a sample
    # holding 3 band fields and the identity pass dropping each field after
    # its last use; it was 550 MiB while a sample held omega's and phi's 5
    # (2 096 MiB while samples held their physical forms).  The bound is
    # 450e6 bytes
    path = tmp_path / "default-n2.json"
    path.write_text(json.dumps({"dimension": 2}), encoding="utf-8")
    script = ("import resource, sys; from plurisym.cli import main; code = main(sys.argv[1:]); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); "
              "sys.exit(code)")
    proc = run_python(["-c", script, "volume", "--config", str(path)])
    assert proc.returncode == 0, proc.stderr
    peak_kib = int(proc.stderr.split()[-1])  # ru_maxrss is in KiB on Linux
    assert peak_kib * 1024 < 450e6


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_passes_and_reports_every_suite(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--format", "json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["passed"] is True
    assert len(payload["report"]) >= 10
    for row in payload["report"]:
        assert row["status"] == "pass"
        assert row["worst_error"] <= row["tolerance"]


def report_rows(path):
    """name -> (value, status) of a CSV report."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {row[0]: (row[1], row[-1]) for row in (line.split(",") for line in lines)}


def test_verify_sign_flip_hook_exits_4_and_names_the_suite(tmp_path, capsys, monkeypatch):
    # the pointwise suite runs with a negated trace; the calculus suite's
    # torsion identity keeps the real one
    real_trace, real_suite = plurisym.verify.metric_trace, plurisym.verify.pointwise_suite

    def negated_pointwise_suite(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(plurisym.verify, "metric_trace", lambda *a: -real_trace(*a))
            return real_suite(*args, **kwargs)

    monkeypatch.setattr(plurisym.verify, "pointwise_suite", negated_pointwise_suite)
    out = tmp_path / "flip.csv"
    assert main(["verify", "--output", str(out)]) == 4
    err = capsys.readouterr().err
    assert "star-trace contraction" in err
    failed = {name for name, (_, status) in report_rows(out).items() if status == "fail"}
    assert failed == {f"star-trace contraction n={n}" for n in (2, 3, 4)}


def test_verify_fails_a_nan_error_that_does_not_come_first(tmp_path, monkeypatch):
    # each running maximum starts at 0.0, ahead of any NaN error; Python's max
    # would drop the NaN there
    real_trace = plurisym.verify.metric_trace
    monkeypatch.setattr(plurisym.verify, "metric_trace",
                        lambda *args: real_trace(*args) * np.nan)
    out = tmp_path / "nan.csv"
    assert main(["verify", "--output", str(out)]) == 4
    failed = {name: value for name, (value, status) in report_rows(out).items()
              if status == "fail"}
    assert failed == {"star-trace contraction n=2": "nan",
                      "star-trace contraction n=3": "nan",
                      "star-trace contraction n=4": "nan",
                      "torsion trace identity": "nan"}


# ----------------------------------------------------------------------
# volume
# ----------------------------------------------------------------------

def test_volume_report_structure_and_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, flow=VOLUME_FLOW)
    assert main(["volume", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    provenance = {row["provenance"] for row in payload["report"]}
    assert {"fitted", "integral-formula", "measured", "derived"} <= provenance
    names = [row["name"] for row in payload["report"]]
    assert "volume_rate identity (max rel err)" in names
    assert "pairing_rate identity (max rel err)" in names
    assert "fitted roots in flow horizon" in names


def test_volume_flat_kahler_reports_zero_higher_coefficients(tmp_path, capsys):
    cfg = write_config(tmp_path, initial={"type": "flat_kahler"},
                       flow=VOLUME_FLOW)
    assert main(["volume", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {(r["name"], r["provenance"]): r for r in payload["report"]}
    for i in (1, 2):
        assert rows[(f"a_{i}", "integral-formula")]["value"] == 0.0
        assert abs(rows[(f"a_{i}", "fitted")]["value"]) < 1e-10


def test_volume_fails_a_nan_beta_residual_after_the_first_sample(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, flow=VOLUME_FLOW)
    real_check = plurisym.cli.check_beta_pluriclosed
    calls = []

    def nan_at_second_sample(grid, omega, phi, s):
        calls.append(s)
        value = real_check(grid, omega, phi, s)
        return np.nan if s == 1 and calls.count(1) == 2 else value

    monkeypatch.setattr(plurisym.cli, "check_beta_pluriclosed", nan_at_second_sample)
    out = tmp_path / "nan.csv"
    assert main(["volume", "--config", cfg, "--output", str(out)]) == 4
    rows = report_rows(out)
    assert rows["beta[1] pluriclosed residual (max)"] == ("nan", "fail")
    assert rows["beta[0] pluriclosed residual (max)"][1] == "pass"


def test_volume_builds_each_samples_forms_once_per_pass(tmp_path, monkeypatch,
                                                         count_fields):
    # band fields through from_band after the flow, cut at the analysis
    # calls: a sample's forms cost 3 fields at n=2 (omega 2, phi 1).  The
    # beta rows build every sample's forms once for both rows, the formula
    # coefficients sample 0's once, and the identity pass omega at every
    # sample and phi with the curvature form (4 fields) at interior ones
    cfg = write_config(tmp_path, flow=VOLUME_FLOW)
    fields = count_fields("from_band")
    marks = {}

    def marked(name, fn):
        def wrapper(*args, **kwargs):
            marks.setdefault(name + " start", len(fields))
            out = fn(*args, **kwargs)
            marks[name + " end"] = len(fields)
            return out
        return wrapper

    for name in ("run_flow", "check_derivative_identities", "coefficient_a"):
        monkeypatch.setattr(plurisym.cli, name, marked(name, getattr(plurisym.cli, name)))
    assert main(["volume", "--config", cfg, "--output", str(tmp_path / "v.csv")]) == 0
    marks["main end"] = len(fields)
    samples = VOLUME_FLOW["steps"] // VOLUME_FLOW["sample_every"] + 1

    def between(start, end):
        return sum(fields[marks[start]:marks[end]])

    assert between("run_flow end", "check_derivative_identities start") == 0
    assert (between("check_derivative_identities start", "check_derivative_identities end")
            == 2 * samples + (1 + 4) * (samples - 4))
    assert between("check_derivative_identities end", "coefficient_a start") == 3
    assert between("coefficient_a end", "main end") == 3 * samples


def test_volume_tight_tolerance_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, flow=VOLUME_FLOW,
                       tolerances={"identity_rel": 1e-16})
    assert main(["volume", "--config", cfg]) == 4
    assert "identity (max rel err)" in capsys.readouterr().err


def test_volume_uneven_sampling_is_a_config_error(tmp_path, capsys):
    # 33 % 5 != 0, so the trailing sample lands off the uniform comb
    cfg = write_config(tmp_path, flow={"steps": 33, "sample_every": 5})
    assert main(["volume", "--config", cfg]) == 3
    assert "evenly spaced" in capsys.readouterr().err


def test_volume_too_few_samples_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, flow={"steps": 25, "sample_every": 5})
    assert main(["volume", "--config", cfg]) == 3
    assert "at least 7" in capsys.readouterr().err


# ----------------------------------------------------------------------
# obstruct
# ----------------------------------------------------------------------

def test_obstruct_linear_descending_case(capsys):
    assert main(["obstruct", "1", "-1", "0"]) == 0
    out = capsys.readouterr().out
    assert "min_positive_root,1\n" in out
    assert "obstructed,true" in out


def test_obstruct_no_root_case(capsys):
    assert main(["obstruct", "1", "1", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_positive_root"] is None
    assert payload["obstructed"] is False


def test_obstruct_ruled_preset(capsys):
    assert main(["obstruct", "1", "0", "ruled:f=2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a2"] == -4.0
    assert payload["min_positive_root"] == 0.5
    assert payload["obstructed"] is True
    assert payload["preset"] == "ruled:f=2"


def test_obstruct_rejects_bad_input(capsys):
    assert main(["obstruct", "-0.5", "1", "1"]) == 3
    assert main(["obstruct", "1", "q", "1"]) == 3
    assert main(["obstruct", "1", "0", "ruled:f=two"]) == 3
    assert main(["obstruct", "1", "0", "nan"]) == 3
    err = capsys.readouterr().err
    assert "config error" in err


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def test_usage_errors_exit_3(capsys):
    assert main(["bogus"]) == 3
    assert main([]) == 3
    assert main(["flow", "--format", "xml"]) == 3
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_3(capsys):
    assert main(["flow", "--config", "/nonexistent/cfg.json"]) == 3
    assert "cannot read config file" in capsys.readouterr().err


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(
    not _distribution_installed("plurisym"),
    reason="no installed 'plurisym' distribution (importlib.metadata.PackageNotFoundError); "
           "the console script exists only after `pip install -e .`",
)
def test_console_script_is_installed():
    exe = shutil.which("plurisym")
    assert exe is not None, "editable install should expose the plurisym script"
    proc = subprocess.run([exe, "obstruct", "1", "-1", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "obstructed,true" in proc.stdout


def test_console_script_entry_point_runs_from_the_source_tree():
    # the part of the console-script contract that needs no install: the
    # declared entry point exists and behaves like the installed wrapper
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["plurisym"]
    assert target == "plurisym.cli:main"
    module, func = target.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = run_python(["-c", wrapper, "obstruct", "1", "-1", "0"])
    assert proc.returncode == 0, proc.stderr
    assert "obstructed,true" in proc.stdout
