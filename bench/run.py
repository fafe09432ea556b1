"""Benchmark of the `plurisym` command line: four workloads, checked outputs.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `plurisym` command run in a fresh child process
(`bench/child.py`, which calls `plurisym.cli.main`), with
`PLURISYM_THREADS` unset, followed by checks of its report against
properties the method must have.  Operations run one at a time, back to
back, for about S seconds and at least twice; every one prints the same
bytes, since the config (and its seed) is the same.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics (medians over the operations); with `--trace 1` every
second operation is traced and the JSON carries the per-layer metrics
(medians over the traced operations).  Reports, clock marks and traces of
the last run of each workload stay in `bench/out/<workload>/`.  See
bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# every run, with its warm-up, ends well inside 180 s
RUN_BUDGET_S = 170.0
DT = 1e-4
FLOW_COLUMNS = ["t", "V", "F", "d_omega_residual", "hs_constraint_residual",
                "del_phi_residual", "pluriclosed_residual", "min_eig_margin"]
RESIDUAL_COLUMNS = FLOW_COLUMNS[3:7]
VERIFY_SUITES = [
    "star-trace contraction n=2", "star-trace contraction n=3",
    "star-trace contraction n=4", "star defining property",
    "pairing conjugate symmetry", "fundamental form self-pairing = n",
    "metric round trip", "derivative nilpotency", "stokes on the torus",
    "codifferential adjointness", "torsion trace identity",
    "curvature form real and closed", "spectral derivative of a wave",
    "flat state is exactly structured",
]


def standard_n2(seed, steps, sample_every):
    """The acceptance run's initial data and step size, over a shorter horizon."""
    return {
        "dimension": 2,
        "grid": 16,
        "initial": {"type": "perturbed_flat", "epsilon": 0.05, "seed": seed,
                    "mode_cutoff": 2},
        "flow": {"dt": DT, "steps": steps, "sample_every": sample_every},
    }


# workload -> (command, config from the program seed, or None for `verify`)
WORKLOADS = {
    "flow-n2": ("flow", lambda seed: standard_n2(seed, 40, 5)),
    "volume-n2": ("volume", lambda seed: standard_n2(seed, 40, 2)),
    # n=3 defaults: N=8, epsilon 0.05, mode_cutoff 2, dt 1e-4
    "flow-n3": ("flow", lambda seed: {"dimension": 3, "initial": {"seed": seed},
                                      "flow": {"steps": 1, "sample_every": 1}}),
    "verify": ("verify", None),
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "calculus.band_transform_s": "s",
    "calculus.band_fields_per_step": "fields/step",
    "calculus.grid_fft_s": "s",
    "calculus.grid_fft_fields": "fields",
    "calculus.derivative_s": "s",
    "calculus.residual_norms_s": "s",
    "calculus.chern_form_s": "s",
    "forms.metric_build_s": "s",
    "forms.metric_builds": "count",
    "forms.metric_trace_s": "s",
    "forms.wedge_s": "s",
    "forms.wedge_calls": "count",
    "forms.hodge_star_s": "s",
    "forms.inner_product_s": "s",
    "flow.step_s": "s",
    "flow.step_self_s": "s",
    "flow.diagnostics_s": "s",
    "flow.init_s": "s",
    "flow.snapshot_mb": "MB",
    "volume.identities_s": "s",
    "volume.beta_check_s": "s",
    "volume.volume_V_s": "s",
    "volume.coefficient_s": "s",
    "verify.pointwise_s": "s",
    "verify.calculus_s": "s",
    "cli.self_s": "s",
}


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _csv_rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"report header is {rows[0] if rows else None}, want {header}")
    return rows[1:]


def check_flow(text, config):
    """Failures of a `flow` series against the structure the flow preserves."""
    rows = [dict(zip(FLOW_COLUMNS, map(float, r))) for r in _csv_rows(text, FLOW_COLUMNS)]
    steps, every = config["flow"]["steps"], config["flow"]["sample_every"]
    dt = config["flow"].get("dt", DT)
    want_t = [k * dt for k in range(0, steps + 1, every)]
    if steps % every:
        want_t.append(steps * dt)
    if len(rows) != len(want_t):
        return [f"{len(rows)} rows, want {len(want_t)}"]
    bad = []
    for k, (row, t) in enumerate(zip(rows, want_t)):
        if not math.isclose(row["t"], t, rel_tol=1e-12, abs_tol=1e-15):
            bad.append(f"row {k}: t={row['t']!r}, want {t!r}")
        for col in RESIDUAL_COLUMNS:
            if not row[col] <= 1e-8:
                bad.append(f"row {k}: {col}={row[col]!r} > 1e-8")
        if not abs(row["V"] - 1.0) <= 1e-10:
            bad.append(f"row {k}: V={row['V']!r} is not 1 within 1e-10")
        if not row["min_eig_margin"] > 0.0:
            bad.append(f"row {k}: min_eig_margin={row['min_eig_margin']!r}")
    if config["dimension"] == 2:
        for k in range(1, len(rows)):
            if not rows[k]["F"] < rows[k - 1]["F"]:
                bad.append(f"row {k}: F={rows[k]['F']!r} does not decrease")
    return bad


def check_volume(text, config):
    """Failures of a `volume` report: a failed row, or a volume that is not 1."""
    header = ["name", "value", "provenance", "tolerance", "status"]
    rows = _csv_rows(text, header)
    bad = [f"{r[0]}: status {r[4]}" for r in rows if r[4] not in ("pass", "info")]
    for i, limit in ((0, 1e-10), (1, 1e-6), (2, 1e-6)):
        values = {r[2]: float(r[1]) for r in rows if r[0] == f"a_{i}"}
        if sorted(values) != ["fitted", "integral-formula"]:
            bad.append(f"a_{i}: rows {sorted(values)}")
        for provenance, value in values.items():
            if not abs(value - (1.0 if i == 0 else 0.0)) <= limit:
                bad.append(f"a_{i} ({provenance}) = {value!r}, off by more than {limit:g}")
    return bad


def check_verify(text, config):
    """Failures of a `verify` report: a missing suite or an error above its tolerance."""
    rows = _csv_rows(text, ["name", "worst_error", "tolerance", "status"])
    bad = []
    if [r[0] for r in rows] != VERIFY_SUITES:
        bad.append(f"suites {[r[0] for r in rows]}, want {VERIFY_SUITES}")
    for name, worst, tol, status in rows:
        if not float(worst) <= float(tol) or status != "pass":
            bad.append(f"{name}: worst error {worst} against {tol} ({status})")
    return bad


CHECKS = {"flow": check_flow, "volume": check_volume, "verify": check_verify}


# ----------------------------------------------------------------------
# one operation
# ----------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("PLURISYM_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stdout_path, stderr_path, timeout):
    """Run a child to its end; (exit code, start, end, resource usage).

    The child is killed after ``timeout`` seconds.  Start and end are
    `time.monotonic` readings around the spawn and the reaping of the child.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        end = time.monotonic()
    # reaped here, so Popen must not wait for the child again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage


def run_operation(index, command, cli_args, config, out_dir, traced, timeout):
    """One workload command in a fresh process, with its timings and checks."""
    base = os.path.join(out_dir, f"op{index}")
    marks_path, trace_path = base + ".marks.json", base + ".trace.json"
    argv = [sys.executable, os.path.join(BENCH, "child.py"), marks_path,
            trace_path if traced else "-", "--", *cli_args]
    code, start, end, usage = spawn(argv, base + ".out", base + ".err", timeout)
    with open(base + ".out", "rb") as fh:
        stdout = fh.read()
    op = {"index": index, "traced": traced, "exit": code, "stdout": stdout,
          "wall_s": end - start, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if code != 0:
        with open(base + ".err", "rb") as fh:
            op["problems"] = [f"exit code {code}: "
                              + fh.read().decode("utf-8", "replace").strip()[-500:]]
        return op
    with open(marks_path, encoding="utf-8") as fh:
        marks = json.load(fh)
    op["setup_s"] = marks["core_start"] - start
    op["compute_s"] = marks["core_end"] - marks["core_start"]
    op["analysis_s"] = end - marks["core_end"]
    try:
        op["problems"] = CHECKS[command](stdout.decode("utf-8"), config)
    except ValueError as err:
        op["problems"] = [f"unreadable report: {err}"]
    if traced:
        with open(trace_path, encoding="utf-8") as fh:
            op["layers"] = layer_metrics(json.load(fh))
    return op


# ----------------------------------------------------------------------
# per-layer metrics from a trace
# ----------------------------------------------------------------------

def layer_metrics(spans):
    """Per-layer metrics of one traced operation.

    Times are totals over the operation, except the per-call medians of
    ``flow.step_s``, ``flow.step_self_s`` and ``flow.diagnostics_s``.  A
    span's self time is its duration minus that of its child spans.
    """
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child_time[p] += durations[i]
    in_step = [False] * len(spans)
    total, calls, counted = {}, {}, {}
    step_fields = 0
    per_call = {"flow.step": [], "flow.step_self": [], "flow.diagnostics": []}
    for i, name in enumerate(names):
        p = parents[i]
        in_step[i] = p >= 0 and (in_step[p] or names[p] == "flow.step")
        total[name] = total.get(name, 0.0) + durations[i]
        calls[name] = calls.get(name, 0) + 1
        if spans[i][4] is not None:
            counted[name] = counted.get(name, 0) + spans[i][4]
            if in_step[i] and name == "calculus.band_transform":
                step_fields += spans[i][4]
        if name == "flow.step":
            per_call["flow.step"].append(durations[i])
            per_call["flow.step_self"].append(durations[i] - child_time[i])
        elif name == "flow.diagnostics":
            per_call["flow.diagnostics"].append(durations[i])

    def med(key):
        return statistics.median(per_call[key]) if per_call[key] else 0.0

    steps = calls.get("flow.step", 0)
    main = names.index("cli.main")
    return {
        "calculus.band_transform_s": total.get("calculus.band_transform", 0.0),
        "calculus.band_fields_per_step":
            step_fields / steps if steps else 0.0,
        "calculus.grid_fft_s": total.get("calculus.grid_fft", 0.0),
        "calculus.grid_fft_fields": counted.get("calculus.grid_fft", 0),
        "calculus.derivative_s": total.get("calculus.derivative", 0.0),
        "calculus.residual_norms_s": total.get("calculus.residual_norms", 0.0),
        "calculus.chern_form_s": total.get("calculus.chern_form", 0.0),
        "forms.metric_build_s": total.get("forms.metric_build", 0.0),
        "forms.metric_builds": calls.get("forms.metric_build", 0),
        "forms.metric_trace_s": total.get("forms.metric_trace", 0.0),
        "forms.wedge_s": total.get("forms.wedge", 0.0),
        "forms.wedge_calls": calls.get("forms.wedge", 0),
        "forms.hodge_star_s": total.get("forms.hodge_star", 0.0),
        "forms.inner_product_s": total.get("forms.inner_product", 0.0),
        "flow.step_s": med("flow.step"),
        "flow.step_self_s": med("flow.step_self"),
        "flow.diagnostics_s": med("flow.diagnostics"),
        "flow.init_s": total.get("flow.init", 0.0),
        "flow.snapshot_mb": counted.get("flow.run_flow", 0) / 2.0 ** 20,
        "volume.identities_s": total.get("volume.identities", 0.0),
        "volume.beta_check_s": total.get("volume.beta_check", 0.0),
        "volume.volume_V_s": total.get("volume.volume_V", 0.0),
        "volume.coefficient_s": total.get("volume.coefficient", 0.0),
        "verify.pointwise_s": total.get("verify.pointwise", 0.0),
        "verify.calculus_s": total.get("verify.calculus", 0.0),
        "cli.self_s": durations[main] - child_time[main],
    }


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def warm_up():
    """Import the package once from this checkout's source tree.

    Fills the bytecode and file caches, which users do not pay for on every
    run, and makes sure the package comes from `src/` of this checkout.
    """
    probe = "import plurisym.cli; print(plurisym.cli.__file__)"
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    where = proc.stdout.strip()
    if proc.returncode != 0 or os.path.dirname(os.path.dirname(where)) != SRC:
        raise RuntimeError(f"plurisym is not importable from {SRC}: "
                           f"{where or proc.stderr.strip()[-500:]}")


def measure(workload, seed, seconds, trace):
    """Run the workload's operations for about ``seconds``; (config, operations)."""
    command, make_config = WORKLOADS[workload]
    program_seed = seed % 2 ** 64
    out_dir = os.path.join(BENCH, "out", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    if make_config is None:
        config = None
        cli_args = [command, "--seed", str(program_seed)]
    else:
        config = make_config(program_seed)
        config_path = os.path.join(out_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        cli_args = [command, "--config", config_path]

    began = time.monotonic()
    warm_up()
    ops = []
    loop_start = time.monotonic()
    while True:
        left = RUN_BUDGET_S - (time.monotonic() - began)
        ops.append(run_operation(len(ops), command, cli_args, config, out_dir,
                                 traced=bool(trace) and len(ops) % 2 == 1,
                                 timeout=max(left, 1.0)))
        elapsed = time.monotonic() - loop_start
        longest = max(op["wall_s"] for op in ops)
        if len(ops) >= 2 and (elapsed + longest > seconds
                              or time.monotonic() - began + longest > RUN_BUDGET_S):
            break
    return config, ops


def summarize(config, ops, trace):
    """Human-readable lines and the result object of one run."""
    lines = []
    done = [op for op in ops if op["exit"] == 0]
    correct = all(not op["problems"] for op in done)
    outputs = {op["stdout"] for op in done}
    if len(outputs) > 1:
        correct = False
        lines.append(f"rerun determinism: FAILED, {len(outputs)} distinct reports")
    else:
        lines.append(f"rerun determinism: ok, {len(done)} byte-identical reports")
    for op in ops:
        kind = "traced" if op["traced"] else "plain"
        if op["exit"] != 0:
            lines.append(f"op {op['index']} ({kind}): FAILED {op['problems'][0]}")
            continue
        lines.append(
            f"op {op['index']} ({kind}): wall {op['wall_s']:.3f} s, setup "
            f"{op['setup_s']:.3f} s, compute {op['compute_s']:.3f} s, analysis "
            f"{op['analysis_s']:.3f} s, peak RSS {op['peak_rss_mb']:.1f} MB, checks "
            + ("ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"][:5])))
    plain = [op for op in done if not op["traced"]]
    traced = [op for op in done if op["traced"]]
    metrics = {}
    if trace:
        if traced:
            for name, unit in LAYER_UNITS.items():
                value = statistics.median(op["layers"][name] for op in traced)
                metrics[name] = {"value": value, "unit": unit}
        if traced and plain:
            overhead = (statistics.median(op["wall_s"] for op in traced)
                        - statistics.median(op["wall_s"] for op in plain))
            lines.append(f"tracing overhead: {overhead:.3f} s on wall_s "
                         f"({len(traced)} traced, {len(plain)} plain operations)")
    elif plain:
        for name, unit in E2E_UNITS.items():
            metrics[name] = {"value": statistics.median(op[name] for op in plain),
                             "unit": unit}
        if config is not None:
            n = config["flow"]["steps"]
            lines.append(f"steps_per_s: {n / metrics['compute_s']['value']:.4f} steps/s "
                         f"({n} RK4 steps in compute_s)")
        analysis = statistics.median(op["analysis_s"] for op in plain)
        lines.append(f"analysis_s: {analysis:.6g} s (not gated)")
    for name, entry in metrics.items():
        lines.append(f"{name}: {entry['value']:.6g} {entry['unit']}")
    result = {"correct": correct, "attempted": len(ops), "failed": len(ops) - len(done),
              "metrics": metrics}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "plurisym", "cli.py")):
        print(f"no plurisym source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        config, ops = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2
    lines, result = summarize(config, ops, args.trace)
    if not result["metrics"]:
        print("\n".join(lines), file=sys.stderr)
        print("no operation completed; no metrics", file=sys.stderr)
        return 1
    with open(os.path.join(BENCH, "out", args.workload, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
