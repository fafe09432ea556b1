"""Command-line entry point: verify | flow | volume | obstruct.

Orchestrates the lower modules and renders machine-readable reports.  All
output is deterministic for a fixed config (including the seed): CSV is
UTF-8 with comma separators, bare "\\n" line endings, and floats printed to
17 significant digits; JSON reports carry the same rows structurally.

Exit codes: 0 success, 2 positivity of the evolving metric lost, 3
configuration or usage error, 4 invariant or tolerance violation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import platform
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from .calculus import TorusGrid
from .config import RunConfig, parse_config
from .errors import ConfigError, ConstraintViolationError, PositivityLostError
from .flow import make_initial_hs, make_initial_kahler, run_flow
from .verify import DEFAULT_SEED, run_all_suites
from .volume import (
    check_beta_pluriclosed,
    check_derivative_identities,
    coefficient_a,
    fit_polynomial,
    ruled_a2,
    surface_obstruction,
)

__all__ = ["main", "build_parser", "CSV_COLUMNS"]

# frozen: order and spelling are part of the output contract
CSV_COLUMNS = (
    "t",
    "V",
    "F",
    "d_omega_residual",
    "hs_constraint_residual",
    "del_phi_residual",
    "pluriclosed_residual",
    "min_eig_margin",
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 3, not 2)."""

    def error(self, message):
        raise ConfigError(message)


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _render_series(records: List[dict], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_fmt(rec[c]) for c in CSV_COLUMNS) for rec in records]
        return "\n".join(lines) + "\n"
    payload = {
        "columns": list(CSV_COLUMNS),
        "rows": [[rec[c] for c in CSV_COLUMNS] for rec in records],
    }
    return json.dumps(payload, indent=2) + "\n"


def _render_report(rows: List[dict], columns: Sequence[str], fmt: str,
                   passed: Optional[bool] = None) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"report": rows}
    if passed is not None:
        payload["passed"] = passed
    return json.dumps(payload, indent=2) + "\n"


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None) is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
    else:
        text = '{"dimension": 2}'
    cfg = parse_config(text)
    if getattr(args, "seed", None) is not None:
        cfg.initial.seed = args.seed
    if args.output is not None:
        cfg.output = args.output
    if args.format is not None:
        cfg.format = args.format
    return cfg


def _initial_state(grid: TorusGrid, cfg: RunConfig):
    init = cfg.initial
    if init.type == "flat_kahler":
        # exactly flat fixed point; epsilon/seed/mode_cutoff shape perturbed_flat only
        return make_initial_kahler(grid, epsilon=0.0, mode_cutoff=init.mode_cutoff)
    return make_initial_hs(grid, init.epsilon, init.seed, init.mode_cutoff)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    fmt = args.format if args.format is not None else "csv"
    output = args.output
    if getattr(args, "config", None) is not None:
        cfg = _load_config(args)
        fmt, output = cfg.format, cfg.output
    results = run_all_suites(seed)
    rows = [
        {**res.row(), "status": "pass" if res.passed else "fail"}
        for res in results
    ]
    text = _render_report(rows, ("name", "worst_error", "tolerance", "status"),
                          fmt, passed=all(res.passed for res in results))
    _write_text(output, text)
    failures = [res for res in results if not res.passed]
    for res in failures:
        print(
            f"invariant violation: {res.name} "
            f"(worst error {res.worst_error:.3e} > {res.tolerance:.1e})",
            file=sys.stderr,
        )
    return 4 if failures else 0


# ----------------------------------------------------------------------
# flow
# ----------------------------------------------------------------------

def cmd_flow(args) -> int:
    cfg = _load_config(args)
    grid = TorusGrid(cfg.dimension, cfg.grid)
    records: List[dict] = []
    code = 0
    try:
        state = _initial_state(grid, cfg)
        records = run_flow(grid, state, cfg.flow).records
    except PositivityLostError as err:
        records = err.records
        code = 2
        print(f"positivity lost: {err}", file=sys.stderr)
    except ConstraintViolationError as err:
        records = err.records
        code = 4
        print(f"constraint violation: {err}", file=sys.stderr)
    _write_text(cfg.output, _render_series(records, cfg.format))
    return code


# ----------------------------------------------------------------------
# volume
# ----------------------------------------------------------------------

def cmd_volume(args) -> int:
    cfg = _load_config(args)
    grid = TorusGrid(cfg.dimension, cfg.grid)
    state = _initial_state(grid, cfg)
    result = run_flow(grid, state, replace(cfg.flow, collect_states=True))

    n, tol = cfg.dimension, cfg.tolerances
    ts = np.array([rec["t"] for rec in result.records])
    vs = np.array([rec["V"] for rec in result.records])
    states = result.states
    t_end = float(ts[-1])

    rows: List[dict] = []

    def add(name, value, provenance, tolerance=None, ok=None):
        rows.append({
            "name": name,
            "value": value,
            "provenance": provenance,
            "tolerance": tolerance,
            "status": "info" if ok is None else ("pass" if ok else "fail"),
        })

    try:
        fit, fit_residual = fit_polynomial(ts, vs, n)
        over = fit_polynomial(ts, vs, n + 1) if len(ts) >= 2 * (n + 2) else None
        identities = check_derivative_identities(
            grid, states, resolution_guard=tol.resolution_guard)
    except ValueError as err:
        # too few / unevenly spaced / unresolvable samples: a run-shape problem
        raise ConfigError(str(err)) from err

    # a_0 is the volume of the initial state, which its record has measured
    a0 = result.records[0]["V"]
    omega0, phi0 = states[0].omega, states[0].phi
    formulas = [a0] + [coefficient_a(grid, omega0, phi0, i) for i in range(1, n + 1)]

    add(f"fit residual (degree {n})", fit_residual, "measured",
        tol.fit_residual, fit_residual <= tol.fit_residual)
    if over is not None:
        excess = abs(over[0].coeffs[n + 1]) / a0
        add(f"fit excess coefficient t^{n + 1} (rel a_0)", excess, "measured",
            tol.a2_rel, excess <= tol.a2_rel)
    for i in range(n + 1):
        add(f"a_{i}", float(fit.coeffs[i]), "fitted")
        add(f"a_{i}", formulas[i], "integral-formula")
    agree0 = abs(float(fit.coeffs[0]) - a0) / abs(a0)
    add("a_0 agreement (rel)", agree0, "derived", tol.a0_rel, agree0 <= tol.a0_rel)
    agree1 = abs(float(fit.coeffs[1]) - formulas[1]) / max(abs(formulas[1]), abs(a0))
    add("a_1 agreement (rel)", agree1, "derived", tol.a1_rel, agree1 <= tol.a1_rel)
    for i in range(2, n + 1):
        mag = abs(float(fit.coeffs[i])) / a0
        add(f"a_{i} magnitude (rel a_0)", mag, "derived", tol.a2_rel,
            mag <= tol.a2_rel)

    # a sample builds its forms on each read: one read serves both rows
    beta_residuals = {0: [], 1: []}
    for st in states:
        omega, phi = st.omega, st.phi
        for s, values in beta_residuals.items():
            values.append(check_beta_pluriclosed(grid, omega, phi, s))
    for s, values in beta_residuals.items():
        # np.max keeps a NaN residual, which Python's max drops unless it comes first
        worst = float(np.max(values))
        add(f"beta[{s}] pluriclosed residual (max)", worst, "measured",
            tol.beta_residual, worst <= tol.beta_residual)

    for key in sorted(identities):
        entry = identities[key]
        add(f"{key} identity (max rel err)", entry["max_rel_error"], "measured",
            tol.identity_rel, entry["max_rel_error"] <= tol.identity_rel)
        add(f"{key} unresolved samples", int(entry["unresolved"]), "measured")

    vmin = float(vs.min())
    add("V minimum over samples", vmin, "measured", 0.0, vmin > 0.0)

    horizon_roots = 0
    trimmed = np.trim_zeros(fit.coeffs, "b")
    if len(trimmed) >= 2:
        roots = np.polynomial.polynomial.polyroots(trimmed)
        real = roots[np.abs(roots.imag) <= 1e-9 * max(1.0, np.abs(roots).max())].real
        horizon_roots = int(np.count_nonzero((real >= 0.0) & (real <= t_end)))
    add("fitted roots in flow horizon", horizon_roots, "derived", 0.0,
        horizon_roots == 0)

    failures = [row["name"] for row in rows if row["status"] == "fail"]
    text = _render_report(rows, ("name", "value", "provenance", "tolerance", "status"),
                          cfg.format, passed=not failures)
    _write_text(cfg.output, text)
    for name in failures:
        print(f"tolerance violation: {name}", file=sys.stderr)
    return 4 if failures else 0


# ----------------------------------------------------------------------
# obstruct
# ----------------------------------------------------------------------

def _parse_coefficient(token: str, name: str) -> float:
    try:
        value = float(token)
    except ValueError as err:
        raise ConfigError(f"{name} must be a number, got {token!r}") from err
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {token!r}")
    return value


def cmd_obstruct(args) -> int:
    a0 = _parse_coefficient(args.a0, "a0")
    a1 = _parse_coefficient(args.a1, "a1")
    preset = None
    if args.a2.startswith("ruled:"):
        preset = args.a2
        tail = args.a2[len("ruled:"):]
        if not tail.startswith("f="):
            raise ConfigError(f"malformed preset {args.a2!r}, expected ruled:f=<genus>")
        try:
            genus = int(tail[len("f="):])
        except ValueError as err:
            raise ConfigError(
                f"malformed preset {args.a2!r}, expected ruled:f=<genus>") from err
        a2 = ruled_a2(genus)
    else:
        a2 = _parse_coefficient(args.a2, "a2")
    try:
        verdict = surface_obstruction(a0, a1, a2)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    fmt = args.format if args.format is not None else "csv"
    fields = [
        ("a0", verdict.a0),
        ("a1", verdict.a1),
        ("a2", verdict.a2),
        ("preset", preset),
        ("discriminant", verdict.discriminant),
        ("min_positive_root", verdict.min_positive_root),
        ("obstructed", verdict.obstructed),
    ]
    if fmt == "csv":
        lines = ["field,value"] + [f"{k},{_fmt(v)}" for k, v in fields]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(dict(fields), indent=2) + "\n"
    _write_text(args.output, text)
    return 0


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="plurisym", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_config=True):
        if with_config:
            p.add_argument("--config", help="path to a JSON run config")
            p.add_argument("--seed", type=int,
                           help="override the config's initial.seed")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"),
                       help="report format (default csv, or the config's)")

    p = sub.add_parser("verify", help="run all structural invariant suites")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flow", help="integrate the coupled flow, emit the time series")
    common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("volume", help="run the flow and analyze the volume polynomial")
    common(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("obstruct", help="classify a degree-2 volume polynomial")
    p.add_argument("a0", help="constant coefficient (must be positive)")
    p.add_argument("a1", help="linear coefficient")
    p.add_argument("a2", help="quadratic coefficient, or preset ruled:f=<genus>")
    common(p, with_config=False)
    p.set_defaults(func=cmd_obstruct)
    return parser


# glibc's mallopt parameters, and the largest mmap threshold its dynamic
# rule reaches (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _reuse_freed_memory() -> None:
    """Have glibc's malloc keep freed blocks under 32 MiB for reuse.

    Every RK4 stage allocates and frees fields of a few MiB.  glibc's
    dynamic rule raises its mmap threshold to the largest mapped block freed
    so far and trims the heap once twice that lies free at its top.  When
    no freed block is much larger than a stage's fields (at n=2 N=16 none
    exceeds 2 MiB), the heap is trimmed and grown again at every stage and
    its pages are faulted in afresh: an n=2 N=16 step took about 5 600 minor
    page faults and 33 ms, against 260 and 26 ms with both thresholds fixed
    where the rule ends (mmap at 32 MiB, trim at twice that).  Blocks above
    32 MiB are still mapped, faulted in and unmapped on each use: at n=3
    N=8 a nine-component field such as del omega is 36 MiB, so the RK4 step
    never builds del omega or dbar phi on the grid, but traces them one
    scalar component at a time through one grid buffer per step (an n=3
    N=8 step after the first faulted 298 pages in with a fresh del omega and
    dbar phi per stage, 40 with one (2,1) work array per step, and 2 on
    most steps with the scalar buffer).  Other C libraries are left as they
    are.
    """
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _reuse_freed_memory()
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", None) is not None and not 0 <= args.seed < 2 ** 64:
            raise ConfigError(f"--seed must lie in [0, 2^64), got {args.seed}")
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    except PositivityLostError as err:
        print(f"positivity lost: {err}", file=sys.stderr)
        return 2
    except ConstraintViolationError as err:
        print(f"constraint violation: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
