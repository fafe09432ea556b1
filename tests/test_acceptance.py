"""Acceptance gate: one test per numbered criterion, at the stated tolerance.

Criteria 3, 5, 6, and 8 share the standard 2 000-step trajectory (n=2, N=16,
epsilon=0.05, seed=42, dt=1e-4, sampled every 5 steps), built once per module.
Criterion 7 gets its own denser-sampled run: the finite-difference stencils
need a smaller sample spacing than the standard run provides before their own
truncation error sits safely under the 1e-4 identity tolerance.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from plurisym.calculus import TorusGrid, random_band_limited, residual_norms
from plurisym.flow import FlowConfig, make_initial_hs, make_initial_kahler, run_flow
from plurisym.forms import Form, conjugate
from plurisym.verify import calculus_suite, pointwise_suite
from plurisym.volume import (
    check_beta_pluriclosed,
    check_derivative_identities,
    coefficient_a,
    fit_polynomial,
    ruled_a2,
    surface_obstruction,
)

from oracles import oracle_obstructed

RESIDUAL_KEYS = (
    "d_omega_residual",
    "hs_constraint_residual",
    "del_phi_residual",
    "pluriclosed_residual",
)


@pytest.fixture(scope="module")
def grid16():
    return TorusGrid(2, 16)


@pytest.fixture(scope="module")
def standard_run(grid16):
    """The pinned trajectory of criterion 3, with its wall-clock time."""
    state = make_initial_hs(grid16, epsilon=0.05, seed=42, mode_cutoff=2)
    config = FlowConfig(dt=1e-4, steps=2000, sample_every=5, collect_states=True)
    start = time.perf_counter()
    result = run_flow(grid16, state, config)
    wall = time.perf_counter() - start
    return result, wall


def _report(name: str, detail: str):
    print(f"{name}: PASS ({detail})")


def test_criterion_1_pointwise_star_trace_suite():
    start = time.perf_counter()
    results = pointwise_suite()  # 100 samples per n in {2, 3, 4}
    wall = time.perf_counter() - start
    star = [r for r in results if r.name.startswith("star-trace contraction")]
    assert {r.name for r in star} == {f"star-trace contraction n={n}" for n in (2, 3, 4)}
    for res in star:
        assert res.tolerance == 1e-12
        assert res.passed, f"{res.name}: {res.worst_error:.3e}"
    for res in results:
        assert res.passed, f"{res.name}: {res.worst_error:.3e}"
    assert wall < 10.0, f"pointwise suite took {wall:.1f}s"
    worst = max(r.worst_error for r in star)
    _report("criterion 1", f"star-trace worst {worst:.2e} <= 1e-12, {wall:.1f}s")


def test_criterion_2_spectral_calculus_suite():
    start = time.perf_counter()
    results = calculus_suite()  # grids (n=2, N=16) and (n=3, N=8)
    wall = time.perf_counter() - start
    by_name = {r.name: r for r in results}
    assert by_name["derivative nilpotency"].tolerance == 1e-12
    assert by_name["stokes on the torus"].tolerance == 1e-10
    for res in results:
        assert res.passed, f"{res.name}: {res.worst_error:.3e}"
    assert wall < 30.0, f"calculus suite took {wall:.1f}s"
    _report(
        "criterion 2",
        f"nilpotency {by_name['derivative nilpotency'].worst_error:.2e}, "
        f"stokes {by_name['stokes on the torus'].worst_error:.2e}, {wall:.1f}s",
    )


def test_criterion_3_constraint_preservation(standard_run):
    result, wall = standard_run
    assert wall < 300.0, f"standard run took {wall:.1f}s"
    assert len(result.records) == 401
    worst = {key: max(rec[key] for rec in result.records) for key in RESIDUAL_KEYS}
    for key, value in worst.items():
        assert value <= 1e-8, f"{key} reached {value:.3e}"
    _report(
        "criterion 3",
        f"max residual {max(worst.values()):.2e} <= 1e-8 over "
        f"{len(result.records)} samples, {wall:.1f}s",
    )


def test_criterion_4_kahler_degeneration(grid16):
    state = make_initial_kahler(grid16, epsilon=0.05, seed=42, mode_cutoff=2)
    assert float(np.max(np.abs(state.phi.coeffs))) == 0.0
    config = FlowConfig(dt=1e-4, steps=400, sample_every=5, collect_states=True)
    result = run_flow(grid16, state, config)
    for st in result.states:
        assert float(np.max(np.abs(st.phi.coeffs))) == 0.0, f"phi nonzero at t={st.t}"
    worst_del = max(rec["hs_constraint_residual"] for rec in result.records)
    worst_d = max(rec["d_omega_residual"] for rec in result.records)
    assert worst_del <= 1e-10
    assert worst_d <= 1e-10
    _report(
        "criterion 4",
        f"phi exactly zero at {len(result.states)} samples, "
        f"del omega <= {max(worst_del, worst_d):.2e}",
    )


def test_criterion_5_volume_polynomiality(grid16, standard_run):
    result, _ = standard_run
    ts = np.array([rec["t"] for rec in result.records])
    vs = np.array([rec["V"] for rec in result.records])
    assert len(ts) >= 12
    fit, residual = fit_polynomial(ts, vs, 2)
    assert residual <= 1e-6, f"fit residual {residual:.3e}"

    first = result.states[0]
    a0 = coefficient_a(grid16, first.omega, first.phi, 0)
    a1 = coefficient_a(grid16, first.omega, first.phi, 1)
    assert abs(fit.coeffs[2]) <= 1e-6 * a0, f"a_2 = {fit.coeffs[2]:.3e}"
    rel0 = abs(fit.coeffs[0] - a0) / abs(a0)
    assert rel0 <= 1e-10, f"a_0 disagreement {rel0:.3e}"
    # the integral formula gives a_1 = 0 on the torus (the curvature form is
    # globally exact), so the comparison scale falls back to a_0
    rel1 = abs(fit.coeffs[1] - a1) / max(abs(a1), abs(a0))
    assert rel1 <= 1e-3, f"a_1 disagreement {rel1:.3e}"
    _report(
        "criterion 5",
        f"residual {residual:.2e}, |a_2| {abs(fit.coeffs[2]):.2e}, "
        f"a_0 rel {rel0:.2e}, a_1 rel {rel1:.2e}",
    )


def test_criterion_6_beta_pluriclosedness(grid16, standard_run):
    result, _ = standard_run
    worst = {s: 0.0 for s in (0, 1)}
    for st in result.states:
        omega, phi = st.omega, st.phi  # built on each read
        for s in (0, 1):
            worst[s] = max(worst[s], check_beta_pluriclosed(grid16, omega, phi, s))
    for s, value in worst.items():
        assert value <= 1e-8, f"beta[{s}] residual {value:.3e}"

    # negative control: a non-closed bump on omega breaks the cancellation
    rng = np.random.default_rng(5)
    bad = Form.zeros(2, 1, 1, grid16.shape)
    bad.coeffs[0, 1] = 5e-3 * random_band_limited(grid16, rng, 2)
    bad = bad + conjugate(bad)
    first = result.states[0]
    broken_omega = first.omega + bad
    assert residual_norms(grid16, broken_omega, first.phi)["hs_constraint"] > 1e-3
    control = check_beta_pluriclosed(grid16, broken_omega, first.phi, 1)
    assert control > 1e-3, f"broken-constraint control only reached {control:.3e}"
    _report(
        "criterion 6",
        f"beta residuals {worst[0]:.2e}/{worst[1]:.2e} <= 1e-8, "
        f"control {control:.2e} > 1e-3",
    )


def test_criterion_7_derivative_identities(grid16):
    # denser sampling than run (3): h = 2e-4 keeps the 5-point stencil's own
    # truncation error of the fast early transient under the 1e-4 tolerance
    state = make_initial_hs(grid16, epsilon=0.05, seed=42, mode_cutoff=2)
    config = FlowConfig(dt=1e-4, steps=600, sample_every=2, collect_states=True)
    result = run_flow(grid16, state, config)
    report = check_derivative_identities(grid16, result.states)
    for key in ("volume_rate", "pairing_rate"):
        entry = report[key]
        assert entry["unresolved"] == 0, f"{key}: {entry['unresolved']} unresolved"
        assert entry["max_rel_error"] <= 1e-4, (
            f"{key} relative error {entry['max_rel_error']:.3e}"
        )
    _report(
        "criterion 7",
        f"dV/dt rel err {report['volume_rate']['max_rel_error']:.2e}, "
        f"dF/dt rel err {report['pairing_rate']['max_rel_error']:.2e} <= 1e-4",
    )


def test_criterion_8_dimension_two_monotonicity(standard_run):
    result, _ = standard_run
    fs = [rec["F"] for rec in result.records]
    assert fs[0] > 0.0, "initial state should not be Kahler"
    worst_rise = max(b - a for a, b in zip(fs, fs[1:]))
    assert worst_rise <= 1e-10, f"F rose by {worst_rise:.3e}"
    min_rel_drop = min((a - b) / a for a, b in zip(fs, fs[1:]))
    assert min_rel_drop >= 1e-10, f"weakest relative drop {min_rel_drop:.3e}"
    _report(
        "criterion 8",
        f"F strictly decreasing: worst rise {worst_rise:.2e}, "
        f"weakest relative drop {min_rel_drop:.2e}",
    )


def test_criterion_9_obstruction_classifier():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for k in range(1000):
        a0 = float(rng.uniform(0.1, 10.0))
        family = k % 5
        if family == 0:
            a1, a2 = float(rng.uniform(-3, 3)), 0.0
        elif family == 1:
            a1, a2 = float(rng.uniform(-3, 3)), float(rng.uniform(0.01, 3))
        elif family == 2:
            a1, a2 = float(rng.uniform(-3, 3)), float(rng.uniform(-3, -0.01))
        elif family == 3:
            a2 = float(rng.uniform(0.01, 3))
            a1 = -2.0 * math.sqrt(a2 * a0) * (1.0 + float(rng.uniform(-0.05, 0.05)))
        else:
            a1, a2 = 0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 3))
        verdict = surface_obstruction(a0, a1, a2)
        assert verdict.obstructed == oracle_obstructed(a0, a1, a2), (a0, a1, a2)

    preset = surface_obstruction(1.0, 0.0, ruled_a2(2))
    assert ruled_a2(2) == -4.0
    assert preset.obstructed
    assert preset.min_positive_root == pytest.approx(0.5)
    wall = time.perf_counter() - start
    assert wall < 1.0, f"classifier scan took {wall:.2f}s"
    _report("criterion 9", f"1000 triples agree with the scan oracle, {wall:.2f}s")
