"""Tests for the volume functionals, fitting, and the surface classifier."""

import math

import numpy as np
import pytest

from plurisym.calculus import (
    TorusGrid,
    chern_form,
    codifferential_dbar,
    global_inner_product,
    integrate,
    random_band_limited,
)
from plurisym.flow import (
    FlowConfig,
    FlowState,
    make_initial_hs,
    make_initial_kahler,
    run_flow,
)
from plurisym.forms import (
    Form,
    conjugate,
    flat_metric,
    fundamental_form,
    metric_of_form,
    wedge,
)
import plurisym.forms as forms_mod
import plurisym.volume as volume_mod
from plurisym.volume import (
    alpha_form,
    beta_form,
    check_beta_pluriclosed,
    check_derivative_identities,
    coefficient_a,
    fit_polynomial,
    functional_P,
    functional_Q,
    hs_pairing_volume,
    ruled_a2,
    surface_obstruction,
    volume_V,
)

from oracles import oracle_obstructed, poly_fit_oracle


@pytest.fixture(scope="module")
def grid2():
    return TorusGrid(2, 8)


@pytest.fixture(scope="module")
def hs_state(grid2):
    return make_initial_hs(grid2, epsilon=0.08, seed=7, mode_cutoff=1)


def flat_state(grid):
    omega = fundamental_form(flat_metric(grid.n, grid.shape))
    phi = Form.zeros(grid.n, 2, 0, grid.shape)
    return FlowState.make(grid, 0.0, omega, phi)


def constant_phi_state(grid, c):
    st = flat_state(grid)
    phi = Form.zeros(grid.n, 2, 0, grid.shape)
    phi.coeffs[0, 0] = c
    return FlowState.make(grid, 0.0, st.omega, phi)


# ----------------------------------------------------------------------
# alpha / beta structure
# ----------------------------------------------------------------------

def test_alpha_bidegrees_and_zero_branches(hs_state, grid2):
    om, ph = hs_state.omega, hs_state.phi
    a00 = alpha_form(ph, om, 0, 0)
    assert a00.bidegree == (2, 2)
    a10 = alpha_form(ph, om, 1, 0)
    assert a10.bidegree == (2, 2)
    # out of range: negative k and overflowing 2k+s
    assert not np.any(alpha_form(ph, om, -1, 0).coeffs)
    assert not np.any(alpha_form(ph, om, 2, 0).coeffs)
    assert not np.any(alpha_form(ph, om, 1, 1).coeffs)
    with pytest.raises(ValueError, match="codegree"):
        alpha_form(ph, om, 0, 3)
    with pytest.raises(ValueError, match="codegree"):
        beta_form(ph, om, -1)


def test_beta_weights_n2(hs_state):
    om, ph = hs_state.omega, hs_state.phi
    # beta[0] = omega^2/2 + phi^phibar, beta[1] = omega, beta[2] = 1
    b0 = beta_form(ph, om, 0)
    expected = 0.5 * wedge(om, om) + wedge(ph, conjugate(ph))
    assert np.allclose(b0.coeffs, expected.coeffs, atol=1e-15)
    b1 = beta_form(ph, om, 1)
    assert np.allclose(b1.coeffs, om.coeffs, atol=1e-15)
    b2 = beta_form(ph, om, 2)
    assert b2.bidegree == (0, 0)
    assert np.allclose(b2.coeffs, 1.0, atol=1e-15)


def test_volume_flat_and_constant_phi(grid2):
    st = flat_state(grid2)
    assert volume_V(grid2, st.omega, st.phi) == pytest.approx(1.0, abs=1e-13)
    st = constant_phi_state(grid2, 0.3 + 0.4j)
    # |c|^2 = 0.25 adds to the flat volume 1
    assert volume_V(grid2, st.omega, st.phi) == pytest.approx(1.25, abs=1e-13)


def test_volume_pairing_route_agreement(grid2, hs_state):
    direct = volume_V(grid2, hs_state.omega, hs_state.phi)
    paired = hs_pairing_volume(grid2, hs_state.omega, hs_state.phi, hs_state.metric)
    assert direct == pytest.approx(paired, rel=1e-10)
    st = constant_phi_state(grid2, 0.5)
    assert hs_pairing_volume(grid2, st.omega, st.phi) == pytest.approx(1.25, rel=1e-12)


# ----------------------------------------------------------------------
# coefficients
# ----------------------------------------------------------------------

def test_coefficient_a0_is_volume(grid2, hs_state):
    a0 = coefficient_a(grid2, hs_state.omega, hs_state.phi, 0)
    assert a0 == pytest.approx(volume_V(grid2, hs_state.omega, hs_state.phi), rel=1e-14)


def test_coefficient_a1_flat_vanishes(grid2):
    st = flat_state(grid2)
    assert abs(coefficient_a(grid2, st.omega, st.phi, 1)) < 1e-12


def test_coefficient_a2_vanishes_on_torus(grid2, hs_state):
    # the curvature form is exact here, so its self-pairing integrates to zero
    a2 = coefficient_a(grid2, hs_state.omega, hs_state.phi, 2)
    assert abs(a2) < 1e-12


def test_coefficient_index_range(grid2, hs_state):
    with pytest.raises(ValueError, match="0..2"):
        coefficient_a(grid2, hs_state.omega, hs_state.phi, 3)


# ----------------------------------------------------------------------
# P and Q functionals
# ----------------------------------------------------------------------

def constant_psi_11(n, payload, h=None):
    block = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]]) if h is None else h
    coeffs = (1j * block).reshape((n, n) + (1,) * len(payload))
    return Form(n, 1, 1, np.broadcast_to(coeffs, (n, n) + tuple(payload)).copy())


def test_functional_q_with_unit_test_form(grid2, hs_state):
    one = Form.constant_one(2)
    q = functional_Q(grid2, hs_state.phi, hs_state.omega, 0, one)
    assert q == pytest.approx(volume_V(grid2, hs_state.omega, hs_state.phi), rel=1e-14)


def test_functional_q_decomposes_into_p(grid2, hs_state):
    om, ph = hs_state.omega, hs_state.phi
    psi = constant_psi_11(2, grid2.shape)
    total = functional_Q(grid2, ph, om, 1, psi)
    parts = sum(
        functional_P(grid2, ph, om, k, 1, psi)
        / (math.factorial(k) ** 2 * math.factorial(2 - 2 * k - 1))
        for k in range(1)
    )
    assert total == pytest.approx(parts, rel=1e-12)


def test_functional_validation(grid2, hs_state):
    om, ph = hs_state.omega, hs_state.phi
    with pytest.raises(ValueError, match="degree"):
        functional_Q(grid2, ph, om, 1, Form.constant_one(2))
    # not real: a complex multiple of a real form
    psi = 1j * constant_psi_11(2, grid2.shape)
    with pytest.raises(ValueError, match="not real"):
        functional_Q(grid2, ph, om, 1, psi)
    # real but not closed: a band-limited Hermitian coefficient field
    rng = np.random.default_rng(3)
    bump = Form.zeros(2, 1, 1, grid2.shape)
    bump.coeffs[0, 0] = 1j * random_band_limited(grid2, rng, 1)
    bump.coeffs[1, 1] = 1j * random_band_limited(grid2, rng, 1)
    with pytest.raises(ValueError, match="closed"):
        functional_Q(grid2, ph, om, 1, bump)


@pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "point"])
def test_functional_validation_rejects_a_nan_test_form(grid2, hs_state, on_grid):
    # a real, closed test form with one NaN entry is neither real nor closed
    psi = constant_psi_11(2, grid2.shape if on_grid else ())
    psi.coeffs[(0, 1) + (3,) * len(psi.payload)] = np.nan
    with pytest.raises(ValueError, match="not real"):
        functional_Q(grid2, hs_state.phi, hs_state.omega, 1, psi)


# ----------------------------------------------------------------------
# pluriclosedness of beta
# ----------------------------------------------------------------------

def test_beta_pluriclosed_on_coupled_state(grid2, hs_state):
    assert check_beta_pluriclosed(grid2, hs_state.omega, hs_state.phi, 0) == 0.0
    assert check_beta_pluriclosed(grid2, hs_state.omega, hs_state.phi, 1) < 1e-10


def count_calls(monkeypatch, module, name):
    """Route module.name through a wrapper that logs one entry per call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_beta0_check_builds_no_wedge(grid2, hs_state, monkeypatch):
    # d dbar of the (n,n)-form beta[0] has no components: 0.0 with no
    # product built, where building beta[0] itself takes wedges
    inner = count_calls(monkeypatch, forms_mod, "wedge")
    outer = count_calls(monkeypatch, volume_mod, "wedge")
    assert check_beta_pluriclosed(grid2, hs_state.omega, hs_state.phi, 0) == 0.0
    assert inner == outer == []
    beta_form(hs_state.phi, hs_state.omega, 0)
    assert inner or outer


def test_beta_pluriclosed_n3_mixes_phi():
    grid = TorusGrid(3, 8)
    st = make_initial_hs(grid, epsilon=0.05, seed=11, mode_cutoff=1)
    for s in (1, 2):
        assert check_beta_pluriclosed(grid, st.omega, st.phi, s) < 1e-10


def test_beta_pluriclosed_broken_control(grid2, hs_state):
    rng = np.random.default_rng(5)
    bad = Form.zeros(2, 1, 1, grid2.shape)
    bad.coeffs[0, 1] = 5e-3 * random_band_limited(grid2, rng, 2)
    bad = bad + conjugate(bad)
    broken = hs_state.omega + bad
    assert check_beta_pluriclosed(grid2, broken, hs_state.phi, 1) > 1e-3


# ----------------------------------------------------------------------
# trajectory identities
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_trajectory(grid2):
    state = make_initial_hs(grid2, epsilon=0.05, seed=42, mode_cutoff=1)
    config = FlowConfig(dt=2e-4, steps=60, sample_every=3, collect_states=True)
    return run_flow(grid2, state, config)


def test_derivative_identities_on_short_run(grid2, short_trajectory):
    report = check_derivative_identities(grid2, short_trajectory.states)
    assert report["volume_rate"]["max_rel_error"] < 1e-5
    assert report["pairing_rate"]["max_rel_error"] < 5e-4
    assert report["p_rate"]["max_rel_error"] < 5e-4
    # the cutoff-1 initial data is slow enough for every sample to resolve
    assert all(report[key]["unresolved"] == 0 for key in report)


def test_derivative_identities_preconditions(grid2, short_trajectory):
    with pytest.raises(ValueError, match="at least 7"):
        check_derivative_identities(grid2, short_trajectory.states[:6])
    uneven = [short_trajectory.states[i] for i in (0, 1, 2, 3, 4, 5, 7)]
    with pytest.raises(ValueError, match="evenly spaced"):
        check_derivative_identities(grid2, uneven)
    with pytest.raises(ValueError, match="resolution_guard"):
        check_derivative_identities(grid2, short_trajectory.states,
                                    resolution_guard=0.0)


def test_derivative_identities_keep_a_nan_error(grid2, short_trajectory, monkeypatch):
    # a NaN curvature form at the second interior sample: its volume_rate
    # error is NaN, and so is the maximum, though a finite error comes first
    calls = []
    real = volume_mod.chern_form

    def chern(grid, metric):
        calls.append(None)
        form = real(grid, metric)
        return form * np.nan if len(calls) == 2 else form

    monkeypatch.setattr(volume_mod, "chern_form", chern)
    report = check_derivative_identities(grid2, short_trajectory.states)
    errors = report["volume_rate"]["rel_errors"]
    assert math.isfinite(errors[0]) and math.isnan(errors[1])
    assert math.isnan(report["volume_rate"]["max_rel_error"])
    assert math.isnan(report["p_rate"]["max_rel_error"])
    assert report["pairing_rate"]["max_rel_error"] < 5e-4


def test_kahler_trajectory_identities_are_trivial(grid2):
    """With phi = 0 every monitored rate vanishes on both sides."""
    state = make_initial_kahler(grid2, epsilon=0.05, seed=11, mode_cutoff=1)
    config = FlowConfig(dt=2e-4, steps=30, sample_every=3, collect_states=True)
    result = run_flow(grid2, state, config)
    report = check_derivative_identities(grid2, result.states)
    for key in ("volume_rate", "pairing_rate", "p_rate"):
        assert report[key]["max_rel_error"] < 1e-4, key


def test_derivative_identities_catch_mangled_time(grid2, short_trajectory):
    """The guard must not hide genuine violations: break the time axis only.

    Doubling every timestamp halves each finite-difference derivative but
    leaves the integral formulas untouched, so every identity with a nonzero
    formula side has to blow past its tolerance on resolved samples (the
    5-point/3-point agreement is unaffected by a uniform time rescale).
    """
    stretched = [st._replace(t=2.0 * st.t) for st in short_trajectory.states]
    report = check_derivative_identities(grid2, stretched)
    assert report["pairing_rate"]["max_rel_error"] > 0.3
    assert report["p_rate"]["max_rel_error"] > 0.3
    assert all(report[key]["unresolved"] == 0 for key in report)


@pytest.mark.parametrize("n, points, cutoff", [(2, 8, 2), (3, 4, 1)], ids=["n2", "n3"])
def test_samples_carry_their_records_v_and_f_bitwise(n, points, cutoff):
    # the record's V and F are the measurements the identity pass used to
    # make again from the sample's forms and the metric rebuilt from omega
    grid = TorusGrid(n, points)
    state = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=cutoff)
    result = run_flow(grid, state, FlowConfig(dt=1e-4, steps=4, sample_every=2,
                                              collect_states=True))
    assert len(result.states) == len(result.records) == 3
    for st, rec in zip(result.states, result.records):
        metric = metric_of_form(st.omega)
        assert st.t == rec["t"] and st.V == rec["V"] and st.F == rec["F"]
        assert st.V == volume_V(grid, st.omega, st.phi)
        assert st.F == global_inner_product(grid, st.phi, st.phi, metric).real


def test_derivative_identities_read_v_and_f_from_the_samples(grid2, short_trajectory):
    # negative controls: a V series with an extra rate of 1e-3 fails
    # volume_rate, and an F series off by 1% fails pairing_rate, though the
    # forms of every sample are unchanged
    states = short_trajectory.states
    shifted = [st._replace(V=st.V + 1e-3 * st.t) for st in states]
    report = check_derivative_identities(grid2, shifted)
    assert report["volume_rate"]["max_rel_error"] > 0.1
    assert report["pairing_rate"]["max_rel_error"] < 5e-4
    scaled = [st._replace(F=1.01 * st.F) for st in states]
    report = check_derivative_identities(grid2, scaled)
    assert report["pairing_rate"]["max_rel_error"] > 5e-3
    assert report["volume_rate"]["max_rel_error"] < 1e-5


def test_derivative_identities_build_metrics_at_interior_samples_only(
        grid2, short_trajectory, monkeypatch):
    states = short_trajectory.states
    volumes = count_calls(monkeypatch, volume_mod, "volume_V")
    metrics = []
    real = forms_mod.HermitianMetric.from_matrix

    def build(cls, g):
        metrics.append(None)
        return real(g)

    monkeypatch.setattr(forms_mod.HermitianMetric, "from_matrix", classmethod(build))
    check_derivative_identities(grid2, states)
    assert volumes == []
    assert len(metrics) == len(states) - 4


def test_derivative_identities_build_each_samples_forms_once(
        grid2, short_trajectory, count_fields):
    # band fields per build at n=2: omega 2 (its Hermitian block), phi 1,
    # and the curvature form of an interior sample 4.  The pass builds omega
    # at every sample and phi and the curvature form at the interior ones
    states = short_trajectory.states
    metric = metric_of_form(states[0].omega)
    fields = count_fields("from_band")
    states[0].omega
    omega_fields = sum(fields)
    fields.clear()
    states[0].phi
    phi_fields = sum(fields)
    fields.clear()
    chern_form(grid2, metric)
    chern_fields = sum(fields)
    assert (omega_fields, phi_fields, chern_fields) == (2, 1, 4)
    fields.clear()
    check_derivative_identities(grid2, states)
    interior = len(states) - 4
    assert sum(fields) == (len(states) * omega_fields
                           + interior * (phi_fields + chern_fields))


def test_p_rate_identity_on_short_run(grid2, short_trajectory):
    """d/dt of the squared-volume functional against its torsion + curvature terms."""
    states = short_trajectory.states
    one = Form.constant_one(2)
    ps = np.array([functional_P(grid2, st.phi, st.omega, 0, 0, one) for st in states])
    h = states[1].t - states[0].t
    rhs_vals, fd_vals = [], []
    for i in range(2, len(states) - 2):
        st = states[i]
        m = metric_of_form(st.omega)
        tors = codifferential_dbar(grid2, st.omega, m)
        b = integrate(grid2, wedge(tors, grid2.dbar_form(st.omega)))
        curv = integrate(grid2, wedge(st.omega, chern_form(grid2, m)))
        rhs_vals.append(2.0 * 2.0 * b.real + 2.0 * curv.real)
        fd_vals.append(
            (-ps[i + 2] + 8 * ps[i + 1] - 8 * ps[i - 1] + ps[i - 2]) / (12 * h)
        )
    scale = max(abs(v) for v in rhs_vals)
    worst = max(abs(f - r) for f, r in zip(fd_vals, rhs_vals))
    assert worst < 2e-4 * scale


# ----------------------------------------------------------------------
# polynomial fitting
# ----------------------------------------------------------------------

def test_fit_recovers_exact_quadratic():
    ts = np.linspace(0.0, 0.2, 24)
    coeffs = np.array([1.2, -0.7, 0.05])
    vs = coeffs[0] + coeffs[1] * ts + coeffs[2] * ts ** 2
    poly, residual = fit_polynomial(ts, vs, 2)
    assert residual < 1e-12
    assert np.allclose(poly.coeffs, coeffs, atol=1e-10)
    assert poly.provenance == ("fitted", "fitted", "fitted")
    assert poly(0.0) == pytest.approx(1.2)


def test_fit_matches_vandermonde_oracle():
    rng = np.random.default_rng(19)
    ts = np.linspace(0.0, 1.0, 40)
    vs = 0.8 - 0.3 * ts + 0.01 * ts ** 2 + 1e-8 * rng.standard_normal(40)
    poly, _ = fit_polynomial(ts, vs, 2)
    assert np.allclose(poly.coeffs, poly_fit_oracle(ts, vs, 2), atol=1e-9)


def test_fit_preconditions():
    ts = np.linspace(0.0, 1.0, 5)
    vs = np.ones(5)
    with pytest.raises(ValueError, match="at least 6"):
        fit_polynomial(ts, vs, 2)
    with pytest.raises(ValueError, match="degenerate"):
        fit_polynomial(np.zeros(8), np.ones(8), 2)
    with pytest.raises(ValueError, match="matching"):
        fit_polynomial(np.linspace(0, 1, 8), np.ones(7), 2)


def test_fit_reports_noise_residual():
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 1.0, 200)
    clean = 2.0 - 0.5 * ts
    noisy = clean + 1e-3 * rng.standard_normal(200)
    _, residual = fit_polynomial(ts, noisy, 2)
    assert 1e-4 < residual < 1e-2


# ----------------------------------------------------------------------
# obstruction classifier
# ----------------------------------------------------------------------

def test_obstruction_table_rows():
    # linear, nonnegative slope: no positive root
    assert not surface_obstruction(1.0, 0.5, 0.0).obstructed
    assert not surface_obstruction(1.0, 0.0, 0.0).obstructed
    # linear, negative slope: root at -a0/a1
    v = surface_obstruction(1.0, -1.0, 0.0)
    assert v.obstructed and v.min_positive_root == pytest.approx(1.0)
    # positive quadratic, nonnegative slope: none
    assert not surface_obstruction(1.0, 0.3, 0.2).obstructed
    # positive quadratic, negative slope, negative discriminant: none
    assert not surface_obstruction(1.0, -0.5, 1.0).obstructed
    # positive quadratic, negative slope, nonnegative discriminant: first root
    v = surface_obstruction(1.0, -3.0, 2.0)
    assert v.obstructed and v.min_positive_root == pytest.approx(0.5)
    # grazing double root still counts
    v = surface_obstruction(1.0, -2.0, 1.0)
    assert v.obstructed and v.min_positive_root == pytest.approx(1.0)
    # concave quadratic: always obstructed, either slope sign
    v = surface_obstruction(1.0, 0.0, -4.0)
    assert v.obstructed and v.min_positive_root == pytest.approx(0.5)
    v = surface_obstruction(2.0, 5.0, -1.0)
    assert v.obstructed and v.min_positive_root == pytest.approx(
        (5.0 + math.sqrt(33.0)) / 2.0
    )


def test_obstruction_rejects_bad_a0():
    with pytest.raises(ValueError, match="positive"):
        surface_obstruction(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        surface_obstruction(-2.0, 1.0, 1.0)


def test_obstruction_agrees_with_scan_oracle():
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 1000:
        a0 = float(rng.uniform(0.1, 10.0))
        family = checked % 5
        if family == 0:
            a1, a2 = float(rng.uniform(-3, 3)), 0.0
        elif family == 1:
            a1, a2 = float(rng.uniform(-3, 3)), float(rng.uniform(0.01, 3))
        elif family == 2:
            a1, a2 = float(rng.uniform(-3, 3)), float(rng.uniform(-3, -0.01))
        elif family == 3:
            # near-critical discriminant cases
            a2 = float(rng.uniform(0.01, 3))
            a1 = -2.0 * math.sqrt(a2 * a0) * (1.0 + float(rng.uniform(-0.05, 0.05)))
        else:
            a1, a2 = 0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 3))
        verdict = surface_obstruction(a0, a1, a2)
        assert verdict.obstructed == oracle_obstructed(a0, a1, a2), (a0, a1, a2)
        if verdict.min_positive_root is not None:
            val = a0 + a1 * verdict.min_positive_root + a2 * verdict.min_positive_root ** 2
            assert abs(val) < 1e-9 * max(abs(a0), abs(a1), abs(a2))
        checked += 1


def test_ruled_presets():
    assert ruled_a2(0) == 4.0
    assert ruled_a2(1) == 0.0
    assert ruled_a2(2) == -4.0
    v = surface_obstruction(1.0, 0.0, ruled_a2(2))
    assert v.obstructed and v.min_positive_root == pytest.approx(0.5)
