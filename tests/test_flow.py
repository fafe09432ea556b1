"""Tests for right-hand sides, the RK4 stepper, initial data, and run_flow."""

import platform
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from plurisym.calculus import (
    TorusGrid,
    chern_form,
    codifferential_dbar,
    codifferential_del,
    global_inner_product,
    random_band_limited,
    residual_norms,
)
from plurisym.errors import ConfigError, ConstraintViolationError, PositivityLostError
import plurisym.flow as flow_mod
import plurisym.forms as forms_mod
from plurisym.flow import (
    FlowConfig,
    FlowState,
    diagnostics_record,
    make_initial_hs,
    make_initial_kahler,
    parabolic_dt_bound,
    phi_rhs,
    pluriclosed_rhs,
    run_flow,
    step_rk4,
)
from plurisym.forms import Form, conjugate, flat_metric, fundamental_form, metric_of_form
from plurisym.volume import volume_V

from oracles import (
    FullBlockMetric,
    oracle_band_conjugate,
    oracle_ddbar_band,
    oracle_hermitian_from_band,
    oracle_stage_rate,
)


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(2, 8)


@pytest.fixture(scope="module")
def hs_state(grid):
    return make_initial_hs(grid, epsilon=0.05, seed=42, mode_cutoff=1)


def flat_state(grid):
    omega = fundamental_form(flat_metric(grid.n, grid.shape))
    phi = Form.zeros(grid.n, 2, 0, grid.shape)
    return FlowState.make(grid, 0.0, omega, phi)


def flat_l2(f):
    if f.coeffs.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(f.flat_norm_sq())))


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------

def test_flat_is_a_fixed_point(grid):
    st = flat_state(grid)
    assert flat_l2(pluriclosed_rhs(grid, st.omega, st.metric)) < 1e-12
    assert flat_l2(phi_rhs(grid, st.phi, metric=st.metric)) < 1e-14
    out = run_flow(grid, st, FlowConfig(dt=1e-3, steps=10, sample_every=5))
    assert flat_l2(out.final.omega - st.omega) < 1e-12
    for rec in out.records:
        assert rec["V"] == pytest.approx(1.0, abs=1e-12)
        assert rec["min_eig_margin"] == pytest.approx(1.0, abs=1e-12)


def test_rhs_is_exactly_real(grid, hs_state):
    r = pluriclosed_rhs(grid, hs_state.omega, hs_state.metric)
    assert np.array_equal(conjugate(r).coeffs, r.coeffs)


def test_rhs_matches_naive_composition(grid, hs_state):
    om, m = hs_state.omega, hs_state.metric
    fast = pluriclosed_rhs(grid, om, m)
    slow = (
        grid.del_form(codifferential_del(grid, om, m))
        + grid.dbar_form(codifferential_dbar(grid, om, m))
        + chern_form(grid, m)
    )
    slow = grid.truncate(slow)
    assert flat_l2(fast - slow) < 1e-10 * flat_l2(fast)


def test_kahler_rhs_reduces_to_curvature_form(grid):
    st = make_initial_kahler(grid, epsilon=0.05, seed=9, mode_cutoff=1)
    # closed omega kills the codifferential part of the velocity
    torsion = codifferential_dbar(grid, st.omega, st.metric)
    assert flat_l2(torsion) < 1e-10
    r = pluriclosed_rhs(grid, st.omega, st.metric)
    c = grid.truncate(chern_form(grid, st.metric))
    assert flat_l2(r - c) < 1e-9


def test_phi_rhs_crosscheck_under_constraint(grid, hs_state):
    # with the constraint holding, the phi velocity equals d of the
    # dbar-codifferential of omega
    direct = phi_rhs(grid, hs_state.phi, metric=hs_state.metric)
    alt = grid.truncate(
        grid.del_form(codifferential_dbar(grid, hs_state.omega, hs_state.metric))
    )
    assert flat_l2(direct - alt) < 1e-9


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def test_rk4_local_order(grid, hs_state):
    dt = 1e-3
    one = step_rk4(grid, hs_state, dt)
    half = step_rk4(grid, step_rk4(grid, hs_state, dt / 2), dt / 2)
    quarter = hs_state
    for _ in range(4):
        quarter = step_rk4(grid, quarter, dt / 4)
    d_coarse = flat_l2(one.omega - half.omega) + flat_l2(one.phi - half.phi)
    d_fine = flat_l2(half.omega - quarter.omega) + flat_l2(half.phi - quarter.phi)
    ratio = d_coarse / d_fine
    # same window, halved step: Richardson defects of a fourth-order method shrink by 2^4
    assert 11.0 < ratio < 23.0


def test_step_preserves_reality_and_hermiticity(grid, hs_state):
    st = step_rk4(grid, hs_state, 5e-4)
    assert np.array_equal(conjugate(st.omega).coeffs, st.omega.coeffs)
    g = st.metric.g
    assert np.array_equal(g, np.conj(np.swapaxes(g, 0, 1)))
    assert 0.0 < st.metric.margin <= st.metric.max_eig


def test_step_rejects_nonpositive_dt(grid, hs_state):
    with pytest.raises(ValueError, match="positive"):
        step_rk4(grid, hs_state, 0.0)


def test_make_refuses_out_of_band_content(grid, hs_state):
    # a bump beyond the dealias band (cutoff 2 on N=8) is refused on either
    # form; the same omega projected onto the band is accepted
    x = grid.coordinates()[0]
    wave = np.cos(2 * np.pi * 3 * x)
    bump = Form.zeros(2, 1, 1, grid.shape)
    bump.coeffs[0, 0] = 0.02j * wave
    omega = hs_state.omega + bump
    msg = "{} has Fourier content outside the resolved band |k| <= 2"
    with pytest.raises(ValueError, match=re.escape(msg.format("omega"))):
        FlowState.make(grid, 0.0, omega, hs_state.phi)
    phi = Form(2, 2, 0, hs_state.phi.coeffs + 0.02 * wave)
    with pytest.raises(ValueError, match=re.escape(msg.format("phi"))):
        FlowState.make(grid, 0.0, hs_state.omega, phi)
    st = FlowState.make(grid, 0.0, grid.truncate(omega), hs_state.phi)
    assert 0.0 < st.metric.margin < 1.0


@pytest.mark.parametrize("made", ["flat", "hs"])
def test_make_projects_its_forms_and_holds_one_metric(grid, hs_state, made, monkeypatch):
    # a made state is the band state of the given forms: its forms are their
    # band projections, within the out-of-band tolerance of the given ones,
    # and it holds the one metric of its band stage
    given = flat_state(grid) if made == "flat" else hs_state
    omega, phi = given.omega, given.phi
    metrics = []
    real = forms_mod.HermitianMetric.from_half

    def build(cls, diag, upper):
        metrics.append(real(diag, upper))
        return metrics[-1]

    # from_matrix, which metric_of_form calls, builds from the half as well
    monkeypatch.setattr(forms_mod.HermitianMetric, "from_half", classmethod(build))
    st = FlowState.make(grid, 0.0, omega, phi)
    # metric_of_form validates the given omega, then the band stage builds its own
    assert len(metrics) == 2 and st.metric is metrics[-1]
    assert [key for key, value in vars(st).items()
            if isinstance(value, forms_mod.HermitianMetric)] == ["metric"]
    assert st.omega is not omega and st.phi is not phi
    for mine, theirs in ((st.omega, omega), (st.phi, phi)):
        assert np.max(np.abs(mine.coeffs - theirs.coeffs)) <= 1e-12 * np.max(np.abs(theirs.coeffs))
    assert np.array_equal(st.omega.coeffs, 1j * st.metric.g)
    assert np.array_equal(st.metric.g, metric_of_form(st.omega).g)


# ----------------------------------------------------------------------
# initial data
# ----------------------------------------------------------------------

def test_initial_hs_is_deterministic_and_closed(grid):
    a = make_initial_hs(grid, epsilon=0.05, seed=42, mode_cutoff=1)
    b = make_initial_hs(grid, epsilon=0.05, seed=42, mode_cutoff=1)
    assert np.array_equal(a.omega.coeffs, b.omega.coeffs)
    assert np.array_equal(a.phi.coeffs, b.phi.coeffs)
    c = make_initial_hs(grid, epsilon=0.05, seed=43, mode_cutoff=1)
    assert not np.array_equal(a.omega.coeffs, c.omega.coeffs)
    res = residual_norms(grid, a.omega, a.phi)
    assert res["d_omega"] < 1e-12
    assert res["hs_constraint"] < 1e-12
    assert 0.0 < a.metric.margin < 1.0
    assert np.any(a.phi.coeffs)


def test_initial_hs_amplitude_and_flat_limit(grid):
    st = make_initial_hs(grid, epsilon=0.02, seed=42, mode_cutoff=1)
    flat = fundamental_form(flat_metric(2, grid.shape))
    pert = np.max(np.abs((st.omega - flat).coeffs))
    amp = max(pert, np.max(np.abs(st.phi.coeffs)))
    assert amp == pytest.approx(0.02, rel=1e-12)
    zero = make_initial_hs(grid, epsilon=0.0, seed=42)
    assert np.array_equal(zero.omega.coeffs, flat.coeffs)
    assert not np.any(zero.phi.coeffs)


def test_initial_hs_rejects_bad_epsilon(grid):
    for make in (make_initial_hs, make_initial_kahler):
        # the schema's range and message, for values on either side of it
        for epsilon in (-0.1, 5.0):
            msg = f"initial.epsilon must lie in [0.0, 0.999], got {epsilon}"
            with pytest.raises(ConfigError, match=re.escape(msg)):
                make(grid, epsilon=epsilon, seed=42, mode_cutoff=1)
        # an epsilon in range can still destroy positivity
        with pytest.raises(PositivityLostError):
            make(grid, epsilon=0.999, seed=42, mode_cutoff=1)


@pytest.mark.parametrize("make", [make_initial_hs, make_initial_kahler],
                         ids=["hs", "kahler"])
@pytest.mark.parametrize("cutoff", [0, 3, 9])
def test_initial_data_rejects_mode_cutoff_outside_the_band(grid, make, cutoff):
    # N=8: the dealias band is 8 // 3 = 2
    msg = f"initial.mode_cutoff must lie in [1, 2], got {cutoff}"
    with pytest.raises(ConfigError, match=re.escape(msg)):
        make(grid, epsilon=0.05, seed=42, mode_cutoff=cutoff)


def test_initial_kahler_shape(grid):
    st = make_initial_kahler(grid, epsilon=0.05, seed=4, mode_cutoff=1)
    assert not np.any(st.phi.coeffs)
    assert np.array_equal(conjugate(st.omega).coeffs, st.omega.coeffs)
    res = residual_norms(grid, st.omega, st.phi)
    assert res["d_omega"] < 1e-12


@pytest.mark.parametrize("points", [8, 12])
@pytest.mark.parametrize("make", [make_initial_hs, make_initial_kahler],
                         ids=["hs", "kahler"])
def test_initial_data_flat_limit_is_exact(make, points):
    # 12 is not a power of two: the k=0 coefficient must still give 1 exactly
    grid = TorusGrid(2, points)
    st = make(grid, epsilon=0.0, seed=42)
    assert np.array_equal(st.omega.coeffs, fundamental_form(flat_metric(2, grid.shape)).coeffs)
    assert not np.any(st.phi.coeffs)


BAND_NATIVE = [
    pytest.param(make, n, points, cutoff, id=f"{name}-n{n}")
    for make, name in ((make_initial_hs, "hs"), (make_initial_kahler, "kahler"))
    for n, points, cutoff in ((2, 8, 2), (3, 4, 1))
]


@pytest.mark.parametrize("make, n, points, cutoff", BAND_NATIVE)
def test_initial_data_start_on_the_band(count_fields, make, n, points, cutoff):
    grid = TorusGrid(n, points)
    calls = count_fields("fft", "ifft")
    st = make(grid, epsilon=0.05, seed=7, mode_cutoff=cutoff)
    step_rk4(grid, st, 1e-4)
    # neither the initial data nor the first step transforms the full grid
    assert calls == []
    omega_hat = st.omega_hat
    assert np.array_equal(omega_hat, grid.band_conjugate(omega_hat, 1, 1))


@pytest.mark.parametrize("make, n, points, cutoff", BAND_NATIVE)
def test_band_native_steps_match_the_remainder_route(make, n, points, cutoff):
    # a state made from the physical forms of band-native data steps like it
    grid = TorusGrid(n, points)
    native = make(grid, epsilon=0.05, seed=7, mode_cutoff=cutoff)
    made = FlowState.make(grid, 0.0, native.omega, native.phi)
    for _ in range(5):
        native, made = step_rk4(grid, native, 1e-3), step_rk4(grid, made, 1e-3)
    for a, b in ((native.omega, made.omega), (native.phi, made.phi)):
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * np.max(np.abs(a.coeffs))


@pytest.mark.parametrize("make, n, points, cutoff", BAND_NATIVE)
def test_band_fields_per_step(count_fields, make, n, points, cutoff):
    # scalar fields through to_band/from_band in one RK4 step, for band-native
    # initial data and for a state made from its forms; the stepped state's
    # phi waits for its first read
    grid = TorusGrid(n, points)
    native = make(grid, epsilon=0.05, seed=7, mode_cutoff=cutoff)
    made = FlowState.make(grid, 0.0, native.omega, native.phi)
    fields = count_fields("to_band", "from_band")
    for st in (native, made):
        fields.clear()
        step_rk4(grid, st, 1e-4)
        assert sum(fields) == {2: 44, 3: 120}[n]


def grid_fields(grid, nbytes):
    """``nbytes`` counted in complex full-grid scalar fields."""
    return nbytes / (16 * grid.points ** (2 * grid.n))


def test_step_peak_memory_above_the_live_state(traced_peak):
    # tracemalloc peak of one n=3 N=6 step over what was live before it, in
    # full-grid complex scalar fields.  Stages 2-4 that write their inverse
    # half over g's half measure 29.3; stages that kept det and one new
    # inverse half, and trace each (2,1) component through one scalar
    # buffer, measured 33.4; stages that kept the Hermitian half of g and
    # det, with del omega and then dbar phi in a (2,1) work field, 42.4,
    # stages that kept the full block g 46.9, stages that kept the inverse
    # 58.6, and stages holding del omega and dbar phi at once 68
    grid = TorusGrid(3, 6)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    out, peak = traced_peak(lambda: step_rk4(grid, st, 1e-4))
    assert out.t > 0.0
    assert grid_fields(grid, peak) < 31.5


def test_step_peak_memory_with_its_state_traced():
    # the absolute tracemalloc peak of one n=3 N=6 step, tracing from before
    # its state is built, so the state's metric counts until the step drops
    # it: 34.4 fields, against 43.4 while the state kept its metric through
    # the step
    grid = TorusGrid(3, 6)
    tracemalloc.start()
    try:
        st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
        tracemalloc.reset_peak()
        out = step_rk4(grid, st, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.t > 0.0 and "metric" not in vars(st)
    assert grid_fields(grid, peak) < 36.0


def test_record_peak_memory_above_the_live_state(traced_peak):
    # a record of an n=3 N=6 state walks V and F over blocks of points: it
    # builds phi (3 fields, dropped on return), two grid-sized point arrays
    # and block temporaries, and measures 14.0 fields; with the full block
    # g kept on the metric it measured 16.6, and with the state's omega,
    # full-grid wedge powers and the inverse 27
    grid = TorusGrid(3, 6)
    st = step_rk4(grid, make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1), 1e-4)
    rec, peak = traced_peak(lambda: diagnostics_record(grid, st))
    assert rec["V"] > 0.0
    assert "omega" not in vars(st) and "phi" not in vars(st) and "ginv" not in vars(st.metric)
    assert grid_fields(grid, peak) < 15.4


def test_record_margin_walks_its_minors_in_blocks(traced_peak):
    # the eigenvalue range an n=3 N=8 record reads for its margin: the
    # certified candidates' moduli and minors, walked over blocks of points,
    # peak at 0.41 fields; over the whole grid at once they built about 6
    # fields of temporaries (6.06)
    grid = TorusGrid(3, 8)
    st = step_rk4(grid, make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1), 1e-4)
    margin, peak = traced_peak(lambda: st.metric.margin)
    assert 0.0 < margin < 1.0
    assert grid_fields(grid, peak) < 1.0


@pytest.mark.parametrize("n, points", [(2, 8), (3, 4)])
def test_step_keeps_no_work_on_the_grid_or_the_stages(n, points, monkeypatch):
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    before = dict(vars(grid))
    # the state's metric, then each one the step builds, and their halves
    metrics, halves, rates = [weakref.ref(st.metric)], [], []
    released_diag, released_det = st.metric.diag, st.metric.det
    real_build, real_rate = forms_mod.HermitianMetric.from_half, flow_mod._stage_rate

    def build(cls, diag, upper):
        metric = real_build(diag, upper)
        metrics.append(weakref.ref(metric))
        halves.append((diag, upper))
        return metric

    def rate(grid_, omega_hat, phi_hat, inverse, det, buffer):
        # the stage metrics built so far are gone when a rate runs
        rates.append(([ref() is None for ref in metrics], omega_hat, phi_hat, inverse, det,
                      buffer))
        return real_rate(grid_, omega_hat, phi_hat, inverse, det, buffer)

    monkeypatch.setattr(forms_mod.HermitianMetric, "from_half", classmethod(build))
    monkeypatch.setattr(flow_mod, "_stage_rate", rate)
    out = step_rk4(grid, st, 1e-4)
    assert vars(grid).keys() == before.keys()
    assert all(vars(grid)[key] is value for key, value in before.items())
    # stages 2-4 build and check their metrics, and the last build is the
    # stepped state's; the state's own metric is gone when the first rate
    # runs, and each stage metric when the next rate runs
    assert len(rates) == 4 and len(metrics) == 5 and out.metric is metrics[-1]()
    assert [dead for dead, *_ in rates] == [[True], [True] * 2, [True] * 3, [True] * 4]
    # a rate reads band coefficients, one inverse half, det and the step's
    # one scalar buffer; the first stage's det is the state's, and its
    # inverse half a new array, while stages 2-4 invert g's half in place
    assert rates[0][4] is released_det
    assert not any(np.shares_memory(rates[0][3][0], diag)
                   for diag in [released_diag] + [half[0] for half in halves])
    assert all(inv is half for rate_, pair in zip(rates[1:], halves)
               for inv, half in zip(rate_[3], pair))
    for _, omega_hat, phi_hat, (inv_diag, inv_upper), det, buffer in rates:
        assert omega_hat.shape[2:] == phi_hat.shape[2:] == grid.band_shape
        assert inv_diag.dtype == det.dtype == np.float64 and inv_upper.dtype == np.complex128
        assert inv_diag.shape == (n,) + grid.shape
        assert inv_upper.shape == (n * (n - 1) // 2,) + grid.shape
        assert det.shape == grid.shape
        assert buffer is rates[0][5] and buffer.shape == grid.shape
    # the stepped state keeps only its band coefficients; neither state has
    # built its physical forms or an inverse
    assert list(vars(st)) == ["t", "omega_hat", "phi_hat", "grid"]
    assert list(vars(out)) == ["t", "omega_hat", "phi_hat", "grid", "metric"]
    for state in (st, out):
        assert list(vars(state.metric)) == ["n", "diag", "upper", "det"]


@pytest.mark.parametrize("n, points", [(2, 8), (3, 4)])
def test_a_state_whose_metric_was_released_steps_like_a_fresh_one(n, points):
    # the first step drops the state's metric; the second rebuilds it on
    # its first stage, and both steps give the same bits
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    first = step_rk4(grid, st, 1e-4)
    assert "metric" not in vars(st)
    second = step_rk4(grid, st, 1e-4)
    for name in ("omega_hat", "phi_hat"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    for name in ("diag", "upper", "det"):
        assert np.array_equal(getattr(first.metric, name), getattr(second.metric, name)), name


@pytest.mark.parametrize("n, points", [(2, 8), (3, 4)])
def test_step_sums_its_rates_as_the_whole_rk4_expression(n, points, monkeypatch):
    # the rates added up as each one returns give the bits of
    # w0 + dt/6 (k1 + 2 k2 + 2 k3 + k4) on copies of the four rates
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    rates, real_rate = [], flow_mod._stage_rate

    def rate(*args):
        out = real_rate(*args)
        rates.append([k.copy() for k in out])
        return out

    monkeypatch.setattr(flow_mod, "_stage_rate", rate)
    dt = 1e-4
    out = step_rk4(grid, st, dt)
    for name, start, (k1, k2, k3, k4) in zip(("omega_hat", "phi_hat"),
                                             (st.omega_hat, st.phi_hat), zip(*rates)):
        want = start + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(getattr(out, name), want), name


@pytest.mark.parametrize("n, points", [(2, 8), (3, 4)])
def test_a_released_metric_is_rebuilt_bitwise_on_its_next_read(n, points):
    # a metric held across the step stays the state's metric, and the
    # state's next read rebuilds a new metric with its bits
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    released = st.metric
    held = [getattr(released, name).copy() for name in ("diag", "upper", "det")]
    step_rk4(grid, st, 1e-4)
    rebuilt = st.metric
    assert rebuilt is not released and vars(st)["metric"] is rebuilt
    for name, want in zip(("diag", "upper", "det"), held):
        assert np.array_equal(getattr(released, name), want), name
        assert np.array_equal(getattr(rebuilt, name), want), name


@pytest.mark.parametrize("n, points", [(2, 8), (2, 17), (3, 4), (3, 6)])
def test_step_work_array_matches_fresh_stage_fields_bitwise(n, points, monkeypatch):
    # rates that trace each (2,1) component through one scalar buffer with
    # one inverse half per stage step the flow as rates that transform del
    # omega and dbar phi into new arrays and build the inverse per block
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    mine = step_rk4(grid, st, 1e-4)
    monkeypatch.setattr(flow_mod, "_stage_rate", oracle_stage_rate)
    theirs = step_rk4(grid, st, 1e-4)
    for name in ("omega_hat", "phi_hat"):
        assert np.array_equal(getattr(mine, name), getattr(theirs, name)), name
    for name in ("diag", "upper", "det"):
        assert np.array_equal(getattr(mine.metric, name), getattr(theirs.metric, name)), name


@pytest.mark.parametrize("n, points", [(2, 8), (3, 4)])
def test_step_writes_its_2_1_fields_into_one_work_array(n, points, monkeypatch):
    # every component of del omega and dbar phi of the four stages is
    # transformed into one scalar grid buffer: 2 x 4 x C(n,2) n transforms,
    # 16 at n=2 and 72 at n=3, and no (2,1) array of band coefficients is
    # transformed as a whole
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    lead = Form.zeros(n, 2, 1).coeffs.shape
    hats, outs, whole = [], [], []
    real_derivative, real_from_band = TorusGrid.derivative_hat, TorusGrid.from_band

    def derivative_hat(self, chat, p, q, anti):
        out = real_derivative(self, chat, p, q, anti)
        if (p, q, anti) in ((1, 1, False), (2, 0, True)):
            hats.append(out)
        return out

    def from_band(self, band, out=None):
        if band.shape[:band.ndim - 2 * n] == lead:
            whole.append(band)
        if any(np.shares_memory(band, hat) for hat in hats):
            outs.append(out)
        return real_from_band(self, band, out)

    monkeypatch.setattr(TorusGrid, "derivative_hat", derivative_hat)
    monkeypatch.setattr(TorusGrid, "from_band", from_band)
    step_rk4(grid, st, 1e-4)
    assert len(hats) == 8 and whole == []
    assert len(outs) == {2: 16, 3: 72}[n] == 8 * lead[0] * lead[1]
    assert outs[0] is not None and all(out is outs[0] for out in outs)
    assert outs[0].shape == grid.shape and outs[0].dtype == np.complex128


@pytest.mark.parametrize("stage", [2, 3, 4])
@pytest.mark.parametrize("n, points", [(2, 8), (3, 4)])
def test_an_indefinite_stage_metric_stops_the_step(n, points, stage, monkeypatch):
    # negative control of the stage guard: an indefinite point injected into
    # the metric of stage 2, 3 or 4 raises with its eigenvalue as the margin
    # before that stage's rate runs
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    halves, rates = [], []
    real_half, real_rate = flow_mod._metric_half, flow_mod._stage_rate

    def metric_half(grid_, omega_hat):
        diag, upper = real_half(grid_, omega_hat)
        halves.append(diag)
        if len(halves) == stage - 1:
            point = (slice(None),) + (1,) * (2 * n)
            diag[point] = [1.0] * (n - 1) + [-0.5]
            upper[point] = 0.0
        return diag, upper

    def rate(*args):
        rates.append(args)
        return real_rate(*args)

    monkeypatch.setattr(flow_mod, "_metric_half", metric_half)
    monkeypatch.setattr(flow_mod, "_stage_rate", rate)
    with pytest.raises(PositivityLostError) as info:
        step_rk4(grid, st, 1e-4)
    assert len(halves) == len(rates) == stage - 1
    margin = info.value.margin
    assert np.isfinite(margin) and margin < 0.0
    assert margin == pytest.approx(-0.5)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_a_step_maps_no_fresh_2_1_field_per_stage(minor_faults):
    # an n=3 N=8 (2,1)-field is 36 MiB, above the 32 MiB mmap threshold the
    # CLI fixes, so each one a step allocates is mapped and faulted in
    # afresh.  Rates that transformed del omega and dbar phi into new arrays
    # faulted 8 such fields per step (298 pages with numpy's huge pages,
    # 73 793 without), one work array per step 1 (40 and 9 232), and rates
    # that trace them one component at a time through one scalar buffer
    # build none (2 pages with huge pages); one fresh field faults 19 and
    # 9 217.  The first step is left out: it grows the heap
    setup = ("import numpy as np\n"
             "from plurisym.calculus import TorusGrid\n"
             "from plurisym.flow import make_initial_hs, step_rk4\n"
             "grid = TorusGrid(3, 8)\n"
             "st = make_initial_hs(grid)")
    step = "st = step_rk4(grid, st, 1e-4)"
    field, _, second = minor_faults(setup, "np.ones((3, 3) + grid.shape, dtype=complex)",
                                    step, step)
    assert second < 4 * field


@pytest.mark.parametrize("n, points, cutoff", [(2, 8, 2), (2, 16, 2), (3, 4, 1), (3, 6, 2)])
def test_steps_match_the_band_table_route_bytewise(n, points, cutoff, monkeypatch):
    # conjugation by per-axis flips and the curvature multiplier built where
    # it is used step the flow as the flat band index and the stored table did
    grid = TorusGrid(n, points)
    start = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=cutoff)

    def three_steps():
        st = start
        for _ in range(3):
            st = step_rk4(grid, st, 1e-4)
        return st

    mine = three_steps()
    table = oracle_ddbar_band(grid)
    monkeypatch.setattr(TorusGrid, "band_conjugate", oracle_band_conjugate)
    monkeypatch.setattr(TorusGrid, "ddbar_hat", lambda self, u_hat: table * u_hat)
    theirs = three_steps()
    for name in ("omega_hat", "phi_hat"):
        assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes(), name
    assert mine.metric.g.tobytes() == theirs.metric.g.tobytes()


@pytest.mark.parametrize("block", [4096, None], ids=["block4096", "default"])
@pytest.mark.parametrize("n, points", [(3, 6), (2, 17)])
def test_record_v_and_f_match_the_whole_grid_routes_bitwise(n, points, block, monkeypatch):
    # V and F walked over blocks of points, remainder block included, against
    # volume_V on the state's forms and global_inner_product on its metric
    if block:
        monkeypatch.setattr(forms_mod, "_BLOCK", block)
    grid = TorusGrid(n, points)
    st = step_rk4(grid, make_initial_hs(grid, epsilon=0.05, seed=7), 1e-4)
    rec = diagnostics_record(grid, st)
    assert "omega" not in vars(st)
    assert rec["V"] == volume_V(grid, st.omega, st.phi)
    assert rec["F"] == global_inner_product(grid, st.phi, st.phi, st.metric).real


@pytest.mark.parametrize("n, points", [(2, 17), (3, 6), (3, 4)])
def test_stage_half_matches_the_full_block_bitwise(n, points):
    # a stepped state's metric, its record's V and F, and the state's omega
    # against the full block the stages built before metrics kept halves;
    # 83 521 and 46 656 points cross _BLOCK
    grid = TorusGrid(n, points)
    st = step_rk4(grid, make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1), 1e-4)
    ref = FullBlockMetric(oracle_hermitian_from_band(grid, -1j * st.omega_hat))
    assert np.array_equal(st.metric.g, ref.g)
    assert np.array_equal(st.metric.det, ref.det)
    assert np.array_equal(st.metric.ginv, ref.ginv)
    assert (st.metric.margin, st.metric.max_eig) == ref.eig_range
    V, F = flow_mod._volume_and_pairing(grid, st)
    assert V == volume_V(grid, Form(n, 1, 1, 1j * ref.g), st.phi)
    assert F == global_inner_product(grid, st.phi, st.phi, ref).real
    assert np.array_equal(st.omega.coeffs, 1j * ref.g)


def live_bytes(fn):
    """(fn(), the bytes its result keeps live, by tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, points", [(2, 8), (3, 6)])
def test_stage_metric_keeps_its_hermitian_half_and_det(n, points):
    # a stage metric keeps n/2 + n(n-1)/2 complex grid fields of its half
    # (2 at n=2, 4.5 at n=3, against n^2 for the full block) and half a
    # field of det, and next to nothing else
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    metric, live = live_bytes(
        lambda: flow_mod._band_stage(grid, 0.0, st.omega_hat, st.phi_hat).metric)
    assert list(vars(metric)) == ["n", "diag", "upper", "det"]
    field = 16 * points ** (2 * n)
    want = (n / 2 + n * (n - 1) / 2 + 0.5) * field
    assert want <= live < want + 4096


@pytest.mark.parametrize("n, points", [(2, 8), (3, 4)])
def test_physical_forms_are_built_on_first_read_only(n, points):
    # of two steps only the second is recorded: neither state builds omega
    # or phi until they are read (V and F read the metric's half and a phi
    # of their own); both are the expressions the stepper built for every
    # state before, bit for bit
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    assert "omega" not in vars(st) and "phi" not in vars(st)
    unread = step_rk4(grid, st, 1e-4)
    read = step_rk4(grid, unread, 1e-4)
    diagnostics_record(grid, read)
    assert "omega" not in vars(unread) and "phi" not in vars(unread)
    assert "omega" not in vars(read) and "phi" not in vars(read)
    assert read.phi is vars(read)["phi"] and read.omega is vars(read)["omega"]
    assert np.array_equal(read.omega.coeffs, 1j * read.metric.g)
    assert np.array_equal(read.phi.coeffs, grid.from_band(read.phi_hat))
    assert read.omega.bidegree == (1, 1) and read.phi.bidegree == (2, 0)


def test_flow_state_validates(grid):
    with pytest.raises(ValueError, match=r"\(1,1\)"):
        FlowState.make(grid, 0.0, Form.zeros(2, 2, 0, grid.shape),
                       Form.zeros(2, 2, 0, grid.shape))
    omega = fundamental_form(flat_metric(2, grid.shape))
    with pytest.raises(ValueError, match=r"\(2,0\)"):
        FlowState.make(grid, 0.0, omega, Form.zeros(2, 1, 1, grid.shape))
    with pytest.raises(ValueError, match="payload"):
        FlowState.make(grid, 0.0, fundamental_form(flat_metric(2)), Form.zeros(2, 2, 0))


# ----------------------------------------------------------------------
# run_flow
# ----------------------------------------------------------------------

def test_short_run_preserves_structure(grid, hs_state):
    config = FlowConfig(dt=2e-4, steps=40, sample_every=5, collect_states=True)
    out = run_flow(grid, hs_state, config)
    assert len(out.records) == 9
    assert len(out.states) == 9
    ts = [rec["t"] for rec in out.records]
    assert np.allclose(np.diff(ts), 5 * 2e-4, atol=1e-15)
    for rec in out.records:
        assert rec["d_omega_residual"] < 1e-10
        assert rec["hs_constraint_residual"] < 1e-10
        assert rec["del_phi_residual"] < 1e-12
        assert rec["pluriclosed_residual"] < 1e-10
        assert 0.0 < rec["min_eig_margin"] < 1.0
        assert rec["V"] > 0.0
        assert rec["F"] >= 0.0
    fs = [rec["F"] for rec in out.records]
    assert all(b < a for a, b in zip(fs, fs[1:]))


def test_kahler_run_phi_stays_identically_zero(grid):
    st = make_initial_kahler(grid, epsilon=0.05, seed=4, mode_cutoff=1)
    out = run_flow(grid, st, FlowConfig(dt=2e-4, steps=40, sample_every=10))
    assert not np.any(out.final.phi.coeffs)
    for rec in out.records:
        assert rec["d_omega_residual"] < 1e-10
        assert rec["F"] == 0.0


def test_zero_steps_gives_single_sample(grid, hs_state):
    out = run_flow(grid, hs_state, FlowConfig(dt=1e-4, steps=0))
    assert len(out.records) == 1
    assert out.final is hs_state


@pytest.mark.parametrize("n, points", [(2, 8), (3, 4)])
def test_samples_hold_band_coefficients_and_build_the_states_forms_bitwise(n, points):
    # each sample's forms against those of the same state stepped by hand.
    # A sample holds the packed band fields its state's metric was
    # transformed from, ceil(n/2) + n(n-1)/2 of them, and the state's phi
    # coefficients: 3 band fields at n=2 and 8 at n=3, where omega's and
    # phi's coefficients took 5 and 12
    grid = TorusGrid(n, points)
    start = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    result = run_flow(grid, start, FlowConfig(dt=1e-4, steps=4, sample_every=2,
                                              collect_states=True))
    by_hand = [start]
    for _ in range(4):
        by_hand.append(step_rk4(grid, by_hand[-1], 1e-4))
    assert len(result.states) == 3
    for sample, st in zip(result.states, by_hand[::2]):
        assert np.array_equal(sample.omega.coeffs, st.omega.coeffs)
        assert np.array_equal(sample.phi.coeffs, st.phi.coeffs)
        assert sample.omega.bidegree == (1, 1) and sample.phi.bidegree == (2, 0)
        held = [v for v in sample if isinstance(v, np.ndarray)]
        assert [a.shape for a in held] == [
            ((n + 1) // 2 + n * (n - 1) // 2,) + grid.band_shape,
            (n * (n - 1) // 2, 1) + grid.band_shape]
        assert sum(len(a.reshape(-1, *grid.band_shape)) for a in held) == {2: 3, 3: 8}[n]
    # a sample shares its state's phi coefficients, holds the band step of
    # its state's metric, and keeps no form it builds
    last = result.states[-1]
    assert last.phi_hat is result.final.phi_hat
    assert (last.packed.tobytes()
            == grid.metric_pack(result.final.omega_hat).tobytes())
    assert not hasattr(last, "__dict__") and last.omega is not last.omega


def test_collected_samples_keep_band_sized_memory():
    # 100 samples of an n=2 N=8 run: the result keeps about their band
    # fields, 3 of 5^4 points each (the packed metric and phi), and the
    # final state.  The same bound fails for the list of the samples'
    # omega and phi coefficients (5 band fields each), which samples held
    # before, and for the list of their physical forms (5 fields of 8^4
    # points each), which they held before that
    grid = TorusGrid(2, 8)
    start = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    config = FlowConfig(dt=1e-4, steps=99, sample_every=1, collect_states=True)
    result, live = live_bytes(lambda: run_flow(grid, start, config))
    samples = len(result.states)
    assert samples == 100
    band_bytes = samples * 3 * 16 * int(np.prod(grid.band_shape))
    bound = 1.5 * band_bytes
    assert live < bound
    five_fields, five_live = live_bytes(
        lambda: [(s.t, np.empty((2, 2) + grid.band_shape, dtype=np.complex128),
                  s.phi_hat.copy(), s.V, s.F) for s in result.states])
    assert len(five_fields) == samples
    assert five_live > bound
    physical, physical_live = live_bytes(
        lambda: [(s.t, s.omega, s.phi, s.V, s.F) for s in result.states])
    assert len(physical) == samples
    assert physical_live > bound


def test_huge_dt_aborts_as_constraint_violation(grid):
    st = make_initial_hs(grid, epsilon=0.05, seed=42, mode_cutoff=1)
    config = FlowConfig(dt=5e-2, steps=2000, sample_every=5)
    with pytest.warns(RuntimeWarning, match="guideline"):
        with pytest.raises(ConstraintViolationError) as info:
            run_flow(grid, st, config)
    err = info.value
    assert err.records, "partial diagnostic series should be attached"
    assert err.records[0]["t"] == 0.0
    assert err.t is not None


def test_sample_abort_on_broken_constraint(grid, hs_state):
    broken = FlowState.make(grid, 0.0, hs_state.omega, 2.0 * hs_state.phi)
    with pytest.raises(ConstraintViolationError) as info:
        run_flow(grid, broken, FlowConfig(dt=1e-4, steps=10, constraint_abort=1e-6))
    assert len(info.value.records) == 1
    assert info.value.residual > 1e-6


def test_nan_in_omega_is_a_positivity_loss(grid, hs_state):
    omega = Form(2, 1, 1, hs_state.omega.coeffs.copy())
    omega.coeffs[0, 1][(3,) * 4] = np.nan
    with pytest.raises(PositivityLostError) as info:
        FlowState.make(grid, 0.0, omega, hs_state.phi)
    assert np.isnan(info.value.margin)


def test_nan_in_phi_aborts_as_constraint_violation(grid, hs_state):
    phi = Form(2, 2, 0, hs_state.phi.coeffs.copy())
    phi.coeffs[0, 0][(3,) * 4] = np.nan
    broken = FlowState.make(grid, 0.0, hs_state.omega, phi)
    with pytest.raises(ConstraintViolationError) as info:
        run_flow(grid, broken, FlowConfig(dt=1e-4, steps=15, sample_every=5))
    assert len(info.value.records) == 1


@pytest.mark.parametrize("n, points, cutoff", [(2, 8, 2), (3, 4, 1)], ids=["n2", "n3"])
def test_run_flow_transforms_no_full_grid(count_fields, n, points, cutoff):
    # the step works on the band and the records read the state's band
    # coefficients, so neither transforms the full grid
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=cutoff)
    calls = count_fields("fft", "ifft")
    out = run_flow(grid, st, FlowConfig(dt=1e-4, steps=2, sample_every=1))
    assert len(out.records) == 3
    assert calls == []


RESIDUAL_COLUMNS = {
    "d_omega": "d_omega_residual",
    "hs_constraint": "hs_constraint_residual",
    "del_phi": "del_phi_residual",
    "pluriclosed": "pluriclosed_residual",
}


@pytest.mark.parametrize("make", [make_initial_hs, make_initial_kahler],
                         ids=["hs", "kahler"])
@pytest.mark.parametrize("n, points, cutoff", [(2, 8, 2), (2, 16, 2), (3, 4, 1)],
                         ids=["n2-N8", "n2-N16", "n3-N4"])
def test_record_residuals_match_the_physical_route(make, n, points, cutoff):
    # the band route of diagnostics_record against residual_norms on the
    # state's forms: initial data, a state made from its forms, 3 RK4 steps
    grid = TorusGrid(n, points)
    native = make(grid, epsilon=0.05, seed=7, mode_cutoff=cutoff)
    stepped = native
    for _ in range(3):
        stepped = step_rk4(grid, stepped, 1e-4)
    for st in (native, FlowState.make(grid, 0.0, native.omega, native.phi), stepped):
        rec = diagnostics_record(grid, st)
        phys = residual_norms(grid, st.omega, st.phi)
        for key, column in RESIDUAL_COLUMNS.items():
            assert abs(rec[column] - phys[key]) <= 1e-12, key


def test_record_sees_a_non_closed_bump():
    # negative control of the band route: the non-closed bump of criterion 6,
    # taken in through FlowState.make, breaks the coupling constraint
    grid = TorusGrid(2, 16)
    first = make_initial_hs(grid, epsilon=0.05, seed=42, mode_cutoff=2)
    rng = np.random.default_rng(5)
    bad = Form.zeros(2, 1, 1, grid.shape)
    bad.coeffs[0, 1] = 5e-3 * random_band_limited(grid, rng, 2)
    bad = bad + conjugate(bad)
    broken = FlowState.make(grid, 0.0, first.omega + bad, first.phi)
    band = diagnostics_record(grid, broken)["hs_constraint_residual"]
    phys = residual_norms(grid, broken.omega, broken.phi)["hs_constraint"]
    assert band > 1e-3
    assert abs(band - phys) <= 1e-10 * phys


def test_positivity_error_passes_through_with_records(grid, hs_state, monkeypatch):
    def explode(grid_, state, dt):
        raise PositivityLostError("synthetic stage failure", margin=-1.0)

    monkeypatch.setattr(flow_mod, "step_rk4", explode)
    with pytest.raises(PositivityLostError) as info:
        run_flow(grid, hs_state, FlowConfig(dt=1e-5, steps=5, sample_every=1))
    assert info.value.records and info.value.records[0]["t"] == 0.0
    assert info.value.t == 0.0


def test_dt_guideline_value(grid, hs_state):
    bound = parabolic_dt_bound(grid, hs_state.metric, safety=0.25)
    expected = 0.25 * (1 / 8) ** 2 * hs_state.metric.margin / hs_state.metric.max_eig
    assert bound == pytest.approx(expected, rel=1e-12)


def count_eig_range(monkeypatch):
    """Route forms._eig_range through a wrapper that logs each result."""
    calls = []
    real = forms_mod._eig_range

    def counted(diag, upper, n):
        calls.append(real(diag, upper, n))
        return calls[-1]

    monkeypatch.setattr(forms_mod, "_eig_range", counted)
    return calls


def test_stage_metrics_compute_no_eigenvalues(monkeypatch):
    grid3 = TorusGrid(3, 4)
    st = make_initial_hs(grid3, epsilon=0.05, seed=42, mode_cutoff=1)
    calls = count_eig_range(monkeypatch)
    out = step_rk4(grid3, st, 1e-4)
    assert calls == []
    assert out.metric.margin > 0.0
    assert len(calls) == 1


def test_stage_metrics_skip_the_hermiticity_scan_and_copy(grid, monkeypatch):
    # each stage metric keeps the very half hermitian_from_band built
    st = make_initial_hs(grid, epsilon=0.05, seed=42, mode_cutoff=1)
    scans, blocks, metrics = [], [], []
    real_scan = forms_mod._hermiticity_defect
    real_block = TorusGrid.hermitian_from_band
    real_build = forms_mod.HermitianMetric.from_half

    def scan(g):
        scans.append(g)
        return real_scan(g)

    def block(self, g_hat):
        blocks.append(real_block(self, g_hat))
        return blocks[-1]

    def build(cls, diag, upper):
        metrics.append(real_build(diag, upper))
        return metrics[-1]

    monkeypatch.setattr(forms_mod, "_hermiticity_defect", scan)
    monkeypatch.setattr(TorusGrid, "hermitian_from_band", block)
    monkeypatch.setattr(forms_mod.HermitianMetric, "from_half", classmethod(build))
    out = step_rk4(grid, st, 1e-4)
    assert scans == []
    assert len(metrics) == len(blocks) == 4
    assert all(m.diag is diag and m.upper is upper for m, (diag, upper) in zip(metrics, blocks))
    assert out.metric is metrics[-1]


def test_run_flow_computes_eigenvalues_once_per_sample(grid, monkeypatch):
    st = make_initial_hs(grid, epsilon=0.05, seed=42, mode_cutoff=1)
    calls = count_eig_range(monkeypatch)
    out = run_flow(grid, st, FlowConfig(dt=1e-4, steps=7, sample_every=3))
    # samples at steps 0, 3, 6, 7; the initial one also serves the dt guideline
    assert len(out.records) == 4
    assert [rec["min_eig_margin"] for rec in out.records] == [lo for lo, _ in calls]


def test_margin_and_dt_bound_read_the_eigenvalue_range_bitwise(grid):
    st = make_initial_hs(grid, epsilon=0.05, seed=42, mode_cutoff=1)
    lo, hi = forms_mod._eig_range(st.metric.diag, st.metric.upper, grid.n)
    assert diagnostics_record(grid, st)["min_eig_margin"] == lo
    assert parabolic_dt_bound(grid, st.metric, 0.25) == 0.25 * (1 / 8) * (1 / 8) * lo / hi


def test_diagnostics_record_keys(grid, hs_state):
    rec = diagnostics_record(grid, hs_state)
    assert list(rec) == [
        "t", "V", "F",
        "d_omega_residual", "hs_constraint_residual",
        "del_phi_residual", "pluriclosed_residual", "min_eig_margin",
    ]
