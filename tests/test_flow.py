"""Tests for right-hand sides, the RK4 stepper, initial data, and run_flow."""

import re
import tracemalloc

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


def peak_fields_above_live(grid, fn):
    """(fn(), its tracemalloc peak over what was live before it, in complex grid fields)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        if started:
            tracemalloc.stop()
    return out, peak / (16 * grid.points ** (2 * grid.n))


def test_step_peak_memory_above_the_live_state():
    # tracemalloc peak of one n=3 N=6 step over what was live before it, in
    # full-grid complex scalar fields.  Stages that keep the Hermitian half
    # of g and det, and take log det to the band before del omega is built,
    # measure 42.4; stages that kept the full block g measured 46.9, stages
    # that kept the inverse 58.6, and stages holding del omega and dbar phi
    # at once 68
    grid = TorusGrid(3, 6)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    out, peak = peak_fields_above_live(grid, lambda: step_rk4(grid, st, 1e-4))
    assert out.t > 0.0
    assert peak < 44.5


def test_record_peak_memory_above_the_live_state():
    # a record of an n=3 N=6 state walks V and F over blocks of points: it
    # builds phi (3 fields, dropped on return), two grid-sized point arrays
    # and block temporaries, and measures 14.0 fields; with the full block
    # g kept on the metric it measured 16.6, and with the state's omega,
    # full-grid wedge powers and the inverse 27
    grid = TorusGrid(3, 6)
    st = step_rk4(grid, make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1), 1e-4)
    rec, peak = peak_fields_above_live(grid, lambda: diagnostics_record(grid, st))
    assert rec["V"] > 0.0
    assert "omega" not in vars(st) and "phi" not in vars(st) and "ginv" not in vars(st.metric)
    assert peak < 15.4


@pytest.mark.parametrize("n, points", [(2, 8), (3, 4)])
def test_step_keeps_no_work_on_the_grid_or_the_stages(n, points, monkeypatch):
    grid = TorusGrid(n, points)
    st = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    before = dict(vars(grid))
    stages = []
    real = flow_mod._band_stage

    def band_stage(*args):
        stages.append(real(*args))
        return stages[-1]

    monkeypatch.setattr(flow_mod, "_band_stage", band_stage)
    out = step_rk4(grid, st, 1e-4)
    assert vars(grid).keys() == before.keys()
    assert all(vars(grid)[key] is value for key, value in before.items())
    # the last stage is the stepped state; no stage, the state stepped from
    # included, has built its physical forms
    assert len(stages) == 4 and out is stages[-1]
    for stage in [st] + stages:
        assert list(vars(stage)) == ["t", "omega_hat", "phi_hat", "metric", "grid"]
        assert stage.omega_hat.shape[2:] == stage.phi_hat.shape[2:] == grid.band_shape
        # of grid size, a stage holds its metric's half and det, and no
        # full block or inverse
        assert list(vars(stage.metric)) == ["n", "diag", "upper", "det"]
        assert (stage.metric.diag.shape[1:] == stage.metric.upper.shape[1:]
                == stage.metric.det.shape == grid.shape)


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
    # each sample's forms against those of the same state stepped by hand
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
        assert len(held) == 2 and all(a.shape[2:] == grid.band_shape for a in held)
    # a sample holds its state's arrays, not copies, and keeps no form it builds
    last = result.states[-1]
    assert last.omega_hat is result.final.omega_hat and last.phi_hat is result.final.phi_hat
    assert not hasattr(last, "__dict__") and last.omega is not last.omega


def test_collected_samples_keep_band_sized_memory():
    # 100 samples of an n=2 N=8 run: the result keeps about their band
    # coefficients, 5 fields of 5^4 points each, and the final state.  The
    # same bound fails for the list of the samples' physical forms (5 fields
    # of 8^4 points each), which samples held before
    grid = TorusGrid(2, 8)
    start = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    config = FlowConfig(dt=1e-4, steps=99, sample_every=1, collect_states=True)
    result, live = live_bytes(lambda: run_flow(grid, start, config))
    samples = len(result.states)
    assert samples == 100
    band_bytes = samples * 5 * 16 * int(np.prod(grid.band_shape))
    bound = 1.5 * band_bytes
    assert live < bound
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
