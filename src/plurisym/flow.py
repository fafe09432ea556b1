"""Time integration of the coupled Hermitian-form / (2,0)-potential evolution.

The state is a positive real (1,1)-form omega together with a (2,0)-form phi
on a flat torus grid.  omega moves by its second-order codifferential terms
plus the curvature form of its own metric; phi moves by the first-order
coupling term.  The combination preserves closedness of phi + omega + conj(phi)
and the mixed constraint (holomorphic derivative of omega against the
antiholomorphic derivative of phi), which is monitored, never projected.

Integration is classical RK4.  Between stages the state lives on the
resolved Fourier band (per-axis cutoff points // 3): derivatives, the RK4
combinations and the conjugation that keeps omega real act on band
coefficients, and only the fields the pointwise nonlinearities read (the
metric blocks, del omega, dbar phi) go to physical space and back (the two
metric traces and log det).  Positivity of the metric is checked at each
stage and aborts the run; nothing is regularized.

A state is a ``FlowState``: band coefficients of omega and phi and the
metric of omega, whose Hermitian half (the real diagonal and upper triangle
of g) and determinant are the only grid fields it holds.  Its physical forms
are computed from these on first read (omega from the metric block, phi by
one band transform), so an unsampled step never builds them.  A step holds
none of its state's grid fields past the first stage: that stage builds an
inverse half of the state's metric, and the state then drops the metric,
which a later read rebuilds bit for bit from the band coefficients.  An RK4
stage is less than a state: its band coefficients, det and the Hermitian
half of its inverse metric, which both of its traces read.  Stages 2-4
build and check their metric as a state's is built, then write the inverse
half over g's half before their rate runs; the first stage's inverse half
is dropped when its rate returns.  The four rates are summed into the
first as each one returns.  Everything else a rate computes on the grid
(log det, the two traces) is built while it runs and dropped when it
returns, so the grid holds no work field.  Del omega and dbar phi never
exist on the grid: each of their components is transformed from the band
into one complex scalar grid buffer, which the step allocates once, and
traced before the next component is transformed over it.  No grid-sized
full metric block or inverse block exists: a record's V and F walk the
points in blocks, building each block of g and of the inverse from the
half and det.

Every state lives on the band: the initial data are built there, and
``FlowState.make`` takes physical fields there once, refusing a field with
Fourier content outside the band beyond roundoff.  So a step starts from the
state itself with no transform of the full grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .calculus import (
    TorusGrid,
    integrate,
    random_band_limited,
    residual_norms_hat,
)
from .config import FlowConfig, InitialSettings, check_mode_cutoff
from .errors import ConstraintViolationError, PositivityLostError
from .forms import (
    Form,
    HermitianMetric,
    _blocks,
    _hermitian_block,
    _inverse_entries,
    inner_product,
    metric_of_form,
    metric_trace,
)
from .volume import beta_form

__all__ = [
    "FlowState",
    "Sample",
    "FlowConfig",
    "FlowResult",
    "pluriclosed_rhs",
    "phi_rhs",
    "step_rk4",
    "make_initial_hs",
    "make_initial_kahler",
    "parabolic_dt_bound",
    "diagnostics_record",
    "run_flow",
]


# Fourier content outside the band, relative to a field's largest entry, that
# FlowState.make accepts as roundoff; band-limited fields measure ~1e-15
_OUT_OF_BAND_TOL = 1e-12


@dataclass(eq=False, repr=False)
class FlowState:
    """Flow state at one instant: band coefficients and the metric.

    ``omega_hat`` and ``phi_hat`` are the band coefficients of omega and phi,
    and ``metric`` is the metric of omega; its Hermitian half and det are
    the only grid-sized arrays a state holds.  A state is built with its
    metric checked (``_band_stage``); ``step_rk4`` drops the metric of the
    state it steps once its first stage has read it, and the next read of
    ``metric`` rebuilds it from ``omega_hat`` by the same route, bit for
    bit.  A metric object a caller holds stays valid.  The physical forms
    ``omega`` and ``phi`` are computed on first read and kept; treat them
    as read-only.  A step reads neither of its state's forms nor builds its
    own, and a record builds neither.
    """

    t: float
    omega_hat: np.ndarray
    phi_hat: np.ndarray
    grid: TorusGrid

    @cached_property
    def metric(self) -> HermitianMetric:
        """The metric of omega, built from the band coefficients and checked on first read."""
        return HermitianMetric.from_half(*_metric_half(self.grid, self.omega_hat))

    @cached_property
    def omega(self) -> Form:
        """The physical (1,1)-form, i times the metric block."""
        return Form(self.grid.n, 1, 1, 1j * self.metric.g)

    @cached_property
    def phi(self) -> Form:
        """The physical (2,0)-form, from one band transform."""
        return Form(self.grid.n, 2, 0, self.grid.from_band(self.phi_hat))

    @classmethod
    def make(cls, grid: TorusGrid, t: float, omega: Form, phi: Form) -> "FlowState":
        """Validate bidegrees, payloads and the metric of omega, then move the forms to the band.

        The band part of omega is symmetrized so that its coefficients are
        exactly those of a real form, and the state is the band state of the
        two projections: its metric is built from them, and its forms are
        their physical fields, within ``_OUT_OF_BAND_TOL`` of the given ones.
        Raises PositivityLostError when omega is not a positive form, and
        ValueError when either form has Fourier content outside the resolved
        band beyond roundoff (``_OUT_OF_BAND_TOL`` of its largest entry).
        """
        if omega.bidegree != (1, 1):
            raise ValueError(f"omega must be a (1,1)-form, got {omega.bidegree}")
        if phi.bidegree != (2, 0):
            raise ValueError(f"phi must be a (2,0)-form, got {phi.bidegree}")
        for name, f in (("omega", omega), ("phi", phi)):
            if f.n != grid.n or f.payload != grid.shape:
                raise ValueError(
                    f"{name} must live on the grid (n={grid.n}, payload {grid.shape}), "
                    f"got n={f.n}, payload {f.payload}"
                )
        metric_of_form(omega)  # reality and positivity of the given omega
        hats = [grid.to_band(f.coeffs) for f in (omega, phi)]
        for name, f, hat in zip(("omega", "phi"), (omega, phi), hats):
            # a non-finite field measures NaN here; its metric or the first
            # sample's constraint guard stops it
            with np.errstate(invalid="ignore"):
                outside = float(np.max(np.abs(f.coeffs - grid.from_band(hat))))
            largest = float(np.max(np.abs(f.coeffs)))
            if outside > _OUT_OF_BAND_TOL * largest:
                raise ValueError(
                    f"{name} has Fourier content outside the resolved band "
                    f"|k| <= {grid.dealias_cutoff}: {outside:.3e} against its largest "
                    f"entry {largest:.3e}"
                )
        omega_hat, phi_hat = hats
        omega_hat = 0.5 * (omega_hat + grid.band_conjugate(omega_hat, 1, 1))
        return _band_stage(grid, float(t), omega_hat, phi_hat)


class Sample(NamedTuple):
    """A sampled state's band fields and its record's V and F, as run_flow collects them.

    ``packed`` holds the band inputs of the state's metric transforms, as
    the band step packs them from the state's omega coefficients
    (``TorusGrid.metric_pack``: ceil(n/2) + n(n-1)/2 band fields), and ``phi_hat``
    is the state's own array, not a copy: 3 band fields at n=2 and 8 at
    n=3, against n^2 + n(n-1)/2 for omega's and phi's coefficients.  The
    physical forms ``omega`` and ``phi`` are built from them on each read
    and never kept, so a list of samples holds band fields only; read each
    once per pass.  omega goes through the band and grid steps that built
    the state's metric, so both forms are bitwise the state's ``omega`` and
    ``phi`` by construction.
    """

    t: float
    packed: np.ndarray
    phi_hat: np.ndarray
    V: float
    F: float
    grid: TorusGrid

    @property
    def omega(self) -> Form:
        """The physical (1,1)-form, built on this read: i times the metric block."""
        return Form(self.grid.n, 1, 1,
                    1j * _hermitian_block(*self.grid.hermitian_from_band(self.packed)))

    @property
    def phi(self) -> Form:
        """The physical (2,0)-form, built on this read by one band transform."""
        return Form(self.grid.n, 2, 0, self.grid.from_band(self.phi_hat))


@dataclass
class FlowResult:
    """Diagnostic series of a run, the samples (if collected), and the final state.

    Each sample holds its state's packed metric band fields and phi's band
    coefficients (3 band fields at n=2, 8 at n=3), and builds its physical
    forms on read.
    """

    records: List[dict]
    states: List[Sample]
    final: FlowState


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------

def _omega_velocity(grid: TorusGrid, det: np.ndarray,
                    traced_del_omega: Callable[[], np.ndarray]) -> np.ndarray:
    """Band coefficients of the omega velocity; ``traced_del_omega()`` traces del(omega).

    C + conj(C) with C = dbar of the metric trace of del(omega) plus half
    the curvature form, with ``det`` the metric's determinant;
    ``traced_del_omega()`` returns the grid coefficients of that (1,0)
    trace, the dbar-codifferential of omega (agreement with the
    star-composition route, codifferential_dbar, is pinned in the tests).
    Keeping only band coefficients is the dealiasing projector.  log det
    goes to the band before the trace is taken, so del(omega) never lives
    beside the grid-sized log det.
    """
    log_det_hat = grid.to_band(np.log(det))
    c_hat = grid.derivative_hat(grid.to_band(traced_del_omega()), 1, 0, anti=True)
    c_hat += 0.5 * grid.ddbar_hat(log_det_hat)
    return c_hat + grid.band_conjugate(c_hat, 1, 1)


def _phi_velocity(grid: TorusGrid, traced_dbar_phi: np.ndarray) -> np.ndarray:
    """Band coefficients of the phi velocity: minus del of the metric trace of dbar(phi)."""
    return -grid.derivative_hat(grid.to_band(traced_dbar_phi), 1, 0, anti=False)


def pluriclosed_rhs(grid: TorusGrid, omega: Form, metric: HermitianMetric) -> Form:
    """Velocity of omega in its metric: both codifferential blocks plus the curvature form.

    The integrator's velocity (``_omega_velocity``) of the physical del(omega),
    traced by ``metric_trace``, brought back through the Hermitian block
    transform, so the result is self-conjugate to the last bit.
    """
    vel = _omega_velocity(grid, metric.det,
                          lambda: metric_trace(grid.del_form(omega), metric).coeffs)
    return Form(grid.n, 1, 1, 1j * _hermitian_block(*_metric_half(grid, vel)))


def phi_rhs(grid: TorusGrid, phi: Form, metric: HermitianMetric) -> Form:
    """Velocity of phi: minus the holomorphic derivative of the traced dbar(phi)."""
    vel = _phi_velocity(grid, metric_trace(grid.dbar_form(phi), metric).coeffs)
    return Form(grid.n, 2, 0, grid.from_band(vel))


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def _metric_half(grid: TorusGrid, omega_hat: np.ndarray):
    """Hermitian half of g for the real (1,1)-form sqrt(-1) g with band coefficients ``omega_hat``.

    ``(diag, upper)`` as ``HermitianMetric`` keeps them, by the band step
    and the grid step.  A state's metric is built here and a sample's omega
    by the same two steps, so the two are bitwise equal.
    """
    return grid.hermitian_from_band(grid.metric_pack(omega_hat))


def _band_stage(grid: TorusGrid, t: float, omega_hat: np.ndarray,
                phi_hat: np.ndarray) -> FlowState:
    """State of band coefficients at time t, with the metric of omega built and checked.

    ``_metric_half`` builds the Hermitian half of g, which the metric
    keeps as it is (``HermitianMetric.from_half``): no full block, no
    Hermiticity scan and no copy.  Positivity is always enforced.  The
    metric's half and det are the only grid fields a state keeps.
    """
    state = FlowState(t, omega_hat, phi_hat, grid)
    state.metric  # built and checked now, so an indefinite state raises here
    return state


def _stage(grid: TorusGrid, omega_hat: np.ndarray, phi_hat: np.ndarray,
           metric: Optional[HermitianMetric] = None):
    """The rate inputs of an RK4 stage: ``(omega_hat, phi_hat, inverse, det)``.

    ``inverse`` is the Hermitian half of the inverse of the stage's metric
    (``_inverse_entries``), and det the metric's determinant.  Without
    ``metric`` (stages 2-4) the metric of ``omega_hat`` is built and
    checked as a state's is (``HermitianMetric.from_half``, positivity
    enforced), and its inverse half is written over g's half, which no one
    else holds; only det outlives the metric.  The first stage passes the
    state's metric, whose half is left as it is: the inverse half is a new
    array, which lives only while the rate runs.
    """
    fresh = metric is None
    if fresh:
        metric = HermitianMetric.from_half(*_metric_half(grid, omega_hat))
    inverse = _inverse_entries(metric.diag, metric.upper, metric.det, grid.n, in_place=fresh)
    return omega_hat, phi_hat, inverse, metric.det


class _BandComponents:
    """Grid coefficients of a form given by band coefficients, built one component at a time.

    The coefficients ``metric_trace`` reads of an RK4 stage's (2,1)-field.
    Indexing by a component ``(i, j)`` transforms that component from the
    band into ``buffer``, a C-contiguous complex scalar grid array, and
    returns it, over the component read before.  ``metric_trace`` reads
    each component once and traces it before it reads the next, so the
    field is traced with no grid array of its own.
    """

    def __init__(self, grid: TorusGrid, hat: np.ndarray, buffer: np.ndarray):
        self.shape = hat.shape[:2] + grid.shape
        self._grid, self._hat, self._buffer = grid, hat, buffer

    def __getitem__(self, component) -> np.ndarray:
        return self._grid.from_band(self._hat[component], out=self._buffer)


def _stage_rate(grid: TorusGrid, omega_hat: np.ndarray, phi_hat: np.ndarray, inverse,
                det: np.ndarray, buffer: np.ndarray):
    """Band velocities of a stage, omega's then phi's, from ``_stage``'s rate inputs.

    Del omega and then dbar phi are built as band coefficients and traced
    by ``metric_trace`` one component at a time through ``buffer``, a
    C-contiguous complex scalar grid array (``_BandComponents``), so no
    (2,1)-field is built on the grid.  Both traces read the one inverse
    half of the stage.
    """
    def traced(hat):
        return metric_trace(Form(grid.n, 2, 1, _BandComponents(grid, hat, buffer)),
                            inverse).coeffs

    omega_vel = _omega_velocity(
        grid, det, lambda: traced(grid.derivative_hat(omega_hat, 1, 1, anti=False)))
    phi_vel = _phi_velocity(grid, traced(grid.derivative_hat(phi_hat, 2, 0, anti=True)))
    return omega_vel, phi_vel


def step_rk4(grid: TorusGrid, state: FlowState, dt: float) -> FlowState:
    """One classical RK4 step of the coupled system.

    Positivity is enforced at every stage through the metric construction
    (Sylvester's criterion, no eigenvalues); a failure raises
    PositivityLostError and leaves the caller holding the last valid state.
    The last stage is the returned state, and the first stage of the next
    step.  Each stage builds one inverse half of its metric, read by both
    of its traces (``_stage``); stages 2-4 write it over g's half and keep
    only det of their metrics, and every field a rate builds is dropped
    when it returns.  Once the first stage has built its inverse half, the
    state drops its metric: it keeps only its band coefficients, and a
    later read of ``state.metric`` rebuilds the metric bit for bit.  The
    four rates share one complex scalar grid buffer, allocated here and
    dropped on return, through which every (2,1) component is traced.
    ``kw1 + 2 kw2 + 2 kw3 + kw4`` (and phi's) is added up in the first
    rate's array as each rate returns, in that order, so it keeps the bits
    of the whole expression.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    t, w0, p0 = state.t, state.omega_hat, state.phi_hat
    half = 0.5 * dt
    buffer = np.empty(grid.shape, dtype=np.complex128)
    first = _stage(grid, w0, p0, state.metric)
    del state.metric
    kw, kp = _stage_rate(grid, *first, buffer)
    del first
    sum_w, sum_p = kw, kp
    for shift in (half, half):
        kw, kp = _stage_rate(grid, *_stage(grid, w0 + shift * kw, p0 + shift * kp), buffer)
        sum_w += 2.0 * kw
        sum_p += 2.0 * kp
    kw, kp = _stage_rate(grid, *_stage(grid, w0 + dt * kw, p0 + dt * kp), buffer)
    sum_w += kw
    sum_p += kp
    sixth = dt / 6.0
    return _band_stage(grid, t + dt, w0 + sixth * sum_w, p0 + sixth * sum_p)


def parabolic_dt_bound(grid: TorusGrid, metric: HermitianMetric, safety: float) -> float:
    """Step-size guideline safety * h^2 * (eigenvalue margin / largest eigenvalue).

    Advisory only: run_flow warns when exceeded but still integrates, so that
    deliberately unstable runs reach the abort machinery.  Reads the metric's
    eigenvalue range, which the metric computes on first read.
    """
    h = 1.0 / grid.points
    return safety * h * h * metric.margin / metric.max_eig


# ----------------------------------------------------------------------
# initial data
# ----------------------------------------------------------------------

def _initial_state(grid: TorusGrid, epsilon: float, omega_raw: np.ndarray,
                   phi_raw: np.ndarray) -> FlowState:
    """Band-native state: the flat form plus the scaled band perturbations.

    ``omega_raw`` holds the band coefficients of an exactly real (1,1)-form
    and ``phi_raw`` those of a (2,0)-form.  Both are scaled so that the
    largest physical coefficient has magnitude epsilon, and the flat form is
    put on the k=0 coefficient.
    """
    n = grid.n
    # the lower triangle repeats the upper one's moduli
    amp = float(np.max([np.max(np.abs(part)) for part in _metric_half(grid, omega_raw)]))
    if phi_raw.size:
        amp = max(amp, float(np.max(np.abs(grid.from_band(phi_raw)))))
    scale = epsilon / amp if amp > 0 else 0.0
    omega_hat = scale * omega_raw
    diag = np.arange(n)
    # unnormalized forward transform: a constant c has k=0 coefficient c * points^(2n)
    omega_hat[(diag, diag) + (0,) * (2 * n)] += 1j * grid.points ** (2 * n)
    return _band_stage(grid, 0.0, omega_hat, scale * phi_raw)


def make_initial_hs(grid: TorusGrid, epsilon: float = InitialSettings.epsilon,
                    seed: int = InitialSettings.seed,
                    mode_cutoff: int = InitialSettings.mode_cutoff) -> FlowState:
    """Closed random initial data: flat form plus d of a band-limited real 1-form.

    A complex (1,0)-form zeta with modes up to ``mode_cutoff`` is drawn from
    the seeded generator; the perturbation is d(zeta + conj(zeta)), split into
    its (2,0) part (phi) and its (1,1) part (added to the flat omega), then
    scaled so the largest coefficient has magnitude ``epsilon``.  The total is
    exactly d-closed by construction, and epsilon = 0 gives the flat state.
    Everything is built on band coefficients, so the state starts on the
    resolved band with no transform of the full grid.
    The arguments must lie in the ranges of ``InitialSettings``, and
    ``mode_cutoff`` in the dealias band [1, points // 3]; ConfigError names
    the one that does not.

    Raises PositivityLostError when epsilon is large enough to destroy
    positivity of omega.
    """
    InitialSettings(epsilon=epsilon, seed=seed, mode_cutoff=mode_cutoff)
    check_mode_cutoff(mode_cutoff, grid.points)
    n = grid.n
    rng = np.random.default_rng(seed)
    zeta = np.empty((n, 1) + grid.band_shape, dtype=np.complex128)
    for i in range(n):
        zeta[i, 0] = random_band_limited(grid, rng, mode_cutoff, real=False, band=True)
    # phi_raw is the (2,0) part of d(zeta + conj(zeta)), the (1,1) part is
    # mixed + conj(mixed), exactly real
    phi_raw = grid.derivative_hat(zeta, 1, 0, anti=False)
    mixed = grid.derivative_hat(zeta, 1, 0, anti=True)
    return _initial_state(grid, epsilon, mixed + grid.band_conjugate(mixed, 1, 1), phi_raw)


def make_initial_kahler(grid: TorusGrid, epsilon: float = InitialSettings.epsilon,
                        seed: int = InitialSettings.seed,
                        mode_cutoff: int = InitialSettings.mode_cutoff) -> FlowState:
    """Closed initial data with phi = 0: flat form plus a potential perturbation.

    omega = flat + scaled i*del(dbar(u)) for a band-limited real potential u,
    symmetrized on the band so the coefficients are those of a real form to
    the last bit.  States of this shape keep phi identically zero along the
    flow.  The arguments are checked as in ``make_initial_hs``.
    """
    InitialSettings(epsilon=epsilon, seed=seed, mode_cutoff=mode_cutoff)
    check_mode_cutoff(mode_cutoff, grid.points)
    rng = np.random.default_rng(seed)
    u = random_band_limited(grid, rng, mode_cutoff, band=True)
    du = grid.derivative_hat(u[None, None], 0, 0, anti=False)
    pert = -1j * grid.derivative_hat(du, 1, 0, anti=True)
    omega_raw = 0.5 * (pert + grid.band_conjugate(pert, 1, 1))
    return _initial_state(grid, epsilon, omega_raw,
                          Form.zeros(grid.n, 2, 0, grid.band_shape).coeffs)


# ----------------------------------------------------------------------
# driving loop
# ----------------------------------------------------------------------

def _residuals(grid: TorusGrid, state: FlowState) -> dict:
    """``residual_norms`` of a state, from the band coefficients it carries."""
    return residual_norms_hat(grid, state.omega_hat, state.phi_hat,
                              grid.band_conjugate(state.phi_hat, 2, 0))


def _volume_and_pairing(grid: TorusGrid, state: FlowState):
    """V and F of a state, as ``volume_V`` and ``global_inner_product`` read them.

    The points are walked in blocks (``forms._blocks``).  Per block, the
    top coefficient of ``beta_form`` on omega = sqrt(-1) g and phi, and the
    pointwise pairing <phi, phi> times det with the block's inverse metric
    built from the half and det, go into one grid-sized array each; the
    means of those arrays are V and F.  Each block's g is assembled from
    the metric's half.  phi is built here by one band transform, bitwise the
    state's ``phi``, and dropped on return.  Every point sees the operations
    of the whole-grid routes, so V and F keep their bits, and no omega form,
    full metric block, wedge temporary or inverse metric of grid size is
    built.
    """
    n, metric = grid.n, state.metric
    points = metric.det.size
    diag, upper, det = (metric.diag.reshape(n, points), metric.upper.reshape(-1, points),
                        metric.det.reshape(points))
    phi = grid.from_band(state.phi_hat)
    phi = phi.reshape(phi.shape[:2] + (points,))
    top, pairing = (np.empty(grid.shape, dtype=np.complex128) for _ in range(2))
    for blk in _blocks(points):
        block = HermitianMetric(n, diag[:, blk], upper[:, blk], det[blk])  # the state's
        omega, phi_blk = Form(n, 1, 1, 1j * block.g), Form(n, 2, 0, phi[:, :, blk])
        top.reshape(points)[blk] = beta_form(phi_blk, omega, 0).coeffs[0, 0]
        pairing.reshape(points)[blk] = inner_product(phi_blk, phi_blk, block) * det[blk]
    return (integrate(grid, Form(n, n, n, top[None, None])).real,
            complex(np.mean(pairing)).real)


def diagnostics_record(grid: TorusGrid, state: FlowState) -> dict:
    """One monitoring record: time, volume, self-pairing, residuals, margin.

    V and F are the sample's only measurement of V and F, which
    ``volume.check_derivative_identities`` reads through ``Sample``.  They
    come from the state's metric and a phi the record builds and drops, in
    blocks of points (``_volume_and_pairing``); the record builds neither
    of the state's forms.  The four residual columns take the band
    route: the Parseval norms of ``residual_norms_hat`` on the band
    coefficients of omega, phi and conj(phi) that the state carries, so
    they transform nothing.  They measure the state the integrator carries;
    the physical route, ``calculus.residual_norms`` on the state's forms,
    agrees at roundoff.
    The margin is the smallest eigenvalue of the state's metric; this is where
    a sampled metric computes its eigenvalue range, which stage metrics never do.
    At n=3 that range runs eigvalsh only on the points whose shifted
    Sylvester minors do not certify them away from both extremes.
    """
    res = _residuals(grid, state)
    V, F = _volume_and_pairing(grid, state)
    return {
        "t": state.t,
        "V": V,
        "F": F,
        "d_omega_residual": res["d_omega"],
        "hs_constraint_residual": res["hs_constraint"],
        "del_phi_residual": res["del_phi"],
        "pluriclosed_residual": res["pluriclosed"],
        "min_eig_margin": state.metric.margin,
    }


def run_flow(grid: TorusGrid, state: FlowState, config: FlowConfig) -> FlowResult:
    """Integrate the coupled system, sampling diagnostics every few steps.

    Samples are taken at the start, every ``sample_every`` steps, and at the
    end.  With ``collect_states`` each one is kept as a ``Sample``: the
    band step of the state's metric, packed again from its omega
    coefficients, phi's band coefficients, held without a copy, and its
    record's V and F; its physical forms are built on each read.  A sample
    whose constraint residual is not within ``constraint_abort`` (a NaN one
    included) raises ConstraintViolationError; positivity loss during a step
    raises PositivityLostError unless the evidence points at the integrator
    (the constraint already broken, or dt above the parabolic guideline),
    which is reported as a constraint violation instead.  Either exception
    carries the records collected so far.
    """
    bound = parabolic_dt_bound(grid, state.metric, config.safety)
    if config.dt > bound:
        warnings.warn(
            f"dt={config.dt:g} exceeds the parabolic guideline {bound:g}; "
            "the integration may blow up",
            RuntimeWarning,
            stacklevel=2,
        )
    records: List[dict] = []
    states: List[Sample] = []

    def take_sample(st: FlowState):
        rec = diagnostics_record(grid, st)
        records.append(rec)
        if config.collect_states:
            states.append(Sample(st.t, grid.metric_pack(st.omega_hat), st.phi_hat,
                                 rec["V"], rec["F"], grid))
        if not rec["hs_constraint_residual"] <= config.constraint_abort:
            raise ConstraintViolationError(
                f"constraint residual {rec['hs_constraint_residual']:.3e} exceeded "
                f"{config.constraint_abort:g} at t={st.t:.6g}",
                t=st.t,
                residual=rec["hs_constraint_residual"],
                records=records,
            )

    t0 = state.t
    take_sample(state)
    for step in range(1, config.steps + 1):
        try:
            state = step_rk4(grid, state, config.dt)
        except PositivityLostError as err:
            last = _residuals(grid, state)
            if not last["hs_constraint"] <= config.constraint_abort:
                raise ConstraintViolationError(
                    f"positivity failed near t={state.t + config.dt:.6g} with the "
                    f"constraint residual already at {last['hs_constraint']:.3e}",
                    t=state.t,
                    residual=last["hs_constraint"],
                    records=records,
                ) from err
            if config.dt > bound:
                raise ConstraintViolationError(
                    f"positivity failed near t={state.t + config.dt:.6g} with "
                    f"dt={config.dt:g} above the parabolic guideline {bound:g}",
                    t=state.t,
                    residual=last["hs_constraint"],
                    records=records,
                ) from err
            err.t = state.t
            err.records = records
            raise
        state.t = t0 + step * config.dt
        if step % config.sample_every == 0 or step == config.steps:
            take_sample(state)
    return FlowResult(records=records, states=states, final=state)
