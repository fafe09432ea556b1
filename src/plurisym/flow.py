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

A stage keeps its band coefficients and its metric, the one set of grid
fields it holds.  Everything else a stage's rate computes on the grid (del
omega, dbar phi, the two traces, log det) is built while the rate runs and
dropped when it returns, del omega before dbar phi is built, so a state
carries no work fields and the grid holds none either.

Every state lives on the band: the initial data are built there, and
``FlowState.make`` takes physical fields there once, refusing a field with
Fourier content outside the band beyond roundoff.  So a step starts from the
state's first stage with no transform of the full grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .calculus import (
    TorusGrid,
    global_inner_product,
    random_band_limited,
    residual_norms_hat,
)
from .config import FlowConfig, InitialSettings, check_mode_cutoff
from .errors import ConstraintViolationError, PositivityLostError
from .forms import (
    Form,
    HermitianMetric,
    metric_of_form,
    metric_trace,
)
from .volume import volume_V

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


@dataclass(eq=False)
class _Stage:
    """Band coefficients of (omega, phi) and the metric of omega.

    The metric is the only grid-sized array a stage holds; the physical
    fields its rate reads are built by ``_stage_rate`` and dropped there.
    """

    omega_hat: np.ndarray
    phi_hat: np.ndarray
    metric: HermitianMetric


@dataclass(eq=False, repr=False)
class FlowState:
    """Flow state at one instant: the two forms, the metric of omega, and its band stage.

    ``spectral`` is the band representation of the state, the first stage of
    its next step: band coefficients and the metric, no other grid field.
    For states from the initial-data functions and from
    step_rk4 the forms are the physical fields of that stage, phi computed
    on its first read; treat them as read-only.  A state from ``make`` keeps
    the forms it was given.
    """

    t: float
    omega: Form
    metric: HermitianMetric
    spectral: _Stage
    grid: TorusGrid
    _phi: Optional[Form] = None

    @property
    def phi(self) -> Form:
        """The physical (2,0)-form; a band-native state computes it on first read."""
        if self._phi is None:
            self._phi = Form(self.grid.n, 2, 0, self.grid.from_band(self.spectral.phi_hat))
        return self._phi

    @classmethod
    def make(cls, grid: TorusGrid, t: float, omega: Form, phi: Form) -> "FlowState":
        """Validate bidegrees, payloads and the metric of omega, then move the forms to the band.

        ``metric`` is ``metric_of_form(omega)``.  The band part of omega is
        symmetrized so that its coefficients are exactly those of a real form.
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
        metric = metric_of_form(omega)
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
        return cls(float(t), omega, metric, _band_stage(grid, omega_hat, phi_hat), grid, phi)


class Sample(NamedTuple):
    """The forms of a sampled state, as run_flow collects them."""

    t: float
    omega: Form
    phi: Form


@dataclass
class FlowResult:
    """Diagnostic series of a run, the sampled forms (if collected), and the final state."""

    records: List[dict]
    states: List[Sample]
    final: FlowState


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------

def _omega_velocity(grid: TorusGrid, metric: HermitianMetric,
                    del_omega: np.ndarray) -> np.ndarray:
    """Band coefficients of the omega velocity from the physical field del(omega).

    C + conj(C) with C = dbar of the metric trace of del(omega) plus half
    the curvature form; that trace is the dbar-codifferential of omega
    (agreement with the star-composition route, codifferential_dbar, is
    pinned in the tests).  Keeping only band coefficients is the dealiasing
    projector.
    """
    a = metric_trace(Form(grid.n, 2, 1, del_omega), metric)          # (1,0)
    c_hat = grid.derivative_hat(grid.to_band(a.coeffs), 1, 0, anti=True)
    c_hat += 0.5 * (grid.ddbar_band * grid.to_band(np.log(metric.det)))
    return c_hat + grid.band_conjugate(c_hat, 1, 1)


def _phi_velocity(grid: TorusGrid, metric: HermitianMetric,
                  dbar_phi: np.ndarray) -> np.ndarray:
    """Band coefficients of the phi velocity: minus del of the metric trace of dbar(phi)."""
    b = metric_trace(Form(grid.n, 2, 1, dbar_phi), metric)          # (1,0)
    return -grid.derivative_hat(grid.to_band(b.coeffs), 1, 0, anti=False)


def pluriclosed_rhs(grid: TorusGrid, omega: Form, metric: HermitianMetric) -> Form:
    """Velocity of omega in its metric: both codifferential blocks plus the curvature form.

    Evaluated by the integrator's own route (``_omega_velocity``) and
    brought back through the Hermitian block transform, so the result is
    self-conjugate to the last bit.
    """
    vel = _omega_velocity(grid, metric, grid.del_form(omega).coeffs)
    return Form(grid.n, 1, 1, 1j * grid.hermitian_from_band(-1j * vel))


def phi_rhs(grid: TorusGrid, phi: Form, metric: HermitianMetric) -> Form:
    """Velocity of phi: minus the holomorphic derivative of the traced dbar(phi)."""
    vel = _phi_velocity(grid, metric, grid.dbar_form(phi).coeffs)
    return Form(grid.n, 2, 0, grid.from_band(vel))


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def _band_stage(grid: TorusGrid, omega_hat: np.ndarray, phi_hat: np.ndarray) -> _Stage:
    """Stage of a band state: its coefficients and the metric of omega, built and checked.

    ``hermitian_from_band`` makes the metric block Hermitian to the last bit,
    so the metric keeps it with no Hermiticity scan or copy (``herm_tol=None``);
    positivity is always enforced.  The metric is the only grid field a
    stage keeps; ``_stage_rate`` builds the rest.
    """
    g = grid.hermitian_from_band(-1j * omega_hat)
    return _Stage(omega_hat, phi_hat, HermitianMetric.from_matrix(g, herm_tol=None))


def _stage_rate(grid: TorusGrid, st: _Stage):
    """Band velocities of a stage, omega's then phi's.

    Del omega is built, traced by ``_omega_velocity`` and dropped before
    dbar phi is built, so the two (2,1)-fields never live at once.
    """
    omega_vel = _omega_velocity(
        grid, st.metric, grid.from_band(grid.derivative_hat(st.omega_hat, 1, 1, anti=False)))
    phi_vel = _phi_velocity(
        grid, st.metric, grid.from_band(grid.derivative_hat(st.phi_hat, 2, 0, anti=True)))
    return omega_vel, phi_vel


def step_rk4(grid: TorusGrid, state: FlowState, dt: float) -> FlowState:
    """One classical RK4 step of the coupled system.

    Positivity is enforced at every stage through the metric construction
    (Sylvester's criterion, no eigenvalues); a failure raises
    PositivityLostError and leaves the caller holding the last valid state.
    The end-of-step metric is the next step's first-stage metric.  A stage
    keeps no grid field but its metric; the fields a rate builds are dropped
    when it returns.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    s1 = state.spectral
    w0, p0 = s1.omega_hat, s1.phi_hat

    def rate(st: _Stage):
        return _stage_rate(grid, st)

    kw1, kp1 = rate(s1)
    kw2, kp2 = rate(_band_stage(grid, w0 + (0.5 * dt) * kw1, p0 + (0.5 * dt) * kp1))
    kw3, kp3 = rate(_band_stage(grid, w0 + (0.5 * dt) * kw2, p0 + (0.5 * dt) * kp2))
    kw4, kp4 = rate(_band_stage(grid, w0 + dt * kw3, p0 + dt * kp3))
    sixth = dt / 6.0
    end = _band_stage(grid, w0 + sixth * (kw1 + 2.0 * kw2 + 2.0 * kw3 + kw4),
                      p0 + sixth * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4))
    return FlowState(state.t + dt, Form(grid.n, 1, 1, 1j * end.metric.g), end.metric, end,
                     grid)


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
    put on the k=0 coefficient.  The state's forms are the physical fields
    of its first stage, as in the states step_rk4 returns.
    """
    n = grid.n
    amp = float(np.max(np.abs(grid.hermitian_from_band(-1j * omega_raw))))
    if phi_raw.size:
        amp = max(amp, float(np.max(np.abs(grid.from_band(phi_raw)))))
    scale = epsilon / amp if amp > 0 else 0.0
    omega_hat = scale * omega_raw
    diag = np.arange(n)
    # unnormalized forward transform: a constant c has k=0 coefficient c * points^(2n)
    omega_hat[(diag, diag) + (0,) * (2 * n)] += 1j * grid.points ** (2 * n)
    phi_hat = scale * phi_raw
    stage = _band_stage(grid, omega_hat, phi_hat)
    return FlowState(0.0, Form(n, 1, 1, 1j * stage.metric.g), stage.metric, stage, grid)


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
    sp = state.spectral
    return residual_norms_hat(grid, sp.omega_hat, sp.phi_hat,
                              grid.band_conjugate(sp.phi_hat, 2, 0))


def diagnostics_record(grid: TorusGrid, state: FlowState) -> dict:
    """One monitoring record: time, volume, self-pairing, residuals, margin.

    The four residual columns take the band route: the Parseval norms of
    ``residual_norms_hat`` on the band coefficients of omega, phi and
    conj(phi) in ``state.spectral``, so a record transforms nothing.  They
    measure the state the integrator carries; the physical route,
    ``calculus.residual_norms`` on the state's forms, agrees at roundoff.
    The margin is the smallest eigenvalue of the state's metric; this is where
    a sampled metric computes its eigenvalue range, which stage metrics never do.
    At n=3 that range runs eigvalsh only on the points whose shifted
    Sylvester minors do not certify them away from both extremes.
    """
    res = _residuals(grid, state)
    return {
        "t": state.t,
        "V": volume_V(grid, state.omega, state.phi),
        "F": global_inner_product(grid, state.phi, state.phi, state.metric).real,
        "d_omega_residual": res["d_omega"],
        "hs_constraint_residual": res["hs_constraint"],
        "del_phi_residual": res["del_phi"],
        "pluriclosed_residual": res["pluriclosed"],
        "min_eig_margin": state.metric.margin,
    }


def run_flow(grid: TorusGrid, state: FlowState, config: FlowConfig) -> FlowResult:
    """Integrate the coupled system, sampling diagnostics every few steps.

    Samples are taken at the start, every ``sample_every`` steps, and at the
    end.  A sample whose constraint residual is not within
    ``constraint_abort`` (a NaN one included) raises
    ConstraintViolationError; positivity loss during a step raises
    PositivityLostError unless the evidence points at the integrator (the
    constraint already broken, or dt above the parabolic guideline), which is
    reported as a constraint violation instead.  Either exception carries the
    records collected so far.
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
            states.append(Sample(st.t, st.omega, st.phi))
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
