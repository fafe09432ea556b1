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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .calculus import (
    TorusGrid,
    global_inner_product,
    random_band_limited,
    residual_norms,
)
from .config import FlowConfig, InitialSettings, check_mode_cutoff
from .errors import ConfigError, ConstraintViolationError, PositivityLostError
from .forms import (
    Form,
    HermitianMetric,
    conjugate,
    flat_metric,
    fundamental_form,
    metric_of_form,
    metric_trace,
)
from .volume import volume_V

__all__ = [
    "FlowState",
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


@dataclass(eq=False)
class _Remainder:
    """Fourier content of a state outside the resolved band, held fixed.

    Physical fields of that content: of the metric block (as its
    ``TorusGrid.hermitian_parts``), of phi, and of del(omega) and dbar(phi).
    The band-limited velocity never moves it, but it enters every stage's
    metric and first derivatives exactly as the full fields would.
    """

    g_parts: list
    del_omega: np.ndarray
    phi: np.ndarray
    dbar_phi: np.ndarray


@dataclass(eq=False)
class _Stage:
    """Band coefficients of (omega, phi) plus the physical fields a stage reads."""

    omega_hat: np.ndarray
    phi_hat: np.ndarray
    remainder: _Remainder
    metric: HermitianMetric
    del_omega: np.ndarray
    dbar_phi: np.ndarray


@dataclass(eq=False, repr=False)
class FlowState:
    """Flow state at one instant: the two forms plus the cached metric of omega.

    Snapshots collected by run_flow carry ``metric=None`` so a long trajectory
    does not pin hundreds of inverse-metric blocks in memory; rebuild with
    metric_of_form(state.omega) when needed.  States returned by step_rk4
    also carry their band representation (``spectral``), which the next step
    starts from; treat the forms of such a state as read-only.
    """

    t: float
    omega: Form
    phi: Form
    metric: Optional[HermitianMetric]
    spectral: Optional[_Stage] = field(default=None, repr=False)

    @classmethod
    def make(cls, grid: TorusGrid, t: float, omega: Form, phi: Form) -> "FlowState":
        """Validate bidegrees and payloads, then build the metric of omega.

        Raises PositivityLostError when omega is not a positive form.
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
        return cls(float(t), omega, phi, metric_of_form(omega))


@dataclass
class FlowResult:
    """Diagnostic series of a run, optional state snapshots, and the final state."""

    records: List[dict]
    states: List[FlowState]
    final: FlowState


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------

def _velocities(grid: TorusGrid, metric: HermitianMetric,
                del_omega: Optional[np.ndarray], dbar_phi: Optional[np.ndarray]):
    """Band coefficients of the omega and phi velocities from physical stage fields.

    The omega velocity is C + conj(C) with C = dbar of the metric trace of
    del(omega) plus half the curvature form; that trace is the
    dbar-codifferential of omega (agreement with the star-composition route,
    codifferential_dbar, is pinned in the tests).  The phi velocity is minus
    del of the metric trace of dbar(phi).  Keeping only band coefficients is
    the dealiasing projector.  Either part is skipped (None) when its input
    field is None.
    """
    n = grid.n
    omega_vel = phi_vel = None
    if del_omega is not None:
        a = metric_trace(Form(n, 2, 1, del_omega), metric)          # (1,0)
        c_hat = grid.derivative_hat(grid.to_band(a.coeffs), 1, 0, anti=True, band=True)
        c_hat += 0.5 * (grid.ddbar_band * grid.to_band(np.log(metric.det)))
        omega_vel = c_hat + grid.band_conjugate(c_hat, 1, 1)
    if dbar_phi is not None:
        traced = metric_trace(Form(n, 2, 1, dbar_phi), metric)     # (1,0)
        phi_vel = -grid.derivative_hat(grid.to_band(traced.coeffs), 1, 0,
                                       anti=False, band=True)
    return omega_vel, phi_vel


def pluriclosed_rhs(grid: TorusGrid, omega: Form, metric: HermitianMetric) -> Form:
    """Velocity of omega in its metric: both codifferential blocks plus the curvature form.

    Evaluated by the integrator's own stage (see ``_velocities``) and brought
    back through the Hermitian block transform, so the result is
    self-conjugate to the last bit.
    """
    vel, _ = _velocities(grid, metric, grid.del_form(omega).coeffs, None)
    return Form(grid.n, 1, 1, 1j * grid.hermitian_from_band(-1j * vel))


def phi_rhs(grid: TorusGrid, phi: Form, metric: HermitianMetric) -> Form:
    """Velocity of phi: minus the holomorphic derivative of the traced dbar(phi)."""
    _, vel = _velocities(grid, metric, None, grid.dbar_form(phi).coeffs)
    return Form(grid.n, 2, 0, grid.from_band(vel))


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def _band_stage(grid: TorusGrid, omega_hat: np.ndarray, phi_hat: np.ndarray,
                rem: _Remainder) -> _Stage:
    """Physical stage fields of a band state; builds (and checks) the metric.

    ``hermitian_from_band`` makes the metric block Hermitian to the last bit,
    so the metric skips the Hermiticity scan (``herm_tol=None``); positivity
    is always enforced.
    """
    g = grid.hermitian_from_band(-1j * omega_hat, rem.g_parts)
    del_omega = grid.from_band(grid.derivative_hat(omega_hat, 1, 1, anti=False, band=True))
    del_omega += rem.del_omega
    dbar_phi = grid.from_band(grid.derivative_hat(phi_hat, 2, 0, anti=True, band=True))
    dbar_phi += rem.dbar_phi
    metric = HermitianMetric.from_matrix(g, herm_tol=None)
    return _Stage(omega_hat, phi_hat, rem, metric, del_omega, dbar_phi)


def _state_stage(grid: TorusGrid, state: FlowState) -> _Stage:
    """Band representation of a state and its first-stage fields.

    Fourier content outside the band is kept as a fixed remainder, so the
    stages see all of omega and phi.  The band part of omega is symmetrized
    so that its coefficients are exactly those of a real form.
    """
    if state.spectral is not None:
        return state.spectral
    omega_hat, omega_out = grid.band_split(state.omega.coeffs)
    omega_hat = 0.5 * (omega_hat + grid.band_conjugate(omega_hat, 1, 1))
    phi_hat, phi_out = grid.band_split(state.phi.coeffs)
    rem = _Remainder(
        [grid.ifft(part) for part in grid.hermitian_parts(-1j * omega_out)],
        grid.ifft(grid.derivative_hat(omega_out, 1, 1, anti=False)),
        grid.ifft(phi_out),
        grid.ifft(grid.derivative_hat(phi_out, 2, 0, anti=True)),
    )
    return _band_stage(grid, omega_hat, phi_hat, rem)


def step_rk4(grid: TorusGrid, state: FlowState, dt: float) -> FlowState:
    """One classical RK4 step of the coupled system.

    Positivity is enforced at every stage through the metric construction
    (Sylvester's criterion, no eigenvalues); a failure raises
    PositivityLostError and leaves the caller holding the last valid state.
    The end-of-step metric is the next step's first-stage metric.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    s1 = _state_stage(grid, state)
    w0, p0, rem = s1.omega_hat, s1.phi_hat, s1.remainder

    def rate(st: _Stage):
        return _velocities(grid, st.metric, st.del_omega, st.dbar_phi)

    kw1, kp1 = rate(s1)
    kw2, kp2 = rate(_band_stage(grid, w0 + (0.5 * dt) * kw1, p0 + (0.5 * dt) * kp1, rem))
    kw3, kp3 = rate(_band_stage(grid, w0 + (0.5 * dt) * kw2, p0 + (0.5 * dt) * kp2, rem))
    kw4, kp4 = rate(_band_stage(grid, w0 + dt * kw3, p0 + dt * kp3, rem))
    sixth = dt / 6.0
    end = _band_stage(grid, w0 + sixth * (kw1 + 2.0 * kw2 + 2.0 * kw3 + kw4),
                      p0 + sixth * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4), rem)
    n = grid.n
    phi = grid.from_band(end.phi_hat)
    phi += rem.phi
    return FlowState(state.t + dt, Form(n, 1, 1, 1j * end.metric.g), Form(n, 2, 0, phi),
                     end.metric, end)


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

def make_initial_hs(grid: TorusGrid, epsilon: float = InitialSettings.epsilon,
                    seed: int = InitialSettings.seed,
                    mode_cutoff: int = InitialSettings.mode_cutoff) -> FlowState:
    """Closed random initial data: flat form plus d of a band-limited real 1-form.

    A complex (1,0)-form zeta with modes up to ``mode_cutoff`` is drawn from
    the seeded generator; the perturbation is d(zeta + conj(zeta)), split into
    its (2,0) part (phi) and its (1,1) part (added to the flat omega), then
    scaled so the largest coefficient has magnitude ``epsilon``.  The total is
    exactly d-closed by construction, and epsilon = 0 gives the flat state.
    ``mode_cutoff`` must lie in the dealias band [1, points // 3].

    Raises PositivityLostError when epsilon is large enough to destroy
    positivity of omega.
    """
    if epsilon < 0:
        raise ConfigError(f"initial.epsilon must be nonnegative, got {epsilon}")
    check_mode_cutoff(mode_cutoff, grid.points)
    n = grid.n
    rng = np.random.default_rng(seed)
    zeta = Form.zeros(n, 1, 0, grid.shape)
    for i in range(n):
        zeta.coeffs[i, 0] = random_band_limited(grid, rng, mode_cutoff, real=False)
    phi_raw = grid.del_form(zeta)                      # (2,0) part of d(zeta+conj)
    mixed = grid.dbar_form(zeta)
    omega_raw = mixed + conjugate(mixed)               # (1,1) part, exactly real
    amp = max(
        float(np.max(np.abs(phi_raw.coeffs))) if phi_raw.coeffs.size else 0.0,
        float(np.max(np.abs(omega_raw.coeffs))),
    )
    scale = epsilon / amp if amp > 0 else 0.0
    omega = fundamental_form(flat_metric(n, grid.shape)) + scale * omega_raw
    phi = scale * phi_raw
    return FlowState.make(grid, 0.0, omega, phi)


def make_initial_kahler(grid: TorusGrid, epsilon: float = InitialSettings.epsilon,
                        seed: int = InitialSettings.seed,
                        mode_cutoff: int = InitialSettings.mode_cutoff) -> FlowState:
    """Closed initial data with phi = 0: flat form plus a potential perturbation.

    omega = flat + scaled i*del(dbar(u)) for a band-limited real potential u,
    symmetrized so the coefficients are Hermitian to the last bit.  States of
    this shape keep phi identically zero along the flow.
    """
    if epsilon < 0:
        raise ConfigError(f"initial.epsilon must be nonnegative, got {epsilon}")
    check_mode_cutoff(mode_cutoff, grid.points)
    n = grid.n
    rng = np.random.default_rng(seed)
    u = random_band_limited(grid, rng, mode_cutoff)
    u_form = Form(n, 0, 0, u[(None, None)])
    pert = -1j * grid.dbar_form(grid.del_form(u_form))
    pert = 0.5 * (pert + conjugate(pert))
    amp = float(np.max(np.abs(pert.coeffs)))
    scale = epsilon / amp if amp > 0 else 0.0
    omega = fundamental_form(flat_metric(n, grid.shape)) + scale * pert
    phi = Form.zeros(n, 2, 0, grid.shape)
    return FlowState.make(grid, 0.0, omega, phi)


# ----------------------------------------------------------------------
# driving loop
# ----------------------------------------------------------------------

def diagnostics_record(grid: TorusGrid, state: FlowState) -> dict:
    """One monitoring record: time, volume, self-pairing, residuals, margin.

    The margin is the smallest eigenvalue of the state's metric; this is where
    a sampled metric computes its eigenvalue range, which stage metrics never do.
    """
    res = residual_norms(grid, state.omega, state.phi)
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
    states: List[FlowState] = []

    def take_sample(st: FlowState):
        rec = diagnostics_record(grid, st)
        records.append(rec)
        if config.collect_states:
            states.append(FlowState(st.t, st.omega, st.phi, None))
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
            last = residual_norms(grid, state.omega, state.phi)
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
