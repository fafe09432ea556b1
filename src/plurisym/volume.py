"""Volume functionals of a coupled (2,0)+(1,1) structure and the surface classifier.

The central object is the exponential-type volume of a state (omega, phi):

    V = sum_k 1/((k!)^2 (n-2k)!) * integral of phi^k ^ phibar^k ^ omega^(n-2k)

which along the coupled flow is a polynomial in t of degree at most n.  The
module builds the auxiliary wedge families alpha[k,s] and beta[s], the test
functionals P and Q, the polynomial coefficient formulas, a well-conditioned
polynomial fitter for sampled V(t), and the dimension-two root classifier
with its ruled-surface preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .calculus import (
    TorusGrid,
    chern_form,
    codifferential_dbar,
    global_inner_product,
    integrate,
    l2_norm,
)
from .config import Tolerances
from .forms import (
    Form,
    HermitianMetric,
    conjugate,
    form_power,
    metric_of_form,
    wedge,
)

__all__ = [
    "alpha_form",
    "beta_form",
    "volume_V",
    "hs_pairing_volume",
    "coefficient_a",
    "functional_P",
    "functional_Q",
    "check_beta_pluriclosed",
    "check_derivative_identities",
    "fit_polynomial",
    "VolumePolynomial",
    "ObstructionVerdict",
    "surface_obstruction",
    "ruled_a2",
]


# ----------------------------------------------------------------------
# wedge families
# ----------------------------------------------------------------------

def alpha_form(phi: Form, omega: Form, k: int, s: int) -> Form:
    """phi^k ^ phibar^k ^ omega^(n-2k-s) for k, s >= 0 and 2k+s <= n, else zero.

    The result has bidegree (n-s, n-s); the zero branch keeps that bidegree so
    sums over k broadcast cleanly.
    """
    n = omega.n
    if not 0 <= s <= n:
        raise ValueError(f"codegree s must lie in 0..{n}, got {s}")
    payload = np.broadcast_shapes(phi.payload, omega.payload)
    if k < 0 or 2 * k + s > n:
        return Form.zeros(n, n - s, n - s, payload)
    out = form_power(omega, n - 2 * k - s, payload)
    if k > 0:
        pk = form_power(phi, k)
        out = wedge(wedge(pk, form_power(conjugate(phi), k)), out)
    return out


def beta_form(phi: Form, omega: Form, s: int) -> Form:
    """Weighted sum over k of alpha[k,s] / ((k!)^2 (n-2k-s)!)."""
    n = omega.n
    if not 0 <= s <= n:
        raise ValueError(f"codegree s must lie in 0..{n}, got {s}")
    payload = np.broadcast_shapes(phi.payload, omega.payload)
    out = Form.zeros(n, n - s, n - s, payload)
    for k in range(0, (n - s) // 2 + 1):
        weight = 1.0 / (math.factorial(k) ** 2 * math.factorial(n - 2 * k - s))
        out = out + weight * alpha_form(phi, omega, k, s)
    return out


def volume_V(grid: TorusGrid, omega: Form, phi: Form) -> float:
    """Exponential-type volume: the integral of beta[0]."""
    return integrate(grid, beta_form(phi, omega, 0)).real


def hs_pairing_volume(grid: TorusGrid, omega: Form, phi: Form,
                      metric: Optional[HermitianMetric] = None) -> float:
    """Same quantity through the metric pairing route: sum_k (phi^k, phi^k) / (k!)^2.

    Independent of :func:`volume_V` (Hodge pairings instead of wedge
    integrals); the two agree by the primitivity of (2k,0)-forms.
    """
    n = omega.n
    if metric is None:
        metric = metric_of_form(omega)
    total = 0.0
    for k in range(0, n // 2 + 1):
        pk = form_power(phi, k, np.broadcast_shapes(phi.payload, omega.payload))
        val = global_inner_product(grid, pk, pk, metric).real
        total += val / math.factorial(k) ** 2
    return total


def coefficient_a(grid: TorusGrid, omega: Form, phi: Form, i: int) -> float:
    """Time-polynomial coefficient a_i of the volume, from the initial state.

    a_i = (1/i!) * integral of beta[i] ^ (curvature form)^i evaluated on the
    given fields; a_0 reduces to the volume itself.
    """
    n = grid.n
    if i < 0 or i > n:
        raise ValueError(f"coefficient index must lie in 0..{n}, got {i}")
    if i == 0:
        return volume_V(grid, omega, phi)
    c = chern_form(grid, metric_of_form(omega))
    integrand = wedge(beta_form(phi, omega, i), form_power(c, i))
    return integrate(grid, integrand).real / math.factorial(i)


# ----------------------------------------------------------------------
# test functionals
# ----------------------------------------------------------------------

def _validate_psi(grid: TorusGrid, psi: Form, s: int, tol: float = 1e-10):
    if psi.degree != 2 * s:
        raise ValueError(f"test form must have degree {2 * s}, got bidegree {psi.bidegree}")
    scale = max(float(np.max(np.abs(psi.coeffs))) if psi.coeffs.size else 0.0, 1e-30)
    # "not <=" so that a NaN norm fails the check
    if not l2_norm(grid, conjugate(psi) - psi) <= tol * scale:
        raise ValueError("test form is not real")
    if psi.payload == ():
        return  # constant coefficients: closed for free
    field = psi if psi.payload == grid.shape else None
    if field is None:
        raise ValueError(f"test form payload {psi.payload} does not match the grid")
    del_field, dbar_field = grid.derivatives(field)
    if not l2_norm(grid, del_field) <= tol * scale:
        raise ValueError("test form is not del-closed")
    if not l2_norm(grid, dbar_field) <= tol * scale:
        raise ValueError("test form is not dbar-closed")


def functional_P(grid: TorusGrid, phi: Form, omega: Form, k: int, s: int,
                 psi: Form) -> float:
    """P[k,s;psi] = integral of alpha[k,s] ^ psi for a real bi-closed test form psi."""
    _validate_psi(grid, psi, s)
    return integrate(grid, wedge(alpha_form(phi, omega, k, s), psi)).real


def functional_Q(grid: TorusGrid, phi: Form, omega: Form, s: int, psi: Form) -> float:
    """Q[s;psi] = integral of beta[s] ^ psi for a real bi-closed test form psi."""
    _validate_psi(grid, psi, s)
    return integrate(grid, wedge(beta_form(phi, omega, s), psi)).real


def check_beta_pluriclosed(grid: TorusGrid, omega: Form, phi: Form, s: int) -> float:
    """Flat L2 norm of d dbar beta[s]; small only through the coupling cancellation."""
    b = beta_form(phi, omega, s)
    return l2_norm(grid, grid.dbar_form(grid.del_form(b)))


# ----------------------------------------------------------------------
# trajectory identities
# ----------------------------------------------------------------------

def _diff5(values: np.ndarray, idx: int, h: float) -> float:
    """Fourth-order centered difference, valid for 2 <= idx <= len-3."""
    return float(
        (-values[idx + 2] + 8 * values[idx + 1]
         - 8 * values[idx - 1] + values[idx - 2]) / (12 * h)
    )


def _diff3(values: np.ndarray, idx: int, h: float) -> float:
    return float((values[idx + 1] - values[idx - 1]) / (2 * h))


def _rate_floor(series: np.ndarray, horizon: float, ambient: float) -> float:
    """Natural scale for a rate of ``series`` when the formula side vanishes.

    The largest of the series' total variation range, a roundoff-sized
    fraction of its magnitude, and a roundoff-sized fraction of the ambient
    volume scale (for series that are identically zero, e.g. the pairing on a
    Kähler run), spread over the horizon.  Keeps identities whose both sides
    are structurally zero from dividing finite-difference noise by zero,
    while staying far below any genuinely nonzero rate.
    """
    spread = float(np.max(series) - np.min(series))
    scale = max(spread, 1e-9 * float(np.max(np.abs(series))), 1e-12 * ambient)
    return max(scale / horizon, 1e-300)


def check_derivative_identities(grid: TorusGrid, states: Sequence,
                                resolution_guard: float = Tolerances.resolution_guard) -> dict:
    """Compare centered-difference time derivatives with their integral formulas.

    ``states`` are evenly spaced trajectory samples carrying .t, .omega and
    .phi (``flow.Sample``); the metric of omega is rebuilt here, bit for bit
    the one the flow certified.  Three identities are checked: dV/dt against
    Q[1; curvature form], dF/dt against -2 <dbar omega, dbar omega> in the
    evolving metric, and (in dimension two) the rate of the squared-volume
    functional P[0,0; 1] against its torsion-pairing plus curvature terms,
    with the torsion evaluated through the star-composition codifferential
    so the route is independent of the flow's own.

    Differencing uses the interior 5-point stencil.  A sample where the
    5-point and 3-point estimates disagree by more than ``resolution_guard``
    relatively carries time content too fast for the sampling to resolve
    (early transients of tightly-banded initial data); such samples are
    counted as unresolved and excluded from the error aggregate rather than
    reported as identity violations.  A genuine violation of an identity is
    sampling-independent and fails the resolved samples as well.

    Relative errors are measured against the formula side, floored by the
    series' own variation per unit horizon: on the flat torus both sides of
    the volume-rate identity vanish identically (the curvature form is
    globally exact and the evolving form stays pluriclosed, so the pairing
    integrates to zero by parts), and the same degeneracy hits every rate on
    a Kähler trajectory, leaving nothing meaningful to divide by.

    Returns a dict keyed by identity with per-sample relative errors over the
    resolved samples, their maximum, and the unresolved count.
    """
    if len(states) < 7:
        raise ValueError(
            "need at least 7 evenly spaced samples for guarded 5-point differences"
        )
    if not resolution_guard > 0:
        raise ValueError(f"resolution_guard must be positive, got {resolution_guard}")
    ts = np.array([st.t for st in states], dtype=float)
    hs = np.diff(ts)
    h = float(hs[0])
    if h <= 0 or not np.allclose(hs, h, rtol=1e-9, atol=1e-14):
        raise ValueError("samples must be evenly spaced in time")
    n = grid.n
    horizon = float(ts[-1] - ts[0])

    vols = np.empty(len(states))
    fs = np.empty(len(states))
    ps = np.empty(len(states))
    interior = range(2, len(states) - 2)
    rhs_at = {}
    for k, st in enumerate(states):
        metric = metric_of_form(st.omega)
        vols[k] = volume_V(grid, st.omega, st.phi)
        fs[k] = global_inner_product(grid, st.phi, st.phi, metric).real
        if n == 2:
            ps[k] = integrate(grid, form_power(st.omega, 2)).real
        if k not in interior:
            continue
        c = chern_form(grid, metric)
        dbar_om = grid.dbar_form(st.omega)
        rhs = {
            "volume_rate": integrate(
                grid, wedge(beta_form(st.phi, st.omega, 1), c)).real,
            "pairing_rate": -2.0 * global_inner_product(
                grid, dbar_om, dbar_om, metric).real,
        }
        if n == 2:
            torsion = codifferential_dbar(grid, st.omega, metric)
            rhs["p_rate"] = (
                4.0 * integrate(grid, wedge(torsion, dbar_om)).real
                + 2.0 * integrate(grid, wedge(st.omega, c)).real
            )
        rhs_at[k] = rhs

    series = {"volume_rate": vols, "pairing_rate": fs}
    if n == 2:
        series["p_rate"] = ps
    ambient = float(np.max(np.abs(vols)))
    floors = {key: _rate_floor(vals, horizon, ambient) for key, vals in series.items()}
    report = {key: {"rel_errors": [], "unresolved": 0} for key in series}

    for i in interior:
        rhs = rhs_at[i]
        for key, vals in series.items():
            fd5 = _diff5(vals, i, h)
            fd3 = _diff3(vals, i, h)
            denom = max(abs(fd5), floors[key])
            if abs(fd5 - fd3) / denom > resolution_guard:
                report[key]["unresolved"] += 1
                continue
            report[key]["rel_errors"].append(
                abs(fd5 - rhs[key]) / max(abs(rhs[key]), floors[key])
            )

    for key, entry in report.items():
        if not entry["rel_errors"]:
            raise ValueError(
                f"no resolved samples for {key}: the sampling is too coarse for "
                "the trajectory's fastest content"
            )
        # np.max keeps a NaN error, which Python's max drops unless it comes first
        entry["max_rel_error"] = float(np.max(entry["rel_errors"]))
    return report


# ----------------------------------------------------------------------
# polynomial fitting
# ----------------------------------------------------------------------

@dataclass
class VolumePolynomial:
    """Volume polynomial with per-coefficient provenance."""

    degree_bound: int
    coeffs: np.ndarray                # ascending powers, length degree_bound + 1
    provenance: tuple                 # "fitted" | "integral-formula" per coefficient

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(t, self.coeffs)


def fit_polynomial(ts: Sequence[float], vs: Sequence[float], degree: int):
    """Least-squares polynomial fit of sampled values, returned in the monomial basis.

    The regression runs in a Legendre basis shifted to the sample interval
    (monomial normal equations are badly conditioned even at low degree) and
    converts back.  Requires at least 2*(degree+1) samples with more distinct
    times than the degree.  Returns (VolumePolynomial, relative rms residual).
    """
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if ts.shape != vs.shape or ts.ndim != 1:
        raise ValueError("need matching 1-d sample arrays")
    if len(ts) < 2 * (degree + 1):
        raise ValueError(
            f"need at least {2 * (degree + 1)} samples for a degree-{degree} fit, got {len(ts)}"
        )
    if len(np.unique(ts)) <= degree:
        raise ValueError("sample times are degenerate for this degree")
    leg = np.polynomial.legendre.Legendre.fit(ts, vs, degree)
    poly = leg.convert(kind=np.polynomial.polynomial.Polynomial)
    coeffs = np.zeros(degree + 1)
    coeffs[: len(poly.coef)] = poly.coef
    residual = float(np.sqrt(np.mean((leg(ts) - vs) ** 2)))
    scale = float(np.sqrt(np.mean(vs ** 2)))
    if scale > 0:
        residual /= scale
    vp = VolumePolynomial(degree, coeffs, tuple("fitted" for _ in coeffs))
    return vp, residual


# ----------------------------------------------------------------------
# dimension-two obstruction classifier
# ----------------------------------------------------------------------

@dataclass
class ObstructionVerdict:
    """Root analysis of a_0 + a_1 t + a_2 t^2 on the positive half-line."""

    a0: float
    a1: float
    a2: float
    discriminant: Optional[float]     # None in the linear case
    min_positive_root: Optional[float]
    obstructed: bool


def surface_obstruction(a0: float, a1: float, a2: float) -> ObstructionVerdict:
    """Classify whether the volume polynomial forces finite-time breakdown.

    Follows the dimension-two case table: the flow cannot continue past a
    positive root of a_0 + a_1 t + a_2 t^2, so `obstructed` is exactly
    "a strictly positive real root exists".  Roots are computed with the
    numerically stable quadratic formula.
    """
    a0, a1, a2 = float(a0), float(a1), float(a2)
    if a0 <= 0:
        raise ValueError(f"constant coefficient must be positive, got {a0}")
    if a2 == 0.0:
        root = -a0 / a1 if a1 < 0 else None
        return ObstructionVerdict(a0, a1, a2, None, root, root is not None)
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0 or (a2 > 0.0 and a1 >= 0.0):
        return ObstructionVerdict(a0, a1, a2, disc, None, False)
    # q carries the stable sign choice; the two roots are q/a2 and a0/q
    sgn = 1.0 if a1 >= 0.0 else -1.0
    q = -0.5 * (a1 + sgn * math.sqrt(disc))
    candidates = [r for r in (q / a2, a0 / q) if r > 0.0]
    root = min(candidates) if candidates else None
    return ObstructionVerdict(a0, a1, a2, disc, root, root is not None)


def ruled_a2(genus: int) -> float:
    """Quadratic coefficient preset for ruled surfaces of the given genus.

    The self-intersection of the first Chern class is 8(1-genus) on these
    surfaces, and a_2 is half of it.
    """
    return 4.0 * (1 - int(genus))
