"""Structural self-checks: pointwise algebra suites and spectral calculus suites.

Every check pits two independently implemented routes against each other
(combinatorial star table vs contraction table, composed derivatives vs zero,
integration by parts vs direct integrals) and records the worst error over a
batch of random draws.  The suites exist so a build can be validated end to
end from the command line; the unit tests cover the same ground with frozen
cases, while these run fresh randomized batches on every invocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .calculus import (
    TorusGrid,
    chern_form,
    codifferential_dbar,
    codifferential_del,
    global_inner_product,
    integrate,
    l2_norm,
    random_band_limited,
    residual_norms,
)
from .forms import (
    Form,
    HermitianMetric,
    conjugate,
    flat_metric,
    form_power,
    fundamental_form,
    hodge_star,
    inner_product,
    metric_of_form,
    metric_trace,
    volume_form,
    wedge,
)

__all__ = [
    "CheckResult",
    "pointwise_suite",
    "calculus_suite",
    "run_all_suites",
    "POINTWISE_SAMPLES",
    "DEFAULT_SEED",
]

POINTWISE_SAMPLES = 100
DEFAULT_SEED = 20250819


@dataclass
class CheckResult:
    """Outcome of one invariant batch: worst error seen against its tolerance."""

    name: str
    worst_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.worst_error <= self.tolerance)

    def row(self) -> dict:
        return {
            "name": self.name,
            "worst_error": float(self.worst_error),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
        }


def _random_metric(rng: np.random.Generator, n: int) -> HermitianMetric:
    """Random strictly positive Hermitian metric with condition number O(n)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = a @ a.conj().T + np.eye(n)
    return HermitianMetric.from_matrix(g)

def _random_form(rng: np.random.Generator, n: int, p: int, q: int) -> Form:
    shape = (math.comb(n, p), math.comb(n, q))
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Form(n, p, q, coeffs)


def _flat_norm(a: Form) -> float:
    return float(np.sqrt(np.sum(np.abs(a.coeffs) ** 2)))


def _worst(*errors: float) -> float:
    """Largest error, NaN if any is NaN; Python's max drops a NaN that does not come first."""
    return float(np.max(errors))


# ----------------------------------------------------------------------
# pointwise suites
# ----------------------------------------------------------------------

def pointwise_suite(seed: int = DEFAULT_SEED,
                    samples: int = POINTWISE_SAMPLES) -> List[CheckResult]:
    """Pointwise exterior-algebra invariants over random (metric, form) draws.

    The headline check contracts a (2,1)-form against the metric two ways:
    through the Hodge star of its wedge with omega^(n-2), and through the
    contraction table.  Star and contraction never share code, so agreement
    pins the orientation, the pairing normalization, and both combinatorial
    tables at once; a negated contraction fails exactly these checks.
    """
    rng = np.random.default_rng(seed)
    results: List[CheckResult] = []

    for n in (2, 3, 4):
        worst = 0.0
        fact = float(math.factorial(n - 2))
        for _ in range(samples):
            m = _random_metric(rng, n)
            beta = _random_form(rng, n, 2, 1)
            starred = hodge_star(wedge(form_power(fundamental_form(m), n - 2), beta), m)
            contracted = metric_trace(beta, m)
            residual = starred + fact * contracted
            worst = _worst(worst, _flat_norm(residual) / _flat_norm(beta))
        results.append(CheckResult(f"star-trace contraction n={n}", worst, 1e-12))

    star_worst = 0.0
    pairing_worst = 0.0
    weil_worst = 0.0
    round_worst = 0.0
    for n in (2, 3, 4):
        for _ in range(samples // 2):
            m = _random_metric(rng, n)
            vol = volume_form(m)
            p = int(rng.integers(0, n + 1))
            q = int(rng.integers(0, n + 1))
            a = _random_form(rng, n, p, q)
            b = _random_form(rng, n, p, q)
            # defining property of the star: a ^ star(conj b) = <a,b> vol
            lhs = wedge(a, hodge_star(conjugate(b), m)).coeffs[0, 0]
            want = complex(inner_product(a, b, m)) * vol.coeffs[0, 0]
            scale = max(abs(want), _flat_norm(a) * _flat_norm(b), 1e-300)
            star_worst = _worst(star_worst, abs(lhs - want) / scale)
            # conjugate symmetry of the pairing
            pairing_worst = _worst(
                pairing_worst,
                abs(complex(inner_product(a, b, m))
                    - complex(inner_product(b, a, m)).conjugate()) / scale,
            )
        w = fundamental_form(m)
        weil_worst = _worst(weil_worst, abs(complex(inner_product(w, w, m)) - n))
        back = metric_of_form(w)
        round_worst = _worst(
            round_worst,
            float(np.max(np.abs(back.g - m.g))) / float(np.max(np.abs(m.g))),
        )
    results.append(CheckResult("star defining property", star_worst, 1e-11))
    results.append(CheckResult("pairing conjugate symmetry", pairing_worst, 1e-12))
    results.append(CheckResult("fundamental form self-pairing = n", weil_worst, 1e-11))
    results.append(CheckResult("metric round trip", round_worst, 1e-13))
    return results


# ----------------------------------------------------------------------
# grid calculus suites
# ----------------------------------------------------------------------

def _grid_components(grid: TorusGrid, hat: np.ndarray, p: int, q: int, anti: bool):
    """d or dbar of a (p,q)-field from its full-grid coefficients, one physical component at a time.

    Yields ``(slot, component)`` as ``TorusGrid.derivative_components``
    does, each component transformed back in place in the walk's buffer.
    """
    for slot, comp in grid.derivative_components(hat, p, q, anti):
        yield slot, grid.ifft(comp, out=comp)


def _component_norm(components) -> float:
    """``l2_norm`` of a field given one physical component at a time.

    The pointwise squares are summed over the components in C order, the
    sum ``Form.flat_norm_sq`` takes, so the norm keeps its bits.
    """
    total = None
    for _, comp in components:
        sq = np.abs(comp) ** 2
        if total is None:
            total = sq
        else:
            total += sq
    return 0.0 if total is None else float(np.sqrt(np.mean(total)))


def _grid_draws(grid: TorusGrid, rng: np.random.Generator, p: int, q: int,
                cutoff: int = 2) -> Form:
    n = grid.n
    out = Form.zeros(n, p, q, grid.shape)
    for i in range(out.coeffs.shape[0]):
        for j in range(out.coeffs.shape[1]):
            out.coeffs[i, j] = random_band_limited(grid, rng, cutoff, real=False)
    return out


def _varying_metric_errors(grid: TorusGrid, rng: np.random.Generator):
    """Adjointness, torsion-trace and curvature errors of one random metric on grid.

    Each field is dropped after its last use.  The torsion identity comes
    first, before the inverse metric is cached, and the curvature check
    last, once the curvature form is the only field alive; each of its
    derivatives is reduced to its norm before the other one is.
    """
    n = grid.n
    # metric bumps stay at one mode so products of the inverse metric keep
    # their spectral tail far below Nyquist even on the coarse n=3 grid;
    # wider bumps alias the star-composition route visibly at N=8
    bump = _grid_draws(grid, rng, 1, 1, cutoff=1)
    bump = 0.05 * (bump + conjugate(bump))
    omega = fundamental_form(flat_metric(n, grid.shape)) + bump
    del bump
    m = metric_of_form(omega)
    # the identity behind the flow's cheap torsion route
    rhs_t = metric_trace(grid.del_form(omega), m)
    lhs_t = codifferential_dbar(grid, omega, m)
    del omega
    torsion = l2_norm(grid, lhs_t - rhs_t) / max(l2_norm(grid, rhs_t), 1e-300)
    del lhs_t, rhs_t
    # adjointness of del against its codifferential in the varying metric
    a = grid.truncate(_grid_draws(grid, rng, 1, 0))
    b = grid.truncate(_grid_draws(grid, rng, 2, 0))
    lhs = global_inner_product(grid, grid.del_form(a), b, m)
    rhs = global_inner_product(grid, a, codifferential_del(grid, b, m), m)
    del a, b
    adj = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    c = chern_form(grid, m)
    del m
    real = l2_norm(grid, conjugate(c) - c)
    dc, bc = grid.derivatives(c)
    del c
    closed_del = l2_norm(grid, dc)
    del dc
    chern = _worst(real, closed_del, l2_norm(grid, bc))
    return adj, torsion, chern


def calculus_suite(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Spectral-calculus invariants on the standard desk-scale grids.

    Covers nilpotency of the derivatives, Stokes on the torus, adjointness of
    the codifferentials in a varying metric, the torsion-trace identity the
    flow relies on, reality and closedness of the curvature form, spectral
    differentiation accuracy, and unit flat volume.
    """
    rng = np.random.default_rng(seed)
    results: List[CheckResult] = []
    grids = (TorusGrid(2, 16), TorusGrid(3, 8))

    nil_worst = 0.0
    stokes_worst = 0.0
    for grid in grids:
        n = grid.n
        for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
            a = _grid_draws(grid, rng, p, q)
            norm = max(l2_norm(grid, a), 1e-300)
            # one forward transform per field, in place for the first
            # derivatives; dda, bba and dba are built one component at a
            # time, the first two reduced to their norms and dba added into
            # bda
            da, ba = grid.derivatives(a)
            del a
            hat = grid.fft(da.coeffs, out=da.coeffs)
            del da
            dd = _component_norm(_grid_components(grid, hat, p + 1, q, anti=False)) / norm
            bda = grid.derivative_hat(hat, p + 1, q, anti=True)
            del hat
            grid.ifft(bda, out=bda)
            hat = grid.fft(ba.coeffs, out=ba.coeffs)
            del ba
            bb = _component_norm(_grid_components(grid, hat, p, q + 1, anti=True)) / norm
            for slot, dba in _grid_components(grid, hat, p, q + 1, anti=False):
                bda[slot] += dba
            del hat
            mixed = l2_norm(grid, Form(n, p + 1, q + 1, bda)) / norm
            del bda
            nil_worst = _worst(nil_worst, dd, bb, mixed)
        # integrals of exact top-degree forms vanish
        chi = _grid_draws(grid, rng, n - 1, n)
        eta = _grid_draws(grid, rng, n, n - 1)
        top_scale = max(l2_norm(grid, chi), l2_norm(grid, eta), 1e-300)
        stokes_worst = _worst(
            stokes_worst,
            abs(integrate(grid, grid.del_form(chi))) / top_scale,
            abs(integrate(grid, grid.dbar_form(eta))) / top_scale,
        )
        del chi, eta
    results.append(CheckResult("derivative nilpotency", nil_worst, 1e-12))
    results.append(CheckResult("stokes on the torus", stokes_worst, 1e-10))

    adj_worst = 0.0
    torsion_worst = 0.0
    chern_worst = 0.0
    for grid in grids:
        adj, torsion, chern = _varying_metric_errors(grid, rng)
        adj_worst = _worst(adj_worst, adj)
        torsion_worst = _worst(torsion_worst, torsion)
        chern_worst = _worst(chern_worst, chern)
    results.append(CheckResult("codifferential adjointness", adj_worst, 1e-10))
    results.append(CheckResult("torsion trace identity", torsion_worst, 1e-10))
    results.append(CheckResult("curvature form real and closed", chern_worst, 1e-10))

    # spectral differentiation of one explicit wave, cos(2 pi (2 x^1 - y^2)),
    # against its hand-computed holomorphic derivatives
    grid = TorusGrid(2, 16)
    x = grid.coordinates()
    theta = 2 * np.pi * (2 * x[0] - x[3])
    f = Form(2, 0, 0, np.broadcast_to(np.cos(theta), grid.shape)[(None, None)])
    df = grid.del_form(f)
    s = np.sin(theta)
    spec_err = float(np.max(np.abs(df.coeffs[0, 0] - (-2 * np.pi) * s)))
    spec_err = _worst(spec_err, float(np.max(np.abs(df.coeffs[1, 0] - (-1j * np.pi) * s))))
    results.append(CheckResult("spectral derivative of a wave", spec_err, 1e-11))

    flat_err = 0.0
    for grid in grids:
        m = flat_metric(grid.n, grid.shape)
        flat_err = _worst(flat_err, abs(integrate(grid, volume_form(m)) - 1.0))
        omega = fundamental_form(m)
        del m
        res = residual_norms(grid, omega, Form.zeros(grid.n, 2, 0, grid.shape))
        del omega
        flat_err = _worst(flat_err, *res.values())
    results.append(CheckResult("flat state is exactly structured", flat_err, 1e-13))
    return results


def run_all_suites(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """All invariant suites in report order."""
    return pointwise_suite(seed) + calculus_suite(seed)
