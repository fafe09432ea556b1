"""Spectral torus calculus: derivatives, integration, codifferentials, curvature."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from plurisym.calculus import (
    TorusGrid,
    _roots_of_unity,
    chern_form,
    codifferential_dbar,
    codifferential_del,
    global_inner_product,
    integrate,
    l2_norm,
    random_band_limited,
    residual_norms,
    residual_norms_hat,
)
from plurisym.forms import (
    Form,
    HermitianMetric,
    conjugate,
    flat_metric,
    fundamental_form,
    hodge_star,
    inner_product,
    metric_of_form,
    metric_trace,
    volume_form,
    wedge,
)

from oracles import oracle_band_conjugate, oracle_ddbar_band, random_hermitian_positive


def random_field(grid, rng, p, q, cutoff=1):
    f = Form.zeros(grid.n, p, q, grid.shape)
    for i in range(f.coeffs.shape[0]):
        for j in range(f.coeffs.shape[1]):
            f.coeffs[i, j] = random_band_limited(grid, rng, cutoff, real=False)
    return f


def flat_l2(f):
    if f.coeffs.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(f.flat_norm_sq())))


def random_metric_field(grid, rng, eps=0.05, cutoff=1):
    """Positive Hermitian metric field: identity plus a small Hermitian perturbation."""
    n = grid.n
    g = np.zeros((n, n) + grid.shape, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            g[i, j] = random_band_limited(grid, rng, cutoff, real=False)
    g = 0.5 * (g + np.conj(np.swapaxes(g, 0, 1)))
    g *= eps / max(np.max(np.abs(g)), 1e-30)
    for i in range(n):
        g[i, i] += 1.0
    return HermitianMetric.from_matrix(g)


# ----------------------------------------------------------------------
# Fourier multipliers
# ----------------------------------------------------------------------

def test_derivative_of_coordinate_waves():
    """d/dz and d/dzbar on exp(2 pi i x^1) and exp(2 pi i y^1), frozen factors."""
    grid = TorusGrid(2, 8)
    x1, y1 = grid.coordinates()[0], grid.coordinates()[1]
    base = np.broadcast_to(np.exp(2j * np.pi * x1), grid.shape).copy()
    f = Form(2, 0, 0, base[np.newaxis, np.newaxis])

    df = grid.del_form(f)
    assert np.allclose(df.coeffs[0, 0], np.pi * 1j * base, atol=1e-12)
    assert np.allclose(df.coeffs[1, 0], 0.0, atol=1e-12)
    dbf = grid.dbar_form(f)
    assert np.allclose(dbf.coeffs[0, 0], np.pi * 1j * base, atol=1e-12)

    basey = np.broadcast_to(np.exp(2j * np.pi * y1), grid.shape).copy()
    fy = Form(2, 0, 0, basey[np.newaxis, np.newaxis])
    assert np.allclose(grid.del_form(fy).coeffs[0, 0], np.pi * basey, atol=1e-12)
    assert np.allclose(grid.dbar_form(fy).coeffs[0, 0], -np.pi * basey, atol=1e-12)


@pytest.mark.parametrize(
    "n, points, p, q",
    [(n, points, p, q) for n, points in ((2, 8), (3, 4))
     for p in range(n + 1) for q in range(n + 1)],
)
def test_derivatives_match_del_and_dbar_bitwise(count_fields, n, points, p, q):
    grid = TorusGrid(n, points)
    a = random_field(grid, np.random.default_rng(10 * p + q), p, q)
    forward = count_fields("fft")
    da, ba = grid.derivatives(a)
    # one forward transform, and none when both parts are empty
    assert len(forward) == (0 if (p, q) == (n, n) else 1)
    for got, want in ((da, grid.del_form(a)), (ba, grid.dbar_form(a))):
        assert got.bidegree == want.bidegree
        assert np.array_equal(got.coeffs, want.coeffs)


def test_derivative_against_trig_identity():
    grid = TorusGrid(2, 8)
    c = grid.coordinates()
    x2, y2 = c[2], c[3]
    u = np.broadcast_to(np.sin(2 * np.pi * x2) * np.cos(2 * np.pi * y2), grid.shape).copy()
    f = Form(2, 0, 0, u[np.newaxis, np.newaxis].astype(np.complex128))
    # d/dz^2 = (d/dx^2 - i d/dy^2) / 2
    ux = 2 * np.pi * np.cos(2 * np.pi * x2) * np.cos(2 * np.pi * y2)
    uy = -2 * np.pi * np.sin(2 * np.pi * x2) * np.sin(2 * np.pi * y2)
    want = 0.5 * (ux - 1j * uy)
    got = grid.del_form(f).coeffs[1, 0]
    assert np.max(np.abs(got - np.broadcast_to(want, grid.shape))) < 1e-11


def test_second_derivatives_cancel():
    rng = np.random.default_rng(211)
    grid = TorusGrid(2, 8)
    for p, q in [(0, 0), (1, 0), (1, 1), (0, 2)]:
        a = random_field(grid, rng, p, q, cutoff=2)
        dd = grid.del_form(grid.del_form(a))
        bb = grid.dbar_form(grid.dbar_form(a))
        mixed = grid.del_form(grid.dbar_form(a)) + grid.dbar_form(grid.del_form(a))
        for r in (dd, bb, mixed):
            assert flat_l2(r) < 1e-11, f"({p},{q})"


def test_leibniz_rule_on_band_limited_fields():
    rng = np.random.default_rng(223)
    grid = TorusGrid(2, 8)
    a = random_field(grid, rng, 1, 0, cutoff=1)
    b = random_field(grid, rng, 0, 1, cutoff=1)
    lhs = grid.del_form(wedge(a, b))
    rhs = wedge(grid.del_form(a), b) - wedge(a, grid.del_form(b))
    assert flat_l2(lhs - rhs) < 1e-11


def test_spectral_accuracy_improves_with_resolution():
    """Derivative error of exp(sin(2 pi x^1)) collapses as the grid refines."""
    errs = []
    for pts in (12, 24):
        grid = TorusGrid(2, pts)
        x1 = grid.coordinates()[0]
        u = np.broadcast_to(np.exp(np.sin(2 * np.pi * x1)), grid.shape).copy()
        f = Form(2, 0, 0, u[np.newaxis, np.newaxis].astype(np.complex128))
        got = grid.del_form(f).coeffs[0, 0]
        want = np.pi * np.cos(2 * np.pi * x1) * u  # d/dz of a y-independent function
        errs.append(float(np.max(np.abs(got - np.broadcast_to(want, grid.shape)))))
    assert errs[0] < 1e-2
    assert errs[1] < 1e-10
    assert errs[0] / max(errs[1], 1e-300) > 1e4


def test_truncate_removes_only_high_modes():
    grid = TorusGrid(2, 12)  # dealias cutoff 4
    x1 = grid.coordinates()[0]
    low = np.cos(2 * np.pi * 2 * x1)
    high = np.cos(2 * np.pi * 5 * x1)
    u = np.broadcast_to(low + high, grid.shape).copy().astype(np.complex128)
    f = Form(2, 0, 0, u[np.newaxis, np.newaxis])
    t = grid.truncate(f)
    assert np.max(np.abs(t.coeffs[0, 0] - np.broadcast_to(low, grid.shape))) < 1e-12


# ----------------------------------------------------------------------
# band transforms
# ----------------------------------------------------------------------

# odd and non-power-of-two grids included
BAND_GRIDS = [(2, 8), (2, 9), (2, 16), (3, 6), (3, 8)]


def band_index(grid):
    """Index of the resolved band inside the grid's Fourier coefficients."""
    c = grid.dealias_cutoff
    keep = np.r_[0:c + 1, grid.points - c:grid.points]
    return (slice(None),) + np.ix_(*[keep] * (2 * grid.n))


def random_fields(grid, real, count=2):
    rng = np.random.default_rng(grid.points)
    f = rng.standard_normal((count,) + grid.shape)
    return f if real else f + 1j * rng.standard_normal(f.shape)


def fftn(grid, f):
    """numpy's FFT over the grid axes: an oracle independent of TorusGrid's engine."""
    return np.fft.fftn(f, axes=range(-2 * grid.n, 0))


def ifftn(grid, f):
    return np.fft.ifftn(f, axes=range(-2 * grid.n, 0))


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n, points", BAND_GRIDS)
def test_to_band_is_the_grid_fft_on_the_band(n, points, real):
    grid = TorusGrid(n, points)
    f = random_fields(grid, real)
    band = grid.to_band(f)
    assert band.shape == (2,) + grid.band_shape
    assert_close(band, fftn(grid, f)[band_index(grid)])


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n, points", BAND_GRIDS)
def test_from_band_is_the_zero_padded_grid_ifft(n, points, real):
    # "real": the band coefficients of a real field
    grid = TorusGrid(n, points)
    band = fftn(grid, random_fields(grid, real))[band_index(grid)]
    padded = np.zeros((2,) + grid.shape, dtype=np.complex128)
    padded[band_index(grid)] = band
    assert_close(grid.from_band(band), ifftn(grid, padded))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n, points", BAND_GRIDS)
def test_grid_fft_and_ifft_are_numpys(n, points, real):
    # leading component axes (2, 3), as a (1,1)-form's coefficients carry them
    grid = TorusGrid(n, points)
    rng = np.random.default_rng(points)
    f = rng.standard_normal((2, 3) + grid.shape)
    if not real:
        f = f + 1j * rng.standard_normal(f.shape)
    assert_close(grid.fft(f), fftn(grid, f))
    assert_close(grid.ifft(f), ifftn(grid, f))


@pytest.mark.parametrize("points", range(4, 65))
def test_transforms_match_numpy_on_every_grid_size(points):
    # integer frequencies: fftfreq(N) * N truncated to int once read 6 for 7
    # (first at N=17), which put wrong rows in the band matrices
    grid = TorusGrid(1, points)
    rng = np.random.default_rng(points)
    f = rng.standard_normal((2,) + grid.shape) + 1j * rng.standard_normal((2,) + grid.shape)
    hat = fftn(grid, f)
    assert_close(grid.fft(f), hat)
    assert_close(grid.ifft(f), ifftn(grid, f))
    assert_close(grid.to_band(f), hat[band_index(grid)])
    padded = np.zeros_like(hat)
    padded[band_index(grid)] = hat[band_index(grid)]
    assert_close(grid.from_band(hat[band_index(grid)]), ifftn(grid, padded))


@pytest.mark.parametrize("points", range(4, 65))
def test_roots_of_unity_are_exact_in_their_symmetries(points):
    w = _roots_of_unity(points)
    m = np.arange(points)
    assert np.array_equal(w[(points - m) % points], np.conj(w))
    if points % 2 == 0:
        assert np.array_equal(w[(m + points // 2) % points], -w)
        assert w[points // 2] == -1
    if points % 4 == 0:
        assert w[points // 4] == -1j and w[3 * points // 4] == 1j
    assert w[0] == 1
    assert np.max(np.abs(w - np.exp(-2j * np.pi * m / points))) <= 2e-15


@pytest.mark.parametrize("n, points", [(2, 8), (2, 9), (3, 6)])
def test_from_band_into_out_is_bitwise(n, points):
    # leading component axes, written into a fresh buffer and into a slot of
    # a larger block; the same bits as a new array
    grid = TorusGrid(n, points)
    rng = np.random.default_rng(points)
    shape = (2, 3) + grid.band_shape
    band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = grid.from_band(band)
    out = np.full((2, 3) + grid.shape, np.nan + 0j)
    assert grid.from_band(band, out=out) is out
    assert np.array_equal(out, want)
    block = np.full((3, 2, 3) + grid.shape, np.nan + 0j)
    grid.from_band(band, out=block[1])
    assert np.array_equal(block[1], want)
    assert np.isnan(block[0]).all() and np.isnan(block[2]).all()
    grid.from_band(band[1, 2], out=block[2, 0, 0])
    assert np.array_equal(block[2, 0, 0], want[1, 2])


def test_from_band_refuses_an_output_it_cannot_fill():
    grid = TorusGrid(2, 8)
    band = np.zeros((2,) + grid.band_shape, dtype=np.complex128)
    for bad in (np.empty((3,) + grid.shape, dtype=np.complex128),
                np.empty((2,) + grid.shape),
                np.empty(grid.shape + (2,), dtype=np.complex128).transpose(4, 0, 1, 2, 3)):
        with pytest.raises(ValueError, match="C-contiguous"):
            grid.from_band(band, out=bad)


# ----------------------------------------------------------------------
# band maps built where they are used
# ----------------------------------------------------------------------

# elided (16 384 points and more) and unelided grid sizes, odd ones included
TABLE_GRIDS = [(2, 8), (2, 16), (2, 17), (3, 4), (3, 6)]


@pytest.mark.parametrize("n, points", TABLE_GRIDS)
def test_band_conjugate_matches_the_flat_index_route_bytewise(n, points):
    # per-axis flips move the entries the old flat index of the whole band
    # moved; bytes are compared, so the signs of zeros count too
    grid = TorusGrid(n, points)
    rng = np.random.default_rng(points)
    for p, q in ((0, 0), (1, 1), (2, 0), (2, 1)):
        shape = (math.comb(n, p), math.comb(n, q)) + grid.band_shape
        chat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        chat.reshape(-1)[::7] = complex(-0.0, 0.0)
        chat.reshape(-1)[::11] = complex(0.0, -0.0)
        got = grid.band_conjugate(chat, p, q)
        want = oracle_band_conjugate(grid, chat, p, q)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, points", TABLE_GRIDS)
def test_ddbar_and_chern_form_match_the_stored_table_bytewise(n, points):
    grid = TorusGrid(n, points)
    rng = np.random.default_rng(points + 1)
    table = oracle_ddbar_band(grid)
    u_hat = rng.standard_normal(grid.band_shape) + 1j * rng.standard_normal(grid.band_shape)
    assert grid.ddbar_hat(u_hat).tobytes() == (table * u_hat).tobytes()
    metric = random_metric_field(grid, rng, eps=0.3)
    want = grid.from_band(table * grid.to_band(np.log(metric.det)))
    assert chern_form(grid, metric).coeffs.tobytes() == want.tobytes()


def test_a_grid_allocates_nothing_of_band_size():
    # at n=3 N=64 the band holds 43^6 points, and one index array over it
    # took 47 GiB; the grid keeps per-axis matrices, multipliers and flips
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        grid = TorusGrid(3, 64)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        if started:
            tracemalloc.stop()
    assert grid.band_shape == (43,) * 6
    assert peak < 2 ** 20


def test_flat_metric_from_the_band_is_exact():
    # only k=0 set: every entry of the inverse matrix's first column is 1/16
    grid = TorusGrid(2, 16)
    omega_hat = np.zeros((2, 2) + grid.band_shape, dtype=np.complex128)
    for i in range(2):
        omega_hat[(i, i) + (0,) * 4] = 1j * grid.points ** 4
    diag, upper = grid.hermitian_from_band(-1j * omega_hat)
    assert diag.dtype == np.float64 and np.array_equal(diag, np.ones((2,) + grid.shape))
    assert upper.dtype == np.complex128 and np.array_equal(upper, np.zeros((1,) + grid.shape))
    const = np.zeros(grid.band_shape, dtype=np.complex128)
    const[(0,) * 4] = (0.75 - 2.5j) * grid.points ** 4
    assert np.array_equal(grid.from_band(const), np.full(grid.shape, 0.75 - 2.5j))


@pytest.mark.parametrize("n, points", [(2, 4), (2, 8), (3, 4)])
def test_derivative_hat_tells_the_band_from_the_grid_by_shape(n, points):
    # the band is narrower than the grid on every axis: 2 * (N // 3) + 1 < N
    grid = TorusGrid(n, points)
    hat = grid.fft(random_field(grid, np.random.default_rng(points), 1, 0).coeffs)
    on_band = (slice(None),) + band_index(grid)
    for anti in (False, True):
        assert np.array_equal(grid.derivative_hat(hat[on_band], 1, 0, anti=anti),
                              grid.derivative_hat(hat, 1, 0, anti=anti)[on_band])
    for shape in (grid.band_shape[:-1] + (points,), (points + 1,) * (2 * n)):
        with pytest.raises(ValueError, match="neither the grid nor the band"):
            grid.derivative_hat(np.zeros((1, 1) + shape, dtype=np.complex128), 0, 0,
                                anti=False)
    omega = np.zeros((n, n) + grid.band_shape, dtype=np.complex128)
    phi = np.zeros((n * (n - 1) // 2, 1) + grid.band_shape, dtype=np.complex128)
    assert residual_norms_hat(grid, omega, phi, np.swapaxes(phi, 0, 1))["d_omega"] == 0.0
    with pytest.raises(ValueError, match="neither the grid nor the band"):
        residual_norms_hat(grid, omega[..., :-1], phi, np.swapaxes(phi, 0, 1))


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

def test_flat_volume_is_one():
    for n, pts in [(2, 8), (3, 6)]:
        grid = TorusGrid(n, pts)
        m = flat_metric(n, grid.shape)
        val = integrate(grid, volume_form(m))
        assert val == pytest.approx(1.0, abs=1e-13)


def test_integrate_rejects_wrong_degree():
    grid = TorusGrid(2, 8)
    with pytest.raises(ValueError, match="integrate"):
        integrate(grid, Form.zeros(2, 1, 1, grid.shape))


def test_integral_of_derivative_vanishes():
    rng = np.random.default_rng(227)
    grid = TorusGrid(2, 8)
    a = random_field(grid, rng, 1, 2, cutoff=2)
    val = integrate(grid, grid.del_form(a))
    assert abs(val) < 1e-12


def test_integration_by_parts():
    rng = np.random.default_rng(229)
    grid = TorusGrid(2, 8)
    u = random_field(grid, rng, 1, 1, cutoff=1)
    v = random_field(grid, rng, 0, 1, cutoff=1)
    lhs = integrate(grid, wedge(grid.del_form(u), v))
    rhs = -integrate(grid, wedge(u, grid.del_form(v)))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_global_inner_product_flat_omega():
    grid = TorusGrid(2, 8)
    m = flat_metric(2, grid.shape)
    w = fundamental_form(m)
    assert global_inner_product(grid, w, w, m) == pytest.approx(2.0, abs=1e-12)
    assert l2_norm(grid, w, m) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_global_inner_product_weights_by_volume_density():
    rng = np.random.default_rng(233)
    grid = TorusGrid(2, 8)
    m = random_metric_field(grid, rng, eps=0.2)
    w = fundamental_form(m)
    # <omega, omega> = n pointwise, so the L2 pairing integrates n * det(g)
    want = 2.0 * np.mean(m.det)
    assert global_inner_product(grid, w, w, m) == pytest.approx(want, abs=1e-12)


# ----------------------------------------------------------------------
# codifferentials
# ----------------------------------------------------------------------

def test_codifferential_adjointness_flat():
    rng = np.random.default_rng(239)
    grid = TorusGrid(2, 8)
    m = flat_metric(2, grid.shape)
    a = random_field(grid, rng, 1, 0, cutoff=2)
    b = random_field(grid, rng, 1, 1, cutoff=2)
    lhs = global_inner_product(grid, grid.dbar_form(a), b, m)
    rhs = global_inner_product(grid, a, codifferential_dbar(grid, b, m), m)
    assert lhs == pytest.approx(rhs, abs=1e-12)

    c = random_field(grid, rng, 0, 1, cutoff=2)
    lhs = global_inner_product(grid, grid.del_form(c), b, m)
    rhs = global_inner_product(grid, c, codifferential_del(grid, b, m), m)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_codifferential_adjointness_constant_metric():
    rng = np.random.default_rng(241)
    grid = TorusGrid(2, 8)
    g0 = random_hermitian_positive(rng, 2)
    g = np.broadcast_to(g0.reshape(2, 2, 1, 1, 1, 1), (2, 2) + grid.shape).copy()
    m = HermitianMetric.from_matrix(g)
    a = random_field(grid, rng, 1, 0, cutoff=2)
    b = random_field(grid, rng, 1, 1, cutoff=2)
    lhs = global_inner_product(grid, grid.dbar_form(a), b, m)
    rhs = global_inner_product(grid, a, codifferential_dbar(grid, b, m), m)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_torsion_trace_identity_varying_metric():
    """codifferential_dbar(omega) = trace(d omega) pointwise, even off flat."""
    rng = np.random.default_rng(251)
    for n, pts, cutoff in [(2, 8, 2), (3, 8, 1)]:
        grid = TorusGrid(n, pts)
        m = random_metric_field(grid, rng, eps=0.1, cutoff=cutoff)
        w = fundamental_form(m)
        lhs = codifferential_dbar(grid, w, m)
        rhs = metric_trace(grid.del_form(w), m)
        assert flat_l2(lhs - rhs) < 1e-10, f"n={n}"


# ----------------------------------------------------------------------
# curvature form
# ----------------------------------------------------------------------

def test_chern_form_flat_vanishes():
    grid = TorusGrid(2, 8)
    m = flat_metric(2, grid.shape)
    c = chern_form(grid, m)
    assert flat_l2(c) < 1e-14


def test_chern_form_conformal_matches_composition():
    rng = np.random.default_rng(257)
    grid = TorusGrid(2, 12)
    u = random_band_limited(grid, rng, 2)
    u *= 0.1 / np.max(np.abs(u))
    g = np.zeros((2, 2) + grid.shape, dtype=np.complex128)
    for i in range(2):
        g[i, i] = np.exp(u)
    m = HermitianMetric.from_matrix(g)
    got = chern_form(grid, m)
    # log det g = 2u, so the curvature form is sqrt(-1) d dbar (2u)
    scalar = Form(2, 0, 0, (2.0 * u)[np.newaxis, np.newaxis].astype(np.complex128))
    want = 1j * grid.del_form(grid.dbar_form(scalar))
    assert flat_l2(got - want) < 1e-11


def test_chern_form_is_real_and_closed():
    rng = np.random.default_rng(263)
    grid = TorusGrid(2, 8)
    m = random_metric_field(grid, rng, eps=0.3, cutoff=1)
    c = chern_form(grid, m)
    assert flat_l2(conjugate(c) - c) < 1e-12
    assert flat_l2(grid.del_form(c)) < 1e-11
    assert flat_l2(grid.dbar_form(c)) < 1e-11


def test_chern_form_refuses_a_nan_determinant():
    # a metric built through the dataclass constructor, with one NaN in det:
    # no positive minimum, so no log
    grid = TorusGrid(2, 8)
    flat = flat_metric(2, grid.shape)
    det = flat.det.copy()
    det[1, 2, 3, 4] = np.nan
    with pytest.raises(ValueError, match="not positive"):
        chern_form(grid, HermitianMetric(2, flat.diag, flat.upper, det))


# ----------------------------------------------------------------------
# residuals and random fields
# ----------------------------------------------------------------------

def test_residuals_vanish_on_flat_state():
    grid = TorusGrid(2, 8)
    w = fundamental_form(flat_metric(2, grid.shape))
    phi = Form.zeros(2, 2, 0, grid.shape)
    res = residual_norms(grid, w, phi)
    for key, val in res.items():
        assert val < 1e-14, key


def test_random_band_limited_is_reproducible_and_limited():
    grid = TorusGrid(2, 8)
    u1 = random_band_limited(grid, np.random.default_rng(10), 2)
    u2 = random_band_limited(grid, np.random.default_rng(10), 2)
    assert np.array_equal(u1, u2)
    assert u1.dtype == np.float64
    hat = np.fft.fftn(u1)
    keep1d = np.abs(np.fft.fftfreq(grid.points, 1 / grid.points)) <= 2
    inside = functools.reduce(np.multiply.outer, [keep1d] * 4)
    assert np.max(np.abs(hat[~inside])) < 1e-10 * np.max(np.abs(hat))
    with pytest.raises(ValueError, match="outside the resolved band"):
        random_band_limited(grid, np.random.default_rng(10), grid.dealias_cutoff + 1)
