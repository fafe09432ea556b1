"""Pointwise exterior algebra: wedge, conjugation, metric pairings, star, trace."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

import plurisym.forms as forms_mod
from plurisym.errors import PositivityLostError
from plurisym.calculus import TorusGrid
from plurisym.config import DEFAULT_GRID
from plurisym.flow import make_initial_hs, step_rk4
from plurisym.forms import (
    _eig_range,
    _hermitian_half,
    _hermiticity_defect,
    _inverse,
    _inverse_entries,
    _positive_det,
    Form,
    HermitianMetric,
    conjugate,
    flat_metric,
    flat_volume_coefficient,
    form_power,
    fundamental_form,
    hodge_star,
    inner_product,
    metric_of_form,
    metric_trace,
    multi_indices,
    volume_form,
    wedge,
)

from oracles import (
    FullBlockMetric,
    oracle_conjugate,
    oracle_hermitian_block,
    oracle_inner,
    oracle_star,
    oracle_trace,
    oracle_trace_rows,
    oracle_wedge,
    random_hermitian_positive,
    random_point_form,
)


def monomial(n, p, q, I, J, value=1.0):
    f = Form.zeros(n, p, q)
    f.coeffs[multi_indices(n, p).index(I), multi_indices(n, q).index(J)] = value
    return f


def eig_range(g):
    """``_eig_range`` of the Hermitian half of an (n, n, *payload) block."""
    return _eig_range(*_hermitian_half(g), g.shape[0])


def from_half_of(g):
    """The metric built from g's half, with no Hermiticity scan: the flow stages' route."""
    return HermitianMetric.from_half(*_hermitian_half(np.asarray(g, dtype=np.complex128)))


# the two ways a metric is built: from a block, scanned for Hermiticity, and
# from its Hermitian half as it is
BUILDS = pytest.mark.parametrize("build", [HermitianMetric.from_matrix, from_half_of],
                                 ids=["scanned", "hermitian"])


def forms_close(a, b, tol=1e-12):
    assert a.bidegree == b.bidegree
    return np.max(np.abs(a.coeffs - b.coeffs)) <= tol if a.coeffs.size else True


# ----------------------------------------------------------------------
# combinatorial layer
# ----------------------------------------------------------------------

def test_multi_indices_shape_and_order():
    assert multi_indices(3, 2) == ((0, 1), (0, 2), (1, 2))
    assert multi_indices(2, 0) == ((),)
    assert multi_indices(2, 3) == ()
    assert multi_indices(4, 4) == ((0, 1, 2, 3),)


def test_wedge_anticommutes_on_one_forms():
    dz1 = monomial(2, 1, 0, (0,), ())
    dz2 = monomial(2, 1, 0, (1,), ())
    w = wedge(dz1, dz2)
    assert w.coeffs[0, 0] == 1.0
    assert wedge(dz2, dz1).coeffs[0, 0] == -1.0
    assert np.all(wedge(dz1, dz1).coeffs == 0.0)


def test_wedge_mixed_type_sign():
    # dzbar^1 ^ dz^1 = -(dz^1 ^ dzbar^1): the cross sign for (0,1)^(1,0)
    dzb1 = monomial(2, 0, 1, (), (0,))
    dz1 = monomial(2, 1, 0, (0,), ())
    assert wedge(dzb1, dz1).coeffs[0, 0] == -1.0
    assert wedge(dz1, dzb1).coeffs[0, 0] == 1.0


def test_wedge_overflow_is_empty():
    rng = np.random.default_rng(7)
    a = random_point_form(rng, 2, 2, 1)
    b = random_point_form(rng, 2, 1, 0)
    w = wedge(a, b)
    assert w.bidegree == (3, 1)
    assert w.coeffs.shape[:2] == (0, 2)


def test_wedge_matches_oracle():
    rng = np.random.default_rng(42)
    cases = []
    for n in (2, 3):
        for pa in range(n + 1):
            for qa in range(n + 1):
                for pb in range(n + 1 - pa):
                    for qb in range(n + 1 - qa):
                        cases.append((n, pa, qa, pb, qb))
    for n, pa, qa, pb, qb in cases:
        a = random_point_form(rng, n, pa, qa)
        b = random_point_form(rng, n, pb, qb)
        got = wedge(a, b)
        want = oracle_wedge(a, b)
        assert forms_close(got, want), f"wedge mismatch at n={n} ({pa},{qa})^({pb},{qb})"


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(3)
    for n, (pa, qa), (pb, qb) in [(2, (1, 0), (1, 1)), (3, (2, 1), (0, 1)), (3, (1, 1), (1, 1))]:
        a = random_point_form(rng, n, pa, qa)
        b = random_point_form(rng, n, pb, qb)
        sign = (-1) ** ((pa + qa) * (pb + qb))
        assert forms_close(wedge(a, b), sign * wedge(b, a))


def test_conjugate_matches_oracle_and_is_involutive():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for p in range(n + 1):
            for q in range(n + 1):
                a = random_point_form(rng, n, p, q)
                assert forms_close(conjugate(a), oracle_conjugate(a))
                assert forms_close(conjugate(conjugate(a)), a)


def test_fundamental_form_is_real():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
        w = fundamental_form(m)
        assert forms_close(conjugate(w), w)


def test_form_power_flat_top():
    # omega^2 at the flat metric on C^2 / lattice: coefficient 2 on dz^12 ^ dzbar^12
    w = fundamental_form(flat_metric(2))
    sq = form_power(w, 2)
    assert sq.bidegree == (2, 2)
    assert sq.coeffs[0, 0] == pytest.approx(2.0)
    assert form_power(w, 0).coeffs[0, 0] == 1.0
    with pytest.raises(ValueError):
        form_power(w, -1)


def test_volume_form_normalization():
    # dV = omega^n / n! and its flat top coefficient per dimension
    for n, expected in [(2, 1.0), (3, 1.0j), (4, 1.0)]:
        assert flat_volume_coefficient(n) == expected
        m = flat_metric(n)
        dv = volume_form(m)
        w = fundamental_form(m)
        direct = form_power(w, n).coeffs[0, 0] / np.prod(range(1, n + 1))
        assert dv.coeffs[0, 0] == pytest.approx(direct)
        assert dv.coeffs[0, 0] == pytest.approx(expected)


def test_volume_form_scales_with_det():
    rng = np.random.default_rng(17)
    g = random_hermitian_positive(rng, 2)
    m = HermitianMetric.from_matrix(g)
    dv = volume_form(m)
    assert dv.coeffs[0, 0] == pytest.approx(np.linalg.det(g) * flat_volume_coefficient(2))


# ----------------------------------------------------------------------
# metric container
# ----------------------------------------------------------------------

def test_metric_closed_forms_against_linalg():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        pts = 5
        g = np.empty((n, n, pts), dtype=np.complex128)
        for k in range(pts):
            g[:, :, k] = random_hermitian_positive(rng, n)
        vals = np.linalg.eigvalsh(np.moveaxis(g, (0, 1), (-2, -1)))
        # a half is kept as it is; a scanned g is kept as its half
        for build in (HermitianMetric.from_matrix, from_half_of):
            m = build(g)
            for k in range(pts):
                gk = g[:, :, k]
                assert m.det[k] == pytest.approx(np.linalg.det(gk).real, rel=1e-12)
                assert np.allclose(m.ginv[:, :, k], np.linalg.inv(gk), atol=1e-12)
            assert m.margin == pytest.approx(float(np.min(vals)), rel=1e-10)
            assert m.max_eig == pytest.approx(float(np.max(vals)), rel=1e-10)


def test_metric_rejects_non_hermitian():
    g = np.array([[1.0, 0.5], [0.1, 1.0]], dtype=np.complex128)
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianMetric.from_matrix(g)


def test_metric_half_rejects_a_mismatched_upper_triangle():
    with pytest.raises(ValueError, match=r"upper triangle \(1, 4\) does not match"):
        HermitianMetric.from_half(np.ones((3, 4)), np.zeros((1, 4), dtype=np.complex128))


def test_metric_positivity_failure():
    g = np.array([[1.0, 0.0], [0.0, -0.25]], dtype=np.complex128)
    with pytest.raises(PositivityLostError) as info:
        HermitianMetric.from_matrix(g)
    assert info.value.margin == pytest.approx(-0.25)


@pytest.mark.parametrize("bad, entry", [
    (np.nan, (1, 1)), (np.inf, (1, 1)),
    (np.nan, (0, 2)), (np.inf, (0, 2)),
    (np.nan, (2, 0)), (np.inf, (2, 0)),
], ids=["nan", "inf", "nan-upper", "inf-upper", "nan-lower", "inf-lower"])
def test_metric_non_finite_entry_is_a_positivity_loss(bad, entry):
    # caught before the Hermitian block, the minors or eigvalsh (LinAlgError
    # on such a stack) see it: a non-finite lower entry never reaches them
    g = np.broadcast_to(np.eye(3, dtype=np.complex128)[:, :, None], (3, 3, 4)).copy()
    g[entry + (1,)] = bad
    with pytest.raises(PositivityLostError) as info:
        HermitianMetric.from_matrix(g)
    assert math.isnan(info.value.margin)


@BUILDS
@pytest.mark.parametrize("diag", [(1.0, 0.0), (1.0, 1.0, 0.0)], ids=["n2", "n3"])
def test_singular_metric_raises_without_warning(diag, build):
    # the minors are checked before anything divides by det
    g = np.diag(np.array(diag, dtype=np.complex128))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityLostError) as info:
            build(g)
    assert info.value.margin == 0.0


@BUILDS
@pytest.mark.parametrize("n", [2, 3], ids=["n2", "n3"])
def test_overflowing_det_is_a_positivity_loss(n, build):
    # finite entries whose determinant overflows: no inverse can be read off
    # that det, so the block is a positivity loss, raised without a warning
    g = np.empty((n, n, 4), dtype=np.complex128)
    g[...] = np.eye(n)[:, :, None]
    for i in range(n):
        g[i, i, 2] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityLostError) as info:
            build(g)
    assert math.isnan(info.value.margin)


@BUILDS
@pytest.mark.parametrize("n, entry", [(2, 1e-160), (3, 1e-103)], ids=["n2", "n3"])
def test_subnormal_det_is_a_positivity_loss(n, entry, build):
    # a positive but subnormal det (1e-320, 1e-309) has no finite reciprocal:
    # it fails Sylvester's check, with the eigenvalue-range margin, unwarned
    g = np.empty((n, n, 4), dtype=np.complex128)
    g[...] = np.eye(n)[:, :, None]
    for i in range(n):
        g[i, i, 2] = entry
    assert 0.0 < np.prod(np.diag(g[:, :, 2]).real) < np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityLostError) as info:
            build(g)
    assert info.value.margin == eig_range(g)[0] == entry


@BUILDS
@pytest.mark.parametrize("n", [2, 3], ids=["n2", "n3"])
def test_overflowing_inverse_is_a_positivity_loss(n, build):
    # det is normal (1e-210) but the smallest eigenvalue is subnormal, so the
    # inverse overflows: a positivity loss with the eigenvalue-range margin,
    # raised without a warning
    g = np.empty((n, n, 4), dtype=np.complex128)
    g[...] = np.eye(n)[:, :, None]
    g[0, 0, 2] = 1e100
    g[n - 1, n - 1, 2] = 1e-310
    assert np.prod(np.diag(g[:, :, 2]).real) >= np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityLostError) as info:
            build(g)
        assert info.value.margin == eig_range(g)[0]
    assert 0.0 <= info.value.margin <= 1e-300


@BUILDS
@pytest.mark.parametrize("bad", [
    (-1.0, -1.0),             # g00 fails; det > 0
    (1.0, -1.0, -1.0),        # the 2x2 leading minor fails; det > 0
    (1.0, 1.0, -1.0),         # only det fails
    (1.0, 1.0, -1.0, -1.0),   # the 3x3 leading minor fails; det > 0
], ids=["n2-g00", "n3-minor2", "n3-det", "n4-minor3"])
def test_indefinite_point_trips_the_minor_guard(bad, build):
    # one indefinite point in an otherwise positive stack; the margin is the
    # stack's smallest eigenvalue, exactly as the eigenvalue range reads it
    n = len(bad)
    rng = np.random.default_rng(31)
    g = np.empty((n, n, 5), dtype=np.complex128)
    for k in range(5):
        g[:, :, k] = random_hermitian_positive(rng, n)
    g[:, :, 3] = np.diag(bad)
    with pytest.raises(PositivityLostError) as info:
        build(g)
    assert info.value.margin == eig_range(g)[0]
    assert info.value.margin == -1.0


def test_metric_of_form_round_trip():
    rng = np.random.default_rng(29)
    g = random_hermitian_positive(rng, 3)
    m = HermitianMetric.from_matrix(g)
    again = metric_of_form(fundamental_form(m))
    assert np.allclose(again.g, g, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_metric_stores_the_hermitian_block(n):
    # a g within _HERM_TOL of Hermitian: its lower triangle and the imaginary
    # part of its diagonal are dropped, and ginv inverts what is stored
    rng = np.random.default_rng(47 + n)
    exact = random_stack(rng, n, 9)
    m = HermitianMetric.from_matrix(exact)
    assert np.array_equal(m.g, exact)
    g = exact + 1e-10 * (rng.standard_normal(exact.shape)
                         + 1j * rng.standard_normal(exact.shape))
    m = HermitianMetric.from_matrix(g)
    # the metric keeps the half alone: the real diagonal and the upper triangle
    assert list(vars(m)) == ["n", "diag", "upper", "det"]
    assert np.array_equal(m.diag, [g[i, i].real for i in range(n)])
    assert np.array_equal(m.upper, [g[i, j] for i, j in multi_indices(n, 2)])
    for i in range(n):
        assert np.array_equal(m.g[i, i], g[i, i].real.astype(np.complex128))
        for j in range(i + 1, n):
            assert np.array_equal(m.g[i, j], g[i, j])
            assert np.array_equal(m.g[j, i], np.conj(g[i, j]))
    prod = np.einsum("ij...,jk...->ik...", m.g, m.ginv)
    assert np.max(np.abs(prod - np.eye(n)[:, :, None])) <= 1e-13


@pytest.mark.parametrize("n", [2, 3], ids=["n2", "n3"])
def test_metric_of_form_rebuilds_the_flow_metric_bitwise(n):
    # the metric rebuilt from a flow state's omega is the one the flow certified
    grid = TorusGrid(n, DEFAULT_GRID[n])
    state = step_rk4(grid, make_initial_hs(grid), 1e-4)
    again = metric_of_form(state.omega)
    for name in ("diag", "upper", "g", "det", "ginv"):
        assert np.array_equal(getattr(again, name), getattr(state.metric, name)), name


def hermitian_part(g):
    return 0.5 * (g + np.conj(np.swapaxes(g, 0, 1)))


def direct_eig_range(g):
    """(min, max) of eigvalsh on the Hermitian part of the whole stack."""
    vals = np.linalg.eigvalsh(np.moveaxis(hermitian_part(g), (0, 1), (-2, -1)))
    return float(np.min(vals)), float(np.max(vals))


def random_stack(rng, n, points, spread=0.5):
    g = np.empty((n, n, points), dtype=np.complex128)
    for k in range(points):
        g[:, :, k] = random_hermitian_positive(rng, n, spread)
    return hermitian_part(g)  # Hermitian to the last bit


def rotated(diag, seed=0):
    """Q diag(diag) Q^H for a fixed random unitary Q, Hermitian to the last bit."""
    rng = np.random.default_rng(seed)
    n = len(diag)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return hermitian_part((q * np.asarray(diag)) @ q.conj().T)


def test_certified_eig_range_on_the_default_n3_metric():
    grid = TorusGrid(3, 4)
    state = make_initial_hs(grid, mode_cutoff=1)
    for g in (state.metric.g, step_rk4(grid, state, 1e-4).metric.g):
        assert eig_range(g) == direct_eig_range(g)


def test_certified_eig_range_finds_an_off_diagonal_minimum():
    # the global minimum 0.6 sits at point 1, whose smallest diagonal entry
    # (1.2) is not the stack's smallest (0.9, at point 0); likewise the global
    # maximum 3.8 sits at point 2, not at the largest diagonal entry (3.5)
    rng = np.random.default_rng(5)
    g = random_stack(rng, 3, 6)
    g[:, :, 0] = np.diag([0.9, 3.5, 2.0])
    g[:, :, 1] = [[1.2, 0.6, 0.0], [0.6, 1.2, 0.0], [0.0, 0.0, 1.2]]
    g[:, :, 2] = [[2.5, 0.0, 1.3], [0.0, 1.5, 0.0], [1.3, 0.0, 2.5]]
    want = direct_eig_range(g)
    assert want[0] == pytest.approx(0.6) and want[1] == pytest.approx(3.8)
    assert eig_range(g) == want


def test_certified_eig_range_on_the_flat_stack():
    # every point ties for both extremes
    assert eig_range(flat_metric(3, (4, 5)).g) == (1.0, 1.0)


def test_certified_eig_range_separates_near_ties():
    # two points whose smallest eigenvalues differ by an ulp or two
    rng = np.random.default_rng(9)
    g = random_stack(rng, 3, 4, spread=2.0)
    g[:, :, 1] = rotated([1.0, 1.5, 2.0])
    g[:, :, 3] = rotated([np.nextafter(1.0, 2.0), 1.5, 2.0])
    lows = [direct_eig_range(g[:, :, k:k + 1])[0] for k in (1, 3)]
    assert 0 < abs(lows[0] - lows[1]) <= 2 * np.spacing(1.0)
    assert eig_range(g) == direct_eig_range(g)


@BUILDS
def test_indefinite_n3_stack_reports_the_direct_minimum(build):
    rng = np.random.default_rng(13)
    g = random_stack(rng, 3, 5)
    g[:, :, 2] = rotated([-0.3, 1.0, 2.0], seed=4)
    with pytest.raises(PositivityLostError) as info:
        build(g)
    assert info.value.margin == direct_eig_range(g)[0]
    assert info.value.margin == pytest.approx(-0.3)


@pytest.mark.parametrize("entry", [(1, 1), (0, 2)], ids=["diag", "upper"])
def test_certified_eig_range_of_a_nan_stack_is_nan(entry):
    # a metric's lower triangle is the conjugate of its upper one; a NaN
    # there alone is pinned through from_matrix (non-finite entry test)
    g = flat_metric(3, (4,)).g
    g[entry + (1,)] = np.nan
    lo, hi = eig_range(g)
    assert math.isnan(lo) and math.isnan(hi)


@pytest.mark.parametrize("block", [4096, None], ids=["block4096", "default"])
@pytest.mark.parametrize("stack", ["stepped-N6", "stepped-N8", "random"])
def test_certified_eig_range_walks_blocks_as_the_whole_payload(stack, block, monkeypatch):
    # the n=3 moduli and minors walked over blocks of points, a short last
    # block included, against the same route over the whole payload at once
    if block:
        monkeypatch.setattr(forms_mod, "_BLOCK", block)
    if stack == "random":
        g = blocked_stack(3)
        g[:, :, -50] = rotated([0.5, 1.0, 1.5], seed=2)  # the minimum, in the short block
        diag, upper = _hermitian_half(g)
    else:
        points = int(stack[-1])
        grid = TorusGrid(3, points)
        metric = step_rk4(grid, make_initial_hs(grid, mode_cutoff=1), 1e-4).metric
        diag, upper = metric.diag, metric.upper
    size = diag[0].size
    assert size > forms_mod._BLOCK
    got = _eig_range(diag, upper, 3)
    monkeypatch.setattr(forms_mod, "_BLOCK", size)
    assert got == _eig_range(diag, upper, 3)
    if stack == "random":
        assert got[0] == pytest.approx(0.5)


@pytest.mark.parametrize("spread", [0.5, 4.0])
def test_n3_hermitian_closed_form_against_linalg(spread):
    rng = np.random.default_rng(37)
    g = random_stack(rng, 3, 40, spread)
    m = from_half_of(g)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert np.array_equal(m.ginv[j, i], np.conj(m.ginv[i, j]))
    stacked = np.moveaxis(g, -1, 0)
    want_det = np.linalg.det(stacked).real
    assert np.max(np.abs(m.det - want_det) / want_det) <= 1e-13
    want_inv = np.moveaxis(np.linalg.inv(stacked), 0, -1)
    assert np.max(np.abs(m.ginv - want_inv)) <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_hermiticity_defect_reads_the_upper_triangle(n):
    rng = np.random.default_rng(41 + n)
    for noise in (1e-12, 1e-6, 1.0):
        g = random_stack(rng, n, 30)
        g = g + noise * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        full = float(np.max(np.abs(g - np.conj(np.swapaxes(g, 0, 1)))))
        assert _hermiticity_defect(g) == full / float(np.max(np.abs(g)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("entry, bump", [
    ("lower", 1e-6), ("diagonal", 1e-6j),
], ids=["lower", "imaginary-diagonal"])
def test_metric_rejects_a_single_defect(n, entry, bump):
    g = random_stack(np.random.default_rng(43), n, 7)
    i, j = (n - 1, 0) if entry == "lower" else (1, 1)
    g[i, j, 4] += bump
    full = float(np.max(np.abs(g - np.conj(np.swapaxes(g, 0, 1))))) / float(np.max(np.abs(g)))
    with pytest.raises(ValueError, match=f"not Hermitian: defect {full:.3e} > 1.0e-08"):
        HermitianMetric.from_matrix(g)


# ----------------------------------------------------------------------
# blocked metric kernels
# ----------------------------------------------------------------------

# grids whose last block is a remainder: 46 656 = 11 * 4096 + 1600 =
# 2 * 16 384 + 13 888 points, and 83 521 = 20 * 4096 + 1601 = 5 * 16 384 + 1601
REMAINDER_GRIDS = [(3, 6), (2, 17)]

# a small block and the default, for the kernels checked at both sizes
BLOCKS = (4096, forms_mod._BLOCK)


def flat_points(x):
    """x (two basis axes, then a C-contiguous payload) as (r, c, points)."""
    return x.reshape(x.shape[:2] + (-1,))


@pytest.mark.parametrize("block", [4096, None], ids=["block4096", "default"])
@pytest.mark.parametrize("n, points", REMAINDER_GRIDS)
def test_blocked_metric_kernels_match_the_whole_payload_bytewise(n, points, block, monkeypatch):
    # the positivity check, the inverse, the trace and the pairing, walked in
    # blocks, against the same closed forms over the whole payload at once
    # (the trace against one whole-payload product per row); complex
    # products name one operand order, so the block size moves no bit
    if block:
        monkeypatch.setattr(forms_mod, "_BLOCK", block)
    grid = TorusGrid(n, points)
    state = step_rk4(grid, make_initial_hs(grid), 1e-4)
    diag, upper, size = state.metric.diag, state.metric.upper, points ** (2 * n)
    det = _positive_det(diag, upper, n)
    ginv = _inverse(diag, upper, det, n)
    m = HermitianMetric.from_half(diag, upper)
    assert list(vars(m)) == ["n", "diag", "upper", "det"]
    assert m.det.tobytes() == det.tobytes() == state.metric.det.tobytes()
    assert m.ginv.tobytes() == ginv.tobytes()
    blocks = list(forms_mod._blocks(size))
    assert len(blocks) == -(-size // forms_mod._BLOCK) and size % forms_mod._BLOCK
    flat_diag, flat_upper = diag.reshape(n, -1), upper.reshape(len(upper), -1)
    flat_det = det.reshape(-1)
    pieces = [_inverse(flat_diag[:, blk], flat_upper[:, blk], flat_det[blk], n)
              for blk in blocks]
    assert np.concatenate(pieces, axis=2).tobytes() == ginv.tobytes()
    # the trace a stage takes builds no inverse of the whole grid
    a = Form(n, 2, 1, grid.from_band(grid.derivative_hat(state.omega_hat, 1, 1, anti=False)))
    assert (metric_trace(a, state.metric).coeffs.tobytes()
            == oracle_trace_rows(a, ginv).coeffs.tobytes())
    assert "ginv" not in vars(state.metric)
    # the pairing a record takes
    phi = flat_points(state.phi.coeffs)
    pieces = [inner_product(Form(n, 2, 0, phi[:, :, blk]), Form(n, 2, 0, phi[:, :, blk]),
                            HermitianMetric(n, flat_diag[:, blk], flat_upper[:, blk],
                                            flat_det[blk]))
              for blk in blocks]
    whole = inner_product(state.phi, state.phi, m)
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize("block", [4096, None], ids=["block4096", "default"])
@pytest.mark.parametrize("n, points", REMAINDER_GRIDS)
def test_inverse_half_in_place_matches_the_allocating_route(n, points, block, monkeypatch):
    # an RK4 stage writes its inverse half over g's half, block by block
    # through block temporaries: the same bits as a new inverse half, on
    # payloads whose last block is a remainder
    if block:
        monkeypatch.setattr(forms_mod, "_BLOCK", block)
    grid = TorusGrid(n, points)
    metric = step_rk4(grid, make_initial_hs(grid), 1e-4).metric
    want = _inverse_entries(metric.diag, metric.upper, metric.det, n)
    diag, upper = metric.diag.copy(), metric.upper.copy()
    got = _inverse_entries(diag, upper, metric.det, n, in_place=True)
    assert got[0] is diag and got[1] is upper
    assert diag.tobytes() == want[0].tobytes() and upper.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_half_in_place_at_a_single_point(n):
    # a single point reads its entries as scalars before its inverse is
    # written over them, and keeps its scalar bits
    g = hermitian_part(np.eye(n) + 0.1 * np.arange(n * n).reshape(n, n) * (1 + 0.5j))
    metric = HermitianMetric.from_matrix(g)
    want = _inverse_entries(metric.diag, metric.upper, metric.det, n)
    diag, upper = metric.diag.copy(), metric.upper.copy()
    got = _inverse_entries(diag, upper, metric.det, n, in_place=True)
    assert got[0] is diag and got[1] is upper
    assert diag.tobytes() == want[0].tobytes() and upper.tobytes() == want[1].tobytes()


def blocked_stack(n, blocks=3, extra=100):
    """A positive Hermitian stack over several blocks of points, the last one short."""
    rng = np.random.default_rng(53 + n)
    points = blocks * forms_mod._BLOCK + extra
    noise = 0.05 * (rng.standard_normal((n, n, points))
                    + 1j * rng.standard_normal((n, n, points)))
    return hermitian_part(np.eye(n)[:, :, None] + noise)


def whole_payload_margin(g, n):
    """The margin the whole-payload route raises with on g, or None when g passes."""
    try:
        passed = _positive_det(*_hermitian_half(g), n) is not None
    except PositivityLostError as err:
        return err.margin
    return None if passed else eig_range(g)[0]


def set_point(g, k, diag):
    g[:, :, k] = np.diag(np.asarray(diag, dtype=np.complex128))


def add_fault(g, fault):
    """Put a fault into a ``blocked_stack``; return the margin it raises with.

    "nan" is a NaN margin and "eig" the stack's smallest eigenvalue.
    """
    n, last, middle = g.shape[0], g.shape[2] - 1, forms_mod._BLOCK + 17
    if fault == "nan-last":
        g[1, 1, last] = np.nan
        return "nan"
    if fault == "inf-last":
        g[0, 1, last] = np.inf
        return "nan"
    if fault == "indefinite-middle":
        set_point(g, middle, [1.0] * (n - 1) + [-1.0])
        return -1.0
    if fault == "overflowing-det-middle":
        set_point(g, middle, [1e200] * n)
        return "nan"
    if fault == "subnormal-det-middle":
        set_point(g, middle, [1e-160] * 2 if n == 2 else [1e-103] * 3)
        return "eig"
    if fault == "overflowing-inverse-last":
        set_point(g, last, [1e100] + [1.0] * (n - 2) + [1e-310])
        return "eig"
    # an indefinite point in the first block and an overflowing det in the
    # last: the whole payload's check reads the overflow first
    set_point(g, 5, [-1.0] * n)
    set_point(g, last, [1e200] * n)
    return "nan"


BLOCKED_FAULTS = ["nan-last", "inf-last", "indefinite-middle", "overflowing-det-middle",
                  "subnormal-det-middle", "overflowing-inverse-last", "indefinite-then-overflow"]


@BUILDS
@pytest.mark.parametrize("fault", BLOCKED_FAULTS)
@pytest.mark.parametrize("n", [2, 3])
def test_blocked_check_raises_as_the_whole_payload(n, fault, build, monkeypatch):
    # each fault in a stack of 3 full blocks and a short one raises the
    # exception and margin the whole-payload check gives on the same g,
    # without a floating-point warning
    monkeypatch.setattr(forms_mod, "_BLOCK", 4096)
    g = blocked_stack(n)
    kind = add_fault(g, fault)
    want = whole_payload_margin(g, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityLostError) as info:
            build(g)
    got = info.value.margin
    if kind == "nan":
        assert math.isnan(got) and math.isnan(want)
    else:
        assert got == want == eig_range(g)[0]
        if kind != "eig":
            assert got == kind


@pytest.mark.parametrize("n, scale", [(2, 1e150), (3, 1e100)])
def test_blocked_check_clears_an_inverse_diagonal_its_bound_cannot(n, scale, monkeypatch):
    # one point of det scale^n and one of det scale^-n: the block's bound
    # max|cofactor| / min det overflows, yet every diagonal entry of the
    # inverse is finite, so the entries themselves are checked and pass
    monkeypatch.setattr(forms_mod, "_BLOCK", 4096)
    g = blocked_stack(n, blocks=1, extra=0)
    set_point(g, 3, [scale] * n)
    set_point(g, 4, [1.0 / scale] * n)
    m = HermitianMetric.from_matrix(g)
    diag, upper = _hermitian_half(g)
    det = _positive_det(diag, upper, n)
    ginv = _inverse(diag, upper, det, n)
    assert m.det.tobytes() == det.tobytes()
    assert m.ginv[0, 0, 3] == pytest.approx(1.0 / scale) and m.ginv[0, 0, 4] == pytest.approx(scale)
    assert m.ginv.tobytes() == ginv.tobytes()


# ----------------------------------------------------------------------
# the Hermitian half against the full block
# ----------------------------------------------------------------------

def near_hermitian_stack(rng, n, payload):
    """Identity plus a Hermitian perturbation, with a non-Hermitian defect of 1e-12."""
    shape = (n, n) + payload
    noise = 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    eye = np.eye(n).reshape((n, n) + (1,) * len(payload))
    defect = 1e-12 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return eye + noise + np.conj(np.swapaxes(noise, 0, 1)) + defect


@pytest.mark.parametrize("n, payload", [
    (2, ()), (3, ()), (4, ()),
    (2, (forms_mod._BLOCK + 100,)), (3, (forms_mod._BLOCK + 100,)), (4, (7, 3)),
], ids=["n2-point", "n3-point", "n4-point", "n2-blocks", "n3-blocks", "n4-payload"])
def test_half_kernels_match_the_full_block_bitwise(n, payload, monkeypatch):
    # a metric keeps only the half of g; g, det, the inverse, the eigenvalue
    # range and the trace give the bits of the full block the metric kept
    # before (the linalg route at n=4), on payloads across _BLOCK
    rng = np.random.default_rng(59 + n)
    raw = near_hermitian_stack(rng, n, payload)
    m = HermitianMetric.from_matrix(raw)
    ref = FullBlockMetric(oracle_hermitian_block(raw))
    shape = (math.comb(n, 2), n) + payload
    a = Form(n, 2, 1, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    want = oracle_trace_rows(a, ref.ginv).coeffs.tobytes()
    for block in BLOCKS:
        monkeypatch.setattr(forms_mod, "_BLOCK", block)
        assert metric_trace(a, m).coeffs.tobytes() == want, f"_BLOCK {block}"
        if payload:
            assert "ginv" not in vars(m)
    assert m.diag.dtype == np.float64 and m.upper.dtype == np.complex128
    assert np.array_equal(m.g, ref.g)
    assert np.array_equal(_positive_det(m.diag, m.upper, n), ref.det)
    assert np.array_equal(m.det, ref.det)
    assert np.array_equal(m.ginv, ref.ginv)
    assert _eig_range(m.diag, m.upper, n) == ref.eig_range


def test_hodge_star_is_block_invariant():
    # star of a field of more than _BLOCK points, against its pieces: numpy
    # multiplies a temporary of 256 KiB or more in place, so the star names
    # its products in that order at every size
    n, points, piece = 3, forms_mod._BLOCK + 3000, 4096
    rng = np.random.default_rng(61)
    m = HermitianMetric.from_matrix(near_hermitian_stack(rng, n, (points,)))
    shape = (math.comb(n, 2), n, points)
    a = Form(n, 2, 1, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    whole = hodge_star(a, m).coeffs
    for start in range(0, points, piece):
        blk = slice(start, start + piece)
        part = HermitianMetric(n, m.diag[:, blk], m.upper[:, blk], m.det[blk])
        got = hodge_star(Form(n, 2, 1, a.coeffs[:, :, blk]), part).coeffs
        assert np.array_equal(got, whole[:, :, blk]), f"points {start}-{start + piece - 1}"


def unmemoised_star(a, m):
    """The star's sum with every Gram minor built afresh for each term, in its order."""
    n, r, s = a.n, a.p, a.q
    rows, test_hol, test_anti = forms_mod._star_layout(n, r, s)
    hol_lookup, anti_lookup = forms_mod._index_of(n, r), forms_mod._index_of(n, s)
    dvc = m.det * flat_volume_coefficient(n)
    out = Form.zeros(n, n - s, n - r, np.broadcast_shapes(a.payload, m.payload))
    for I, J, oi, oj, w in rows:
        acc = None
        for Ip in test_hol:
            hdet = forms_mod._minor_det(m.ginv, Ip, I)
            for Jp in test_anti:
                adet = forms_mod._minor_det(m.ginv, J, Jp)
                term = (hdet * adet) * a.coeffs[hol_lookup[Jp], anti_lookup[Ip]]
                acc = term if acc is None else acc + term
        out.coeffs[oi, oj] = (w * dvc) * acc
    return out


@pytest.mark.parametrize("n, r, s", [(3, 3, 2), (3, 2, 0), (3, 1, 1), (3, 2, 1), (2, 2, 1)])
def test_hodge_star_builds_each_recurring_minor_once(n, r, s, monkeypatch):
    # the (3,2)-form at the top of both n=3 codifferentials rebuilt det(ginv)
    # for each of its 9 terms; the star now builds each minor that recurs
    # once per call, in the same sum
    rng = np.random.default_rng(71)
    m = HermitianMetric.from_matrix(near_hermitian_stack(rng, n, (300,)))
    shape = (math.comb(n, r), math.comb(n, s), 300)
    a = Form(n, r, s, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    built = []
    real_minor = forms_mod._minor_det

    def counted(ginv, rows, cols):
        built.append((rows, cols))
        return real_minor(ginv, rows, cols)

    monkeypatch.setattr(forms_mod, "_minor_det", counted)
    want = unmemoised_star(a, m)
    every_term = list(built)
    built.clear()
    got = hodge_star(a, m)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert sorted(set(built)) == sorted(set(every_term))
    assert len(built) < len(every_term)
    # at most once as a holomorphic minor and once as an antiholomorphic one
    assert max(Counter(built).values()) <= 2


# ----------------------------------------------------------------------
# inner product
# ----------------------------------------------------------------------

def test_inner_product_flat_is_euclidean():
    rng = np.random.default_rng(31)
    a = random_point_form(rng, 2, 1, 1)
    b = random_point_form(rng, 2, 1, 1)
    want = np.sum(a.coeffs * np.conj(b.coeffs))
    assert inner_product(a, b) == pytest.approx(want)


def test_inner_product_matches_oracle():
    rng = np.random.default_rng(37)
    for n in (2, 3):
        g = random_hermitian_positive(rng, n)
        m = HermitianMetric.from_matrix(g)
        for p in range(n + 1):
            for q in range(n + 1):
                a = random_point_form(rng, n, p, q)
                b = random_point_form(rng, n, p, q)
                got = inner_product(a, b, m)
                want = oracle_inner(a, b, m.ginv)
                assert got == pytest.approx(want, abs=1e-10), f"n={n} ({p},{q})"


@pytest.mark.parametrize("p, q", [(p, q) for p in range(4) for q in range(4)])
def test_inner_product_builds_each_minor_once(p, q, monkeypatch):
    # each antiholomorphic minor read more than once is built once per call:
    # 90 minors -> 18 for the (1,2) pairing, the bits of the uncached route
    n = 3
    rng = np.random.default_rng(10 * p + q)
    m = HermitianMetric.from_matrix(random_stack(rng, n, 40))
    a, b = (Form(n, p, q, random_point_form(rng, n, p, q).coeffs[..., None]
                 * rng.standard_normal(40)) for _ in range(2))
    calls = []
    real = forms_mod._minor_det

    def counted(ginv, rows, cols):
        calls.append((rows, cols))
        return real(ginv, rows, cols)

    monkeypatch.setattr(forms_mod, "_minor_det", counted)
    got = inner_product(a, b, m)
    cached = len(calls)
    calls.clear()
    monkeypatch.setattr(forms_mod, "cache", lambda fn: fn)
    want = inner_product(a, b, m)
    hol, anti = math.comb(n, p), math.comb(n, q)
    assert len(calls) == hol ** 2 * (1 + anti ** 2)
    assert cached == (hol ** 2 + anti ** 2 if hol > 1 else len(calls))
    if (p, q) == (1, 2):
        assert (len(calls), cached) == (90, 18)
    assert np.array_equal(np.asarray(got).view(np.float64), np.asarray(want).view(np.float64))
    assert np.array_equal(np.signbit(np.asarray(got).view(np.float64)),
                          np.signbit(np.asarray(want).view(np.float64)))


def test_inner_product_positivity():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        g = random_hermitian_positive(rng, n)
        m = HermitianMetric.from_matrix(g)
        a = random_point_form(rng, n, int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1)))
        if a.coeffs.size == 0:
            continue
        val = inner_product(a, a, m)
        assert abs(val.imag) < 1e-12 * abs(val)
        assert val.real > 0.0


def test_omega_norm_squared_is_dimension():
    """<omega, omega> = n for every Hermitian metric, not just the flat one."""
    rng = np.random.default_rng(43)
    for n in (2, 3):
        for _ in range(10):
            m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
            w = fundamental_form(m)
            assert inner_product(w, w, m) == pytest.approx(n, abs=1e-10)


# ----------------------------------------------------------------------
# Hodge star
# ----------------------------------------------------------------------

def test_star_frozen_examples_flat():
    # *(dz^1 ^ dz^2 ^ dzbar^2) = -dz^1 on C^2 at the identity metric
    a = monomial(2, 2, 1, (0, 1), (1,))
    s = hodge_star(a)
    assert s.bidegree == (1, 0)
    assert s.coeffs[0, 0] == pytest.approx(-1.0)
    assert s.coeffs[1, 0] == pytest.approx(0.0)

    one = Form.constant_one(2)
    assert hodge_star(one).coeffs[0, 0] == pytest.approx(1.0)
    assert hodge_star(Form.constant_one(3)).coeffs[0, 0] == pytest.approx(1.0j)


def test_star_matches_defining_property_solver():
    rng = np.random.default_rng(47)
    cases = [(2, r, s) for r in range(3) for s in range(3)]
    cases += [(3, 1, 0), (3, 1, 1), (3, 2, 1), (3, 0, 2), (3, 2, 2), (3, 3, 1)]
    for n, r, s in cases:
        g = random_hermitian_positive(rng, n)
        m = HermitianMetric.from_matrix(g)
        a = random_point_form(rng, n, r, s)
        got = hodge_star(a, m)
        want = oracle_star(a, g)
        scale = max(np.max(np.abs(want.coeffs)), 1.0)
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10 * scale, f"n={n} ({r},{s})"


def test_star_defining_property_direct():
    rng = np.random.default_rng(53)
    for n, r, s in [(2, 1, 1), (2, 2, 1), (3, 2, 1), (3, 1, 2)]:
        m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
        a = random_point_form(rng, n, r, s)
        b = random_point_form(rng, n, r, s)
        lhs = wedge(a, hodge_star(conjugate(b), m)).coeffs[0, 0]
        rhs = inner_product(a, b, m) * m.det * flat_volume_coefficient(n)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_star_commutes_with_conjugation():
    rng = np.random.default_rng(59)
    for n, r, s in [(2, 1, 0), (2, 1, 1), (2, 2, 1), (3, 2, 1), (3, 1, 1)]:
        m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
        a = random_point_form(rng, n, r, s)
        assert forms_close(hodge_star(conjugate(a), m), conjugate(hodge_star(a, m)), 1e-10)


def test_star_of_volume_is_one():
    rng = np.random.default_rng(61)
    for n in (2, 3):
        m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
        s = hodge_star(volume_form(m), m)
        assert s.bidegree == (0, 0)
        assert s.coeffs[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_star_on_grid_payload_matches_pointwise():
    rng = np.random.default_rng(67)
    pts = 4
    g = np.empty((2, 2, pts), dtype=np.complex128)
    coeffs = rng.standard_normal((2, 2, pts)) + 1j * rng.standard_normal((2, 2, pts))
    for k in range(pts):
        g[:, :, k] = random_hermitian_positive(rng, 2)
    m = HermitianMetric.from_matrix(g)
    field = Form(2, 1, 1, coeffs)
    starred = hodge_star(field, m)
    for k in range(pts):
        mk = HermitianMetric.from_matrix(g[:, :, k])
        pk = Form(2, 1, 1, coeffs[:, :, k])
        assert np.allclose(starred.coeffs[:, :, k], hodge_star(pk, mk).coeffs, atol=1e-12)


# ----------------------------------------------------------------------
# metric trace
# ----------------------------------------------------------------------

def test_trace_frozen_example_flat():
    # trace of dz^1 ^ dz^2 ^ dzbar^2 at the identity metric is dz^1
    a = monomial(2, 2, 1, (0, 1), (1,))
    t = metric_trace(a, flat_metric(2))
    assert t.bidegree == (1, 0)
    assert t.coeffs[0, 0] == pytest.approx(1.0)
    assert t.coeffs[1, 0] == pytest.approx(0.0)


def test_trace_of_fundamental_form():
    """The trace convention fixes trace(omega) = sqrt(-1) * n."""
    rng = np.random.default_rng(71)
    for n in (2, 3):
        m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
        t = metric_trace(fundamental_form(m), m)
        assert t.coeffs[0, 0] == pytest.approx(1j * n, abs=1e-12)


def test_trace_matches_adjoint_solver():
    rng = np.random.default_rng(73)
    for n, p, q in [(2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1), (3, 1, 1), (3, 2, 2)]:
        g = random_hermitian_positive(rng, n)
        m = HermitianMetric.from_matrix(g)
        a = random_point_form(rng, n, p, q)
        got = metric_trace(a, m)
        want = oracle_trace(a, g)
        assert forms_close(got, want, 1e-10), f"n={n} ({p},{q})"


def test_trace_adjointness_direct():
    rng = np.random.default_rng(79)
    for n, p, q in [(2, 2, 1), (3, 2, 1), (3, 2, 2)]:
        m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
        w = fundamental_form(m)
        a = random_point_form(rng, n, p, q)
        psi = random_point_form(rng, n, p - 1, q - 1)
        lhs = inner_product(metric_trace(a, m), psi, m)
        rhs = 1j * inner_product(a, wedge(w, psi), m)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_trace_annihilates_one_sided_forms():
    rng = np.random.default_rng(83)
    for n, p, q in [(2, 2, 0), (3, 0, 2), (3, 3, 0)]:
        a = random_point_form(rng, n, p, q)
        t = metric_trace(a, flat_metric(n))
        assert t.coeffs.size == 0


def random_metric_stack(rng, n, payload):
    """Positive Hermitian metric at every point of a payload: identity plus a small Hermitian part."""
    shape = (n, n) + tuple(payload)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    g = 0.05 * (g + np.conj(np.swapaxes(g, 0, 1)))
    for i in range(n):
        g[i, i] += 1.0
    return HermitianMetric.from_matrix(g)


@pytest.mark.parametrize("n, form_payload, metric_payload", [
    (3, (6,) * 6, (6,) * 6),   # 46 656 points: 11 full blocks and a partial one
    (2, (9,) * 4, (9,) * 4),   # 6 561 points: one full block and a partial one
    (2, (16,) * 4, (16,) * 4),  # a whole number of blocks
    (2, (), ()),
    (3, (), ()),
    (2, (9,) * 4, ()),          # a form on the grid, the metric at one point
    (3, (), (5,) * 6),          # a form at one point, the metric on a grid
], ids=["n3-N6", "n2-N9", "n2-N16", "n2-point", "n3-point", "n2-grid-form-point-metric",
        "n3-point-form-grid-metric"])
def test_blocked_trace_matches_the_per_row_reference_bitwise(n, form_payload, metric_payload,
                                                             monkeypatch):
    # in blocks of 4096 points, as the cases above count them, and of the
    # default size: the trace gives the bytes of one whole-payload product
    # per row on every layout, and a metric on the whole payload builds no
    # inverse of it
    rng = np.random.default_rng(101)
    m = random_metric_stack(rng, n, metric_payload)
    whole = (metric_payload != ()
             and metric_payload == np.broadcast_shapes(form_payload, metric_payload))
    for p, q in [(2, 1), (1, 1), (2, 2)]:
        shape = (math.comb(n, p), math.comb(n, q)) + form_payload
        a = Form(n, p, q, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        want = oracle_trace_rows(a, _inverse(m.diag, m.upper, m.det, n))
        for block in BLOCKS:
            monkeypatch.setattr(forms_mod, "_BLOCK", block)
            got = metric_trace(a, m)
            assert got.coeffs.shape == want.coeffs.shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), f"({p},{q}) _BLOCK {block}"
            assert ("ginv" in vars(m)) != whole


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_components_keep_each_outputs_row_order(n):
    # grouping the trace table by input component is a stable sort that
    # keeps every output's rows in table order, so a trace that walks the
    # components makes each output's sums as the per-row reference does
    for p in range(n + 1):
        for q in range(n + 1):
            table = forms_mod._trace_table(n, p, q)
            grouped = [row[:4] + component + row[4:]
                       for component, rows in forms_mod._trace_components(n, p, q)
                       for row in rows]
            assert sorted(grouped) == sorted(table), (p, q)
            for output in {row[:2] for row in table}:
                assert ([row for row in grouped if row[:2] == output]
                        == [row for row in table if row[:2] == output]), (p, q, output)


def trace_in_row_order(a, ginv, rows):
    """The trace as one whole-payload product per row of ``_trace_table``, in the given order."""
    out = np.zeros((math.comb(a.n, a.p - 1), math.comb(a.n, a.q - 1)) + a.payload,
                   dtype=np.complex128)
    for oi, oj, ahol, banti, ii, ij, sign in rows:
        term = ginv[banti, ahol] * a.coeffs[ii, ij]
        if sign < 0:
            out[oi, oj] -= term
        else:
            out[oi, oj] += term
    return out


def test_trace_bits_follow_each_outputs_row_order():
    # negative control of the order property: the table's rows with one
    # output's reversed give that output up to rounding, not bit for bit,
    # while the table order gives metric_trace's bits
    rng = np.random.default_rng(107)
    n, payload = 3, (forms_mod._BLOCK + 100,)
    m = random_metric_stack(rng, n, payload)
    shape = (3, 3) + payload
    a = Form(n, 2, 1, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    ginv = _inverse(m.diag, m.upper, m.det, n)
    want = metric_trace(a, m).coeffs
    table = list(forms_mod._trace_table(n, 2, 1))
    assert trace_in_row_order(a, ginv, table).tobytes() == want.tobytes()
    picks = [k for k, row in enumerate(table) if row[:2] == (0, 0)]
    for k, row in zip(picks, [table[k] for k in reversed(picks)]):
        table[k] = row
    got = trace_in_row_order(a, ginv, table)
    assert len(picks) == 6 and got[0].tobytes() != want[0].tobytes()
    assert np.array_equal(got[1:], want[1:])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_star_trace_identity_for_two_one_forms():
    """star(omega^(n-2) ^ beta) = -(n-2)! * trace(beta) for (2,1)-forms, n = 2, 3, 4."""
    rng = np.random.default_rng(89)
    for n in (2, 3, 4):
        for _ in range(5):
            m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
            w = fundamental_form(m)
            beta = random_point_form(rng, n, 2, 1)
            lhs = hodge_star(wedge(form_power(w, n - 2), beta), m)
            rhs = -float(math.factorial(n - 2)) * metric_trace(beta, m)
            norm = np.sqrt(inner_product(beta, beta, m).real)
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * max(norm, 1.0), f"n={n}"


def test_weil_identity_for_two_zero_powers():
    # star(phibar^k) = omega^(n-2k) ^ phibar^k / (n-2k)! for a (2,0)-form phi
    rng = np.random.default_rng(97)
    for n, k in [(2, 1), (3, 1), (4, 1), (4, 2)]:
        m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
        w = fundamental_form(m)
        phi = random_point_form(rng, n, 2, 0)
        pk = form_power(conjugate(phi), k)
        lhs = hodge_star(pk, m)
        fact = float(math.factorial(n - 2 * k))
        rhs = wedge(form_power(w, n - 2 * k, pk.payload), pk) * (1.0 / fact)
        assert forms_close(lhs, rhs, 1e-10), f"n={n} k={k}"


def test_pairing_identity_for_two_zero_powers():
    # <phi^k, phi^k> dV = phi^k ^ phibar^k ^ omega^(n-2k) / (n-2k)!
    rng = np.random.default_rng(101)
    for n, k in [(2, 1), (3, 1), (4, 2)]:
        m = HermitianMetric.from_matrix(random_hermitian_positive(rng, n))
        w = fundamental_form(m)
        phi = random_point_form(rng, n, 2, 0)
        pk = form_power(phi, k)
        fact = float(math.factorial(n - 2 * k))
        lhs = inner_product(pk, pk, m) * volume_form(m).coeffs[0, 0]
        rhs = wedge(wedge(pk, form_power(conjugate(phi), k)),
                    form_power(w, n - 2 * k, pk.payload)).coeffs[0, 0] / fact
        assert lhs == pytest.approx(rhs, abs=1e-10), f"n={n} k={k}"


# ----------------------------------------------------------------------
# payload broadcasting
# ----------------------------------------------------------------------

def test_point_against_field_broadcast():
    rng = np.random.default_rng(103)
    grid = (3, 4)
    field = Form(2, 1, 1, rng.standard_normal((2, 2) + grid) + 0j)
    point = random_point_form(rng, 2, 1, 1)
    total = field + point
    assert total.payload == grid
    assert np.allclose(total.coeffs[:, :, 1, 2],
                       field.coeffs[:, :, 1, 2] + point.coeffs)
    wedged = wedge(point, field)
    assert wedged.payload == grid
    again = wedge(point, Form(2, 1, 1, field.coeffs[:, :, 1, 2]))
    assert np.allclose(wedged.coeffs[:, :, 1, 2], again.coeffs)


def test_scalar_field_multiplication():
    rng = np.random.default_rng(107)
    grid = (5,)
    f = Form(2, 1, 0, rng.standard_normal((2, 1) + grid) + 0j)
    u = rng.standard_normal(grid)
    scaled = f * u
    assert np.allclose(scaled.coeffs, f.coeffs * u)
    assert np.allclose((2.0 * f).coeffs, 2.0 * f.coeffs)


def test_bidegree_mismatch_rejected():
    a = Form.zeros(2, 1, 0)
    b = Form.zeros(2, 0, 1)
    with pytest.raises(ValueError, match="bidegree"):
        _ = a + b
