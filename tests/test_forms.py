"""Pointwise exterior algebra: wedge, conjugation, metric pairings, star, trace."""

import math
import warnings

import numpy as np
import pytest

from plurisym.errors import PositivityLostError
from plurisym.forms import (
    _eig_range,
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
    oracle_conjugate,
    oracle_inner,
    oracle_star,
    oracle_trace,
    oracle_wedge,
    random_hermitian_positive,
    random_point_form,
)


def monomial(n, p, q, I, J, value=1.0):
    f = Form.zeros(n, p, q)
    f.coeffs[multi_indices(n, p).index(I), multi_indices(n, q).index(J)] = value
    return f


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
        # herm_tol=None takes the structurally-Hermitian route
        for herm_tol in (1e-8, None):
            m = HermitianMetric.from_matrix(g, herm_tol=herm_tol)
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


def test_metric_positivity_failure():
    g = np.array([[1.0, 0.0], [0.0, -0.25]], dtype=np.complex128)
    with pytest.raises(PositivityLostError) as info:
        HermitianMetric.from_matrix(g)
    assert info.value.margin == pytest.approx(-0.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_metric_non_finite_entry_is_a_positivity_loss(bad):
    # caught before the minors or eigvalsh (LinAlgError on such a stack) see it
    g = np.broadcast_to(np.eye(3, dtype=np.complex128)[:, :, None], (3, 3, 4)).copy()
    g[1, 1, 1] = bad
    with pytest.raises(PositivityLostError) as info:
        HermitianMetric.from_matrix(g)
    assert math.isnan(info.value.margin)


@pytest.mark.parametrize("herm_tol", [1e-8, None], ids=["scanned", "hermitian"])
@pytest.mark.parametrize("diag", [(1.0, 0.0), (1.0, 1.0, 0.0)], ids=["n2", "n3"])
def test_singular_metric_raises_without_warning(diag, herm_tol):
    # the minors are checked before anything divides by det
    g = np.diag(np.array(diag, dtype=np.complex128))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityLostError) as info:
            HermitianMetric.from_matrix(g, herm_tol=herm_tol)
    assert info.value.margin == 0.0


@pytest.mark.parametrize("herm_tol", [1e-8, None], ids=["scanned", "hermitian"])
@pytest.mark.parametrize("bad", [
    (-1.0, -1.0),             # g00 fails; det > 0
    (1.0, -1.0, -1.0),        # the 2x2 leading minor fails; det > 0
    (1.0, 1.0, -1.0),         # only det fails
    (1.0, 1.0, -1.0, -1.0),   # the 3x3 leading minor fails; det > 0
], ids=["n2-g00", "n3-minor2", "n3-det", "n4-minor3"])
def test_indefinite_point_trips_the_minor_guard(bad, herm_tol):
    # one indefinite point in an otherwise positive stack; the margin is the
    # stack's smallest eigenvalue, exactly as the eigenvalue range reads it
    n = len(bad)
    rng = np.random.default_rng(31)
    g = np.empty((n, n, 5), dtype=np.complex128)
    for k in range(5):
        g[:, :, k] = random_hermitian_positive(rng, n)
    g[:, :, 3] = np.diag(bad)
    with pytest.raises(PositivityLostError) as info:
        HermitianMetric.from_matrix(g, herm_tol=herm_tol)
    assert info.value.margin == _eig_range(g, n)[0]
    assert info.value.margin == -1.0


def test_metric_of_form_round_trip():
    rng = np.random.default_rng(29)
    g = random_hermitian_positive(rng, 3)
    m = HermitianMetric.from_matrix(g)
    again = metric_of_form(fundamental_form(m))
    assert np.allclose(again.g, g, atol=1e-14)


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
