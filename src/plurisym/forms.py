"""Pointwise exterior algebra of (p,q)-forms on C^n with a Hermitian metric.

Conventions
-----------
A (p,q)-form is stored through its coefficients on the strictly increasing
basis ``dz^I ^ dzbar^J`` (``|I| = p``, ``|J| = q``, both ascending), giving
``C(n,p) * C(n,q)`` independent complex coefficients.  Coefficient arrays
carry the two basis axes first and any number of trailing sample axes (empty
for a single point, the grid for a field), so every operation here broadcasts
over points.

The metric pairing is fixed once:

* ``<dz^i, dz^j> = ginv[j, i]`` where ``ginv`` is the matrix inverse of
  ``g[i, j] = g_{i jbar}`` (no factor-2 convention),
* inner products of wedge monomials are Gram determinants of those pairings,
* the volume form is ``dV = omega^n / n!`` for the fundamental form
  ``omega = sqrt(-1) * g_{i jbar} dz^i ^ dzbar^j``,
* the Hodge star is complex linear and defined by
  ``a ^ star(conj(b)) = <a, b> dV`` for all a, b of equal bidegree.

With these choices the canonical top coefficient of dV at the identity metric
is ``(sqrt(-1))^n * (-1)^(n(n-1)/2)`` (see ``flat_volume_coefficient``), and
``star(omega^(n-2) ^ beta) = -(n-2)! * metric_trace(beta)`` holds for every
(2,1)-form beta, which is the identity the whole codifferential bookkeeping
leans on.  Degenerate bidegrees (negative, or beyond n) have zero basis
dimension and propagate silently as empty forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from itertools import combinations, groupby, permutations
from typing import Optional, Tuple

import numpy as np

from .errors import PositivityLostError

__all__ = [
    "Form",
    "HermitianMetric",
    "multi_indices",
    "wedge",
    "conjugate",
    "form_power",
    "inner_product",
    "hodge_star",
    "metric_trace",
    "fundamental_form",
    "volume_form",
    "metric_of_form",
    "flat_volume_coefficient",
    "flat_metric",
]


# ======================================================================
# multi-index combinatorics
# ======================================================================

@lru_cache(maxsize=None)
def multi_indices(n: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """All strictly increasing p-tuples drawn from 0..n-1 (empty if p is out of range)."""
    if p < 0 or p > n:
        return ()
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def _index_of(n: int, p: int):
    return {idx: k for k, idx in enumerate(multi_indices(n, p))}


def _basis_dim(n: int, p: int) -> int:
    return math.comb(n, p) if 0 <= p <= n else 0


def _merge_sign(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Sign of sorting the concatenation a+b, or None if the tuples overlap."""
    if set(a) & set(b):
        return None, None
    inversions = sum(1 for x in a for y in b if x > y)
    merged = tuple(sorted(a + b))
    return merged, -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _perm_signs(p: int):
    return tuple((perm, _perm_parity(perm)) for perm in permutations(range(p)))


def _perm_parity(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def flat_volume_coefficient(n: int) -> complex:
    """Canonical top coefficient of dV at the identity metric.

    dV = omega^n / n! expands to this multiple of dz^(1..n) ^ dzbar^(1..n)
    when g is the identity; integration divides it back out so the flat torus
    has unit volume.
    """
    return (1j ** n) * ((-1) ** (n * (n - 1) // 2))


# ======================================================================
# forms
# ======================================================================

@dataclass(eq=False, repr=False)
class Form:
    """A (p,q)-form; ``coeffs`` has shape (C(n,p), C(n,q), *payload)."""

    n: int
    p: int
    q: int
    coeffs: np.ndarray

    __array_ufunc__ = None  # keep numpy from hijacking arithmetic with ndarrays

    def __repr__(self):
        return f"Form(n={self.n}, bidegree=({self.p},{self.q}), payload={self.payload})"

    def __post_init__(self):
        expected = (_basis_dim(self.n, self.p), _basis_dim(self.n, self.q))
        if self.coeffs.shape[:2] != expected:
            raise ValueError(
                f"coefficient block {self.coeffs.shape[:2]} does not match "
                f"bidegree ({self.p},{self.q}) in dimension {self.n}; expected {expected}"
            )

    # ---- structure ----

    @property
    def payload(self) -> Tuple[int, ...]:
        return self.coeffs.shape[2:]

    @property
    def bidegree(self) -> Tuple[int, int]:
        return (self.p, self.q)

    @property
    def degree(self) -> int:
        return self.p + self.q

    @classmethod
    def zeros(cls, n: int, p: int, q: int, payload: Tuple[int, ...] = ()) -> "Form":
        shape = (_basis_dim(n, p), _basis_dim(n, q)) + tuple(payload)
        return cls(n, p, q, np.zeros(shape, dtype=np.complex128))

    @classmethod
    def constant_one(cls, n: int, payload: Tuple[int, ...] = ()) -> "Form":
        return cls(n, 0, 0, np.ones((1, 1) + tuple(payload), dtype=np.complex128))

    def copy(self) -> "Form":
        return Form(self.n, self.p, self.q, self.coeffs.copy())

    # ---- arithmetic (same bidegree; payloads equal or one pointwise) ----

    def _check_compatible(self, other: "Form"):
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise ValueError(
                f"bidegree mismatch: ({self.p},{self.q}) vs ({other.p},{other.q}) "
                f"in dimensions {self.n} vs {other.n}"
            )

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        a, b = _align_payloads(self.coeffs, other.coeffs)
        return Form(self.n, self.p, self.q, a + b)

    def __sub__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        a, b = _align_payloads(self.coeffs, other.coeffs)
        return Form(self.n, self.p, self.q, a - b)

    def __neg__(self) -> "Form":
        return Form(self.n, self.p, self.q, -self.coeffs)

    def __mul__(self, factor) -> "Form":
        """Scale by a scalar or by a payload-shaped array (pointwise function)."""
        factor = np.asarray(factor)
        return Form(self.n, self.p, self.q, self.coeffs * factor)

    __rmul__ = __mul__

    def flat_norm_sq(self):
        """Pointwise squared norm at the identity metric (payload-shaped, real)."""
        return np.sum(np.abs(self.coeffs) ** 2, axis=(0, 1))


def _align_payloads(a: np.ndarray, b: np.ndarray):
    """Pad the shorter payload with singleton axes right after the basis axes."""
    da, db = a.ndim, b.ndim
    if da < db:
        a = a.reshape(a.shape[:2] + (1,) * (db - da) + a.shape[2:])
    elif db < da:
        b = b.reshape(b.shape[:2] + (1,) * (da - db) + b.shape[2:])
    return a, b


# ======================================================================
# wedge product and conjugation
# ======================================================================

@lru_cache(maxsize=None)
def _wedge_table(n, pa, qa, pb, qb):
    cross = -1 if (pb * qa) % 2 else 1
    out_hol = _index_of(n, pa + pb)
    out_anti = _index_of(n, qa + qb)
    rows = []
    for ai, I_a in enumerate(multi_indices(n, pa)):
        for bi, I_b in enumerate(multi_indices(n, pb)):
            merged_i, sign_i = _merge_sign(I_a, I_b)
            if merged_i is None:
                continue
            for aj, J_a in enumerate(multi_indices(n, qa)):
                for bj, J_b in enumerate(multi_indices(n, qb)):
                    merged_j, sign_j = _merge_sign(J_a, J_b)
                    if merged_j is None:
                        continue
                    rows.append(
                        (ai, aj, bi, bj,
                         out_hol[merged_i], out_anti[merged_j],
                         cross * sign_i * sign_j)
                    )
    return tuple(rows)


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; bidegrees beyond n collapse to the empty form."""
    if a.n != b.n:
        raise ValueError("wedge of forms over different ambient dimensions")
    n = a.n
    p, q = a.p + b.p, a.q + b.q
    ca, cb = _align_payloads(a.coeffs, b.coeffs)
    payload = np.broadcast_shapes(ca.shape[2:], cb.shape[2:])
    out = np.zeros((_basis_dim(n, p), _basis_dim(n, q)) + payload, dtype=np.complex128)
    for ai, aj, bi, bj, oi, oj, sign in _wedge_table(n, a.p, a.q, b.p, b.q):
        term = ca[ai, aj] * cb[bi, bj]
        if sign < 0:
            out[oi, oj] -= term
        else:
            out[oi, oj] += term
    return Form(n, p, q, out)


def conjugate(a: Form) -> Form:
    """Complex conjugate form: bidegree (p,q) -> (q,p) with sign (-1)^(pq)."""
    sign = -1 if (a.p * a.q) % 2 else 1
    return Form(a.n, a.q, a.p, sign * np.conj(np.swapaxes(a.coeffs, 0, 1)))


def form_power(a: Form, k: int, payload: Tuple[int, ...] = ()) -> Form:
    """k-fold wedge a^k; k = 0 gives the constant function 1."""
    if k < 0:
        raise ValueError("negative wedge power")
    if k == 0:
        return Form.constant_one(a.n, payload or a.payload)
    out = a
    for _ in range(k - 1):
        out = wedge(out, a)
    return out


# ======================================================================
# Hermitian metrics
# ======================================================================

# payload points per block of the metric kernels: the positivity check, the
# inverse half, the traces that read it, and a record's V and F.  A block of
# one complex entry takes 256 KiB.  Measured on a 2-core Xeon (numpy 2.4.6,
# best of 40), in blocks of 2048, 4096, 8192 and 16384 points the inverse
# half took 12.7, 10.9, 11.1 and 11.1 ms at n=3 N=8 (0.59, 0.48, 0.42 and
# 0.45 ms at n=2 N=16), and a trace of a (2,1)-field reading it 21.6, 18.0,
# 15.5 and 16.0 ms (0.98, 0.80, 0.72 and 0.71 ms); the positivity check,
# whose cost per block is mostly numpy's per-call overhead, took 8.3, 6.1
# and 6.2 ms at n=3 N=8 in blocks of 4096, 8192 and 16384 (0.78, 0.57 and
# 0.59 ms at n=2 N=16)
_BLOCK = 16384


def _blocks(points: int):
    """Consecutive slices of ``_BLOCK`` points covering range(points); the last may be short."""
    return (slice(start, start + _BLOCK) for start in range(0, points, _BLOCK))


def _positive(det, *minors) -> bool:
    """True when det is at least the smallest normal float and every minor is > 0.

    Real parts, at every entry; NaN fails, and so does a subnormal det, whose
    reciprocal overflows.  Raises PositivityLostError with margin nan when
    det is not finite: the entries are finite (``from_matrix`` checks them
    first), but a product overflowed, and no inverse can be read off such a
    det.
    """
    if not np.isfinite(det).all():
        raise _positivity_lost(math.nan)
    # a minimum holds the test for every entry; np.min keeps a NaN, which fails
    return (float(np.min(np.real(det))) >= np.finfo(float).tiny
            and all(float(np.min(np.real(m))) > 0.0 for m in minors))


def _finite(*arrays) -> bool:
    """True when every entry of every array is finite."""
    return all(bool(np.isfinite(a).all()) for a in arrays)


def _moduli(*entries):
    """``|u|^2`` of each complex entry, from its real and imaginary parts."""
    return tuple(u.real * u.real + u.imag * u.imag for u in entries)


def _hermitian3_minors(d0, d1, d2, n01, n02, n12, tri):
    """Leading minors of a Hermitian 3x3 stack, with the (0,0) cofactor.

    The stack is given by its real diagonal d, the squared moduli
    ``nij = |g_ij|^2`` of its upper entries and ``tri = Re(g01 g12 conj(g02))``.
    Returns ``(lead2, det, c00)``: the 2x2 leading minor ``d0 d1 - n01``, the
    determinant ``d0 c00 - d1 n02 - d2 n01 + 2 tri`` and the cofactor
    ``c00 = d1 d2 - n12``; the first leading minor is d0 itself.
    """
    c00 = d1 * d2 - n12
    lead2 = d0 * d1 - n01
    det = d0 * c00 - d1 * n02 - d2 * n01 + 2.0 * tri
    return lead2, det, c00


def _off_diagonal_terms(u01, u02, u12):
    """``(|u01|^2, |u02|^2, |u12|^2)`` and ``Re(u01 u12 conj(u02))`` for ``_hermitian3_minors``."""
    prod = u01 * u12
    tri = prod.real * u02.real + prod.imag * u02.imag
    return _moduli(u01, u02, u12), tri


def _positive_det(diag: np.ndarray, upper: np.ndarray, n: int):
    """Real determinant of a Hermitian stack, or None unless positive definite.

    The stack is given by its half (see ``HermitianMetric``): the real
    diagonal ``diag`` and the strict upper triangle ``upper``.
    Positivity is Sylvester's criterion: every leading principal minor is
    > 0 at every point, and det at least the smallest normal float, so that
    1 / det is finite.  For n=2 the minors are g00 and det; for n=3, g00,
    the 2x2 leading minor and det (``_hermitian3_minors``); beyond that
    ``np.linalg.det`` of the leading blocks of the assembled stack.  They
    are checked before anything divides by det, so a singular or indefinite
    block returns None without a floating-point warning.  The closed forms'
    products may overflow on finite entries; that det is not finite, and
    ``_positive`` raises PositivityLostError (margin nan) instead of
    warning.  A normal det does not yet bound the inverse: a smallest
    eigenvalue near the subnormal range overflows it.  So the diagonal of
    the inverse must be finite, or the result is None; it bounds every
    other entry, since |ginv_ij|^2 <= ginv_ii ginv_jj for a positive
    definite inverse.  No off-diagonal entry of the inverse is built, and
    the diagonal only when a bound does not clear it: rounding is monotone,
    so every diagonal entry ``c * (1 / det)`` is at most
    ``max|c| * (1 / min det)`` in magnitude, and a finite bound means a
    finite diagonal.
    """
    if n == 2:
        a, d = diag[0], diag[1]
        with np.errstate(over="ignore", invalid="ignore"):
            det = a * d - _moduli(upper[0])[0]
        minors, cofactors = (a,), (d, a)
    elif n == 3:
        d0, d1, d2 = diag[0], diag[1], diag[2]
        with np.errstate(over="ignore", invalid="ignore"):
            norms, tri = _off_diagonal_terms(upper[0], upper[1], upper[2])
            lead2, det, c00 = _hermitian3_minors(d0, d1, d2, *norms, tri)
            cofactors = (c00, d0 * d2 - norms[1], lead2)
        minors = (d0, lead2)
    else:
        stacked = np.moveaxis(_hermitian_block(diag, upper), (0, 1), (-2, -1))
        det = np.linalg.det(stacked)
        minors = [np.linalg.det(stacked[..., :k, :k]) for k in range(1, n)]
    if not _positive(det, *minors):
        return None
    if n > 3:
        return det.real if _finite(np.linalg.inv(stacked)[..., range(n), range(n)]) else None
    with np.errstate(over="ignore", invalid="ignore"):
        bound = max(float(np.max(np.abs(c))) for c in cofactors) * (1.0 / float(np.min(det)))
        if math.isfinite(bound) or _finite(*(c * (1.0 / det) for c in cofactors)):
            return det
    return None


def _inverse(diag: np.ndarray, upper: np.ndarray, det, n: int) -> np.ndarray:
    """Inverse (n, n, *payload) block of a positive definite Hermitian half, from its det.

    For n = 2 and 3, the block of the inverse's half (``_inverse_entries``):
    its lower triangle is the conjugate of its upper one.  Beyond that,
    ``np.linalg.inv`` of the assembled stack.
    """
    if n > 3:
        stacked = np.moveaxis(_hermitian_block(diag, upper), (0, 1), (-2, -1))
        return np.moveaxis(np.linalg.inv(stacked), (-2, -1), (0, 1))
    return _hermitian_block(*_inverse_entries(diag, upper, det, n))


def _inverse_entries(diag: np.ndarray, upper: np.ndarray, det, n: int,
                     in_place: bool = False):
    """The Hermitian half of the inverse of a positive definite half, from its det; n = 2, 3.

    ``(diag, upper)`` of the inverse, laid out as ``HermitianMetric`` keeps
    g's: the real diagonal, (n, *payload) float64, and the strict upper
    triangle, (n(n-1)/2, *payload) complex128; the lower triangle is the
    conjugate of the upper one.  The closed forms (``_inverse_block``) run
    over blocks of ``_BLOCK`` points (``_blocks``), so their temporaries are
    block-sized and the half is the only payload-sized array built.  With
    ``in_place`` none is built: the inverse half is written over the given
    C-contiguous ``(diag, upper)``, which are returned, each block of points
    copied into block temporaries before its inverse is written.  Each point
    sees the same operations at any block size, in place or not.  A single
    point (payload ``()``) is computed as it is, its entries read as scalars
    before any is written: numpy's complex scalar product rounds differently
    from its array loops.
    """
    if in_place:
        inv_diag, inv_upper = diag, upper
    else:
        inv_diag = np.empty(diag.shape)
        inv_upper = np.empty(upper.shape, dtype=np.complex128)
    if diag.ndim == 1:
        _inverse_block(diag, upper, det, n, inv_diag, inv_upper)
        return inv_diag, inv_upper
    flat_diag, flat_upper = diag.reshape(n, -1), upper.reshape(len(upper), -1)
    out_diag, out_upper = inv_diag.reshape(n, -1), inv_upper.reshape(len(upper), -1)
    flat_det = np.reshape(det, -1)
    for blk in _blocks(flat_det.size):
        block_diag, block_upper = flat_diag[:, blk], flat_upper[:, blk]
        if in_place:
            block_diag, block_upper = block_diag.copy(), block_upper.copy()
        _inverse_block(block_diag, block_upper, flat_det[blk], n,
                       out_diag[:, blk], out_upper[:, blk])
    return inv_diag, inv_upper


def _inverse_block(diag, upper, det, n: int, inv_diag, inv_upper):
    """Write the closed-form inverse half of one block of points into ``inv_diag``, ``inv_upper``.

    The closed forms read the half's real diagonal and upper triangle and
    ``1 / det``.  Each product of two complex arrays names its operands in
    one fixed order, ``np.conj(y) * x``: numpy multiplies a temporary of 256
    KiB or more in place, in that order, and complex products are not
    bitwise commutative, so a fixed order makes a block of points round like
    the whole payload at any size.
    """
    inv_det = 1.0 / det
    if n == 2:
        inv_diag[0], inv_diag[1] = diag[1] * inv_det, diag[0] * inv_det
        inv_upper[0] = _negated(upper[0]) * inv_det
        return
    # the diagonal's cofactors are those of _positive_det
    d0, d1, d2 = diag[0], diag[1], diag[2]
    u01, u02, u12 = upper[0], upper[1], upper[2]
    n01, n02, n12 = _moduli(u01, u02, u12)
    inv_diag[0] = (d1 * d2 - n12) * inv_det
    inv_diag[1] = (d0 * d2 - n02) * inv_det
    inv_diag[2] = (d0 * d1 - n01) * inv_det
    inv_upper[0] = (np.conj(u12) * u02 - u01 * d2) * inv_det
    inv_upper[1] = (u01 * u12 - u02 * d1) * inv_det
    inv_upper[2] = (np.conj(u01) * u02 - d0 * u12) * inv_det


def _negated(z):
    """-z, bit for bit.

    An array whose last axis is contiguous is negated through its float
    view: numpy vectorizes float negation and not complex negation, and
    either flips the same sign bits.
    """
    if np.ndim(z) and z.strides[-1] == z.itemsize:
        return np.negative(z.view(np.float64)).view(np.complex128)
    return -z


# relative rounding slack of the certified n=3 eigenvalue range
_CERT_SLACK = 2.0 ** -40


def _uncertified(a, norms, tri, scale: float) -> np.ndarray:
    """Points where Sylvester's criterion does not certify a shifted block positive.

    The block has the real diagonal ``a``, the upper moduli ``norms`` and
    ``tri`` of ``_hermitian3_minors``; a minor of order k passes only when
    it exceeds ``_CERT_SLACK * scale^k``.
    """
    lead2, det, _ = _hermitian3_minors(*a, *norms, tri)
    tol2 = _CERT_SLACK * scale * scale
    return ~((a[0] > 0.0) & (lead2 > tol2) & (det > tol2 * scale))


def _eig_range(diag: np.ndarray, upper: np.ndarray, n: int):
    """(global min, global max) eigenvalue of a Hermitian half over its payload.

    n=2 is the closed form.  Beyond that the result is bitwise the min and
    max of ``np.linalg.eigvalsh`` over the assembled stack; a non-finite
    n=3 stack gives (nan, nan).

    For n=3 eigvalsh runs only where an extreme can lie, on the blocks
    assembled at those points.  With u the smallest diagonal entry of the
    stack and L its largest, the global minimum is <= u and the global
    maximum >= L (a diagonal entry is a Rayleigh quotient).  A point leaves
    the minimum's candidates when Sylvester's criterion certifies
    ``g - (u + delta) I`` positive definite there, and the maximum's when it
    certifies ``(L - delta) I - g``; the minors read the real diagonal and
    upper triangle.  eigvalsh then runs once on the points left in either
    set; it treats each matrix of a stack on its own, so the min and max
    are the full-stack call's.  The moduli and minors are computed over
    blocks of ``_BLOCK`` points (``_blocks``), one pass for the largest
    modulus and one for the candidates, so no grid-sized temporary is
    built; every point sees the same operations at any block size.

    Rounding: ``delta = 2^-40 max|g|`` (8192 unit roundoffs), and a
    minor of order k >= 2 counts as positive only above ``2^-40 R^k``, R
    bounding every entry of the shifted blocks.  The closed-form minors are
    a few products and sums of such entries, wrong by under 100 unit
    roundoffs of R^k, so a certified block is positive definite once its
    diagonal is moved by one rounding (< eps R).  An excluded point thus has
    every eigenvalue above ``u + delta - eps R``, and eigvalsh, whose error
    is a few unit roundoffs of max|g|, reads it above what it reads at
    the point of the smallest diagonal entry.  That point is never excluded:
    its shifted block has a negative diagonal entry.  The maximum mirrors
    this.
    """
    if n == 2:
        off = upper[0]
        mid = 0.5 * (diag[0] + diag[1])
        rad = np.sqrt((0.5 * (diag[0] - diag[1])) ** 2
                      + off.real ** 2 + off.imag ** 2)
        return float(np.min(mid - rad)), float(np.max(mid + rad))
    if n == 3:
        diag, upper = diag.reshape(3, -1), upper.reshape(3, -1)
        blocks = list(_blocks(diag.shape[1]))
        # np.min and np.max keep a NaN, which Python's min and max can drop
        low = float(np.min([np.min(di) for di in diag]))
        high = float(np.max([np.max(di) for di in diag]))
        off = math.sqrt(float(np.max([np.max(ni) for blk in blocks
                                      for ni in _moduli(*upper[:, blk])])))
        if not math.isfinite(low + high + off):
            return math.nan, math.nan
        delta = _CERT_SLACK * max(abs(low), abs(high), off)
        scale = max(high - low + delta, off)
        below, above = low + delta, high - delta
        keep = []
        for blk in blocks:
            d = diag[:, blk]
            norms, tri = _off_diagonal_terms(*upper[:, blk])
            keep.append(blk.start + np.flatnonzero(
                _uncertified([di - below for di in d], norms, tri, scale)
                | _uncertified([above - di for di in d], norms, -tri, scale)))
        keep = np.concatenate(keep)
        diag, upper = diag[:, keep], upper[:, keep]
    vals = np.linalg.eigvalsh(np.moveaxis(_hermitian_block(diag, upper), (0, 1), (-2, -1)))
    return float(np.min(vals)), float(np.max(vals))


# relative Hermiticity defect (``_hermiticity_defect``) that from_matrix
# takes for roundoff
_HERM_TOL = 1e-8


def _hermiticity_defect(g: np.ndarray) -> float:
    """max |g - g^H| over max |g| (over 1 for a zero block), read from the pairs i <= j.

    ``|g_ji - conj(g_ij)|`` equals ``|g_ij - conj(g_ji)|`` exactly, so the
    upper triangle and the diagonal give the full scan's value bit for bit.
    """
    scale = float(np.max(np.abs(g))) or 1.0
    return max(float(np.max(np.abs(g[i, j] - np.conj(g[j, i]))))
               for i, j in zip(*np.triu_indices(g.shape[0]))) / scale


def _positivity_lost(margin: float) -> PositivityLostError:
    return PositivityLostError(
        f"metric lost positivity: smallest eigenvalue {margin:.6e}", margin=margin
    )


def _hermitian_block(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The full (n, n, *payload) block of a Hermitian half, lower = conj(upper)."""
    n = len(diag)
    g = np.empty((n, n) + diag.shape[1:], dtype=np.complex128)
    for i in range(n):
        g[i, i] = diag[i]
    for k, (i, j) in enumerate(multi_indices(n, 2)):
        g[i, j] = upper[k]
        g[j, i] = np.conj(upper[k])
    return g


def _hermitian_half(g: np.ndarray):
    """(real diagonal, strict upper triangle) of an (n, n, *payload) block, as copies."""
    n = g.shape[0]
    diag = np.empty((n,) + g.shape[2:])
    upper = np.empty((n * (n - 1) // 2,) + g.shape[2:], dtype=np.complex128)
    for i in range(n):
        diag[i] = g[i, i].real
    for k, (i, j) in enumerate(multi_indices(n, 2)):
        upper[k] = g[i, j]
    return diag, upper


def _require_finite(*arrays):
    """Raise PositivityLostError with margin nan unless every entry is finite.

    A non-finite entry makes an array's sum non-finite; only a sum that
    overflowed on finite entries needs the scan of every entry.
    """
    for a in arrays:
        with np.errstate(over="ignore", invalid="ignore"):
            total = a.sum()
        if not (np.isfinite(total) or np.isfinite(a).all()):
            raise _positivity_lost(math.nan)


@dataclass(eq=False, repr=False)
class HermitianMetric:
    """Validated positive Hermitian metric: the Hermitian half of g and its determinant.

    A metric keeps g as its half, the only copy of it: the real diagonal
    ``diag``, (n, *payload) float64, and the strict upper triangle
    ``upper``, (n(n-1)/2, *payload) complex128 in ``multi_indices(n, 2)``
    order; the lower triangle is the conjugate of the upper one.  With
    ``det`` these are the only payload-sized arrays a metric keeps, about
    half of the full complex block.  ``g`` builds the full block on each
    read and does not keep it.  The inverse ``ginv`` and the eigenvalue
    range (``margin``, ``max_eig``) are not needed to validate the metric;
    each is computed on first read and cached.  The flow builds no ``ginv``
    on its grid: a trace reads the Hermitian half of the inverse
    (``_inverse_entries``), which ``metric_trace`` builds once per call and
    an RK4 stage once for both of its traces, and never caches on the
    metric, where it would outlive the step; a record's V and F build the
    blocks of g and of the inverse from the half and det as they walk the
    points (``flow._volume_and_pairing``).  At n=3 the eigenvalue range runs
    eigvalsh only at the points the certified range of ``_eig_range``
    leaves, a few hundred of an N=8 grid's 262 144.
    """

    n: int
    diag: np.ndarray    # real, (n, *payload)
    upper: np.ndarray   # complex, (n(n-1)/2, *payload)
    det: np.ndarray     # real, payload-shaped

    @property
    def payload(self) -> Tuple[int, ...]:
        return self.diag.shape[1:]

    @property
    def g(self) -> np.ndarray:
        """The full block g_{i jbar}, (n, n, *payload), built on this read."""
        return _hermitian_block(self.diag, self.upper)

    @cached_property
    def ginv(self) -> np.ndarray:
        """The inverse block, from the half and det by the closed forms of ``_inverse``."""
        return _inverse(self.diag, self.upper, self.det, self.n)

    @cached_property
    def eig_range(self) -> Tuple[float, float]:
        """(smallest, largest) eigenvalue over all points."""
        return _eig_range(self.diag, self.upper, self.n)

    @property
    def margin(self) -> float:
        """Global smallest eigenvalue."""
        return self.eig_range[0]

    @property
    def max_eig(self) -> float:
        """Global largest eigenvalue."""
        return self.eig_range[1]

    @classmethod
    def from_matrix(cls, g: np.ndarray) -> "HermitianMetric":
        """Build from the coefficient block g_{i jbar}.

        A g within ``_HERM_TOL`` of Hermitian is kept as its half: its real
        diagonal and upper triangle; its lower triangle and the imaginary
        part of its diagonal are dropped.  Raises ValueError beyond that
        tolerance, and PositivityLostError, with margin nan, when g holds a
        non-finite entry (the lower triangle included); otherwise as
        ``from_half``.
        """
        g = np.asarray(g, dtype=np.complex128)
        n = g.shape[0]
        if g.shape[:2] != (n, n):
            raise ValueError(f"metric block must be square, got {g.shape[:2]}")
        _require_finite(g)
        defect = _hermiticity_defect(g)
        if defect > _HERM_TOL:
            raise ValueError(f"metric is not Hermitian: defect {defect:.3e} > {_HERM_TOL:.1e}")
        return cls.from_half(*_hermitian_half(g))

    @classmethod
    def from_half(cls, diag: np.ndarray, upper: np.ndarray) -> "HermitianMetric":
        """Build from a Hermitian half, which the metric keeps as it is.

        ``diag`` is the real diagonal, (n, *payload) float64, and ``upper``
        the strict upper triangle, (n(n-1)/2, *payload) complex128 in
        ``multi_indices(n, 2)`` order.  Raises PositivityLostError, carrying
        the smallest eigenvalue as its margin, when the metric is not
        positive definite at every point by Sylvester's criterion, its
        determinant is subnormal somewhere or its inverse overflows (a
        smallest eigenvalue near the subnormal range), and with margin nan
        when an entry is not finite or the determinant overflows.

        After one finiteness scan of the half, ``_blocked_det`` checks the
        points in blocks of ``_BLOCK``, writing det into one payload-sized
        array; no block of the inverse is kept.  Every block is checked, so
        a determinant that overflows anywhere raises with margin nan, as
        ``_positive_det`` over the whole payload does; otherwise a failed
        block raises with the eigenvalue margin once the walk ends.
        """
        n = len(diag)
        if upper.shape != (n * (n - 1) // 2,) + diag.shape[1:]:
            raise ValueError(f"upper triangle {upper.shape} does not match the "
                             f"diagonal {diag.shape}")
        _require_finite(diag, upper)
        det = _blocked_det(diag, upper, n)
        if det is None:
            raise _positivity_lost(_eig_range(diag, upper, n)[0])
        return cls(n, diag, upper, det)


def _blocked_det(diag: np.ndarray, upper: np.ndarray, n: int):
    """``_positive_det`` of a half, block by block: the payload-shaped det, or None.

    Each point sees the operations of ``_positive_det`` over the whole
    payload, so det keeps its bits at any ``_BLOCK``.  A single point
    (payload ``()``) is checked as it is: numpy's complex scalar product
    rounds differently from its array loops.
    """
    if diag.ndim == 1:
        return _positive_det(diag, upper, n)
    flat_diag, flat_upper = diag.reshape(n, -1), upper.reshape(len(upper), -1)
    det = np.empty(diag.shape[1:])
    flat_det = det.reshape(-1)
    positive = True
    for blk in _blocks(flat_det.size):
        block_det = _positive_det(flat_diag[:, blk], flat_upper[:, blk], n)
        if block_det is None:
            positive = False
        else:
            flat_det[blk] = block_det
    return det if positive else None


def flat_metric(n: int, payload: Tuple[int, ...] = ()) -> HermitianMetric:
    """The identity metric, optionally broadcast over a payload."""
    payload = tuple(payload)
    return HermitianMetric.from_half(np.ones((n,) + payload),
                                     np.zeros((n * (n - 1) // 2,) + payload, dtype=np.complex128))


def fundamental_form(metric: HermitianMetric) -> Form:
    """omega = sqrt(-1) g_{i jbar} dz^i ^ dzbar^j."""
    return Form(metric.n, 1, 1, 1j * metric.g)


def metric_of_form(w: Form) -> HermitianMetric:
    """Extract g_{i jbar} = -sqrt(-1) * (coefficient of dz^i ^ dzbar^j) from a real (1,1)-form.

    Reality of w is equivalent to Hermiticity of g, which is what gets
    validated; a form that is not positive raises PositivityLostError.
    """
    if w.bidegree != (1, 1):
        raise ValueError(f"metric extraction needs a (1,1)-form, got {w.bidegree}")
    return HermitianMetric.from_matrix(-1j * w.coeffs)


def volume_form(metric: HermitianMetric) -> Form:
    """dV = omega^n / n! as an (n,n)-form."""
    coeff = metric.det * flat_volume_coefficient(metric.n)
    return Form(metric.n, metric.n, metric.n,
                coeff.reshape((1, 1) + coeff.shape).astype(np.complex128))


# ======================================================================
# metric pairings: inner product, Hodge star, trace
# ======================================================================

def _minor_det(ginv: np.ndarray, rows: Tuple[int, ...], cols: Tuple[int, ...]):
    """det over a,b of ginv[rows[sigma(a)], cols[a]] via permutation expansion."""
    k = len(rows)
    if k == 0:
        return 1.0
    if k == 1:
        return ginv[rows[0], cols[0]]
    total = None
    for perm, sign in _perm_signs(k):
        term = ginv[rows[perm[0]], cols[0]]
        for a in range(1, k):
            term = term * ginv[rows[perm[a]], cols[a]]
        total = sign * term if total is None else total + sign * term
    return total


def inner_product(a: Form, b: Form, metric: Optional[HermitianMetric] = None):
    """Pointwise Hermitian inner product <a, b> (payload-shaped complex array).

    ``metric=None`` means the identity metric, for which the increasing basis
    is orthonormal.  In general the pairing of basis monomials is the product
    of the holomorphic and antiholomorphic Gram determinants.  The conjugated
    coefficient comes first in each product, the order numpy takes for a
    temporary of 256 KiB or more (see ``_inverse_block``), so a block of points
    pairs like the whole payload.
    """
    a._check_compatible(b)
    ca, cb = _align_payloads(a.coeffs, b.coeffs)
    if metric is None:
        return np.einsum("ij...,ij...->...", ca, np.conj(cb))
    ginv = metric.ginv
    hol = multi_indices(a.n, a.p)
    anti = multi_indices(a.n, a.q)
    if not hol or not anti:
        payload = np.broadcast_shapes(ca.shape[2:], cb.shape[2:], metric.payload)
        return np.zeros(payload, dtype=np.complex128)
    # a holomorphic minor is read once, an antiholomorphic one once per
    # (I, K): as in ``hodge_star``, a minor read more than once is built
    # once per call
    anti_minor = partial(_minor_det, ginv)
    if len(hol) > 1:
        anti_minor = cache(anti_minor)
    total = 0.0
    for bi, I in enumerate(hol):
        for gi, K in enumerate(hol):
            # <dz^I, dz^K> = det ginv[K_b, I_a]
            hdet = _minor_det(ginv, K, I)
            for bj, J in enumerate(anti):
                for gj, L in enumerate(anti):
                    # <dzbar^J, dzbar^L> = det ginv[J_a, L_b]
                    adet = anti_minor(J, L)
                    total = total + np.conj(cb[gi, gj]) * ca[bi, bj] * hdet * adet
    return total


@lru_cache(maxsize=None)
def _star_layout(n, r, s):
    """Static combinatorics for star on (r,s)-forms: output slots and pairing signs."""
    hol_in = multi_indices(n, r)     # holomorphic slots of the input
    anti_in = multi_indices(n, s)
    test_hol = multi_indices(n, s)   # the (s,r) test-form space
    test_anti = multi_indices(n, r)
    out_hol = _index_of(n, n - s)
    out_anti = _index_of(n, n - r)
    sign_rs = -1 if (r * s) % 2 else 1
    cross = -1 if (r * (n - s)) % 2 else 1
    rows = []
    full = tuple(range(n))
    for I in test_hol:
        I_comp = tuple(x for x in full if x not in I)
        _, sI = _merge_sign(I, I_comp)
        for J in test_anti:
            J_comp = tuple(x for x in full if x not in J)
            _, sJ = _merge_sign(J, J_comp)
            w = cross * sI * sJ
            rows.append((I, J, out_hol[I_comp], out_anti[J_comp], sign_rs * w))
    return rows, test_hol, test_anti


def hodge_star(a: Form, metric: Optional[HermitianMetric] = None) -> Form:
    """Complex-linear Hodge star, (r,s) -> (n-s, n-r).

    Defined by ``b ^ star(a) = <b, conj(a)> dV`` for every (s,r)-form b, which
    is the pairing form of ``x ^ star(conj(y)) = <x, y> dV``.
    """
    n, r, s = a.n, a.p, a.q
    if metric is None:
        metric = flat_metric(n, a.payload)
    ginv = metric.ginv
    rows, test_hol, test_anti = _star_layout(n, r, s)
    payload = np.broadcast_shapes(a.payload, metric.payload)
    out = Form.zeros(n, n - s, n - r, payload)
    dvc = metric.det * flat_volume_coefficient(n)
    hol_lookup = _index_of(n, r)
    anti_lookup = _index_of(n, s)
    # a holomorphic minor is read once per J, an antiholomorphic one once per
    # (I, Ip): a minor read more than once is built once per call, and the
    # rest where they are read, so no minor is held that is not read again
    hol_minor = partial(_minor_det, ginv)
    if len(test_anti) > 1:
        hol_minor = cache(hol_minor)
    anti_minor = partial(_minor_det, ginv)
    if len(test_hol) > 1:
        anti_minor = cache(anti_minor)
    for I, J, oi, oj, w in rows:
        acc = None
        for Ip in test_hol:
            hdet = hol_minor(Ip, I)  # <dz^I, dz^Ip> = det ginv[Ip_b, I_a]
            for Jp in test_anti:
                adet = anti_minor(J, Jp)  # <dzbar^J, dzbar^Jp>
                c = a.coeffs[hol_lookup[Jp], anti_lookup[Ip]]
                # the temporary first: numpy multiplies a temporary of 256 KiB
                # or more in place, in that order (see ``_inverse_block``)
                term = (hdet * adet) * c
                acc = term if acc is None else acc + term
        val = (w * dvc) * acc
        out.coeffs[oi, oj] = val
    return out


@lru_cache(maxsize=None)
def _trace_table(n, p, q):
    """Rows (out_i, out_j, hol_idx, anti_idx, in_i, in_j, sign) for the metric trace.

    Contracts the last holomorphic against the first antiholomorphic slot:
    out[I', J'] = sum_{a,b} ginv[b, a] * sign * in[sort(I'+a), sort(b+J')].
    """
    rows = []
    in_hol = _index_of(n, p)
    in_anti = _index_of(n, q)
    for oi, Ip in enumerate(multi_indices(n, p - 1)):
        for oj, Jp in enumerate(multi_indices(n, q - 1)):
            for a in range(n):
                if a in Ip:
                    continue
                sign_a = -1 if sum(1 for x in Ip if x > a) % 2 else 1
                I_full = tuple(sorted(Ip + (a,)))
                for b in range(n):
                    if b in Jp:
                        continue
                    sign_b = -1 if sum(1 for x in Jp if x < b) % 2 else 1
                    J_full = tuple(sorted(Jp + (b,)))
                    rows.append((oi, oj, a, b, in_hol[I_full], in_anti[J_full],
                                 sign_a * sign_b))
    return tuple(rows)


@lru_cache(maxsize=None)
def _trace_components(n, p, q):
    """``_trace_table``'s rows grouped by input component: ((in_i, in_j), rows), in order.

    Each row is ``(out_i, out_j, hol_idx, anti_idx, sign)``.  The grouping is
    a stable sort, so the rows of a component keep their table order, and
    so do the rows of every output slot: each output meets its input
    components in increasing order (``tests/test_forms.py`` checks this for
    n = 2..4 and every (p, q)).  A trace that walks the components in this
    order therefore makes every output's sums in table order.
    """
    rows = sorted(_trace_table(n, p, q), key=lambda row: row[4:6])
    return tuple((component, tuple(row[:4] + row[6:] for row in group))
                 for component, group in groupby(rows, key=lambda row: row[4:6]))


def _flat_payload(x: np.ndarray, payload: Tuple[int, ...]) -> np.ndarray:
    """x (two basis axes, then a payload broadcasting to ``payload``) as (r, c, points).

    Numpy's right-aligned broadcasting, then one flat payload axis; a view
    for a C-contiguous x of the full payload and for a single point.
    """
    lead = x.shape[:2]
    x = x.reshape(lead + (1,) * (len(payload) - x.ndim + 2) + x.shape[2:])
    return np.broadcast_to(x, lead + payload).reshape(lead + (math.prod(payload),))


def _half_reader(diag: np.ndarray, upper: np.ndarray, points: int):
    """``inverse(row, col, blk)`` for ``metric_trace``: ``ginv[row, col]`` on the block ``blk``.

    ``(diag, upper)`` is the half ``_inverse_entries`` builds, over a payload
    of ``points`` points.  A diagonal or upper entry is read where it is
    stored; a lower entry is the conjugate of its upper one, written per
    block into one block-sized buffer.
    """
    n = len(diag)
    diag, upper = diag.reshape(n, points), upper.reshape(len(upper), points)
    slot = _index_of(n, 2)
    lower = np.empty(min(_BLOCK, points), dtype=np.complex128)

    def inverse(row, col, blk):
        if row == col:
            return diag[row, blk]
        if row < col:
            return upper[slot[row, col], blk]
        entry = upper[slot[col, row], blk]
        return np.conj(entry, out=lower[:entry.size])

    return inverse


def metric_trace(a: Form, metric) -> Form:
    """sqrt(-1) times the adjoint of wedging with the fundamental form.

    In an orthonormal frame this sends a (2,1)-form beta to
    ``sum_k beta_{s k kbar} dz^s``; on any (p,0)- or (0,q)-form it vanishes
    (those are primitive), returned here as the empty form of bidegree
    (p-1, q-1).

    ``metric`` is a ``HermitianMetric``, or the Hermitian half of its
    inverse, ``(diag, upper)`` as ``_inverse_entries`` builds it, on the
    form's whole payload of points; an RK4 stage passes its one inverse
    half to both of its traces.  Each row of ``_trace_table`` multiplies an
    inverse entry by an input coefficient and adds the product to (or
    subtracts it from) its output slot, in table order.  A payload of
    points (the grid, or a form and a metric that broadcast against each
    other) is flattened.  The rows are walked grouped by input component
    (``_trace_components``), each component's in blocks of ``_BLOCK``
    points: per block, each row's product goes into one block-sized term
    buffer.  Every point thus sees the same sums in the same order as a
    per-row product of whole fields, and nothing of the payload's size is
    allocated but the output.  Each component plane ``a.coeffs[i, j]`` is
    read once, and traced before the next is read, so a form whose
    coefficients are built one component at a time into one buffer can be
    traced (``flow._BandComponents``).  A metric on the whole payload
    builds the Hermitian half of its inverse once per call (the full
    ``np.linalg.inv`` block beyond n = 3), dropped on return, so ``ginv``
    is never built; a lower entry is the conjugate of its upper one, taken
    per block.  A metric broadcast over the form's points reads its own
    ``ginv``.  A single point (payload ``()``) multiplies numpy scalars
    instead: their complex product rounds without the fused multiply-add of
    numpy's array loops, and the point results keep those bits.
    """
    n = a.n
    shape = (_basis_dim(n, a.p - 1), _basis_dim(n, a.q - 1))
    half = isinstance(metric, tuple)
    payload = a.payload if half else np.broadcast_shapes(a.payload, metric.payload)
    if not payload:
        out = np.zeros(shape, dtype=np.complex128)
        for oi, oj, ahol, banti, ii, ij, sign in _trace_table(n, a.p, a.q):
            product = metric.ginv[banti, ahol] * a.coeffs[ii, ij]
            out[oi, oj] = out[oi, oj] - product if sign < 0 else out[oi, oj] + product
        return Form(n, a.p - 1, a.q - 1, out)
    points = math.prod(payload)
    if not half and metric.payload == payload and n <= 3:
        metric, half = _inverse_entries(metric.diag, metric.upper, metric.det, n), True
    if half:
        inverse = _half_reader(*metric, points)
    else:
        ginv = _flat_payload(metric.ginv if metric.payload != payload
                             else _inverse(metric.diag, metric.upper, metric.det, n), payload)
        inverse = lambda row, col, blk: ginv[row, col, blk]
    out = np.zeros(shape + (points,), dtype=np.complex128)
    term = np.empty(min(_BLOCK, points), dtype=np.complex128)
    for (ii, ij), rows in _trace_components(n, a.p, a.q):
        coeffs = np.broadcast_to(a.coeffs[ii, ij], payload).reshape(points)
        for blk in _blocks(points):
            t = term[:min(_BLOCK, points - blk.start)]
            for oi, oj, ahol, banti, sign in rows:
                o = out[oi, oj, blk]
                np.multiply(inverse(banti, ahol, blk), coeffs[blk], out=t)
                (np.subtract if sign < 0 else np.add)(o, t, out=o)
    return Form(n, a.p - 1, a.q - 1, out.reshape(shape + payload))
