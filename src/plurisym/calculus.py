"""Spectral exterior calculus on the flat torus C^n / (Z^n + sqrt(-1) Z^n).

Real coordinates are ordered (x^1, y^1, ..., x^n, y^n) with period 1 in each,
so a field lives on a (points,)*2n grid and z^j = x^j + sqrt(-1) y^j.  All
derivatives are exact Fourier multipliers on band-limited data:

    d/dz^j    <->  pi * ( k_y + sqrt(-1) k_x )
    d/dzbar^j <->  pi * (-k_y + sqrt(-1) k_x )

for the integer frequencies (k_x, k_y) of that coordinate pair.  Products of
fields leave the resolved band, so the grid carries a 2/3-style projector
(per-axis cutoff points // 3, Orszag's rule) that callers apply once per
composite operation rather than after every primitive.

Band-limited data can also live on the resolved band alone: ``to_band`` keeps
the (2 * cutoff + 1)**(2n) retained coefficients of a field in fftfreq order,
``from_band`` zero-pads them back to the grid, and derivatives, conjugation
and the curvature multiplier act on band arrays directly.  The flow keeps its
state there between RK4 stages and measures its residuals there.

Every transform, full-grid (``fft``/``ifft``) or band, is a dense per-axis
DFT matrix product on BLAS, which beats the FFT at these widths (Boyd 2001,
ch. 10).  The matrices index one table of exact-symmetry roots of unity, and
the band matrices are the kept rows and columns of the full-grid ones.
BLAS's own thread setting changes no bit.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from typing import Optional

import numpy as np

from .forms import (
    Form,
    HermitianMetric,
    conjugate,
    flat_volume_coefficient,
    hodge_star,
    inner_product,
    multi_indices,
    _basis_dim,
    _index_of,
)

__all__ = [
    "TorusGrid",
    "integrate",
    "global_inner_product",
    "l2_norm",
    "codifferential_del",
    "codifferential_dbar",
    "chern_form",
    "residual_norms",
    "residual_norms_hat",
    "random_band_limited",
]

# ----------------------------------------------------------------------
# derivative insertion tables (independent of grid resolution)
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _insertion_table(n: int, p: int, q: int, anti: bool):
    """Rows (coord, in_i, in_j, out_i, out_j, sign) assembling d or dbar.

    Holomorphic case: dz^coord ^ dz^I ^ dzbar^J picks up the sign of moving
    dz^coord into sorted position inside I.  Antiholomorphic: dzbar^coord
    additionally crosses the p holomorphic slots.
    """
    rows = []
    hol_in = multi_indices(n, p)
    anti_in = multi_indices(n, q)
    if anti:
        out_anti = _index_of(n, q + 1)
        base = -1 if p % 2 else 1
        for ij, J in enumerate(anti_in):
            for c in range(n):
                if c in J:
                    continue
                sign = base * (-1 if sum(1 for e in J if e < c) % 2 else 1)
                oj = out_anti[tuple(sorted(J + (c,)))]
                for ii in range(len(hol_in)):
                    rows.append((c, ii, ij, ii, oj, sign))
    else:
        out_hol = _index_of(n, p + 1)
        for ii, I in enumerate(hol_in):
            for c in range(n):
                if c in I:
                    continue
                sign = -1 if sum(1 for e in I if e < c) % 2 else 1
                oi = out_hol[tuple(sorted(I + (c,)))]
                for ij in range(len(anti_in)):
                    rows.append((c, ii, ij, oi, ij, sign))
    return tuple(rows)


def _output_shape(n: int, p: int, q: int, anti: bool) -> tuple:
    """The basis axes of d (anti=False) or dbar (anti=True) of a (p,q)-form."""
    pp, qq = (p, q + 1) if anti else (p + 1, q)
    return _basis_dim(n, pp), _basis_dim(n, qq)


@lru_cache(maxsize=None)
def _slot_rows(n: int, p: int, q: int, anti: bool):
    """``_insertion_table`` grouped by output slot.

    ``(slot, rows)`` for every output slot ``(out_i, out_j)`` in C order,
    each with its rows ``(coord, in_i, in_j, sign)`` in table order.
    """
    table = _insertion_table(n, p, q, anti)
    return tuple(
        (slot, tuple((c, ii, ij, sign) for c, ii, ij, oi, oj, sign in table if (oi, oj) == slot))
        for slot in np.ndindex(*_output_shape(n, p, q, anti)))


def _roots_of_unity(points: int) -> np.ndarray:
    """w[m] = exp(-2 pi sqrt(-1) m / points), each angle folded into [0, pi/4].

    The folding is integer arithmetic, so +-1 and +-sqrt(-1) are exact,
    w[points - m] == conj(w[m]) and w[m + points/2] == -w[m] hold bit for
    bit, and every entry is within 1.6e-16 of the true root.  A plain exp
    table is off by up to 1.5e-15: the transform of a constant does not cancel.
    """
    a = 8 * np.arange(points)                # the angle is 2 pi a / (8 points)
    conj = a > 4 * points
    a = np.where(conj, 8 * points - a, a)    # into [0, pi]
    neg = a > 2 * points
    a = np.where(neg, 4 * points - a, a)     # into [0, pi/2], cosine negated
    swap = a > points
    a = np.where(swap, 2 * points - a, a)    # into [0, pi/4], cosine and sine swapped
    theta = (np.pi / (4 * points)) * a
    re = np.where(swap, np.sin(theta), np.cos(theta))
    im = np.where(swap, np.cos(theta), np.sin(theta))
    return np.where(neg, -re, re) - 1j * np.where(conj, -im, im)


def _along(ndim: int, axis: int, values: np.ndarray) -> np.ndarray:
    """``values`` as an array of ndim axes, varying along ``axis`` only."""
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)


class TorusGrid:
    """Uniform periodic grid with cached Fourier multipliers and band transform matrices."""

    def __init__(self, n: int, points: int):
        if points < 4:
            raise ValueError(f"grid needs at least 4 points per axis, got {points}")
        self.n = n
        self.points = points
        self.shape = (points,) * (2 * n)
        # integer frequencies in fftfreq order
        k = np.r_[0:(points + 1) // 2, -(points // 2):0]

        def multipliers(freqs):
            """d/dz^j and d/dzbar^j per j; axis 2j is x^(j+1), 2j+1 is y^(j+1)."""
            kx = [_along(2 * n, 2 * j, freqs) for j in range(n)]
            ky = [_along(2 * n, 2 * j + 1, freqs) for j in range(n)]
            return ([np.pi * (y + 1j * x) for x, y in zip(kx, ky)],
                    [np.pi * (-y + 1j * x) for x, y in zip(kx, ky)])

        self.mz, self.mzbar = multipliers(k)
        self.dealias_cutoff = points // 3
        # the resolved band: per axis the frequencies 0..c and -c..-1, in
        # fftfreq order, so negating a frequency is index m -> -m mod (2c + 1)
        c = self.dealias_cutoff
        keep = np.r_[0:c + 1, points - c:points]
        width = 2 * c + 1
        self.band_shape = (width,) * (2 * n)
        kb = self._kband = k[keep]
        # per-axis DFT matrices: forward F[k, j] = w[k * j mod points],
        # unnormalized, and inverse conj(F).T / points; the band keeps their
        # rows and columns at the kept frequencies
        fwd = self._fwd = _roots_of_unity(points)[np.outer(k, np.arange(points)) % points]
        self._inv = np.ascontiguousarray(np.conj(fwd).T) / points
        self._band_fwd = fwd[keep]
        self._band_inv = np.ascontiguousarray(self._inv[:, keep])
        # negating a frequency keeps index 0 of an axis and reverses 1..2c:
        # per combination of those two parts over the axes, the (out, in)
        # slices that band_conjugate copies
        parts = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
        self._band_flips = [tuple(zip(*combo)) for combo in product(parts, repeat=2 * n)]
        self.band_mz, self.band_mzbar = multipliers(kb)

    def cutoff_mask(self, cutoff: int) -> np.ndarray:
        """Dense boolean mask of the band keeping |k| <= cutoff on every axis."""
        return reduce(np.multiply.outer, [np.abs(self._kband) <= cutoff] * (2 * self.n))

    # ---- transforms ----

    def fft(self, arr: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Unnormalized DFT of a field (trailing grid axes), as numpy's fftn.

        ``out`` is as for ``ifft``, and may be ``arr`` itself.
        """
        return self._per_axis(self._fwd, arr, self.shape, out)

    def ifft(self, arr: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Inverse DFT, with its 1/points per axis, as numpy's ifftn.

        ``out`` is as for ``from_band``, and may be ``arr`` itself: the
        field is then transformed in place.
        """
        return self._per_axis(self._inv, arr, self.shape, out)

    def to_band(self, arr: np.ndarray) -> np.ndarray:
        """Fourier coefficients of a field (trailing grid axes) on the resolved band."""
        return self._per_axis(self._band_fwd, arr, self.band_shape)

    def from_band(self, band: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Physical field of band coefficients, zero outside the band.

        ``out``, when given, is a C-contiguous complex array of the result's
        shape (a slot of a larger block will do); the field is written there.
        """
        return self._per_axis(self._band_inv, band, self.shape, out)

    def _per_axis(self, mat: np.ndarray, arr: np.ndarray, shape: tuple,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply ``mat`` along each trailing axis, one scalar field at a time.

        ``mat @ y.reshape(-1, k).T`` contracts the last axis and puts the new
        one first, C-contiguous; after 2n products the axes are back in order
        and BLAS read every transposed operand through a flag, with no
        transpose copy.  The last product writes straight into the output:
        ``out`` when the caller hands one in (C-contiguous complex, of the
        result's shape), else a new array.  Only the 2n - 1 intermediate
        products are allocated: smaller than a grid field between the grid
        and the band, the size of one on the full grid.  Leading component
        axes are looped over, and a component is read only by its first
        product, so on the full grid ``out`` may be ``arr`` itself.
        """
        lead = arr.shape[:arr.ndim - 2 * self.n]
        if out is None:
            out = np.empty(lead + shape, dtype=np.complex128)
        elif (out.shape != lead + shape or out.dtype != np.complex128
              or not out.flags.c_contiguous):
            raise ValueError(f"out must be C-contiguous complex128 of shape {lead + shape}, "
                             f"got {out.dtype} {out.shape}")
        k = mat.shape[1]
        for idx in np.ndindex(*lead):
            y = arr[idx]
            for _ in range(2 * self.n - 1):
                y = mat @ y.reshape(-1, k).T
            np.matmul(mat, y.reshape(-1, k).T, out=out[idx].reshape(shape[0], -1))
        return out

    def band_conjugate(self, chat: np.ndarray, p: int, q: int) -> np.ndarray:
        """Band coefficients of conj of a (p,q)-form: sign (-1)^(pq) * conj(F(-k)), swapped."""
        sign = -1 if (p * q) % 2 else 1
        swapped = np.swapaxes(chat, 0, 1)
        out = np.empty(swapped.shape, dtype=np.complex128)
        for dst, src in self._band_flips:
            np.conj(swapped[(Ellipsis,) + src], out=out[(Ellipsis,) + dst])
        return np.multiply(sign, out, out=out)

    def ddbar_hat(self, u_hat: np.ndarray) -> np.ndarray:
        """Band coefficients of sqrt(-1) del dbar u, block-indexed (i, j), from a scalar's.

        Each multiplier ``sqrt(-1) mz_i mzbar_j`` is built where it is used;
        it spans the axes of z^i and z^j only, so no band-sized table is kept.
        """
        n = self.n
        out = np.empty((n, n) + u_hat.shape, dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                np.multiply(1j * (self.band_mz[i] * self.band_mzbar[j]), u_hat, out=out[i, j])
        return out

    def metric_pack(self, omega_hat: np.ndarray) -> np.ndarray:
        """Band step of the metric g of a real (1,1)-form omega = sqrt(-1) g: its transform inputs.

        ``omega_hat`` holds omega's (n, n) band coefficients.  The result
        holds ceil(n/2) + n(n-1)/2 band fields of g = -sqrt(-1) omega: the
        diagonal in pairs g_ii + sqrt(-1) g_(i+1)(i+1) (the last entry alone
        when n is odd), then the strict upper triangle in
        ``multi_indices(n, 2)`` order, ready for ``hermitian_from_band``.
        Each entry is scaled straight into its slot, so the packed array and
        the pair's second term are all that is allocated.
        """
        n = self.n
        pairs = (n + 1) // 2
        packed = np.empty((pairs + n * (n - 1) // 2,) + omega_hat.shape[2:],
                          dtype=np.complex128)
        for k, i in enumerate(range(0, n, 2)):
            np.multiply(-1j, omega_hat[i, i], out=packed[k])
            if i + 1 < n:
                packed[k] += 1j * (-1j * omega_hat[i + 1, i + 1])
        for k, (i, j) in enumerate(multi_indices(n, 2), start=pairs):
            np.multiply(-1j, omega_hat[i, j], out=packed[k])
        return packed

    def hermitian_from_band(self, packed: np.ndarray):
        """Grid step: the Hermitian half of a field from its packed band fields (``metric_pack``).

        Returns ``(diag, upper)``, as ``forms.HermitianMetric`` keeps it: the
        real diagonal, (n, *grid) float64, and the strict upper triangle,
        (n(n-1)/2, *grid) complex128 in ``multi_indices(n, 2)`` order.  One
        transform per packed field.  Each diagonal pair goes through one
        field buffer and is read off as real and imaginary parts; the upper
        triangle is transformed straight into its slots, so the half and one
        field are all that is allocated of grid size.
        """
        n = self.n
        pairs = (n + 1) // 2
        diag = np.empty((n,) + self.shape)
        upper = np.empty((n * (n - 1) // 2,) + self.shape, dtype=np.complex128)
        pair = np.empty(self.shape, dtype=np.complex128)
        for k, i in enumerate(range(0, n, 2)):
            self.from_band(packed[k], out=pair)
            diag[i] = pair.real
            if i + 1 < n:
                diag[i + 1] = pair.imag
        self.from_band(packed[pairs:], out=upper)
        return diag, upper

    def coordinates(self):
        """Broadcastable coordinate arrays, ordered (x^1, y^1, ..., x^n, y^n)."""
        t = np.arange(self.points) / self.points
        return [_along(2 * self.n, a, t) for a in range(2 * self.n)]

    # ---- spectral derivative assembly ----

    def _check_field(self, a: Form):
        if a.payload != self.shape:
            raise ValueError(f"form payload {a.payload} does not match grid {self.shape}")

    def derivative_components(self, chat: np.ndarray, p: int, q: int, anti: bool,
                              out: Optional[np.ndarray] = None):
        """d (anti=False) or dbar (anti=True) of spectral (p,q) coefficients, one component at a time.

        Yields ``(slot, component)`` for every output slot ``(out_i, out_j)``
        in C order.  A component sums its slot's rows of ``_insertion_table``
        in table order, starting from zero: the operations of a walk of the
        whole table, so it has that slot's bits.  It is built in
        ``out[slot]`` when ``out`` (the derivative's shape) is given, else
        in one buffer that the next component overwrites, so read each one
        before asking for the next.  Each row's product goes through one
        more buffer.  The coefficients cover the whole grid or the resolved
        band, told apart by their trailing shape; any other shape raises
        ValueError.
        """
        payload = chat.shape[2:]
        if payload == self.band_shape:
            mult = self.band_mzbar if anti else self.band_mz
        elif payload == self.shape:
            mult = self.mzbar if anti else self.mz
        else:
            raise ValueError(f"coefficients {payload} cover neither the grid nor the band")
        term = np.empty(payload, dtype=np.complex128)
        buffer = np.empty(payload, dtype=np.complex128) if out is None else None
        for slot, rows in _slot_rows(self.n, p, q, anti):
            acc = buffer if out is None else out[slot]
            acc.fill(0)
            for c, ii, ij, sign in rows:
                np.multiply(mult[c], chat[ii, ij], out=term)
                if sign < 0:
                    acc -= term
                else:
                    acc += term
            yield slot, acc

    def derivative_hat(self, chat: np.ndarray, p: int, q: int, anti: bool) -> np.ndarray:
        """Apply d (anti=False) or dbar (anti=True) to spectral (p,q) coefficients.

        ``derivative_components`` built into a new array.  The coefficients
        cover the whole grid or the resolved band, told apart by their
        trailing shape; any other shape raises ValueError.
        """
        out = np.empty(_output_shape(self.n, p, q, anti) + chat.shape[2:], dtype=np.complex128)
        for _ in self.derivative_components(chat, p, q, anti, out=out):
            pass
        return out

    def _exterior(self, a: Form, antis, overwrite: bool = False) -> list:
        """del (anti=False) and dbar (anti=True) of a field, one per entry of ``antis``.

        The field is transformed forward once, and only if some part has a
        degree within n; a part whose degree would exceed n is the empty zero
        form.  The forward coefficients are dropped once the last part's
        derivative is built, and each derivative's coefficients are
        transformed back in place, so a part costs one array of its size.
        With ``overwrite`` the field's own coefficients (C-contiguous
        complex) are transformed in place, and ``a`` is left holding them; a
        caller that keeps no other reference to them frees them here.
        """
        self._check_field(a)
        n, p0, q0, coeffs = self.n, a.p, a.q, a.coeffs
        del a  # with overwrite, hat is the only reference this call keeps
        degrees = [(p0, q0 + 1) if anti else (p0 + 1, q0) for anti in antis]
        within = [k for k, (p, q) in enumerate(degrees) if max(p, q) <= n]
        hat = self.fft(coeffs, out=coeffs if overwrite else None) if within else None
        del coeffs
        parts = []
        for k, (anti, (p, q)) in enumerate(zip(antis, degrees)):
            if k not in within:
                parts.append(Form.zeros(n, p, q, self.shape))
                continue
            part = self.derivative_hat(hat, p0, q0, anti)
            if k == within[-1]:
                hat = None
            parts.append(Form(n, p, q, self.ifft(part, out=part)))
        return parts

    def del_form(self, a: Form) -> Form:
        """Holomorphic exterior derivative of a field."""
        return self._exterior(a, (False,))[0]

    def dbar_form(self, a: Form) -> Form:
        """Antiholomorphic exterior derivative of a field."""
        return self._exterior(a, (True,))[0]

    def derivatives(self, a: Form) -> tuple[Form, Form]:
        """(del a, dbar a) from one forward transform of a field.

        Bitwise equal to ``(del_form(a), dbar_form(a))``.
        """
        return tuple(self._exterior(a, (False, True)))

    def truncate(self, a: Form) -> Form:
        """Project a field onto the resolved band."""
        self._check_field(a)
        return Form(a.n, a.p, a.q, self.from_band(self.to_band(a.coeffs)))


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

def integrate(grid: TorusGrid, a: Form) -> complex:
    """Integral of an (n,n)-form over the torus, normalized to unit flat volume."""
    n = grid.n
    if a.bidegree != (n, n):
        raise ValueError(f"can only integrate ({n},{n})-forms, got {a.bidegree}")
    if a.payload == ():
        val = a.coeffs[0, 0]
    else:
        val = np.mean(a.coeffs[0, 0])
    return complex(val / flat_volume_coefficient(n))


def global_inner_product(grid: TorusGrid, a: Form, b: Form,
                         metric: Optional[HermitianMetric] = None) -> complex:
    """L^2 pairing integral of <a, b> against the metric volume density."""
    pt = inner_product(a, b, metric)
    if metric is not None:
        pt = pt * metric.det
    return complex(np.mean(pt))


def l2_norm(grid: TorusGrid, a: Form, metric: Optional[HermitianMetric] = None) -> float:
    """L^2 norm of a field: in the metric pairing, or pointwise flat without one."""
    if metric is None:
        if a.coeffs.size == 0:
            return 0.0
        return float(np.sqrt(np.mean(a.flat_norm_sq())))
    return float(np.sqrt(max(global_inner_product(grid, a, a, metric).real, 0.0)))


# ----------------------------------------------------------------------
# codifferentials and curvature
# ----------------------------------------------------------------------

def _codifferential(grid: TorusGrid, a: Form, metric: HermitianMetric, anti: bool) -> Form:
    """-star D star a, with D = dbar (anti) or del.

    The inner star is transformed forward in place and dropped once its
    derivative is built, and the outer star is negated in place.
    """
    out = hodge_star(grid._exterior(hodge_star(a, metric), (anti,), overwrite=True)[0], metric)
    np.negative(out.coeffs, out=out.coeffs)
    return out


def codifferential_del(grid: TorusGrid, a: Form, metric: HermitianMetric) -> Form:
    """Adjoint of the holomorphic derivative: -star dbar star."""
    return _codifferential(grid, a, metric, anti=True)


def codifferential_dbar(grid: TorusGrid, a: Form, metric: HermitianMetric) -> Form:
    """Adjoint of the antiholomorphic derivative: -star d star."""
    return _codifferential(grid, a, metric, anti=False)


def chern_form(grid: TorusGrid, metric: HermitianMetric) -> Form:
    """First-Chern-type curvature form sqrt(-1) d dbar log det(g), band-limited.

    det(g) is positive on a valid metric but its log is not band-limited, so
    the projector is applied right after the pointwise log.
    """
    det = metric.det
    if not np.min(det) > 0.0:
        raise ValueError("metric determinant is not positive; cannot take its log")
    u = np.log(det)
    if u.shape != grid.shape:
        u = np.ascontiguousarray(np.broadcast_to(u, grid.shape))
    return Form(grid.n, 1, 1, grid.from_band(grid.ddbar_hat(grid.to_band(u))))


def residual_norms(grid: TorusGrid, omega: Form, phi: Form) -> dict:
    """Flat L^2 norms of the structural residuals of a state, from its physical fields.

    The physical route: ``residual_norms_hat``'s norms from the full-grid
    coefficients of omega, phi and conj(phi).  Each field is transformed
    forward when its terms come up, and its coefficients are dropped after
    their last use.  It reads any fields, band-limited or not; the flow's
    records read the band coefficients their state already carries instead
    (``flow.diagnostics_record``), and the two routes agree at roundoff on
    band-limited states.
    """
    return _residual_norms(grid, lambda: grid.fft(omega.coeffs), lambda: grid.fft(phi.coeffs),
                           lambda: grid.fft(conjugate(phi).coeffs))


def residual_norms_hat(grid: TorusGrid, omega_hat: np.ndarray, phi_hat: np.ndarray,
                       phibar_hat: np.ndarray) -> dict:
    """Flat L^2 norms of the structural residuals from Fourier coefficients.

    The coefficients of omega, phi and conj(phi) cover the whole grid or
    the resolved band; either way they are the unnormalized transform of
    the grid, so the norms come out the same.
    ``d_omega`` is the closedness defect of the combined real 2-form
    phi + omega + conj(phi): all four bidegree components of its exterior
    derivative are assembled explicitly and combined in quadrature.
    Diagnostic norms deliberately use the flat background pairing so they
    stay meaningful even when the evolving metric degenerates.  Derivatives
    are multipliers and the norms come from Parseval.
    """
    return _residual_norms(grid, lambda: omega_hat, lambda: phi_hat, lambda: phibar_hat)


def _residual_norms(grid: TorusGrid, get_omega, get_phi, get_phibar) -> dict:
    """``residual_norms_hat``, each set of coefficients returned by a call of its ``get_*``.

    Each is called once, when its terms come up, and its result is dropped
    after its last use.  del omega and dbar omega are built whole, since each
    takes a sum; every other derivative is built one component at a time
    (``TorusGrid.derivative_components``) and squared or added into that
    sum before the next (IEEE addition commutes, so the bits are those of
    a new sum).
    """
    n, size = grid.n, grid.points ** (2 * grid.n)

    def flat_l2(lead: tuple, components) -> float:
        # Parseval: the grid mean of |f|^2 is sum |F|^2 / size^2.  The
        # squares go into one real array a component at a time, with the
        # operations of chat.real ** 2 + chat.imag ** 2
        sq = None
        for slot, comp in components:
            if sq is None:
                sq = np.empty(lead + comp.shape)
            np.square(comp.real, out=sq[slot])
            sq[slot] += np.square(comp.imag)
        return 0.0 if sq is None else float(np.sqrt(np.sum(sq))) / size

    def norm(chat: np.ndarray) -> float:
        return flat_l2(chat.shape[:2], ((s, chat[s]) for s in np.ndindex(*chat.shape[:2])))

    def derivative_norm(chat: np.ndarray, p: int, q: int, anti: bool) -> float:
        return flat_l2(_output_shape(n, p, q, anti),
                       grid.derivative_components(chat, p, q, anti))

    def add_derivative(total: np.ndarray, chat: np.ndarray, p: int, q: int, anti: bool):
        for slot, comp in grid.derivative_components(chat, p, q, anti):
            total[slot] += comp

    omega_hat = get_omega()
    d_om = grid.derivative_hat(omega_hat, 1, 1, anti=False)
    pluriclosed = derivative_norm(d_om, 2, 1, anti=True)
    phi_hat = get_phi()
    add_derivative(d_om, phi_hat, 2, 0, anti=True)
    hs = norm(d_om)
    del d_om
    d_phi = derivative_norm(phi_hat, 2, 0, anti=False)
    del phi_hat
    mixed = grid.derivative_hat(omega_hat, 1, 1, anti=True)
    del omega_hat
    phibar_hat = get_phibar()
    add_derivative(mixed, phibar_hat, 0, 2, anti=False)
    closedness = d_phi ** 2 + hs ** 2 + norm(mixed) ** 2
    del mixed
    closedness += derivative_norm(phibar_hat, 0, 2, anti=True) ** 2
    return {
        "d_omega": float(np.sqrt(closedness)),
        "hs_constraint": hs,
        "del_phi": d_phi,
        "pluriclosed": pluriclosed,
    }


def random_band_limited(grid: TorusGrid, rng: np.random.Generator, cutoff: int,
                        real: bool = True, band: bool = False) -> np.ndarray:
    """Band-limited random scalar field with |k| <= cutoff on every axis.

    The draw goes through the resolved band, so ``cutoff`` must lie in it.
    With ``band`` set, its band coefficients; for ``real`` they are those of
    a real field up to roundoff, since no real part is taken.
    """
    if cutoff > grid.dealias_cutoff:
        raise ValueError(f"cutoff {cutoff} lies outside the resolved band "
                         f"(|k| <= {grid.dealias_cutoff})")
    noise = rng.standard_normal(grid.shape)
    if not real:
        noise = noise + 1j * rng.standard_normal(grid.shape)
    hat = grid.to_band(noise) * grid.cutoff_mask(cutoff)
    if band:
        return hat
    out = grid.from_band(hat)
    return out.real if real else out
