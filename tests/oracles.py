"""Independent reference implementations used only by the test suite.

Everything here recomputes results through a different algorithm than the
package: wedge signs come from a global inversion count instead of merge
tables, Gram determinants go through np.linalg.det, the Hodge star is solved
from its defining property as a dense linear system, and the trace is solved
from adjointness.  Agreement is therefore evidence, not tautology.
"""

import math
from itertools import combinations

import numpy as np

from plurisym.calculus import _insertion_table
from plurisym.forms import Form, _basis_dim, flat_volume_coefficient, multi_indices


def _inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def _letters(n, I, J):
    """Encode dz^I ^ dzbar^J as one word; anti letters are shifted past hol ones."""
    return tuple(I) + tuple(n + j for j in J)


def oracle_wedge(a: Form, b: Form) -> Form:
    """Wedge by concatenating letter words and sorting with a global parity count."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n = a.n
    p, q = a.p + b.p, a.q + b.q
    hol_a = multi_indices(n, a.p)
    anti_a = multi_indices(n, a.q)
    hol_b = multi_indices(n, b.p)
    anti_b = multi_indices(n, b.q)
    out = Form.zeros(n, p, q, np.broadcast_shapes(a.payload, b.payload))
    if out.coeffs.shape[0] == 0 or out.coeffs.shape[1] == 0:
        return out
    hol_out = {idx: k for k, idx in enumerate(multi_indices(n, p))}
    anti_out = {idx: k for k, idx in enumerate(multi_indices(n, q))}
    for ai, I_a in enumerate(hol_a):
        for aj, J_a in enumerate(anti_a):
            wa = _letters(n, I_a, J_a)
            for bi, I_b in enumerate(hol_b):
                for bj, J_b in enumerate(anti_b):
                    word = wa + _letters(n, I_b, J_b)
                    if len(set(word)) != len(word):
                        continue
                    sign = -1 if _inversions(word) % 2 else 1
                    I = tuple(sorted(I_a + I_b))
                    J = tuple(sorted(J_a + J_b))
                    out.coeffs[hol_out[I], anti_out[J]] += (
                        sign * a.coeffs[ai, aj] * b.coeffs[bi, bj]
                    )
    return out


def oracle_conjugate(a: Form) -> Form:
    """Conjugate each basis monomial and re-sort its letters from scratch."""
    n = a.n
    out = Form.zeros(n, a.q, a.p, a.payload)
    hol_out = {idx: k for k, idx in enumerate(multi_indices(n, a.q))}
    anti_out = {idx: k for k, idx in enumerate(multi_indices(n, a.p))}
    for i, I in enumerate(multi_indices(n, a.p)):
        for j, J in enumerate(multi_indices(n, a.q)):
            # conj(dz^I ^ dzbar^J) = dzbar^I ^ dz^J, then sort back to hol-first
            word = tuple(n + x for x in I) + tuple(J)
            sign = -1 if _inversions(word) % 2 else 1
            out.coeffs[hol_out[J], anti_out[I]] += sign * np.conj(a.coeffs[i, j])
    return out


def _gram(ginv: np.ndarray, I, K, anti: bool) -> complex:
    """<dz^I, dz^K> (anti=False) or <dzbar^I, dzbar^K> (anti=True) via np.linalg.det."""
    k = len(I)
    if k == 0:
        return 1.0 + 0.0j
    m = np.empty((k, k), dtype=np.complex128)
    for r in range(k):
        for c in range(k):
            m[r, c] = ginv[I[r], K[c]] if anti else ginv[K[c], I[r]]
    return complex(np.linalg.det(m))


def oracle_inner(a: Form, b: Form, ginv: np.ndarray) -> complex:
    """Pointwise <a, b> from per-monomial Gram determinants (point forms only)."""
    total = 0.0 + 0.0j
    for i, I in enumerate(multi_indices(a.n, a.p)):
        for k, K in enumerate(multi_indices(a.n, a.p)):
            h = _gram(ginv, I, K, anti=False)
            for j, J in enumerate(multi_indices(a.n, a.q)):
                for l, L in enumerate(multi_indices(a.n, a.q)):
                    g = _gram(ginv, J, L, anti=True)
                    total += complex(a.coeffs[i, j]) * np.conj(complex(b.coeffs[k, l])) * h * g
    return total


def _top_coefficient(n: int, w: Form) -> complex:
    if w.bidegree != (n, n):
        return 0.0 + 0.0j
    return complex(w.coeffs[0, 0])


def oracle_star(a: Form, g: np.ndarray) -> Form:
    """Solve b ^ X = <b, conj(a)> dV for X over all (s,r) test monomials.

    The wedge pairing between (s,r) and (n-s, n-r) is nondegenerate, so the
    square system determines X uniquely; point forms only.
    """
    n, r, s = a.n, a.p, a.q
    ginv = np.linalg.inv(g)
    det = complex(np.linalg.det(g))
    dv_top = det * flat_volume_coefficient(n)

    test_hol = multi_indices(n, s)
    test_anti = multi_indices(n, r)
    unk_hol = multi_indices(n, n - s)
    unk_anti = multi_indices(n, n - r)
    n_test = len(test_hol) * len(test_anti)
    n_unk = len(unk_hol) * len(unk_anti)
    assert n_test == n_unk

    a_conj = oracle_conjugate(a)
    mat = np.zeros((n_test, n_unk), dtype=np.complex128)
    rhs = np.zeros(n_test, dtype=np.complex128)
    row = 0
    for I in test_hol:
        for J in test_anti:
            b = Form.zeros(n, s, r)
            bi = multi_indices(n, s).index(I)
            bj = multi_indices(n, r).index(J)
            b.coeffs[bi, bj] = 1.0
            col = 0
            for K in unk_hol:
                for L in unk_anti:
                    e = Form.zeros(n, n - s, n - r)
                    e.coeffs[unk_hol.index(K), unk_anti.index(L)] = 1.0
                    mat[row, col] = _top_coefficient(n, oracle_wedge(b, e))
                    col += 1
            rhs[row] = oracle_inner(b, a_conj, ginv) * dv_top
            row += 1
    x = np.linalg.solve(mat, rhs)
    out = Form.zeros(n, n - s, n - r)
    out.coeffs[:, :] = x.reshape(len(unk_hol), len(unk_anti))
    return out


def oracle_trace(a: Form, g: np.ndarray) -> Form:
    """Solve <tr a, psi> = sqrt(-1) <a, omega ^ psi> over all (p-1,q-1) monomials."""
    n, p, q = a.n, a.p, a.q
    ginv = np.linalg.inv(g)
    omega = Form(n, 1, 1, 1j * np.asarray(g, dtype=np.complex128))
    out_hol = multi_indices(n, p - 1)
    out_anti = multi_indices(n, q - 1)
    dim = len(out_hol) * len(out_anti)
    out = Form.zeros(n, p - 1, q - 1)
    if dim == 0:
        return out
    gram = np.zeros((dim, dim), dtype=np.complex128)
    rhs = np.zeros(dim, dtype=np.complex128)
    basis = []
    for I in out_hol:
        for J in out_anti:
            e = Form.zeros(n, p - 1, q - 1)
            e.coeffs[out_hol.index(I), out_anti.index(J)] = 1.0
            basis.append(e)
    for row, psi in enumerate(basis):
        for col, e in enumerate(basis):
            gram[row, col] = oracle_inner(e, psi, ginv)
        rhs[row] = 1j * oracle_inner(a, oracle_wedge(omega, psi), ginv)
    x = np.linalg.solve(gram, rhs)
    out.coeffs[:, :] = x.reshape(len(out_hol), len(out_anti))
    return out


def oracle_trace_rows(a: Form, ginv: np.ndarray) -> Form:
    """The metric trace as one whole-payload product per contraction, for bitwise pins.

    Not an independent algorithm but the plain route that the package's
    metric_trace must reproduce to the last bit at any block size, whether
    it reads a metric's ginv or builds each block of the inverse from the
    metric's half and det: each contraction of the last holomorphic slot
    (index x) with the first antiholomorphic slot (index y) is one product
    ``ginv[y, x] * a[I, J]`` over the whole broadcast payload, added to or
    subtracted from a zeroed output, for the outputs (I', J') in order,
    then x, then y.  The signs come from inversion counts.
    """
    n, p, q = a.n, a.p, a.q
    hol = {I: k for k, I in enumerate(multi_indices(n, p))}
    anti = {J: k for k, J in enumerate(multi_indices(n, q))}
    out = Form.zeros(n, p - 1, q - 1, np.broadcast_shapes(a.payload, ginv.shape[2:]))
    for oi, Ip in enumerate(multi_indices(n, p - 1)):
        for oj, Jp in enumerate(multi_indices(n, q - 1)):
            for x in range(n):
                if x in Ip:
                    continue
                for y in range(n):
                    if y in Jp:
                        continue
                    odd = (_inversions(Ip + (x,)) + _inversions((y,) + Jp)) % 2
                    term = ginv[y, x] * a.coeffs[hol[tuple(sorted(Ip + (x,)))],
                                                 anti[tuple(sorted((y,) + Jp))]]
                    if odd:
                        out.coeffs[oi, oj] -= term
                    else:
                        out.coeffs[oi, oj] += term
    return out


def oracle_band_conjugate(grid, chat: np.ndarray, p: int, q: int) -> np.ndarray:
    """Band coefficients of conj of a (p,q)-form through one flat index of the whole band.

    The index maps each band point to the point of the negated frequency; it
    is built from meshgrid index arrays as large as the band, which
    ``TorusGrid`` no longer stores.
    """
    width = 2 * grid.dealias_cutoff + 1
    neg = (-np.arange(width)) % width
    flat = np.ravel_multi_index(np.meshgrid(*[neg] * (2 * grid.n), indexing="ij"),
                                grid.band_shape).ravel()
    sign = -1 if (p * q) % 2 else 1
    swapped = np.conj(np.swapaxes(chat, 0, 1))
    return sign * swapped.reshape(-1, flat.size).take(flat, axis=1).reshape(swapped.shape)


def oracle_ddbar_band(grid) -> np.ndarray:
    """The band-sized table of sqrt(-1) mz_i mzbar_j, block-indexed (i, j)."""
    n = grid.n
    table = np.empty((n, n) + grid.band_shape, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            table[i, j] = 1j * (grid.band_mz[i] * grid.band_mzbar[j])
    return table


# ----------------------------------------------------------------------
# full-block metrics
# ----------------------------------------------------------------------
# Metrics kept the full (n, n, *payload) block g before they kept only its
# Hermitian half.  These are the full-block routes of that time: the block
# built from band coefficients, and det, the inverse and the eigenvalue range
# read off the block.  The half's kernels must give their bits.

def oracle_hermitian_from_band(grid, g_hat: np.ndarray) -> np.ndarray:
    """Full (n, n) block of a Hermitian field from its band coefficients, lower = conj(upper)."""
    n = grid.n
    out = np.empty((n, n) + grid.shape, dtype=np.complex128)
    pair = np.empty(grid.shape, dtype=np.complex128)
    for i in range(0, n, 2):
        if i + 1 < n:
            grid.from_band(g_hat[i, i] + 1j * g_hat[i + 1, i + 1], out=pair)
            out[i, i] = pair.real
            out[i + 1, i + 1] = pair.imag
        else:
            out[i, i] = grid.from_band(g_hat[i, i], out=pair).real
    for i in range(n):
        for j in range(i + 1, n):
            grid.from_band(g_hat[i, j], out=out[i, j])
            np.conj(out[i, j], out=out[j, i])
    return out


def oracle_hermitian_block(raw: np.ndarray) -> np.ndarray:
    """The block a metric kept of a near-Hermitian raw: real diagonal, upper, conj(upper)."""
    g = np.empty_like(raw)
    for i in range(raw.shape[0]):
        g[i, i] = raw[i, i].real
    for i, j in combinations(range(raw.shape[0]), 2):
        g[i, j], g[j, i] = raw[i, j], np.conj(raw[i, j])
    return g


def _modulus_sq(u):
    return u.real * u.real + u.imag * u.imag


class FullBlockMetric:
    """A positive metric that keeps its full block g, read as ``HermitianMetric`` is read.

    det, ginv and eig_range are computed from g on construction: the closed
    forms for n = 2 and 3, reading g's real diagonal and upper triangle in
    the package's operation order, and ``np.linalg`` beyond; the n >= 3
    eigenvalue range is eigvalsh over the whole block.  ``inner_product``
    and ``global_inner_product`` accept it, and ``oracle_trace_rows`` of
    its ginv is the trace ``metric_trace`` must give from the half.
    """

    def __init__(self, g: np.ndarray):
        n = self.n = g.shape[0]
        self.g, self.payload = g, g.shape[2:]
        stacked = np.moveaxis(g, (0, 1), (-2, -1))
        d = [g[i, i].real for i in range(n)]
        if n == 2:
            u01 = g[0, 1]
            self.det = d[0] * d[1] - _modulus_sq(u01)
            inv_det = 1.0 / self.det
            rows = [[d[1] * inv_det, (-u01) * inv_det], [None, d[0] * inv_det]]
        elif n == 3:
            u01, u02, u12 = g[0, 1], g[0, 2], g[1, 2]
            n01, n02, n12 = _modulus_sq(u01), _modulus_sq(u02), _modulus_sq(u12)
            prod = u01 * u12
            tri = prod.real * u02.real + prod.imag * u02.imag
            self.det = d[0] * (d[1] * d[2] - n12) - d[1] * n02 - d[2] * n01 + 2.0 * tri
            inv_det = 1.0 / self.det
            rows = [[(d[1] * d[2] - n12) * inv_det,
                     (np.conj(u12) * u02 - u01 * d[2]) * inv_det,
                     (u01 * u12 - u02 * d[1]) * inv_det],
                    [None, (d[0] * d[2] - n02) * inv_det,
                     (np.conj(u01) * u02 - d[0] * u12) * inv_det],
                    [None, None, (d[0] * d[1] - n01) * inv_det]]
        else:
            self.det = np.linalg.det(stacked).real
            self.ginv = np.moveaxis(np.linalg.inv(stacked), (-2, -1), (0, 1))
        if n <= 3:
            self.ginv = np.empty_like(g)
            for i in range(n):
                for j in range(i, n):
                    self.ginv[i, j] = rows[i][j]
                    self.ginv[j, i] = np.conj(rows[i][j])
        if n == 2:
            mid = 0.5 * (d[0] + d[1])
            rad = np.sqrt((0.5 * (d[0] - d[1])) ** 2 + u01.real ** 2 + u01.imag ** 2)
            self.eig_range = float(np.min(mid - rad)), float(np.max(mid + rad))
        else:
            vals = np.linalg.eigvalsh(stacked)
            self.eig_range = float(np.min(vals)), float(np.max(vals))


def random_point_form(rng, n, p, q, scale=1.0) -> Form:
    shape = (math.comb(n, p), math.comb(n, q))
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Form(n, p, q, scale * c)


def random_hermitian_positive(rng, n, spread=0.5) -> np.ndarray:
    """Random positive-definite Hermitian matrix, compactly conditioned."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.eye(n) + spread * (a @ a.conj().T) / n


def poly_fit_oracle(ts, vs, degree):
    """Least-squares polynomial coefficients via the plain Vandermonde system."""
    v = np.vander(np.asarray(ts, dtype=float), degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(v, np.asarray(vs, dtype=float), rcond=None)
    return coeffs


def oracle_obstructed(a0, a1, a2, span=1100.0, points=4096):
    """Brute-force scan: does a0 + a1 t + a2 t^2 reach zero for some t > 0?

    Samples the polynomial densely on (0, span] plus the vertex of the
    parabola, so grazing double roots are seen too.  Coefficients must be
    drawn so any positive root lies inside the span (Cauchy bound).
    """
    ts = np.linspace(0.0, span, points)[1:]
    if a2 != 0.0:
        vertex = -a1 / (2.0 * a2)
        if vertex > 0.0:
            ts = np.append(ts, vertex)
    vals = a0 + a1 * ts + a2 * ts * ts
    tol = 1e-9 * max(abs(a0), abs(a1), abs(a2), 1.0)
    return bool(np.min(vals) <= tol)


# ----------------------------------------------------------------------
# routes that allocate every field afresh
# ----------------------------------------------------------------------
# Stage rates, derivatives and residual norms once built each field in a new
# array: every derivative, inverse transform, sum of derivatives and square.  The
# package now works in arrays that already exist, with the same operations
# in the same order, and must give these routes' bits.

def oracle_stage_rate(grid, omega_hat, phi_hat, inverse, det, buffer):
    """``flow._stage_rate`` with fresh (2,1)-fields and a per-block inverse trace.

    The stage route before the rates streamed their components: del omega
    and dbar phi are each transformed into a new grid array as a whole, and
    each trace builds the inverse block by block of ``forms._BLOCK`` points
    and applies the rows of ``oracle_trace_rows`` to it.  The blocks of the
    inverse come from ``FullBlockMetric`` on the stage's full block g,
    rebuilt from ``omega_hat`` by ``oracle_hermitian_from_band``.
    ``inverse`` and ``buffer`` are accepted and left unread, so this stands
    in for the package's rate inside ``step_rk4``.
    """
    from plurisym import forms
    from plurisym.flow import _omega_velocity, _phi_velocity

    n = grid.n
    g = oracle_hermitian_from_band(grid, -1j * omega_hat).reshape(n, n, -1)

    def traced(hat):
        coeffs = grid.from_band(hat).reshape(hat.shape[:2] + (-1,))
        out = np.empty((n, 1, coeffs.shape[2]), dtype=np.complex128)
        for start in range(0, coeffs.shape[2], forms._BLOCK):
            blk = slice(start, start + forms._BLOCK)
            ginv = FullBlockMetric(g[:, :, blk]).ginv
            out[:, :, blk] = oracle_trace_rows(Form(n, 2, 1, coeffs[:, :, blk]), ginv).coeffs
        return out.reshape((n, 1) + grid.shape)

    omega_vel = _omega_velocity(
        grid, det, lambda: traced(oracle_derivative_hat(grid, omega_hat, 1, 1, anti=False)))
    phi_vel = _phi_velocity(grid, traced(oracle_derivative_hat(grid, phi_hat, 2, 0, anti=True)))
    return omega_vel, phi_vel


def oracle_derivative_hat(grid, chat: np.ndarray, p: int, q: int, anti: bool) -> np.ndarray:
    """``TorusGrid.derivative_hat`` as one walk of the whole insertion table.

    Every row adds its product, a new array, into a zeroed output holding
    all components, in table order.  The package walks the table one output
    component at a time (``TorusGrid.derivative_components``).
    """
    n = grid.n
    pp, qq = (p, q + 1) if anti else (p + 1, q)
    if chat.shape[2:] == grid.band_shape:
        mult = grid.band_mzbar if anti else grid.band_mz
    else:
        mult = grid.mzbar if anti else grid.mz
    out = np.zeros((_basis_dim(n, pp), _basis_dim(n, qq)) + chat.shape[2:],
                   dtype=np.complex128)
    for c, ii, ij, oi, oj, sign in _insertion_table(n, p, q, anti):
        term = mult[c] * chat[ii, ij]
        if sign < 0:
            out[oi, oj] -= term
        else:
            out[oi, oj] += term
    return out


def oracle_derivatives(grid, a: Form):
    """(del a, dbar a), each derivative's coefficients transformed back into a new array."""
    hat = grid.fft(a.coeffs)
    parts = []
    for p, q, anti in ((a.p + 1, a.q, False), (a.p, a.q + 1, True)):
        if max(p, q) > a.n:
            parts.append(Form.zeros(a.n, p, q, grid.shape))
        else:
            parts.append(Form(a.n, p, q, grid.ifft(oracle_derivative_hat(grid, hat, a.p, a.q,
                                                                         anti))))
    return tuple(parts)


def oracle_residual_norms_hat(grid, omega_hat, phi_hat, phibar_hat) -> dict:
    """``calculus.residual_norms_hat`` with each derivative, sum and square in a new array."""
    def d(chat, p, q, anti):
        return oracle_derivative_hat(grid, chat, p, q, anti)

    size = grid.points ** (2 * grid.n)

    def flat_l2(chat):
        if chat.size == 0:
            return 0.0
        return float(np.sqrt(np.sum(chat.real ** 2 + chat.imag ** 2))) / size

    d_om = d(omega_hat, 1, 1, anti=False)
    pluriclosed = flat_l2(d(d_om, 2, 1, anti=True))
    hs = flat_l2(d_om + d(phi_hat, 2, 0, anti=True))
    d_phi = flat_l2(d(phi_hat, 2, 0, anti=False))
    closedness = (
        d_phi ** 2
        + hs ** 2
        + flat_l2(d(omega_hat, 1, 1, anti=True) + d(phibar_hat, 0, 2, anti=False)) ** 2
        + flat_l2(d(phibar_hat, 0, 2, anti=True)) ** 2
    )
    return {
        "d_omega": float(np.sqrt(closedness)),
        "hs_constraint": hs,
        "del_phi": d_phi,
        "pluriclosed": pluriclosed,
    }
