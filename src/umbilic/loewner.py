"""Degree-by-degree construction of curved-Hessian data.

Given a formal series g(z, zbar), build real formal series f and phi with

    D^2 f - 2 (D phi)(D f) = g,    f = z + zbar + O(|z|^2),  phi = O(|z|^2),

by solving, at each homogeneous degree m >= 1, the real linear system

    T_m(f_{m+2}, phi_{m+1}) = D^2 f_{m+2} - 2 D phi_{m+1} = RHS_m,

with RHS_m = g_m + 2 sum_{k=2}^{m} (D phi_k)(D f_{m+2-k}), the cross terms
of -2 (D phi)(D f) after D(z + zbar) = 1 is split off.  T_m maps the
(2m+5)-dimensional real space H^R_{m+2} x H^R_{m+1} onto the
(2m+2)-dimensional space H_m and has a 3-dimensional kernel, so solutions
exist at every degree and become unique once three degrees of freedom are
pinned: the top harmonic coefficient of phi (z^{m+1} and zbar^{m+1}) is set
to zero and the diagonal |z|^{2n} coefficient of f (m even) or phi (m odd)
is prescribed.

The base step m = 0 solves D^2 f_2 = g_0 directly, consuming a possible
constant term of g, with the free real |z|^2 coefficient of f prescribed.

Everything is plain floating-point linear algebra with per-degree residual
verification; a residual above tolerance is a numerical fault (SolveFailed),
never an expected outcome, since the operators are surjective.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import SolveFailed
from .series import PowerSeries2

__all__ = [
    "LoewnerNormalization",
    "LoewnerSolution",
    "real_basis",
    "tm_matrix",
    "tm_rank_report",
    "loewner_solve",
    "curved_hessian_residual",
]

_RESIDUAL_TOL = 1e-9
_SV_CUTOFF = 1e-10


@dataclass
class LoewnerNormalization:
    """Prescribed diagonal coefficients and the harmonic-suppression flag.

    f_diag[i] is the coefficient of |z|^{2(i+1)} in f (so f_diag[0] pins the
    |z|^2 term), phi_diag[i] that of |z|^{2(i+1)} in phi.  Lists shorter
    than the requested order are padded with zeros.
    """

    f_diag: list = dataclass_field(default_factory=list)
    phi_diag: list = dataclass_field(default_factory=list)
    suppress_phi_harmonic: bool = True

    def alpha(self, n: int) -> float:
        i = n - 1
        return float(self.f_diag[i]) if 0 <= i < len(self.f_diag) else 0.0

    def beta(self, n: int) -> float:
        i = n - 1
        return float(self.phi_diag[i]) if 0 <= i < len(self.phi_diag) else 0.0

    def ignored(self, N: int) -> dict:
        """Entries an order-N solve never reads: f is complete through degree
        N and phi through N - 1, so |z|^{2n} is pinned for n <= N // 2 in f
        and for n <= (N - 1) // 2 in phi."""
        return {"f_diag": max(0, len(self.f_diag) - N // 2),
                "phi_diag": max(0, len(self.phi_diag) - (N - 1) // 2)}


@dataclass
class LoewnerSolution:
    f: PowerSeries2
    phi: PowerSeries2
    order: int
    residual_norm: float


# --------------------------------------------------------------------------
# real homogeneous bases
# --------------------------------------------------------------------------

def real_basis(d: int):
    """Basis of the real vector space of real-valued homogeneous polynomials
    of degree d in (z, zbar), ordered lexicographically in (k, re/im):

        for k = ceil(d/2) .. d:
            z^k zbar^k                                   (one real direction,
                                                          only when 2k = d)
            z^k zbar^{d-k} + z^{d-k} zbar^k              (re direction)
            i (z^k zbar^{d-k} - z^{d-k} zbar^k)          (im direction)

    Real dimension d + 1.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    basis = []
    for k in range((d + 1) // 2, d + 1):
        l = d - k
        if k == l:
            basis.append(PowerSeries2(d, {(k, l): 1.0}, real_tag=True))
        else:
            basis.append(PowerSeries2(d, {(k, l): 1.0, (l, k): 1.0}, real_tag=True))
            basis.append(PowerSeries2(d, {(k, l): 1.0j, (l, k): -1.0j}, real_tag=True))
    return basis


def _diag_param_index(d: int) -> int | None:
    """Index of the z^{d/2} zbar^{d/2} direction inside real_basis(d)."""
    if d % 2 != 0:
        return None
    return 0  # k starts at d/2, and the diagonal direction comes first


def _top_harmonic_indices(d: int):
    """Indices of the z^d + zbar^d (re and im) directions inside real_basis(d)."""
    dim = d + 1
    return [dim - 2, dim - 1]


def _homogeneous_coords(series: PowerSeries2, m: int) -> np.ndarray:
    """Real coordinates (Re c_0, Im c_0, ..., Re c_m, Im c_m) of the
    degree-m homogeneous part, c_j the coefficient of z^j zbar^{m-j}."""
    out = np.zeros(2 * (m + 1))
    for j in range(m + 1):
        c = series.coeff(j, m - j)
        out[2 * j] = c.real
        out[2 * j + 1] = c.imag
    return out


def tm_matrix(m: int) -> np.ndarray:
    """Matrix of T_m(f, phi) = D^2 f - 2 D phi on
    real_basis(m+2) x real_basis(m+1), in the coordinates of
    :func:`_homogeneous_coords`; shape (2m+2) x (2m+5)."""
    if m < 1:
        raise ValueError("tm_matrix requires m >= 1")
    cols = []
    for b in real_basis(m + 2):
        img = b.derivative("D").derivative("D")
        cols.append(_homogeneous_coords(img, m))
    for b in real_basis(m + 1):
        img = b.derivative("D").scale(-2.0)
        cols.append(_homogeneous_coords(img, m))
    return np.column_stack(cols)


def tm_rank_report(m: int):
    """(rank, nullity) of T_m via SVD with relative cutoff 1e-10."""
    M = tm_matrix(m)
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(sv > _SV_CUTOFF * sv[0]))
    return rank, M.shape[1] - rank


# --------------------------------------------------------------------------
# the recursion
# --------------------------------------------------------------------------

def loewner_solve(g: PowerSeries2, N: int,
                  norm: LoewnerNormalization | None = None) -> LoewnerSolution:
    """Solve D^2 f - 2 (D phi)(D f) = g through degree N - 2.

    Returns f complete through degree N and phi through degree N - 1; the
    residual is verified independently by :func:`curved_hessian_residual`.
    """
    if N < 2:
        raise ValueError("order N must be at least 2")
    if g.max_degree < N - 2:
        raise ValueError(f"g must be complete through degree {N - 2}")
    if norm is None:
        norm = LoewnerNormalization()

    f_coeffs: dict = {(1, 0): 1.0 + 0.0j, (0, 1): 1.0 + 0.0j}
    f_parts: dict[int, PowerSeries2] = {}
    phi_parts: dict[int, PowerSeries2] = {}

    gscale = 1.0 + g.max_coeff()

    # m = 0: D^2 f_2 = g_0, with the real |z|^2 coefficient pinned
    g0 = g.coeff(0, 0)
    a = g0 / 2.0
    f2 = PowerSeries2(2, {(2, 0): a, (0, 2): np.conj(a),
                          (1, 1): norm.alpha(1)}, real_tag=True)
    f_parts[2] = f2

    for m in range(1, N - 1):
        rhs_series = g.homogeneous_part(m)
        for k in range(2, m + 1):
            phi_k = phi_parts.get(k)
            f_j = f_parts.get(m + 2 - k)
            if phi_k is None or f_j is None:
                continue
            prod = phi_k.derivative("D").mul(f_j.derivative("D"), out_degree=m)
            rhs_series = rhs_series.add(prod.scale(2.0))
        rhs = _homogeneous_coords(rhs_series, m)

        M = tm_matrix(m)
        dim_f = m + 3
        dim_phi = m + 2
        pinned: dict[int, float] = {}
        if norm.suppress_phi_harmonic:
            for idx in _top_harmonic_indices(m + 1):
                pinned[dim_f + idx] = 0.0
        if m % 2 == 0:
            n_diag = (m + 2) // 2
            pinned[_diag_param_index(m + 2)] = norm.alpha(n_diag)
        else:
            n_diag = (m + 1) // 2
            pinned[dim_f + _diag_param_index(m + 1)] = norm.beta(n_diag)

        free = [i for i in range(M.shape[1]) if i not in pinned]
        rhs_eff = rhs.copy()
        for i, val in pinned.items():
            rhs_eff -= M[:, i] * val
        sol, *_ = np.linalg.lstsq(M[:, free], rhs_eff, rcond=None)
        x = np.zeros(M.shape[1])
        x[free] = sol
        for i, val in pinned.items():
            x[i] = val

        resid = float(np.max(np.abs(M @ x - rhs))) if rhs.size else 0.0
        if resid > _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(rhs)))):
            raise SolveFailed(
                f"degree-{m} solve residual {resid:.3e} exceeds tolerance; "
                "this contradicts surjectivity and signals a numerical fault")

        fb = real_basis(m + 2)
        pb = real_basis(m + 1)
        f_part = PowerSeries2.zero(m + 2)
        for i, b in enumerate(fb):
            if x[i] != 0.0:
                f_part = f_part.add(b.scale(x[i]))
        phi_part = PowerSeries2.zero(m + 1)
        for i, b in enumerate(pb):
            if x[dim_f + i] != 0.0:
                phi_part = phi_part.add(b.scale(x[dim_f + i]))
        f_parts[m + 2] = f_part
        phi_parts[m + 1] = phi_part

    for part in f_parts.values():
        for kl, c in part.coeffs.items():
            f_coeffs[kl] = f_coeffs.get(kl, 0.0) + c
    phi_coeffs: dict = {}
    for part in phi_parts.values():
        for kl, c in part.coeffs.items():
            phi_coeffs[kl] = phi_coeffs.get(kl, 0.0) + c

    f = PowerSeries2(N, f_coeffs, real_tag=True)
    phi = PowerSeries2(max(N - 1, 2), phi_coeffs, real_tag=True)
    resid = curved_hessian_residual(f, phi, g, N)
    solution = LoewnerSolution(f=f, phi=phi, order=N,
                               residual_norm=resid / gscale)
    if solution.residual_norm > _RESIDUAL_TOL:
        raise SolveFailed(
            f"solution residual {solution.residual_norm:.3e} exceeds "
            f"{_RESIDUAL_TOL:.1e} relative")
    return solution


def curved_hessian_residual(f: PowerSeries2, phi: PowerSeries2,
                            g: PowerSeries2, N: int) -> float:
    """Max coefficient modulus, through degree N - 2, of
    D^2 f - 2 (D phi)(D f) - g.  Independent of the recursion: it expands
    the full product, not the per-degree slices."""
    if f.max_degree < N or phi.max_degree < N - 1 or g.max_degree < N - 2:
        raise ValueError(f"inputs are not complete through the degrees needed for N={N}")
    d2f = f.derivative("D").derivative("D")
    prod = phi.derivative("D").mul(f.derivative("D"), out_degree=N - 2)
    resid = d2f.add(prod.scale(-2.0)).add(g.scale(-1.0)).truncate(N - 2)
    return resid.max_coeff()
