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

The recursion works on homogeneous coefficient vectors: the degree-d part
is the vector v with v[j] the coefficient of z^j zbar^{d-j}, i.e. the
antidiagonal k + l = d of the dense series array.  D maps it to the
degree-(d-1) vector j v[j] (the matrix D_d), the product of two homogeneous
parts is the 1-D convolution of their vectors, and the complex matrix U_d
takes real_basis(d) coordinates to a vector.  So T_m is given in closed
form, [D_{m+1} D_{m+2} U_{m+2}, -2 D_{m+1} U_{m+1}] with the real and
imaginary parts of each row interleaved, and the solved parts are U_d x.

Everything is plain floating-point linear algebra with per-degree residual
verification; a residual above tolerance is a numerical fault (SolveFailed),
never an expected outcome, since the operators are surjective.
"""

from __future__ import annotations

import functools
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
# homogeneous coefficient vectors
# --------------------------------------------------------------------------

def _antidiagonal(d: int):
    """Index of the degree-d homogeneous part in a dense series array: entry
    j of the coefficient vector is that of z^j zbar^{d-j}."""
    j = np.arange(d + 1)
    return j, d - j


def _d_matrix(d: int) -> np.ndarray:
    """D from degree-d to degree-(d-1) coefficient vectors: z^j zbar^{d-j}
    goes to j z^{j-1} zbar^{d-j}."""
    return np.eye(d, d + 1, 1) * np.arange(d + 1)


@functools.lru_cache(maxsize=128)
def _basis_matrix(d: int) -> np.ndarray:
    """U_d: the complex (d+1) x (d+1) matrix whose column i is the
    coefficient vector of real_basis(d)[i]; cached, so read-only."""
    eye = np.eye(d + 1)
    cols = []
    for k in range((d + 1) // 2, d + 1):
        e, e_bar = eye[k], eye[d - k]
        cols += [e] if 2 * k == d else [e + e_bar, 1j * (e - e_bar)]
    U = np.column_stack(cols).astype(complex)
    U.flags.writeable = False
    return U


def _real_rows(a: np.ndarray) -> np.ndarray:
    """Rows Re a[0], Im a[0], Re a[1], Im a[1], ...: the real coordinates of
    a complex coefficient vector (or of each column of a matrix)."""
    return np.stack((a.real, a.imag), axis=1).reshape(2 * len(a), *a.shape[1:])


def real_basis(d: int):
    """Basis of the real vector space of real-valued homogeneous polynomials
    of degree d in (z, zbar), ordered lexicographically in (k, re/im):

        for k = ceil(d/2) .. d:
            z^k zbar^k                                   (one real direction,
                                                          only when 2k = d)
            z^k zbar^{d-k} + z^{d-k} zbar^k              (re direction)
            i (z^k zbar^{d-k} - z^{d-k} zbar^k)          (im direction)

    Real dimension d + 1.  These are the columns of :func:`_basis_matrix`.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    basis = []
    for u in _basis_matrix(d).T:
        c = np.zeros((d + 1, d + 1), complex)
        c[_antidiagonal(d)] = u
        basis.append(PowerSeries2(d, c, real_tag=True))
    return basis


def tm_matrix(m: int) -> np.ndarray:
    """Matrix of T_m(f, phi) = D^2 f - 2 D phi on
    real_basis(m+2) x real_basis(m+1), with the real and imaginary parts of
    the degree-m image coefficients as interleaved rows (see
    :func:`_real_rows`); shape (2m+2) x (2m+5).  Its entries are integers,
    and adding 0.0 makes every zero entry +0.0."""
    if m < 1:
        raise ValueError("tm_matrix requires m >= 1")
    d1 = _d_matrix(m + 1)
    T = np.hstack([d1 @ _d_matrix(m + 2) @ _basis_matrix(m + 2),
                   -2.0 * d1 @ _basis_matrix(m + 1)])
    return _real_rows(T) + 0.0


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

    gscale = 1.0 + g.max_coeff()
    f = np.zeros((N + 1, N + 1), complex)
    phi = np.zeros((max(N - 1, 2) + 1,) * 2, complex)
    f[1, 0] = f[0, 1] = 1.0

    # m = 0: D^2 f_2 = g_0, with the real |z|^2 coefficient pinned
    a = g.coeff(0, 0) / 2.0
    f[2, 0], f[0, 2], f[1, 1] = a, np.conj(a), norm.alpha(1)
    # D of the homogeneous parts solved so far, keyed by the part's degree
    df = {2: _d_matrix(2) @ f[_antidiagonal(2)]}
    dphi: dict[int, np.ndarray] = {}

    for m in range(1, N - 1):
        rhs = g.c[_antidiagonal(m)]
        for k in range(2, m + 1):
            rhs = rhs + 2.0 * np.convolve(dphi[k], df[m + 2 - k])
        rhs = _real_rows(rhs)

        M = tm_matrix(m)
        dim_f = m + 3
        pinned: dict[int, float] = {}
        if norm.suppress_phi_harmonic:
            # z^{m+1} + zbar^{m+1}: the last two (re, im) directions of phi
            pinned[dim_f + m] = pinned[dim_f + m + 1] = 0.0
        if m % 2 == 0:
            pinned[0] = norm.alpha((m + 2) // 2)  # |z|^{m+2}: f's first direction
        else:
            pinned[dim_f] = norm.beta((m + 1) // 2)  # |z|^{m+1}: phi's first

        x = np.zeros(M.shape[1])
        x[list(pinned)] = list(pinned.values())
        free = [i for i in range(M.shape[1]) if i not in pinned]
        x[free] = np.linalg.lstsq(M[:, free], rhs - M @ x, rcond=None)[0]

        resid = float(np.max(np.abs(M @ x - rhs)))
        if resid > _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(rhs)))):
            raise SolveFailed(
                f"degree-{m} solve residual {resid:.3e} exceeds tolerance; "
                "this contradicts surjectivity and signals a numerical fault")

        f_part = _basis_matrix(m + 2) @ x[:dim_f]
        phi_part = _basis_matrix(m + 1) @ x[dim_f:]
        f[_antidiagonal(m + 2)] = f_part
        phi[_antidiagonal(m + 1)] = phi_part
        df[m + 2] = _d_matrix(m + 2) @ f_part
        dphi[m + 1] = _d_matrix(m + 1) @ phi_part

    f = PowerSeries2(N, f, real_tag=True)
    phi = PowerSeries2(len(phi) - 1, phi, real_tag=True)
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
