"""Torus-specific machinery: the symmetry obstruction, Chern normalization,
and a derivative-free search for potentials with nonvanishing invariant.

Whether a doubly periodic potential u with Pu != 0 everywhere exists is an
open question; this module provides evidence-gathering tools only and never
interprets a search outcome as an answer.  What IS a theorem: if u admits a
constant symmetry direction Y with Yu = 0 (and Y has compact leaves), then
Pu must vanish somewhere.  The proof is constructive enough to audit
numerically: with v = e^{-u} D Dbar u, a transverse constant direction Y'
and psi = e^{-u} Y'v, one has e^{-2u} Pu = b^2 Y'psi for a constant b, and
the periodic function psi attains extrema where Y'psi changes sign.

The zero set is found in one dimension.  Yu = 0 puts every mode of u on
one line through 0, so u = f(theta) with theta = j0 s + k0 t and (j0, k0)
primitive.  With kappa = D theta every derivative D^m Dbar^l u is
kappa^m conj(kappa)^l f^(m+l), hence r = Pu = kappa^3 conj(kappa) p(theta)
with p = f'''' - 3 f' f''' + 2 f'^2 f'' - f''^2, a real trigonometric
polynomial of band 3b for a potential of band b along the line.  p's
coefficients are exact convolutions of u's.  Its roots come from the
companion matrix of z^{3b} p(z) (J. P. Boyd, SIAM J. Numer. Anal. 40 (2002)
1666-1682), and a root across which p changes sign, held against a
rounding bound on evaluating p, is one certified closed zero curve
theta = const of r.

The audit is one-dimensional too: Y' acts on f(theta) as lam d/dtheta,
lam = Y'theta, so X = (Y' - Y'u) D Dbar u = e^{2u} psi and
Z = (Y' - 2 Y'u) X = e^{2u} Y'psi (by e^{ku} Y' e^{-ku} = Y' - k Y'u) are
lam |kappa|^2 X1 and lam^2 |kappa|^2 Z1, X1 = (d - f') f'' and
Z1 = (d - 2 f') X1 with d = d/dtheta, exact convolutions of u's
coefficients.  Z1 = p in exact arithmetic, reached by another formula.

In Wirtinger form Y = alpha d/dx + beta d/dy is Y = c D + conj(c) Dbar with
c = alpha + i beta, Y' = i (c D - conj(c) Dbar), and D = a Y + b Y' gives
a = i b and b^2 = -1 / (4 c^2); lam = -2 Im(c kappa).

The Chern number is the periodic trapezoid rule for the mean of e^u on
n x n nodes, n = max(256, 2h + 2) for a potential of mode budget h, so
the band always fits.  When every mode key of u lies on one line, an
exact integer test, u = f(theta) and the n^2 nodes take each of the n
values theta = i / n exactly n times, (j0, k0) being primitive: the same
rule is the mean of e^f over n nodes, from one 1-D inverse FFT of f's
2b + 1 coefficients (L. N. Trefethen and J. A. C. Weideman, SIAM Rev. 56
(2014) 385-458).  The obstruction check reads it from the coefficients of
its own profile.  Every other potential is sampled on the 2-D grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import _DEGENERATE_FLOOR, cartan_r
from .errors import DomainError, SymmetryViolated, TotallyDegenerate
from .field import _REAL_TOL, PeriodicField, TorusLattice
from .index import _polish
from .index import locate_zero_cells  # noqa: F401  no caller here; perfbench traces this name

__all__ = [
    "TrigPotential",
    "SymmetryDirection",
    "SearchConfig",
    "SearchReport",
    "ObstructionReport",
    "min_modulus_objective",
    "symmetric_obstruction_check",
    "torus_search",
    "chern_number",
    "chern_normalize",
]

_HERM_TOL = 1e-12
# min_modulus_objective: the ratio min|Pu| / sup|Pu| below which it reports 0
_ZERO_RATIO = 1e-9
# symmetric_obstruction_check: sup|Yu| allowed, relative to 1 + sup|grad u|
# = 1 + 2 sup|Du|
_SYMMETRY_TOL = 1e-10
# symmetric_obstruction_check: companion-matrix roots with ||z| - 1| at most
# this are candidate zero curves
_RING_TOL = 1e-3
# chern_number's quadrature nodes per axis, at the least
_CHERN_GRID_N = 256
# _nelder_mead's stop, simplex extent and value spread: scipy's xatol, fatol
_XATOL, _FATOL = 1e-6, 1e-12


@dataclass
class TrigPotential:
    """Real trigonometric potential sum c_{jk} exp(2 pi i (j s + k t)) on a
    torus lattice; coefficients must satisfy c_{-j,-k} = conj(c_{jk})."""

    lattice: TorusLattice
    modes: dict

    def __post_init__(self):
        clean = {}
        for (j, k), c in self.modes.items():
            clean[(int(j), int(k))] = complex(c)
        self.modes = clean
        scale = max([abs(c) for c in clean.values()] + [1.0])
        for (j, k), c in clean.items():
            cc = clean.get((-j, -k))
            if cc is None or abs(np.conj(cc) - c) > _HERM_TOL * scale:
                raise ValueError(f"mode ({j},{k}) breaks the reality symmetry")
        dc = clean.get((0, 0), 0.0 + 0.0j)
        if abs(dc.imag) > _HERM_TOL * scale:
            raise ValueError("constant mode must be real")

    @classmethod
    def from_half_modes(cls, lattice: TorusLattice, half: dict) -> "TrigPotential":
        """Build from coefficients on the half-space k > 0 or (k = 0, j > 0),
        plus an optional real (0, 0) entry; conjugates are filled in."""
        modes = {}
        for (j, k), c in half.items():
            c = complex(c)
            if (j, k) == (0, 0):
                modes[(0, 0)] = complex(c.real)
            else:
                modes[(j, k)] = c
                modes[(-j, -k)] = np.conj(c)
        return cls(lattice, modes)

    @property
    def mode_budget(self) -> int:
        return max((max(abs(j), abs(k)) for (j, k) in self.modes), default=0)

    def to_field(self, n: int) -> PeriodicField:
        """Exact band-limited samples through spectral placement.  Mode
        (j, k) is placed as (c_{jk} + conj(c_{-j,-k})) / 2, a Hermitian
        spectrum that matches the real samples, and the field keeps it:
        derivatives read exact coefficients and every bin outside the band
        is exactly 0.  Coefficients whose placed bins leave the float range
        raise DomainError."""
        jk = np.array(list(self.modes), dtype=int).reshape(-1, 2)
        h = int(np.abs(jk).max(initial=0))  # the mode budget
        if 2 * h >= n:
            raise ValueError(f"mode budget {h} does not fit on an n={n} grid")
        B = np.zeros((2 * h + 1, 2 * h + 1), dtype=complex)
        B[jk[:, 0] + h, jk[:, 1] + h] = list(self.modes.values())
        with np.errstate(over="ignore", invalid="ignore"):
            B = (B + np.conj(B[::-1, ::-1])) / 2 * n * n
        if not np.isfinite(B).all():
            bad = {(j, k): self.modes[j, k]
                   for j, k in (np.argwhere(~np.isfinite(B)) - h).tolist()}
            raise DomainError(f"potential coefficients {bad} leave the float range "
                              f"when placed on an n={n} grid")
        return PeriodicField._from_block(self.lattice, n, B, True)

    def shifted(self, c: float) -> "TrigPotential":
        modes = dict(self.modes)
        modes[(0, 0)] = modes.get((0, 0), 0.0) + float(c)
        return TrigPotential(self.lattice, modes)


@dataclass(frozen=True)
class SymmetryDirection:
    """Constant direction Y = alpha d/dx + beta d/dy on the plane, which is
    c D + conj(c) Dbar with c = alpha + i beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValueError("symmetry direction must be nonzero")


# --------------------------------------------------------------------------
# objective
# --------------------------------------------------------------------------

def min_modulus_objective(u: TrigPotential, grid_n: int) -> float:
    """Scale-free nonvanishing score min|Pu| / max|Pu| in [0, 1].

    The minimum is polished off-grid (the zero set of Pu need not meet the
    sample grid) by the damped Newton iteration of the zero polish, run
    from the four lowest well-separated samples at once and kept within
    2.5 cells of them, so potentials whose invariant genuinely vanishes
    report exactly 0, on zero curves as well as at points; a max below the
    degenerate floor (cartan._DEGENERATE_FLOOR) also reports 0.  The score is
    invariant under u -> u + C.

    A minimum below _ZERO_RATIO * max reports 0, and the polish stops at that
    same threshold: each start's |Pu| only decreases, so once one start is
    below it the score is 0 whatever the others do.  A nonzero score never
    meets the stop, and its polish runs in full.  The starts come from the
    smallest 4 * 7^2 samples only (the bound of _lowest_separated_cells).
    """
    if grid_n < 64:
        raise ValueError("objective grid must have at least 64 points per axis")
    field = u.to_field(grid_n)
    r = cartan_r(field, "p_form")
    mx = r.sup_norm()
    if not np.isfinite(mx):
        raise DomainError(f"Pu leaves the float range (sup|Pu| = {mx})")
    if mx < _DEGENERATE_FLOOR:
        return 0.0
    A = np.abs(r.values)
    # polish from the few lowest well-separated grid samples: a single local
    # search can slide past the global minimum of a multi-valley field
    starts = [r.corner_z(i, j) for i, j in _lowest_separated_cells(A, count=4, min_sep=4)]
    stop = _ZERO_RATIO * mx
    mn = min(float(A.min()), float(_polish(r, starts, 2.5 * r.cell_size, stop)[1].min()))
    return 0.0 if mn < stop else float(mn / mx)


def _lowest_separated_cells(A: np.ndarray, count: int, min_sep: int):
    """Indices of up to `count` smallest samples, pairwise separated by at
    least min_sep in periodic Chebyshev distance, walked in stable order of
    value.  A pick rules out at most (2 min_sep - 1)^2 cells, so the
    smallest K = count (2 min_sep - 1)^2 samples hold every pick: only
    they are sorted, together with any sample tied with the K-th."""
    n = A.shape[0]
    vals = A.ravel()
    k = min(count * (2 * min_sep - 1) ** 2, vals.size) - 1
    head = np.flatnonzero(vals <= np.partition(vals, k)[k])
    picked = []
    for flat in head[np.argsort(vals[head], kind="stable")].tolist():
        i, j = divmod(flat, n)
        if all(max(min((i - pi) % n, (pi - i) % n), min((j - pj) % n, (pj - j) % n)) >= min_sep
               for pi, pj in picked):
            picked.append((i, j))
            if len(picked) >= count:
                break
    return picked


# --------------------------------------------------------------------------
# symmetry obstruction
# --------------------------------------------------------------------------

@dataclass
class ObstructionReport:
    direction: SymmetryDirection
    zeros_found: bool
    residuals: list
    psi_min: float
    psi_max: float
    dpsi_sign_change: bool
    proof_identity_residual: float
    curve_line: tuple
    curve_offsets: list
    profile_identity_residual: float
    uncertified_roots: list
    chern_number: float


def _line(u: TrigPotential):
    """((j0, k0), c, on_line) for u, which has a nonconstant mode: (j0, k0)
    is the primitive vector of u's largest nonconstant mode, taken in the
    half plane k0 > 0 or (k0 = 0, j0 > 0); c holds the coefficients of the
    modes m (j0, k0), c[m + b] for |m| <= b, as the Hermitian part
    to_field places; on_line says whether every mode key (j, k) of u lies
    on that line, j k0 - k j0 == 0 in integers, so that u = f(j0 s + k0 t)
    exactly and c holds all of u."""
    j, k = max((jk for jk in u.modes if jk != (0, 0)), key=lambda jk: abs(u.modes[jk]))
    g = int(np.gcd(j, k))
    j0, k0 = (j // g, k // g) if k > 0 or (k == 0 and j > 0) else (-j // g, -k // g)
    b = u.mode_budget // max(abs(j0), abs(k0))
    c = np.array([u.modes.get((i * j0, i * k0), 0.0) for i in range(-b, b + 1)], dtype=complex)
    on_line = all(jj * k0 - kk * j0 == 0 for jj, kk in u.modes)
    return (j0, k0), (c + np.conj(c[::-1])) / 2, on_line


def _profile(c: np.ndarray):
    """(F, tol) for f(theta) = sum_m c[m + b] e^{2 pi i m theta}, |m| <= b:
    the rows of F are f, X1, Z1 and p (module docstring) in theta,
    F[:, m + 3b] for |m| <= 3b; tol bounds the rounding of p's value from
    F[3], by the l1 norms of the derivative coefficient vectors.  The rows
    are summed into zeroed arrays in the order of the formulas, and
    x - 0 and 0 - y are exact, so F is bit for bit the sum of the
    zero-padded terms."""
    b = len(c) // 2
    m = np.arange(-b, b + 1)
    d1, d2, d3, d4 = (c * (2j * np.pi * m) ** e for e in (1, 2, 3, 4))
    F = np.zeros((4, 6 * b + 1), dtype=complex)
    F[0, 2 * b:4 * b + 1] = c
    X1 = np.zeros(4 * b + 1, dtype=complex)
    X1[b:3 * b + 1] = d3
    X1 -= np.convolve(d1, d2)
    F[1, b:5 * b + 1] = X1
    F[2, b:5 * b + 1] = X1 * (2j * np.pi * np.arange(-2 * b, 2 * b + 1))
    F[2] -= 2 * np.convolve(d1, X1)
    P = F[3]  # ((d4 - 3 d1*d3) + 2 d1*d1*d2) - d2*d2
    P[2 * b:4 * b + 1] = d4
    P[b:5 * b + 1] -= 3 * np.convolve(d1, d3)
    P += 2 * np.convolve(np.convolve(d1, d1), d2)
    P[b:5 * b + 1] -= np.convolve(d2, d2)
    n1, n2, n3, n4 = (float(np.abs(d).sum()) for d in (d1, d2, d3, d4))
    # with L the l1 bound below (||P||_1 <= L): each coefficient of P sums at
    # most 6b + 1 products, and p(theta) sums 6b + 1 terms whose phases reach
    # 6 pi b, so the computed value is off by at most (30.9 b + 2) eps L
    tol = 32 * (3 * b + 1) * np.finfo(float).eps * (n4 + 3 * n1 * n3 + 2 * n1 * n1 * n2 + n2 * n2)
    return F, tol


def _profile_values(P: np.ndarray, theta) -> np.ndarray:
    """p(theta) = sum_m P_m e^{2 pi i m theta}, real; one column per row of P."""
    M = P.shape[-1] // 2
    return (np.exp(2j * np.pi * np.outer(theta, np.arange(-M, M + 1))) @ P.T).real


def _certified_roots(P: np.ndarray, tol: float):
    """(certified, uncertified) roots in [0, 1) of the real trigonometric
    polynomial p with coefficients P, whose values are known to tol.

    The candidates are the angles of the roots of z^M p(z) within _RING_TOL
    of the unit circle.  The midpoints between circular neighbours where
    |p| > tol split them into groups.  A group of one candidate whose two
    bounding midpoints carry opposite signs of p holds a zero by the
    intermediate value theorem.  np.roots places the candidate to about
    1e-14, so the bracket takes a sign step at the candidate's angle minus
    and plus 2^-40 first, and is then bisected to rounding; it gives one
    certified root.  Every other group (an even multiplicity, a near-root
    off the circle, roots closer than rounding) gives one uncertified root,
    the middle of its candidates; with no midpoint above tol, every
    candidate is uncertified.

    Outer coefficients below eps max|P_m| are rounding noise of P and are
    dropped in pairs before np.roots, which divides by the leading one."""
    cut = int(np.argmax(np.abs(P) > np.finfo(float).eps * np.max(np.abs(P))))
    z = np.roots(P[cut:P.size - cut][::-1])
    theta = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= _RING_TOL]) / (2 * np.pi) % 1.0)
    K = theta.size
    mids = theta + np.diff(theta, append=theta[:1] + 1.0) / 2  # mids[i] follows theta[i]
    pm = _profile_values(P, mids)
    sep = np.flatnonzero(np.abs(pm) > tol).tolist()
    if not sep:
        return [], sorted(_turns(theta).tolist())
    lo, hi, root, positive, uncertified = [], [], [], [], []
    for a, b in zip(sep, sep[1:] + sep[:1]):  # the group of candidates a+1 .. b
        if (b - a) % K == 1 and pm[a] * pm[b] < 0:  # the one candidate theta[b]
            lo.append(mids[a])
            hi.append(mids[b] + (b < a))
            root.append(theta[b] + (b < a))
            positive.append(pm[a] > 0)
        else:
            first = theta[(a + 1) % K]
            uncertified.append(first + (theta[b] - first) % 1.0 / 2)
    lo, hi, root = np.array(lo), np.array(hi), np.array(root)
    positive = np.array(positive, dtype=bool)
    for probe in (root - 2.0 ** -40, root + 2.0 ** -40):
        left = (_profile_values(P, probe) > 0) == positive
        inside = (lo < probe) & (probe < hi)
        lo, hi = np.where(inside & left, probe, lo), np.where(inside & ~left, probe, hi)
    mid = (lo + hi) / 2
    while np.any((lo < mid) & (mid < hi)):
        left = (_profile_values(P, mid) > 0) == positive
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
        mid = (lo + hi) / 2
    return sorted(_turns(mid).tolist()), sorted(_turns(np.array(uncertified)).tolist())


def _turns(x: np.ndarray) -> np.ndarray:
    """x mod 1 in [0, 1): a float just below an integer rounds to 1.0."""
    x = x % 1.0
    return np.where(x < 1.0, x, 0.0)


def symmetric_obstruction_check(u: TrigPotential, Y: SymmetryDirection, *,
                                grid_n: int = 128) -> ObstructionReport:
    """Verify that a Y-invariant potential forces zeros of Pu.

    Checks Yu = 0, finds the zero curves of Pu in one dimension, and audits
    the constructive reduction: psi = e^{-u} Y'v must attain its interior
    extrema where Y'psi changes sign, and e^{-2u} Pu must equal b^2 Y'psi
    for the constant b with D = aY + bY'.  u is real, so Yu = 2 Re(c Du)
    comes from q = Du alone; Yu = 0 is checked to _SYMMETRY_TOL |c| of
    1 + sup|grad u|.  Yu, lam and b lam are formed along c / |c| and psi
    is scaled by |c|, so only psi, which is linear in Y, depends on the
    length of Y, and c^2 is never formed.  DomainError when Pu or the
    profile's coefficients leave the float range.  Pu comes from the 2-D P
    form and the proof path from the 1-D chain X1, Z1 of the module
    docstring, so the identity Pu = b^2 Z compares two independent
    computations at every grid node.  psi = e^{-2f} X is formed, at the n values of theta on the grid,
    for its extrema (DomainError on overflow); the sign of Y'psi is Z1's.

    The zero curves are the certified roots theta_i of the profile p
    (_certified_roots), reported as curve_line (j0, k0) and curve_offsets
    theta_i; each has the residual |r| over sup|r| at
    (s, t) = theta_i (j0, k0) / (j0^2 + k0^2), from one batched evaluation
    of the 2-D r.  The profile identity r = kappa^3 conj(kappa) p(theta) is
    checked at every grid node, relative to 1 + sup|r|.  Roots that fail
    the certificate are reported in uncertified_roots, never dropped.
    chern_number is chern_number(u), from the same line coefficients.
    """
    c = complex(Y.alpha, Y.beta)  # Y = c D + conj(c) Dbar, Y' = i c D - i conj(c) Dbar
    e = c / abs(c)  # everything but psi is formed along the unit direction
    field = u.to_field(grid_n)
    q = field.derivative("D")
    yu = 2.0 * float(np.max(np.abs((q.values * e).real)))  # Yu / |Y| = 2 Re(e Du)
    scale = 1.0 + 2.0 * q.sup_norm()  # 1 + sup|grad u|
    if yu > _SYMMETRY_TOL * scale:
        raise SymmetryViolated(
            f"sup|Yu| / |Y| = {yu:.3e} exceeds {_SYMMETRY_TOL:.1e} x scale")

    r = cartan_r(field, "p_form")
    r_sup = r.sup_norm()
    if not np.isfinite(r_sup):
        raise DomainError(f"Pu leaves the float range (sup|Pu| = {r_sup})")
    if r_sup < _DEGENERATE_FLOOR:
        raise TotallyDegenerate("Pu vanishes identically (constant curvature)")

    line = _line(u)
    j0, k0 = line[0]
    F, tol = _profile(line[1])
    if not np.all(np.isfinite(F)):
        raise DomainError("the profile's coefficients leave the float range")
    offsets, uncertified = _certified_roots(F[3], tol)
    w = np.array(offsets) / (j0 * j0 + k0 * k0)
    s, t = w * j0, w * k0
    residuals = (np.abs(r.evaluate_st(s, t)) / r_sup).tolist()
    om = u.lattice.omega
    # D theta; a numpy scalar, so that kappa ** 3 overflows to inf, not OverflowError
    kappa = np.complex128((j0 * om.conjugate() - k0) / (om.conjugate() - om))
    nodes = np.arange(grid_n)
    f, X1, Z1, p = _profile_values(F, nodes / grid_n).T  # at theta = i / n
    on_grid = (j0 * nodes[:, None] + k0 * nodes) % grid_n  # node (i, j) has theta = on_grid / n
    profile_ident = (float(np.max(np.abs(r.values - kappa ** 3 * kappa.conjugate() * p[on_grid])))
                     / (1.0 + r_sup))

    # constructive proof path: X = |Y| lam |kappa|^2 X1 and
    # Z = |Y|^2 lam^2 |kappa|^2 Z1
    lam = -2.0 * (e * kappa).imag  # Y'theta / |Y|
    k2 = abs(kappa) ** 2
    with np.errstate(over="ignore"):
        e2f = np.exp(-2.0 * f)
    if not np.all(np.isfinite(e2f)):
        raise DomainError(f"e^(-2u) overflows on these samples (max -2u {-2.0 * f.min():.6g})")
    psi = abs(c) * lam * k2 * e2f * X1
    zscale = float(np.max(np.abs(Z1)))
    sign_change = bool(np.min(Z1) < -1e-9 * zscale and np.max(Z1) > 1e-9 * zscale)

    # Pu = b^2 Z with D = a Y + b Y', so a = i b and b = -i / (2c); then
    # b Y'theta = -i lam / (2e), free of |Y|
    blam = -0.5j * lam / e
    ident = (float(np.max(np.abs(r.values - blam * blam * k2 * Z1[on_grid])))
             / (1.0 + r_sup))

    return ObstructionReport(
        direction=Y, zeros_found=bool(offsets),
        residuals=residuals, psi_min=float(np.min(psi)), psi_max=float(np.max(psi)),
        dpsi_sign_change=sign_change, proof_identity_residual=ident,
        curve_line=(j0, k0), curve_offsets=offsets, profile_identity_residual=profile_ident,
        uncertified_roots=uncertified, chern_number=_chern(u, line))


# --------------------------------------------------------------------------
# Chern normalization
# --------------------------------------------------------------------------

def chern_number(u: TrigPotential) -> float:
    """(i / 2 pi) integral of e^u dz /\\ dzbar over the fundamental domain,
    i.e. (1/pi) * |Im omega| * mean(e^u): the periodic trapezoid rule on
    the n x n grid, n = max(_CHERN_GRID_N, 2h + 2) for a potential of mode
    budget h, spectrally accurate for smooth u.  When every mode of u lies
    on one line through 0 (_line), u = f(theta) and the n^2 nodes take each
    of the n values theta = i / n exactly n times, so the rule is the mean
    of e^f over those n values, in exact arithmetic the same quadrature."""
    return _chern(u, _line(u) if u.modes.keys() - {(0, 0)} else None)


def _chern(u: TrigPotential, line) -> float:
    """chern_number(u), given _line(u) for a u with a nonconstant mode and
    None for a constant one.  The one-line route places the 2b + 1 line
    coefficients c as to_field places the modes, takes one 1-D inverse
    FFT and runs to_field's checks on its n samples: ValueError when the
    band does not fit, DomainError when the placed coefficients leave the
    float range, ValueError when the samples are not real to _REAL_TOL.
    Every other u is sampled by to_field on the n x n grid.  On both routes
    a mean of e^u that is inf or 0 raises DomainError."""
    n = max(_CHERN_GRID_N, 2 * u.mode_budget + 2)
    if line is None or not line[2]:
        f = u.to_field(n).values
    else:
        c = line[1]
        b = len(c) // 2
        if 2 * b >= n:
            raise ValueError(f"line band {b} does not fit on {n} nodes")
        row = np.zeros(n, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            row[np.arange(-b, b + 1) % n] = c * n
        if not np.isfinite(row).all():
            raise DomainError(f"potential coefficients leave the float range "
                              f"when placed on {n} nodes")
        f = np.fft.ifft(row)
        if float(np.max(np.abs(f.imag))) > _REAL_TOL * max(1.0, float(np.max(np.abs(f)))):
            raise ValueError("potential samples have a non-negligible imaginary part")
    with np.errstate(over="ignore", under="ignore"):
        mean = float(np.mean(np.exp(f.real)))
    if not 0.0 < mean < np.inf:
        raise DomainError(f"e^u leaves the float range (mean of e^u on {n} nodes: {mean})")
    return float(u.lattice.cell_area * mean / np.pi)


def chern_normalize(u: TrigPotential, c1: int) -> TrigPotential:
    """Shift u by the constant making the curvature integrate to the first
    Chern number c1.  The shift changes none of the umbilical data."""
    if int(c1) != c1 or c1 < 1:
        raise ValueError("c1 must be a positive integer")
    current = chern_number(u)
    C = float(np.log(float(c1)) - np.log(current))
    return u.shifted(C)


# --------------------------------------------------------------------------
# derivative-free search
# --------------------------------------------------------------------------

@dataclass
class SearchConfig:
    lattice: TorusLattice
    mode_budget: int = 3
    trials: int = 4
    evaluations: int = 100
    seed: int = 0
    grid_n: int = 96
    coeff_bound: float = 1.0
    mode_filter: str = "all"  # "all" | "s_only"

    def __post_init__(self):
        if self.mode_filter not in ("all", "s_only"):
            raise ValueError(f"unknown mode filter {self.mode_filter!r}")
        if (min(self.trials, self.mode_budget, self.evaluations) < 1 or not self.coeff_bound > 0
                or self.mode_budget >= self.grid_n // 2 or self.seed < 0):
            raise ValueError("a search needs trials, mode_budget and evaluations >= 1, "
                             "coeff_bound > 0, mode_budget < grid_n / 2 and seed >= 0")

    def mode_list(self):
        B = self.mode_budget
        if self.mode_filter == "s_only":
            return [(j, 0) for j in range(1, B + 1)]
        out = []
        for k in range(0, B + 1):
            for j in range(-B, B + 1):
                if k == 0 and j <= 0:
                    continue
                out.append((j, k))
        return out


@dataclass
class SearchReport:
    seed: int
    grid_n: int
    best_modes: TrigPotential
    objective: float
    objective_2x: float
    resolution_ok: bool
    history: list
    trials: int
    evaluations: int

    def results_payload(self) -> dict:
        """Deterministic results block: identical configs reproduce it
        bit-for-bit."""
        return {
            "seed": self.seed,
            "grid_n": self.grid_n,
            "trials": self.trials,
            "evaluations": self.evaluations,
            "objective": self.objective,
            "objective_2x": self.objective_2x,
            "resolution_ok": self.resolution_ok,
            "best_modes": {f"{j},{k}": [c.real, c.imag]
                           for (j, k), c in sorted(self.best_modes.modes.items())},
            "history": [[int(i), float(v)] for i, v in self.history],
        }


def _decode_modes(x: np.ndarray, mode_list, bound: float, lattice) -> TrigPotential:
    half = {}
    for i, (j, k) in enumerate(mode_list):
        c = complex(x[2 * i], x[2 * i + 1])
        m = abs(c)
        if m > bound:
            c *= bound / m
        half[(j, k)] = c
    return TrigPotential.from_half_modes(lattice, half)


class _BudgetSpent(Exception):
    """An evaluation past the budget of :func:`_nelder_mead`."""


def _sorted(sim: np.ndarray, fsim: np.ndarray):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(func, x0: np.ndarray, maxfev: int):
    """(min f, best x) of the Nelder-Mead simplex method with the adaptive
    coefficients of F. Gao and L. Han, Comput. Optim. Appl. 51 (2012)
    259-277: reflection 1, expansion 1 + 2/N, contraction 3/4 - 1/(2N),
    shrink 1 - 1/N.  Step for step this is scipy.optimize's
    ``_minimize_neldermead`` with ``adaptive=True``, no bounds, no callback
    and no iteration limit (scipy 1.17): the same initial simplex, centroid,
    trial points, evaluation order and numpy sorts, whose order among equal
    values decides the path when the objective ties.  An evaluation past
    ``maxfev`` ends the step it belongs to, even inside the initial simplex
    or a shrink; the simplex is sorted once more and the search stops.
    func gets a copy of each point."""
    N = len(x0)
    chi, psi, sigma = 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(np.copy(x))

    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(N + 1, np.inf)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as scipy does: the sort is not stable, so the second
    # sort may still reorder tied vertices
    sim, fsim = _sorted(*_sorted(sim, fsim))

    while calls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = f(xc)
                    keep = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = _sorted(sim, fsim)
    return np.min(fsim), sim[0]


def torus_search(config: SearchConfig) -> SearchReport:
    """Multistart simplex maximization of the nonvanishing score over
    bounded Fourier coefficients, one :func:`_nelder_mead` run per trial.
    Deterministic for a fixed config; a best objective of zero is a valid
    (and, so far, the expected) finding."""
    mode_list = config.mode_list()
    dim = 2 * len(mode_list)
    history = []
    counter = [0]

    def neg_objective(x):
        pot = _decode_modes(x, mode_list, config.coeff_bound, config.lattice)
        val = min_modulus_objective(pot, config.grid_n)
        history.append((counter[0], val))
        counter[0] += 1
        return -val

    best = None
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, trial])
        x0 = rng.uniform(-0.25, 0.25, dim)
        fun, x = _nelder_mead(neg_objective, x0, config.evaluations)
        cand = (-float(fun), -trial, x)
        if best is None or cand[:2] > best[:2]:
            best = cand
    objective, neg_trial, x_best = best
    best_pot = _decode_modes(x_best, mode_list, config.coeff_bound, config.lattice)
    obj2 = min_modulus_objective(best_pot, 2 * config.grid_n)
    top = max(objective, obj2)
    resolution_ok = bool(top == 0.0 or abs(objective - obj2) <= 0.1 * top)
    return SearchReport(
        seed=config.seed, grid_n=config.grid_n, best_modes=best_pot,
        objective=float(objective), objective_2x=float(obj2),
        resolution_ok=resolution_ok, history=history,
        trials=config.trials, evaluations=config.evaluations)
