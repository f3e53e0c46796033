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

The zero set is found in one dimension, by the line engine of
:mod:`umbilic.lines`: Yu = 0 puts every mode of u on one line through 0,
so u = f(theta) with theta = j0 s + k0 t, and r = Pu =
kappa^3 conj(kappa) p(theta) with kappa = D theta and p the profile of f
there, whose certified roots are closed zero curves theta = const of r.

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
the band always fits.  When every nonzero bin of u's Hermitian block
lies on one line, an exact integer test, u = f(theta) and the n^2 nodes
take each of the n values theta = i / n exactly n times, (j0, k0) being
primitive: the same rule is the mean of e^f over n nodes, from one 1-D
inverse FFT of f's 2b + 1 coefficients (L. N. Trefethen and J. A. C.
Weideman, SIAM Rev. 56 (2014) 385-458).  The obstruction check reads it
from the coefficients of its own profile.  Every other potential is
sampled on the 2-D grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cartan import _is_degenerate, cartan_r
from .errors import DomainError, SymmetryViolated, TotallyDegenerate
from .field import PeriodicField, TorusLattice, _real
from .index import _polish
from .index import locate_zero_cells  # noqa: F401  no caller here; perfbench traces this name
from .lines import _certified_roots, _hermitian, _one_directional, _profile, _profile_values, _row_proofs

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
# chern_number's quadrature nodes per axis, at the least
_CHERN_GRID_N = 256
# _nelder_mead's stop, simplex extent and value spread: scipy's xatol, fatol
_XATOL, _FATOL = 1e-6, 1e-12
# min_modulus_objective: the bytes of derivative blocks one pass may hold,
# 5 * 16 * (2h + 1)^2 a member at mode budget h: 50 members at budget 3, so
# a 49-point simplex is one pass, 5 at budget 10, 2 at budget 15
_STACK_BYTES = 192 * 1024
# how each score was decided, in the order of SearchReport.objective_certificates:
# a zero proven by row or column windings, a polish below the stop, a degenerate max,
# a nonzero score, a zero proven by the symmetry theorem (a one-directional potential)
_SCORE_KINDS = ("windings", "polish", "degenerate", "nonzero", "symmetric")
_WINDINGS, _POLISH, _DEGENERATE, _NONZERO, _SYMMETRIC = range(len(_SCORE_KINDS))


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
        """The field kept as its placed spectrum: mode (j, k) is placed as
        (c_{jk} + conj(c_{-j,-k})) / 2, a Hermitian spectrum, so derivatives
        read exact coefficients, every bin outside the band is exactly 0 and
        the real samples form on first read.  Coefficients whose placed bins
        leave the float range raise DomainError; n must hold the band and be
        even and >= 8 (ValueError)."""
        stack = self._stack()
        return PeriodicField._from_block(self.lattice, n, _placed(stack.jk, stack.C, n), True)

    def _stack(self) -> "_Stack":
        """u as a stack of one."""
        jk = np.array(list(self.modes), dtype=int).reshape(-1, 2)
        return _Stack(self.lattice, jk, np.array([list(self.modes.values())], dtype=complex))

    def shifted(self, c: float) -> "TrigPotential":
        modes = dict(self.modes)
        modes[(0, 0)] = modes.get((0, 0), 0.0) + float(c)
        return TrigPotential(self.lattice, modes)


class _Stack(NamedTuple):
    """k potentials on one lattice with the coefficient rows C (k, M) at the
    mode keys jk (M, 2): the form in which min_modulus_objective scores
    several potentials at once."""

    lattice: TorusLattice
    jk: np.ndarray
    C: np.ndarray


def _placed(jk: np.ndarray, C: np.ndarray, n: int) -> np.ndarray:
    """The centred block of the one potential with the coefficient row C
    (1, M) at the mode keys jk, placed on the n x n grid as
    ``TrigPotential.to_field`` places it: its Hermitian block
    (:func:`_hermitian`) times n^2.  ValueError when the band does not fit,
    DomainError, naming the coefficients, when a placed bin leaves the
    float range."""
    h = int(np.abs(jk).max(initial=0))
    if 2 * h >= n:
        raise ValueError(f"mode budget {h} does not fit on an n={n} grid")
    with np.errstate(over="ignore", invalid="ignore"):
        B = _hermitian(jk, C)[0] * n * n
    if not np.isfinite(B).all():
        value = {tuple(key): complex(c) for key, c in zip(jk.tolist(), C[0])}
        bad = {(j, k): value[j, k] for j, k in (np.argwhere(~np.isfinite(B)) - h).tolist()}
        raise DomainError(f"potential coefficients {bad} leave the float range "
                          f"when placed on an n={n} grid")
    return B


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

def min_modulus_objective(u, grid_n: int, tally: dict | None = None):
    """Scale-free nonvanishing score min|Pu| / max|Pu| in [0, 1].

    A score of 0 is a proof or a polish.  A potential whose Hermitian block
    is finite and varies in one direction (``lines._one_directional``, an
    exact integer test) scores 0 by the symmetry theorem of the module
    docstring: it is never placed, and takes no P form and no polish.  For
    every other potential, Pu's windings along the rows
    t = (q + 1/2) / _ROWS, and where those wind alike along the columns
    s = (q + 1/2) / _ROWS (``lines._ROWS``), are taken by the chord-tube
    certificate (``lines._chord_windings``) on Pu's line polynomials,
    formed in one dimension from u's own coefficients
    (``lines._row_proofs``) with a bound on every rounding, so the
    certificate holds for the exact Pu of u, whatever grid_n; two certified
    rows, or two certified columns, with different windings enclose a zero
    of Pu by the argument principle on the band between them, and the score
    is 0 with no 2-D P form.
    Otherwise u is placed on the grid_n x grid_n grid and the minimum is
    polished off-grid (the zero set of Pu need not meet the sample grid)
    from cartan_r's P form by the damped Newton iteration of the zero
    polish, run from the four lowest well-separated samples at once and
    kept within 2.5 cells of them; a minimum below _ZERO_RATIO * max
    reports 0, a degenerate max (``cartan._is_degenerate``) also reports 0,
    and one that is not finite raises DomainError (lines that are not
    finite certify nothing, and a one-directional block that is not finite
    is placed, which raises).  A nonzero score is still an upper bound
    only, from four starts.  The score is invariant under u -> u + C.

    The polish stops at the zero threshold: each start's |Pu| only
    decreases, so once one start is below it the score is 0 whatever the
    others do.  A nonzero score never meets the stop, and its polish runs in
    full.  The starts come from the smallest 4 * 7^2 samples only (the
    bound of _lowest_separated_cells).

    u is a TrigPotential, scored as a stack of one, or a _Stack of k
    potentials, whose k scores come back as an array.  A stack is scored in
    passes, each holding at most _STACK_BYTES of derivative blocks of the
    mode budget h (5 (2h+1)^2 complex bins a member: a search's initial
    simplex and shrinks at budget 3 are one pass each); a pass takes the
    line proofs of its members that vary in more than one direction in one
    call, on their whole blocks, then places each member left open alone,
    in member order, for its P form and polish.  A line's values do not
    depend on the members that share its call, so every score is bit for
    bit the one the member gets alone, and an error is the one the first
    member that fails alone raises.  With a tally, a dict keyed by
    _SCORE_KINDS, each score adds 1 to the count of the way it was decided.
    """
    if grid_n < 64:
        raise ValueError("objective grid must have at least 64 points per axis")
    stack = u if isinstance(u, _Stack) else u._stack()
    h = int(np.abs(stack.jk).max(initial=0))
    size = max(1, _STACK_BYTES // (5 * 16 * (2 * h + 1) ** 2))
    scores, kinds = np.zeros(len(stack.C)), np.full(len(stack.C), _WINDINGS)
    for first in range(0, len(stack.C), size):
        E = _hermitian(stack.jk, stack.C[first:first + size])
        lines = ~_one_directional(E)
        proven = ~lines & np.isfinite(E).all((-2, -1))
        kinds[first + np.flatnonzero(proven)] = _SYMMETRIC
        proven[lines] = _row_proofs(E[lines], stack.lattice.omega)
        for i in (first + np.flatnonzero(~proven)).tolist():
            field = PeriodicField._from_block(
                stack.lattice, grid_n, _placed(stack.jk, stack.C[i:i + 1], grid_n), True)
            scores[i], kinds[i] = _polish_scores(cartan_r(field, "p_form"))
    if tally is not None:
        for kind, count in zip(_SCORE_KINDS, np.bincount(kinds, minlength=len(_SCORE_KINDS))):
            tally[kind] += int(count)
    return scores if stack is u else float(scores[0])


def _polish_scores(r: PeriodicField):
    """The score of the invariant r = Pu from its samples and one polish,
    and the index in _SCORE_KINDS of the way it was decided."""
    A = np.abs(r.values)
    mx = float(A.max())
    if _is_degenerate(mx):
        return 0.0, _DEGENERATE
    # polish from the few lowest well-separated grid samples: a single local
    # search can slide past the global minimum of a multi-valley field;
    # n >= 64 leaves room for all four
    starts = [r.corner_z(a, b) for a, b in _lowest_separated_cells(A, count=4, min_sep=4)]
    low = float(_polish(r, [starts], 2.5 * r.cell_size, _ZERO_RATIO * mx)[1].min())
    mn = min(float(A.min()), low)
    return (0.0, _POLISH) if mn < _ZERO_RATIO * mx else (mn / mx, _NONZERO)


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
    to_field places, read from u's Hermitian block (:func:`_hermitian`);
    on_line is :func:`_one_directional` of that block, the search's rule:
    whether u = f(j0 s + k0 t), so that c holds all of u."""
    j, k = max((jk for jk in u.modes if jk != (0, 0)), key=lambda jk: abs(u.modes[jk]))
    g = int(np.gcd(j, k))
    j0, k0 = (j // g, k // g) if k > 0 or (k == 0 and j > 0) else (-j // g, -k // g)
    h = u.mode_budget
    b = h // max(abs(j0), abs(k0))
    m = np.arange(-b, b + 1)
    stack = u._stack()
    B = _hermitian(stack.jk, stack.C)
    return (j0, k0), B[0, h + m * j0, h + m * k0], bool(_one_directional(B)[0])


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
    computations at every grid node.  psi = e^{-2f} X is formed, at the n
    values of theta on the grid, for its extrema (DomainError on overflow);
    the sign of Y'psi is Z1's.

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
    if _is_degenerate(r_sup):
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
    budget h, spectrally accurate for smooth u.  When u's Hermitian block
    lies on one line through 0 (_line), u = f(theta) and the n^2 nodes take
    each of the n values theta = i / n exactly n times, so the rule is the
    mean of e^f over those n values, in exact arithmetic the same
    quadrature."""
    return _chern(u, _line(u) if u.modes.keys() - {(0, 0)} else None)


def _chern(u: TrigPotential, line) -> float:
    """chern_number(u), given _line(u) for a u with a nonconstant mode and
    None for a constant one.  The one-line route places the 2b + 1 line
    coefficients c as to_field places the modes (b <= h, so the band fits
    on the n >= 2h + 2 nodes), takes one 1-D inverse FFT and runs
    to_field's checks on its n samples: DomainError when the placed
    coefficients leave the float range, ValueError when the samples break
    the reality rule.
    Every other u is sampled by to_field on the n x n grid.  On both routes
    a mean of e^u that is inf or 0 raises DomainError."""
    n = max(_CHERN_GRID_N, 2 * u.mode_budget + 2)
    if line is None or not line[2]:
        f = u.to_field(n).values
    else:
        c = line[1]
        b = len(c) // 2
        row = np.zeros(n, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            row[np.arange(-b, b + 1) % n] = c * n
        if not np.isfinite(row).all():
            raise DomainError(f"potential coefficients leave the float range "
                              f"when placed on {n} nodes")
        f = _real(np.fft.ifft(row))
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
    objective_groups: list  # per trial, the number of points of each objective call
    objective_certificates: list  # per trial, how many scores each way in _SCORE_KINDS decided

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


def _clipped(X: np.ndarray, bound: float) -> np.ndarray:
    """The coefficients c_i = x[2i] + i x[2i+1] of each row x of X, those
    with |c| > bound scaled to the bound: c * (bound / |c|), with |c| the
    hypot and the product by the real factor formed as Python's complex
    arithmetic forms it, signed zeros included, so the search's scores and
    its best_modes read one rule."""
    C = np.array(X, dtype=float).view(complex)
    m = np.hypot(C.real, C.imag)
    over = m > bound
    a, b, f = C.real[over], C.imag[over], bound / m[over]
    C.real[over], C.imag[over] = a * f - b * 0.0, a * 0.0 + b * f
    return C


def _decode_modes(x: np.ndarray, mode_list, bound: float, lattice) -> TrigPotential:
    return TrigPotential.from_half_modes(lattice, dict(zip(mode_list, _clipped(x, bound).tolist())))


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
    values decides the path when the objective ties.

    func scores a group of points at once: it gets a copy of a (g, N) array
    and returns their g values, each the value of its point alone.  The
    initial simplex and each shrink are one group, since their points do
    not depend on each other's values; a reflection, expansion or
    contraction is a group of one.  An evaluation past ``maxfev`` ends the
    step it belongs to, even inside the initial simplex or a shrink: the
    group is cut to the budget left, a shrink's vertex whose evaluation is
    refused has moved and keeps its old value, and the simplex is sorted
    once more and the search stops."""
    N = len(x0)
    chi, psi, sigma = 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    calls = 0

    def f(X):
        """func on the rows of X the budget allows; _BudgetSpent if none."""
        nonlocal calls
        X = X[:maxfev - calls]
        if not len(X):
            raise _BudgetSpent
        calls += len(X)
        return func(np.copy(X))

    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(N + 1, np.inf)
    try:
        values = f(sim)
        fsim[:len(values)] = values
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
            fxr = f(xr[None])[0]
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = f(xe[None])[0]
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = f(xc[None])[0]
                    keep = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc[None])[0]
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # the vertices the budget evaluates, and one more that moves
                    moved = min(N, maxfev - calls + 1)
                    sim[1:moved + 1] = sim[0] + sigma * (sim[1:moved + 1] - sim[0])
                    values = f(sim[1:moved + 1])
                    fsim[1:len(values) + 1] = values
        except _BudgetSpent:
            pass
        sim, fsim = _sorted(sim, fsim)
    return np.min(fsim), sim[0]


def _start_points(seed: int, trial: int, size: int) -> np.ndarray:
    """The start of trial ``trial``: size draws -0.25 + 0.5 x, x uniform on
    [0, 1), from the standard library's Mersenne Twister seeded with the
    string ``f"{seed}:{trial}"``, which ``random.Random`` hashes with
    SHA-512, so the draws do not depend on PYTHONHASHSEED, and the first m
    of them not on size.  Python keeps a string's seeding and the sequence
    of ``random()`` from one version to the next."""
    rng = random.Random(f"{seed}:{trial}")
    return np.array([-0.25 + 0.5 * rng.random() for _ in range(size)])


def torus_search(config: SearchConfig) -> SearchReport:
    """Multistart simplex maximization of the nonvanishing score over
    bounded Fourier coefficients, one :func:`_nelder_mead` run per trial.
    Trial t starts from :func:`_start_points` of (seed, t), one draw in
    [-0.25, 0.25) per real coordinate of the coefficients.
    Deterministic for a fixed config; a best objective of zero is a valid
    (and, so far, the expected) finding.

    objective_2x scores the best potential again at 2 * grid_n, unless
    every score of its trial is a proof for the exact Pu (``windings`` or
    ``symmetric`` in objective_certificates) and the trial scored that very
    point: then its 0 holds at any grid, and objective_2x is the objective.
    A best point the trial never scored is a shrink vertex that moved when
    the budget refused its evaluation, and keeps its old value."""
    mode_list = config.mode_list()
    half = np.array(mode_list)
    jk = np.concatenate([half, -half])
    history, groups, certificates, scored = [], [], [], []

    def neg_objective(X):
        scored[-1].append(X)
        C = _clipped(X, config.coeff_bound)
        values = min_modulus_objective(
            _Stack(config.lattice, jk, np.concatenate([C, np.conj(C)], axis=1)), config.grid_n,
            tally=certificates[-1])
        history.extend(enumerate(values.tolist(), start=len(history)))
        groups[-1].append(len(values))
        return -values

    best = None
    for trial in range(config.trials):
        x0 = _start_points(config.seed, trial, 2 * len(mode_list))
        groups.append([])
        certificates.append(dict.fromkeys(_SCORE_KINDS, 0))
        scored.append([])
        fun, x = _nelder_mead(neg_objective, x0, config.evaluations)
        cand = (-float(fun), -trial, x)
        if best is None or cand[:2] > best[:2]:
            best = cand
    objective, neg_trial, x_best = best
    best_pot = _decode_modes(x_best, mode_list, config.coeff_bound, config.lattice)
    kinds = certificates[-neg_trial]
    if (kinds["windings"] + kinds["symmetric"] == sum(kinds.values())
            and any((X == x_best).all(-1).any() for X in scored[-neg_trial])):
        obj2 = objective  # a zero proven for the exact Pu, whatever the grid
    else:
        obj2 = min_modulus_objective(best_pot, 2 * config.grid_n)
    top = max(objective, obj2)
    resolution_ok = bool(top == 0.0 or abs(objective - obj2) <= 0.1 * top)
    return SearchReport(
        seed=config.seed, grid_n=config.grid_n, best_modes=best_pot,
        objective=float(objective), objective_2x=float(obj2),
        resolution_ok=resolution_ok, history=history,
        trials=config.trials, evaluations=config.evaluations, objective_groups=groups,
        objective_certificates=certificates)
