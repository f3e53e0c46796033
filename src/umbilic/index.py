"""Winding-number machinery for umbilical loci.

Zeros of the invariant r (or of any umbilic field such as a covariant
Hessian) are located by per-cell winding numbers on the sample grid, with
adaptive refinement of contour edges through the field's interpolant.
Isolated zeros receive the half-integer index

    iota = -(1/2) * deg(f / |f|)  around a small positively oriented circle,

stored as the exact integer twice_index = 2*iota.  Winding on r itself is
legitimate because multiplying a field by a strictly positive smooth
function (or any constant phase) changes no winding degree, so the branched
square-root representative of the quadratic differential never needs to be
materialized.

Two zero geometries occur in practice.  Generic potentials give isolated
point zeros with nonzero winding.  Potentials with a one-directional
symmetry give an invariant of constant phase vanishing on closed curves;
such zeros carry no winding, so cells are also flagged when edge refinement
runs into an unresolvable phase jump of ~pi (a sign crossing) or into the
zero floor.  Clusters of the second kind are reported with kind "curve" and
winding None.

Every grid edge has one entry in an edge table T[axis, i, j], indexed by
its first corner (mod n on a torus): the wrapped phase increment of the
samples, or, for the bad edges (a step of pi/2 or more, or an endpoint at
the zero floor) of the cells that own them, the increment refined through
the field's interpolant, NaN where the edge crosses the zero set.  Cell
windings and crossing cells are then one array expression over T.
Refinement is level-synchronous: every segment of every edge that still
needs bisection is split at the same level, and the midpoints of one
level go to the interpolant in one batched evaluation, so refining all
bad edges takes at most _MAX_DEPTH evaluation calls.  Edge endpoints are
grid nodes, and their values are the samples themselves (the interpolant
reproduces them to rounding), the same values the cell pass used to flag
the edge.

A torus field and a sphere chart take one winding, polish and index path:
every stage reads the grid facts both state under the same names (see
:mod:`umbilic.field`), and only the index cross-check's contour constants
depend on ``periodic``.

Zero clusters, point and curve alike, are polished by one damped Newton
iteration on (Re f, Im f), :func:`_polish`, for all clusters of a field at
once.  Its starts are k rows of p, and each step is one call of the
field's ``jet_at(z) -> (f, D f, Dbar f)``, the derivatives of the
interpolant that ``evaluate_at`` evaluates, at every live start of every
row.  Steps must lower |f| and stay within a fixed reach of their start,
so a neighbouring zero cannot capture the iterate.  A caller that only
needs to know whether |f| falls below a threshold passes it as the stop,
and a row ends at the first step where one of its starts is below it.  A
point's jet is bit for bit the same in any batch, so each row's iterates
are those of its polish alone, whatever other rows share the calls.  The
search objective polishes the invariant of each potential its row and
column windings leave unproven, one row of four starts
(``torussearch._polish_scores``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .cartan import _is_degenerate, cartan_r, spherical_test
from .errors import NotPseudoconvex, PhaseStepTooLarge, TotallyDegenerate, ZeroOnContour
from .field import ChartGrid, PeriodicField

__all__ = [
    "UmbilicRecord",
    "ZeroCluster",
    "AuditReport",
    "winding_degree",
    "locate_zero_cells",
    "umbilic_index",
    "poincare_hopf_audit",
    "refine_cluster_residual",
    "torus_umbilics",
    "sphere_two_chart_umbilics",
    "SPHERE_HARMONICS",
]

_TWO_PI = 2.0 * np.pi
_STEP_LIMIT = 0.5 * np.pi
_CROSSING_STEP = 0.75 * np.pi
_POLISHED = 1e-12
DEFAULT_ZERO_FLOOR_REL = 1e-9
# edge refinement: bisection levels, down to segments of 2^-_MAX_DEPTH of an edge
_MAX_DEPTH = 12
# umbilic_index: points on the first contour, doubled up to the budget
_CONTOUR_START = 64
DEFAULT_CONTOUR_BUDGET = 2 ** 14
# the spherical screen of sphere chart 1: sup|K_{;zz}| <= tol (1 + sup|K|) on
# its unit disk; a torus's screen is cartan._is_degenerate, on sup|r|
SPHERE_SPHERICAL_TOL = 1e-6
# sphere charts: the sampled square's half-width, the disk zeros are
# located in, and the chord distance on S^2 within which the zeros of two
# charts are one zero
SPHERE_CHART_RADIUS = 1.6
_LOCATE_RADIUS = 1.25
_MATCH_DISTANCE = 0.08
# sphere records and the cross-chart merge are ordered by (chart, Re z0 in
# units of this grain, rounded, Im z0): the mirror zeros z and conj(z) of an
# input even under conjugation have real parts that agree to the zeros'
# accuracy (1e-8 and below), so they are ordered by Im z0, not by rounding
_ORDER_GRAIN = 1e-6
# _index_clusters' circle contour on a torus and on a chart: base_cells cells
# (more for a large cluster), capped at sep_frac times the nearest zero's distance
_TORUS_CONTOUR = (2.5, 0.35)
_CHART_CONTOUR = (3.0, 0.3)
# _index_clusters' nearest-zero distances: pairs per block of rows
_PAIR_BLOCK = 2 ** 14
# _index_clusters' circle cross-check: ran, or skipped because the zero is
# not isolated or the circle raised ZeroOnContour or PhaseStepTooLarge
_CROSS_CHECKS = ("ran", "not_isolated", "zero_on_contour", "phase_step")
# Euler characteristic of each surface the index audit knows
_EULER = {"torus": 0, "sphere": 2}


# --------------------------------------------------------------------------
# basic records
# --------------------------------------------------------------------------

@dataclass
class UmbilicRecord:
    """One detected umbilical circle (or Hessian umbilic point)."""

    z0: complex
    twice_index: int
    residual: float
    chart_id: str
    contour_radius: float

    @property
    def index_str(self) -> str:
        k = self.twice_index
        if k % 2 == 0:
            return str(k // 2)
        return f"{k}/2"


@dataclass
class ZeroCluster:
    """A merged group of flagged grid cells around one zero component."""

    chart_id: str
    cells: list  # [(i, j, winding-or-None), ...] in grid indices
    winding: int | None
    kind: str  # "point" | "curve"
    center: complex

    @property
    def size(self) -> int:
        return len(self.cells)


@dataclass
class AuditReport:
    """The index sum of a surface's records; the rest follows from chi."""

    surface: str  # a key of _EULER
    sum_twice_index: int
    details: dict = dataclass_field(default_factory=dict)

    @property
    def euler(self) -> int:
        return _EULER[self.surface]

    @property
    def expected_twice_index(self) -> int:
        return 2 * self.euler

    @property
    def passed(self) -> bool:
        return self.sum_twice_index == self.expected_twice_index

    @property
    def discrepancy(self) -> int:
        return self.sum_twice_index - self.expected_twice_index


# --------------------------------------------------------------------------
# winding of explicit loops
# --------------------------------------------------------------------------

def _wrap(a):
    """Wrap phase increments to (-pi, pi]: pi - ((pi - a) mod 2 pi), the mod
    taken as one shift by 2 pi below 0 or at 2 pi and above.  On a in
    [-2 pi, 2 pi], the differences of two angles, pi - a lies in
    [-pi, 3 pi], where this is np.mod bit for bit (the shift down is exact,
    as fmod is); a NaN stays NaN."""
    t = np.pi - np.asarray(a)
    return np.pi - np.where(t < 0.0, t + _TWO_PI, np.where(t >= _TWO_PI, t - _TWO_PI, t))


def winding_degree(loop_values, zero_floor: float | None = None) -> int:
    """Topological degree of a closed loop of nonzero complex values.

    The loop is the ordered list of samples; the closing step from the last
    value back to the first is included.  Consecutive wrapped phase steps
    must stay below pi/2 in magnitude (PhaseStepTooLarge otherwise, and the
    caller should refine), and no value may fall below the zero floor
    (default 1e-9 times the largest modulus).
    """
    vals = np.asarray(list(loop_values), dtype=complex)
    if vals.size == 0:
        raise ValueError("winding_degree needs a nonempty loop")
    mods = np.abs(vals)
    if zero_floor is None:
        zero_floor = DEFAULT_ZERO_FLOOR_REL * float(mods.max())
    if float(mods.min()) <= zero_floor:
        raise ZeroOnContour(
            f"loop value with modulus {float(mods.min()):.3e} at/below floor "
            f"{zero_floor:.3e}")
    phases = np.angle(vals)
    steps = _wrap(np.diff(np.concatenate([phases, phases[:1]])))
    worst = float(np.max(np.abs(steps)))
    if worst >= _STEP_LIMIT:
        raise PhaseStepTooLarge(
            f"wrapped phase step {worst:.3f} >= pi/2; refine the contour")
    total = float(steps.sum()) / (2.0 * np.pi)
    deg = int(round(total))
    if abs(total - deg) > 1e-6:
        raise PhaseStepTooLarge(
            f"phase increments sum to {total:.3e} turns, not an integer")
    return deg


# --------------------------------------------------------------------------
# edge refinement
# --------------------------------------------------------------------------

def _refine_edges(f, axis, i, j, floor):
    """Phase increments along grid edges through the interpolant, all edges
    at once.

    Edge k runs from corner (i[k], j[k]) one grid step along axis[k].
    Endpoint values are the grid samples the cell pass classified.  Segments
    whose phase step is pi/2 or larger are bisected level by level, and the
    midpoints of one level, over all edges, go to the field in one
    ``evaluate_st`` call.  A sample at the zero floor, or a near-pi jump
    left on a segment of length 2^-_MAX_DEPTH, is a crossing; a smaller
    unresolved jump is a phase-step failure.  Of several such events on one
    edge the one on the leftmost segment counts (segments starting right of
    it are no longer split), and the phase steps of an edge without one are
    summed left to right.

    Returns the increments, NaN on a crossing edge; raises
    PhaseStepTooLarge when some edge ends in a phase-step failure.
    """
    i1, j1 = i + (axis == 0), j + (axis == 1)
    st0 = np.column_stack(f.corner_st(i, j))
    dst = np.column_stack(f.corner_st(i1, j1)) - st0
    V = f.values
    va, vb = V[i, j], V[i1 % f.n, j1 % f.n]
    edge = np.arange(len(i))
    pa, pb = np.zeros(len(i)), np.ones(len(i))
    event_start = np.full(len(i), np.inf)
    event_step = np.zeros(len(i))
    crossing = np.zeros(len(i), dtype=bool)
    leaves = []
    for depth in range(_MAX_DEPTH + 1):
        low = np.minimum(np.abs(va), np.abs(vb))
        step = _wrap(np.angle(vb) - np.angle(va))
        at_floor = low <= floor
        ok = ~at_floor & (np.abs(step) < _STEP_LIMIT)
        big = ~at_floor & ~ok
        leaves.append((edge[ok], pa[ok], step[ok]))
        last = depth == _MAX_DEPTH
        ev = np.flatnonzero(at_floor | big if last else at_floor)
        np.minimum.at(event_start, edge[ev], pa[ev])
        ev = ev[pa[ev] == event_start[edge[ev]]]  # leftmost on its edge
        crossing[edge[ev]] = at_floor[ev] | (np.abs(step[ev]) >= _CROSSING_STEP)
        event_step[edge[ev]] = step[ev]
        split = big & (pa < event_start[edge])
        if last or not split.any():
            break
        edge, pa, pb, va, vb = edge[split], pa[split], pb[split], va[split], vb[split]
        pm = 0.5 * (pa + pb)
        vm = f.evaluate_st(st0[edge, 0] + pm * dst[edge, 0],
                           st0[edge, 1] + pm * dst[edge, 1])
        edge, pa, pb = (np.concatenate(pair) for pair in ((edge, edge), (pa, pm), (pm, pb)))
        va, vb = np.concatenate((va, vm)), np.concatenate((vm, vb))
    stuck = np.flatnonzero(np.isfinite(event_start) & ~crossing)
    if stuck.size:
        raise PhaseStepTooLarge(f"edge phase step {event_step[stuck[0]]:.3f} unresolved "
                                f"at depth {_MAX_DEPTH}")
    totals = np.zeros(len(i))
    e_ok, p_ok, s_ok = (np.concatenate(parts) for parts in zip(*leaves))
    order = np.lexsort((p_ok, e_ok))
    np.add.at(totals, e_ok[order], s_ok[order])
    totals[crossing] = np.nan
    return totals


def _cell_sides(A):
    """A's entries on the bottom, right, top and left edge of every cell
    (i, j): A[0, i, j], A[1, i + 1, j], A[0, i, j + 1], A[1, i, j], with
    indices mod n."""
    return A[0], np.roll(A[1], -1, 0), np.roll(A[0], -1, 1), A[1]


# --------------------------------------------------------------------------
# cell winding localization
# --------------------------------------------------------------------------

def locate_zero_cells(f, *, region_radius: float | None = None):
    """Flag grid cells whose boundary winds around a zero (or crosses the
    zero set), merge neighbors, and return the clusters.

    TotallyDegenerate is raised when the field vanishes identically on the
    region ``f.mask(region_radius)`` or more than a quarter of its samples
    sit below the zero floor; such inputs are locally spherical and should
    be screened first (see :func:`torus_umbilics` and :func:`spherical_test`).

    On a chart the cell pass runs on the square of nodes that bounds the
    region, grown by the one node the ring of a cluster's box reads, and
    clipped to the grid: it is a chart of its own, whose node (i, j) is
    the grid's (i + o, j + o).  Edge refinement, cluster cells and corners
    take the grid's indices.  On a torus the square is the whole grid.
    """
    consider = f.mask(region_radius)
    o, n = 0, f.n
    if not f.periodic:
        held = np.flatnonzero(consider.any(0) | consider.any(1))
        if held.size:
            o, end = max(int(held[0]) - 1, 0), min(int(held[-1]) + 2, n)
            n = end - o
            consider = consider[o:end, o:end]
    V = f.values[o:o + n, o:o + n]
    M = np.abs(V)
    sup = float(np.max(M[consider], initial=0.0))
    if sup == 0.0:
        raise TotallyDegenerate("field vanishes identically on the region")
    floor = DEFAULT_ZERO_FLOOR_REL * sup
    below = M <= floor
    if float(below[consider].mean()) > 0.25:
        raise TotallyDegenerate(
            f"{float(below[consider].mean()):.0%} of samples below the zero floor")

    def refine(a, i, j):
        return _refine_edges(f, a, i + o, j + o, floor)

    # the edge table: T[a, i, j] is the phase increment from corner (i, j)
    # one step along axis a, indices mod n; on a chart the last row and
    # column of edges and cells lead off the square and are never considered
    P = np.angle(V)
    T = np.stack([_wrap(np.roll(P, -1, a) - P) for a in (0, 1)])
    bad = np.stack([(np.abs(T[a]) >= _STEP_LIMIT) | below | np.roll(below, -1, a)
                    for a in (0, 1)])
    cell_ok = np.logical_and.reduce([np.roll(consider, (-di, -dj), (0, 1))
                                     for di in (0, 1) for dj in (0, 1)])
    if not f.periodic:
        cell_ok[-1, :] = cell_ok[:, -1] = False
    cell_bad = cell_ok & np.logical_or.reduce(_cell_sides(bad))
    # the bad edges of bad cells, refined in one batch; on a torus these are
    # all bad edges, on a chart ring_winding refines the others on demand
    refined = bad & np.stack([cell_bad | np.roll(cell_bad, 1, 1),
                              cell_bad | np.roll(cell_bad, 1, 0)])
    T[refined] = refine(*np.nonzero(refined))
    bottom, right, top, left = _cell_sides(T)
    wsum = bottom + right - top - left
    crossing = cell_ok & np.isnan(wsum)
    windings = f.orientation * np.where(cell_ok & ~crossing,
                                        np.round(wsum / (2.0 * np.pi)), 0.0).astype(int)

    flagged = (windings != 0) | crossing
    if not flagged.any():
        return []

    nc = n if f.periodic else n - 1  # cells per axis
    clusters_cells = _label_clusters([tuple(c) for c in np.argwhere(flagged).tolist()],
                                     nc, f.periodic)

    def ring_winding(group):
        """Winding around the one-cell-expanded bounding box of a cluster,
        for clusters whose own cells touch the zero set.  Torus clusters
        that get here do not wrap, so their box fits on the torus."""
        i0 = min(i for i, _ in group) - 1
        i1 = max(i for i, _ in group) + 1
        j0 = min(j for _, j in group) - 1
        j1 = max(j for _, j in group) + 1
        if not f.periodic and (i0 < 0 or j0 < 0 or i1 + 1 > nc or j1 + 1 > nc):
            return None
        ii, jj = np.arange(i0, i1 + 1), np.arange(j0, j1 + 1)
        if flagged[np.ix_(ii % n, jj % n)].sum() > len(group):
            return None
        # the box boundary in a positive walk: bottom, right, top, left
        sizes = (ii.size, jj.size, ii.size, jj.size)
        a = np.repeat([0, 1, 0, 1], sizes)
        ei = np.concatenate([ii, np.full(jj.size, i1 + 1), ii, np.full(jj.size, i0)]) % n
        ej = np.concatenate([np.full(ii.size, j0), jj, np.full(ii.size, j1 + 1), jj]) % n
        todo = bad[a, ei, ej] & ~refined[a, ei, ej]
        if todo.any():
            try:
                T[a[todo], ei[todo], ej[todo]] = refine(a[todo], ei[todo], ej[todo])
            except PhaseStepTooLarge:
                return None
        steps = np.repeat([1.0, 1.0, -1.0, -1.0], sizes) * T[a, ei, ej]
        if np.isnan(steps).any():
            return None
        # summed in walk order, one step at a time
        return f.orientation * int(round(np.cumsum(steps)[-1] / (2.0 * np.pi)))

    clusters = []
    for group in clusters_cells:
        cells = [(i + o, j + o,
                  (None if crossing[i % n, j % n] else int(windings[i % n, j % n])))
                 for i, j in group]
        has_crossing = any(w is None for _, _, w in cells)
        wrapping = f.periodic and _cluster_wraps(group, nc)
        winding = None
        if not has_crossing and not wrapping:
            winding = int(sum(w for _, _, w in cells))
        elif not wrapping:
            winding = ring_winding(group)
        kind = "point" if winding is not None else "curve"
        # representative corner: first minimum modulus over member cell corners
        _, bi, bj = min(((float(M[ci % n, cj % n]), ci, cj)
                         for i, j in group
                         for ci, cj in ((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1))),
                        key=lambda c: c[0])
        clusters.append(ZeroCluster(
            chart_id=f.chart_id, cells=cells, winding=winding, kind=kind,
            center=complex(f.corner_z(bi + o, bj + o))))
    clusters.sort(key=lambda c: (c.center.real, c.center.imag))
    return clusters


def _label_clusters(cells, nc, periodic):
    """Group flagged cells lying within Chebyshev distance 2 (so separate
    clusters keep at least one clean cell ring between them); periodic
    labeling tracks unwrapped offsets so wrapped clusters stay contiguous."""
    cellset = set(cells)
    seen = set()
    groups = []
    offs = [(di, dj) for di in (-2, -1, 0, 1, 2) for dj in (-2, -1, 0, 1, 2)
            if (di, dj) != (0, 0)]
    for start in cells:
        if start in seen:
            continue
        group = {}
        queue = [(start, start)]
        seen.add(start)
        group[start] = start
        while queue:
            (ci, cj), (ui, uj) = queue.pop()
            for di, dj in offs:
                if periodic:
                    nb = ((ci + di) % nc, (cj + dj) % nc)
                else:
                    nb = (ci + di, cj + dj)
                if nb in cellset and nb not in seen:
                    seen.add(nb)
                    unwrapped = (ui + di, uj + dj)
                    group[nb] = unwrapped
                    queue.append((nb, unwrapped))
        groups.append(sorted(group.values()))
    return groups


def _cluster_wraps(group, nc):
    i0 = min(i for i, _ in group)
    i1 = max(i for i, _ in group)
    j0 = min(j for _, j in group)
    j1 = max(j for _, j in group)
    return (i1 - i0 + 3 >= nc) or (j1 - j0 + 3 >= nc)


# --------------------------------------------------------------------------
# index of an isolated zero
# --------------------------------------------------------------------------

def umbilic_index(f, z0: complex, radius: float, *, sup_hint: float | None = None) -> int:
    """twice_index = -(degree of f/|f|) on the positively oriented circle
    of the given radius about z0, doubling the number of contour points
    from _CONTOUR_START until every wrapped phase step is below pi/2 (at
    most DEFAULT_CONTOUR_BUDGET points)."""
    if radius <= 0.0:
        raise ValueError("contour radius must be positive")
    sup = float(sup_hint) if sup_hint is not None else f.sup_norm()
    floor = DEFAULT_ZERO_FLOOR_REL * sup
    m = _CONTOUR_START
    while True:
        theta = 2.0 * np.pi * np.arange(m) / m
        pts = z0 + radius * np.exp(1j * theta)
        try:
            return -winding_degree(f.evaluate_at(pts), zero_floor=floor)
        except PhaseStepTooLarge:
            if 2 * m > DEFAULT_CONTOUR_BUDGET:
                raise PhaseStepTooLarge(f"contour about {z0:.6f} not resolved within "
                                        f"{DEFAULT_CONTOUR_BUDGET} points") from None
            m *= 2


# --------------------------------------------------------------------------
# index-sum audit
# --------------------------------------------------------------------------

def poincare_hopf_audit(records, surface: str) -> AuditReport:
    """Exact integer audit of sum(2 iota) against 2 chi(X) on a "torus"
    (chi = 0) or a "sphere" (chi = 2)."""
    if surface not in _EULER:
        raise ValueError(f"unknown surface kind {surface!r}; expected one of {sorted(_EULER)}")
    return AuditReport(surface, int(sum(r.twice_index for r in records)))


# --------------------------------------------------------------------------
# zero refinement helpers
# --------------------------------------------------------------------------

def refine_cluster_residual(f, clusters) -> list:
    """Polished |f| at each cluster's zero, relative to sup|f|.

    All clusters, of both kinds, are polished at once by the damped Newton
    iteration on ``f.jet_at`` (:func:`_polish_clusters`), each within its
    extent plus 1.5 cells: the step is defined where the Jacobian is
    singular, so it lands on a zero curve as well as on a point zero.
    """
    sup, cell = f.sup_norm(), f.cell_size
    _, best = _polish_clusters(f, clusters,
                               [_cluster_extent(c, cell) + 1.5 * cell for c in clusters], sup)
    return [float(m) / sup for m in best]


def _polish(f, starts, max_move, stop=0.0):
    """Damped Newton on (Re f, Im f) from k rows of p starts, (k, p), at
    once; returns the (k, p) iterates and their |f|.  Each step takes f,
    D f and Dbar f at all live iterates from one ``f.jet_at`` call, and is
    the Levenberg-Marquardt step of :func:`_lm_step`, defined also where
    the Jacobian is singular, as on every zero curve of a constant-phase
    field.  A trial point is taken when it lowers |f| and lies within
    max_move (scalar, per row (k, 1) or per start) of its start, else the
    step is halved; a start stops when its step falls below rounding or is
    undefined.  A row ends as soon as one of its starts' |f| is below the
    scalar stop, for a caller that only asks whether any start of a row
    gets there; the default 0 never triggers.  Deterministic, monotone and
    confined.  A point's jet does not depend on its batch, on a chart or a
    torus field, so a row's iterates are those of its polish alone, bit
    for bit.
    """
    z0 = np.asarray(starts, dtype=complex)
    k, p = z0.shape
    reach = np.broadcast_to(np.asarray(max_move, dtype=float), z0.shape).reshape(-1)
    z0 = z0.reshape(-1)
    z, live = z0.copy(), np.arange(z0.size)
    v, a, b = f.jet_at(z)
    best = np.abs(v)
    dz = _lm_step(v, a, b)
    for _ in range(64):
        hit = best.reshape(k, p) < stop
        if hit.any():  # a row with a start below the stop is done
            live = live[~hit.any(1)[live // p]]
        step = np.abs(dz[live])
        live = live[np.isfinite(step) & (step > np.finfo(float).eps * (1.0 + np.abs(z[live])))]
        if not live.size:
            break
        trial = z[live] + dz[live]
        v, a, b = f.jet_at(trial)
        mod = np.abs(v)
        take = (mod < best[live]) & (np.abs(trial - z0[live]) <= reach[live])
        done = live[take]
        z[done], best[done] = trial[take], mod[take]
        dz[done] = _lm_step(v[take], a[take], b[take])
        dz[live[~take]] *= 0.5
    return z.reshape(k, p), best.reshape(k, p)


def _polish_clusters(f, clusters, reach, sup):
    """Polish every cluster in one batched call from its centre, confined
    to its reach, with ``f.jet_at`` as the jet.  A start can stall where
    the Jacobian is singular, as at the saddle of |f| between two zeros of
    one cluster; the m clusters left above _POLISHED * sup are polished
    again as one (m, 4) polish from four starts around each centre, and
    each keeps its best iterate, the earliest on a tie."""
    centers = np.array([c.center for c in clusters], dtype=complex)
    reach = np.asarray(reach, dtype=float)
    z, mod = (x[0] for x in _polish(f, centers[None], reach))
    again = np.flatnonzero(mod > _POLISHED * sup)
    if again.size:
        starts = centers[again, None] + 0.25 * reach[again, None] * np.array([1, 1j, -1, -1j])
        zk, mk = _polish(f, starts, reach[again, None])
        best = (np.arange(again.size), mk.argmin(1))  # the first minimum of each row
        better = mk[best] < mod[again]
        z[again[better]], mod[again[better]] = zk[best][better], mk[best][better]
    return [complex(zk) for zk in z], mod


def _lm_step(v, a, b):
    """The step dz for f = v, D f = a, Dbar f = b.  Newton's step solving
    v + a dz + b conj(dz) = 0 is (conj(v) b - v conj(a)) / det with
    det = |a|^2 - |b|^2; this is the Levenberg-Marquardt step with damping
    mu = |v|^2, written without cancellation, which is Newton's up to a
    relative O(|dz|^2) near a simple zero."""
    det = np.abs(a) ** 2 - np.abs(b) ** 2
    mu = np.abs(v) ** 2
    grad = -(np.conj(a) * v + b * np.conj(v))
    with np.errstate(divide="ignore", invalid="ignore"):
        return ((det * (np.conj(v) * b - v * np.conj(a)) + mu * grad)
                / (det ** 2 + 2.0 * mu * (np.abs(a) ** 2 + np.abs(b) ** 2) + mu ** 2))


def _cluster_extent(cluster: ZeroCluster, cell_dz: float) -> float:
    ii = [i for i, _, _ in cluster.cells]
    jj = [j for _, j, _ in cluster.cells]
    span = max(max(ii) - min(ii), max(jj) - min(jj)) + 1
    return span * cell_dz


# --------------------------------------------------------------------------
# torus pipeline
# --------------------------------------------------------------------------

def torus_umbilics(u: PeriodicField):
    """Locate the umbilical circles of the circle bundle with potential u
    over the torus: compute r by the P form, screen out constant curvature
    (``cartan._is_degenerate``), find zero clusters, refine and index
    each, and audit the index sum against 2 chi = 0.

    Returns (records, audit, clusters).
    """
    r = cartan_r(u, "p_form")
    if _is_degenerate(r.sup_norm()):
        raise TotallyDegenerate("potential has constant curvature; r vanishes identically")
    clusters = locate_zero_cells(r)
    records, dropped, checks = _index_clusters(r, clusters)
    audit = poincare_hopf_audit(records, "torus")
    audit.details["dropped_clusters"] = dropped
    audit.details["index_cross_checks"] = checks
    return records, audit, clusters


def _index_clusters(r, clusters, region_radius=None):
    """Polish all point clusters of r at once, then index each by its
    boundary winding (degree additivity).  A circle contour (see
    _TORUS_CONTOUR) cross-checks the index whenever the zero is comfortably
    isolated, and a disagreement raises.  Returns an UmbilicRecord per
    indexed cluster (chart r.chart_id, residual relative to
    r.sup_norm(region_radius)), the audit entries of the winding-0
    clusters, which give no record (such a cluster may be a merged pair of
    opposite-index zeros), and the cross-check counts: how many ran, and
    how many were skipped because the zero was not isolated (sep <= 3 base)
    or because the circle raised ZeroOnContour or PhaseStepTooLarge."""
    bad = [c for c in clusters if c.kind != "point"]
    if bad:
        raise TotallyDegenerate(
            f"{len(bad)} zero cluster(s) on {bad[0].chart_id} are not isolated points "
            f"(near {bad[0].center:.4f}); the index audit requires isolated zeros")
    cell, sup = r.cell_size, r.sup_norm(region_radius)
    base_cells, sep_frac = _TORUS_CONTOUR if r.periodic else _CHART_CONTOUR
    zs, resids = _polish_clusters(
        r, clusters, [0.75 * _cluster_extent(c, cell) + 1.25 * cell for c in clusters], sup)
    # each zero's distance to the nearest other, a block of rows at a time
    z = np.array(zs, dtype=complex)
    seps, rows = np.empty(len(z)), max(1, _PAIR_BLOCK // max(len(z), 1))
    for first in range(0, len(z), rows):
        d = r.distance(z[first:first + rows, None], z)
        d[np.arange(len(d)), np.arange(first, first + len(d))] = np.inf
        seps[first:first + rows] = d.min(1)
    records, dropped = [], []
    checks = dict.fromkeys(_CROSS_CHECKS, 0)
    for idx, c in enumerate(clusters):
        z0, twice = zs[idx], -c.winding
        if twice == 0:
            dropped.append({"chart": c.chart_id, "center": [c.center.real, c.center.imag],
                            "cells": c.size})
            continue
        base = max(base_cells * cell, 1.25 * _cluster_extent(c, cell))
        sep = float(seps[idx])
        radius = min(base, sep_frac * sep) if np.isfinite(sep) else base
        if sep <= 3.0 * base:
            checks["not_isolated"] += 1
        else:
            try:
                circle = umbilic_index(r, z0, radius, sup_hint=sup)
            except ZeroOnContour:
                checks["zero_on_contour"] += 1
            except PhaseStepTooLarge:
                checks["phase_step"] += 1
            else:
                checks["ran"] += 1
                if circle != twice:
                    raise PhaseStepTooLarge(
                        f"index cross-check mismatch at {z0:.6f}: cells give {twice}, "
                        f"circle of radius {radius:.3e} gives {circle}")
        records.append(UmbilicRecord(z0=z0, twice_index=twice,
                                     residual=float(resids[idx]) / sup,
                                     chart_id=r.chart_id, contour_radius=radius))
    return records, dropped, checks


# --------------------------------------------------------------------------
# sphere pipeline (two stereographic charts)
# --------------------------------------------------------------------------

# Smooth perturbation harmonics given in both stereographic charts
# (w = 1/z); each is a bounded smooth function on the whole sphere.
SPHERE_HARMONICS = {
    "re_z": (lambda z: z.real / (1.0 + np.abs(z) ** 2),
             lambda w: w.real / (1.0 + np.abs(w) ** 2)),
    "im_z": (lambda z: z.imag / (1.0 + np.abs(z) ** 2),
             lambda w: -w.imag / (1.0 + np.abs(w) ** 2)),
    "z_axis": (lambda z: (np.abs(z) ** 2 - 1.0) / (np.abs(z) ** 2 + 1.0),
               lambda w: (1.0 - np.abs(w) ** 2) / (np.abs(w) ** 2 + 1.0)),
    "re_z2": (lambda z: (z ** 2).real / (1.0 + np.abs(z) ** 2) ** 2,
              lambda w: (w ** 2).real / (1.0 + np.abs(w) ** 2) ** 2),
    "im_z2": (lambda z: (z ** 2).imag / (1.0 + np.abs(z) ** 2) ** 2,
              lambda w: -(w ** 2).imag / (1.0 + np.abs(w) ** 2) ** 2),
}


def _sphere_point(chart_id: str, c: complex) -> np.ndarray:
    """Unit vector on S^2 for a chart coordinate (chart 2 covers z = 1/w)."""
    if chart_id == "chart2":
        if c == 0:
            return np.array([0.0, 0.0, 1.0])
        c = 1.0 / c
    d = 1.0 + abs(c) ** 2
    return np.array([2.0 * c.real / d, 2.0 * c.imag / d, (abs(c) ** 2 - 1.0) / d])


def sphere_metric_potentials(degree: int, perturbations, *, chart_n: int):
    """Potentials u on both charts, sampled on the squares of half-width
    SPHERE_CHART_RADIUS, for
    e^{u} = degree * (1+|z|^2)^{-2} * (1 + sum eps * p); the chart-2 density
    picks up the |dz/dw|^2 factor, which reproduces the same functional form."""
    if degree < 1:
        raise ValueError("bundle degree must be a positive integer")
    perts = [(str(h), float(e)) for h, e in perturbations]
    for h, _ in perts:
        if h not in SPHERE_HARMONICS:
            raise ValueError(f"unknown harmonic {h!r}; available: {sorted(SPHERE_HARMONICS)}")

    def build(chart_idx, chart_id):
        def u_fn(Z):
            p = np.zeros(Z.shape, dtype=float)
            for h, e in perts:
                p = p + e * SPHERE_HARMONICS[h][chart_idx](Z)
            if np.min(1.0 + p) <= 0.0:
                raise NotPseudoconvex("perturbation makes the metric density nonpositive")
            return np.log(float(degree)) - 2.0 * np.log1p(np.abs(Z) ** 2) + np.log1p(p)
        return ChartGrid.from_function(chart_id, SPHERE_CHART_RADIUS, chart_n, u_fn,
                                       real_tag=True)

    return build(0, "chart1"), build(1, "chart2")


def _record_key(rec: UmbilicRecord):
    """The order of sphere records: chart, then Re z0 rounded to
    _ORDER_GRAIN, then Im z0."""
    return rec.chart_id, round(rec.z0.real / _ORDER_GRAIN), rec.z0.imag


def sphere_two_chart_umbilics(degree: int, perturbations, *, chart_n: int = 256):
    """Two-chart sphere pipeline: invariant per chart (the P form), the
    spherical screen on chart 1, zero clusters and indices per chart,
    cross-chart deduplication, and the index audit against 2 chi = 4.

    Ownership convention: a zero whose estimate lies within one chart cell
    h = 2R / (n - 1) of the overlap circle or inside it, |z| <= 1 + h,
    belongs to chart 1, and any other to chart 2.  Zeros pinned to |z| = 1
    (inputs even under z -> 1/zbar) thus have one owner, not one that
    finite-difference error picks.  A zero seen by both charts is reported
    exactly once, by the owner of its best coordinate estimate, with the
    other chart's winding kept as a stability check.  The merge visits the
    zeros, and the records come back, in the order of :func:`_record_key`.
    """
    u1, u2 = sphere_metric_potentials(degree, perturbations, chart_n=chart_n)
    charts = {}
    for cid, u in (("chart1", u1), ("chart2", u2)):
        r = cartan_r(u, "p_form")
        if cid == "chart1" and spherical_test(u, r, SPHERE_SPHERICAL_TOL, region_radius=1.0):
            raise TotallyDegenerate(
                "constant-curvature sphere metric: r vanishes identically, "
                "no isolated umbilical circles")
        charts[cid] = (r, locate_zero_cells(r, region_radius=_LOCATE_RADIUS))

    # refine and index every cluster in its own chart
    entries, dropped = [], []
    checks = dict.fromkeys(_CROSS_CHECKS, 0)
    for r, clusters in charts.values():
        chart_records, chart_dropped, chart_checks = _index_clusters(r, clusters, _LOCATE_RADIUS)
        entries += chart_records
        dropped += chart_dropped
        checks = {key: checks[key] + chart_checks[key] for key in _CROSS_CHECKS}

    # cross-chart merge: greedy in (chart, z) order, one group per unused entry
    points = [_sphere_point(e.chart_id, e.z0) for e in entries]
    used = [False] * len(entries)
    order = sorted(range(len(entries)), key=lambda k: _record_key(entries[k]))
    records, stability = [], []
    for a in order:
        if used[a]:
            continue
        group = [entries[a]]
        used[a] = True
        for b in order:
            if not used[b] and float(np.linalg.norm(points[a] - points[b])) <= _MATCH_DISTANCE:
                group.append(entries[b])
                used[b] = True
        # best-conditioned estimate: smallest chart coordinate modulus
        best = min(group, key=lambda e: abs(e.z0))
        if best.chart_id == "chart1":
            z_est = best.z0
        else:
            z_est = np.inf if best.z0 == 0 else 1.0 / best.z0
        owner_id = "chart1" if abs(z_est) <= 1.0 + u1.cell_size else "chart2"
        records.append(next((e for e in group if e.chart_id == owner_id), best))
        twices = sorted(e.twice_index for e in group)
        stability.append({
            "charts": sorted(e.chart_id for e in group),
            "twice_indices": twices,
            "stable": len(set(twices)) == 1,
        })

    records.sort(key=_record_key)
    audit = poincare_hopf_audit(records, "sphere")
    audit.details["chart_stability"] = stability
    audit.details["dropped_clusters"] = dropped
    audit.details["index_cross_checks"] = checks
    return records, audit
