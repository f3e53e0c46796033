"""The line engine: zeros of Pu proven from a potential's own coefficients,
in one dimension.

A real trigonometric potential u on a torus lattice is held as its
Hermitian coefficient block (:func:`_hermitian`).  Along a line of the
torus, Pu is a 1-D trigonometric polynomial whose coefficients are exact
convolutions of u's, formed with a bound on every rounding, so what is
certified from them holds for the exact Pu of u, whatever grid u is
otherwise sampled on.  Three bounds make up the certificate: the rounding
of the derivative blocks (:func:`_derivative_blocks`), of the
convolutions (:func:`_p_row`) and of the samples and chords of a line
(:func:`_chord_bounds`).

Along rows and columns.  :func:`_chord_windings` takes the winding about 0
of 1-D trigonometric polynomials from their coefficients and an l1 bound
on their rounding, each certified by a chord tube with a rounding margin,
a failed piece halved at its dyadic midpoint until it passes, or left
open; the search objective proves zeros with it on the rows or columns of
Pu (:func:`_row_proofs`: the argument principle between two rows, or
between two columns).

Along a profile.  When every mode of u lies on one line through 0
(:func:`_one_directional`, an exact integer test), u = f(theta) with
theta = j0 s + k0 t and (j0, k0) primitive.  With kappa = D theta every
derivative D^m Dbar^l u is kappa^m conj(kappa)^l f^(m+l), hence
r = Pu = kappa^3 conj(kappa) p(theta) with
p = f'''' - 3 f' f''' + 2 f'^2 f'' - f''^2, a real trigonometric
polynomial of band 3b for a potential of band b along the line.  p's
coefficients are exact convolutions of u's (:func:`_profile`).  Its roots
come from the companion matrix of z^{3b} p(z) (J. P. Boyd, SIAM J. Numer.
Anal. 40 (2002) 1666-1682), and a root across which p changes sign, held
against a rounding bound on evaluating p, is one certified closed zero
curve theta = const of r (:func:`_certified_roots`).

This module imports numpy and :mod:`umbilic.field` alone, so every other
module of the package may use it.
"""

from __future__ import annotations

import numpy as np

from .field import _freqs, _lattice_wirtinger, _point_rows

# _row_proofs: the rows t = (q + 1/2) / _ROWS, and columns s alike, whose
# windings prove a zero
_ROWS = 4
# _certified_roots: companion-matrix roots with ||z| - 1| at most this are
# candidate zero curves
_RING_TOL = 1e-3
# _chord_windings: samples per row at the first level, a power of two, so
# that the phases j m / K mod 1 of the sample factors are exact at every
# level; the first level's factors are its roots of unity e^{2 pi i m / M}
_ROW_SAMPLES = 128
_SAMPLE_ROOTS = np.exp(2j * np.pi * (np.arange(_ROW_SAMPLES) / _ROW_SAMPLES))


# --------------------------------------------------------------------------
# Hermitian blocks
# --------------------------------------------------------------------------

def _hermitian(jk: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The centred coefficient blocks (k, 2h+1, 2h+1) of the potentials
    with the coefficient rows C at the mode keys jk, h the largest |j| or
    |k| of a key: bin (j, k) holds (c_{jk} + conj(c_{-j,-k})) / 2, a
    Hermitian block, the real potential the search scores.  A sum that
    leaves the float range is inf, not an error."""
    h = int(np.abs(jk).max(initial=0))  # the mode budget
    B = np.zeros((len(C), 2 * h + 1, 2 * h + 1), dtype=complex)
    B[:, jk[:, 0] + h, jk[:, 1] + h] = C
    with np.errstate(over="ignore", invalid="ignore"):
        return (B + np.conj(B[:, ::-1, ::-1])) / 2


def _one_directional(B: np.ndarray) -> np.ndarray:
    """Whether the nonzero bins of each block of a stack B (k, 2h+1, 2h+1)
    but the constant lie on one line through 0: the exact integer test
    j k0 - k j0 == 0 of every such bin (j, k) against the first of them,
    (j0, k0), true for a constant block.  Such a potential is u = f(theta),
    theta = (j0 s + k0 t) / gcd(j0, k0), so Yu = 0 for the constant
    direction Y along the lines theta = const, which close on the torus,
    and by the theorem of :mod:`umbilic.torussearch` its Pu vanishes (on
    curves theta = const, or everywhere for a constant): every row and
    column crosses those curves alike."""
    h = B.shape[-1] // 2
    j = np.arange(-h, h + 1)
    nonzero = B != 0
    nonzero[:, h, h] = False
    first = nonzero.reshape(len(B), -1).argmax(-1)
    j0, k0 = (j[i][:, None, None] for i in divmod(first, 2 * h + 1))
    return ~(nonzero & (j[:, None] * k0 - j * j0 != 0)).any((-2, -1))


# --------------------------------------------------------------------------
# rows and columns of Pu
# --------------------------------------------------------------------------

def _row_proofs(E: np.ndarray, omega: complex) -> np.ndarray:
    """Whether two certified windings of the Pu of each potential with the
    Hermitian coefficient block E (k, L, L) on the lattice of omega differ
    along rows t = (q + 1/2) / _ROWS, or along columns s = (q + 1/2) /
    _ROWS, which proves a zero of Pu by the argument principle on the band
    between the two lines.  A row is never compared with a column: they
    wind about other cycles.  Lines are taken lazily: t = 1/8 and 3/8 for
    every member, then 5/8 and 7/8 in turn for the members whose certified
    windings do not yet differ, then the columns alike for the members
    the rows leave open, from the transposed derivative blocks, whose
    bound is the rows' (each S_m of :func:`_derivative_blocks` sums over
    the whole block).  A line's values do not depend on the members or
    lines that share its call (:func:`_pu_rows`, :func:`_chord_windings`)."""
    X, bound = _derivative_blocks(E, omega)
    lines = (np.arange(_ROWS) + 0.5) / _ROWS
    proven, todo = np.zeros(len(X), dtype=bool), np.arange(len(X))
    for columns in (False, True):
        if not todo.size:
            break
        if columns:
            X = np.ascontiguousarray(X.swapaxes(-1, -2))
        windings = np.full((len(X), _ROWS), np.nan)
        for taken in (slice(0, 2), *(slice(q, q + 1) for q in range(2, _ROWS))):
            windings[todo, taken] = _chord_windings(*_pu_rows(X[todo], bound[todo], lines[taken]))
            proven |= np.fmax.reduce(windings, -1) > np.fmin.reduce(windings, -1)  # NaN: uncertified
            todo = np.flatnonzero(~proven)
            if not todo.size:
                break
    return proven


def _derivative_blocks(E: np.ndarray, omega: complex):
    """(X, bound) for k potentials u with the Hermitian coefficient blocks
    E (k, L, L), L = 2h + 1, on the lattice of omega: X (k, 5, L, L) holds
    the coefficient blocks of Du, D^2 u, D Dbar u, D^2 Dbar u and
    D^3 Dbar u (_p_row's order), E times products of the multipliers of
    :meth:`PeriodicField.derivative` (``_lattice_wirtinger``); bound (k,)
    bounds the l1 distance between a row of Pu formed from X by
    :func:`_pu_rows` with exact convolutions and the exact row of the exact
    Pu of u, and between a column formed from X transposed and the exact
    column.  A stack of no members (k = 0) gives empty X and bound.

    The bound, for eps the machine epsilon: E is exact.  With
    dbar = (|omega| |2 pi j| + |2 pi k|) / |conj(omega) - omega|, which
    bounds |D| and |Dbar| at the bin (j, k), a derivative of order m has a
    multiplier of modulus at most dbar^m, formed within 24 eps dbar^m, so
    its block is within 27 eps |E| dbar^m.  A row's coefficients c_j =
    sum_k X_jk e^{2 pi i k t0} add the factors' rounding (each within
    2 (L + 8) eps, from (k t0 mod 1)) and the sum's, (L + 4) eps: in all
    |c_j - exact c_j| <= rho R_j with rho = 4 (L + 16) eps and
    R_j = sum_k |E_jk| dbar^m_jk, the majorant of |c_j|; a column's alike,
    j and k exchanged.  With S_m the sum of R_j over j, the sum over the
    whole block for rows and columns alike, the exact formula of _p_row on
    these lines moves by at most 3 rho (1 + rho)^2 times
    T = S4 + 3 S1 S3 + 2 S1^2 S2 + S2^2, below bound = 4 rho T."""
    L = E.shape[-1]
    mult = 2j * np.pi * (np.arange(L) - L // 2)
    D, Db = _lattice_wirtinger(mult[:, None], mult[None, :], omega)
    DDb = D * Db
    dbar = ((abs(omega) * np.abs(mult)[:, None] + np.abs(mult)) / abs(omega.conjugate() - omega))
    majorants = np.stack([dbar.ravel() ** m for m in (1, 2, 3, 4)], -1)
    S1, S2, S3, S4 = np.einsum("kb,bm->mk", np.abs(E).reshape(len(E), L * L), majorants)
    rho = 4 * (L + 16) * np.finfo(float).eps
    X = E[:, None] * np.stack([D, D * D, DDb, DDb * D, DDb * D * D])
    return X, 4 * rho * (S4 + 3 * S1 * S3 + 2 * S1 * S1 * S2 + S2 * S2)


def _pu_rows(X: np.ndarray, bound: np.ndarray, rows):
    """(P, err) for the derivative blocks X (k, 5, L, L) and their bound of
    :func:`_derivative_blocks`: P (k, len(rows), 3L - 2) the coefficients
    in s of Pu along each row t = t0 of rows, from the derivatives' rows
    c = (X * e^{2 pi i k t0}) summed over k by :func:`_p_row`, and err
    their l1 rounding bound, _p_row's tol plus bound.  Every coefficient is
    one sum over k of einsum's own loops (no BLAS), taken in the same order
    whatever the stack or the rows that share the call."""
    k = _freqs(X)
    waves = np.exp(2j * np.pi * (np.multiply.outer(rows, k) % 1.0))
    c = np.einsum("mdjk,rk->mrdj", X, waves)  # (members, rows, 5, L)
    P, tol = _p_row(*np.moveaxis(c, -2, 0))
    return P, tol + bound[:, None]


def _p_row(du, d2u, ddbu, d2dbu, d3dbu):
    """(P, tol) for the coefficient rows (..., 2b + 1) of the derivatives
    Du, D^2 u, D Dbar u, D^2 Dbar u and D^3 Dbar u of a potential along one
    line: P (..., 6b + 1) the coefficients of Pu there,
    ((d3dbu - 3 du*d2dbu) + 2 du*du*ddbu) - d2u*ddbu with * the exact
    convolution, summed into zeroed arrays in that order (x - 0 and 0 - y
    are exact), and tol (...) a rounding bound.  With T the l1 bound
    ||d3dbu|| + 3 ||du|| ||d2dbu|| + 2 ||du||^2 ||ddbu|| + ||d2u|| ||ddbu||
    of P: each coefficient of P sums at most 6b + 1 products, and a value
    of the row sums 6b + 1 terms whose phases reach 6 pi b, so P is within
    tol = 32 (3b + 1) eps T of the exact formula of these rows in l1, and a
    value computed from it within tol of the exact one ((30.9 b + 2) eps T
    at most)."""
    b = du.shape[-1] // 2
    pairs = _convolve(np.stack([du, du, d2u]), np.stack([d2dbu, du, ddbu]))
    P = np.zeros((*du.shape[:-1], 6 * b + 1), dtype=complex)
    P[..., 2 * b:4 * b + 1] = d3dbu
    P[..., b:5 * b + 1] -= 3 * pairs[0]
    P += 2 * _convolve(pairs[1], ddbu)
    P[..., b:5 * b + 1] -= pairs[2]
    n1, n2, n3, n4, n5 = np.abs(np.stack([du, d2u, ddbu, d2dbu, d3dbu])).sum(-1)
    tol = 32 * (3 * b + 1) * np.finfo(float).eps * (n5 + 3 * n1 * n4 + 2 * n1 * n1 * n3 + n2 * n3)
    return P, tol


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The convolution of the last axes of a and b, (..., Na + Nb - 1):
    output m sums a_i b_{m-i} into a zeroed array in increasing i, i over
    the shorter operand, one elementwise step per i, so its bits do not
    depend on the rows that share the call, and it holds no more than the
    output and one step."""
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    Na, Nb = a.shape[-1], b.shape[-1]
    out = np.zeros((*np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), Na + Nb - 1), dtype=complex)
    for i in range(Na):
        out[..., i:i + Nb] += a[..., i, None] * b
    return out


# --------------------------------------------------------------------------
# chord tubes
# --------------------------------------------------------------------------

def _chord_windings(P: np.ndarray, err: np.ndarray) -> np.ndarray:
    """The winding number about 0 of the trigonometric polynomial
    p(s) = sum_j P_j e^{2 pi i j s}, |j| <= J, s from 0 to 1, for each row of
    coefficients P (..., 2J+1), where the chord-tube test certifies it, else
    NaN: (...,).  err (...,) bounds the l1 distance from P to the exact
    coefficients whose windings are asked for.

    A row is sampled at s = m / M, M = _ROW_SAMPLES, and its piece between
    two samples, of length h, passes when the distance from 0 to its chord
    exceeds the tube L2 h^2 / 8 plus the rounding margin (both from
    :func:`_chord_bounds`).  The exact row stays within the tube of its
    exact chord (the Peano kernel of linear interpolation is positive with
    integral h^2 / 8, and L2 bounds |p''|), and the exact chord within the
    margin of the computed one.  A piece that fails is halved at its dyadic
    midpoint, level by level, until both halves pass; a row is uncertified
    only when a failed piece's tube is already below the margin, where
    halving can no longer pass it.  When every piece passes, the homotopy
    from p to the computed closed polygon never meets 0, so p's winding is
    the polygon's: the sum of its chords' argument increments, each inside
    (-pi, pi) by far more than its rounding, since the chord misses 0 by
    the margin.  A row that is not finite, or is 0, certifies nothing.  The
    samples are scaled by a power of two, exactly, so that the margin is
    about 1 and the chord arithmetic neither overflows nor underflows.
    The first level's samples are each row's own product
    (:func:`_point_rows`) and a midpoint is a row's own sum, so a row's
    winding does not depend on the rows that share the call.

    The first level is held as the (rows, M + 1) samples, its pieces the
    views of their left and right ends, its turns summed along each row in
    order; only failed pieces are gathered, with their rows and positions,
    and a level's midpoints are formed at most M pieces at a time."""
    lead = P.shape[:-1]
    P = P.reshape(-1, P.shape[-1])
    margin, L2 = _chord_bounds(P, np.broadcast_to(err, lead).reshape(-1))
    live = np.isfinite(margin) & np.isfinite(L2) & np.isfinite(P).all(-1)
    scale = np.ldexp(1.0, -np.frexp(np.where(live, margin, 1.0))[1])
    M, N = _ROW_SAMPLES, P.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):  # rows that are not finite pass nothing
        p = _point_rows(P, _sample_waves(N))
        p *= scale[:, None]
    a, b = p[:, :-1], p[:, 1:]
    total = np.zeros(len(P))
    level = 0
    while True:
        tube = L2 / (8.0 * M * M * 4.0 ** level)  # a power-of-two scaling of L2 / 8
        distance = (tube + margin) * scale
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            if level:
                turn, passed = _chord_turns(a, b, distance[rows])
                total += np.bincount(rows, turn, len(P))
            else:  # a row's turns summed in order, as bincount sums them
                turn, passed = _chord_turns(a, b, distance[:, None])
                total += np.cumsum(turn, -1, out=turn)[:, -1]
        failed = np.flatnonzero(~passed)
        if not level:  # the first level's failed pieces, gathered
            rows, at = np.divmod(failed, M)  # a piece's left end is s = at / (M 2^level)
            a, b, failed = p[rows, at], p[rows, at + 1], np.arange(len(failed))
        stuck = rows[failed]
        live[stuck[tube[stuck] < margin[stuck]]] = False  # halving cannot pass these
        failed = failed[live[stuck]]  # a dead row's pieces go no further
        if not failed.size:
            break
        rows, a, b, at = rows[failed], a[failed], b[failed], 2 * at[failed]
        level += 1
        v = np.empty(len(rows), dtype=complex)
        for first in range(0, len(rows), M):
            piece = slice(first, first + M)
            factors = P[rows[piece]]
            factors *= _waves(N, at[piece, None] + 1, M << level)
            v[piece] = factors.sum(-1) * scale[rows[piece]]
        rows, a, b, at = (np.repeat(x, 2) for x in (rows, a, b, at))
        a[1::2], b[::2], at[1::2] = v, v, at[1::2] + 1  # the halves (a, v) and (v, b)
    return np.where(live, np.rint(total / (2 * np.pi)), np.nan).reshape(lead)


def _chord_turns(a, b, distance):
    """(turn, passed) for the chords from a to b: passed where a chord keeps
    more than distance from 0, and turn, arg(b / a) there, inside
    (-pi, pi), 0 elsewhere.  Formed in one complex and two real buffers of
    the chords' shape.  Each complex product takes its operands in the
    order written, x d and b conj(a): numpy forms it with fused
    multiply-adds, so its last bit is not commutative, and an unnamed
    temporary past 256 KiB may be reused as the output with the operands
    swapped."""
    d = b - a
    x = a.real * d.real
    x += a.imag * d.imag
    np.negative(x, out=x)
    square = np.square(d.real)
    square += np.square(d.imag)
    x /= square
    np.clip(x, 0, 1, out=x)
    np.add(a, np.multiply(x, d, out=d), out=d)  # the chord's nearest point to 0
    passed = np.abs(d, out=square) > distance
    np.multiply(b, np.conjugate(a, out=d), out=d)
    turn = np.arctan2(d.imag, d.real, out=x)
    turn[~passed] = 0
    return turn, passed


def _chord_bounds(P: np.ndarray, err: np.ndarray):
    """(margin, L2) of :func:`_chord_windings` for the rows P (..., N), N =
    2J + 1, whose exact coefficients lie within err in l1; eps is the
    machine epsilon and ||P||_1 the l1 norm of a row.
    - A sample's factors e^{2 pi i j m / K} have the exact phase
      (j m mod K) / K (K is a power of two) and are within 8 eps of the true
      ones, and its dot product adds (N + 4) eps ||P||_1, so a sample is
      within err + (N + 12) eps ||P||_1 of the exact row's value.
    - The margin is err + 4 (N + 8) eps ||P||_1.  The rest, above
      (N + 12) eps ||P||_1, covers the rounding of the chord's distance from
      0 (a few eps ||P||_1) and of the tube (relative (N + 4) eps): a tube
      above 2 ||P||_1 certifies nothing, since no sample exceeds ||P||_1 by
      more than the margin, and below it the tube's rounding is below
      (2 N + 8) eps ||P||_1.  Gradual underflow adds at most one smallest
      subnormal per product, below the N tiny added.
    - L2 = sum_j (2 pi j)^2 |P_j| + (2 pi J)^2 err bounds the exact row's
      max|p''|."""
    N = P.shape[-1]
    j = _freqs(P)
    A = np.abs(P)
    eps = np.finfo(float).eps
    margin = err + 4 * (N + 8) * eps * A.sum(-1) + N * np.finfo(float).tiny
    return margin, (A * (2 * np.pi * j) ** 2).sum(-1) + (2 * np.pi * (N // 2)) ** 2 * err


def _waves(N: int, m: np.ndarray, K: int) -> np.ndarray:
    """The factors e^{2 pi i j m / K} for j = -(N // 2) .. N // 2 on a last
    axis, from the exact phases (j m mod K) / K, K a power of two."""
    return np.exp(2j * np.pi * ((np.arange(N) - N // 2) * m % K / K))


def _sample_waves(N: int) -> np.ndarray:
    """The factors of the first level's samples s = m / M, m = 0 .. M
    (M = _ROW_SAMPLES, the first again at the end): (N, M + 1), the values
    of :func:`_waves` gathered from the M roots of unity at the phases
    (j m mod M) / M."""
    M = _ROW_SAMPLES
    return _SAMPLE_ROOTS[np.multiply.outer(np.arange(N) - N // 2, np.arange(M + 1)) % M]


# --------------------------------------------------------------------------
# profiles
# --------------------------------------------------------------------------

def _profile(c: np.ndarray):
    """(F, tol) for f(theta) = sum_m c[m + b] e^{2 pi i m theta}, |m| <= b:
    the rows of F are f, X1 = (d - f') f'', Z1 = (d - 2 f') X1 with
    d = d/dtheta (the obstruction's audit, :mod:`umbilic.torussearch`) and
    p (module docstring) in theta, F[:, m + 3b] for |m| <= 3b.  p is
    :func:`_p_row` of the derivatives f', f'', f'', f''' and f'''' (D^2 u
    and D Dbar u are both multiples of f''), and tol, its tol, bounds the
    rounding of p's value from F[3].
    The rows are summed into zeroed arrays in the order of the formulas."""
    b = len(c) // 2
    m = np.arange(-b, b + 1)
    d1, d2, d3, d4 = (c * (2j * np.pi * m) ** e for e in (1, 2, 3, 4))
    F = np.zeros((4, 6 * b + 1), dtype=complex)
    F[0, 2 * b:4 * b + 1] = c
    X1 = np.zeros(4 * b + 1, dtype=complex)
    X1[b:3 * b + 1] = d3
    X1 -= _convolve(d1, d2)
    F[1, b:5 * b + 1] = X1
    F[2, b:5 * b + 1] = X1 * (2j * np.pi * np.arange(-2 * b, 2 * b + 1))
    F[2] -= 2 * _convolve(d1, X1)
    F[3], tol = _p_row(d1, d2, d2, d3, d4)
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
