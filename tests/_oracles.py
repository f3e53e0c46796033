"""Independent oracles shared across the test suite.

Everything here deliberately avoids the library's spectral machinery:
derivatives are 4th-order centered finite differences on the periodic grid,
products are plain sample products, and resampling places FFT coefficients
by hand.  These paths are independent (the first two also inaccurate),
which is what makes them useful checks.  The polynomial product on the
doubled grid is the reference for the library's band-sized lifts: it lifts
every operand to 2n whatever its band.  The depth-first edge
refinement is the reference for the library's level-synchronous one: the
same bisection rule, one midpoint evaluation at a time.  The full sorted
walk over every sample is the reference for the search objective's start
selection, which sorts only a prefix.  The term-by-term product of
coefficient dicts is the reference for the dense series convolution.
"""

import numpy as np
from scipy import fft as sfft

from umbilic.field import PeriodicField, TorusLattice


def fd_wirtinger(values: np.ndarray, omega: complex, direction: str) -> np.ndarray:
    """4th-order centered finite-difference Wirtinger derivative of periodic
    samples in lattice coordinates."""
    n = values.shape[0]
    h = 1.0 / n

    def dax(v, axis):
        return (-np.roll(v, -2, axis) + 8 * np.roll(v, -1, axis)
                - 8 * np.roll(v, 1, axis) + np.roll(v, 2, axis)) / (12 * h)

    ds = dax(values, 0)
    dt = dax(values, 1)
    denom = np.conj(omega) - omega
    if direction == "D":
        return (np.conj(omega) * ds - dt) / denom
    return (dt - omega * ds) / denom


def fd_cartan_r(values: np.ndarray, omega: complex) -> np.ndarray:
    """The invariant r = Pu by finite differences and plain products."""
    D = lambda v: fd_wirtinger(v, omega, "D")
    Db = lambda v: fd_wirtinger(v, omega, "Dbar")
    du = D(values)
    d2u = D(du)
    ddbu = Db(du)
    d2dbu = D(ddbu)
    d3dbu = D(d2dbu)
    return d3dbu - 3.0 * du * d2dbu + 2.0 * du * du * ddbu - d2u * ddbu


def fd_covariant_hessian(fv: np.ndarray, phiv: np.ndarray, omega: complex) -> np.ndarray:
    """e^{-2 phi}(D^2 f - 2 (D phi)(D f)) by finite differences."""
    D = lambda v: fd_wirtinger(v, omega, "D")
    return np.exp(-2.0 * phiv) * (D(D(fv)) - 2.0 * D(phiv) * D(fv))


def trig_resample(values: np.ndarray, m: int) -> np.ndarray:
    """Resample an n x n periodic grid to m x m through the trigonometric
    interpolant by placing its fft2 coefficients directly: frequencies
    -k..k with k = min(n, m) / 2 are kept, the Nyquist bin of a smaller
    source split evenly between +-n/2 and a larger source's +-m/2 folded
    onto the one Nyquist bin of the target.  Exact (up to rounding)
    whenever the retained band holds the full spectrum."""
    n = values.shape[0]
    k = min(n, m) // 2
    freqs = np.arange(-k, k + 1)
    weight = np.where((np.abs(freqs) == k) & (m >= n), 0.5, 1.0)
    C = np.fft.fft2(values)[np.ix_(freqs % n, freqs % n)] * np.outer(weight, weight)
    P = np.zeros((m, m), dtype=complex)
    np.add.at(P, np.ix_(freqs % m, freqs % m), C)
    return np.fft.ifft2(P) * (m * m) / (n * n)


def _split_nyquist(E: np.ndarray) -> np.ndarray:
    """Centered n x n coefficients -> (n+1) x (n+1), the -n/2 row and column
    split evenly between -n/2 and n/2 (axis 0 first)."""
    for axis in (0, 1):
        E = np.moveaxis(E, axis, 0)
        E = np.moveaxis(np.concatenate([0.5 * E[:1], E[1:], 0.5 * E[:1]]), 0, axis)
    return E


def _fold_nyquist(E: np.ndarray) -> np.ndarray:
    """Adjoint of _split_nyquist: (n+1) x (n+1) -> n x n, the n/2 row and
    column added onto -n/2 (axis 0 first)."""
    for axis in (0, 1):
        E = np.moveaxis(E, axis, 0)
        E = np.moveaxis(np.concatenate([E[:1] + E[-1:], E[1:-1]]), 0, axis)
    return E


def product_2n(terms) -> np.ndarray:
    """Samples of sum_k c_k f_k1 f_k2 ... with every operand lifted onto the
    2n grid, its Nyquist bins split, the monomials summed there, one
    transform back and the +-n/2 bins folded: the doubled-grid product
    whatever the operands' bands.  Operands are read through their spectra
    (kept or transformed), in the same order of operations as the library's
    full-band lift."""
    n = terms[0][1][0].n
    m = 2 * n
    g = np.arange(-(n // 2), n // 2 + 1) % m
    acc = None
    for c, fs in terms:
        term = None
        for f in fs:
            P = np.zeros((m, m), dtype=complex)
            P[np.ix_(g, g)] = _split_nyquist(sfft.fftshift(f._fft()) / (n * n))
            x = sfft.ifft2(P, norm="forward")
            term = np.multiply(x, c) if term is None else term * x
        acc = term if acc is None else acc + term
    F = sfft.fft2(acc, norm="forward")
    return sfft.ifft2(sfft.ifftshift(_fold_nyquist(F[np.ix_(g, g)])) * (n * n))


def random_band_limited(seed: int, lattice: TorusLattice, n: int = 128,
                        budget: int = 3, amplitude: float = 0.45) -> PeriodicField:
    """Seeded real trigonometric potential with sup norm exactly amplitude."""
    rng = np.random.default_rng(seed)
    modes = {}
    for j in range(-budget, budget + 1):
        for k in range(0, budget + 1):
            if k == 0 and j <= 0:
                continue
            c = rng.normal() + 1j * rng.normal()
            modes[(j, k)] = c
            modes[(-j, -k)] = np.conj(c)
    f = PeriodicField.from_modes(lattice, n, modes)
    return f.scale(amplitude / f.sup_norm()).real_part()


def random_half_modes(seed: int, budget: int = 2, scale: float = 1.0) -> dict:
    """Seeded half-space mode dictionary for TrigPotential construction."""
    rng = np.random.default_rng(seed)
    half = {}
    for j in range(-budget, budget + 1):
        for k in range(0, budget + 1):
            if k == 0 and j <= 0:
                continue
            half[(j, k)] = scale * (rng.normal() + 1j * rng.normal())
    return half


def one_directional(lattice: TorusLattice, jk, profile):
    """Potential depending only on xi = j s + k t together with the constant
    direction Y annihilating it: alpha j + beta (k - j Re omega)/Im omega = 0."""
    from umbilic.torussearch import SymmetryDirection, TrigPotential

    j0, k0 = jk
    half = {(m * j0, m * k0): c for m, c in profile.items()}
    pot = TrigPotential.from_half_modes(lattice, half)
    om = lattice.omega
    xi_y = (k0 - j0 * om.real) / om.imag
    if j0 == 0:
        Y = SymmetryDirection(1.0, 0.0)
    else:
        Y = SymmetryDirection(-xi_y / j0, 1.0)
    return pot, Y


class EdgeCrossing(Exception):
    """An edge runs through (or indistinguishably close to) the zero set;
    carries the parameter of the closest approach."""

    def __init__(self, p, modulus):
        self.p = float(p)
        self.modulus = float(modulus)
        super().__init__(f"crossing near p={p:.6f}, |f|={modulus:.3e}")


def refine_edge_depth_first(eval_line, v0, v1, floor, max_depth=12):
    """Depth-first reference for the library's level-synchronous edge
    refinement: one midpoint evaluation at a time, walking the edge left to
    right.  Returns ("ok", total phase increment), ("crossing", (p,
    modulus)) or ("step", message)."""
    step_limit, crossing_step = 0.5 * np.pi, 0.75 * np.pi
    min_len = 0.5 ** max_depth
    total = 0.0
    stack = [(0.0, 1.0, v0, v1)]
    try:
        while stack:
            pa, pb, va, vb = stack.pop()
            ma, mb = abs(va), abs(vb)
            if min(ma, mb) <= floor:
                raise EdgeCrossing(pa if ma <= mb else pb, min(ma, mb))
            step = float(np.pi - np.mod(np.pi - (np.angle(vb) - np.angle(va)), 2.0 * np.pi))
            if abs(step) < step_limit:
                total += step
                continue
            if pb - pa <= min_len:
                if abs(step) >= crossing_step:
                    raise EdgeCrossing(0.5 * (pa + pb), min(ma, mb))
                return "step", f"edge phase step {step:.3f} unresolved at depth {max_depth}"
            pm = 0.5 * (pa + pb)
            vm = complex(eval_line(np.array([pm]))[0])
            stack.append((pm, pb, vm, vb))
            stack.append((pa, pm, va, vm))
    except EdgeCrossing as xc:
        return "crossing", (xc.p, xc.modulus)
    return "ok", total


def lowest_separated_cells_full(A: np.ndarray, count: int, min_sep: int):
    """Reference start selection: walk all samples in stable order of value
    and keep each one at periodic Chebyshev distance >= min_sep from every
    earlier pick, until count are picked."""
    n = A.shape[0]
    order = np.argsort(A, axis=None, kind="stable")
    picked = []
    for flat in order:
        i, j = int(flat) // n, int(flat) % n
        ok = True
        for pi, pj in picked:
            di = min((i - pi) % n, (pi - i) % n)
            dj = min((j - pj) % n, (pj - j) % n)
            if max(di, dj) < min_sep:
                ok = False
                break
        if ok:
            picked.append((i, j))
            if len(picked) >= count:
                break
    return picked


def dict_series_mul(a: dict, b: dict, out_degree: int) -> dict:
    """The truncated product of two {(k, l): coefficient} series, one term
    pair at a time: the reference for the dense 2-D convolution."""
    out: dict = {}
    for (k1, l1), c1 in a.items():
        for (k2, l2), c2 in b.items():
            k, l = k1 + k2, l1 + l2
            if k + l <= out_degree:
                out[(k, l)] = out.get((k, l), 0.0) + c1 * c2
    return {kl: c for kl, c in out.items() if c != 0}
