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
selection, which sorts only a prefix.  Row windings from companion roots
(:func:`row_windings`) are the reference for the objective's chord-tube
windings, which sample each row.  The term-by-term product of
coefficient dicts is the reference for the dense series convolution.  The
eager spectral chain (:class:`EagerField`: full n x n spectra, full-grid
derivative multipliers, samples formed at every step, bands found by
scanning the whole spectrum) is the bitwise reference for the library's
spectrum-first fields and their centred band blocks.  Periodic fields
from a function or from a mode dictionary are sampled directly, the latter
by summing exponentials, so they are independent of the library's
transforms.  The 2-D obstruction chain is the reference for the
symmetry audit's one-dimensional psi: the same reduction taken on the
sampled field along the transverse direction, with the library's
derivatives and products.  The profile assembled from zero-padded terms is
the bitwise reference for the obstruction's, which sums into zeroed arrays.  FITPACK's interpolating bicubic spline
(``RectBivariateSpline``, s = 0) is the reference for the chart grid's
numpy spline, and scipy's adaptive Nelder-Mead (``minimize``) the one for
the search's own.  :func:`direct_r` is the referee for r = Pu itself: the
P form of a trigonometric potential at any point by direct mode sums, with
no grid, transform or field class.  The spherical screen through two chart
derivatives and complex exponentials over the whole square
(:func:`spherical_screen`) is the reference for the screen's real stencil
passes and real exponentials on the disk.  The seeded configs of the CLI's
exit-contract fuzz (:func:`fuzz_jobs`) live here too, so that the fuzz
tests and ``tools/results_diff.py`` run the same ones.
"""

import importlib.util
from pathlib import Path

import numpy as np
from scipy.fft import next_fast_len
from scipy.interpolate import RectBivariateSpline
from scipy.optimize import minimize

from umbilic.field import PeriodicField, TorusLattice, product
from umbilic.index import SPHERE_HARMONICS


def periodic_from_function(lattice: TorusLattice, n: int, fn,
                           real_tag: bool = False) -> PeriodicField:
    """Sample fn(s, t) on the n x n lattice grid; fn receives meshgrid arrays."""
    s = np.arange(n) / n
    S, T = np.meshgrid(s, s, indexing="ij")
    return PeriodicField(lattice, np.asarray(fn(S, T), dtype=complex), real_tag=real_tag)


def periodic_from_modes(lattice: TorusLattice, n: int, modes: dict,
                        real_tag: bool | None = None) -> PeriodicField:
    """sum_{(j,k)} c_{jk} exp(2 pi i (j s + k t)) on the n x n grid, summed
    as exponentials; real-tagged by default when the modes are Hermitian."""
    s = np.arange(n) / n
    S, T = np.meshgrid(s, s, indexing="ij")
    vals = np.zeros((n, n), dtype=complex)
    for (j, k), c in sorted(modes.items()):
        if abs(j) >= n // 2 or abs(k) >= n // 2:
            raise ValueError(f"mode ({j},{k}) does not fit on an n={n} grid")
        vals += complex(c) * np.exp(2j * np.pi * (j * S + k * T))
    if real_tag is None:
        real_tag = modes_are_hermitian(modes)
    return PeriodicField(lattice, vals, real_tag=real_tag)


def modes_are_hermitian(modes: dict, tol: float = 1e-12) -> bool:
    for (j, k), c in modes.items():
        cc = modes.get((-j, -k))
        if cc is None or abs(np.conj(complex(cc)) - complex(c)) > tol * max(1.0, abs(c)):
            return False
    return True


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
    whatever the operands' bands.  Operands are read through the spectrum
    of their samples (:func:`sampled_spectrum`), in the same order of
    operations as the library's full-band lift."""
    n = terms[0][1][0].n
    m = 2 * n
    g = np.arange(-(n // 2), n // 2 + 1) % m
    acc = None
    for c, fs in terms:
        term = None
        for f in fs:
            P = np.zeros((m, m), dtype=complex)
            P[np.ix_(g, g)] = _split_nyquist(np.fft.fftshift(sampled_spectrum(f)) / (n * n))
            x = np.fft.ifft2(P, norm="forward")
            term = np.multiply(x, c) if term is None else term * x
        acc = term if acc is None else acc + term
    F = np.fft.fft2(acc, norm="forward")
    return np.fft.ifft2(np.fft.ifftshift(_fold_nyquist(F[np.ix_(g, g)])) * (n * n))


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
    f = periodic_from_modes(lattice, n, modes)
    return f.scale(amplitude / f.sup_norm()).real_part()


def benchmark_pool(workload: str) -> dict:
    """{job id: config} of a perfbench workload's pool, sorted by job id."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return dict(sorted(workloads.pool(workload).items()))


# entries of the numerical fuzz: zero, subnormal, tiny, moderate and
# near-overflow magnitudes of both signs
FUZZ_NUMBERS = [0.0] + [sign * v for v in (1e-320, 1e-300, 1e-160, 1e-12, 0.5, 1.0, 3.0, 30.0,
                                           300.0, 1e8, 1e150, 1e300) for sign in (1.0, -1.0)]
FUZZ_OPERATIONS = ("obstruction", "search", "invariant", "umbilics", "loewner")


def numeric_fuzz_config(rng, op):
    """A config of operation op that parses but whose numbers come from
    FUZZ_NUMBERS, on a 64 x 64 torus grid."""
    def x():
        return FUZZ_NUMBERS[rng.integers(len(FUZZ_NUMBERS))]

    def pair():
        return [x(), x()]

    cfg = {"surface": {"kind": "torus", "omega": pair()}, "metric": {"builtin": "constant"},
           "numeric": {"grid_n": 64}}
    if op == "obstruction":
        # modes on the line (0, k), which d/dx annihilates on every lattice
        cfg["metric"] = {"modes": {"0,1": pair(), "0,2": pair()}}
        cfg["obstruction"] = {"direction": [x(), 0.0] if rng.random() < 0.75 else pair()}
    elif op == "search":
        cfg["search"] = {"mode_budget": 1, "trials": 1, "evaluations": 3,
                         "coeff_bound": abs(x()) or 1.0}
    elif op == "loewner":
        cfg["loewner"] = {"g": {"coeffs": {"0,1": pair(), "2,1": pair(), "1,2": pair()}},
                          "order": 6, "normalization": {"f_diag": [x()], "phi_diag": [x()]}}
    else:
        cfg["metric"] = {"modes": {"1,0": pair(), "0,1": pair(), "1,1": pair()}}
    return cfg


def sphere_fuzz_config(rng):
    """A sphere config that parses but whose numbers come from FUZZ_NUMBERS:
    the degree is the integer part of one's magnitude (at least 1), and 0-3
    harmonics take their epsilons from it; grid_n 64."""
    def x():
        return FUZZ_NUMBERS[rng.integers(len(FUZZ_NUMBERS))]

    names = sorted(SPHERE_HARMONICS)
    perts = [{"harmonic": names[rng.integers(len(names))], "epsilon": x()}
             for _ in range(rng.integers(4))]
    return {"surface": {"kind": "sphere", "degree": int(abs(x())) or 1, "perturbations": perts},
            "metric": {"builtin": "fs"}, "numeric": {"grid_n": 64}}


def fuzz_jobs():
    """The seeded configs of the exit-contract fuzz, as (kind, operation,
    config): 200 "torus" ones (torus operations and ``loewner``) from seed
    0, the operations of FUZZ_OPERATIONS in turn, then 90 "sphere" ones
    from seed 1."""
    rng = np.random.default_rng(0)
    for i in range(200):
        op = FUZZ_OPERATIONS[i % len(FUZZ_OPERATIONS)]
        yield "torus", op, numeric_fuzz_config(rng, op)
    rng = np.random.default_rng(1)
    for i in range(90):
        yield "sphere", ("invariant", "umbilics", "ph-audit")[i % 3], sphere_fuzz_config(rng)


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


def direct_r(modes: dict, omega: complex, z) -> np.ndarray:
    """r = Pu at the points z, for u = sum c_jk e^{2 pi i (j s + k t)} with
    z = s + t omega: each derivative D^m Dbar^l u is a direct sum over the
    modes with the symbols D -> 2 pi i (j conj(omega) - k) / (conj(omega)
    - omega) and Dbar -> 2 pi i (k - omega j) / (conj(omega) - omega), and
    r = D^3 Dbar u - 3 (Du) D^2 Dbar u + 2 (Du)^2 D Dbar u - (D^2 u) D Dbar u."""
    (j, k), c = np.array(list(modes), dtype=float).T, np.array(list(modes.values()), dtype=complex)
    den = np.conj(omega) - omega
    d, db = 2j * np.pi * (j * np.conj(omega) - k) / den, 2j * np.pi * (k - omega * j) / den
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    t = z.imag / omega.imag
    terms = c * np.exp(2j * np.pi * (np.outer(z.real - t * omega.real, j) + np.outer(t, k)))

    def u(m, l):
        return terms @ (d ** m * db ** l)

    return u(3, 1) - 3 * u(1, 0) * u(2, 1) + 2 * u(1, 0) ** 2 * u(1, 1) - u(2, 0) * u(1, 1)


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


def profile_padded(u, convolve=np.convolve):
    """((j0, k0), F, tol) of the obstruction's profile, each row assembled
    from zero-padded terms by np.pad with the convolutions of convolve: the
    reference for :func:`torussearch._profile`, which sums into zeroed
    arrays."""
    j, k = max((jk for jk in u.modes if jk != (0, 0)), key=lambda jk: abs(u.modes[jk]))
    g = int(np.gcd(j, k))
    j0, k0 = (j // g, k // g) if k > 0 or (k == 0 and j > 0) else (-j // g, -k // g)
    b = u.mode_budget // max(abs(j0), abs(k0))
    m = np.arange(-b, b + 1)
    c = np.array([u.modes.get((i * j0, i * k0), 0.0) for i in m.tolist()], dtype=complex)
    c = (c + np.conj(c[::-1])) / 2
    d1, d2, d3, d4 = (c * (2j * np.pi * m) ** e for e in (1, 2, 3, 4))
    P = (np.pad(d4, 2 * b) - 3 * np.pad(convolve(d1, d3), b)
         + 2 * convolve(convolve(d1, d1), d2) - np.pad(convolve(d2, d2), b))
    X1 = np.pad(d3, b) - convolve(d1, d2)
    Z1 = np.pad(X1 * (2j * np.pi * np.arange(-2 * b, 2 * b + 1)), b) - 2 * convolve(d1, X1)
    n1, n2, n3, n4 = (float(np.abs(d).sum()) for d in (d1, d2, d3, d4))
    tol = 32 * (3 * b + 1) * np.finfo(float).eps * (n4 + 3 * n1 * n3 + 2 * n1 * n1 * n2 + n2 * n2)
    return (j0, k0), np.stack([np.pad(c, 2 * b), np.pad(X1, b), Z1, P]), tol


def obstruction_chain_2d(pot, Y, n: int):
    """(psi, Z) samples of the symmetry audit's chain on the n x n grid of
    pot: with Y' = i(c D - conj(c) Dbar), c = alpha + i beta, and
    w = D Dbar u, X = (Y' - Y'u) w and Z = (Y' - 2 Y'u) X, psi = e^{-2u} X."""
    c = complex(Y.alpha, Y.beta)

    def along(k, d, db):  # k D + conj(k) Dbar, given the D and Dbar derivatives
        return d.scale(k).add(db.scale(k.conjugate()))

    def yp(f):
        return along(1j * c, f.derivative("D"), f.derivative("Dbar"))

    field = pot.to_field(n)
    q, qb = field.derivative("D"), field.derivative("Dbar")
    ypu, w = along(1j * c, q, qb), qb.derivative("D")
    X = yp(w).add(product([(-1.0, (ypu, w))]))
    Z = yp(X).add(product([(-2.0, (ypu, X))]))
    X, Z = X.real_part(tol=1e-7), Z.real_part(tol=1e-7)
    return field.scale(-2.0).exp().values.real * X.values.real, Z.values.real


def refine_edge_depth_first(eval_line, v0, v1, floor, max_depth=12):
    """Depth-first reference for the library's level-synchronous edge
    refinement: one midpoint evaluation at a time, walking the edge left to
    right.  Returns ("ok", total phase increment), ("crossing", None) or
    ("step", message)."""
    step_limit, crossing_step = 0.5 * np.pi, 0.75 * np.pi
    min_len = 0.5 ** max_depth
    total = 0.0
    stack = [(0.0, 1.0, v0, v1)]
    while stack:
        pa, pb, va, vb = stack.pop()
        if min(abs(va), abs(vb)) <= floor:
            return "crossing", None
        step = float(np.pi - np.mod(np.pi - (np.angle(vb) - np.angle(va)), 2.0 * np.pi))
        if abs(step) < step_limit:
            total += step
            continue
        if pb - pa <= min_len:
            if abs(step) >= crossing_step:
                return "crossing", None
            return "step", f"edge phase step {step:.3f} unresolved at depth {max_depth}"
        pm = 0.5 * (pa + pb)
        vm = complex(eval_line(np.array([pm]))[0])
        stack.append((pm, pb, vm, vb))
        stack.append((pa, pm, va, vm))
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


def row_windings(E: np.ndarray, rows) -> np.ndarray:
    """The winding number about 0, along each row t = t0 of rows, s from 0
    to 1, of the trigonometric polynomial with the centred coefficients E
    (axis 0 is s, axis 1 is t; a stack of blocks alike), by the argument
    principle: the row is p(w) = sum_j c_j w^j with w = e^{2 pi i s},
    |j| <= L // 2, and its winding is the number of roots of the polynomial
    w^{L // 2} p(w) inside |w| < 1 (np.roots, the eigenvalues of its
    companion matrix), minus L // 2.  An int array (..., len(rows))."""
    L = E.shape[-1]
    k = np.arange(L) - L // 2
    out = np.empty((*E.shape[:-2], len(rows)), dtype=int)
    for member in np.ndindex(E.shape[:-2]):
        for q, t0 in enumerate(rows):
            c = E[member] @ np.exp(2j * np.pi * k * t0)
            out[(*member, q)] = int(np.sum(np.abs(np.roots(c[::-1])) < 1.0)) - L // 2
    return out


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


def sampled_spectrum(f) -> np.ndarray:
    """The one fft2 spectrum of the samples of f: the transform of the
    samples centred on their mean (of their real parts for a real tag),
    its bins below the denoise floor 16 n eps sup|f| zeroed and the
    samples' sum in the constant bin."""
    v, n = f.values, f.values.shape[0]
    c = v - complex(v.mean())
    C = np.fft.fft2(c.real if f.real_tag else c)
    C[np.abs(C) < 16.0 * n * np.finfo(float).eps * np.max(np.abs(v))] = 0.0
    C[0, 0] = v.sum()
    return C


class EagerField:
    """A field of the eager chain: samples formed at once (projected and
    checked like the library's for a real tag) and the full n x n fft2
    spectrum C the chain keeps, or None for a field built from samples."""

    def __init__(self, lattice, values, C=None, real_tag=False):
        self.values = PeriodicField(lattice, values, real_tag=real_tag).values
        self.lattice, self.C, self.real_tag, self.n = lattice, C, real_tag, self.values.shape[0]


def eager_field(lattice, C, real_tag=False) -> EagerField:
    """A field with spectrum C whose samples ifft2(C) exist at once."""
    return EagerField(lattice, np.fft.ifft2(C), C, real_tag)


def eager_samples(f) -> EagerField:
    """The eager twin of a library field built from samples."""
    return EagerField(f.lattice, f.values, None, f.real_tag)


def eager_potential(pot, n: int) -> EagerField:
    """The spectrum a trigonometric potential places, mode by mode on the
    n x n grid, each made Hermitian as (c_jk + conj(c_-j,-k)) / 2."""
    C = np.zeros((n, n), dtype=complex)
    for (j, k), c in sorted(pot.modes.items()):
        C[j % n, k % n] = (c + np.conj(pot.modes[(-j, -k)])) / 2 * n * n
    return eager_field(pot.lattice, C, True)


def eager_pointwise(f, op) -> EagerField:
    """A sample-built eager field: the library's sample arithmetic op
    (scale, exp, real_part, ...) applied to the samples of f."""
    g = op(PeriodicField(f.lattice, f.values, real_tag=f.real_tag))
    return EagerField(g.lattice, g.values, None, g.real_tag)


def eager_band(f) -> int:
    """Largest |k| with a nonzero bin of the kept spectrum, scanning all of
    it (n/2 without one)."""
    n = f.n
    if f.C is None:
        return n // 2
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
    nonzero = f.C != 0
    return int(max(k[nonzero.any(1)].max(initial=0), k[nonzero.any(0)].max(initial=0)))


def eager_derivative(f, direction: str, tail_tol=1e-6) -> EagerField:
    """Wirtinger derivative with both full n x n multipliers, of the kept
    spectrum or, for a field built from samples (C is None), of
    :func:`sampled_spectrum`, its constant bin zeroed."""
    n = f.n
    C = sampled_spectrum(f) if f.C is None else f.C.copy()
    C[0, 0] = 0.0
    if tail_tol is not None:
        k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        tail = np.maximum(k[:, None], k[None, :]) >= int(np.ceil(n / 3.0))
        power = np.abs(C) ** 2
        if power.sum() > 0.0 and power[tail].sum() / power.sum() > tail_tol:
            raise ValueError("under-resolved")
    mult = 2j * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    mult[n // 2] = 0.0
    omega = f.lattice.omega
    denom = np.conj(omega) - omega
    ds, dt = mult[:, None] / denom, mult[None, :] / denom
    M = (np.conj(omega) * ds - dt) if direction == "D" else (dt - omega * ds)
    return eager_field(f.lattice, C * M)


def eager_add(a, b) -> EagerField:
    C = a.C + b.C if a.C is not None and b.C is not None else None
    return EagerField(a.lattice, a.values + b.values, C, a.real_tag and b.real_tag)


def eager_product(terms) -> EagerField:
    """The band-sized lift of the library's product, one operand at a time
    and with the samples formed at once."""
    first = terms[0][1][0]
    n = first.n
    S = max(sum(eager_band(f) for f in fs) for _, fs in terms)
    K = min(S, n // 2)
    m = min(2 * n, next_fast_len(S + K + 1))
    acc = None
    for c, fs in terms:
        term = None
        for f in fs:
            h = eager_band(f)
            C = sampled_spectrum(f) if f.C is None else f.C
            g = np.arange(-h, h + 1)
            if 2 * h == n:
                block = _split_nyquist(np.fft.fftshift(C) / (n * n))
            else:
                block = C[np.ix_(g % n, g % n)] / (n * n)
            P = np.zeros((m, m), dtype=complex)
            P[np.ix_(g % m, g % m)] = block
            x = np.fft.ifft2(P, norm="forward")
            term = np.multiply(x, c) if term is None else term * x
        acc = term if acc is None else acc + term
    F = np.fft.fft2(acc, norm="forward")
    g = np.arange(-K, K + 1)
    G = F[np.ix_(g % m, g % m)]
    if 2 * K == n:
        G, g = _fold_nyquist(G), g[:-1]
    C = np.zeros((n, n), dtype=complex)
    C[np.ix_(g % n, g % n)] = G * (n * n)
    real = all(complex(c).imag == 0.0 and all(f.real_tag for f in fs) for c, fs in terms)
    return eager_field(first.lattice, C, real)


def eager_p_form(u) -> EagerField:
    """r = D^3 Dbar u - 3 (Du) D^2 Dbar u + 2 (Du)^2 D Dbar u - (D^2 u)(D Dbar u)
    on the eager chain, in the library's order of operations."""
    D = lambda f: eager_derivative(f, "D")
    du = D(u)
    d2u = D(du)
    ddbu = eager_derivative(du, "Dbar")
    d2dbu = D(ddbu)
    return eager_product([(-3.0, (du, d2dbu)), (2.0, (du, du, ddbu)),
                          (-1.0, (d2u, ddbu)), (1.0, (D(d2dbu),))])


def eager_divergence_form(u) -> EagerField:
    """r = (D - 2 Du)(D - Du) D Dbar u on the eager chain, in the library's
    order of operations."""
    D = lambda f: eager_derivative(f, "D")
    du = D(u)
    w = eager_derivative(du, "Dbar")
    X = eager_product([(-1.0, (du, w)), (1.0, (D(w),))])
    return eager_product([(-2.0, (du, X)), (1.0, (D(X),))])


def eager_gauss_curvature(u) -> EagerField:
    """K = -2 e^{-u} D Dbar u on the eager chain, in the library's order of
    operations."""
    ddbu = eager_derivative(eager_derivative(u, "D"), "Dbar")
    K = eager_product([(1.0, (eager_pointwise(u, lambda f: f.scale(-1.0).exp()), ddbu))])
    return eager_pointwise(K, lambda f: f.scale(-2.0).real_part(tol=1e-7))


def eager_covariant_hessian(f, phi) -> EagerField:
    """e^{-2 phi}(D^2 f - 2 (D phi)(D f)) on the eager chain, in the
    library's order of operations."""
    df = eager_derivative(f, "D")
    d2f = eager_derivative(df, "D")
    dphi = eager_derivative(phi, "D")
    twice = eager_pointwise(eager_product([(1.0, (dphi, df))]),
                            lambda g: g.scale(2.0).scale(-1.0))
    em2phi = eager_pointwise(phi, lambda g: g.scale(-2.0).exp())
    return eager_product([(1.0, (em2phi, eager_add(d2f, twice)))])


def fitpack_chart_spline(chart, x, y):
    """(f, df/dx, df/dy) at the points (x, y) of FITPACK's interpolating
    bicubic spline through the chart's samples, one spline per real and
    imaginary part: the reference for :meth:`ChartGrid.jet_at`'s spline."""
    axis = chart.axis()
    parts = [RectBivariateSpline(axis, axis, v, kx=3, ky=3, s=0)
             for v in (chart.values.real, chart.values.imag)]
    return tuple(parts[0].ev(x, y, dx=dx, dy=dy) + 1j * parts[1].ev(x, y, dx=dx, dy=dy)
                 for dx, dy in ((0, 0), (1, 0), (0, 1)))


def scipy_nelder_mead(func, x0, maxfev, xatol=1e-6, fatol=1e-12):
    """(min f, best x) of scipy's adaptive Nelder-Mead with the options the
    search uses: the reference for :func:`torussearch._nelder_mead`."""
    res = minimize(func, x0, method="Nelder-Mead",
                   options={"maxfev": maxfev, "maxiter": 10 ** 9, "xatol": xatol,
                            "fatol": fatol, "adaptive": True})
    return res.fun, res.x


def spherical_screen(u, r, tol=1e-6, region_radius=None):
    """(verdict, sup |K|, sup |K_{;zz}|) of the spherical screen through the
    field classes: D Dbar u = Dbar(D u) by two derivatives, e^{-u} and
    e^{-2u} complex on the whole grid, K = -2 e^{-u} D Dbar u and
    K_{;zz} = -2 e^{-2u} r, each sup over u.mask(region_radius)."""
    w = u.derivative("D").derivative("Dbar")
    K = 2.0 * np.abs(u.scale(-1.0).exp().values * w.values)
    kzz = 2.0 * np.abs(u.scale(-2.0).exp().values * r.values)
    region = u.mask(region_radius)
    ksup = float(np.max(K[region], initial=0.0))
    hsup = float(np.max(kzz[region], initial=0.0))
    return hsup <= tol * (1.0 + ksup), ksup, hsup
