"""Sampled function representations and exact Wirtinger differentiation.

Two grid-backed representations live here:

* :class:`PeriodicField` holds samples of a doubly periodic function on a
  torus lattice.  The samples are interpreted as a trigonometric
  interpolant, so differentiation (through the FFT) is exact for
  band-limited data and products are dealiased on a padded grid.  Fields
  made by derivatives, products and trigonometric potentials keep their
  spectrum for the next step, cut to its band: the largest |k| with a
  nonzero bin (n/2 for a field built from samples).
  Derivatives, products and off-grid evaluation are sized to it.  Such a
  field is spectrum first: unless it is real-tagged, its samples are
  computed on first read (see :class:`PeriodicField`), so a chain of
  derivatives and products transforms back only the samples someone reads.
* :class:`ChartGrid` holds samples on a square coordinate chart, is
  differentiated with 8th-order finite differences and is evaluated off
  the grid through its not-a-knot bicubic spline.

Resolution has one rule.  Every derivative of a periodic field checks its
spectral tail and raises UnderResolved when the modes with
max(|j|, |k|) >= n/3 carry more than 1e-6 of its energy.  Chart
derivatives run no check.  Products are truncated to n/2 unchecked, so
:func:`umbilic.cartan.cartan_r`, whose cubic products have band 3b for a
potential of band b, checks the potential's modes >= n/6 the same way.
Only samples are denoised (see _DENOISE_FACTOR): a potential's chain of
kept spectra is exact, and invariant under u -> u + C bit for bit.

Both share their pointwise sample arithmetic (sums, scalings, exp, log)
through one private base class; they differ only in derivatives,
products, evaluation and grid identity.  Zero location reads both
through the same grid facts: ``periodic``, ``chart_id`` ("torus" on a
torus), ``orientation``, ``cell_size`` ((1 + |omega|) / n on a torus,
which bounds a cell's sides and diagonals; the spacing on a chart), the
corners ``corner_st(i, j)`` and ``corner_z(i, j)``, ``distance(z0, zs)``
on the surface, and ``mask``, ``sup_norm`` and ``min_modulus`` over a
region: the whole torus, or the disk |z| <= region_radius of a chart.

:func:`product` forms a polynomial in fields at once; on a torus it lifts
every operand onto an m x m grid in one stacked transform, sums the
monomials there and truncates once.  With S the largest sum of operand
bands over the terms and K = min(S, n/2) the kept band,
m = min(2n, _next_fast_len(S + K + 1)): the padding rule m > S + K
(Orszag 1971), which is 2n for cubic terms of full-band fields.
Transforms go through ``numpy.fft``, and the chart spline is numpy as
well: importing this module loads no scipy.

Wirtinger derivatives are written ``D = d/dz`` and ``Dbar = d/dzbar``.
On the torus all computation happens in lattice coordinates (s, t) with
z = s + t*omega; the Wirtinger operators are recovered from

    D    = (conj(omega) d/ds - d/dt) / (conj(omega) - omega)
    Dbar = (d/dt - omega d/ds)       / (conj(omega) - omega)

which keeps the fundamental domain a unit square for every lattice.

The formal power series representation lives in :mod:`umbilic.series`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable

import numpy as np
from numpy import fft

from .errors import DomainError, UnderResolved

__all__ = ["TorusLattice", "PeriodicField", "ChartGrid", "product"]

_REAL_TOL = 1e-12
_LOG_FLOOR = 1e-300
_TAIL_TOL = 1e-6  # see PeriodicField.derivative

# The fft2 bins of a field's own samples below _DENOISE_FACTOR * n * eps * sup|f|
# are indistinguishable from sample rounding (an FFT spreads per-sample noise of
# size eps * sup into bins of size ~ n * eps * sup) and are zeroed before the
# samples are differentiated.  Without this, the fourth-order operator
# amplifies the rounding floor by ~1e10 and exact identities such as
# constant-shift invariance drown in noise.  A kept spectrum carries no sample
# rounding and is differentiated as it is.
_DENOISE_FACTOR = 16.0


# --------------------------------------------------------------------------
# lattice
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusLattice:
    """Lattice generated by 1 and omega (Im omega != 0).  The Wirtinger
    operators divide by conj(omega) - omega, so its reciprocal must be
    finite as well."""

    omega: complex

    def __post_init__(self):
        omega = complex(self.omega)
        object.__setattr__(self, "omega", omega)
        if (omega.imag == 0.0 or not np.isfinite(omega)
                or not np.isfinite(1.0 / (omega.conjugate() - omega))):
            raise ValueError("second lattice period must have Im(omega) != 0 and "
                             f"a finite 1 / (conj(omega) - omega), got {omega}")

    @property
    def orientation(self) -> int:
        """+1 if (s, t) -> z is orientation preserving, else -1."""
        return 1 if self.omega.imag > 0 else -1

    @property
    def cell_area(self) -> float:
        """Euclidean area of the fundamental domain."""
        return abs(self.omega.imag)

    def st_to_z(self, s, t):
        return np.asarray(s) + np.asarray(t) * self.omega

    def z_to_st(self, z):
        """Inverse of st_to_z; returns real (s, t), not reduced mod 1."""
        z = np.asarray(z, dtype=complex)
        t = z.imag / self.omega.imag
        s = z.real - t * self.omega.real
        return s, t

    def torus_distance(self, z0: complex, z1):
        """Distance between points of C modulo the lattice, from z0 to each
        of z1 (a point or an array)."""
        d = np.asarray(z1) - z0
        shifts = [m + n * self.omega for m in (-1, 0, 1) for n in (-1, 0, 1)]
        return np.min([np.hypot((d - sh).real, (d - sh).imag) for sh in shifts], axis=0)


# --------------------------------------------------------------------------
# spectral helpers (centred blocks of the fft2 spectrum of an n x n grid)
# --------------------------------------------------------------------------
#
# A block B holds fft2 bins in fft2 scale, frequency 0 at the centre index
# h = len(B) // 2: (2h+1) x (2h+1) for frequencies -h .. h with h < n/2,
# or at full band n x n for -n/2 .. n/2 - 1, the Nyquist bins whole.

def _freqs(B: np.ndarray) -> np.ndarray:
    """Frequencies of the rows (and columns) of the block B."""
    h = len(B) // 2
    return np.arange(-h, len(B) - h)


def _cut_to_band(B: np.ndarray) -> np.ndarray:
    """B cut to its band h, the largest |k| on either axis with a nonzero
    bin: (2h+1) x (2h+1), or B itself when h = n/2."""
    nonzero = B != 0
    h = int(np.abs(_freqs(B))[nonzero.any(1) | nonzero.any(0)].max(initial=0))
    c = len(B) // 2
    return B if 2 * h == len(B) else B[c - h:c + h + 1, c - h:c + h + 1]


def _transform2_in_place(transform, a: np.ndarray) -> np.ndarray:
    """numpy's fft2 or ifft2 (``transform`` is fft or ifft) with norm
    "forward" over the last two axes of a, written into a: the same 1-D
    passes in the same order, last axis first, so bit for bit the same.
    numpy's fft2 and ifft2 ignore their ``out`` argument and hold a
    transformed copy of a; the 1-D passes honour it."""
    for axis in (-1, -2):
        transform(a, axis=axis, norm="forward", out=a)
    return a


def _samples(B: np.ndarray, n: int) -> np.ndarray:
    """ifft2 of the block B zero-filled to n x n, bit for bit.  numpy's
    ifft2 transforms along the last axis first, and only the rows of B's
    frequencies are nonzero there, so only they take that pass."""
    g = _freqs(B) % n
    rows = np.zeros((len(B), n), dtype=complex)
    rows[:, g] = B
    C = np.zeros((n, n), dtype=complex)
    C[g] = fft.ifft(rows, axis=1)
    return fft.ifft(C, axis=0)


def _interpolant(B: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of the trigonometric interpolant on the frequencies of
    the block B: B / n^2, at full band on -n/2 .. n/2 with the Nyquist row
    and column split evenly between -n/2 and n/2 (axis 0 first).  The
    product with 1 / n^2 is bit for bit numpy's complex division by n^2, at
    a fraction of its cost."""
    if len(B) < n:
        return B * (1.0 / (n * n))
    E = np.empty((n + 1, n + 1), dtype=complex)
    np.multiply(B, 1.0 / (n * n), out=E[:n, :n])
    E[0, :n] *= 0.5
    E[n, :n] = E[0, :n]
    E[:, 0] *= 0.5
    E[:, n] = E[:, 0]
    return E


def _centred_fft2(values: np.ndarray) -> np.ndarray:
    """The fft2 of n x n samples as a full-band block.  It is the complex
    transform for real-tagged samples too: their imaginary parts are exact
    zeros, and numpy's fft2 of the real parts alone is the same bit for bit."""
    return fft.fftshift(fft.fft2(values))


def _next_fast_len(target: int) -> int:
    """The smallest m >= target with no prime factor above 11: the lengths
    pocketfft transforms fastest, as ``scipy.fft.next_fast_len`` gives them
    for complex input."""
    m = target
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _lattice_wirtinger(ds, dt, omega):
    """(D, Dbar) from d/ds and d/dt on the lattice of 1 and omega."""
    denom = np.conj(omega) - omega
    ds, dt = ds / denom, dt / denom
    return np.conj(omega) * ds - dt, dt - omega * ds


def _tail_energy_fraction(B: np.ndarray, n: int) -> float:
    """Energy fraction of the block B but its constant carried by modes
    with max(|j|, |k|) >= n/3, of which a band below n/3 has none."""
    if 3 * (len(B) // 2) < n:
        return 0.0
    k = np.abs(_freqs(B))
    tail = 3 * np.maximum(k[:, None], k[None, :]) >= n
    power = np.abs(B) ** 2
    power[len(B) // 2, len(B) // 2] = 0.0
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(power[tail].sum() / total)


# --------------------------------------------------------------------------
# sample arithmetic shared by both representations
# --------------------------------------------------------------------------

class _SampledField:
    """Square n x n complex samples with a reality tag, and the pointwise
    arithmetic that is the same on every grid.

    Subclasses supply the grid: ``_check_n`` validates the resolution,
    ``_grid_key`` identifies the grid for binary operations, and ``_like``
    builds a field on the same grid from new samples.  Derivatives, the
    polynomial product ``_product`` (see :func:`product`) and evaluation
    off the grid are theirs as well.
    """

    def __init__(self, values: np.ndarray, real_tag: bool = False):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("values must be a square n x n array")
        self._check_n(values.shape[0])
        if real_tag:
            scale = max(1.0, float(np.max(np.abs(values))))
            if float(np.max(np.abs(values.imag))) > _REAL_TOL * scale:
                raise ValueError("real_tag field has non-negligible imaginary part")
            values = values.real.astype(complex)
        self.values = values
        self.n = values.shape[0]
        self.real_tag = bool(real_tag)

    def real_part(self, tol: float = 1e-9):
        """Project onto the real part; the imaginary drift must be below tol
        relative to the largest sample modulus."""
        scale = max(1.0, float(np.max(np.abs(self.values))))
        drift = float(np.max(np.abs(self.values.imag)))
        if drift > tol * scale:
            raise ValueError(f"field is not real: imaginary drift {drift:.3e}")
        return self._like(self.values.real.astype(complex), True)

    # -- pointwise arithmetic -------------------------------------------------

    def add(self, other):
        self._check_same_grid(other)
        return self._like(self.values + other.values, self.real_tag and other.real_tag)

    def scale(self, c: complex):
        c = complex(c)
        return self._like(self.values * c, self.real_tag and c.imag == 0.0)

    def shift(self, c: complex):
        c = complex(c)
        return self._like(self.values + c, self.real_tag and c.imag == 0.0)

    def exp(self):
        with np.errstate(over="ignore"):
            values = np.exp(self.values)
        if not np.all(np.isfinite(values)):
            raise DomainError("exp overflows on these samples "
                              f"(max real part {float(np.max(self.values.real)):.6g})")
        return self._like(values, self.real_tag)

    def log(self):
        """Pointwise logarithm; every sample's modulus must exceed _LOG_FLOOR."""
        m = float(np.min(np.abs(self.values)))
        if m <= _LOG_FLOOR:
            raise DomainError(f"log requires samples bounded away from 0 "
                              f"(min modulus {m:.3e}, floor {_LOG_FLOOR:.3e})")
        if self.real_tag and np.all(self.values.real > 0.0):
            return self._like(np.log(self.values.real).astype(complex), True)
        return self._like(np.log(self.values), False)

    def _check_same_grid(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}, got {type(other).__name__}")
        if other._grid_key() != self._grid_key():
            raise ValueError(f"{type(self).__name__} operands must share one sample grid")


def product(terms):
    """sum_k c_k * f_k1 * f_k2 * ... for terms [(c_k, (f_k1, f_k2, ...)), ...],
    all fields on one grid.  A PeriodicField result is dealiased for
    monomials up to cubic: its modes are those of the exact polynomial.  It
    is lifted to a grid sized to the operands' bands (the padding rule
    m > S + K of :meth:`PeriodicField._product`) and keeps its spectrum,
    whose band is at most min(S, n/2).  A ChartGrid result is the sample
    polynomial."""
    first = terms[0][1][0]
    for _, fields in terms:
        for f in fields:
            first._check_same_grid(f)
    real = all(complex(c).imag == 0.0 and all(f.real_tag for f in fields)
               for c, fields in terms)
    return first._product(terms, real)


# --------------------------------------------------------------------------
# periodic field
# --------------------------------------------------------------------------

class PeriodicField(_SampledField):
    """Doubly periodic field sampled on the n x n lattice grid
    (s, t) in [0,1)^2 with z = s + t*omega.

    values[i, j] = f(s_i, t_j), s_i = i/n, t_j = j/n.  The samples carry a
    trigonometric-interpolant interpretation: every derivative is the exact
    derivative of the interpolant, and products of fields are formed on a
    padded grid and truncated back (see :meth:`_product`).

    A field returned by :meth:`derivative`, :func:`product` or
    ``TrigPotential.to_field`` keeps the spectrum its samples come from
    (``_block``, built by :meth:`_from_block`): the fft2 bins of
    frequencies -h .. h, centred and cut to the band h, the largest |k| on
    either axis with a nonzero bin.
    At h = n/2 the block is n x n, frequencies -n/2 .. n/2 - 1 with the
    Nyquist bins whole; the product lift and evaluation split them where
    they form the interpolant's coefficients.  The block sizes the
    derivative's arithmetic, the lift of a product and the rows of an
    evaluation.  A field built from samples counts as band n/2; the first
    product or evaluation that needs its spectrum stores the fft2 of the
    samples as its block, and its derivatives transform the centred samples
    (see :meth:`derivative`).

    When samples exist: fields built from samples, and real-tagged ones
    (``to_field``, products of real fields), have them at once, so the
    imaginary-drift check of the reality tag runs on construction.  Complex
    results of :meth:`derivative` and :func:`product` compute ``ifft2`` of
    their block, zero-filled to n x n, on the first read of ``values``: the
    samples are those of the eager computation, bit for bit, and are never
    formed if nobody reads them.  A sum of fields is a sample sum and keeps
    no spectrum; a polynomial in fields is one :func:`product`.
    """

    def __init__(self, lattice: TorusLattice, values: np.ndarray, real_tag: bool = False):
        super().__init__(values, real_tag)
        self.lattice = lattice
        self._block = None  # the centred spectrum (see the class docstring)
        self._kept = False  # the samples come from _block (else _block, once set, is their fft2)
        self._coeffs = None  # the interpolant's coefficients, formed by the first evaluation

    @property
    def values(self) -> np.ndarray:
        if self._values is None:  # a complex field kept as its spectrum
            self._values = _samples(self._block, self.n)
        return self._values

    @values.setter
    def values(self, values: np.ndarray):
        self._values = values

    @staticmethod
    def _check_n(n: int):
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid resolution must be even and >= 8, got {n}")

    def _grid_key(self):
        return self.n, self.lattice.omega

    def _like(self, values: np.ndarray, real_tag: bool) -> "PeriodicField":
        return PeriodicField(self.lattice, values, real_tag=real_tag)

    @classmethod
    def _from_block(cls, lattice: TorusLattice, n: int, B: np.ndarray,
                    real_tag: bool) -> "PeriodicField":
        """Field on the n x n grid that keeps the centred block B, cut to its
        band.  Its samples are ``ifft2`` of the block: a real-tagged field
        gets them at once, a complex one on first read."""
        B = _cut_to_band(B)
        if real_tag:
            out = cls(lattice, _samples(B, n), True)
        else:
            out = cls.__new__(cls)
            out.lattice, out.n, out.real_tag = lattice, n, False
            out._values, out._coeffs = None, None
        out._block, out._kept = B, True
        return out

    def _spectral_block(self) -> np.ndarray:
        """The block; a field built from samples stores the fft2 of its
        samples on first use."""
        if self._block is None:
            self._block = _centred_fft2(self.values)
        return self._block

    def _band(self) -> int:
        """The largest |k| on either axis with a nonzero bin of the kept
        spectrum; a field built from samples counts as n/2."""
        return self.n // 2 if self._block is None else len(self._block) // 2

    # -- construction ------------------------------------------------------

    @classmethod
    def constant(cls, lattice: TorusLattice, n: int, value: complex) -> "PeriodicField":
        value = complex(value)
        return cls(lattice, np.full((n, n), value, dtype=complex),
                   real_tag=(value.imag == 0.0))

    # -- grid facts (see the module docstring); a region is the whole grid --

    periodic = True
    chart_id = "torus"

    @property
    def orientation(self) -> int:
        return self.lattice.orientation

    @property
    def cell_size(self) -> float:
        return (1.0 + abs(self.lattice.omega)) / self.n

    def corner_st(self, i, j):
        return i / self.n, j / self.n

    def corner_z(self, i, j):
        """The point of corner (i, j) in the fundamental domain."""
        return self.lattice.st_to_z(i / self.n % 1.0, j / self.n % 1.0)

    def distance(self, z0: complex, zs):
        return self.lattice.torus_distance(z0, zs)

    def mask(self, region_radius: float | None = None) -> np.ndarray:
        return np.ones((self.n, self.n), dtype=bool)

    def sup_norm(self, region_radius: float | None = None) -> float:
        return float(np.max(np.abs(self.values)))

    def min_modulus(self, region_radius: float | None = None) -> float:
        return float(np.min(np.abs(self.values)))

    # -- calculus ----------------------------------------------------------

    def derivative(self, direction: str) -> "PeriodicField":
        """Exact Wirtinger derivative of the trigonometric interpolant;
        raises UnderResolved when the modes with max(|j|, |k|) >= n/3 carry
        more than _TAIL_TOL of the energy (a band below n/3 carries none).

        The ambiguous Nyquist bin is annihilated; fields passing the tail
        check carry no meaningful energy in it.  The multipliers act on the
        block of the field's band, and the result keeps its own block.  A
        kept spectrum (from ``to_field``, a derivative or a product) is read
        as it is, with its DC entry zeroed, and its samples are never read.
        A field built from samples transforms them, and after the tail
        check the bins below the sample rounding floor 16 n eps sup|f| are
        zeroed (see _DENOISE_FACTOR).
        """
        if direction not in ("D", "Dbar"):
            raise ValueError(f"direction must be 'D' or 'Dbar', got {direction!r}")
        n = self.n
        if self._kept:
            B = self._block.copy()
            B[len(B) // 2, len(B) // 2] = 0.0
        else:
            # Centering before the transform is a mathematical no-op (the DC
            # multiplier is zero) but keeps the FFT's internal rounding at the
            # oscillation scale rather than the mean scale, so derivatives are
            # invariant under constant shifts down to the denoise floor.
            B = _centred_fft2(self.values - complex(self.values.mean()))
        frac = _tail_energy_fraction(B, n)
        if frac > _TAIL_TOL:
            raise UnderResolved(
                f"spectral tail carries {frac:.3e} of total energy "
                f"(tolerance {_TAIL_TOL:.1e}) on an n={n} grid")
        if not self._kept:
            B[np.abs(B) < _DENOISE_FACTOR * n * np.finfo(float).eps * self.sup_norm()] = 0.0
        k = _freqs(B)
        mult = 2j * np.pi * k
        mult[k == -(n // 2)] = 0.0
        B *= _lattice_wirtinger(mult[:, None], mult[None, :], self.lattice.omega)[direction == "Dbar"]
        return self._from_block(self.lattice, n, B, False)

    def mul(self, other: "PeriodicField") -> "PeriodicField":
        """Dealiased product: the one-monomial case of :func:`product`."""
        return product([(1.0, (self, other))])

    def _product(self, terms, real_tag: bool) -> "PeriodicField":
        """The distinct operands' spectra are lifted onto an m x m grid by
        one stacked ifft2, the monomials are summed there in place, and one
        fft2 and a truncation give the result's block.

        The lift is sized to the bands (see :meth:`_band`).  With S the
        largest sum of operand bands over the terms, the product carries
        modes up to S, of which K = min(S, n/2) are kept, and
        m = min(2n, _next_fast_len(S + K + 1)): a mode up to S aliases past
        every kept one once m > S + K (Orszag 1971).  Full-band cubic terms
        lift to 2n, where only the Nyquist bins, which derivatives
        annihilate, take aliased content; full-band quadratic ones lift by
        about 3/2, and budget-3 potentials give the P form a 20 x 20 grid.
        The Nyquist bins are folded back only when K = n/2.  The k distinct
        operands are embedded into one k x m x m stack, which is lifted in
        place; the monomials then take one m x m term and the m x m sum,
        which is transformed in place: k + 2 arrays of m x m at most."""
        n = self.n
        operands = {id(f): f for _, fs in terms for f in fs}
        S = max(sum(f._band() for f in fs) for _, fs in terms)
        K = min(S, n // 2)
        m = min(2 * n, _next_fast_len(S + K + 1))
        stack = np.zeros((len(operands), m, m), dtype=complex)
        for f, C in zip(operands.values(), stack):  # each block in fft2 layout
            B = _interpolant(f._spectral_block(), n)
            g = _freqs(B) % m
            C[np.ix_(g, g)] = B
        lifted = dict(zip(operands, _transform2_in_place(fft.ifft, stack)))
        acc = None
        for c, fs in terms:
            term = np.multiply(lifted[id(fs[0])], c)
            for f in fs[1:]:
                term *= lifted[id(f)]
            acc = term if acc is None else np.add(acc, term, out=acc)
        del lifted, stack
        F = _transform2_in_place(fft.fft, acc)
        g = np.arange(-K, K + 1) % m
        G = F[np.ix_(g, g)]
        if 2 * K == n:  # the n/2 row and column fold onto -n/2 (axis 0 first)
            G[0] += G[n]
            G[:, 0] += G[:, n]
            G = G[:n, :n]
        return self._from_block(self.lattice, n, G * (n * n), real_tag)

    # -- evaluation off the grid --------------------------------------------

    def evaluate_st(self, s, t) -> np.ndarray:
        """Evaluate the trigonometric interpolant at arbitrary (s, t).

        Point p is the row sum of ``(Es @ E) * Et``: one matrix product per
        batch and no contraction planning, so a single point costs little
        more than a short batch.  At grid nodes the result equals ``values``
        to rounding, which is why zero-curve refinement takes the endpoint
        values of grid edges from the samples."""
        E, Es, Et = self._rows(s, t)
        return ((Es @ E) * Et).sum(1)

    def jet_at(self, z):
        """(f, D f, Dbar f) of the interpolant at complex points: the rows of
        :meth:`evaluate_st`, one more matrix product for d/ds and a weighted
        row sum for d/dt, mapped to D and Dbar as in :meth:`derivative`."""
        E, Es, Et = self._rows(*self.lattice.z_to_st(np.atleast_1d(np.asarray(z, dtype=complex))))
        k = 2j * np.pi * _freqs(E)
        rows = Es @ E
        fs, ft = (((Es * k) @ E) * Et).sum(1), (rows * Et * k).sum(1)
        return ((rows * Et).sum(1), *_lattice_wirtinger(fs, ft, self.lattice.omega))

    def _rows(self, s, t):
        """The interpolant's coefficients E on the field's band (see
        :func:`_interpolant`), formed on the first evaluation and kept, and
        the exponential rows at s and at t for the frequencies of E."""
        if self._coeffs is None:
            self._coeffs = _interpolant(self._spectral_block(), self.n)
        E = self._coeffs
        k = _freqs(E)
        return (E, *(np.exp(2j * np.pi * np.outer(np.atleast_1d(np.asarray(u, dtype=float)), k))
                     for u in (s, t)))

    def evaluate_at(self, z) -> np.ndarray:
        """Evaluate the interpolant at complex points (periodic in the lattice)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        s, t = self.lattice.z_to_st(z)
        return self.evaluate_st(s, t)


# --------------------------------------------------------------------------
# finite differences for charts (Fornberg weights, order 8)
# --------------------------------------------------------------------------

def fd_weights(x0: float, grid: Iterable[float], order: int) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at x0 on the
    given nodes (Fornberg's recursion)."""
    grid = np.asarray(list(grid), dtype=float)
    npts = len(grid)
    W = np.zeros((npts, order + 1))
    W[0, 0] = 1.0
    c1 = 1.0
    for i in range(1, npts):
        c2 = 1.0
        mn = min(i, order)
        for j in range(i):
            c3 = grid[i] - grid[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    W[i, k] = c1 * (k * W[i - 1, k - 1] - (grid[i - 1] - x0) * W[i - 1, k]) / c2
                W[i, 0] = -c1 * (grid[i - 1] - x0) * W[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                W[j, k] = ((grid[i] - x0) * W[j, k] - k * W[j, k - 1]) / c3
            W[j, 0] = (grid[i] - x0) * W[j, 0] / c3
        c1 = c2
    return W[:, order]


_FD_STENCIL = 9  # 9-point stencils: interior order 8
_FD_ROWS = np.array([fd_weights(p, range(_FD_STENCIL), 1) for p in range(_FD_STENCIL)])
_FD_HALF = _FD_STENCIL // 2


def _fd_axis0(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative along axis 0, 8th order, one-sided near the edges."""
    n = values.shape[0]
    if n < _FD_STENCIL:
        raise ValueError(f"need at least {_FD_STENCIL} samples per axis, got {n}")
    out = np.empty_like(values)
    c = _FD_ROWS[_FD_HALF]
    core = np.zeros_like(values[_FD_HALF:n - _FD_HALF])
    for o in range(_FD_STENCIL):
        w = c[o]
        if w != 0.0:
            core += w * values[o:n - _FD_STENCIL + 1 + o]
    out[_FD_HALF:n - _FD_HALF] = core
    for i in range(_FD_HALF):
        out[i] = np.tensordot(_FD_ROWS[i], values[:_FD_STENCIL], axes=(0, 0))
        out[n - 1 - i] = np.tensordot(_FD_ROWS[_FD_STENCIL - 1 - i],
                                      values[n - _FD_STENCIL:], axes=(0, 0))
    return out / h


# --------------------------------------------------------------------------
# chart grid
# --------------------------------------------------------------------------

class ChartGrid(_SampledField):
    """Field sampled on the square [-R, R]^2 of a coordinate chart.

    values[i, j] = f(x_i + i*y_j) with x, y = linspace(-R, R, n), a sample
    at every grid point; the mask marks the disk |z| <= R.  Derivatives are
    8th-order finite differences, one-sided within four layers of the
    square edge, so quantitative claims should be restricted to an
    interior region.
    """

    def __init__(self, chart_id: str, radius: float, values: np.ndarray,
                 real_tag: bool = False):
        super().__init__(values, real_tag)
        radius = float(radius)
        if radius <= 0.0:
            raise ValueError("chart radius must be positive")
        self.chart_id = str(chart_id)
        self.radius = radius
        self._bspline = None  # the spline's coefficients, formed by the first evaluation

    @staticmethod
    def _check_n(n: int):
        if n < _FD_STENCIL:
            raise ValueError(f"chart grid needs n >= {_FD_STENCIL}")

    def _grid_key(self):
        return self.n, self.radius

    def _like(self, values: np.ndarray, real_tag: bool) -> "ChartGrid":
        return ChartGrid(self.chart_id, self.radius, values, real_tag=real_tag)

    @classmethod
    def from_function(cls, chart_id: str, radius: float, n: int,
                      fn: Callable[[np.ndarray], np.ndarray],
                      real_tag: bool = False) -> "ChartGrid":
        """Sample fn(z) on the whole chart square."""
        x = np.linspace(-radius, radius, n)
        X, Y = np.meshgrid(x, x, indexing="ij")
        return cls(chart_id, radius, np.asarray(fn(X + 1j * Y), dtype=complex), real_tag=real_tag)

    # -- grid facts (see the module docstring) -------------------------------

    periodic = False
    orientation = 1

    @property
    def cell_size(self) -> float:
        """The grid spacing 2R / (n - 1): a cell's side (its diagonal is
        sqrt(2) times that)."""
        return 2.0 * self.radius / (self.n - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.n)

    def corner_st(self, i, j):
        return self.axis()[i], self.axis()[j]

    def corner_z(self, i, j):
        return self.axis()[i] + 1j * self.axis()[j]

    @staticmethod
    def distance(z0: complex, zs):
        d = np.asarray(zs) - z0
        return np.hypot(d.real, d.imag)

    def z_grid(self) -> np.ndarray:
        x = self.axis()
        X, Y = np.meshgrid(x, x, indexing="ij")
        return X + 1j * Y

    def mask(self, region_radius: float | None = None) -> np.ndarray:
        r = self.radius if region_radius is None else float(region_radius)
        return np.abs(self.z_grid()) <= r

    def sup_norm(self, region_radius: float | None = None) -> float:
        return float(np.max(np.abs(self.values[self.mask(region_radius)]), initial=0.0))

    def min_modulus(self, region_radius: float | None = None) -> float:
        m = self.mask(region_radius)
        return float(np.min(np.abs(self.values[m]))) if m.any() else 0.0

    # -- calculus -------------------------------------------------------------

    def derivative(self, direction: str) -> "ChartGrid":
        """Wirtinger derivative via D = (d/dx - i d/dy)/2.  Charts run no
        resolution check: their margin is the caller's choice of n and of
        the trusted region."""
        if direction not in ("D", "Dbar"):
            raise ValueError(f"direction must be 'D' or 'Dbar', got {direction!r}")
        h = self.cell_size
        fx = _fd_axis0(self.values, h)
        fy = _fd_axis0(self.values.T, h).T
        return self._like(_xy_wirtinger(fx, fy)[direction == "Dbar"], False)

    def mul(self, other: "ChartGrid") -> "ChartGrid":
        """Sample product: the one-monomial case of :func:`product`."""
        return product([(1.0, (self, other))])

    def _product(self, terms, real_tag: bool) -> "ChartGrid":
        """Plain sample polynomial."""
        values = sum(reduce(np.multiply, (f.values for f in fs), c) for c, fs in terms)
        return self._like(values, real_tag)

    # -- evaluation -------------------------------------------------------------

    def evaluate_at(self, z) -> np.ndarray:
        """The bicubic spline at complex points; points off the square are
        clamped to it, as FITPACK's ``ev`` does."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return self._spline(z.real, z.imag)[0]

    def evaluate_st(self, x, y) -> np.ndarray:
        return self._spline(np.atleast_1d(np.asarray(x, dtype=float)),
                            np.atleast_1d(np.asarray(y, dtype=float)))[0]

    def jet_at(self, z):
        """(f, D f, Dbar f) of the spline :meth:`evaluate_at` evaluates, from
        its partial derivatives with D = (d/dx - i d/dy)/2."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        f, fx, fy = self._spline(z.real, z.imag, jet=True)
        return (f, *_xy_wirtinger(fx, fy))

    def _spline(self, x, y, jet=False):
        """(f,) or, with jet, (f, df/dx, df/dy) of the not-a-knot bicubic
        spline through the samples (``RectBivariateSpline`` with kx = ky = 3
        and s = 0) at the points (x, y), clamped to the square.

        The spline is written in the uniform cubic B-spline basis of the
        nodes: its (n + 2) x (n + 2) coefficients C, which
        :func:`_spline_coefficients` solves for along y and then along x
        on the first evaluation, are all it keeps.  A point reads the 4 x 4
        block of C over its cell and contracts it with the basis at its
        offsets (tx, ty) in the cell: f = wx^T G wy."""
        n, R = self.n, self.radius
        if self._bspline is None:
            self._bspline = _spline_coefficients(_spline_coefficients(self.values.T).T)
        u = (np.minimum(np.maximum(np.array((x, y)), -R), R) + R) / self.cell_size
        i = np.minimum(np.maximum(u.astype(np.intp), 0), n - 2)
        powers = (u - i)[..., None] ** _CUBIC_POWERS
        wx, wy = powers @ _BSPLINE
        corners = i[..., None] + _CUBIC_POWERS
        G = self._bspline[corners[0][:, :, None], corners[1][:, None, :]]
        Gy = (G * wy[:, None, :]).sum(2)
        f = (Gy * wx).sum(1)
        if not jet:
            return (f,)
        dwx, dwy = powers[..., :3] @ _BSPLINE_SLOPES / self.cell_size
        return f, (Gy * dwx).sum(1), ((G * dwy[:, None, :]).sum(2) * wx).sum(1)


# The uniform cubic B-splines over a unit cell, rows the coefficients of 1,
# t, t^2 and t^3, columns the four B-splines that are nonzero on it (from
# the one centred a node left of the cell); and the coefficients of their
# derivatives in 1, t, t^2
_CUBIC_POWERS = np.arange(4)
_BSPLINE = np.array([[1.0, 4.0, 1.0, 0.0],
                     [-3.0, 0.0, 3.0, 0.0],
                     [3.0, -6.0, 3.0, 0.0],
                     [-1.0, 3.0, -3.0, 1.0]]) / 6.0
_BSPLINE_SLOPES = _BSPLINE[1:] * np.arange(1, 4)[:, None]


def _spline_coefficients(y: np.ndarray) -> np.ndarray:
    """The coefficients c[-1], ..., c[n] (rows 0 to n + 1) in the uniform
    cubic B-spline basis of the not-a-knot cubic splines through the columns
    of y, n samples per column on equispaced nodes: the interpolant
    FITPACK's ``regrid`` builds for k = 3 and s = 0, with a knot at every
    node but the second and the second to last.  The spline is
    sum_k c[k] B((x - x[0]) / h - k), with B the centred cubic B-spline.

    It interpolates, c[i-1] + 4 c[i] + c[i+1] = 6 y[i], and has no knot at
    node 1, which with the interpolation rows 0, 1 and 2 reads
    c[1] = (8 y[1] - y[0] - y[2]) / 6; node n - 2 mirrors it.  c[2], ...,
    c[n-3] then solve a tridiagonal system with diagonal 4 and off-diagonals
    1, one elimination sweep down the rows and one back up: O(n) row
    operations.  The interpolation rows 1, 0, n - 2 and n - 1 give the
    four end coefficients."""
    n = len(y)
    c = np.empty((n + 2,) + y.shape[1:], dtype=complex)
    np.multiply(y[1:-1], 6.0, out=c[2:-2])
    c[2] = (8.0 * y[1] - y[0] - y[2]) / 6.0
    c[-3] = (8.0 * y[-2] - y[-1] - y[-3]) / 6.0
    rows = list(c[3:-3])
    rows[0] -= c[2]
    rows[-1] -= c[-3]
    piv = [4.0]
    for k in range(1, len(rows)):
        rows[k] -= rows[k - 1] * (1.0 / piv[-1])
        piv.append(4.0 - 1.0 / piv[-1])
    rows[-1] *= 1.0 / piv[-1]
    for k in range(len(rows) - 2, -1, -1):
        rows[k] -= rows[k + 1]
        rows[k] *= 1.0 / piv[k]
    c[1] = 6.0 * y[1] - 4.0 * c[2] - c[3]
    c[0] = 6.0 * y[0] - 4.0 * c[1] - c[2]
    c[-2] = 6.0 * y[-2] - 4.0 * c[-3] - c[-4]
    c[-1] = 6.0 * y[-1] - 4.0 * c[-2] - c[-3]
    return c


def _xy_wirtinger(fx, fy):
    """(D, Dbar) = ((d/dx - i d/dy) / 2, (d/dx + i d/dy) / 2)."""
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)
