"""Truncated bivariate formal power series in (z, zbar).

A :class:`PowerSeries2` of degree d stores one dense (d+1) x (d+1)
complex array ``c``: entry ``c[k, l]`` is the coefficient of the monomial
z^k zbar^l, and every entry with k + l > d is zero, so the coefficients
fill the upper-left triangle and the degree-m homogeneous part is the
antidiagonal k + l = m.  ``max_degree`` means "coefficients are complete
through this total degree": arithmetic keeps the minimum of the operands'
degrees, formal differentiation lowers it by one.  A series known to be an
exact polynomial can be lifted to a higher degree with
:meth:`PowerSeries2.lift` (the missing coefficients are zero by
assumption, not by truncation).

The reality tag asserts the Hermitian symmetry c[l, k] = conj(c[k, l]),
i.e. c equals its conjugate transpose and the series takes real values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PowerSeries2", "geometric_inverse"]

_SYM_TOL = 1e-12


def _beyond(d: int) -> np.ndarray:
    """Mask of the entries k + l > d of a (d+1) x (d+1) array."""
    r = np.arange(d + 1)
    return np.add.outer(r, r) > d


def _fit(c: np.ndarray, d: int) -> np.ndarray:
    """c cropped or zero-padded to (d+1) x (d+1), with the entries of total
    degree above d set to zero."""
    out = np.zeros((d + 1, d + 1), complex)
    n = min(len(c), d + 1)
    out[:n, :n] = c[:n, :n]
    out[_beyond(d)] = 0.0
    return out


def _dense(coeffs: dict, d: int) -> np.ndarray:
    """The (d+1) x (d+1) array of a {(k, l): coefficient} dict."""
    c = np.zeros((d + 1, d + 1), complex)
    k, l = np.array(list(coeffs)).reshape(-1, 2).T
    bad = (k < 0) | (l < 0) | (k + l > d)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"coefficient ({k[i]},{l[i]}) lies outside total degrees 0..{d}")
    c[k.astype(int), l.astype(int)] = list(coeffs.values())
    return c


class PowerSeries2:
    def __init__(self, max_degree: int, coeffs: dict | np.ndarray | None = None,
                 real_tag: bool = False):
        """coeffs is a {(k, l): coefficient} dict or the dense array itself."""
        max_degree = int(max_degree)
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if isinstance(coeffs, np.ndarray):
            c = coeffs.astype(complex, copy=False)
            if c.shape != (max_degree + 1,) * 2 or np.any(c[_beyond(max_degree)]):
                raise ValueError(f"coefficient array must be {max_degree + 1} x "
                                 f"{max_degree + 1} and vanish beyond degree {max_degree}")
        else:
            c = _dense(coeffs or {}, max_degree)
        self.max_degree = max_degree
        self.c = c
        self.real_tag = bool(real_tag)
        if self.real_tag:
            self._check_hermitian()

    def _check_hermitian(self):
        scale = max(1.0, self.max_coeff())
        bad = np.abs(self.c - self.c.T.conj()) > _SYM_TOL * scale
        if bad.any():
            k, l = np.argwhere(bad)[0]
            raise ValueError(
                f"real_tag series violates Hermitian symmetry at ({k},{l})")

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, max_degree: int) -> "PowerSeries2":
        return cls(max_degree, {}, real_tag=True)

    @classmethod
    def constant(cls, c: complex, max_degree: int) -> "PowerSeries2":
        c = complex(c)
        return cls(max_degree, {(0, 0): c}, real_tag=(c.imag == 0.0))

    # -- access ---------------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients as a {(k, l): complex} dict (a copy)."""
        k, l = np.nonzero(self.c)
        return {(int(a), int(b)): complex(self.c[a, b]) for a, b in zip(k, l)}

    def coeff(self, k: int, l: int) -> complex:
        if 0 <= k <= self.max_degree and 0 <= l <= self.max_degree:
            return complex(self.c[k, l])
        return 0.0 + 0.0j

    def max_coeff(self) -> float:
        return float(np.max(np.abs(self.c)))

    def valuation(self) -> int:
        """Smallest total degree with a nonzero coefficient; max_degree + 1
        for the zero series."""
        k, l = np.nonzero(self.c)
        return int(np.min(k + l)) if k.size else self.max_degree + 1

    def is_zero(self) -> bool:
        return not self.c.any()

    # -- degree bookkeeping ------------------------------------------------------

    def truncate(self, max_degree: int) -> "PowerSeries2":
        max_degree = min(max_degree, self.max_degree)
        return PowerSeries2(max_degree, _fit(self.c, max_degree), real_tag=self.real_tag)

    def lift(self, max_degree: int) -> "PowerSeries2":
        """Declare the series exact through a higher degree (i.e. an exact
        polynomial whose missing coefficients are genuinely zero)."""
        if max_degree < self.max_degree:
            raise ValueError("lift cannot lower the degree; use truncate")
        return PowerSeries2(max_degree, _fit(self.c, max_degree), real_tag=self.real_tag)

    # -- arithmetic ----------------------------------------------------------------

    def add(self, other: "PowerSeries2") -> "PowerSeries2":
        d = min(self.max_degree, other.max_degree)
        return PowerSeries2(d, _fit(self.c, d) + _fit(other.c, d),
                            real_tag=self.real_tag and other.real_tag)

    def scale(self, c: complex) -> "PowerSeries2":
        c = complex(c)
        return PowerSeries2(self.max_degree, self.c * c,
                            real_tag=self.real_tag and c.imag == 0.0)

    def mul(self, other: "PowerSeries2", out_degree: int | None = None) -> "PowerSeries2":
        """Truncated 2-D convolution, computed as one 1-D convolution: with
        the rows padded to width w = 2d + 1, z^k zbar^l sits at k w + l, and
        a product's zbar power (at most 2d) never spills into the next row."""
        d = min(self.max_degree, other.max_degree) if out_degree is None else out_degree
        w = 2 * d + 1
        a, b = (np.pad(_fit(s.c, d), ((0, 0), (0, d))).ravel() for s in (self, other))
        prod = np.convolve(a, b)[:(d + 1) * w].reshape(d + 1, w)
        return PowerSeries2(d, _fit(prod, d), real_tag=self.real_tag and other.real_tag)

    def derivative(self, direction: str) -> "PowerSeries2":
        """Exact formal D or Dbar; max_degree drops by one and the reality
        tag is dropped (the derivative of a real series is not real)."""
        if direction not in ("D", "Dbar"):
            raise ValueError(f"direction must be 'D' or 'Dbar', got {direction!r}")
        d = self.max_degree
        if d == 0:
            return PowerSeries2(0)
        powers = np.arange(1, d + 1)
        if direction == "D":
            out = powers[:, None] * self.c[1:, :d]
        else:
            out = self.c[:d, 1:] * powers
        return PowerSeries2(d - 1, out)

    def eval(self, z: complex) -> complex:
        """The polynomial at (z, conj(z)): the powers z^k, k <= d, and their
        conjugates contracted against c, sum_kl z^k c[k, l] conj(z)^l."""
        powers = complex(z) ** np.arange(self.max_degree + 1)
        return complex(powers @ self.c @ np.conj(powers))

    def __repr__(self):
        terms = ", ".join(f"({k},{l}): {self.c[k, l]:.6g}" for k, l in zip(*np.nonzero(self.c)))
        return f"PowerSeries2(deg<={self.max_degree}, {{{terms}}})"


def geometric_inverse(e: PowerSeries2, out_degree: int) -> PowerSeries2:
    """Inverse of (1 + e) as sum_k (-e)^k, valid when e has positive
    valuation; exact at every retained order, no floating division of
    series."""
    if e.valuation() <= 0:
        raise ValueError("geometric_inverse needs a series with positive valuation")
    if e.max_degree < out_degree:
        raise ValueError("geometric_inverse needs e complete through out_degree; "
                         "lift exact polynomials first")
    out = PowerSeries2.constant(1.0, out_degree)
    neg_e = e.scale(-1.0).truncate(out_degree)
    term = PowerSeries2.constant(1.0, out_degree)
    steps = out_degree // max(e.valuation(), 1)
    for _ in range(steps):
        term = term.mul(neg_e, out_degree=out_degree)
        if term.is_zero():
            break
        out = out.add(term)
    return out
