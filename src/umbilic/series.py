"""Truncated bivariate formal power series in (z, zbar).

A :class:`PowerSeries2` stores complex coefficients c[(k, l)] of the
monomials z^k zbar^l for k + l <= max_degree.  ``max_degree`` means
"coefficients are complete through this total degree": arithmetic keeps
the minimum of the operands' degrees, formal differentiation lowers it by
one.  A series known to be an exact polynomial can be lifted to a higher
degree with :meth:`PowerSeries2.lift` (the missing coefficients are zero
by assumption, not by truncation).

The reality tag asserts the Hermitian symmetry c[(l, k)] = conj(c[(k, l)]),
i.e. the series takes real values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PowerSeries2", "geometric_inverse"]

_SYM_TOL = 1e-12


class PowerSeries2:
    def __init__(self, max_degree: int, coeffs: dict | None = None, real_tag: bool = False):
        max_degree = int(max_degree)
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        clean: dict[tuple[int, int], complex] = {}
        for (k, l), c in (coeffs or {}).items():
            k, l = int(k), int(l)
            if k < 0 or l < 0:
                raise ValueError(f"negative exponent in coefficient ({k},{l})")
            if k + l > max_degree:
                raise ValueError(f"coefficient ({k},{l}) exceeds max_degree {max_degree}")
            c = complex(c)
            if c != 0:
                clean[(k, l)] = clean.get((k, l), 0) + c
        self.max_degree = max_degree
        self.coeffs = {kl: c for kl, c in clean.items() if c != 0}
        self.real_tag = bool(real_tag)
        if self.real_tag:
            self._check_hermitian()

    def _check_hermitian(self):
        scale = max(1.0, self.max_coeff())
        for (k, l), c in self.coeffs.items():
            cc = self.coeffs.get((l, k), 0.0)
            if abs(np.conj(cc) - c) > _SYM_TOL * scale:
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

    def coeff(self, k: int, l: int) -> complex:
        return self.coeffs.get((k, l), 0.0 + 0.0j)

    def max_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def valuation(self) -> int:
        """Smallest total degree with a nonzero coefficient; max_degree + 1
        for the zero series."""
        if not self.coeffs:
            return self.max_degree + 1
        return min(k + l for (k, l) in self.coeffs)

    def homogeneous_part(self, m: int) -> "PowerSeries2":
        part = {kl: c for kl, c in self.coeffs.items() if kl[0] + kl[1] == m}
        return PowerSeries2(max(m, 0), part, real_tag=False)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())

    # -- degree bookkeeping ------------------------------------------------------

    def truncate(self, max_degree: int) -> "PowerSeries2":
        if max_degree >= self.max_degree:
            return PowerSeries2(self.max_degree, self.coeffs, real_tag=self.real_tag)
        kept = {kl: c for kl, c in self.coeffs.items() if kl[0] + kl[1] <= max_degree}
        return PowerSeries2(max_degree, kept, real_tag=self.real_tag)

    def lift(self, max_degree: int) -> "PowerSeries2":
        """Declare the series exact through a higher degree (i.e. an exact
        polynomial whose missing coefficients are genuinely zero)."""
        if max_degree < self.max_degree:
            raise ValueError("lift cannot lower the degree; use truncate")
        return PowerSeries2(max_degree, self.coeffs, real_tag=self.real_tag)

    # -- arithmetic ----------------------------------------------------------------

    def add(self, other: "PowerSeries2") -> "PowerSeries2":
        out_deg = min(self.max_degree, other.max_degree)
        coeffs = dict(self.coeffs)
        for kl, c in other.coeffs.items():
            coeffs[kl] = coeffs.get(kl, 0.0) + c
        coeffs = {kl: c for kl, c in coeffs.items() if kl[0] + kl[1] <= out_deg}
        return PowerSeries2(out_deg, coeffs, real_tag=self.real_tag and other.real_tag)

    def scale(self, c: complex) -> "PowerSeries2":
        c = complex(c)
        return PowerSeries2(self.max_degree,
                            {kl: v * c for kl, v in self.coeffs.items()},
                            real_tag=self.real_tag and c.imag == 0.0)

    def mul(self, other: "PowerSeries2", out_degree: int | None = None) -> "PowerSeries2":
        if out_degree is None:
            out_degree = min(self.max_degree, other.max_degree)
        coeffs: dict[tuple[int, int], complex] = {}
        for (k1, l1), c1 in self.coeffs.items():
            for (k2, l2), c2 in other.coeffs.items():
                k, l = k1 + k2, l1 + l2
                if k + l <= out_degree:
                    coeffs[(k, l)] = coeffs.get((k, l), 0.0) + c1 * c2
        return PowerSeries2(out_degree, coeffs, real_tag=self.real_tag and other.real_tag)

    def conj(self) -> "PowerSeries2":
        return PowerSeries2(self.max_degree,
                            {(l, k): np.conj(c) for (k, l), c in self.coeffs.items()},
                            real_tag=self.real_tag)

    def derivative(self, direction: str) -> "PowerSeries2":
        """Exact formal D or Dbar; max_degree drops by one and the reality
        tag is dropped (the derivative of a real series is not real)."""
        if direction not in ("D", "Dbar"):
            raise ValueError(f"direction must be 'D' or 'Dbar', got {direction!r}")
        out_deg = max(self.max_degree - 1, 0)
        coeffs: dict[tuple[int, int], complex] = {}
        for (k, l), c in self.coeffs.items():
            if direction == "D":
                if k >= 1 and (k - 1) + l <= out_deg:
                    coeffs[(k - 1, l)] = coeffs.get((k - 1, l), 0.0) + k * c
            else:
                if l >= 1 and k + (l - 1) <= out_deg:
                    coeffs[(k, l - 1)] = coeffs.get((k, l - 1), 0.0) + l * c
        return PowerSeries2(out_deg, coeffs, real_tag=False)

    def eval(self, z: complex) -> complex:
        """Horner evaluation at (z, conj(z)): inner Horner in zbar for each
        power of z, outer Horner in z."""
        z = complex(z)
        zb = np.conj(z)
        if not self.coeffs:
            return 0.0 + 0.0j
        by_k: dict[int, dict[int, complex]] = {}
        for (k, l), c in self.coeffs.items():
            by_k.setdefault(k, {})[l] = c
        total = 0.0 + 0.0j
        for k in range(max(by_k), -1, -1):
            row = by_k.get(k)
            inner = 0.0 + 0.0j
            if row:
                for l in range(max(row), -1, -1):
                    inner = inner * zb + row.get(l, 0.0)
            total = total * z + inner
        return complex(total)

    # -- operators ------------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PowerSeries2):
            return self.add(other)
        return self.add(PowerSeries2.constant(other, self.max_degree))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, PowerSeries2):
            return self.add(other.scale(-1.0))
        return self.add(PowerSeries2.constant(-complex(other), self.max_degree))

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, other):
        if isinstance(other, PowerSeries2):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __repr__(self):
        terms = ", ".join(f"({k},{l}): {c:.6g}" for (k, l), c in sorted(self.coeffs.items()))
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
