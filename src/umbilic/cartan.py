"""The invariant pipeline h -> u -> q -> r, curvature, and the rigid front end.

The scalar invariant r detects umbilical circles: the unit circle bundle of
a positively curved metric h is umbilical over exactly the zeros of r.  All
three formulas below are functions of the potential u = log(-D Dbar log h)
alone, so the pipeline converts metric inputs to u once and works with u.

The three equivalent forms of r = Pu:

  q form           r = D^2 Dbar q - 3 q D Dbar q + 2 q^2 Dbar q - (Dq)(Dbar q),
                   with q = Du;
  P form           r = D^3 Dbar u - 3 (Du) D^2 Dbar u + 2 (Du)^2 D Dbar u
                       - (D^2 u)(D Dbar u);
  divergence form  r = e^{2u} D( e^{-u} D( e^{-u} D Dbar u ) )
                     = (D - 2q)(D - q) D Dbar u,
                   by e^{ku} D e^{-ku} = D - k q.

All three annihilate constant-curvature potentials and satisfy the
curvature identity Pu = -(e^{2u}/2) K_{;zz} with K the Gauss curvature of
e^{u} |dz|^2 (see :func:`kzz_identity_residual`); those two facts pin the
mixed-derivative factor in the quadratic term, and the suite cross-checks
the forms against each other on every run that asks for it.

On sampled fields the q form and the P form are one code block (q = Du is
the first derivative the P form takes, and the rest is the same sequence of
derivatives): r is one dealiased polynomial product in those derivatives,
the linear term D^3 Dbar u a one-factor monomial placed last.  The two
forms agree bitwise, and the independent evidence of the cross-form check
comes from the divergence form.  It is computed as X = D w - q w and
r = D X - 2 q X with w = D Dbar u, each one product with its linear term
last, so no exponential is sampled: it differentiates products (D(q w),
D(q X)) where the P form multiplies derivatives, and its accuracy does not
depend on the amplitude of u.

Resolution follows the one rule of :mod:`umbilic.field`: on a torus every
derivative taken here checks the spectral tail of the field it
differentiates and raises UnderResolved, and on a chart none does.  The
P and divergence forms take cubic products of band 3b, kept below n/2, so
:func:`cartan_r` checks the modes of u with max(|j|, |k|) >= n/6 too.
"""

from __future__ import annotations

import numpy as np

from .errors import CrossFormMismatch, DomainError, NotPseudoconvex, UnderResolved
from .field import _TAIL_TOL, _exp, _fd_d_dbar, _tail_energy_fraction, product
from .series import PowerSeries2, geometric_inverse

__all__ = [
    "FORMS",
    "potential_from_metric",
    "cartan_r",
    "cartan_r_all_forms",
    "gauss_curvature",
    "covariant_hessian_zz",
    "kzz_identity_residual",
    "spherical_test",
    "rigid_r_from_F",
]

FORMS = ("q_form", "p_form", "divergence_form")

_DEGENERATE_FLOOR = 1e-12  # sup|r| below which r vanishes: a torus's degeneracy rule


def _d(f):
    return f.derivative("D")


def _db(f):
    return f.derivative("Dbar")


def _require_real(u, who: str):
    if not getattr(u, "real_tag", False):
        raise ValueError(f"{who} requires a real-tagged potential field")


def potential_from_metric(h):
    """u = log(-D Dbar log h) for a strictly positive bundle metric h.

    Raises NotPseudoconvex when the curvature density -D Dbar log h fails
    to be strictly positive somewhere (the circle bundle is then not
    strictly pseudoconvex).  Note a genuinely periodic positive h cannot be
    pseudoconvex on a torus (the curvature integrates to zero), so torus
    inputs arrive as potentials directly.
    """
    if not getattr(h, "real_tag", False):
        raise ValueError("metric h must be real")
    if float(np.min(h.values.real)) <= 0.0:
        raise NotPseudoconvex("metric h must be strictly positive")
    lh = h.log()
    curv = _db(_d(lh)).scale(-1.0).real_part(tol=1e-8)
    if float(np.min(curv.values.real)) <= 0.0:
        raise NotPseudoconvex(
            f"-D Dbar log h has minimum {float(np.min(curv.values.real)):.6g} <= 0")
    return curv.log()


def cartan_r(u, form: str):
    """The field r = Pu in the requested form (see module docstring).  On
    a torus u's modes >= n/6 and every derivative check their spectral
    tail (UnderResolved)."""
    _require_real(u, "cartan_r")
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    if u.periodic:  # the modes >= (n/2)/3 = n/6, constant aside, as r ignores it
        frac = _tail_energy_fraction(u._spectral_block(), u.n // 2)
        if frac > _TAIL_TOL:
            raise UnderResolved(f"modes >= n/6 carry {frac:.3e} of the potential's energy "
                                f"(tolerance {_TAIL_TOL:.1e}): r's products would be truncated")

    du = _d(u)  # q
    if form == "divergence_form":
        w = _db(du)
        X = product([(-1.0, (du, w)), (1.0, (_d(w),))])
        return product([(-2.0, (du, X)), (1.0, (_d(X),))])
    d2u, ddbu = du.wirtinger()
    d2dbu = _d(ddbu)
    return product([(-3.0, (du, d2dbu)),
                    (2.0, (du, du, ddbu)),
                    (-1.0, (d2u, ddbu)),
                    (1.0, (_d(d2dbu),))])


def cartan_r_all_forms(u, tol: float = 1e-7) -> dict:
    """All three forms, raising CrossFormMismatch when the P form and the
    divergence form disagree beyond tol relative to the field scale.  The q
    and P forms run one block, so the P form's field serves both keys."""
    p = cartan_r(u, "p_form")
    div = cartan_r(u, "divergence_form")
    scale = 1.0 + max(p.sup_norm(), div.sup_norm())
    worst = float(np.max(np.abs(p.values - div.values))) / scale
    if worst > tol:
        raise CrossFormMismatch(
            f"forms of r disagree with relative sup-error {worst:.3e} > {tol:.1e}")
    return {"q_form": p, "p_form": p, "divergence_form": div}


def _is_degenerate(r_sup: float) -> bool:
    """The torus's rule sup|r| < _DEGENERATE_FLOOR, invariant under u -> u + C:
    r = 0 makes K constant, so 0 (Gauss-Bonnet) and u constant, whose r is 0
    bit for bit.  DomainError when sup|r| is not finite (NaN is no zero)."""
    if not np.isfinite(r_sup):
        raise DomainError(f"Pu leaves the float range (sup|Pu| = {r_sup})")
    return r_sup < _DEGENERATE_FLOOR


def gauss_curvature(u):
    """Gauss curvature K = -2 e^{-u} D Dbar u of the metric e^{u} |dz|^2."""
    _require_real(u, "gauss_curvature")
    ddbu = _db(_d(u))
    K = u.scale(-1.0).exp().mul(ddbu).scale(-2.0)
    return K.real_part(tol=1e-7)


def covariant_hessian_zz(f, phi):
    """Second covariant z-derivative f_{;zz} = e^{-2 phi}(D^2 f - 2 (D phi)(D f))
    in the metric e^{2 phi} |dz|^2.  With phi = 0 this is plain D^2 f, one
    quarter of (f_11 - f_22 - 2 i f_12)."""
    _require_real(f, "covariant_hessian_zz")
    _require_real(phi, "covariant_hessian_zz")
    df = _d(f)
    d2f = _d(df)
    dphi = _d(phi)
    em2phi = phi.scale(-2.0).exp()
    return em2phi.mul(d2f.add(dphi.mul(df).scale(-2.0)))


def kzz_identity_residual(u, region_radius: float | None = None) -> float:
    """Sup-norm of Pu + (e^{2u}/2) K_{;zz}, the two sides computed through
    independent code paths (P form versus curvature and covariant Hessian
    with 2 phi = u).  Identically zero in exact arithmetic.  The sup is
    ``sup_norm(region_radius)``, on a chart its trusted interior."""
    _require_real(u, "kzz_identity_residual")
    P = cartan_r(u, "p_form")
    K = gauss_curvature(u)
    kzz = covariant_hessian_zz(K, u.scale(0.5))
    e2u = u.scale(2.0).exp()
    resid = P.add(e2u.mul(kzz).scale(0.5))
    return resid.sup_norm(region_radius)


def spherical_test(u, r, tol: float = 1e-6, region_radius: float | None = None) -> bool:
    """Locally spherical / totally umbilical test: true iff the covariant
    Hessian of the Gauss curvature vanishes, i.e.
    sup |K_{;zz}| <= tol * (1 + sup |K|).  Constant-curvature metrics are
    exactly the metrics passing this test, and they are the inputs on which
    zero location downstream would be meaningless.

    r is the invariant Pu of u, which the caller has computed already; the
    test reads K = -2 e^{-u} D Dbar u and K_{;zz} = -2 e^{-2u} r pointwise
    (criterion 2's identity), so no exponential is differentiated or enters
    a product.  Each sup is taken over ``u.mask(region_radius)``: the whole
    grid on a torus, where D Dbar u is Dbar D u; a disk on a chart, where
    D Dbar u is (u_xx + u_yy) / 4 from real stencil passes of u
    (``field._fd_d_dbar``), and both exponentials are real, taken on the
    disk alone.  The pipelines screen sphere charts with it; a torus has
    :func:`_is_degenerate`."""
    ksup, hsup = _screen_sups(u, r, region_radius)
    return bool(hsup <= tol * (1.0 + ksup))


def _screen_sups(u, r, region_radius):
    """(sup |K|, sup |K_{;zz}|) over u.mask(region_radius), as
    :func:`spherical_test` reads them."""
    _require_real(u, "spherical_test")
    if u.periodic:  # the whole grid
        K = 2.0 * np.abs(u.scale(-1.0).exp().values * _db(_d(u)).values)
        kzz = 2.0 * np.abs(u.scale(-2.0).exp().values * r.values)
    else:  # the disk, in real arithmetic
        region = u.mask(region_radius)
        v = u.values.real[region]
        K = 2.0 * np.abs(_exp(-v) * _fd_d_dbar(u.values.real, u.cell_size)[region])
        kzz = 2.0 * np.abs(_exp(-2.0 * v) * r.values[region])
    return float(np.max(K, initial=0.0)), float(np.max(kzz, initial=0.0))


def rigid_r_from_F(F: PowerSeries2) -> PowerSeries2:
    """The invariant of a rigid hypersurface Im w = F(z, zbar) in normal
    form F = |z|^2 + O(|z|^4), as a truncated series of degree
    F.max_degree - 4.

    F is treated as exact polynomial data; q = F_{zz zbar} / F_{z zbar} is
    formed by geometric-series inversion of F_{z zbar} = 1 + (higher order)
    and the third-order q formula is applied formally.
    """
    if not isinstance(F, PowerSeries2):
        raise TypeError("rigid_r_from_F expects a PowerSeries2")
    if not F.real_tag:
        raise ValueError("F must carry the reality tag")
    N = F.max_degree
    low = np.abs(F.truncate(3).add(PowerSeries2(3, {(1, 1): -1.0})).c)  # F - |z|^2
    if np.max(low) > 1e-12:
        k, l = np.unravel_index(np.argmax(low), low.shape)
        raise ValueError(f"normal form F = |z|^2 + O(|z|^4) fails at ({k},{l})")

    out_degree = max(N - 4, 0)
    work = N  # q is needed complete through degree N - 1
    Fx = F.lift(N + 2)
    Fz = Fx.derivative("D")
    Fzzb = Fz.derivative("Dbar")            # complete through N
    Fzzzb = Fz.derivative("D").derivative("Dbar")  # complete through N - 1
    e = Fzzb.add(PowerSeries2.constant(-1.0, Fzzb.max_degree))
    inv = geometric_inverse(e, work)
    q = Fzzzb.mul(inv)                       # complete through N - 1

    dq = q.derivative("D")
    dbq = q.derivative("Dbar")
    ddbq = dbq.derivative("D")
    d2dbq = ddbq.derivative("D")
    r = (d2dbq.add(q.mul(ddbq).scale(-3.0))
         .add(q.mul(q).mul(dbq).scale(2.0))
         .add(dq.mul(dbq).scale(-1.0)))
    return r.truncate(out_degree)
