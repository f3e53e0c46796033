import numpy as np
import pytest

from umbilic.cartan import (FORMS, _screen_sups, cartan_r, cartan_r_all_forms,
                            covariant_hessian_zz, gauss_curvature,
                            kzz_identity_residual, potential_from_metric,
                            rigid_r_from_F, spherical_test)
from umbilic.errors import NotPseudoconvex, UnderResolved
from umbilic.field import ChartGrid, PeriodicField, TorusLattice
from umbilic.index import SPHERE_SPHERICAL_TOL, sphere_metric_potentials
from umbilic.series import PowerSeries2
from umbilic.torussearch import TrigPotential, chern_normalize

from _oracles import (benchmark_pool, fd_cartan_r, fd_covariant_hessian,
                      periodic_from_function, random_band_limited, spherical_screen)

LAT = TorusLattice(1j)


def fs_chart(d=1, radius=1.5, n=192):
    return ChartGrid.from_function(
        "c1", radius, n, lambda Z: np.log(d) - 2 * np.log1p(np.abs(Z) ** 2),
        real_tag=True)


class TestPotentialFromMetric:
    def test_gaussian_metric_gives_zero_potential(self):
        h = ChartGrid.from_function("c1", 1.5, 128,
                                    lambda Z: np.exp(-np.abs(Z) ** 2), real_tag=True)
        u = potential_from_metric(h)
        assert u.sup_norm(1.0) < 1e-8

    def test_fubini_study_metric(self):
        h = ChartGrid.from_function("c1", 1.5, 192,
                                    lambda Z: 1.0 / (1 + np.abs(Z) ** 2), real_tag=True)
        u = potential_from_metric(h)
        Z = h.z_grid()
        expect = -2 * np.log1p(np.abs(Z) ** 2)
        assert np.max(np.abs(u.values - expect)[h.mask(1.0)]) < 1e-9

    def test_concave_metric_rejected(self):
        h = ChartGrid.from_function("c1", 1.0, 64,
                                    lambda Z: np.exp(+np.abs(Z) ** 2), real_tag=True)
        with pytest.raises(NotPseudoconvex):
            potential_from_metric(h)

    def test_metric_and_potential_guards(self):
        h = ChartGrid.from_function("c1", 1.0, 64,
                                    lambda Z: np.exp(-np.abs(Z) ** 2), real_tag=True)
        assert potential_from_metric(h).sup_norm(0.5) < 1e-8
        with pytest.raises(ValueError):
            cartan_r(h.derivative("D"), "p_form")  # not real-tagged


class TestCartanR:
    def test_constant_potential_killed(self):
        u = PeriodicField.constant(LAT, 64, 1.3)
        for form in FORMS:
            assert cartan_r(u, form).sup_norm() <= 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fubini_study_killed_on_chart(self, d):
        r = cartan_r(fs_chart(d), "p_form")
        assert r.sup_norm(1.0) <= 1e-8

    def test_three_forms_agree_and_match_fd_oracle(self):
        u = periodic_from_function(
            LAT, 128,
            lambda S, T: 0.3 * np.cos(2 * np.pi * S) + 0.2 * np.sin(2 * np.pi * T),
            real_tag=True)
        forms = cartan_r_all_forms(u, tol=1e-7)
        rs = [forms[f] for f in FORMS]
        scale = 1.0 + max(r.sup_norm() for r in rs)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.max(np.abs(rs[i].values - rs[j].values)) / scale < 1e-7
        oracle = fd_cartan_r(u.values, LAT.omega)
        assert np.max(np.abs(rs[1].values - oracle)) / scale < 1e-5

    @pytest.mark.parametrize("omega", [1j, 0.3 + 1.1j])
    @pytest.mark.parametrize("a", [2.0, 3.0, 5.0])
    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_forms_agree_at_large_amplitude(self, omega, a, n):
        # u = 2a cos(2 pi s), whose e^{2u} spans up to e^{20}: the divergence
        # form samples no exponential, so it agrees with the P form to
        # rounding at any amplitude
        pot = TrigPotential.from_half_modes(TorusLattice(omega), {(1, 0): a})
        cartan_r_all_forms(pot.to_field(n), tol=1e-7)

    def test_invalid_form(self):
        u = PeriodicField.constant(LAT, 16, 0.0)
        with pytest.raises(ValueError):
            cartan_r(u, "divergence")

    def test_requires_real_potential(self):
        f = PeriodicField.constant(LAT, 16, 1j)
        with pytest.raises(ValueError):
            cartan_r(f, "p_form")

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("shift", [-3.0, 1.0, 10.0])
    def test_constant_shift_invariance(self, form, shift):
        u = random_band_limited(21, LAT, n=128)
        rA = cartan_r(u, form)
        rB = cartan_r(u.shift(shift), form)
        scale = 1.0 + rA.sup_norm()
        assert np.max(np.abs(rA.values - rB.values)) / scale <= 1e-10


    @pytest.mark.parametrize("omega", [1j, 0.3 + 1.1j, 1.3 + 1.1j])
    @pytest.mark.parametrize("n", [96, 128])
    def test_chern_normalize_leaves_trig_potential_r_bitwise(self, omega, n):
        # a TrigPotential keeps its exact spectrum: the shift moves only the
        # DC bin, which every derivative zeroes, and no rounding-level bin
        # of u can fall on either side of the denoise floor
        pot = TrigPotential.from_half_modes(
            TorusLattice(omega), {(1, 0): 0.12, (0, 1): -0.07j, (1, 1): 0.05})
        for c1 in (1, 2):
            out = chern_normalize(pot, c1)
            for form in ("q_form", "p_form"):
                assert np.array_equal(cartan_r(pot.to_field(n), form).values,
                                      cartan_r(out.to_field(n), form).values)


    def test_truncated_products_raise_under_resolved(self):
        # band 11 passes every derivative check at n=64, but the P form's
        # cubic products (band 33 > 32) would be truncated: r would differ
        # from r at n=256 by 4.2e-3 relative (2.5e-16 at band 10)
        pot = TrigPotential.from_half_modes(
            LAT, {(11, 0): 0.05, (5, 1): 0.05 + 0.02j, (1, 1): 0.1})
        with pytest.raises(UnderResolved):
            cartan_r(pot.to_field(64), "p_form")
        # r ignores constants, and so does the bound: a shift cannot dilute it
        with pytest.raises(UnderResolved):
            cartan_r(pot.shifted(1e3).to_field(64), "divergence_form")


class TestGaussCurvature:
    def test_flat(self):
        u = PeriodicField.constant(LAT, 32, 0.0)
        assert gauss_curvature(u).sup_norm() == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_round_sphere(self, d):
        K = gauss_curvature(fs_chart(d))
        err = np.abs(K.values - 4.0 / d)
        assert np.max(err[K.mask(1.0)]) < 1e-8

    def test_hyperbolic(self):
        # singular on |z| = 1, so samples past |z| = 0.949 are taken there
        ch = ChartGrid.from_function(
            "c1", 0.95, 384, lambda Z: -2 * np.log(1 - np.minimum(np.abs(Z), 0.949) ** 2),
            real_tag=True)
        K = gauss_curvature(ch)
        assert np.max(np.abs(K.values + 4.0)[K.mask(0.8)]) < 1e-8


class TestCovariantHessian:
    def test_flat_hessian_of_re_z2(self):
        ch = ChartGrid.from_function("c1", 1.0, 64, lambda Z: (Z ** 2).real,
                                     real_tag=True)
        phi = ChartGrid.from_function("c1", 1.0, 64, lambda Z: np.zeros(Z.shape),
                                      real_tag=True)
        h = covariant_hessian_zz(ch, phi)
        assert np.max(np.abs(h.values - 1.0)) < 1e-9

    def test_flat_hessian_of_abs2(self):
        ch = ChartGrid.from_function("c1", 1.0, 64, lambda Z: np.abs(Z) ** 2,
                                     real_tag=True)
        phi = ChartGrid.from_function("c1", 1.0, 64, lambda Z: np.zeros(Z.shape),
                                      real_tag=True)
        assert np.max(np.abs(covariant_hessian_zz(ch, phi).values)) < 1e-9

    def test_against_fd_oracle(self):
        # n and the band are chosen so the oracle's own 4th-order error
        # sits below the stated tolerance
        f = random_band_limited(31, LAT, n=256, budget=2, amplitude=0.4)
        phi = random_band_limited(32, LAT, n=256, budget=2, amplitude=0.3)
        got = covariant_hessian_zz(f, phi)
        oracle = fd_covariant_hessian(f.values, phi.values.real, LAT.omega)
        scale = 1.0 + got.sup_norm()
        assert np.max(np.abs(got.values - oracle)) / scale < 1e-6


class TestKzzIdentity:
    def test_constant(self):
        u = PeriodicField.constant(LAT, 32, 0.5)
        assert kzz_identity_residual(u) == 0.0

    def test_trig_potential(self):
        u = periodic_from_function(
            LAT, 128,
            lambda S, T: 0.25 * np.cos(2 * np.pi * S) + 0.15 * np.cos(2 * np.pi * T),
            real_tag=True)
        P = cartan_r(u, "p_form")
        assert kzz_identity_residual(u) / (1.0 + P.sup_norm()) <= 1e-7

    def test_fubini_study(self):
        assert kzz_identity_residual(fs_chart(1), region_radius=1.0) <= 1e-8


def curvature_screen(u, tol, region_radius=None):
    """The spherical decision through the curvature path of criterion 2:
    sup|K_{;zz}| <= tol (1 + sup|K|) with K and its covariant Hessian."""
    K = gauss_curvature(u)
    kzz = covariant_hessian_zz(K, u.scale(0.5))
    if isinstance(u, ChartGrid):
        return kzz.sup_norm(region_radius) <= tol * (1.0 + K.sup_norm(region_radius))
    return kzz.sup_norm() <= tol * (1.0 + K.sup_norm())


def screen(u, tol=1e-6, region_radius=None):
    return spherical_test(u, cartan_r(u, "p_form"), tol, region_radius=region_radius)


def generic_torus_potential():
    return periodic_from_function(
        LAT, 128, lambda S, T: 0.1 + 0.3 * np.cos(2 * np.pi * S), real_tag=True)


class TestSphericalTest:
    def test_fubini_study_is_spherical(self):
        assert screen(fs_chart(2), region_radius=1.0)

    def test_constant_torus_is_spherical(self):
        assert screen(PeriodicField.constant(LAT, 64, 0.2))

    def test_generic_potential_is_not(self):
        assert not screen(generic_torus_potential())

    @pytest.mark.parametrize("make, radius", [
        (lambda: fs_chart(2), 1.0),
        (lambda: PeriodicField.constant(LAT, 64, 0.2), None),
        (generic_torus_potential, None),
    ], ids=["fubini-study", "constant-torus", "generic"])
    def test_matches_curvature_path(self, make, radius):
        # K_{;zz} = -2 e^{-2u} r: the screen read from r decides as the
        # covariant Hessian of the curvature does
        u = make()
        assert screen(u, region_radius=radius) == curvature_screen(u, 1e-6, radius)


def _screen_inputs():
    """(id, u, region radius) of the spherical screen: the round sphere of
    degrees 1-3 and the ph-audit pool's sphere configs on both charts, the
    criterion-4 charts, real potentials on the criterion-5 chart, and the
    criterion-7 sphere."""
    cases = []
    for d in (1, 2, 3):
        for u in sphere_metric_potentials(d, [], chart_n=128):
            cases.append((f"round/degree{d}/{u.chart_id}", u, 1.0))
        cases.append((f"criterion4/degree{d}", fs_chart(d), 1.0))
    for jid, cfg in benchmark_pool("catalogue").items():
        if cfg["operation"] == "ph-audit":
            surface = cfg["surface"]
            perts = [(p["harmonic"], p["epsilon"]) for p in surface["perturbations"]]
            for u in sphere_metric_potentials(surface["degree"], perts, chart_n=128):
                cases.append((f"{jid}/{u.chart_id}", u, 1.0))
    z0 = 0.15 - 0.1j
    for name, fn in (("re", lambda Z: (Z - z0).real), ("modulus", lambda Z: np.abs(Z - z0) ** 2),
                     ("log", lambda Z: np.log1p(np.abs(Z - z0) ** 2 + 0.3 * (Z - z0).real))):
        cases.append((f"criterion5/{name}", ChartGrid.from_function("c1", 1.0, 64, fn,
                                                                    real_tag=True), None))
    cases.append(("criterion7/chart1",
                  sphere_metric_potentials(2, [("re_z", 0.05)], chart_n=256)[0], 1.0))
    return cases


@pytest.mark.parametrize("case", _screen_inputs(), ids=lambda case: case[0])
def test_screen_matches_the_complex_whole_square_oracle(case):
    # the real stencil passes and real exponentials on the disk decide as
    # two chart derivatives and complex exponentials over the square did,
    # with the same sups to 1e-12
    _, u, radius = case
    r = cartan_r(u, "p_form")
    verdict, ksup, hsup = spherical_screen(u, r, SPHERE_SPHERICAL_TOL, radius)
    assert spherical_test(u, r, SPHERE_SPHERICAL_TOL, region_radius=radius) == verdict
    got = _screen_sups(u, r, radius)
    assert got == pytest.approx((ksup, hsup), rel=1e-12, abs=0.0)


class TestRigidFrontEnd:
    def test_quadric_is_spherical(self):
        F = PowerSeries2(6, {(1, 1): 1.0}, real_tag=True)
        r = rigid_r_from_F(F)
        assert r.max_degree == 2 and r.max_coeff() == 0.0

    def test_rotational_quartic_vanishes_at_origin(self):
        F = PowerSeries2(8, {(1, 1): 1.0, (2, 2): 1.0}, real_tag=True)
        r = rigid_r_from_F(F)
        assert abs(r.eval(0.0)) < 1e-12

    def test_sextic_coefficient_is_48_eps(self):
        # the degree-4 part of log F_{z zbar} is 8 eps (z^3 zbar + z zbar^3)
        # and D^3 Dbar(z^3 zbar) = 6, so r(0) = 48 eps exactly; the
        # correspondence test below confirms it through the field pipeline
        for eps in (1e-3, 0.01, 0.1):
            F = PowerSeries2(10, {(1, 1): 1.0, (4, 2): eps, (2, 4): eps},
                             real_tag=True)
            r = rigid_r_from_F(F)
            assert abs(r.eval(0.0) - 48.0 * eps) < 1e-10 * max(1.0, 48 * eps)

    def test_normal_form_violations_rejected(self):
        with pytest.raises(ValueError):
            rigid_r_from_F(PowerSeries2(6, {(1, 1): 2.0}, real_tag=True))
        with pytest.raises(ValueError):
            rigid_r_from_F(PowerSeries2(6, {(1, 1): 1.0, (2, 1): 0.5, (1, 2): 0.5},
                                        real_tag=True))
        with pytest.raises(ValueError):
            rigid_r_from_F(PowerSeries2(6, {(1, 1): 1.0}))  # no reality tag

    def test_bundle_correspondence(self):
        # rigid invariant of F = -log h against the field pipeline of h;
        # the evaluation points stay where the degree-12 truncation of r
        # is converged
        eps = 0.05
        F = PowerSeries2(16, {(1, 1): 1.0, (4, 2): eps, (2, 4): eps}, real_tag=True)
        r_series = rigid_r_from_F(F)

        def h_fn(Z):
            W = np.abs(Z) ** 2
            Fval = W + eps * (Z ** 4 * np.conj(Z) ** 2 + Z ** 2 * np.conj(Z) ** 4).real
            return np.exp(-Fval)

        # six nested finite-difference levels amplify roundoff like h^-6,
        # so a moderate h beats a fine one here
        h = ChartGrid.from_function("c1", 1.0, 96, h_fn, real_tag=True)
        u = potential_from_metric(h)
        r_chart = cartan_r(u, "p_form")
        pts = np.array([0.0, 0.08, 0.05 + 0.06j, -0.09j, 0.07 - 0.02j])
        got = r_chart.evaluate_at(pts)
        want = np.array([r_series.eval(z) for z in pts])
        assert np.max(np.abs(got - want)) < 1e-6


class TestConstantCurvatureKill:
    def test_curvature_constant_implies_r_zero(self):
        u = fs_chart(3)
        K = gauss_curvature(u)
        km = K.values[K.mask(1.0)]
        assert np.max(np.abs(km - km.mean())) < 1e-9
        assert cartan_r(u, "p_form").sup_norm(1.0) <= 1e-8
