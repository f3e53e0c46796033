import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len

from umbilic import field as field_module
from umbilic.cartan import cartan_r, covariant_hessian_zz, gauss_curvature
from umbilic.errors import DomainError, UnderResolved
from umbilic.field import ChartGrid, PeriodicField, TorusLattice, product
from umbilic.torussearch import TrigPotential, min_modulus_objective

from _oracles import (eager_covariant_hessian, eager_derivative, eager_divergence_form,
                      eager_field, fitpack_chart_spline, eager_gauss_curvature, eager_p_form, eager_pointwise,
                      eager_potential, eager_product, eager_samples, product_2n,
                      periodic_from_function, periodic_from_modes, random_band_limited,
                      random_half_modes, sampled_spectrum, trig_resample)

LAT = TorusLattice(1j)
LAT_GEN = TorusLattice(0.3 + 1.1j)


def grid_st(n):
    s = np.arange(n) / n
    return np.meshgrid(s, s, indexing="ij")


def test_next_fast_len_matches_scipy():
    # product grids m keep the sizes scipy's complex next_fast_len gave them
    assert [field_module._next_fast_len(i) for i in range(1, 3000)] == \
        [next_fast_len(i) for i in range(1, 3000)]


class TestTorusLattice:
    def test_rejects_real_omega(self):
        with pytest.raises(ValueError):
            TorusLattice(2.0)

    def test_coordinate_roundtrip(self):
        z = 0.3 + 0.45 * LAT_GEN.omega
        s, t = LAT_GEN.z_to_st(z)
        assert abs(LAT_GEN.st_to_z(s, t) - z) < 1e-14

    def test_torus_distance_wraps(self):
        assert LAT.torus_distance(0.05, 0.95) == pytest.approx(0.1)
        # an array of points gives the distance to each, equal to one call per point
        z1 = np.array([0.95, 0.3 + 0.9j, -0.7 + 0.45 * LAT_GEN.omega, 0.05])
        for lat in (LAT, LAT_GEN):
            single = [lat.torus_distance(0.05, z) for z in z1]
            assert np.all(lat.torus_distance(0.05, z1) == single)
            # an array z0 broadcasts against z1: the matrix of pairwise distances
            pairs = lat.torus_distance(z1[:, None], z1)
            assert np.all(pairs == [lat.torus_distance(z, z1) for z in z1])

    @staticmethod
    def points(lat, count, seed):
        """count points of the fundamental domain, uniform in (s, t)."""
        return lat.st_to_z(*np.random.default_rng(seed).random((2, count)))

    @pytest.mark.parametrize("omega", [3 + 0.2j, 10 + 0.1j, -7.6 + 0.35j, 4.5 + 2.2j, 0.2 + 0.3j])
    def test_torus_distance_is_the_nearest_image_on_a_skewed_basis(self, omega):
        lat = TorusLattice(omega)
        z0, z1 = self.points(lat, 300, 1), self.points(lat, 300, 2)
        d = z1 - z0
        brute = np.min([np.hypot((d - sh).real, (d - sh).imag)
                        for sh in [m + n * omega for m in range(-40, 41) for n in range(-40, 41)]],
                       axis=0)
        assert np.array_equal(lat.torus_distance(z0, z1), brute)
        # the two images |m|, |n| <= 1 miss
        example = {3 + 0.2j: (0.9 + 0.4 * omega, 0.1281), 10 + 0.1j: (0.7 + 0.45 * omega, 0.205)}
        if omega in example:
            z, want = example[omega]
            assert lat.torus_distance(0.0, z) == pytest.approx(want, abs=1e-4)

    @pytest.mark.parametrize("lat", [LAT, LAT_GEN])
    def test_torus_distance_on_a_reduced_basis_is_the_nine_shifts(self, lat):
        z0, z1 = self.points(lat, 2000, 3), self.points(lat, 2000, 4)
        d = z1 - z0
        nine = np.min([np.hypot((d - sh).real, (d - sh).imag)
                       for sh in [m + n * lat.omega for m in (-1, 0, 1) for n in (-1, 0, 1)]],
                      axis=0)
        assert np.array_equal(lat.torus_distance(z0, z1), nine)


class TestPeriodicFieldValidation:
    def test_odd_resolution_rejected(self):
        with pytest.raises(ValueError):
            PeriodicField(LAT, np.zeros((9, 9)))

    def test_small_resolution_rejected(self):
        with pytest.raises(ValueError):
            PeriodicField(LAT, np.zeros((6, 6)))

    def test_real_tag_rejects_complex(self):
        vals = np.full((8, 8), 1.0 + 1e-6j)
        with pytest.raises(ValueError):
            PeriodicField(LAT, vals, real_tag=True)

    @pytest.mark.parametrize("n", [6, 7, 9])
    def test_to_field_rejects_the_resolutions_samples_do(self, n):
        # the budget fits every n here; the grid's own rule rejects them
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 0.1})
        with pytest.raises(ValueError, match="even and >= 8"):
            pot.to_field(n)


class TestPeriodicDerivative:
    def test_d_of_sin_s(self):
        n = 64
        f = periodic_from_function(LAT, n, lambda S, T: np.sin(2 * np.pi * S),
                                   real_tag=True)
        S, _ = grid_st(n)
        df = f.derivative("D")
        assert np.max(np.abs(df.values - np.pi * np.cos(2 * np.pi * S))) < 1e-10

    def test_wirtinger_is_the_two_derivatives(self):
        f = periodic_from_function(LAT, 32, lambda S, T: np.cos(2 * np.pi * (S - 2 * T)),
                                   real_tag=True)
        pair = f.wirtinger()
        for got, direction in zip(pair, ("D", "Dbar")):
            assert got.values.tobytes() == f.derivative(direction).values.tobytes()

    def test_constant_derivative_is_exactly_zero(self):
        f = PeriodicField.constant(LAT, 32, 3.7)
        for direction in ("D", "Dbar"):
            assert f.derivative(direction).sup_norm() == 0.0

    def test_laplacian_eigenfunction(self):
        n = 64
        f = periodic_from_function(
            LAT, n, lambda S, T: np.sin(2 * np.pi * S) * np.sin(2 * np.pi * T),
            real_tag=True)
        ddb = f.derivative("D").derivative("Dbar")
        assert np.max(np.abs(ddb.values + 2 * np.pi ** 2 * f.values)) < 1e-9

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN])
    @pytest.mark.parametrize("mode", [(1, 0), (0, 1), (3, -2), (-5, 7)])
    def test_single_mode_exactness(self, lattice, mode):
        n = 32
        j, k = mode
        f = periodic_from_modes(lattice, n, {(j, k): 1.0})
        om = lattice.omega
        mult = (np.conj(om) * 2j * np.pi * j - 2j * np.pi * k) / (np.conj(om) - om)
        df = f.derivative("D")
        assert np.max(np.abs(df.values - mult * f.values)) < 1e-11 * max(1.0, abs(mult))

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN])
    def test_mixed_partials_commute(self, lattice):
        f = random_band_limited(11, lattice, n=64)
        a = f.derivative("D").derivative("Dbar")
        b = f.derivative("Dbar").derivative("D")
        scale = 1.0 + a.sup_norm()
        assert np.max(np.abs(a.values - b.values)) / scale < 1e-10

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN])
    def test_conjugation_duality(self, lattice):
        f = random_band_limited(7, lattice, n=64)
        df = f.derivative("D")
        dbf = f.derivative("Dbar")
        assert np.max(np.abs(dbf.values - np.conj(df.values))) < 1e-12 * (1 + df.sup_norm())

    def test_leibniz_with_dealiasing(self):
        f = random_band_limited(3, LAT, n=128, budget=4)
        g = random_band_limited(4, LAT, n=128, budget=4)
        lhs = f.mul(g).derivative("D")
        rhs = f.mul(g.derivative("D")).add(g.mul(f.derivative("D")))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-9

    def test_tail_rejection(self):
        n = 64
        f = periodic_from_modes(LAT, n, {(30, 0): 1.0, (-30, 0): 1.0})
        with pytest.raises(UnderResolved):
            f.derivative("D")

    def test_invalid_direction(self):
        f = PeriodicField.constant(LAT, 16, 1.0)
        with pytest.raises(ValueError):
            f.derivative("Dz")


class TestDealiasedProducts:
    def test_resample_roundtrip(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        back = trig_resample(trig_resample(v, 64), 32)
        assert np.max(np.abs(back - v)) < 1e-13

    def test_band_limited_product_is_plain_product(self):
        a = periodic_from_modes(LAT, 64, {(3, 0): 1.0, (-3, 0): 1.0})
        b = periodic_from_modes(LAT, 64, {(2, 1): 0.5, (-2, -1): 0.5})
        prod = a.mul(b)
        assert np.max(np.abs(prod.values - a.values * b.values)) < 1e-13

    def test_aliasing_mode_is_projected_out(self):
        n = 16
        a = periodic_from_modes(LAT, n, {(5, 0): 1.0})
        b = periodic_from_modes(LAT, n, {(6, 0): 1.0})
        prod = a.mul(b)  # true mode 11 does not fit: projected away
        assert prod.sup_norm() < 1e-12


def random_modes(seed, lattice, n, band):
    """Complex field with random modes |j|, |k| <= band, scaled to sup 1."""
    rng = np.random.default_rng(seed)
    modes = {(j, k): rng.normal() + 1j * rng.normal()
             for j in range(-band, band + 1) for k in range(-band, band + 1)}
    f = periodic_from_modes(lattice, n, modes)
    return f.scale(1.0 / f.sup_norm())


def p_form_terms(a, b, c, d):
    """The products of the P form: -3 a b + 2 a a c - d c."""
    return [(-3.0, (a, b)), (2.0, (a, a, c)), (-1.0, (d, c))]


class TestPolynomialProduct:
    """product(): each operand lifted once to 2n, one transform back."""

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN])
    def test_fused_cubic_matches_4n_product(self, lattice):
        # operands up to |k| = 12 on n = 32: the cubic reaches 36, past the
        # grid, so truncating the pairwise product first would lose modes
        n = 32
        a, b, c, d = (random_modes(seed, lattice, n, 12) for seed in range(4))
        fused = product(p_form_terms(a, b, c, d))
        A, B, C, D = (trig_resample(f.values, 4 * n) for f in (a, b, c, d))
        brute = trig_resample(-3.0 * A * B + 2.0 * A * A * C - D * C, n)
        assert np.max(np.abs(fused.values - brute)) <= 1e-13 * np.max(np.abs(brute))
        assert fused.lattice is lattice and not fused.real_tag

    def test_mul_matches_pairwise_resampling(self):
        n = 64
        a, b = random_modes(5, LAT_GEN, n, 20), random_modes(6, LAT_GEN, n, 20)
        ref = trig_resample(trig_resample(a.values, 2 * n) * trig_resample(b.values, 2 * n), n)
        assert np.max(np.abs(a.mul(b).values - ref)) <= 1e-14

    def test_kept_spectrum_chain_matches_samples(self):
        # each derivative reads the spectrum its input kept; rebuilding the
        # input from bare samples transforms them again
        f = random_band_limited(7, LAT_GEN, n=64, budget=6)
        kept, bare = f, f
        for direction in ("D", "Dbar", "D", "D"):
            kept = kept.derivative(direction)
            bare = PeriodicField(LAT_GEN, bare.values).derivative(direction)
            assert kept._values is None
        assert np.max(np.abs(kept.values - bare.values)) <= 1e-12 * bare.sup_norm()

    def test_under_resolved_raises_on_both_paths(self):
        # a field built from samples, and a complex product, which keeps its
        # spectrum and has no samples yet
        f = periodic_from_modes(LAT, 64, {(30, 0): 1.0, (-30, 0): 1.0})
        kept = f.mul(PeriodicField.constant(LAT, 64, 1j))
        assert f._values is not None and kept._values is None
        for g in (f, kept):
            with pytest.raises(UnderResolved):
                g.derivative("D")

    def test_p_form_holds_three_doubled_arrays(self):
        # band-6 operands lift to m = 40, so the stack of the four lifted
        # operands and its transform stay far below one doubled array; the
        # rest of the peak is n-sized spectra
        n = 64
        u = random_band_limited(3, LAT_GEN, n=n, budget=6)
        du = u.derivative("D")
        fields = (du, du.derivative("Dbar").derivative("D"), du.derivative("Dbar"),
                  du.derivative("D"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            product(p_form_terms(*fields))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * (2 * n) ** 2 * 16

    def test_full_band_cubic_holds_the_stack_and_two_arrays(self):
        # sample-built operands lift to m = 2n: the stack of the four lifted
        # operands, one term and the sum, with room for n x n spectra; a
        # stack built from separate arrays and transformed out of place
        # would take about 12 doubled arrays
        n = 64
        rng = np.random.default_rng(2)
        fields = [PeriodicField(LAT_GEN, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                  for _ in range(4)]
        for f in fields:
            f._spectral_block()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            product(p_form_terms(*fields))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < (4 + 2) * (2 * n) ** 2 * 16 + 8 * n * n * 16

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN])
    @pytest.mark.parametrize("budget", [3, 7])
    def test_band_limited_operands_match_2n_product(self, lattice, budget):
        du = TrigPotential.from_half_modes(
            lattice, random_half_modes(budget, budget=budget, scale=0.1)).to_field(64).derivative("D")
        ddbu = du.derivative("Dbar")
        fields = (du, ddbu.derivative("D"), ddbu, du.derivative("D"))
        assert [f._band() for f in fields] == [budget] * 4
        out = product(p_form_terms(*fields))
        assert out._band() == 3 * budget
        ref = product_2n(p_form_terms(*fields))
        assert np.max(np.abs(out.values - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN])
    def test_full_band_quadratic_matches_2n_product(self, lattice):
        # sample-built operands count as band n/2: the lift is 3n/2 + 1
        # rounded up to a fast size (49 here), not 2n
        a, b, c, d = (random_modes(seed, lattice, 32, 15) for seed in range(4))
        assert a._band() == 16
        terms = [(-3.0, (a, b)), (0.5j, (c, d)), (1.0, (a, a))]
        ref = product_2n(terms)
        assert np.max(np.abs(product(terms).values - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs(a.mul(b).values - product_2n([(1.0, (a, b))]))) <= 1e-14

    @pytest.mark.parametrize("n", [32, 64])
    def test_full_band_cubic_is_bitwise_2n_product(self, n):
        # sample-built operands count as band n/2 whatever their modes
        fields = [random_modes(seed, LAT_GEN, n, 12) for seed in range(4)]
        assert np.array_equal(product(p_form_terms(*fields)).values,
                              product_2n(p_form_terms(*fields)))

    def test_budget3_p_form_lifts_to_small_grid(self, monkeypatch):
        # budget-3 operands: S = 9 and K = 9, so m = next_fast_len(19) = 20;
        # kept spectra mean no transform of n x n samples either
        # the lift and the way back run 1-D passes with norm "forward"
        shapes = []
        fft, ifft, fft2 = field_module.fft.fft, field_module.fft.ifft, field_module.fft.fft2

        def lift(x, *args, **kw):
            if kw.get("norm") == "forward":
                shapes.append(x.shape[-2:])
            return ifft(x, *args, **kw)

        def forward(x, *args, **kw):
            if kw.get("norm") == "forward":
                shapes.append(x.shape[-2:])
            return fft(x, *args, **kw)

        def samples(x, *args, **kw):
            shapes.append(x.shape)
            return fft2(x, *args, **kw)

        monkeypatch.setattr(field_module.fft, "ifft", lift)
        monkeypatch.setattr(field_module.fft, "fft", forward)
        monkeypatch.setattr(field_module.fft, "fft2", samples)
        u = TrigPotential.from_half_modes(LAT_GEN, random_half_modes(1, budget=3, scale=0.1))
        r = cartan_r(u.to_field(96), "p_form")
        assert shapes and max(max(shape) for shape in shapes) <= 32
        assert r._band() == 9

    def test_chart_product_is_sample_polynomial(self):
        rng = np.random.default_rng(4)
        n = 12
        fields = [ChartGrid("c1", 1.0,
                            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                  for _ in range(4)]
        a, b, c, d = fields
        out = product(p_form_terms(a, b, c, d))
        ref = -3.0 * a.values * b.values + 2.0 * a.values * a.values * c.values - d.values * c.values
        assert np.max(np.abs(out.values - ref)) <= 1e-14 * np.max(np.abs(ref))
        pair = a.mul(b)
        assert np.array_equal(pair.values, a.values * b.values)


class TestPointwiseMaps:
    def test_exp_of_zero(self):
        f = PeriodicField.constant(LAT, 16, 0.0)
        out = f.exp()
        assert np.max(np.abs(out.values - 1.0)) == 0.0
        assert out.real_tag

    def test_log_exp_roundtrip(self):
        f = random_band_limited(5, LAT, n=64, amplitude=0.8)
        out = f.exp().log()
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_log_domain_violation(self):
        f = periodic_from_function(LAT, 32, lambda S, T: np.sin(2 * np.pi * S),
                                   real_tag=True)
        with pytest.raises(DomainError):
            f.log()

    def test_scale_and_add(self):
        f = PeriodicField.constant(LAT, 16, 1.0)
        g = PeriodicField.constant(LAT, 16, 2.0)
        out = f.add(g)
        assert np.max(np.abs(out.values - 3.0)) == 0.0
        out = f.scale(-2.0)
        assert np.max(np.abs(out.values + 2.0)) == 0.0

    def test_mismatched_grids_rejected(self):
        f = PeriodicField.constant(LAT, 16, 1.0)
        g = PeriodicField.constant(LAT, 32, 1.0)
        with pytest.raises(ValueError):
            f.add(g)


class TestSpectrumFirst:
    """Samples of derivative and product results exist only once read, and
    are those of the eager chain bit for bit."""

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN])
    @pytest.mark.parametrize("n", [64, 96, 128])
    def test_chains_match_eager_bitwise(self, lattice, n):
        for seed, budget in ((n, 2), (n + 1, 3), (n + 2, 6)):
            pot = TrigPotential.from_half_modes(
                lattice, random_half_modes(seed, budget=budget, scale=0.3))
            u, ref = pot.to_field(n), eager_potential(pot, n)
            p, div = cartan_r(u, "p_form"), cartan_r(u, "divergence_form")
            assert p._values is None and div._values is None
            assert np.array_equal(p.values, eager_p_form(ref).values)
            assert np.array_equal(div.values, eager_divergence_form(ref).values)

    @staticmethod
    def _field_with_bin(factor, mean=0.0):
        """A complex field without samples: a budget-3 derivative plus a
        mean and a (5, 7) bin of factor times the denoise floor
        16 n eps sup|f| of a field built from samples; its fft2 spectrum
        C; and that floor.  Without the bin the field has band 3, so a
        derivative of band 3 has zeroed it."""
        n = 64
        pot = TrigPotential.from_half_modes(LAT_GEN, random_half_modes(5, budget=3, scale=0.2))
        C = eager_derivative(eager_potential(pot, n), "D").C.copy()
        C[0, 0] = mean * n * n
        sup = lambda: np.max(np.abs(field_module.fft.ifft2(C)))
        C[5, 7] = factor * 16.0 * n * np.finfo(float).eps * sup()
        floor = 16.0 * n * np.finfo(float).eps * sup()
        f = PeriodicField._from_block(LAT_GEN, n, np.fft.fftshift(C), False)
        assert f._values is None and f._band() == 7
        return f, C, floor

    def test_kept_bin_below_the_sample_floor_survives(self):
        # the floor is for sample rounding, which a kept spectrum does not
        # carry: a bin below 16 n eps sup|f|, with a mean raising sup|f|,
        # survives D, and no samples are formed to find sup|f|
        f, C, floor = self._field_with_bin(1.0 - 1e-9, mean=1e3)
        assert abs(C[5, 7]) < floor
        d = f.derivative("D")
        assert d._band() == 7 and f._values is None
        assert np.array_equal(d.values, eager_derivative(eager_field(LAT_GEN, C), "D").values)

    @staticmethod
    def _sampled_field_with_bin(target, mean=0.0):
        """A complex field built from samples: a budget-3 derivative plus a
        mean and a (5, 7) bin whose transform, as D reads it from the
        centred samples, is the largest found below target times the floor
        16 n eps sup|f|; that bin's magnitude over the floor."""
        n = 64
        pot = TrigPotential.from_half_modes(LAT_GEN, random_half_modes(5, budget=3, scale=0.2))
        C = eager_derivative(eager_potential(pot, n), "D").C.copy()
        C[0, 0] = mean * n * n
        scale = 16.0 * n * np.finfo(float).eps

        def ratio(t):
            C[5, 7] = t * scale * np.max(np.abs(np.fft.ifft2(C)))
            v = np.fft.ifft2(C)
            B = np.fft.fft2(v - complex(v.mean()))
            return v, abs(B[5, 7]) / (scale * np.max(np.abs(v)))

        lo, hi = 0.5, 1.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ratio(mid)[1] < target else (lo, mid)
        v, r = ratio(lo)
        f = PeriodicField(LAT_GEN, v)
        assert f._values is not None and f._block is None
        return f, r

    def test_bin_just_below_exact_floor_is_zeroed(self):
        # the floor applies to samples: their transform's bin just below
        # 16 n eps sup|f| is zeroed with the rounding noise around it (the
        # round trip through samples moves the bin by a few parts in 1e3)
        f, r = self._sampled_field_with_bin(1.0)
        assert 0.99 < r < 1.0
        d = f.derivative("D")
        assert d._band() == 3
        assert np.array_equal(d.values, eager_derivative(eager_samples(f), "D").values)

    def test_mean_counts_toward_the_floor(self):
        # the mean is subtracted before the transform, but sup|f| and so
        # the floor include it: a floor set by the mean still zeroes a bin
        # a thousand times the mean-free floor
        f, r = self._sampled_field_with_bin(0.5, mean=1e3)
        assert r < 0.5
        assert abs(f.values.mean()) > 999.0
        d = f.derivative("D")
        assert d._band() == 3
        assert np.array_equal(d.values, eager_derivative(eager_samples(f), "D").values)

    def test_bin_just_above_exact_floor_is_kept(self):
        f, C, floor = self._field_with_bin(1.0 + 1e-9)
        assert abs(C[5, 7]) >= floor
        d = f.derivative("D")
        assert d._band() == 7
        assert np.array_equal(d.values, eager_derivative(eager_field(LAT_GEN, C), "D").values)

    def test_floor_skips_samples_when_no_bin_is_near_it(self):
        u = TrigPotential.from_half_modes(LAT_GEN, random_half_modes(6, budget=3, scale=0.2))
        du = u.to_field(64).derivative("D")
        du.derivative("Dbar")
        assert du._values is None

    def test_real_product_with_imaginary_drift_raises(self):
        # real-tagged operands whose spectrum is not Hermitian: the real
        # product builds, and its samples fail the reality check on their
        # first read; a complex product runs no check
        n = 64
        pot = TrigPotential.from_half_modes(LAT, random_half_modes(7, budget=3))
        u, bad = pot.to_field(n), pot.to_field(n)
        C = eager_potential(pot, n).C
        C[1, 2] += 1e-6 * n * n
        bad._block = field_module._cut_to_band(np.fft.fftshift(C))
        real = product([(1.0, (bad, u))])
        assert real.real_tag and real._values is None
        with pytest.raises(ValueError, match="imaginary"):
            real.values
        assert real._values is None
        assert product([(1j, (bad, u))]).values.imag.any()

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN])
    def test_potential_samples_form_on_read(self, lattice):
        # to_field keeps the placed spectrum; its samples are the eager
        # ones, projected onto the real axis, once read
        n = 64
        pot = TrigPotential.from_half_modes(lattice, random_half_modes(8, budget=3))
        u = pot.to_field(n)
        assert u.real_tag and u._values is None
        assert np.array_equal(u.values, eager_potential(pot, n).values)
        assert not u.values.imag.any()

    @staticmethod
    def _count_full_inverse_transforms(monkeypatch, n):
        """The list that collects one entry per n x n inverse transform from
        now on: an ifft2 of an n x n array, or the closing axis-0 pass of
        one that field._samples runs axis by axis."""
        grids = []
        ifft, ifft2 = field_module.fft.ifft, field_module.fft.ifft2

        def counted2(x, *args, **kw):
            if x.shape == (n, n):
                grids.append(x.shape)
            return ifft2(x, *args, **kw)

        def counted(x, *args, axis=-1, **kw):
            if x.shape == (n, n) and axis == 0:
                grids.append(x.shape)
            return ifft(x, *args, axis=axis, **kw)

        monkeypatch.setattr(field_module.fft, "ifft2", counted2)
        monkeypatch.setattr(field_module.fft, "ifft", counted)
        return grids

    def test_objective_transforms_one_grid(self, monkeypatch):
        # r, one polynomial; the potential's samples are never formed and
        # derivative results are never transformed back.  The first
        # potential's row windings prove its zero from r's coefficients, so
        # not even r's samples are formed; the s-only one never certifies,
        # and its polish reads r's samples, one grid
        n = 96
        u = TrigPotential.from_half_modes(LAT_GEN, random_half_modes(1, budget=3, scale=0.1))
        s_only = TrigPotential.from_half_modes(LAT_GEN, {(1, 0): 0.2, (2, 0): 0.05j})
        expected = [min_modulus_objective(v, n) for v in (u, s_only)]
        grids = self._count_full_inverse_transforms(monkeypatch, n)
        tally = dict.fromkeys(("windings", "polish", "degenerate", "nonzero"), 0)
        assert min_modulus_objective(u, n, tally=tally) == expected[0]
        assert len(grids) == 0 and tally["windings"] == 1
        assert min_modulus_objective(s_only, n, tally=tally) == expected[1]
        assert len(grids) == 1 and tally["polish"] == 1

    @pytest.mark.parametrize("form", ["p_form", "divergence_form"])
    def test_reading_r_transforms_one_grid(self, monkeypatch, form):
        n = 96
        u = TrigPotential.from_half_modes(
            LAT_GEN, random_half_modes(2, budget=3, scale=0.1)).to_field(n)
        grids = self._count_full_inverse_transforms(monkeypatch, n)
        cartan_r(u, form).values
        assert len(grids) == 1


class TestFullBandBlock:
    """Fields built from samples count as band n/2 and products of them keep
    K = n/2: the n x n block, its Nyquist bins whole.  Their chains are
    those of the eager chain bit for bit."""

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN])
    @pytest.mark.parametrize("n", [64, 96, 128])
    def test_sample_built_chains_match_eager_bitwise(self, lattice, n):
        u = random_band_limited(n + 3, lattice, n=n)
        ref = eager_samples(u)
        for form, eager in (("p_form", eager_p_form), ("divergence_form", eager_divergence_form)):
            assert np.array_equal(cartan_r(u, form).values, eager(ref).values)
        K, ref_K = gauss_curvature(u), eager_gauss_curvature(ref)
        assert np.array_equal(K.values, ref_K.values)
        half = eager_pointwise(ref, lambda f: f.scale(0.5))
        assert np.array_equal(covariant_hessian_zz(K, u.scale(0.5)).values,
                              eager_covariant_hessian(ref_K, half).values)
        # a product of exp fields, lifted with K = n/2 and differentiated
        a, b = u.exp(), u.scale(-0.5).exp()
        prod = a.mul(b)
        assert a._band() == n // 2 and prod._band() == n // 2
        ref_prod = eager_product([(1.0, (eager_pointwise(ref, lambda f: f.exp()),
                                         eager_pointwise(ref, lambda f: f.scale(-0.5).exp())))])
        assert np.array_equal(prod.values, ref_prod.values)
        for direction in ("D", "Dbar"):
            assert np.array_equal(prod.derivative(direction).values,
                                  eager_derivative(ref_prod, direction).values)


    def test_samples_are_transformed_once(self, monkeypatch):
        # D, Dbar, a product and an evaluation of one field built from
        # samples read the one spectrum it forms on first use: its samples
        # centred, denoised and their sum in the constant bin
        n = 64
        f = random_band_limited(11, LAT_GEN, n=n).add(
            random_band_limited(12, LAT_GEN, n=n).scale(1j)).shift(3.0)
        transforms = []
        fft2 = field_module.fft.fft2
        monkeypatch.setattr(field_module.fft, "fft2",
                            lambda x, *args, **kw: transforms.append(x.shape) or fft2(x, *args, **kw))
        d, dbar = f.derivative("D"), f.derivative("Dbar")
        cube = product([(1.0, (f, f, f))])
        f.evaluate_st([0.1], [0.2])
        monkeypatch.undo()
        assert transforms == [(n, n)]
        assert np.array_equal(f._spectral_block(), np.fft.fftshift(sampled_spectrum(f)))
        ref = eager_samples(f)
        for direction, got in (("D", d), ("Dbar", dbar)):
            assert np.array_equal(got.values, eager_derivative(ref, direction).values)
        assert np.array_equal(cube.values, product_2n([(1.0, (f, f, f))]))


class TestEvaluation:
    def test_matches_samples(self):
        # edge refinement takes the values at grid nodes from the samples
        f = random_band_limited(9, LAT_GEN, n=64).add(
            random_band_limited(10, LAT_GEN, n=64).scale(1j))
        S, T = grid_st(64)
        vals = f.evaluate_st(S.ravel(), T.ravel()).reshape(64, 64)
        assert np.max(np.abs(vals - f.values)) <= 1e-13 * f.sup_norm()

    def test_off_grid_closed_form(self):
        n = 64
        f = periodic_from_function(
            LAT, n, lambda S, T: np.sin(2 * np.pi * S) * np.cos(2 * np.pi * T),
            real_tag=True)
        v = f.evaluate_st([0.123], [0.456])[0]
        assert abs(v - np.sin(2 * np.pi * 0.123) * np.cos(2 * np.pi * 0.456)) < 1e-13

    def test_batch_matches_double_sum_and_single_points(self):
        n = 64
        f = random_band_limited(3, LAT_GEN, n=n).add(
            random_band_limited(4, LAT_GEN, n=n).scale(1j))
        rng = np.random.default_rng(6)
        s, t = rng.uniform(-1.0, 2.0, 37), rng.uniform(-1.0, 2.0, 37)
        batch = f.evaluate_st(s, t)
        single = np.array([f.evaluate_st(a, b)[0] for a, b in zip(s, t)])
        # direct double sum over frequencies -n/2..n/2, the Nyquist bins split
        freqs = np.arange(-(n // 2), n // 2 + 1)
        weight = np.where(np.abs(freqs) == n // 2, 0.5, 1.0)
        C = np.fft.fft2(f.values)[np.ix_(freqs % n, freqs % n)] / n ** 2
        C *= np.outer(weight, weight)
        J, K = np.meshgrid(freqs, freqs, indexing="ij")
        direct = np.array([np.sum(C * np.exp(2j * np.pi * (J * a + K * b)))
                           for a, b in zip(s, t)])
        scale = f.sup_norm()
        assert np.max(np.abs(batch - direct)) <= 1e-14 * scale
        assert np.max(np.abs(batch - single)) <= 1e-14 * scale

    def test_jet_matches_derivative_fields(self):
        # the jet differentiates the interpolant evaluate_at uses; without
        # Nyquist content that is the interpolant of the derivative fields
        f = random_band_limited(5, LAT_GEN, n=64).add(
            random_band_limited(6, LAT_GEN, n=64).scale(1j))
        rng = np.random.default_rng(8)
        z = rng.uniform(-1.0, 2.0, 25) + 1j * rng.uniform(-1.0, 2.0, 25)
        value, d, dbar = f.jet_at(z)
        assert np.array_equal(value, f.evaluate_at(z))
        for direction, got in (("D", d), ("Dbar", dbar)):
            g = f.derivative(direction)
            assert np.max(np.abs(got - g.evaluate_at(z))) <= 1e-12 * g.sup_norm()

    def test_band_block_matches_full_rows(self):
        # r keeps its spectrum (one product) with band 9; its
        # samples, which a field built from them evaluates on full-width
        # rows, -n/2..n/2, are the reference
        n = 64
        u = TrigPotential.from_half_modes(LAT_GEN, random_half_modes(2, budget=3, scale=0.1))
        r = cartan_r(u.to_field(n), "p_form")
        full = PeriodicField(LAT_GEN, r.values)
        S, T = grid_st(n)
        rng = np.random.default_rng(3)
        s = np.concatenate([S.ravel(), rng.uniform(-1.0, 2.0, 50)])
        t = np.concatenate([T.ravel(), rng.uniform(-1.0, 2.0, 50)])
        scale = r.sup_norm()
        got = r.evaluate_st(s, t)
        assert r._band() == 9 and full._band() == n // 2
        assert np.max(np.abs(got - full.evaluate_st(s, t))) <= 1e-14 * scale
        assert np.max(np.abs(got[:n * n] - r.values.ravel())) <= 1e-14 * scale
        z = LAT_GEN.st_to_z(s, t)
        for part, ref in zip(r.jet_at(z), full.jet_at(z)):
            assert np.max(np.abs(part - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_evaluate_at_is_periodic(self):
        f = random_band_limited(2, LAT_GEN, n=64)
        z = 0.3 + 0.2j
        z_shift = z + 1.0 + LAT_GEN.omega
        assert abs(f.evaluate_at(z)[0] - f.evaluate_at(z_shift)[0]) < 1e-12

    def test_interpolant_formed_once_per_field(self, monkeypatch):
        # a full-band field forms its interpolant on the first evaluation and
        # keeps it; later evaluations give the same bits as a fresh field
        rng = np.random.default_rng(4)
        values = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        f = PeriodicField(LAT_GEN, values)
        formed = []
        interpolant = field_module._interpolant
        monkeypatch.setattr(field_module, "_interpolant",
                            lambda B, n: formed.append(n) or interpolant(B, n))
        s, t = rng.uniform(-1.0, 2.0, 7), rng.uniform(-1.0, 2.0, 7)
        first = f.evaluate_st(s, t)
        second = f.evaluate_st(s, t)
        f.jet_at(LAT_GEN.st_to_z(s, t))
        assert formed == [32]
        assert first.tobytes() == second.tobytes()
        assert PeriodicField(LAT_GEN, values).evaluate_st(s, t).tobytes() == first.tobytes()


def contract_fields():
    """Fields of every row length the pipelines evaluate, by L = 2 band + 1:
    the invariant r of trigonometric potentials of bands 2 and 3 (L = 13
    and 19), and fields built from samples at n = 128 and 256, which
    evaluate at full band (L = 129 and 257).  numpy and umbilic only."""
    rng = np.random.default_rng(12)
    fields = []
    for budget in (2, 3):
        half = {(j, k): 0.1 * complex(*rng.normal(size=2))
                for j in range(-budget, budget + 1) for k in range(budget + 1) if k > 0 or j > 0}
        fields.append(cartan_r(TrigPotential.from_half_modes(LAT_GEN, half).to_field(64), "p_form"))
    for n in (128, 256):
        fields.append(PeriodicField(LAT_GEN, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))
    return fields


class TestEvaluationContract:
    """A point's value and jet are bit for bit the same alone, in any batch
    and at any position: the multi-start polish rests on it.  numpy promises no such thing of a batched
    matrix product (its rounding can depend on the row count and on the BLAS
    build), so this checks the running machine."""

    SIZES = [*range(1, 41), 63, 64, 65, 100, 128, 129, 255, 256, 257, 300]

    @pytest.mark.parametrize("L, f", zip([13, 19, 129, 257], contract_fields()),
                             ids=["L13", "L19", "L129", "L257"])
    def test_any_batch_is_each_point_alone(self, L, f):
        assert f._rows(0.0, 0.0)[0].shape == (L, L)
        rng = np.random.default_rng(L)
        s, t = rng.uniform(-1.0, 2.0, (2, 300))
        z = LAT_GEN.st_to_z(s, t)
        value = np.array([f.evaluate_st(s[i:i + 1], t[i:i + 1])[0] for i in range(300)])
        jet = np.array([[x[0] for x in f.jet_at(z[i:i + 1])] for i in range(300)]).T
        for m in self.SIZES:
            assert np.array_equal(f.evaluate_st(s[:m], t[:m]), value[:m])
            assert np.array_equal(f.jet_at(z[:m]), jet[:, :m])
        order = rng.permutation(300)
        assert np.array_equal(f.evaluate_st(s[order], t[order]), value[order])
        assert np.array_equal(f.jet_at(z[order]), jet[:, order])


def grid_field(kind):
    """A complex field on an oblique torus or on a chart, for the grid facts."""
    if kind == "torus":
        return random_band_limited(5, LAT_GEN, n=32).add(
            random_band_limited(6, LAT_GEN, n=32).scale(1j))
    return ChartGrid.from_function("c1", 1.2, 33, lambda Z: np.exp(Z) * (Z - 0.2j))


@pytest.mark.parametrize("kind", ["torus", "chart"])
class TestGridFacts:
    """The grid facts zero location reads, under the same names on both
    field types."""

    def test_corners_evaluate_to_samples(self, kind):
        f = grid_field(kind)
        ij = [(0, 0), (3, 7), (f.n - 1, 5), (f.n - 2, f.n - 1)]
        for i, j in ij:
            got = f.evaluate_st(*f.corner_st(i, j))[0]
            assert abs(got - f.values[i, j]) <= 1e-13 * f.sup_norm()
            assert abs(f.evaluate_at(f.corner_z(i, j))[0] - got) <= 1e-13 * f.sup_norm()
        assert f.chart_id == ("torus" if f.periodic else "c1")
        assert f.orientation == 1

    def test_cell_size_bounds_cells(self, kind):
        f = grid_field(kind)
        nc = f.n if f.periodic else f.n - 1
        i, j = (a.ravel() for a in np.meshgrid(np.arange(nc), np.arange(nc), indexing="ij"))

        def gap(a, b):
            return np.max(f.distance(f.corner_z(i + a[0], j + a[1]),
                                     f.corner_z(i + b[0], j + b[1])))

        bound = f.cell_size * (1.0 + 1e-12)
        assert max(gap((0, 0), (1, 0)), gap((0, 0), (0, 1))) <= bound
        diagonal = max(gap((0, 0), (1, 1)), gap((1, 0), (0, 1)))
        if f.periodic:
            assert diagonal <= bound
        else:  # a chart's cell size is its side
            assert diagonal == pytest.approx(np.sqrt(2.0) * f.cell_size, rel=1e-12)

    def test_distance(self, kind):
        f = grid_field(kind)
        z = complex(f.corner_z(3, 5))
        assert f.distance(z, z) == 0.0
        near = f.distance(z, np.array([z + f.cell_size, z - 1j * f.cell_size]))
        assert near == pytest.approx([f.cell_size] * 2, rel=1e-12)
        if f.periodic:
            assert f.distance(z, z + 1.0 + f.lattice.omega) <= 1e-15

    def test_region(self, kind):
        f = grid_field(kind)
        m = f.mask(None)
        if f.periodic:
            assert m.shape == (f.n, f.n) and m.all()
        else:
            assert np.array_equal(m, np.abs(f.z_grid()) <= f.radius) and not m.all()
            for radius in (0.3, 1.0, float(np.abs(f.z_grid()[7, 20]))):  # the last, a node's |z|
                assert np.array_equal(f.mask(radius), np.abs(f.z_grid()) <= radius)
        assert f.sup_norm(None) == np.max(np.abs(f.values[m]))
        assert f.min_modulus(None) == np.min(np.abs(f.values[m]))


def fd_reference(values, h, direction):
    """D or Dbar of chart samples, row by row: each row's 9 nodes (centred,
    or the first or last nine within four rows of an edge) and its
    fd_weights, then D = (d/dx - i d/dy) / 2."""
    n = len(values)

    def partial(f):
        out = np.empty_like(f)
        for i in range(n):
            lo = min(max(i - 4, 0), n - 9)
            out[i] = field_module.fd_weights(i - lo, range(9), 1) @ f[lo:lo + 9] / h
        return out

    fx, fy = partial(values), partial(values.T).T
    return 0.5 * (fx - 1j * fy) if direction == "D" else 0.5 * (fx + 1j * fy)


class TestChartGrid:
    def test_spacing(self):
        ch = ChartGrid("c1", 1.5, np.zeros((61, 61)), real_tag=True)
        assert ch.cell_size == pytest.approx(3.0 / 60)

    def test_polynomial_derivatives_exact(self):
        ch = ChartGrid.from_function("c1", 1.2, 64, lambda Z: Z ** 2)
        dz = ch.derivative("D")
        dzb = ch.derivative("Dbar")
        Z = ch.z_grid()
        assert np.max(np.abs(dz.values - 2 * Z)) < 1e-11
        assert np.max(np.abs(dzb.values)) < 1e-11

    @pytest.mark.parametrize("direction", ["D", "Dbar"])
    def test_degree_8_polynomials_exact_on_every_row(self, direction):
        # 9-point rows, centred and one-sided, are exact to rounding on
        # polynomials of degree 8 in x (any y) and in y (any x)
        rng = np.random.default_rng(3)
        c = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        poly = np.polynomial.polynomial
        ch = ChartGrid.from_function("c1", 1.3, 33, lambda Z: poly.polyval2d(Z.real, Z.imag, c))
        X, Y = ch.z_grid().real, ch.z_grid().imag
        fx = poly.polyval2d(X, Y, poly.polyder(c, axis=0))
        fy = poly.polyval2d(X, Y, poly.polyder(c, axis=1))
        exact = 0.5 * (fx - 1j * fy) if direction == "D" else 0.5 * (fx + 1j * fy)
        err = np.abs(ch.derivative(direction).values - exact)
        # one-sided rows weigh the samples by up to about 70 / h in l1
        # (7.4e-15 of sup|f| / h seen, at the edges)
        assert np.max(err) <= 1e-13 * np.max(np.abs(ch.values)) / ch.cell_size

    @pytest.mark.parametrize("n", [9, 33, 128])
    def test_derivative_matches_row_by_row_weights(self, n):
        rng = np.random.default_rng(n)
        big = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        dense = big[:n, :n].copy()
        strided = big[::2, 1::2]  # a non-contiguous values array
        for values in (dense, strided, dense.T):
            ch = ChartGrid("c1", 0.7, values)
            assert ch.values.flags.c_contiguous == (values is dense)
            for direction in ("D", "Dbar"):
                ref = fd_reference(values, ch.cell_size, direction)
                got = ch.derivative(direction).values
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [9, 33, 128])
    def test_real_samples_and_pairs_match_the_complex_path_bitwise(self, n):
        # a real-tagged grid differentiates its real samples alone, and
        # wirtinger() forms D and Dbar from one pair of partials: each gives
        # the bits of an untagged grid's derivative, zero signs included.
        # Zero blocks, -0 samples and repeated rows and columns make exact
        # zero partials.
        rng = np.random.default_rng(n)
        big = rng.standard_normal((2 * n, 2 * n))
        big[: n // 2, : n // 3] = 0.0
        big[rng.random(big.shape) < 0.1] = -0.0
        big[n // 2 + 1] = big[n // 2 - 1]
        big[:, n // 2 + 1] = big[:, n // 2 - 1]
        big = big.astype(complex)  # imaginary parts +0, as a real-tagged grid holds
        dense = big[:n, :n].copy()
        for values in (dense, big[::2, 1::2], dense.T):
            untagged = ChartGrid("c1", 0.7, values)
            tagged = ChartGrid("c1", 0.7, values, real_tag=True)
            expected = [untagged.derivative(d).values.tobytes() for d in ("D", "Dbar")]
            for got in ([tagged.derivative(d) for d in ("D", "Dbar")],
                        tagged.wirtinger(), untagged.wirtinger()):
                assert [g.values.tobytes() for g in got] == expected
                assert not any(g.real_tag for g in got)

    @pytest.mark.parametrize("n", [9, 33, 128])
    def test_real_laplacian_is_the_real_part_of_dbar_d(self, n):
        # four real passes give Re Dbar(D u) bit for bit, up to zero signs
        u = ChartGrid.from_function("c1", 1.6, n, lambda Z: np.cos(3 * Z.real) * np.log1p(
            np.abs(Z) ** 2) + Z.imag ** 3, real_tag=True)
        got = field_module._fd_d_dbar(u.values.real, u.cell_size)
        expected = u.derivative("D").derivative("Dbar").values.real
        assert np.abs(got).tobytes() == np.abs(expected).tobytes()

    def test_derivative_keeps_no_state(self):
        # each derivative is formed afresh: the field gains no attribute
        # and its samples are left as they were
        for tagged, fn in ((False, lambda Z: np.exp(Z) * np.conj(Z)),
                           (True, lambda Z: np.cos(Z.real) * np.exp(-Z.imag ** 2))):
            ch = ChartGrid.from_function("c1", 1.0, 64, fn, real_tag=tagged)
            before, samples = dict(vars(ch)), ch.values.copy()
            for direction in ("D", "Dbar", "D"):
                ch.derivative(direction)
            ch.wirtinger()
            ch.wirtinger()
            assert vars(ch).keys() == before.keys()
            assert all(vars(ch)[key] is value for key, value in before.items())
            assert ch.values.tobytes() == samples.tobytes()

    def test_smooth_function_accuracy(self):
        ch = ChartGrid.from_function("c1", 1.5, 192,
                                     lambda Z: -2 * np.log1p(np.abs(Z) ** 2),
                                     real_tag=True)
        ddb = ch.derivative("D").derivative("Dbar")
        Z = ch.z_grid()
        exact = -2.0 / (1 + np.abs(Z) ** 2) ** 2
        assert np.max(np.abs(ddb.values - exact)[ch.mask(1.0)]) < 1e-10

    def test_mask_region(self):
        ch = ChartGrid.from_function("c1", 1.0, 33, lambda Z: np.abs(Z) ** 2,
                                     real_tag=True)
        assert ch.sup_norm(0.5) == pytest.approx(0.25, abs=0.01)
        assert ch.sup_norm() == pytest.approx(1.0, abs=0.01)

    def test_spline_evaluation(self):
        ch = ChartGrid.from_function("c1", 1.0, 128, lambda Z: np.exp(Z))
        pts = np.array([0.1 + 0.2j, -0.3 + 0.05j])
        vals = ch.evaluate_at(pts)
        assert np.max(np.abs(vals - np.exp(pts))) < 1e-7

    def test_jet_matches_fd_derivatives_inside(self):
        # spline partials against the 8th-order FD derivative fields, both
        # evaluated by the spline, at interior points: a bicubic derivative
        # is accurate to O(h^3), so agreement is 1e-6 of the derivative's
        # size here (4.9e-8 seen)
        ch = ChartGrid.from_function("c1", 1.0, 128,
                                     lambda Z: np.exp(Z) + Z * np.conj(Z) ** 2)
        rng = np.random.default_rng(9)
        z = rng.uniform(-0.6, 0.6, 25) + 1j * rng.uniform(-0.6, 0.6, 25)
        value, d, dbar = ch.jet_at(z)
        assert np.array_equal(value, ch.evaluate_at(z))
        for direction, got in (("D", d), ("Dbar", dbar)):
            g = ch.derivative(direction)
            assert np.max(np.abs(got - g.evaluate_at(z))) <= 1e-6 * g.sup_norm(0.6)

    @pytest.mark.parametrize("n", [9, 64, 128, 256, 1024])
    def test_spline_matches_fitpack(self, n):
        # the numpy spline is FITPACK's interpolating bicubic spline: values
        # agree to 1e-13 of the largest value, x and y partials to 3e-12 of
        # the largest partial (1e-15 and 5.3e-13 seen), at nodes and inside
        ch = ChartGrid.from_function(
            "c1", 1.5, n, lambda Z: np.log1p(np.abs(Z) ** 2) + 0.3 * np.sin(3 * Z.real)
            * np.cos(2 * Z.imag) + 1j * np.cos(Z.real * Z.imag))
        rng = np.random.default_rng(n)
        nodes = rng.integers(n, size=(2, 200))
        x = np.concatenate([ch.axis()[nodes[0]], rng.uniform(-1.5, 1.5, 300)])
        y = np.concatenate([ch.axis()[nodes[1]], rng.uniform(-1.5, 1.5, 300)])
        value, fx, fy = fitpack_chart_spline(ch, x, y)
        assert np.max(np.abs(ch.evaluate_st(x, y) - value)) <= 1e-13 * np.max(np.abs(value))
        f, d, dbar = ch.jet_at(x + 1j * y)
        assert np.array_equal(f, ch.evaluate_st(x, y))
        for got, ref in ((d + dbar, fx), (1j * (d - dbar), fy)):
            assert np.max(np.abs(got - ref)) <= 3e-12 * np.max(np.abs(ref))

    def test_spline_holds_only_its_coefficients(self):
        # the first evaluation keeps the (n + 2) x (n + 2) coefficients and
        # holds one (n + 2) x n array beside them while solving; a dense
        # slope matrix and 2n x 2n nodal data would take about 11.5 n^2
        n = 256
        rng = np.random.default_rng(5)
        ch = ChartGrid("c1", 1.0, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ch.evaluate_at(0.1 + 0.2j)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 16

    def test_spline_clamps_to_the_square(self):
        # FITPACK's ev clamps points to the square: (1.2, y) reads (1, y)
        ch = ChartGrid.from_function("c1", 1.0, 32, lambda Z: np.exp(Z) + Z.imag)
        x, y = np.array([1.2, -3.0, 0.4, 2.0]), np.array([0.3, -0.5, -1.7, 2.0])
        clamped = np.clip(x, -1, 1), np.clip(y, -1, 1)
        assert np.array_equal(ch.evaluate_st(x, y), ch.evaluate_st(*clamped))
        ref = fitpack_chart_spline(ch, x, y)[0]
        assert np.max(np.abs(ch.evaluate_st(x, y) - ref)) <= 1e-13 * np.max(np.abs(ref))


def sampled(kind, value, n=10, real_tag=False):
    """A constant field of the given representation on an n x n grid."""
    values = np.full((n, n), value, dtype=complex)
    if kind == "periodic":
        return PeriodicField(LAT, values, real_tag=real_tag)
    return ChartGrid("c1", 1.0, values, real_tag=real_tag)


@pytest.mark.parametrize("kind", ["periodic", "chart"])
class TestSharedArithmetic:
    def test_real_tag_propagation(self, kind):
        f = sampled(kind, 2.0, real_tag=True)
        g = sampled(kind, 3.0, real_tag=True)
        c = sampled(kind, 1.0 + 1.0j)
        cases = [
            (f.add(g), True, 5.0), (f.add(c), False, 3.0 + 1.0j),
            (f.scale(-2.0), True, -4.0), (f.scale(1j), False, 2.0j),
            (f.shift(0.5), True, 2.5), (f.shift(0.5j), False, 2.0 + 0.5j),
            (f.exp(), True, np.exp(2.0)), (c.exp(), False, np.exp(1.0 + 1.0j)),
            (f.log(), True, np.log(2.0)), (c.log(), False, np.log(1.0 + 1.0j)),
            (f.scale(-1.0).log(), False, np.log(-2.0 + 0j)),
        ]
        for out, tag, value in cases:
            assert type(out) is type(f)
            assert out.real_tag is tag
            assert np.max(np.abs(out.values - value)) < 1e-15
        with pytest.raises(ValueError):
            c.real_part()

    def test_domain_errors(self, kind):
        z = sampled(kind, 0.0, real_tag=True)
        with pytest.raises(DomainError):
            z.log()
        with pytest.raises(DomainError):
            sampled(kind, 710.0, real_tag=True).exp()

    def test_mismatched_grids_rejected(self, kind):
        f = sampled(kind, 1.0)
        g = sampled(kind, 1.0, n=12)
        for op in (f.add, f.mul):
            with pytest.raises(ValueError):
                op(g)
        if kind == "periodic":
            other = PeriodicField(LAT_GEN, f.values)
        else:
            other = ChartGrid("c1", 2.0, f.values)
        with pytest.raises(ValueError):
            f.add(other)

    def test_mixed_representations_rejected(self, kind):
        f = sampled(kind, 1.0)
        other = sampled("chart" if kind == "periodic" else "periodic", 1.0)
        for op in (f.add, f.mul):
            with pytest.raises(TypeError):
                op(other)
