import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic import torussearch
from umbilic.cartan import cartan_r
from umbilic.cli import parse_config, run
from umbilic.errors import DomainError, SymmetryViolated, TotallyDegenerate
from umbilic.field import PeriodicField, TorusLattice
from umbilic.index import _polish
from umbilic.torussearch import (SearchConfig, SymmetryDirection, TrigPotential,
                                 _certified_roots, _decode_modes, _line,
                                 _lowest_separated_cells, _nelder_mead, _profile,
                                 chern_normalize, chern_number,
                                 min_modulus_objective,
                                 symmetric_obstruction_check, torus_search)

from _oracles import (eager_derivative, eager_potential, lowest_separated_cells_full,
                      obstruction_chain_2d, one_directional, profile_padded,
                      random_half_modes, scipy_nelder_mead)

LAT = TorusLattice(1j)
LAT_GEN = TorusLattice(0.3 + 1.1j)


def obstruction_pool() -> dict:
    """{job id: config} of the obstruction benchmark's pool, 8 configs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return dict(sorted(workloads.pool("obstruction").items()))


OBSTRUCTION_POOL = obstruction_pool()


def pool_potential(cfg) -> TrigPotential:
    return parse_config(cfg)[1]["potential"]


def grid_chern(u: TrigPotential, n: int = 256) -> float:
    """The trapezoid rule for the Chern number on to_field's n x n grid."""
    return float(u.lattice.cell_area * np.mean(np.exp(u.to_field(n).values.real)) / np.pi)


# one-line potentials of the Chern agreement tests: each line on each
# lattice, a profile with modes 1..3 along it and a constant mode
LINE_LATTICES = {"square": 1j, "oblique": 0.3 + 1.1j, "hexagonal": 0.5 + 0.866j,
                 "skew": 1.3 + 1.1j}
LINES = [(1, 0), (0, 1), (1, -1), (2, 1), (3, -2)]
LINE_PROFILE = {1: 0.21 - 0.08j, 2: -0.05 + 0.04j, 3: 0.012j}


def line_potential(omega, jk, profile=LINE_PROFILE, constant=0.3) -> TrigPotential:
    return one_directional(TorusLattice(omega), jk, profile)[0].shifted(constant)


# the one-line potentials of the agreement tests, with the line (j0, k0)
# of each: the non-primitive mode set {(2, 0), (4, 0)} lies on (1, 0)
AGREEMENT = {f"{name}-{j},{k}": (line_potential(om, (j, k)), (j, k))
             for name, om in LINE_LATTICES.items() for j, k in LINES}
AGREEMENT["non-primitive"] = (TrigPotential.from_half_modes(
    LAT_GEN, {(2, 0): 0.15 + 0.1j, (4, 0): -0.04}), (1, 0))
AGREEMENT["no-constant"] = (line_potential(1j, (2, 1), {1: 0.3}, constant=0.0), (2, 1))


class TestTrigPotential:
    def test_reality_enforced(self):
        with pytest.raises(ValueError):
            TrigPotential(LAT, {(1, 0): 1.0 + 0.5j})
        with pytest.raises(ValueError):
            TrigPotential(LAT, {(0, 0): 1j})

    def test_half_mode_construction(self):
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 0.5 + 0.25j})
        assert pot.modes[(-1, 0)] == 0.5 - 0.25j

    def test_field_matches_direct_evaluation(self):
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 0.2, (1, 1): 0.1j})
        n = 32
        f = pot.to_field(n)
        s = np.arange(n) / n
        S, T = np.meshgrid(s, s, indexing="ij")
        direct = np.zeros((n, n), dtype=complex)
        for (j, k), c in pot.modes.items():
            direct += c * np.exp(2j * np.pi * (j * S + k * T))
        assert np.max(np.abs(f.values - direct)) < 1e-12
        assert f.real_tag

    def test_field_keeps_exact_hermitian_spectrum(self):
        pot = TrigPotential(LAT_GEN, {(2, 1): 0.3 + 0.1j, (-2, -1): 0.3 - 0.1j + 1e-14j,
                                      (0, 0): 0.5})
        n = 16
        f = pot.to_field(n)
        # the exact Hermitian placement, zero off its three bins; the
        # derivatives read exactly it, not a transform of the samples
        ref = eager_potential(pot, n)
        C = ref.C
        assert np.array_equal(C, np.conj(np.roll(C[::-1, ::-1], 1, axis=(0, 1))))
        assert np.max(np.abs(C - np.fft.fft2(f.values))) <= 1e-14 * n * n
        outside = np.ones((n, n), dtype=bool)
        for j, k in ((0, 0), (2, 1), (-2, -1)):
            outside[j % n, k % n] = False
        assert np.all(C[outside] == 0.0) and f._band() == 2
        assert np.array_equal(f.values, ref.values)
        for direction in ("D", "Dbar"):
            assert np.array_equal(f.derivative(direction).values,
                                  eager_derivative(ref, direction).values)

    def test_mode_budget(self):
        pot = TrigPotential.from_half_modes(LAT, {(2, 1): 0.1, (0, 3): 0.05})
        assert pot.mode_budget == 3


class TestObjective:
    def test_constant_is_degenerate_zero(self):
        assert min_modulus_objective(TrigPotential(LAT, {(0, 0): 0.7}), 64) == 0.0

    def test_one_directional_forced_to_zero(self):
        # 0.4 cos(2 pi s): the symmetry obstruction forces zeros of the
        # invariant, which the refined minimum then pins to exactly 0
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 0.2})
        assert min_modulus_objective(pot, 128) == 0.0

    def test_mixed_potential_in_range_and_shift_invariant(self):
        pot = TrigPotential.from_half_modes(
            LAT, {(1, 0): 0.15, (0, 1): -0.1j, (1, 1): 0.05})
        v = min_modulus_objective(pot, 128)
        assert 0.0 <= v < 1.0
        v5 = min_modulus_objective(pot.shifted(5.0), 128)
        assert abs(v - v5) <= 1e-10

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            min_modulus_objective(TrigPotential(LAT, {(0, 0): 0.0}), 32)

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_resolution_stability(self, seed):
        # band-limited potentials evaluate consistently across a grid doubling
        pot = TrigPotential.from_half_modes(LAT, random_half_modes(seed, scale=0.12))
        o1 = min_modulus_objective(pot, 96)
        o2 = min_modulus_objective(pot, 192)
        top = max(o1, o2)
        assert top == 0.0 or abs(o1 - o2) <= 0.1 * top


def full_polish_objective(u, n, zero_ratio=1e-9):
    """The objective recomputed with the reference start walk and a polish
    that runs every start to its end."""
    r = cartan_r(u.to_field(n), "p_form")
    A = np.abs(r.values)
    starts = [u.lattice.st_to_z(i / n, j / n)
              for i, j in lowest_separated_cells_full(A, count=4, min_sep=4)]
    cell = (1.0 + abs(u.lattice.omega)) / n
    ratio = min(float(A.min()), float(_polish(r, starts, 2.5 * cell)[1].min())) / r.sup_norm()
    return 0.0 if ratio < zero_ratio else float(ratio)


class TestObjectiveStop:
    """The objective's polish ends once one start is below the zero
    threshold; its value is that of the polish run to the end."""

    def test_zero_decided_in_few_steps(self, monkeypatch):
        # the full polish makes 65 jet_at calls here: the starts that sit
        # near nonzero local minima creep until the step cap
        sizes = []
        jet = PeriodicField.jet_at

        def counted(self, z):
            sizes.append(np.size(z))
            return jet(self, z)

        monkeypatch.setattr(PeriodicField, "jet_at", counted)
        pot = TrigPotential.from_half_modes(LAT, random_half_modes(0, budget=3, scale=0.12))
        assert min_modulus_objective(pot, 96) == 0.0
        assert 1 <= len(sizes) <= 8

    def test_same_value_as_full_polish(self, monkeypatch):
        seen = []
        objective = torussearch.min_modulus_objective

        def recorded(u, grid_n, **kw):
            seen.append(u)
            return objective(u, grid_n, **kw)

        monkeypatch.setattr(torussearch, "min_modulus_objective", recorded)
        rep = torus_search(SearchConfig(LAT_GEN, seed=0, trials=1, evaluations=5,
                                        grid_n=96, mode_budget=3))
        values = [v for _, v in rep.history]
        assert values[4] == 3.3797912795189796e-4 and values[:4] == [0.0] * 4
        for u, v in zip(seen, values):
            assert v == full_polish_objective(u, 96)
        for pot in (TrigPotential.from_half_modes(LAT, random_half_modes(0, budget=3, scale=0.12)),
                    TrigPotential.from_half_modes(LAT, {(1, 0): 0.2})):
            assert min_modulus_objective(pot, 96) == full_polish_objective(pot, 96) == 0.0

    @pytest.mark.parametrize("n", [64, 96, 128])
    def test_start_picks_match_full_walk(self, n):
        rng = np.random.default_rng(n)
        i = np.arange(n)[:, None]
        j = np.arange(n)[None, :]
        for trial in range(20):
            s0, t0 = rng.integers(n, size=2)
            arrays = [
                rng.random((n, n)),
                # few distinct values: ties everywhere
                rng.integers(0, 5, size=(n, n)).astype(float),
                # s-only fields repeat each row value across a whole row
                np.broadcast_to(np.abs(np.cos(2 * np.pi * (i + trial) / n * 3)), (n, n)),
                # one valley: every low sample lies near one point
                np.hypot(np.minimum((i - s0) % n, (s0 - i) % n),
                         np.minimum((j - t0) % n, (t0 - j) % n)),
            ]
            for A in arrays:
                for count, min_sep in ((4, 4), (3, 2), (6, 5)):
                    assert (_lowest_separated_cells(A, count, min_sep)
                            == lowest_separated_cells_full(A, count, min_sep))


class TestObstruction:
    def test_cosine_potential_has_zero_curves(self):
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 0.2})
        rep = symmetric_obstruction_check(pot, SymmetryDirection(0.0, 1.0))
        assert rep.zeros_found and rep.curve_offsets
        assert max(rep.residuals) <= 1e-6
        assert rep.dpsi_sign_change
        assert rep.proof_identity_residual <= 1e-7

    @pytest.mark.parametrize("n", [64, 128])
    def test_large_amplitude_uses_p_form(self, n):
        # 10 cos(2 pi s): the profile gives the four zero curves, and the
        # identity compares the 2-D P form with the proof path, the 1-D
        # chain in theta; neither samples an exponential, whose range here
        # is e^{20}
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 5.0})
        rep = symmetric_obstruction_check(pot, SymmetryDirection(0.0, 1.0), grid_n=n)
        assert len(rep.curve_offsets) == 4
        assert max(rep.residuals) <= 1e-6
        assert rep.dpsi_sign_change
        assert rep.proof_identity_residual <= 1e-7

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN], ids=["square", "oblique"])
    @pytest.mark.parametrize("jk", [(1, 0), (0, 1), (1, 1), (1, -1)],
                             ids=["1,0", "0,1", "1,1", "1,-1"])
    def test_proof_identity_to_rounding(self, lattice, jk):
        # Pu = b^2 (Y' - 2 Y'u)(Y' - Y'u) D Dbar u: the 2-D P form against
        # b^2 lam^2 |kappa|^2 Z1(theta) from u's coefficients; neither side
        # samples an exponential, so at 10 cos(2 pi xi) they agree to
        # rounding along every direction, b^2 = -1 / (4 c^2) included
        pot, Y = one_directional(lattice, jk, {1: 5.0})
        rep = symmetric_obstruction_check(pot, Y, grid_n=64)
        assert rep.proof_identity_residual <= 1e-13
        # and the 2-D P form agrees with kappa^3 conj(kappa) p(theta)
        assert rep.profile_identity_residual <= 1e-13

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN], ids=["square", "oblique"])
    @pytest.mark.parametrize("jk", [(1, 0), (0, 1), (1, 1), (1, -1)],
                             ids=["1,0", "0,1", "1,1", "1,-1"])
    @pytest.mark.parametrize("profile, n", [({1: 5.0}, 64),
                                            ({1: 0.12 - 0.05j, 2: 0.03 + 0.02j}, 128)],
                             ids=["amplitude5", "two-mode"])
    def test_psi_matches_the_2d_chain(self, lattice, jk, profile, n):
        # psi and the sign of Y'psi from the 1-D chain equal those of the
        # same chain taken on the 2-D field along Y'
        pot, Y = one_directional(lattice, jk, profile)
        rep = symmetric_obstruction_check(pot, Y, grid_n=n)
        psi, Z = obstruction_chain_2d(pot, Y, n)
        bound = 1e-12 * np.max(np.abs(psi))
        assert abs(rep.psi_min - np.min(psi)) <= bound
        assert abs(rep.psi_max - np.max(psi)) <= bound
        zscale = np.max(np.abs(Z))
        assert rep.dpsi_sign_change == bool(np.min(Z) < -1e-9 * zscale
                                            and np.max(Z) > 1e-9 * zscale)

    def test_overflowing_exponential_raises(self):
        # u = 1400 cos(2 pi s): e^{-2u} leaves the float range on the profile
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 700.0})
        with pytest.raises(DomainError):
            symmetric_obstruction_check(pot, SymmetryDirection(0.0, 1.0))

    def test_root_certificate_on_synthetic_profiles(self):
        # p = cos 2 pi theta: two sign changes, at 1/4 and 3/4
        roots, open_roots = _certified_roots(np.array([0.5, 0.0, 0.5]), 1e-15)
        assert open_roots == []
        assert np.allclose(roots, [0.25, 0.75], rtol=0.0, atol=1e-15)
        # p = 1 - cos 2 pi theta >= 0: a double root at 0, no sign change, so
        # no curve is certified and the root is reported, not dropped
        roots, open_roots = _certified_roots(np.array([-0.5, 1.0, -0.5]), 1e-15)
        assert roots == []
        assert len(open_roots) == 1 and min(open_roots[0], 1.0 - open_roots[0]) <= 1e-6
        # no midpoint clears tol: nothing separates the candidates, so both
        # sign changes of cos 2 pi theta are reported uncertified
        roots, open_roots = _certified_roots(np.array([0.5, 0.0, 0.5]), 2.0)
        assert roots == []
        assert np.allclose(open_roots, [0.25, 0.75], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN], ids=["square", "oblique"])
    @pytest.mark.parametrize("jk", [(1, 0), (0, 1), (1, 1), (1, -1)],
                             ids=["1,0", "0,1", "1,1", "1,-1"])
    def test_curves_do_not_depend_on_the_grid(self, lattice, jk):
        # the offsets come from u's modes alone, so every grid reports the
        # same curves bit for bit, and every sampled check holds on each
        pot, Y = one_directional(lattice, jk, {1: 0.12 - 0.05j, 2: 0.03 + 0.02j})
        reps = [symmetric_obstruction_check(pot, Y, grid_n=n) for n in (64, 96, 128, 256)]
        for rep in reps:
            assert rep.curve_offsets == reps[0].curve_offsets
            assert len(rep.curve_offsets) == len(reps[0].curve_offsets) == 4
            assert rep.uncertified_roots == []
            assert max(rep.residuals) <= 1e-14
            assert rep.profile_identity_residual <= 1e-13

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN], ids=["square", "oblique"])
    @pytest.mark.parametrize("jk", [(1, 0), (0, 1), (1, 1), (1, -1)],
                             ids=["1,0", "0,1", "1,1", "1,-1"])
    @pytest.mark.parametrize("length", [1e-200, 1e-100, 1e10, 1e100, 1e200])
    def test_report_does_not_depend_on_the_length_of_Y(self, lattice, jk, length):
        # Yu = 0 and the zero curves are statements about the line of Y, and
        # psi = e^{-u} Y'v is linear in Y: the check at length * Y reports
        # the same curves and identity, and psi scaled by the length
        pot, Y = one_directional(lattice, jk, {1: 0.12 - 0.05j, 2: 0.03 + 0.02j})
        ref = symmetric_obstruction_check(pot, Y)
        rep = symmetric_obstruction_check(
            pot, SymmetryDirection(Y.alpha * length, Y.beta * length))
        assert rep.curve_offsets == ref.curve_offsets
        assert rep.proof_identity_residual <= 1e-13
        for got, want in ((rep.psi_min, ref.psi_min), (rep.psi_max, ref.psi_max)):
            assert abs(got / length - want) <= 1e-12 * abs(want)

    def test_constant_is_degenerate(self):
        with pytest.raises(TotallyDegenerate):
            symmetric_obstruction_check(TrigPotential(LAT, {(0, 0): 0.4}),
                                        SymmetryDirection(0.0, 1.0))

    def test_wrong_direction_rejected(self):
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 0.2})
        with pytest.raises(SymmetryViolated):
            symmetric_obstruction_check(pot, SymmetryDirection(1.0, 0.0))

    def test_diagonal_direction_and_1d_oracle(self):
        pot, Y = one_directional(LAT, (1, 1), {1: 0.15, 2: 0.04})
        rep = symmetric_obstruction_check(pot, Y)
        assert rep.zeros_found and max(rep.residuals) <= 1e-6

        # 1-d reduction oracle: r = const * profile(xi) with
        # profile = U'''' - 3 U' U''' + 2 (U')^2 U'' - (U'')^2; zero
        # crossings of the reduced profile must match the cluster count
        m = 4096
        xi = np.arange(m) / m
        U = np.zeros(m)
        for k, c in {1: 0.15, 2: 0.04}.items():
            U += 2 * (c * np.exp(2j * np.pi * k * xi)).real
        freq = np.fft.fftfreq(m, 1 / m)
        der = lambda v, p: np.fft.ifft(np.fft.fft(v) * (2j * np.pi * freq) ** p).real
        prof = (der(U, 4) - 3 * der(U, 1) * der(U, 3)
                + 2 * der(U, 1) ** 2 * der(U, 2) - der(U, 2) ** 2)
        change = np.flatnonzero(np.sign(prof) != np.sign(np.roll(prof, -1)))
        assert change.size == len(rep.curve_offsets)
        # each curve's offset lies in the sampling interval of one sign change
        assert rep.curve_line == (1, 1)
        assert np.allclose(rep.curve_offsets, (change + 0.5) / m, rtol=0.0, atol=0.5 / m)

    def test_general_lattice(self):
        pot, Y = one_directional(LAT_GEN, (0, 1), {1: 0.18})
        rep = symmetric_obstruction_check(pot, Y)
        assert rep.zeros_found and max(rep.residuals) <= 1e-6

    @pytest.mark.parametrize("pot", [pool_potential(cfg) for cfg in OBSTRUCTION_POOL.values()]
                             + [pot for pot, _ in AGREEMENT.values()],
                             ids=[*OBSTRUCTION_POOL, *AGREEMENT])
    def test_profile_matches_the_padded_profile(self, pot):
        # summed into zeroed arrays in the order of the formulas, the
        # profile is bit for bit the one assembled from np.pad terms
        line, c, on_line = _line(pot)
        F, tol = _profile(c)
        ref_line, ref_F, ref_tol = profile_padded(pot)
        assert on_line and line == ref_line
        assert np.array_equal(F, ref_F) and tol == ref_tol

    def test_report_chern_is_chern_number(self):
        # one definition: the report takes its Chern number from the line
        # coefficients of its own profile, bit for bit chern_number's
        for cfg in OBSTRUCTION_POOL.values():
            report = run(cfg)
            assert report["results"]["chern_number_of_input"] == chern_number(
                pool_potential(cfg))

    def test_mode_off_the_line_keeps_the_grid(self):
        # a mode key off the line, small enough to pass the symmetry check,
        # sends the Chern number through the 2-D grid, in the report too
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 0.2, (0, 1): 1e-15})
        assert not _line(pot)[2]
        rep = symmetric_obstruction_check(pot, SymmetryDirection(0.0, 1.0))
        assert rep.chern_number == chern_number(pot) == grid_chern(pot)


class TestChern:
    @pytest.mark.parametrize("case", AGREEMENT)
    def test_one_line_route_agrees_with_the_grid(self, case):
        # the 256^2 grid takes each of the 256 values of theta 256 times, so
        # the mean of e^f over those values is the same quadrature
        pot, (j, k) = AGREEMENT[case]
        assert _line(pot)[0] in ((j, k), (-j, -k)) and _line(pot)[2]
        ref = grid_chern(pot)
        assert abs(chern_number(pot) - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("pot", [
        TrigPotential.from_half_modes(LAT_GEN, {(1, 0): 0.12, (0, 1): -0.07j, (1, 1): 0.05}),
        TrigPotential.from_half_modes(LAT, {(1, 0): 0.2, (2, 1): 0.05 - 0.02j}),
        TrigPotential(LAT_GEN, {(0, 0): 0.7}),
        TrigPotential(LAT, {}),
    ], ids=["criterion-11", "two-line", "constant", "zero"])
    def test_other_potentials_keep_the_grid(self, pot):
        assert chern_number(pot) == grid_chern(pot)

    def test_nodes_grow_with_the_mode_budget(self):
        # a mode budget h >= 128 does not fit on 256 nodes: the rule takes
        # the smallest even count above 2h, on the line and on the grid
        pot = TrigPotential.from_half_modes(LAT, {(1, 0): 0.1 + 0.05j, (130, 0): 1e-5})
        assert _line(pot)[2]
        ref = grid_chern(pot, 262)
        assert abs(chern_number(pot) - ref) <= 1e-15 * ref
        pot = TrigPotential.from_half_modes(LAT_GEN, {(1, 0): 0.1, (128, 1): 1e-5j})
        assert chern_number(pot) == grid_chern(pot, 258)

    @settings(max_examples=40, deadline=None)
    @given(shift=st.floats(-5.0, 5.0), two_line=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_shift_scales_the_chern_number(self, shift, two_line, seed):
        # u -> u + C multiplies the curvature integral by e^C, on either route
        rng = np.random.default_rng(seed)
        jk = LINES[rng.integers(len(LINES))]
        profile = {m: 0.1 * complex(*rng.normal(size=2)) for m in (1, 2)}
        pot = line_potential(list(LINE_LATTICES.values())[rng.integers(4)], jk, profile)
        if two_line:
            pot = TrigPotential(pot.lattice, {**pot.modes, (1, 1): 0.03, (-1, -1): 0.03})
        assert _line(pot)[2] != two_line
        got, want = chern_number(pot.shifted(shift)), np.exp(shift) * chern_number(pot)
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("c1", [1, 2, 3])
    def test_normalizes_a_one_line_potential(self, c1):
        # criterion 11's tolerance, on the one-line route
        for pot, _ in AGREEMENT.values():
            assert abs(chern_number(chern_normalize(pot, c1)) - c1) <= 1e-10 * c1

    def test_flat_potential_closed_form(self):
        u0 = TrigPotential(LAT, {})
        out = chern_normalize(u0, 1)
        assert abs(out.modes[(0, 0)] - np.log(np.pi)) < 1e-12
        assert abs(chern_number(out) - 1.0) <= 1e-10

    def test_idempotent(self):
        pot = TrigPotential.from_half_modes(LAT, random_half_modes(8, scale=0.1))
        once = chern_normalize(pot, 2)
        twice = chern_normalize(once, 2)
        assert abs(once.modes[(0, 0)] - twice.modes[(0, 0)]) < 1e-12

    def test_quadrature_and_invariance(self):
        pot = TrigPotential.from_half_modes(LAT_GEN, random_half_modes(5, scale=0.08))
        out = chern_normalize(pot, 2)
        assert abs(chern_number(out) - 2.0) <= 1e-10 * 2.0
        rA = cartan_r(pot.to_field(128), "p_form")
        rB = cartan_r(out.to_field(128), "p_form")
        assert np.max(np.abs(rA.values - rB.values)) <= 1e-10 * (1 + rA.sup_norm())

    def test_rejects_nonpositive_chern(self):
        with pytest.raises(ValueError):
            chern_normalize(TrigPotential(LAT, {}), 0)

    @pytest.mark.parametrize("two_line", [False, True], ids=["one-line", "grid"])
    @pytest.mark.parametrize("half", [{(1, 0): 400.0}, {(0, 0): -750.0, (1, 0): 1.0}],
                             ids=["overflow", "underflow"])
    def test_e_u_past_the_float_range_raises(self, two_line, half):
        # e^u reaches e^800, or stays below e^-748 (every sample 0): either would
        # make chern_normalize shift u by -inf or inf
        if two_line:
            half = {**half, (0, 1): 1.0}
        pot = TrigPotential.from_half_modes(LAT, half)
        assert _line(pot)[2] != two_line
        with pytest.raises(DomainError):
            chern_number(pot)
        with pytest.raises(DomainError):
            chern_normalize(pot, 1)


class TestSearch:
    def test_deterministic_and_budgeted(self):
        cfg = SearchConfig(lattice=LAT, mode_budget=1, trials=2, evaluations=15,
                           seed=42, grid_n=64)
        a = torus_search(cfg)
        b = torus_search(cfg)
        assert a.results_payload() == b.results_payload()
        assert 0.0 <= a.objective <= 1.0

    def test_s_only_restriction_reports_zero(self):
        cfg = SearchConfig(lattice=LAT, mode_budget=2, trials=1, evaluations=12,
                           seed=7, grid_n=64, mode_filter="s_only")
        rep = torus_search(cfg)
        assert rep.objective == 0.0

    def test_payload_excludes_wall_time(self):
        cfg = SearchConfig(lattice=LAT, mode_budget=1, trials=1, evaluations=5,
                           seed=0, grid_n=64)
        rep = torus_search(cfg)
        assert "wall_time" not in rep.results_payload()

    def test_coefficient_bound_keeps_the_phase(self):
        pot = _decode_modes(np.array([1.2, -1.6, 0.1, 0.2]), [(1, 0), (0, 1)], 0.5, LAT)
        c = pot.modes[(1, 0)]
        assert abs(abs(c) - 0.5) <= 1e-15
        assert abs(np.angle(c) - np.angle(1.2 - 1.6j)) <= 1e-15
        assert pot.modes[(0, 1)] == 0.1 + 0.2j  # within the bound: untouched

    def test_search_stays_within_the_coefficient_bound(self):
        # the starts lie in +-0.25 per component, far outside the bound
        rep = torus_search(SearchConfig(lattice=LAT, mode_budget=1, trials=1, evaluations=10,
                                        seed=3, grid_n=64, coeff_bound=0.01))
        assert rep.best_modes.modes
        assert all(abs(c) <= 0.01 * (1 + 1e-15) for c in rep.best_modes.modes.values())


def _staircase(x):
    return float(np.floor(8 * x).sum() + (x ** 2).sum())


# (objective, x0, maxfev); every case was checked to reach the path it names
NELDER_MEAD_CASES = {
    # 199 of the 200 values are 0, as in the search: ties decide the sorts
    "flat": (lambda x: -max(0.0, 1e-4 - abs(float(x[0]) - 0.2625)),
             np.linspace(0.25, -0.25, 6), 200),
    "budget_in_initial_simplex": (_staircase, np.linspace(-0.2, 0.2, 8), 5),
    # the 47th evaluation is the third of a four-point shrink
    "budget_in_shrink": (_staircase, np.linspace(-0.2, 0.2, 4), 47),
    "zero_entries": (_staircase, np.array([0.0, 0.1, 0.0, -0.2, 0.0]), 120),
    "converges": (lambda x: float(((x - 0.1) ** 2).sum()), np.array([0.2, -0.1]), 2000),
    "N1": (lambda x: float(np.cos(9 * x[0])), np.array([0.05]), 25),
    # the search's dimension at mode budget 3
    "N48": (lambda x: -float(np.sin(3 * x).sum() - 9), np.random.default_rng(5).uniform(
        -0.25, 0.25, 48), 400),
}


@pytest.mark.parametrize("case", NELDER_MEAD_CASES)
def test_nelder_mead_matches_scipy(case):
    func, x0, maxfev = NELDER_MEAD_CASES[case]
    calls = []

    def counted(x):
        calls.append(None)
        return func(x)

    fun, x = _nelder_mead(counted, x0, maxfev)
    ref_fun, ref_x = scipy_nelder_mead(func, x0, maxfev)
    assert fun == ref_fun
    assert np.array_equal(x, ref_x)
    # the tolerance stop ends "converges" before the budget; the rest spend it
    assert (len(calls) < maxfev) == (case == "converges")


@pytest.mark.parametrize("lattice, seed", [(LAT, 0), (LAT_GEN, 1)], ids=["square", "oblique"])
def test_search_matches_the_scipy_driven_search(monkeypatch, lattice, seed):
    cfg = SearchConfig(lattice=lattice, trials=1, evaluations=100, seed=seed, grid_n=96)
    own = torus_search(cfg).results_payload()
    monkeypatch.setattr(torussearch, "_nelder_mead", scipy_nelder_mead)
    assert torus_search(cfg).results_payload() == own
