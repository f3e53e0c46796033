import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic import torussearch
from umbilic.cartan import _is_degenerate, cartan_r
from umbilic.cli import parse_config, run
from umbilic.errors import DomainError, SymmetryViolated, TotallyDegenerate, UnderResolved
from umbilic.field import (_ROW_SAMPLES, PeriodicField, TorusLattice, _chord_bounds,
                           _chord_windings, _interpolant, _point_rows, _sample_waves, _waves)
from umbilic.index import _polish
from umbilic.torussearch import (SearchConfig, SymmetryDirection, TrigPotential, _clipped,
                                 _certified_roots, _convolve, _decode_modes, _derivative_blocks,
                                 _hermitian, _line, _lowest_separated_cells, _nelder_mead,
                                 _one_directional, _profile, _pu_rows, _Stack, _start_points,
                                 chern_normalize, chern_number,
                                 min_modulus_objective,
                                 symmetric_obstruction_check, torus_search)

from _oracles import (benchmark_pool, eager_derivative, eager_potential,
                      lowest_separated_cells_full, obstruction_chain_2d, one_directional,
                      profile_padded, random_half_modes, row_windings, scipy_nelder_mead)

LAT = TorusLattice(1j)
LAT_GEN = TorusLattice(0.3 + 1.1j)


OBSTRUCTION_POOL = benchmark_pool("obstruction")  # 8 configs


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


def members(stack) -> list:
    """The potentials min_modulus_objective scores given stack, a
    TrigPotential or a stack of them."""
    if isinstance(stack, TrigPotential):
        return [stack]
    keys = [tuple(jk) for jk in stack.jk.tolist()]
    return [TrigPotential(stack.lattice, dict(zip(keys, row))) for row in stack.C]


def full_polish_objective(u, n, zero_ratio=1e-9):
    """The objective recomputed with the reference start walk and a polish
    that runs every start to its end."""
    r = cartan_r(u.to_field(n), "p_form")
    A = np.abs(r.values)
    if _is_degenerate(r.sup_norm()):
        return 0.0
    starts = [u.lattice.st_to_z(i / n, j / n)
              for i, j in lowest_separated_cells_full(A, count=4, min_sep=4)]
    cell = (1.0 + abs(u.lattice.omega)) / n
    polished = _polish(r, [starts], 2.5 * cell)[1]
    ratio = min(float(A.min()), float(polished.min())) / r.sup_norm()
    return 0.0 if ratio < zero_ratio else float(ratio)


_ROWS = torussearch._ROWS
OBJECTIVE_ROWS = (np.arange(_ROWS) + 0.5) / _ROWS


def coefficient_blocks(stack) -> np.ndarray:
    """The Hermitian coefficient blocks (k, 2h+1, 2h+1) of the members of a
    stack of mode budget h (a TrigPotential is a stack of one): bin (j, k)
    holds (c_jk + conj(c_-j,-k)) / 2 of the member's modes, the potential
    that to_field places and whose lines the objective takes."""
    stack = stack._stack() if isinstance(stack, TrigPotential) else stack
    h = int(np.abs(stack.jk).max())
    B = np.zeros((len(stack.C), 2 * h + 1, 2 * h + 1), dtype=complex)
    for i, u in enumerate(members(stack)):
        for (j, k), c in u.modes.items():
            B[i, j + h, k + h] = (c + np.conj(u.modes[-j, -k])) / 2
    return B


def line_blocks(stack, columns: bool):
    """(X, bound) of _derivative_blocks for the members of a stack, from
    their coefficient blocks alone, X transposed for the columns as the
    objective transposes it."""
    X, bound = _derivative_blocks(coefficient_blocks(stack), stack.lattice.omega)
    return (np.ascontiguousarray(X.swapaxes(-1, -2)) if columns else X), bound


def pu_row_windings(stack, rows, columns: bool = False) -> np.ndarray:
    """The chord-tube windings of Pu along the rows t = t0 of rows (or the
    columns s = t0) for each member of a stack of potentials, from their
    coefficient blocks alone (NaN where uncertified)."""
    return _chord_windings(*_pu_rows(*line_blocks(stack, columns), rows))


def oracle_windings(u: TrigPotential, n: int, rows, columns: bool = False) -> np.ndarray:
    """The oracle's companion-root windings of u's invariant along rows (or
    columns), on the block of cartan_r at n, transposed for the columns."""
    E = _interpolant(cartan_r(u.to_field(n), "p_form")._spectral_block(), n)
    return row_windings(E.T if columns else E, rows)


def row_evidence(u, n, columns: bool = False):
    """The chord-tube windings of u's invariant along the objective's rows
    (or columns), NaN where uncertified, and the oracle's windings, at the
    least even n >= 6h + 2 where cartan_r's r is exact."""
    return (pu_row_windings(u, OBJECTIVE_ROWS, columns)[0],
            oracle_windings(u, max(n, 6 * u.mode_budget + 2), OBJECTIVE_ROWS, columns))


def reference_objective(u, n):
    """The objective's value by other means: 0 where two certified rows, or
    two certified columns, wind differently, each certified line with the
    oracle's winding, else the full polish, which stays the reference
    wherever the certificate does not fire.  The lines are taken for every
    u whose modes do not lie on one line."""
    if not _one_directional(coefficient_blocks(u))[0]:
        for columns in (False, True):
            tube, oracle = row_evidence(u, n, columns)
            certified = np.isfinite(tube)
            assert np.array_equal(tube[certified], oracle[certified])
            if len(set(tube[certified].tolist())) > 1:
                return 0.0
    return full_polish_objective(u, n)


def decided(u, n):
    """(score, the way min_modulus_objective decided it)."""
    tally = dict.fromkeys(torussearch._SCORE_KINDS, 0)
    score = min_modulus_objective(u, n, tally=tally)
    (kind,) = [k for k, count in tally.items() if count]
    return score, kind


class TestObjectiveStop:
    """The objective's polish ends once one start is below the zero
    threshold; its value is that of the polish run to the end, where the
    row windings prove no zero first."""

    def test_zero_decided_in_few_steps(self, monkeypatch):
        # the full polish makes 65 jet_at calls on the first: the starts
        # that sit near nonzero local minima creep until the step cap.  Its
        # row windings prove the zero with no jet at all; the one-directional
        # potential skips the rows, whose zero curves never certify, and the
        # polish stop decides it in a few steps
        sizes = []
        jet = PeriodicField.jet_at

        def counted(self, z):
            sizes.append(np.size(z))
            return jet(self, z)

        monkeypatch.setattr(PeriodicField, "jet_at", counted)
        pot = TrigPotential.from_half_modes(LAT, random_half_modes(0, budget=3, scale=0.12))
        assert decided(pot, 96) == (0.0, "windings")
        assert len(sizes) == 0
        assert decided(TrigPotential.from_half_modes(LAT, {(1, 0): 0.2}), 96) == (0.0, "polish")
        assert 1 <= len(sizes) <= 8

    def test_same_value_as_full_polish(self, monkeypatch):
        seen = []
        objective = torussearch.min_modulus_objective

        def recorded(u, grid_n, **kw):
            seen.extend(members(u))
            return objective(u, grid_n, **kw)

        monkeypatch.setattr(torussearch, "min_modulus_objective", recorded)
        rep = torus_search(SearchConfig(LAT_GEN, seed=0, trials=1, evaluations=5,
                                        grid_n=96, mode_budget=3))
        values = [v for _, v in rep.history]
        assert values == [0.0] * 5
        for u, v in zip(seen, values):
            assert v == reference_objective(u, 96)
        # the fifth member: four starts polish to 3.38e-4, yet the oracle's
        # rows wind differently, so its invariant has a zero
        assert full_polish_objective(seen[4], 96) == 3.379791279516251e-4
        assert len(set(row_evidence(seen[4], 96)[1].tolist())) > 1
        for pot in (TrigPotential.from_half_modes(LAT, random_half_modes(0, budget=3, scale=0.12)),
                    TrigPotential.from_half_modes(LAT, {(1, 0): 0.2})):
            assert min_modulus_objective(pot, 96) == reference_objective(pot, 96) == 0.0

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


def stack_of(lattice, budget, rows) -> _Stack:
    """The search's stack of the half-mode coefficient rows at mode budget
    budget, the conjugate modes filled in."""
    half = np.array(SearchConfig(lattice, mode_budget=budget).mode_list())
    return _Stack(lattice, np.concatenate([half, -half]), np.concatenate([rows, np.conj(rows)], 1))


def search_stacks(monkeypatch, cfg) -> list:
    """The stacks the search with config cfg scores."""
    seen = []
    objective = torussearch.min_modulus_objective

    def recorded(u, grid_n, **kw):
        seen.append(u)
        return objective(u, grid_n, **kw)

    monkeypatch.setattr(torussearch, "min_modulus_objective", recorded)
    torus_search(cfg)
    monkeypatch.undo()
    return seen[:-1]  # objective_2x last


class TestStackedObjective:
    """A stack's scores are its members' scores alone, bit for bit: alone in a
    stack of one, and alone by the reference of reference_objective.  The
    line proofs run in passes; a member they leave open takes its P form and
    polish alone."""

    @staticmethod
    def assert_scores_alone(stack, n):
        tally = dict.fromkeys(torussearch._SCORE_KINDS, 0)
        got = min_modulus_objective(stack, n, tally=tally).tolist()
        alone = [min_modulus_objective(stack._replace(C=stack.C[i:i + 1]), n)[0]
                 for i in range(len(stack.C))]
        assert got == alone == [reference_objective(u, n) for u in members(stack)]
        # and the stack's scores were decided the ways its members' alone were
        kinds = [decided(u, n)[1] for u in members(stack)]
        assert tally == {kind: kinds.count(kind) for kind in torussearch._SCORE_KINDS}
        return got

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), budget=st.integers(1, 3),
           amplitude=st.sampled_from([0.25, 0.75]), n=st.sampled_from([64, 96]))
    def test_members_score_as_alone(self, seed, budget, amplitude, n):
        # coefficients up to 3x the search's starts, clipped at 0.3; a
        # constant potential in the middle and a member of a smaller band,
        # each scored in a pass of its own band
        rng = np.random.default_rng(seed)
        lattice = (LAT, LAT_GEN)[seed % 2]
        half = SearchConfig(lattice, mode_budget=budget).mode_list()
        rows = _clipped(rng.uniform(-amplitude, amplitude, (9, 2 * len(half))), 0.3)
        rows[4] = 0.0
        rows[6, [max(abs(j), abs(k)) == budget for j, k in half]] = 0.0
        scores = self.assert_scores_alone(stack_of(lattice, budget, rows), n)
        assert scores[4] == 0.0

    def test_pinned_member_in_a_stack(self, monkeypatch):
        # the member whose polish stalls at 3.38e-4, among random members:
        # its row windings prove the zero in the stack as alone
        stack = search_stacks(monkeypatch, SearchConfig(LAT_GEN, seed=0, trials=1, evaluations=5,
                                                        grid_n=96, mode_budget=3))[0]
        rows = _clipped(np.random.default_rng(4).uniform(-0.25, 0.25, (7, stack.C.shape[1])), 1.0)
        rows[3] = stack.C[4, :24]
        stack = stack_of(LAT_GEN, 3, rows)
        assert self.assert_scores_alone(stack, 96)[3] == 0.0
        pinned = members(stack)[3]
        assert full_polish_objective(pinned, 96) == 3.379791279516251e-4
        tube, oracle = row_evidence(pinned, 96)
        certified = np.isfinite(tube)
        assert np.array_equal(tube[certified], oracle[certified])
        assert len(set(oracle[certified].tolist())) > 1

    def test_full_band_invariant(self):
        # band 11 on n = 64: the s-only members skip the lines, and for them
        # r's band 33 is cut to n/2, the Nyquist bins fold and the polish
        # reads the interpolant at full band; the others' lines, exact at
        # any n, prove their zeros
        rng = np.random.default_rng(11)
        half = SearchConfig(LAT_GEN, mode_budget=11, grid_n=64).mode_list()
        outer = np.array([max(abs(j), abs(k)) >= 11 for j, k in half])
        rows = _clipped(rng.uniform(-0.05, 0.05, (5, 2 * len(half))), 1.0)
        rows[:, outer] *= 1e-5  # the potential's modes >= n/6 pass the tail check
        rows[:3, [k != 0 for _, k in half]] = 0.0
        stack = stack_of(LAT_GEN, 11, rows)
        assert cartan_r(members(stack)[0].to_field(64), "p_form")._band() == 32
        self.assert_scores_alone(stack, 64)
        assert [decided(u, 64)[1] for u in members(stack)] == ["polish"] * 3 + ["windings"] * 2

    def test_row_passes_hold_the_stack_budget(self, monkeypatch):
        # the row proofs of a group run in passes of at most _STACK_BYTES of
        # derivative blocks, or of one member: a 49-point group at budget 3
        # in passes of 16, 16, 16 and 1, a 48-point group at budget 15 in 48
        # passes of one
        passes = []
        blocks = torussearch._derivative_blocks

        def recorded(E, omega):
            X, bound = blocks(E, omega)
            passes.append((len(X), X.nbytes))
            return X, bound

        monkeypatch.setattr(torussearch, "_derivative_blocks", recorded)
        for budget, amplitude, points, sizes in ((3, 0.25, 49, [16, 16, 16, 1]),
                                                 (15, 0.01, 48, [1] * 48)):
            half = SearchConfig(LAT, mode_budget=budget).mode_list()
            rows = _clipped(np.random.default_rng(budget).uniform(
                -amplitude, amplitude, (points, 2 * len(half))), 1.0)
            passes.clear()
            min_modulus_objective(stack_of(LAT, budget, rows), 96)
            assert [k for k, _ in passes] == sizes
            assert all(nbytes <= torussearch._STACK_BYTES or k == 1 for k, nbytes in passes)

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)], ids=["r-first", "placement-first"])
    def test_first_failing_member_raises_its_own_error(self, order):
        # one pass takes the lines of all three members at band 1: one's Pu
        # leaves the float range and another's coefficient does when placed,
        # and the lines of both are not finite.  The stack raises the error
        # of the first of them, as points scored one at a time would
        rows = _clipped(np.random.default_rng(2).uniform(-0.25, 0.25, (3, 8)), 1.0)
        overflow_r, overflow_placed = order
        rows[overflow_r, 0], rows[overflow_placed, 0] = 1e120, 1e305
        stack = stack_of(LAT, 1, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError) as alone:
                min_modulus_objective(stack._replace(C=stack.C[1:2]), 64)
            with pytest.raises(DomainError) as stacked:
                min_modulus_objective(stack, 64)
        assert ("Pu leaves" in str(alone.value)) == (order == (1, 2))
        assert str(stacked.value) == str(alone.value)

    def test_clip_is_pythons_complex_arithmetic(self):
        # |c| by hypot and c * (bound / |c|) as Python forms them, bit for bit
        # and with the sign of every zero
        rng = np.random.default_rng(3)
        values = [0.0, -0.0, 1e-320, -1e-320, 1e-300, 0.3, -0.7, 2.5, -1e8, 1e300]
        X = np.concatenate([rng.choice(values, (40, 12)), rng.normal(0.0, 2.0, (40, 12))])
        for bound in (1.0, 0.3, 1e-300, 1e-320, 1e300):
            got = _clipped(X, bound)
            for x, row in zip(X, got):
                ref = []
                for a, b in zip(x[0::2].tolist(), x[1::2].tolist()):
                    c = complex(a, b)
                    ref.append(c * (bound / abs(c)) if abs(c) > bound else c)
                ref = np.array(ref)
                assert ref.tobytes() == row.tobytes()
        # best_modes reads the same rule
        half = SearchConfig(LAT, mode_budget=1).mode_list()
        pot = _decode_modes(X[0, :8], half, 0.3, LAT)
        assert [pot.modes[jk] for jk in half] == _clipped(X[0, :8], 0.3).tolist()

    def test_a_group_lifts_within_the_stack_budget(self):
        # mode budget 15 on n = 96: each member's P form lifts onto 96 x 96,
        # so a 48-point group runs 48 passes of one member each, and peaks
        # within _STACK_BYTES of one evaluation's peak
        half = SearchConfig(LAT, mode_budget=15).mode_list()
        rows = _clipped(np.random.default_rng(15).uniform(-0.01, 0.01, (48, 2 * len(half))), 1.0)
        stack = stack_of(LAT, 15, rows)
        one = stack._replace(C=stack.C[:1])
        min_modulus_objective(one, 96)
        tracemalloc.start()
        try:
            min_modulus_objective(one, 96)
            single = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            min_modulus_objective(stack, 96)
            group = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert group <= 512 * 1024 + single


# lattices of the row tests, up to |omega| = 1.4e8 (the fuzz's extremes)
ROW_LATTICES = [LAT, LAT_GEN, TorusLattice(-300 - 0.5j), TorusLattice(3 + 1e8j),
                TorusLattice(-1e8 - 1e8j)]


def row_case(lattice, seed, budget, amplitude, n, columns=False):
    """A stack of 6 random potentials and the windings of each member's Pu
    along the objective's rows and 4 random rows (or columns): the chord
    tube's from u's coefficients (NaN where uncertified) and the oracle's
    on the block of cartan_r at n."""
    rng = np.random.default_rng(seed)
    half = SearchConfig(lattice, mode_budget=budget).mode_list()
    stack = stack_of(lattice, budget, _clipped(rng.uniform(-amplitude, amplitude,
                                                           (6, 2 * len(half))), 0.3))
    rows = np.concatenate([OBJECTIVE_ROWS, rng.random(4)])
    oracle = np.stack([oracle_windings(u, n, rows, columns) for u in members(stack)])
    return stack, pu_row_windings(stack, rows, columns), oracle


class TestRowWindings:
    """The objective's line windings, from Pu's row and column polynomials
    formed from u's coefficients: every line the chord tube certifies has
    the winding of the companion roots (the oracle) on the rows or columns
    of cartan_r's block, a line's values do not depend on its call, and
    lines of fields that vary in one direction wind alike, so they never
    prove a zero."""

    @settings(max_examples=16, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), budget=st.integers(1, 3),
           amplitude=st.sampled_from([0.05, 0.25, 0.75]), n=st.sampled_from([64, 96]),
           lattice=st.sampled_from(ROW_LATTICES), columns=st.booleans())
    def test_certified_rows_have_the_oracles_winding(self, seed, budget, amplitude, n, lattice,
                                                     columns):
        # rows, or columns with columns set
        stack, tube, oracle = row_case(lattice, seed, budget, amplitude, n, columns)
        certified = np.isfinite(tube)
        assert certified.any()
        assert np.array_equal(tube[certified], oracle[certified])
        for i, member in enumerate(members(stack)):
            every = tube[i][certified[i]]
            own = tube[i, :_ROWS][certified[i, :_ROWS]]
            if every.size and every.max() > every.min():  # a proven zero: the oracle's lines differ
                assert oracle[i].max() > oracle[i].min()
                if lattice in (LAT, LAT_GEN):  # long cells: test_a_zero_off_the_objectives_rows
                    assert min_modulus_objective(member, n) == 0.0
            if own.size and own.max() > own.min():  # the objective's own lines prove it
                assert decided(member, n) == (0.0, "windings")

    @pytest.mark.parametrize("lattice", ROW_LATTICES[2:], ids=["300", "1e8i", "1e8(1+i)"])
    def test_a_zero_off_the_objectives_rows_scores_0(self, lattice):
        # the sixth member of row_case(lattice, 35, 2, 0.05, 64): the
        # objective's four rows certify alike, a random row certifies
        # another winding, so Pu has a zero.  The polish scores about
        # 1.4e-6 (omega = -300 - 0.5i) or 4e-9 to 7e-9 (|omega| >= 1e8), but
        # the objective's columns prove the zero
        stack, tube, oracle = row_case(lattice, 35, 2, 0.05, 64)
        certified = np.isfinite(tube[5])
        if not (np.array_equal(tube[5][certified], oracle[5][certified])
                and len(set(tube[5, :_ROWS].tolist())) == 1
                and len(set(tube[5][certified].tolist())) > 1):
            pytest.fail("the rows no longer prove this member's zero off the objective's rows")
        assert decided(members(stack)[5], 64) == (0.0, "windings")
        assert len(set(pu_row_windings(stack, OBJECTIVE_ROWS, columns=True)[5].tolist())) > 1

    def test_a_rows_values_do_not_depend_on_its_call(self):
        # the same member's rows, and its columns, alone, in a stack at any
        # position, and line by line, bit for bit: coefficients, bound and
        # windings
        rng = np.random.default_rng(5)
        half = SearchConfig(LAT_GEN, mode_budget=3).mode_list()
        stack = stack_of(LAT_GEN, 3, _clipped(rng.uniform(-0.5, 0.5, (9, 2 * len(half))), 1.0))
        for columns in (False, True):
            X, bound = line_blocks(stack, columns)
            P, err = _pu_rows(X, bound, OBJECTIVE_ROWS)
            windings = _chord_windings(P, err)
            for i in range(len(X)):
                for members_ in ([i], [i, (i + 3) % 9], list(range(i, 9))):
                    X1, bound1 = line_blocks(stack._replace(C=stack.C[members_]), columns)
                    assert np.array_equal(X1[0], X[i]) and bound1[0] == bound[i]
                    for q, t0 in enumerate(OBJECTIVE_ROWS):
                        P1, err1 = _pu_rows(X1, bound1, [t0])
                        assert np.array_equal(P1[0, 0], P[i, q]) and err1[0, 0] == err[i, q]
                        assert np.array_equal(_chord_windings(P1, err1)[0, 0], windings[i, q],
                                              equal_nan=True)

    @pytest.mark.parametrize("lattice", [LAT, LAT_GEN], ids=["square", "oblique"])
    @pytest.mark.parametrize("jk", [(1, 0), (0, 1), (1, 1), (2, -1)])
    def test_one_direction_never_proves_a_zero(self, lattice, jk):
        # s-only and other one-directional potentials: every row (and every
        # column) meets the zero curves alike, so lines never wind
        # differently; the objective skips their lines, and the polish finds
        # the zero
        rng = np.random.default_rng(sum(jk) + 3)
        for n in (64, 96):
            for _ in range(3):
                profile = dict(zip((1, 2, 3), np.array([1, 1j]) @ rng.uniform(-0.2, 0.2, (2, 3))))
                pot = one_directional(lattice, jk, profile)[0]
                assert _one_directional(_hermitian(*pot._stack()[1:]))[0]
                for columns in (False, True):
                    tube, oracle = row_evidence(pot, n, columns)
                    certified = np.isfinite(tube)
                    assert np.array_equal(tube[certified], oracle[certified])
                    assert len(set(tube[certified].tolist())) <= 1
                assert decided(pot, n) == (0.0, "polish")

    def test_criterion_10_trial_0_is_proven_by_windings(self, monkeypatch):
        # a failed piece is halved, not its row dropped: all 100 members of
        # the criterion-10 search's trial 0 are proven by rows (59 took the
        # polish when a row with one failed piece was dropped).  The first
        # member's four rows all certify, with the oracle's windings
        cfg = SearchConfig(LAT, mode_budget=3, trials=1, evaluations=100, seed=42, grid_n=96)
        first = members(search_stacks(monkeypatch, cfg)[0])[0]
        assert torus_search(cfg).objective_certificates == [
            {"windings": 100, "polish": 0, "degenerate": 0, "nonzero": 0}]
        tube, oracle = row_evidence(first, 96)
        assert tube.tolist() == oracle.tolist() == [3, 1, 1, -2]

    def test_fuzz_member_with_a_rounding_floor_is_a_certified_zero(self):
        # the first member of search/fuzz-torus/186 (omega = -1e8 - 1e8i):
        # its polish in z stalls at a rounding floor, 3.25e-9 of sup|Pu|, a
        # nonzero score; its rows, which never form z, prove the zero
        keys = [(1, 0), (-1, 1), (0, 1), (1, 1)]
        half = [0.06848084366072715 - 0.11510664311806484j,
                -0.22951323803190266 - 0.24173618223573545j,
                0.1566351196001362 + 0.20637778863886086j,
                0.05331788788358993 + 0.1147482804919992j]
        u = TrigPotential.from_half_modes(TorusLattice(-1e8 - 1e8j), dict(zip(keys, half)))
        assert full_polish_objective(u, 64) == 3.2476506250856304e-09
        assert decided(u, 64) == (0.0, "windings")
        tube, oracle = row_evidence(u, 64)
        assert tube.tolist() == oracle.tolist() == [1, 1, -2, -1]

    def test_rounding_stays_within_the_margin(self):
        # the float64 rows and columns of Pu, at the first level's samples
        # and at the midpoints of halved pieces, against the exact lines
        # formed in long double from the same coefficient blocks, on
        # potentials of many magnitudes, budgets 1-3 and 15 and lattices up
        # to |omega| = 1.4e8
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is float64 here: no reference with more precision")
        rng = np.random.default_rng(17)
        two_pi = 8 * np.arctan(np.longdouble(1))
        rows = np.concatenate([OBJECTIVE_ROWS, rng.random(2)])
        M = _ROW_SAMPLES
        worst = 0.0
        cases = [(lat, budget, columns) for lat in ROW_LATTICES for budget in (1, 2, 3)
                 for columns in (False, True)]
        cases += [(LAT_GEN, 15, False), (LAT_GEN, 15, True)]
        for lattice, budget, columns in cases:
            half = SearchConfig(lattice, mode_budget=budget).mode_list()
            coeffs = (rng.uniform(-1, 1, (3, len(half))) + 1j * rng.uniform(-1, 1, (3, len(half))))
            coeffs *= 10.0 ** rng.uniform(-30, 30, (3, 1))
            stack = stack_of(lattice, budget, coeffs)
            P, err = _pu_rows(*line_blocks(stack, columns), rows)
            margin, L2 = _chord_bounds(P, err)
            N = P.shape[-1]
            j = np.arange(N) - N // 2
            # where each row is read: the first level's samples, and the
            # midpoints of pieces halved 1 to 8 times
            levels = rng.integers(1, 9, 40)
            mids = 2 * rng.integers(0, M * 2 ** (levels - 1)) + 1
            s = np.concatenate([np.arange(M + 1) / np.longdouble(M),
                                mids / (M * 2.0 ** levels).astype(np.longdouble)])
            flat = P.reshape(-1, N)
            got = np.concatenate([
                _point_rows(flat, _sample_waves(N)),  # as _chord_windings forms them
                np.stack([(flat * _waves(N, m, M * 2 ** int(d))).sum(-1)
                          for m, d in zip(mids, levels)], 1)], 1)
            exact = exact_pu_rows(coefficient_blocks(stack), lattice.omega, rows, two_pi,
                                  columns).reshape(-1, N)
            waves = np.exp(1j * two_pi * np.multiply.outer(j, s))
            worst = max(worst, float(np.max(np.abs(got - exact @ waves).max(-1)
                                            / margin.reshape(-1))))
            # the tube holds the exact row's curvature wherever it is read
            curvature = np.abs((exact * (two_pi * j) ** 2) @ waves).max(-1)
            assert np.all(curvature <= L2.reshape(-1))
        assert worst <= 1 / 8


class TestGridFreeProofs:
    """The line proofs read u's coefficients alone, so which members they
    prove, and their scores, do not depend on grid_n; only the members
    they leave open are placed on the grid."""

    @staticmethod
    def assert_grid_free(stack):
        proven = []
        for n in (64, 96, 128, 192):
            tally = dict.fromkeys(torussearch._SCORE_KINDS, 0)
            scores = min_modulus_objective(stack, n, tally=tally)
            windings = [decided(u, n)[1] == "windings" for u in members(stack)]
            assert tally["windings"] == sum(windings)
            assert np.all(scores[windings] == 0.0)
            proven.append(windings)
        # the polish of the others reads the grid, so only the proofs compare
        assert all(p == proven[0] for p in proven)
        return proven[0]

    @settings(max_examples=16, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), budget=st.integers(1, 3),
           amplitude=st.sampled_from([0.05, 0.25, 0.75]), lattice=st.sampled_from(ROW_LATTICES))
    def test_proofs_do_not_depend_on_grid_n(self, seed, budget, amplitude, lattice):
        half = SearchConfig(lattice, mode_budget=budget).mode_list()
        rows = _clipped(np.random.default_rng(seed).uniform(
            -amplitude, amplitude, (5, 2 * len(half))), 0.3)
        self.assert_grid_free(stack_of(lattice, budget, rows))

    def test_a_band_past_n_over_6_is_proven_at_every_grid(self):
        # budget 12: r's band 36 exceeds n/2 at n = 64, where cartan_r
        # would raise UnderResolved, yet the lines prove every member there
        # as at n = 192
        half = SearchConfig(LAT_GEN, mode_budget=12).mode_list()
        rows = _clipped(np.random.default_rng(12).uniform(-0.25, 0.25, (6, 2 * len(half))), 0.3)
        stack = stack_of(LAT_GEN, 12, rows)
        with pytest.raises(UnderResolved):
            cartan_r(members(stack)[0].to_field(64), "p_form")
        assert self.assert_grid_free(stack) == [True] * 6


def exact_pu_rows(E: np.ndarray, omega: complex, rows, two_pi, columns=False) -> np.ndarray:
    """The coefficients in s of Pu along each row t = t0 of rows (in t along
    each column s = t0) for each potential with the coefficient block E
    (k, L, L) on the lattice of omega, in long double: the derivatives'
    symbols D -> 2 pi i (j conj(omega) - k) / (conj(omega) - omega),
    Dbar -> 2 pi i (k - omega j) / (conj(omega) - omega), each
    derivative's line a direct sum over the other axis and Pu's line their
    convolutions."""
    B = E.astype(np.clongdouble)
    k = np.arange(B.shape[-1]) - B.shape[-1] // 2
    om = np.clongdouble(omega)
    den = np.conj(om) - om
    d = 1j * two_pi * (k[:, None] * np.conj(om) - k[None, :]) / den
    db = 1j * two_pi * (k[None, :] - om * k[:, None]) / den
    out = []
    for block in B:
        per_row = []
        for t0 in rows:
            w = np.exp(1j * two_pi * k * np.longdouble(t0))
            du, d2u, ddbu, d2dbu, d3dbu = (((block * d ** a * db ** b).T if columns
                                            else block * d ** a * db ** b) @ w
                                           for a, b in ((1, 0), (2, 0), (1, 1), (2, 1), (3, 1)))
            L = len(k)
            P = np.zeros(3 * L - 2, dtype=np.clongdouble)
            P[L - 1:2 * L - 1] += d3dbu
            P[L // 2:L // 2 + 2 * L - 1] -= 3 * np.convolve(du, d2dbu)
            P += 2 * np.convolve(np.convolve(du, du), ddbu)
            P[L // 2:L // 2 + 2 * L - 1] -= np.convolve(d2u, ddbu)
            per_row.append(P)
        out.append(per_row)
    return np.array(out)


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
        # profile is bit for bit the one assembled from np.pad terms with
        # the same convolutions, and within its rounding bound of the one
        # with numpy's
        line, c, on_line = _line(pot)
        F, tol = _profile(c)
        ref_line, ref_F, ref_tol = profile_padded(pot, convolve=_convolve)
        assert on_line and line == ref_line
        assert np.array_equal(F, ref_F) and tol == ref_tol
        assert np.abs(F - profile_padded(pot)[1]).sum(-1).max() <= tol

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

    # seeds of one to three 32-bit words, and a 101-bit seed whose four words
    # and the trial's overflow SeedSequence's pool of four
    @pytest.mark.parametrize("seed", [*range(64), 2 ** 32, 2 ** 64 + 5, 2 ** 100 + 12345])
    def test_start_points_are_numpys_pcg64_stream(self, seed):
        for trial in range(4):
            for m in (1, 6, 48):
                want = np.random.default_rng([seed, trial]).uniform(-0.25, 0.25, m)
                assert np.array_equal(_start_points(seed, trial, m), want)

    def test_first_start_points_are_pinned(self):
        # the stream's first values for [0, 0] and [42, 1]: every seeded
        # search starts from them, whatever numpy is installed
        assert _start_points(0, 0, 3).tolist() == [
            0.06848084366072715, -0.11510664311806484, -0.22951323803190266]
        assert _start_points(42, 1, 3).tolist() == [
            0.1467513436961439, -0.1270206713292975, -0.047786833029235476]


def _staircase(x):
    return float(np.floor(8 * x).sum() + (x ** 2).sum())


def rowwise(f):
    """The stacked signature of _nelder_mead's objective: f on each row."""
    return lambda X: np.array([f(x) for x in X])


def one_point_per_call(func, x0, maxfev):
    """scipy's Nelder-Mead driving the stacked objective func one point per
    call."""
    return scipy_nelder_mead(lambda x: func(x[None])[0], x0, maxfev)


# (objective, x0, maxfev); every case was checked to reach the path it names
NELDER_MEAD_CASES = {
    # 199 of the 200 values are 0, as in the search: ties decide the sorts
    "flat": (rowwise(lambda x: -max(0.0, 1e-4 - abs(float(x[0]) - 0.2625))),
             np.linspace(0.25, -0.25, 6), 200),
    "budget_in_initial_simplex": (rowwise(_staircase), np.linspace(-0.2, 0.2, 8), 5),
    # the 47th evaluation is the third of a four-point shrink
    "budget_in_shrink": (rowwise(_staircase), np.linspace(-0.2, 0.2, 4), 47),
    "zero_entries": (rowwise(_staircase), np.array([0.0, 0.1, 0.0, -0.2, 0.0]), 120),
    "converges": (rowwise(lambda x: float(((x - 0.1) ** 2).sum())), np.array([0.2, -0.1]), 2000),
    "N1": (rowwise(lambda x: float(np.cos(9 * x[0]))), np.array([0.05]), 25),
    # the search's dimension at mode budget 3
    "N48": (rowwise(lambda x: -float(np.sin(3 * x).sum() - 9)), np.random.default_rng(5).uniform(
        -0.25, 0.25, 48), 400),
}


@pytest.mark.parametrize("case", NELDER_MEAD_CASES)
def test_nelder_mead_matches_scipy(case):
    func, x0, maxfev = NELDER_MEAD_CASES[case]
    groups = []

    def counted(X):
        groups.append(len(X))
        return func(X)

    fun, x = _nelder_mead(counted, x0, maxfev)
    ref_fun, ref_x = one_point_per_call(func, x0, maxfev)
    assert fun == ref_fun
    assert np.array_equal(x, ref_x)
    # the initial simplex is one group, cut to the budget
    assert groups[0] == min(len(x0) + 1, maxfev)
    # the tolerance stop ends "converges" before the budget; the rest spend it
    assert (sum(groups) < maxfev) == (case == "converges")


# (lattice, seed, evaluations, objective groups); at 75 evaluations the
# shrink's 25th vertex has moved when the budget refuses it
SCIPY_DRIVEN_SEARCHES = {
    f"{name}{suffix}": (lattice, seed, evaluations, groups)
    for name, lattice, seed in (("square", LAT, 0), ("oblique", LAT_GEN, 1))
    for suffix, evaluations, groups in (("", 100, [49, 1, 1, 48, 1]),
                                        ("-budget_in_initial_simplex", 30, [30]),
                                        ("-budget_in_shrink", 75, [49, 1, 1, 24]))}


@pytest.mark.parametrize("case", SCIPY_DRIVEN_SEARCHES)
def test_search_matches_the_scipy_driven_search(monkeypatch, case):
    lattice, seed, evaluations, groups = SCIPY_DRIVEN_SEARCHES[case]
    cfg = SearchConfig(lattice=lattice, trials=1, evaluations=evaluations, seed=seed, grid_n=96)
    own = torus_search(cfg)
    assert own.objective_groups == [groups]
    monkeypatch.setattr(torussearch, "_nelder_mead", one_point_per_call)
    ref = torus_search(cfg)
    assert ref.results_payload() == own.results_payload()
    assert ref.objective_groups == [[1] * evaluations]
