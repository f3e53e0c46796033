import numpy as np
import pytest

from umbilic import index
from umbilic.cartan import cartan_r
from umbilic.errors import (NotPseudoconvex, PhaseStepTooLarge, TotallyDegenerate,
                            ZeroOnContour)
from umbilic.field import ChartGrid, PeriodicField, TorusLattice
from umbilic.index import (UmbilicRecord, locate_zero_cells, poincare_hopf_audit,
                           refine_cluster_residual, sphere_metric_potentials,
                           sphere_two_chart_umbilics, torus_umbilics,
                           umbilic_index, winding_degree)
from umbilic.torussearch import TrigPotential

from _oracles import (one_directional, periodic_from_function, random_band_limited,
                      refine_edge_depth_first)

LAT = TorusLattice(1j)
OBLIQUE = TorusLattice(0.3 + 1.1j)


def circle(k, n):
    th = 2 * np.pi * np.arange(n) / n
    return np.exp(1j * k * th)


class TestWindingDegree:
    def test_identity_map(self):
        assert winding_degree(circle(1, 64)) == 1

    def test_conjugation_reverses(self):
        assert winding_degree(np.conj(circle(1, 64))) == -1

    def test_cubic_plus_offset(self):
        # all three roots of z^3 = -0.1 have modulus 0.1^(1/3) < 1, so the
        # argument principle gives degree 3 on the unit circle
        z = circle(1, 256)
        assert winding_degree(z ** 3 + 0.1) == 3

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_pure_powers_exact(self, k):
        z = circle(1, 256)
        vals = z ** k if k >= 0 else np.conj(z) ** (-k)
        assert winding_degree(vals) == k

    def test_large_step_rejected(self):
        with pytest.raises(PhaseStepTooLarge):
            winding_degree(circle(3, 8))

    def test_zero_floor(self):
        vals = circle(1, 64)
        vals[5] = 1e-15
        with pytest.raises(ZeroOnContour):
            winding_degree(vals)

    def test_empty_loop(self):
        with pytest.raises(ValueError):
            winding_degree([])


class TestLocateZeroCells:
    def test_single_simple_zero_on_chart(self):
        # the second zero sits on a grid node, so its cells cross the zero
        # set and the winding comes from the ring around them
        x = np.linspace(-1, 1, 64)
        for z0 in (0.2 + 0.1j, x[40] + 1j * x[30]):
            ch = ChartGrid.from_function("c1", 1.0, 64, lambda Z: Z - z0)
            clusters = locate_zero_cells(ch)
            assert len(clusters) == 1
            c = clusters[0]
            assert c.kind == "point" and c.winding == 1
            assert abs(c.center - z0) < 0.05

    def test_nonvanishing_field_empty(self):
        f = periodic_from_function(LAT, 64, lambda S, T: 1 + 0.1 * np.sin(2 * np.pi * S))
        assert locate_zero_cells(f) == []

    def test_four_corner_zeros_sum_to_zero(self):
        f = periodic_from_function(
            LAT, 64, lambda S, T: np.sin(2 * np.pi * S) + 1j * np.sin(2 * np.pi * T))
        clusters = locate_zero_cells(f)
        assert len(clusters) == 4
        assert all(c.kind == "point" for c in clusters)
        assert sum(c.winding for c in clusters) == 0
        centers = sorted((round(c.center.real, 3), round(c.center.imag, 3))
                         for c in clusters)
        assert centers == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]

    def test_total_winding_vanishes_on_torus(self):
        # degree additivity: the cluster windings of any field on a closed
        # surface telescope to zero
        f = random_band_limited(17, LAT, n=128, budget=2, amplitude=1.0)
        g = random_band_limited(18, LAT, n=128, budget=2, amplitude=1.0)
        field = f.add(g.scale(1j))
        clusters = locate_zero_cells(field)
        assert clusters, "generic random field should vanish somewhere"
        assert all(c.kind == "point" for c in clusters)
        assert sum(c.winding for c in clusters) == 0

    def test_real_phase_field_gives_curve_clusters(self):
        f = periodic_from_function(
            LAT, 64, lambda S, T: (np.sin(2 * np.pi * S) + 0.2) * (1 + 0j))
        clusters = locate_zero_cells(f)
        assert len(clusters) == 2
        assert all(c.kind == "curve" and c.winding is None for c in clusters)
        residuals = refine_cluster_residual(f, clusters)
        assert len(residuals) == 2 and max(residuals) < 1e-9
        assert refine_cluster_residual(f, []) == []

    def test_totally_degenerate(self):
        f = PeriodicField.constant(LAT, 32, 0.0)
        with pytest.raises(TotallyDegenerate):
            locate_zero_cells(f)
        vals = np.ones((32, 32), dtype=complex)
        vals[:20, :] = 1e-15
        with pytest.raises(TotallyDegenerate):
            locate_zero_cells(PeriodicField(LAT, vals))


def criterion9_r():
    """r of the first one-directional potential of acceptance criterion 9,
    as the obstruction check builds it; r vanishes on closed curves."""
    rng = np.random.default_rng(4242)
    profile = {1: 0.12 * (rng.normal() + 1j * rng.normal()),
               2: 0.04 * (rng.normal() + 1j * rng.normal())}
    pot, _ = one_directional(LAT, (1, 0), profile)
    return cartan_r(pot.to_field(128), "divergence_form")


def generic_torus_r():
    u = random_band_limited(2, OBLIQUE, n=64, budget=2, amplitude=0.4)
    return cartan_r(u, "p_form")


def chart_point_and_line():
    # a point zero of winding 1 and a sign-change line of constant phase
    return ChartGrid.from_function("c1", 1.0, 64,
                                   lambda Z: (Z - (0.2 + 0.1j)) * (Z.real - 0.5))


def edge_line(f, axis, i, j):
    """p in [0, 1] -> the field f along the edge (axis, i, j) of the edge
    table, from corner (i, j) one grid step along the axis."""
    (a0, b0), (a1, b1) = f.corner_st(i, j), f.corner_st(i + (axis == 0), j + (axis == 1))
    return lambda p: f.evaluate_st(a0 + p * (a1 - a0), b0 + p * (b1 - b0))


class TestEdgeRefinement:
    """Level-synchronous edge refinement against the depth-first reference,
    which evaluates the interpolant one midpoint at a time.  Only bad edges
    are refined, so the criterion-9 batch holds crossings alone."""

    @pytest.mark.parametrize("make, kinds", [
        (criterion9_r, {"crossing"}),
        (generic_torus_r, {"ok"}),
        (chart_point_and_line, {"ok", "crossing"}),
    ], ids=["criterion9", "generic-torus", "chart"])
    def test_matches_depth_first_reference(self, monkeypatch, make, kinds):
        f = make()
        batches = []
        batched = index._refine_edges

        def record(field, axis, i, j, floor):
            out = batched(field, axis, i, j, floor)
            batches.append((field, floor,
                            zip(axis.tolist(), i.tolist(), j.tolist(), out.tolist())))
            return out

        monkeypatch.setattr(index, "_refine_edges", record)
        assert locate_zero_cells(f)
        seen = set()
        for field, floor, edges in batches:
            for *key, total in edges:
                line = edge_line(field, *key)
                v0, v1 = (complex(line(np.array([p]))[0]) for p in (0.0, 1.0))
                ref_kind, ref = refine_edge_depth_first(line, v0, v1, floor,
                                                        index._MAX_DEPTH)
                kind = "crossing" if np.isnan(total) else "ok"
                assert kind == ref_kind, key
                if kind == "ok":
                    assert abs(total - ref) <= 1e-12, key
                seen.add(kind)
        assert seen == kinds

    def test_unresolved_step_raises_where_used(self, monkeypatch):
        # a phase ramp of 0.6 pi per grid step has no zero: bisection
        # resolves it, and without bisection the unresolved step raises
        h = 2.0 / 63
        f = ChartGrid.from_function("c1", 1.0, 64,
                                    lambda Z: np.exp(0.6j * np.pi * Z.real / h))
        assert locate_zero_cells(f) == []
        monkeypatch.setattr(index, "_MAX_DEPTH", 0)
        with pytest.raises(PhaseStepTooLarge, match="unresolved at depth 0"):
            locate_zero_cells(f)

    def test_one_evaluation_call_per_level(self, monkeypatch):
        f = criterion9_r()
        points = []
        evaluate = PeriodicField.evaluate_st

        def counted(self, s, t):
            points.append(np.size(s))
            return evaluate(self, s, t)

        monkeypatch.setattr(PeriodicField, "evaluate_st", counted)
        monkeypatch.setattr(index, "_MAX_DEPTH", 12)
        clusters = locate_zero_cells(f)
        assert clusters and all(c.kind == "curve" for c in clusters)
        assert 0 < len(points) <= 12 + 1


class TestPolish:
    """The batched damped Newton polish shared by the torus and sphere
    pipelines, refine_cluster_residual and the search objective."""

    @pytest.mark.parametrize("omega", [0.3 + 1.1j, 1.3 + 1.1j])
    def test_records_polished_to_rounding(self, omega):
        # the 3x3 pattern search stalled on these fields at 2.3e-4 and 2.7e-3
        u = random_band_limited(4, TorusLattice(omega), n=128, budget=2, amplitude=0.4)
        records, audit, _ = torus_umbilics(u)
        assert records and audit.passed
        assert max(r.residual for r in records) <= 1e-12

    def test_one_jet_call_per_step_for_all_clusters(self, monkeypatch):
        u = random_band_limited(2, LAT, n=128, budget=3, amplitude=0.45)
        sizes = []
        jet = PeriodicField.jet_at

        def counted(self, z):
            sizes.append(np.size(z))
            return jet(self, z)

        monkeypatch.setattr(PeriodicField, "jet_at", counted)
        records, _, clusters = torus_umbilics(u)
        assert len(clusters) >= 40 and sizes[0] == len(clusters)
        assert len(sizes) <= 50
        assert max(r.residual for r in records) <= 1e-12

    def test_monotone_and_confined(self):
        f = ChartGrid.from_function("c1", 1.0, 64, lambda Z: Z - 0.5)
        z, mod = index._polish(f, [0.0, 0.45 + 0.02j], [0.2, 0.2])
        # the zero lies 0.5 from the first start: it stops short, inside its
        # reach, having lowered |f|
        assert abs(z[0]) <= 0.2 and 0.3 - 1e-12 <= mod[0] < 0.5
        assert abs(z[1] - 0.5) <= 1e-14 and mod[1] <= 1e-14

    def test_lands_on_zero_curve(self):
        # constant phase: the Jacobian is singular along the whole zero
        # curve, and the damped step still reaches it
        f = ChartGrid.from_function(
            "c1", 1.0, 64, lambda Z: (1 + 2j) * (Z.real - 0.3 + 0.2 * Z.imag ** 2))
        _, mod = index._polish(f, [0.25 + 0.1j, 0.36 - 0.2j], 0.1)
        assert np.all(mod <= 1e-14 * f.sup_norm())


class TestUmbilicIndex:
    def test_simple_zero(self):
        ch = ChartGrid.from_function("c1", 1.0, 64, lambda Z: Z - 0.1)
        assert umbilic_index(ch, 0.1, 0.3) == -1

    def test_conjugate_zero(self):
        ch = ChartGrid.from_function("c1", 1.0, 64, lambda Z: np.conj(Z - 0.1))
        assert umbilic_index(ch, 0.1, 0.3) == 1

    def test_antiholomorphic_double_zero(self):
        ch = ChartGrid.from_function("c1", 1.0, 64, lambda Z: np.conj(Z) ** 2)
        assert umbilic_index(ch, 0.0, 0.3) == 2

    def test_radius_independence(self):
        def f(Z):
            W = Z - 0.05j
            return W + 0.3 * np.conj(W) + 0.2 * W ** 2

        ch = ChartGrid.from_function("c1", 1.0, 96, f)
        vals = {umbilic_index(ch, 0.05j, r) for r in (0.08, 0.15, 0.3)}
        assert vals == {-1}

    def test_positive_scalar_invariance(self):
        base = lambda Z: np.conj(Z) - 0.1 * Z
        pos = lambda Z: 2.0 + np.cos(Z.real)
        ch1 = ChartGrid.from_function("c1", 1.0, 64, base)
        ch2 = ChartGrid.from_function("c1", 1.0, 64, lambda Z: base(Z) * pos(Z))
        assert umbilic_index(ch1, 0.0, 0.3) == umbilic_index(ch2, 0.0, 0.3) == 1

    def test_zero_on_contour(self):
        ch = ChartGrid.from_function("c1", 1.0, 64, lambda Z: Z - 0.3)
        with pytest.raises(ZeroOnContour):
            umbilic_index(ch, 0.0, 0.3)

    def test_quadratic_rep_sign(self):
        u = random_band_limited(3, LAT, n=64)
        inv = cartan_r(u, "p_form")
        alpha = inv.scale(-1.0)  # chart representative of the quadratic differential
        assert np.max(np.abs(alpha.values + inv.values)) == 0.0


class TestAudit:
    def test_torus_balance(self):
        recs = [UmbilicRecord(0.1, 1, 0, "torus", 0.1),
                UmbilicRecord(0.3, -1, 0, "torus", 0.1),
                UmbilicRecord(0.5 + 0.5j, 1, 0, "torus", 0.1),
                UmbilicRecord(0.7j, -1, 0, "torus", 0.1)]
        audit = poincare_hopf_audit(recs, "torus")
        assert audit.passed and audit.sum_twice_index == 0

    def test_sphere_four(self):
        recs = [UmbilicRecord(z, 1, 0, "chart1", 0.1) for z in (0.1, 0.2, 0.3, 0.4)]
        audit = poincare_hopf_audit(recs, "sphere")
        assert audit.passed and audit.expected_twice_index == 4

    def test_sphere_deficit(self):
        recs = [UmbilicRecord(0.1, 1, 0, "chart1", 0.1),
                UmbilicRecord(0.2, 1, 0, "chart1", 0.1)]
        audit = poincare_hopf_audit(recs, "sphere")
        assert not audit.passed and audit.discrepancy == -2

    def test_surface_euler(self):
        assert poincare_hopf_audit([], "torus").euler == 0
        assert poincare_hopf_audit([], "sphere").euler == 2
        with pytest.raises(ValueError):
            poincare_hopf_audit([], "cube")

    def test_index_string(self):
        assert UmbilicRecord(0, -1, 0, "t", 0.1).index_str == "-1/2"
        assert UmbilicRecord(0, 2, 0, "t", 0.1).index_str == "1"


class TestTorusPipeline:
    def test_seeded_potential_balances(self):
        u = random_band_limited(2, LAT, n=128, budget=2, amplitude=0.4)
        records, audit, clusters = torus_umbilics(u)
        assert audit.passed and audit.sum_twice_index == 0
        tw = [r.twice_index for r in records]
        assert 1 in tw and -1 in tw
        assert all(r.residual < 1e-6 for r in records)

    def test_constant_potential_degenerate(self):
        with pytest.raises(TotallyDegenerate):
            torus_umbilics(PeriodicField.constant(LAT, 64, 0.3))

    def test_dropped_cluster_is_reported(self):
        # the square-merged-pair input of the basis-change test: two
        # opposite-index zeros near 0.15+0.16j share one cluster of winding 0
        u = random_band_limited(1, LAT, n=128, budget=2, amplitude=0.4)
        records, audit, clusters = torus_umbilics(u)
        dropped = audit.details["dropped_clusters"]
        assert len(dropped) == 1
        assert dropped[0]["chart"] == "torus" and dropped[0]["cells"] == 2
        assert abs(complex(*dropped[0]["center"]) - (0.15 + 0.16j)) < 0.02
        assert len(records) == len(clusters) - 1

    def test_cross_checks_are_counted(self, monkeypatch):
        # every indexed cluster is either cross-checked by its circle or
        # counted under the reason its check was skipped
        u = random_band_limited(2, LAT, n=128, budget=2, amplitude=0.4)
        records, audit, _ = torus_umbilics(u)
        checks = audit.details["index_cross_checks"]
        assert set(checks) == {"ran", "not_isolated", "zero_on_contour", "phase_step"}
        assert sum(checks.values()) == len(records) and checks["ran"] > 0

        raised = iter([ZeroOnContour("on contour"), PhaseStepTooLarge("step")])

        def failing(*args, **kw):
            raise next(raised, ZeroOnContour("on contour"))

        monkeypatch.setattr(index, "umbilic_index", failing)
        _, audit, _ = torus_umbilics(u)
        skipped = audit.details["index_cross_checks"]
        assert skipped["ran"] == 0 and skipped["phase_step"] == 1
        assert skipped["zero_on_contour"] == checks["ran"] - 1
        assert skipped["not_isolated"] == checks["not_isolated"]

    @pytest.mark.xfail(strict=True, raises=PhaseStepTooLarge, reason=(
        "an edge phase step of about 2 rad (-2.018, 1.733, 1.914) stays "
        "unresolved at bisection depth 12 on these generic, well-resolved "
        "fields; n=256 fails the same way"))
    @pytest.mark.parametrize("omega, seed", [(0.3 + 1.1j, 1), (0.3 + 1.1j, 6), (1.3 + 1.1j, 2)],
                             ids=["oblique-seed1", "oblique-seed6", "sheared-seed2"])
    def test_generic_budget3_field(self, omega, seed):
        u = random_band_limited(seed, TorusLattice(omega), n=128, budget=3, amplitude=0.45)
        records, audit, _ = torus_umbilics(u)
        assert records and audit.passed
        assert max(r.residual for r in records) <= 1e-12

    @pytest.mark.parametrize("lattice, seed", [
        (LAT, 2), (OBLIQUE, 2),
        pytest.param(LAT, 1, marks=pytest.mark.xfail(strict=True, reason=(
            "two opposite-index zeros about 0.02 apart share one cluster of "
            "winding 0 on the square grid, and the pipeline drops it"))),
    ], ids=["square", "oblique", "square-merged-pair"])
    def test_lattice_basis_change(self, lattice, seed):
        # omega -> omega + 1 spans the same lattice: s + t omega =
        # (s + t) + t (omega + 1) relabels the mode (j, k) as (j, j + k)
        u = random_band_limited(seed, lattice, n=128, budget=2, amplitude=0.4)
        C = np.fft.fft2(u.values)
        sheared = np.stack([np.roll(row, j) for j, row in enumerate(C)])
        v = PeriodicField(TorusLattice(lattice.omega + 1), np.fft.ifft2(sheared)).real_part()
        old, _, _ = torus_umbilics(u)
        new, _, _ = torus_umbilics(v)
        assert sorted(r.twice_index for r in old) == sorted(r.twice_index for r in new)
        for r in old:
            match = min(new, key=lambda q: lattice.torus_distance(r.z0, q.z0))
            assert lattice.torus_distance(r.z0, match.z0) < 1e-9
            assert match.twice_index == r.twice_index

    @pytest.mark.parametrize("C", [-30.0, -10.0, 5.0, 10.0, 13.0, 14.0, 20.0])
    def test_constant_shift(self, C):
        # u -> u + C leaves r = Pu unchanged, and with it every umbilic:
        # the records match the unshifted ones bit for bit
        pot = TrigPotential.from_half_modes(
            LAT, {(1, 0): 0.2, (0, 1): 0.1 + 0.1j, (1, 1): 0.05 + 0.02j})
        ref, _, _ = torus_umbilics(pot.to_field(64))
        records, _, _ = torus_umbilics(pot.shifted(C).to_field(64))
        assert len(ref) == 12
        assert records == ref


class TestSpherePipeline:
    def test_unperturbed_is_degenerate(self):
        with pytest.raises(TotallyDegenerate):
            sphere_two_chart_umbilics(2, [])

    def test_first_harmonic_audit(self):
        records, audit = sphere_two_chart_umbilics(2, [("re_z", 0.05)])
        assert audit.passed and audit.sum_twice_index == 4
        assert all(s["stable"] for s in audit.details["chart_stability"])
        # the perturbation is axisymmetric about the x-axis, pinning the
        # umbilics to the fixed points z = +-1 of z -> 1/z
        for rec in records:
            assert abs(abs(rec.z0) - 1.0) < 0.05
        # the cluster near z = 1 holds two zeros; Newton from its centre
        # stalls at the saddle between them (3.2e-7) until restarted
        assert max(rec.residual for rec in records) <= 1e-12

    def test_boundary_zeros_reported_once(self):
        records, audit = sphere_two_chart_umbilics(2, [("re_z", 0.05)])
        # both umbilics straddle |z| = 1 and each must appear exactly once
        assert len(records) == 2
        # each chart saw both zeros
        assert sum(len(s["charts"]) for s in audit.details["chart_stability"]) == 4
        assert sum(audit.details["index_cross_checks"].values()) == 4

    def test_oversized_perturbation_rejected(self):
        with pytest.raises(NotPseudoconvex):
            sphere_metric_potentials(2, [("re_z", 3.0)], chart_n=64)
