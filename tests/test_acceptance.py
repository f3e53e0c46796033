"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from umbilic.cartan import (FORMS, cartan_r, cartan_r_all_forms, gauss_curvature,
                            kzz_identity_residual)
from umbilic.field import ChartGrid, PeriodicField, TorusLattice
from umbilic.index import sphere_two_chart_umbilics, torus_umbilics, umbilic_index, winding_degree
from umbilic.loewner import loewner_solve, tm_rank_report
from umbilic.series import PowerSeries2
from umbilic.torussearch import (SearchConfig, TrigPotential, chern_normalize,
                                 chern_number, symmetric_obstruction_check,
                                 torus_search)

from _oracles import one_directional, random_band_limited

OMEGAS = (1j, 0.3 + 1.1j)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number} PASS - {label}")


def suite_potentials():
    """Ten seeded random trigonometric potentials (five per lattice),
    mode budget <= 3, sup norm <= 0.5, on a 128^2 grid."""
    out = []
    for omega in OMEGAS:
        lat = TorusLattice(omega)
        for seed in range(5):
            out.append(random_band_limited(1000 + seed, lat, n=128,
                                           budget=3, amplitude=0.45))
    return out


@pytest.fixture(scope="module")
def suite():
    return suite_potentials()


def test_criterion_1_three_form_equivalence(suite):
    with criterion(1, "three forms of r agree to 1e-7 relative on the seeded suite"):
        t0 = time.monotonic()
        worst = 0.0
        for u in suite:
            forms = cartan_r_all_forms(u, tol=1e-7)
            rs = [forms[f] for f in FORMS]
            scale = 1.0 + max(r.sup_norm() for r in rs)
            for i in range(3):
                for j in range(i + 1, 3):
                    diff = float(np.max(np.abs(rs[i].values - rs[j].values)))
                    worst = max(worst, diff / scale)
        elapsed = time.monotonic() - t0
        assert worst <= 1e-7, f"worst relative disagreement {worst:.3e}"
        assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_2_curvature_identity(suite):
    with criterion(2, "Pu + (e^{2u}/2) K_zz identity holds to 1e-7 relative"):
        worst = 0.0
        for u in suite:
            P = cartan_r(u, "p_form")
            worst = max(worst, kzz_identity_residual(u) / (1.0 + P.sup_norm()))
        assert worst <= 1e-7, f"worst identity residual {worst:.3e}"


def test_criterion_3_constant_shift_invariance(suite):
    with criterion(3, "r is invariant under u -> u + C to 1e-10"):
        worst = 0.0
        for u in (suite[0], suite[7]):
            for form in FORMS:
                rA = cartan_r(u, form)
                scale = 1.0 + rA.sup_norm()
                for C in (-3.0, 1.0, 10.0):
                    rB = cartan_r(u.shift(C), form)
                    diff = float(np.max(np.abs(rA.values - rB.values))) / scale
                    worst = max(worst, diff)
        assert worst <= 1e-10, f"worst shift deviation {worst:.3e}"


def test_criterion_4_constant_curvature_kill():
    with criterion(4, "constant-curvature inputs give r = 0 and K = 4/d"):
        u0 = PeriodicField.constant(TorusLattice(1j), 128, 0.4)
        for form in FORMS:
            assert cartan_r(u0, form).sup_norm() <= 1e-8
        for d in (1, 2, 3):
            ch = ChartGrid.from_function(
                "c1", 1.5, 192,
                lambda Z: np.log(d) - 2 * np.log1p(np.abs(Z) ** 2), real_tag=True)
            assert cartan_r(ch, "p_form").sup_norm(1.0) <= 1e-8
            K = gauss_curvature(ch)
            assert np.max(np.abs(K.values - 4.0 / d)[K.mask(1.0)]) <= 1e-8


def test_criterion_5_exact_winding_and_sign_rule():
    with criterion(5, "winding degrees exact; simple-zero indices follow the sign rule"):
        th = 2 * np.pi * np.arange(256) / 256
        z = np.exp(1j * th)
        for k in range(-3, 4):
            vals = z ** k if k >= 0 else np.conj(z) ** (-k)
            assert winding_degree(vals) == k
        z0 = 0.15 - 0.1j
        holo = ChartGrid.from_function("c1", 1.0, 64, lambda Z: Z - z0)
        anti = ChartGrid.from_function("c1", 1.0, 64, lambda Z: np.conj(Z - z0))
        assert umbilic_index(holo, z0, 0.3) == -1
        assert umbilic_index(anti, z0, 0.3) == +1


def test_criterion_6_poincare_hopf_torus():
    with criterion(6, "torus index sums are exactly 0 with both signs present"):
        lat = TorusLattice(1j)
        saw_both = False
        for seed in (2, 3, 4, 5, 7):
            u = random_band_limited(seed, lat, n=128, budget=2, amplitude=0.4)
            records, audit, _ = torus_umbilics(u)
            assert records, f"seed {seed} found no umbilical circles"
            assert audit.sum_twice_index == 0 and audit.passed
            tw = [r.twice_index for r in records]
            if (1 in tw) and (-1 in tw):
                saw_both = True
        assert saw_both


def test_criterion_7_poincare_hopf_sphere():
    with criterion(7, "two-chart sphere run sums to 4 with chart-stable indices"):
        t0 = time.monotonic()
        records, audit = sphere_two_chart_umbilics(2, [("re_z", 0.05)])
        elapsed = time.monotonic() - t0
        assert audit.sum_twice_index == 4 and audit.passed
        stab = audit.details["chart_stability"]
        overlap = [s for s in stab if len(s["charts"]) == 2]
        assert overlap, "no record was recomputable in the other chart"
        assert all(s["stable"] for s in overlap)
        assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_8_loewner_recursion():
    with criterion(8, "prescription solves to 1e-9 and T_m has rank 2m+2, nullity 3"):
        rng = np.random.default_rng(77)
        for _ in range(5):
            coeffs = {(k, l): rng.normal() + 1j * rng.normal()
                      for k in range(11) for l in range(11 - k)}
            g = PowerSeries2(10, coeffs)
            sol = loewner_solve(g, 12)
            assert sol.residual_norm <= 1e-9
        for m in range(1, 13):
            assert tm_rank_report(m) == (2 * m + 2, 3)


def test_criterion_9_symmetry_obstruction():
    with criterion(9, "one-directional potentials always show zeros of Pu"):
        cases = []
        rng = np.random.default_rng(4242)
        directions = [(1, 0), (0, 1), (1, 1), (1, -1)]
        for omega in OMEGAS:
            lat = TorusLattice(omega)
            for jk in directions:
                for _ in range(3):
                    profile = {1: 0.12 * (rng.normal() + 1j * rng.normal()),
                               2: 0.04 * (rng.normal() + 1j * rng.normal())}
                    cases.append(one_directional(lat, jk, profile))
        assert len(cases) >= 20
        for pot, Y in cases:
            rep = symmetric_obstruction_check(pot, Y)
            assert rep.zeros_found and rep.curve_offsets
            assert max(rep.residuals) <= 1e-6
            assert rep.dpsi_sign_change


def test_criterion_10_search_harness():
    with criterion(10, "seeded search reproduces bit-identically; s-only runs report 0"):
        lat = TorusLattice(1j)
        cfg = SearchConfig(lattice=lat, mode_budget=3, trials=4,
                           evaluations=100, seed=42, grid_n=96)
        t0 = time.monotonic()
        rep1 = torus_search(cfg)
        elapsed = time.monotonic() - t0
        assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
        rep2 = torus_search(cfg)
        assert rep1.results_payload() == rep2.results_payload()
        s_cfg = SearchConfig(lattice=lat, mode_budget=3, trials=1,
                             evaluations=30, seed=42, grid_n=96,
                             mode_filter="s_only")
        assert torus_search(s_cfg).objective == 0.0
        # the harness records; it settles nothing: a positive best objective
        # carries a resolution guard, not a claim
        assert isinstance(rep1.resolution_ok, bool)


def test_criterion_11_chern_normalization():
    with criterion(11, "Chern quadrature is exact and leaves r unchanged"):
        for omega in OMEGAS:
            lat = TorusLattice(omega)
            pot = TrigPotential.from_half_modes(
                lat, {(1, 0): 0.12, (0, 1): -0.07j, (1, 1): 0.05})
            for c1 in (1, 2):
                out = chern_normalize(pot, c1)
                assert abs(chern_number(out) - c1) <= 1e-10 * c1
                rA = cartan_r(pot.to_field(128), "p_form")
                rB = cartan_r(out.to_field(128), "p_form")
                diff = float(np.max(np.abs(rA.values - rB.values)))
                assert diff <= 1e-10 * (1.0 + rA.sup_norm())
