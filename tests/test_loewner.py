import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from umbilic import cli, loewner
from umbilic.loewner import (LoewnerNormalization, curved_hessian_residual,
                             loewner_solve, real_basis, tm_matrix,
                             tm_rank_report)
from umbilic.series import PowerSeries2


def random_g(seed, degree=10):
    rng = np.random.default_rng(seed)
    coeffs = {(k, l): rng.normal() + 1j * rng.normal()
              for k in range(degree + 1) for l in range(degree + 1 - k)}
    return PowerSeries2(degree, coeffs)


class TestRealBasis:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_dimension(self, d):
        assert len(real_basis(d)) == d + 1

    @pytest.mark.parametrize("d", range(1, 6))
    def test_elements_are_real(self, d):
        for b in real_basis(d):
            assert b.real_tag
            z = 0.3 + 0.7j
            assert abs(b.eval(z).imag) < 1e-14


class TestTmMatrix:
    def test_shapes(self):
        assert tm_matrix(1).shape == (4, 7)
        assert tm_matrix(2).shape == (6, 9)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            tm_matrix(0)

    @pytest.mark.parametrize("m", range(1, 23))
    def test_matrix_matches_formal_differentiation(self, m):
        # apply T_m through the series ops to a random domain vector and
        # compare with the closed-form matrix, for every degree an order-24
        # solve reaches
        rng = np.random.default_rng(m)
        M = tm_matrix(m)
        x = rng.normal(size=M.shape[1])
        fb = real_basis(m + 2)
        pb = real_basis(m + 1)
        f = PowerSeries2.zero(m + 2)
        for i, b in enumerate(fb):
            f = f.add(b.scale(x[i]))
        phi = PowerSeries2.zero(m + 1)
        for i, b in enumerate(pb):
            phi = phi.add(b.scale(x[len(fb) + i]))
        img = f.derivative("D").derivative("D").add(phi.derivative("D").scale(-2.0))
        want = np.zeros(2 * (m + 1))
        for j in range(m + 1):
            c = img.coeff(j, m - j)
            want[2 * j] = c.real
            want[2 * j + 1] = c.imag
        assert np.max(np.abs(M @ x - want)) < 1e-12

    @pytest.mark.parametrize("m", range(1, 13))
    def test_rank_and_nullity(self, m):
        assert tm_rank_report(m) == (2 * m + 2, 3)


class TestLoewnerSolve:
    def test_zero_data(self):
        sol = loewner_solve(PowerSeries2.zero(10), 12)
        assert sol.f.coeffs == {(1, 0): 1.0, (0, 1): 1.0}
        assert sol.phi.coeffs == {}
        assert sol.residual_norm == 0.0

    def test_constant_data(self):
        g0 = 2.0 + 1.0j
        sol = loewner_solve(PowerSeries2.constant(g0, 4), 6)
        assert abs(sol.f.coeff(2, 0) - g0 / 2) < 1e-14
        assert abs(sol.f.coeff(0, 2) - np.conj(g0) / 2) < 1e-14
        assert abs(sol.f.coeff(1, 1)) == 0.0
        assert sol.phi.coeffs == {}

    def test_zbar_data(self):
        sol = loewner_solve(PowerSeries2(6, {(0, 1): 1.0}), 8)
        assert sol.residual_norm <= 1e-12
        for k in range(2, 8):
            assert abs(sol.phi.coeff(k, 0)) == 0.0
            assert abs(sol.phi.coeff(0, k)) == 0.0

    def test_degree_one_part_is_exact(self):
        sol = loewner_solve(random_g(5), 12)
        assert sol.f.coeff(1, 0) == 1.0 and sol.f.coeff(0, 1) == 1.0
        assert sol.phi.coeff(0, 0) == 0.0
        assert sol.phi.coeff(1, 0) == 0.0 and sol.phi.coeff(0, 1) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_data_residual(self, seed):
        sol = loewner_solve(random_g(seed), 12)
        assert sol.residual_norm <= 1e-9

    def test_reality_is_structural(self):
        sol = loewner_solve(random_g(9), 10)
        for series in (sol.f, sol.phi):
            for (k, l), c in series.coeffs.items():
                assert abs(np.conj(series.coeff(l, k)) - c) < 1e-13

    def test_deterministic_reruns(self):
        g = random_g(33)
        a = loewner_solve(g, 12)
        b = loewner_solve(g, 12)
        assert a.f.coeffs == b.f.coeffs
        assert a.phi.coeffs == b.phi.coeffs

    def test_diagonal_prescription_honored(self):
        norm = LoewnerNormalization(f_diag=[0.7, -0.3], phi_diag=[0.2])
        sol = loewner_solve(random_g(4), 8, norm)
        assert abs(sol.f.coeff(1, 1) - 0.7) < 1e-12
        assert abs(sol.f.coeff(2, 2) - (-0.3)) < 1e-12
        assert abs(sol.phi.coeff(1, 1) - 0.2) < 1e-12
        assert sol.residual_norm <= 1e-9

    @pytest.mark.parametrize("N", range(2, 9))
    def test_ignored_entries_match_the_solve(self, N):
        # an entry is read exactly when prescribing it changes the solution
        g = random_g(5)
        base = loewner_solve(g, N)

        def changes(**diag):
            sol = loewner_solve(g, N, LoewnerNormalization(**diag))
            return (sol.f.coeffs, sol.phi.coeffs) != (base.f.coeffs, base.phi.coeffs)

        read = {}
        for name in ("f_diag", "phi_diag"):
            read[name] = [i for i in range(N) if changes(**{name: [0.0] * i + [0.5]})]
            assert read[name] == list(range(len(read[name])))
        norm = LoewnerNormalization(f_diag=[0.1] * N, phi_diag=[0.1] * N)
        assert norm.ignored(N) == {"f_diag": N - len(read["f_diag"]),
                                   "phi_diag": N - len(read["phi_diag"])}

    def test_input_validation(self):
        with pytest.raises(ValueError):
            loewner_solve(PowerSeries2.zero(10), 1)
        with pytest.raises(ValueError):
            loewner_solve(PowerSeries2.zero(3), 12)


class TestCurvedHessianResidual:
    def test_solution_residual_is_tiny(self):
        g = random_g(12)
        sol = loewner_solve(g, 12)
        resid = curved_hessian_residual(sol.f, sol.phi, g, 12)
        assert resid <= 1e-9 * (1.0 + g.max_coeff())

    def test_detects_wrong_candidate(self):
        f = PowerSeries2(4, {(1, 0): 1.0, (0, 1): 1.0, (2, 0): 1.0, (0, 2): 1.0},
                         real_tag=True)
        phi = PowerSeries2.zero(3)
        g = PowerSeries2.zero(2)
        assert curved_hessian_residual(f, phi, g, 4) == pytest.approx(2.0)

    def test_requires_enough_degrees(self):
        with pytest.raises(ValueError):
            curved_hessian_residual(PowerSeries2.zero(3), PowerSeries2.zero(3),
                                    PowerSeries2.zero(3), 8)


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_tracer_records_the_loewner_layers():
    # perfbench wraps these callables by name; a rename must fail here, not
    # only in a traced benchmark run
    tracing = load_tracing()
    solve = loewner.loewner_solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loewner.loewner_solve(random_g(3, degree=4), 6)
    finally:
        tracer.uninstall()
    assert loewner.loewner_solve is solve
    stats = tracing.span_stats(tracer.spans)
    for name in ("loewner.solve", "loewner.tm_matrix", "loewner.residual", "series.mul"):
        assert stats.get(name, {}).get("calls", 0) >= 1, name
    assert stats["loewner.tm_matrix"]["calls"] == 4
    assert stats["series.mul"]["work"] > 0  # term pairs, from .coeffs


def test_perfbench_tracer_records_the_invariant_and_obstruction_layers():
    # the cross-form check and the spherical screen are wrapped by name as
    # well, and so are the zero-location layers the obstruction no longer calls
    tracing = load_tracing()
    torus = {"surface": {"kind": "torus", "omega": [0.0, 1.0]},
             "metric": {"modes": {"1,0": [0.2, 0.0]}}, "numeric": {"grid_n": 64}}

    def traced(cfg):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cli.run(cfg)
        finally:
            tracer.uninstall()
        return tracing.span_stats(tracer.spans)

    stats = traced(dict(torus, operation="invariant"))
    assert stats.get("cartan.cross_form", {}).get("calls", 0) >= 1
    # a torus is screened by sup|r| alone; a sphere chart keeps spherical_test
    assert stats.get("cartan.spherical_test", {}).get("calls", 0) == 0
    stats = traced({"surface": {"kind": "sphere", "degree": 2,
                                "perturbations": [{"harmonic": "re_z", "epsilon": 0.05}]},
                    "metric": {"builtin": "fs"}, "operation": "invariant",
                    "numeric": {"grid_n": 64}})
    assert stats.get("cartan.spherical_test", {}).get("calls", 0) >= 1
    stats = traced(dict(torus, operation="obstruction", obstruction={"direction": [0.0, 1.0]}))
    # the obstruction finds its zero curves from the one-dimensional profile:
    # no 2-D cell pass and no polish
    for name in ("index.locate_zero_cells", "index.refine_cluster_residual"):
        assert stats.get(name, {}).get("calls", 0) == 0, name
    # and audits the proof in 1-D: Du for Yu, five for the P form
    assert stats["field.derivative"]["calls"] == 6
    assert stats["cartan.cartan_r"]["calls"] == 1


def test_perfbench_tracer_restores_every_wrapped_name(monkeypatch):
    # install() looks every traced name up (one deleted or moved out of its
    # class body raises here) and uninstall() must put each original back
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    mods = {m: importlib.import_module(f"umbilic.{m}") for m in tracing.PACKAGE_MODULES}
    owners = list(mods.values()) + [getattr(mods[mod], cls)
                                    for _, mod, cls, _, _ in tracing.METHODS]
    before = [dict(vars(owner)) for owner in owners]
    runners = dict(cli._RUNNERS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod, attr in tracing.FUNCTIONS.values():
            assert hasattr(getattr(mods[mod], attr), "__wrapped__"), (mod, attr)
        for _, mod, cls, meth, _ in tracing.METHODS:
            assert hasattr(vars(getattr(mods[mod], cls))[meth], "__wrapped__"), (cls, meth)
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        now = vars(owner)
        assert now.keys() == names.keys(), owner
        assert [k for k, v in names.items() if now[k] is not v] == [], owner
    assert cli._RUNNERS.keys() == runners.keys()
    assert all(cli._RUNNERS[op] is fn for op, fn in runners.items())
