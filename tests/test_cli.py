import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic import cli
from umbilic.cli import dump_grid, load_grid, main, parse_config, run
from umbilic.errors import ConfigError, DomainError, TotallyDegenerate
from umbilic.field import ChartGrid, PeriodicField, TorusLattice
from umbilic.torussearch import TrigPotential

from _oracles import benchmark_pool, fuzz_jobs

LAT = TorusLattice(1j)


def torus_cfg(**over):
    cfg = {
        "surface": {"kind": "torus", "omega": [0.0, 1.0]},
        "metric": {"builtin": "constant", "params": {"value": 0.0}},
        "operation": "invariant",
        "numeric": {"grid_n": 128},
    }
    cfg.update(over)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_good_config(self):
        assert parse_config(torus_cfg())[0]["numeric"]["grid_n"] == 128

    def test_missing_surface(self):
        with pytest.raises(ConfigError):
            parse_config({"metric": {}, "operation": "invariant"})

    def test_unknown_surface(self):
        with pytest.raises(ConfigError):
            parse_config(torus_cfg(surface={"kind": "cube"}))

    def test_unknown_operation(self):
        with pytest.raises(ConfigError):
            parse_config(torus_cfg(operation="explode"))

    def test_two_metric_sources(self):
        with pytest.raises(ConfigError):
            parse_config(torus_cfg(metric={"builtin": "constant", "modes": {}}))

    def test_odd_grid(self):
        with pytest.raises(ConfigError):
            parse_config(torus_cfg(numeric={"grid_n": 127}))

    def test_small_grid(self):
        with pytest.raises(ConfigError):
            parse_config(torus_cfg(numeric={"grid_n": 32}))

    def test_nonpositive_tolerance(self):
        with pytest.raises(ConfigError):
            parse_config(torus_cfg(numeric={"grid_n": 128,
                                            "tolerances": {"cross_form": -1.0}}))

    def test_real_omega_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(torus_cfg(surface={"kind": "torus", "omega": [1.0, 0.0]}))

    def test_echo_revalidates(self):
        echo, _ = parse_config(torus_cfg())
        assert parse_config(json.loads(json.dumps(echo)))[0] == echo


class TestRunners:
    def test_constant_torus_invariant(self):
        report = run(torus_cfg())
        res = report["results"]
        assert res["r_sup_norm"] <= 1e-10
        assert res["spherical"] is True

    def test_identical_configs_reproduce_results(self):
        cfg = torus_cfg(metric={"modes": {"1,0": [0.15, 0.0], "0,1": [0.0, -0.1]}})
        a = run(json.loads(json.dumps(cfg)))
        b = run(json.loads(json.dumps(cfg)))
        assert a["results"] == b["results"]

    def test_sphere_audit(self):
        cfg = {
            "surface": {"kind": "sphere", "degree": 2,
                        "perturbations": [{"harmonic": "re_z", "epsilon": 0.05}]},
            "metric": {"builtin": "fs"},
            "operation": "ph-audit",
            "numeric": {"grid_n": 256},
        }
        report = run(cfg)
        audit = report["results"]["audit"]
        assert audit["sum_twice_index"] == 4 and audit["passed"]
        # the chart resolution actually used is reported, outside results
        assert report["diagnostics"]["chart_n"] == 256
        assert "chart_n" not in report["results"]
        assert report["diagnostics"]["dropped_clusters"] == []
        # circle cross-checks are counted per run, outside results
        checks = report["diagnostics"]["index_cross_checks"]
        assert sum(checks.values()) >= len(report["results"]["records"])
        assert "index_cross_checks" not in report["results"]["audit"]

    def test_loewner_runner(self):
        cfg = {
            "surface": {"kind": "chart", "radius": 1.0},
            "metric": {"builtin": "constant"},
            "operation": "loewner",
            "loewner": {"g": {"builtin": "zbar"}, "order": 8},
        }
        report = run(cfg)
        res = report["results"]
        assert res["residual_norm"] <= 1e-12
        assert "1,0" in res["f_coeffs"]

    def test_loewner_unused_prescription_reported(self):
        cfg = {
            "surface": {"kind": "chart", "radius": 1.0},
            "metric": {"builtin": "constant"},
            "operation": "loewner",
            "loewner": {"g": {"builtin": "zbar"}, "order": 6,
                        "normalization": {"f_diag": [0.0] * 50, "phi_diag": [0.0] * 2}},
        }
        report = run(cfg)
        assert report["diagnostics"]["normalization_ignored"] == {"f_diag": 47, "phi_diag": 0}
        assert "normalization_ignored" not in report["results"]

    def test_obstruction_runner(self):
        cfg = torus_cfg(
            metric={"modes": {"1,0": [0.2, 0.0]}},
            operation="obstruction",
            obstruction={"direction": [0.0, 1.0]})
        report = run(cfg)
        res = report["results"]
        assert res["zeros_found"] and res["n_zero_clusters"] >= 1
        assert res["cluster_kinds"] == ["curve"]
        assert max(res["refined_residuals"]) <= 1e-6
        # the zero curves s = theta_i, one offset per curve cluster
        assert res["curve_line"] == [1, 0]
        assert len(res["curve_offsets"]) == res["n_zero_clusters"]
        assert res["profile_identity_residual"] <= 1e-13
        assert report["diagnostics"]["uncertified_roots"] == []

    @pytest.mark.xfail(strict=True, raises=TotallyDegenerate,
                       reason="for modes along omega r scales like (Im omega)^-4: sup|r| is "
                              "6.0e-14 at omega = 1e4 i, below the absolute floor "
                              "cartan._DEGENERATE_FLOOR = 1e-12, which takes it for zero")
    def test_obstruction_curves_do_not_depend_on_the_lattice_scale(self):
        # the curves are the theta-roots of the profile p, whatever omega
        def offsets(im):
            cfg = torus_cfg(surface={"kind": "torus", "omega": [0.0, im]},
                            metric={"modes": {"0,1": [0.3, 0.0], "0,2": [0.1, 0.05]}},
                            operation="obstruction", obstruction={"direction": [1.0, 0.0]},
                            numeric={"grid_n": 64})
            return run(cfg)["results"]["curve_offsets"]

        near = offsets(1.0)
        assert len(near) == 4
        assert np.allclose(offsets(1e4), near, rtol=0.0, atol=1e-12)

    def test_search_runner_reproducible(self):
        cfg = torus_cfg(operation="search",
                        numeric={"grid_n": 64, "seed": 11},
                        search={"mode_budget": 1, "trials": 1, "evaluations": 8})
        a = run(json.loads(json.dumps(cfg)))
        b = run(json.loads(json.dumps(cfg)))
        assert a["results"] == b["results"]
        assert "wall_time_s" in a["diagnostics"]


class TestMainAndExitCodes:
    def test_invariant_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        cfg = torus_cfg(output={"report": str(out)})
        code = main(["invariant", "--config", write_cfg(tmp_path, cfg)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["spherical"] is True
        capsys.readouterr()

    def test_large_amplitude_invariant_exit_zero(self, tmp_path, capsys):
        # u = 10 cos(2 pi s) at n = 64: the cross-form check holds at 1e-7
        cfg = torus_cfg(metric={"modes": {"1,0": [5.0, 0.0]}}, numeric={"grid_n": 64})
        assert main(["invariant", "--config", write_cfg(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["spherical"] is False

    @pytest.mark.parametrize("perturbations, spherical", [
        ([{"harmonic": "re_z", "epsilon": 0.05}], False), ([], True)])
    def test_sphere_invariant_exit_zero(self, tmp_path, capsys, perturbations, spherical):
        # the sphere branch of the invariant runner: the P form on a chart
        cfg = {"surface": {"kind": "sphere", "degree": 2, "perturbations": perturbations},
               "metric": {"builtin": "fs"}, "operation": "invariant",
               "numeric": {"grid_n": 128}}
        assert main(["invariant", "--config", write_cfg(tmp_path, cfg)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["form"] == "p_form" and res["spherical"] is spherical

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # main builds its parser once per process: calls after a command-line
        # error and an invalid config give the exit codes and reports of
        # calls that each build their own parser
        bad = write_cfg(tmp_path, {"surface": {"kind": "cube"}}, "bad.json")
        good = write_cfg(tmp_path, torus_cfg(numeric={"grid_n": 64}), "good.json")
        calls = [["bogus", "--config", bad], ["invariant", "--config", bad],
                 ["invariant", "--config", good], ["invariant", "--config", good, "--grid-n", "x"],
                 ["invariant", "--config", good, "--grid-n", "96"]]

        def outcomes(fresh):
            seen = []
            for argv in calls:
                if fresh:
                    cli.build_parser.cache_clear()
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = exc.code
                out = capsys.readouterr()
                seen.append((status, json.loads(out.out)["results"] if out.out else out.err))
            return seen

        shared = outcomes(fresh=False)
        assert [status for status, _ in shared] == [2, 2, 0, 2, 0]
        assert shared == outcomes(fresh=True)
        assert cli.build_parser() is cli.build_parser()

    def test_config_error_exit_2(self, tmp_path, capsys):
        code = main(["invariant", "--config",
                     write_cfg(tmp_path, {"surface": {"kind": "cube"}})])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["exit_status"] == 2

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        code = main(["invariant", "--config", str(tmp_path / "missing.json")])
        assert code == 2
        capsys.readouterr()

    def test_degenerate_exit_4(self, tmp_path, capsys):
        cfg = {
            "surface": {"kind": "sphere", "degree": 1, "perturbations": []},
            "metric": {"builtin": "fs"},
            "operation": "ph-audit",
            "numeric": {"grid_n": 128},
        }
        code = main(["ph-audit", "--config", write_cfg(tmp_path, cfg)])
        assert code == 4
        capsys.readouterr()

    def test_not_pseudoconvex_exit_3(self, tmp_path, capsys):
        cfg = {
            "surface": {"kind": "sphere", "degree": 1,
                        "perturbations": [{"harmonic": "re_z", "epsilon": 5.0}]},
            "metric": {"builtin": "fs"},
            "operation": "ph-audit",
            "numeric": {"grid_n": 128},
        }
        code = main(["ph-audit", "--config", write_cfg(tmp_path, cfg)])
        assert code == 3
        capsys.readouterr()

    def test_operation_mismatch_exit_2(self, tmp_path, capsys):
        cfg = torus_cfg(operation="search")
        code = main(["invariant", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("cfg", [
        # a mode in the top third of the frequency grid trips the tail check
        torus_cfg(metric={"modes": {"50,0": [1.0, 0.0]}}),
        # the search objective differentiates the candidate potential: s-only
        # members skip the line proofs and reach cartan_r's gate on the
        # modes >= n/6
        torus_cfg(operation="search", numeric={"grid_n": 64},
                  search={"mode_budget": 25, "trials": 1, "evaluations": 2,
                          "mode_filter": "s_only"}),
        # band 12 >= n/6 trips the potential's bound in cartan_r before the
        # proof path, which would differentiate X of band 24 >= n/3, runs
        torus_cfg(operation="obstruction", numeric={"grid_n": 64},
                  metric={"modes": {"12,0": [0.05, 0.0], "6,0": [0.05, 0.0]}},
                  obstruction={"direction": [0.0, 1.0]}),
        # band 11 passes every derivative check at n=64, but the cubic
        # products of r (band 33 > n/2) would be truncated
        torus_cfg(numeric={"grid_n": 64},
                  metric={"modes": {"11,0": [0.05, 0], "5,1": [0.05, 0.02],
                                    "1,1": [0.1, 0]}}),
    ], ids=["invariant", "search", "obstruction", "invariant-band"])
    def test_under_resolved_exit_6(self, tmp_path, capsys, cfg):
        code = main([cfg["operation"], "--config", write_cfg(tmp_path, cfg)])
        assert code == 6
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "UnderResolved"
        capsys.readouterr()

    def test_search_past_n_over_6_proven_by_lines_exits_0(self, tmp_path, capsys):
        # the lines read u's coefficients, exact at any grid_n, so a search
        # whose band 25 is past n/6 on n = 64 is scored with no P form when
        # its lines prove every member
        cfg = torus_cfg(operation="search", numeric={"grid_n": 64},
                        search={"mode_budget": 25, "trials": 1, "evaluations": 2})
        assert main(["search", "--config", write_cfg(tmp_path, cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"]["objective_certificates"] == [
            {"windings": 2, "polish": 0, "degenerate": 0, "nonzero": 0}]
        assert report["results"]["objective"] == 0.0

    @pytest.mark.parametrize("cfg", [
        torus_cfg(surface={"kind": "torus", "omega": ["a", 1]}),
        torus_cfg(metric={"modes": {"40,0": [0.1, 0.0]}}, numeric={"grid_n": 64}),
        torus_cfg(numeric={"grid_n": "big"}),
        torus_cfg(numeric={"grid_n": 128, "tolerances": {"cross_form": "abc"}}),
        {"surface": {"kind": "sphere", "degree": "x"}, "metric": {"builtin": "fs"},
         "operation": "umbilics", "numeric": {"grid_n": 128}},
        torus_cfg(operation="search", numeric={"grid_n": 64},
                  search={"mode_filter": "bogus"}),
        torus_cfg(operation="obstruction", obstruction={"direction": ["q", 1]}),
        torus_cfg(metric={"modes": [1, 2]}),
        torus_cfg(operation="loewner", loewner={"g": 5, "order": 8}),
        torus_cfg(operation="loewner",
                  loewner={"g": {"coeffs": {"a,1": [1.0, 0.0]}}, "order": 8}),
        torus_cfg(numeric={"grid_n": 128, "tolerances": [1e-7]}),
        torus_cfg(operation="loewner", loewner={"g": {"coeffs": [1, 2]}, "order": 8}),
        torus_cfg(operation="loewner",
                  loewner={"g": {"builtin": "zbar"}, "order": 8, "normalization": [1]}),
        torus_cfg(metric={"builtin": "constant", "params": [1]}),
        torus_cfg(output="x"),
        torus_cfg(operation="search", numeric={"grid_n": 64}, search={"trials": 0}),
        torus_cfg(operation="search", numeric={"grid_n": 64}, search={"trials": -1}),
        torus_cfg(operation="search", numeric={"grid_n": 64}, search={"mode_budget": 0}),
        torus_cfg(metric={"samples": 3}),
        torus_cfg(metric={"samples": True}),
        {"surface": {"kind": "sphere", "degree": 2}, "metric": {"builtin": "fs"},
         "operation": "obstruction", "obstruction": {"direction": [0.0, 1.0]}},
        {"surface": {"kind": "chart", "radius": 1.0}, "metric": {"builtin": "constant"},
         "operation": "obstruction", "obstruction": {"direction": [0.0, 1.0]}},
        torus_cfg(operation="loewner", loewner={"g": {"coeffs": {"0,1": [1.0]}}, "order": 8}),
        # a high descriptor number: an integer path must never be opened
        torus_cfg(output={"report": 987}),
        torus_cfg(output={"grid_dump": 987}),
        torus_cfg(operation="loewner", loewner={
            "g": {"builtin": "zbar"}, "order": 8,
            "normalization": {"suppress_phi_harmonic": "false"}}),
        torus_cfg(numeric={"grid_n": 64.9}),
        torus_cfg(operation="loewner", loewner={"g": {"builtin": "zbar"}, "order": 6.5}),
        torus_cfg(surface={"kind": "torus", "omega": [10 ** 400, 1]}),
        torus_cfg(operation="search", numeric={"grid_n": 64},
                  search={"mode_budget": 1, "trials": 1, "evaluations": 0}),
        torus_cfg(operation="search", numeric={"grid_n": 64},
                  search={"mode_budget": 1, "trials": 1, "evaluations": 2, "coeff_bound": -1}),
        torus_cfg(operation="search", numeric={"grid_n": 64},
                  search={"mode_budget": 40, "trials": 1, "evaluations": 2}),
        torus_cfg(operation="search", numeric={"grid_n": 64, "seed": -1},
                  search={"mode_budget": 1, "trials": 1, "evaluations": 2}),
        # relative to the test's working directory, where it does not exist
        torus_cfg(output={"report": "missing-directory/report.json"}),
        torus_cfg(output={"grid_dump": "missing-directory/r.csv"}),
        # rejected before any series array is sized from them
        torus_cfg(operation="loewner", loewner={"g": {"builtin": "zbar"}, "order": 65}),
        torus_cfg(operation="loewner",
                  loewner={"g": {"coeffs": {"60,5": [1.0, 0.0]}}, "order": 8}),
        {"surface": {"kind": "sphere", "degree": 10 ** 400}, "metric": {"builtin": "fs"},
         "operation": "umbilics", "numeric": {"grid_n": 128}},
        # 1 / (conj(omega) - omega) overflows
        torus_cfg(surface={"kind": "torus", "omega": [0.0, 1e-320]}),
        # rejected before a 262144^2 grid is allocated
        torus_cfg(numeric={"grid_n": 262144}),
        torus_cfg(numeric={"grid_n": cli.MAX_GRID_N + 2}),
        # tolerances and grid dumps the operation never reads
        torus_cfg(numeric={"grid_n": 128, "tolerances": {"crossform": 1e-30}}),
        torus_cfg(operation="umbilics", numeric={"grid_n": 128,
                                                 "tolerances": {"spherical": 0.5}}),
        {"surface": {"kind": "sphere", "degree": 2}, "metric": {"builtin": "fs"},
         "operation": "invariant", "numeric": {"grid_n": 128,
                                               "tolerances": {"cross_form": 1e-7}}},
        # a torus is degenerate by sup|r| alone, which takes no tolerance
        torus_cfg(numeric={"grid_n": 128, "tolerances": {"spherical": 1e-9}}),
        torus_cfg(operation="umbilics", output={"grid_dump": "r.csv"}),
    ], ids=["omega", "mode_too_high", "grid_n", "tolerance", "degree",
            "mode_filter", "direction", "modes_list", "loewner_g",
            "loewner_coeff_key", "tolerances_list", "loewner_coeffs_list",
            "loewner_normalization_list", "metric_params_list", "output_string",
            "search_trials_0", "search_trials_negative", "search_mode_budget_0",
            "samples_int", "samples_bool", "obstruction_sphere", "obstruction_chart",
            "loewner_coeff_short", "report_int", "grid_dump_int", "suppress_string",
            "grid_n_fraction", "loewner_order_fraction", "omega_huge",
            "search_evaluations_0", "search_coeff_bound_negative",
            "search_mode_budget_too_high", "seed_negative", "report_missing_directory",
            "grid_dump_missing_directory", "loewner_order_too_high",
            "loewner_coeff_degree_too_high", "sphere_degree_overflows_float",
            "omega_subnormal", "grid_n_huge", "grid_n_above_limit",
            "tolerance_unknown_name", "tolerances_on_umbilics",
            "cross_form_on_sphere_invariant", "spherical_on_torus_invariant",
            "grid_dump_on_umbilics"])
    def test_malformed_value_exit_2(self, tmp_path, capsys, monkeypatch, cfg):
        monkeypatch.chdir(tmp_path)
        code = main([cfg["operation"], "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)  # exactly one JSON object
        assert err["error"]["code"] == "ConfigError"
        assert err["error"]["exit_status"] == 2

    def test_grid_n_flag_above_limit_exit_2(self, tmp_path, capsys):
        code = main(["invariant", "--config", write_cfg(tmp_path, torus_cfg()),
                     "--grid-n", str(cli.MAX_GRID_N + 2)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "ConfigError"

    def test_error_not_written_to_integer_report(self, tmp_path, capsys):
        read_fd, write_fd = os.pipe()
        os.set_blocking(read_fd, False)
        try:
            cfg = torus_cfg(numeric={"grid_n": 127}, output={"report": write_fd})
            assert main(["invariant", "--config", write_cfg(tmp_path, cfg)]) == 2
            with pytest.raises(BlockingIOError):  # nothing reached the descriptor
                os.read(read_fd, 1)
        finally:
            os.close(read_fd)
            os.close(write_fd)
        capsys.readouterr()

    def test_overflow_exits_9(self, tmp_path, capsys):
        # u = 1400 cos(2 pi s): e^{-u} overflows, and without the check the
        # report held Infinity and NaN with exit 0
        cfg = torus_cfg(operation="obstruction", metric={"modes": {"1,0": [700.0, 0.0]}},
                        obstruction={"direction": [0.0, 1.0]})
        assert main(["obstruction", "--config", write_cfg(tmp_path, cfg)]) == 9
        captured = capsys.readouterr()
        err = json.loads(captured.err)  # exactly one JSON object
        assert err["error"]["code"] == "DomainError" and err["error"]["exit_status"] == 9
        assert captured.out == ""

    def test_overflowing_r_exits_9_on_umbilics_as_on_invariant(self, tmp_path, capsys):
        # r overflows to NaN: sup|r| used to pass umbilics' degeneracy floor,
        # and the cell pass flagged every cell (exit 4, "not isolated points")
        modes = {"1,0": [1e150, 0.0], "0,1": [3e149, 1e149], "1,1": [2e149, 0.0]}
        for op in ("invariant", "umbilics"):
            cfg = torus_cfg(operation=op, metric={"modes": modes}, numeric={"grid_n": 64})
            assert main([op, "--config", write_cfg(tmp_path, cfg)]) == 9, op
            err = json.loads(capsys.readouterr().err)
            assert err["error"]["code"] == "DomainError", op

    @pytest.mark.parametrize("block, message", [
        ({"a": [1.0, {"b": float("nan")}]}, "results.a[1].b is nan"),
        ([{"x": 2, "y": [0.5, np.float64(-np.inf)]}], "results[0].y[1] is -inf"),
        ({"first": [[float("inf")], float("nan")], "later": float("nan")},
         "results.first[0][0] is inf"),
        ({3: {"k": [[], ["s", None, True, float("-inf")]]}}, "results.3.k[1][3] is -inf"),
    ])
    def test_the_first_nonfinite_leaf_is_named_by_its_path(self, block, message):
        with pytest.raises(DomainError) as info:
            cli._require_finite(block, "results")
        assert str(info.value) == message + ": the computation left the float range"

    def test_finite_blocks_pass(self):
        cli._require_finite({"a": [1.0, {"b": 2, "c": "nan", "d": [1e308, -0.0]}]}, "results")

    @pytest.mark.parametrize("operation, modes, extra", [
        ("invariant", {"1,0": [0.2, 0.0], "0,1": [0.1, 0.1], "1,1": [0.05, 0.02]}, {}),
        ("umbilics", {"1,0": [0.2, 0.0], "0,1": [0.1, 0.1], "1,1": [0.05, 0.02]}, {}),
        ("obstruction", {"1,0": [0.2, 0.05], "2,0": [0.03, 0.0]},
         {"obstruction": {"direction": [0.0, 1.0]}}),
    ])
    def test_torus_runs_form_no_potential_samples(self, tmp_path, capsys, monkeypatch,
                                                  operation, modes, extra):
        # every torus operation reads the potential's kept spectrum, never
        # its n x n samples
        fields = []

        def to_field(pot, n, _to_field=TrigPotential.to_field):
            fields.append(_to_field(pot, n))
            return fields[-1]

        monkeypatch.setattr(TrigPotential, "to_field", to_field)
        cfg = torus_cfg(operation=operation, metric={"modes": modes}, numeric={"grid_n": 64},
                        **extra)
        assert main([operation, "--config", write_cfg(tmp_path, cfg)]) == 0
        capsys.readouterr()
        assert [f.n for f in fields] == [64]
        assert fields[0]._values is None

    def test_obstruction_past_mode_budget_128_exits_0(self, tmp_path, capsys):
        # mode budget 130 does not fit on 256 nodes: the Chern number takes
        # the smallest even count above twice the budget, 262
        cfg = torus_cfg(operation="obstruction", numeric={"grid_n": 392},
                        metric={"modes": {"1,0": [0.1, 0.05], "130,0": [1e-5, 0.0]}},
                        obstruction={"direction": [0.0, 1.0]})
        assert main(["obstruction", "--config", write_cfg(tmp_path, cfg)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["n_zero_clusters"] == 260
        field = parse_config(cfg)[1]["potential"].to_field(262)
        ref = field.lattice.cell_area * np.mean(np.exp(field.values.real)) / np.pi
        assert abs(res["chern_number_of_input"] - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("cfg, status, message", [
        (torus_cfg(metric={"modes": {"1,0": [1e300, 0.0]}}), 9, ""),
        # the placed spectrum overflows: the message names the input
        (torus_cfg(metric={"builtin": "constant", "params": {"value": 1e308}}), 9,
         "potential coefficients {(0, 0): (1e+308+0j)} leave the float range "
         "when placed on an n=128 grid"),
        # log(degree) of an integer past int64
        ({"surface": {"kind": "sphere", "degree": 10 ** 30}, "metric": {"builtin": "fs"},
          "operation": "umbilics", "numeric": {"grid_n": 64}}, 4, ""),
    ], ids=["mode_huge", "constant_huge", "sphere_degree_past_int64"])
    def test_float_faults_leave_one_error_object(self, tmp_path, cfg, status, message):
        # in a child process: pytest's warning capture would hide numpy's
        # RuntimeWarning lines from capsys
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "umbilic.cli", cfg["operation"],
             "--config", write_cfg(tmp_path, cfg)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == status
        err = json.loads(proc.stderr)  # exactly one JSON object
        assert err["error"]["exit_status"] == status
        assert message in err["error"]["message"]
        assert proc.stdout == ""

    def test_non_finite_result_exits_9(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setitem(cli._RUNNERS, "invariant",
                            lambda inputs: {"results": {"a": [1.0, {"b": float("nan")}]}})
        cfg = torus_cfg(output={"report": str(out)})
        assert main(["invariant", "--config", write_cfg(tmp_path, cfg)]) == 9
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == "DomainError"
        assert "results.a[1].b" in err["error"]["message"]
        assert json.loads(out.read_text()) == err

    def test_numeric_string_tolerance(self):
        modes = {"modes": {"1,0": [0.15, 0.0], "0,1": [0.0, -0.1]}}
        as_text = torus_cfg(metric=modes, numeric={
            "grid_n": 128, "tolerances": {"cross_form": "1e-7"}})
        as_number = torus_cfg(metric=modes, numeric={
            "grid_n": 128, "tolerances": {"cross_form": 1e-7}})
        assert run(as_text)["results"] == run(as_number)["results"]

    @pytest.mark.parametrize("operation", ["invariant", "umbilics"])
    @pytest.mark.parametrize("omega", [[0.0, 1.0], [0.3, 1.1]], ids=["square", "oblique"])
    def test_constant_shift(self, tmp_path, capsys, operation, omega):
        # u -> u + C leaves r = Pu unchanged, and the torus degeneracy rule
        # reads r alone: every results block matches the unshifted one
        # byte for byte, far past the range where e^{+-u} is a float
        def results(C):
            modes = {"1,0": [0.2, 0.0], "0,1": [0.1, 0.1], "1,1": [0.05, 0.02], "0,0": [C, 0.0]}
            cfg = torus_cfg(surface={"kind": "torus", "omega": omega}, operation=operation,
                            metric={"modes": modes}, numeric={"grid_n": 64})
            assert main([operation, "--config", write_cfg(tmp_path, cfg)]) == 0
            return json.dumps(json.loads(capsys.readouterr().out)["results"], sort_keys=True)

        ref = results(0.0)
        if operation == "invariant":
            assert json.loads(ref)["spherical"] is False
        elif omega == [0.0, 1.0]:
            assert len(json.loads(ref)["records"]) == 12
        for C in (-400.0, -30.0, 14.0, 15.0, 20.0, 400.0):
            assert results(C) == ref, C

    def test_search_reports_its_objective_groups(self, tmp_path, capsys):
        # in diagnostics, not results: each pool search scores its initial
        # simplex of 49 points and one shrink of 48 in one call each, around
        # three single points, and all 1,600 values are 0.  How each score
        # was decided is counted per trial, and most are proofs by row
        # windings
        values, kinds = [], dict.fromkeys(("windings", "polish", "degenerate", "nonzero"), 0)
        for jid, cfg in benchmark_pool("search").items():
            assert main(["search", "--config", write_cfg(tmp_path, cfg)]) == 0
            report = json.loads(capsys.readouterr().out)
            for key in ("objective_groups", "objective_certificates"):
                assert key not in report["results"]
            groups = report["diagnostics"]["objective_groups"]
            certificates = report["diagnostics"]["objective_certificates"]
            assert [sum(c.values()) for c in certificates] == [sum(g) for g in groups]
            if jid == "search/warmup":  # 10 evaluations: the simplex, cut
                assert groups == [[10]]
                continue
            assert groups == [[49, 1, 1, 48, 1]]
            values += [v for _, v in report["results"]["history"]]
            for key, count in certificates[0].items():
                kinds[key] += count
        assert len(values) == 1600 and [v for v in values if v] == []
        assert kinds["nonzero"] == 0 and kinds["windings"] > 0.9 * len(values)

    def test_overrides(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        cfg = torus_cfg()
        code = main(["invariant", "--config", write_cfg(tmp_path, cfg),
                     "--grid-n", "64", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["numeric"]["grid_n"] == 64
        capsys.readouterr()

    @pytest.mark.parametrize("argv, status, stream, text", [
        (["bogus", "--config", "cfg.json"], 2, "err",
         "argument operation: invalid choice: 'bogus'"),
        (["invariant"], 2, "err", "the following arguments are required: --config"),
        (["--version"], 0, "out", cli.__version__),
    ], ids=["unknown_operation", "missing_config", "version"])
    def test_command_line(self, capsys, argv, status, stream, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
        assert text in getattr(capsys.readouterr(), stream)


# one config per operation: none of them may load scipy, or any module at all
# once umbilic.cli is imported
SCIPY_FREE_CONFIGS = {
    "obstruction": torus_cfg(metric={"modes": {"1,0": [0.2, 0.0]}}, operation="obstruction",
                             numeric={"grid_n": 64}, obstruction={"direction": [0.0, 1.0]}),
    "invariant": torus_cfg(metric={"modes": {"1,0": [0.2, 0.0], "1,1": [0.05, 0.1]}}),
    "ph-audit": {"surface": {"kind": "sphere", "degree": 1,
                             "perturbations": [{"harmonic": "re_z", "epsilon": 0.05}]},
                 "metric": {"builtin": "fs"}, "operation": "ph-audit",
                 "numeric": {"grid_n": 128}},
    "loewner": {"surface": {"kind": "chart", "radius": 1.0}, "metric": {"builtin": "constant"},
                "operation": "loewner", "loewner": {"g": {"builtin": "zbar"}, "order": 8}},
    "umbilics": torus_cfg(metric={"modes": {"1,0": [0.2, 0.0], "1,1": [0.05, 0.1]}},
                          operation="umbilics", numeric={"grid_n": 64}),
    "search": torus_cfg(operation="search", numeric={"grid_n": 64},
                        search={"mode_budget": 1, "trials": 1, "evaluations": 5}),
}

# the modules import umbilic.cli loads, then per operation main's exit
# status and the modules its call added
_MODULE_PROBE = """
import json, sys
import umbilic.cli as cli
imported = set(sys.modules)
seen = {"import": sorted(imported)}
for op, path in zip(sys.argv[1::2], sys.argv[2::2]):
    status = cli.main([op, "--config", path, "--out", path + ".out"])
    seen[op] = [status, sorted(set(sys.modules) - imported)]
print(json.dumps(seen))
"""


def test_main_loads_no_module_after_import(tmp_path):
    # in a child process: this interpreter has imported scipy and
    # numpy.random already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    args = [a for op, cfg in SCIPY_FREE_CONFIGS.items()
            for a in (op, write_cfg(tmp_path, cfg, f"{op}.json"))]
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # numpy loads these subpackages on first use; the CLI uses none of them
    unused = ("scipy", "numpy.random", "numpy.ma", "numpy.polynomial")
    assert [m for m in seen.pop("import")
            if any(m == p or m.startswith(p + ".") for p in unused)] == []
    assert seen == {op: [0, []] for op in SCIPY_FREE_CONFIGS}


class TestGridDump:
    def test_constant_field_rows(self, tmp_path):
        f = PeriodicField.constant(LAT, 8, 1.0)
        path = tmp_path / "grid.csv"
        dump_grid(f, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,t,re,im"
        assert len(lines) == 1 + 64
        for line in lines[1:]:
            s, t, re, im = line.split(",")
            assert float(re) == 1.0 and float(im) == 0.0

    def test_chart_header(self, tmp_path):
        ch = ChartGrid.from_function("c1", 1.0, 16, lambda Z: Z)
        path = tmp_path / "chart.csv"
        dump_grid(ch, str(path))
        text = path.read_text()
        assert text.startswith("x,y,re,im\n")
        # the body: one row per sample, row major, each number as f"{x:.17g}"
        x, y = ch.corner_st(np.arange(16), np.arange(16))
        rows = [f"{a:.17g},{b:.17g},{v.real:.17g},{v.imag:.17g}\n"
                for a, row in zip(x, ch.values) for b, v in zip(y, row)]
        assert text[len("x,y,re,im\n"):] == "".join(rows)

    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        f = PeriodicField(LAT, vals)
        path = tmp_path / "grid.csv"
        dump_grid(f, str(path))
        back = load_grid(str(path), LAT)
        assert np.array_equal(back.values, f.values)

    def test_dump_matches_in_memory_stats(self, tmp_path):
        cfg = torus_cfg(metric={"modes": {"1,0": [0.15, 0.0]}},
                        output={"grid_dump": str(tmp_path / "r.csv")})
        report = run(cfg)
        back = load_grid(str(tmp_path / "r.csv"), LAT)
        assert float(np.max(np.abs(back.values))) == pytest.approx(
            report["results"]["r_sup_norm"], rel=1e-12)

    def test_samples_metric_roundtrip(self, tmp_path):
        # dump a potential and feed it back through the samples metric source
        pot_cfg = torus_cfg(metric={"modes": {"1,0": [0.15, 0.0], "1,1": [0.0, 0.05]}})
        pot = parse_config(pot_cfg)[1]["potential"]
        field = pot.to_field(128)
        path = tmp_path / "u.csv"
        dump_grid(field, str(path))
        cfg = torus_cfg(metric={"samples": str(path)})
        report = run(cfg)
        direct = run(pot_cfg)
        assert report["results"]["r_sup_norm"] == pytest.approx(
            direct["results"]["r_sup_norm"], rel=1e-9)

    @pytest.mark.parametrize("shift", [0.0, 5e4])
    def test_samples_metric_matches_modes_on_the_pool(self, tmp_path, shift):
        # each torus umbilics pool config, dumped at its grid_n as samples of
        # u + shift: the samples route recovers the modes from their one
        # spectrum, and r ignores the shift, so the records are the modes'
        pool = {jid: cfg for jid, cfg in benchmark_pool("catalogue").items()
                if cfg["operation"] == "umbilics" and cfg["surface"]["kind"] == "torus"}
        assert len(pool) == 4
        path = tmp_path / "u.csv"
        for jid, cfg in pool.items():
            pot = parse_config(copy.deepcopy(cfg))[1]["potential"]
            dump_grid(pot.to_field(cfg["numeric"]["grid_n"]).shift(shift), str(path))
            modes = run(copy.deepcopy(cfg))["results"]["records"]
            samples = run(dict(copy.deepcopy(cfg), metric={"samples": str(path)}))["results"]["records"]
            assert [r["twice_index"] for r in samples] == [r["twice_index"] for r in modes], jid
            assert np.max(np.abs(np.array([r["z0"] for r in samples])
                                 - np.array([r["z0"] for r in modes]))) <= 1e-9, jid

    @pytest.mark.parametrize("fault", ["nan", "inf", "permuted_st"])
    def test_bad_samples_exit_2(self, tmp_path, capsys, fault):
        # a non-finite sample, or s,t columns off the row-major grid
        pot_cfg = torus_cfg(metric={"modes": {"1,0": [0.15, 0.0]}}, numeric={"grid_n": 64})
        path = tmp_path / "u.csv"
        dump_grid(parse_config(pot_cfg)[1]["potential"].to_field(64), str(path))
        lines = path.read_text().split("\n")
        if fault == "permuted_st":
            lines[2], lines[3] = lines[3], lines[2]
        else:
            s, t, _, im = lines[100].split(",")
            lines[100] = ",".join((s, t, fault, im))
        path.write_text("\n".join(lines))
        cfg = torus_cfg(metric={"samples": str(path)}, numeric={"grid_n": 64})
        assert main(["invariant", "--config", write_cfg(tmp_path, cfg)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "ConfigError" and error["exit_status"] == 2


# one valid config per operation and surface kind; parse_config never runs them
FUZZ_BASES = [
    torus_cfg(metric={"modes": {"1,0": [0.15, 0.0], "0,1": [0.0, -0.1]}},
              numeric={"grid_n": 64, "seed": 1, "tolerances": {"cross_form": 1e-7}},
              output={"report": "r.json", "grid_dump": "r.csv"}),
    {"surface": {"kind": "sphere", "degree": 2,
                 "perturbations": [{"harmonic": "re_z", "epsilon": 0.05}]},
     "metric": {"builtin": "fs"}, "operation": "umbilics", "numeric": {"grid_n": 128}},
    torus_cfg(operation="ph-audit", metric={"builtin": "constant", "params": {"value": 0.5}}),
    {"surface": {"kind": "chart", "radius": 1.0}, "metric": {"builtin": "constant"},
     "operation": "loewner",
     "loewner": {"g": {"coeffs": {"0,1": [1.0, 0.0], "2,1": [0.5, -0.5]}}, "order": 8,
                 "normalization": {"f_diag": [0.1], "phi_diag": [0.2],
                                   "suppress_phi_harmonic": False}}},
    torus_cfg(operation="loewner", loewner={"g": {"builtin": "zbar"}, "order": 6}),
    torus_cfg(operation="search", numeric={"grid_n": 64, "seed": 3},
              search={"mode_budget": 2, "trials": 1, "evaluations": 10,
                      "coeff_bound": 0.5, "mode_filter": "s_only"}),
    torus_cfg(operation="obstruction", metric={"modes": {"1,0": [0.2, 0.0]}},
              obstruction={"direction": [0.0, 1.0]}),
]

# huge integers, non-finite floats and text that reads as a number or a name
EDGE_VALUES = st.sampled_from([
    10 ** 400, -10 ** 400, 2 ** 64, float("inf"), float("nan"), 0, -1, 64.9, "1e-7", "64",
    "6.5", "false", "inf", "nan", "0,1", "torus", "sphere", "chart", "fs", "zbar", "constant"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | EDGE_VALUES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "omega", "degree", "builtin", "modes", "value",
                         "g", "order", "coeffs", "direction"]) | st.text(max_size=6),
        inner, max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    """Every key path below node, leaves and sections alike."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


class TestParseFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_parse_returns_or_raises_config_error(self, data):
        cfg = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
        path = data.draw(st.sampled_from(list(_paths(cfg))))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(EDGE_VALUES | JSON_VALUES)
        try:
            parse_config(cfg)
        except ConfigError:
            pass


class TestNumericFuzz:
    # the numerical stages on inputs that parse: main returns 0 or a
    # documented status 2-9, and a failure leaves one JSON error object

    @staticmethod
    def _keeps_the_exit_contract(op, cfg, path, capsys):
        path.write_text(json.dumps(cfg))
        try:
            status = main([op, "--config", str(path)])
        except Exception as exc:
            pytest.fail(f"{op} config {cfg} escapes the exit contract: {exc!r}")
        err = capsys.readouterr().err
        assert status == 0 or 2 <= status <= 9, (op, cfg, status)
        if status:
            assert set(json.loads(err)) == {"error"}, (op, cfg, err)

    def test_main_keeps_the_exit_contract(self, tmp_path, capsys):
        for kind, op, cfg in fuzz_jobs():
            if kind == "torus":
                self._keeps_the_exit_contract(op, cfg, tmp_path / "cfg.json", capsys)

    def test_sphere_keeps_the_exit_contract(self, tmp_path, capsys):
        for kind, op, cfg in fuzz_jobs():
            if kind == "sphere":
                self._keeps_the_exit_contract(op, cfg, tmp_path / "cfg.json", capsys)
