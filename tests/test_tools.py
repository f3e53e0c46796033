import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_trajectory", Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py")
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)

METRICS = ("wall_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb")


def write_result(checkout: Path, workload: str, seed: int, revision: str, value: float,
                 python: str = "3.11.7"):
    """A ``perfbench/run.py --trace 0`` result file holding what the summary
    reads: every end-to-end metric at ``value``."""
    (checkout / ".perfbench").mkdir(parents=True, exist_ok=True)
    result = {"env": {"revision": revision, "python": python, "nproc": 2},
              "metrics": {name: value for name in METRICS},
              "fail_ratio": [0, 10], "rounds": 3}
    path = checkout / ".perfbench" / f"result-{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(result))


def test_only_paired_files_are_summarised(tmp_path, capsys):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "point.json"
    for seed, (old, new) in enumerate([(1.0, 0.5), (1.2, 0.6), (0.9, 1.1)], start=1):
        write_result(parent, "search", seed, "p" * 40, old)
        write_result(change, "search", seed, "c" * 40, new)
    # unpaired: a stale parent seed and a change seed run elsewhere
    write_result(parent, "search", 9, "0" * 40, 5.0)
    write_result(change, "search", 4, "1" * 40, 0.1, python="3.12.0")
    write_result(change, "catalogue", 1, "1" * 40, 0.1)

    assert bench_trajectory.main([str(parent), str(change), str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["revisions"] == {"parent": ["p" * 40], "change": ["c" * 40]}
    assert doc["env"]["python"] == "3.11.7"
    assert list(doc["workloads"]) == ["search"]
    search = doc["workloads"]["search"]
    assert search["pairs"] == 3 and search["seeds"] == [1, 2, 3]
    wall = search["metrics"]["wall_s"]
    assert wall["change_won"] == 2
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 0.6


@pytest.mark.parametrize("stale_side", ["parent", "change"])
def test_a_stale_paired_seed_is_refused(tmp_path, capsys, stale_side):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "point.json"
    for seed in (1, 2):
        write_result(parent, "search", seed, "p" * 40, 1.0)
        write_result(change, "search", seed, "c" * 40, 0.5)
    # seed 0 left in both .perfbench/ directories by an earlier session
    write_result(parent, "search", 0, "0" * 40 if stale_side == "parent" else "p" * 40, 1.0)
    write_result(change, "search", 0, "0" * 40 if stale_side == "change" else "c" * 40, 0.5)

    assert bench_trajectory.main([str(parent), str(change), str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"paired {stale_side} results carry revisions" in err and "0" * 40 in err


def test_no_pair_or_an_existing_point_exits_1(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "point.json"
    write_result(parent, "search", 1, "p" * 40, 1.0)
    write_result(change, "search", 2, "c" * 40, 0.5)
    assert bench_trajectory.main([str(parent), str(change), str(out)]) == 1
    assert not out.exists()
    write_result(change, "search", 1, "c" * 40, 0.5)
    out.write_text("{}")
    assert bench_trajectory.main([str(parent), str(change), str(out)]) == 1
    assert out.read_text() == "{}"


_DIFF_SPEC = importlib.util.spec_from_file_location(
    "results_diff", Path(__file__).resolve().parents[1] / "tools" / "results_diff.py")
results_diff = importlib.util.module_from_spec(_DIFF_SPEC)
_DIFF_SPEC.loader.exec_module(results_diff)


def outcome(results, **diagnostics):
    return {"status": 0, "escaped": None, "results": results, "config": {"operation": "x"},
            "diagnostics": diagnostics, "error": None}


def test_results_diff_lists_diagnostics_keys_of_one_tree_apart():
    old = {"search/a": outcome({"v": 1.0}, uncertified=[]),
           "search/b": outcome({"v": 2.0}, gone=1),
           "umbilics/c": outcome({"v": 3.0}, dropped=[1]),
           "umbilics/d": outcome({"v": 4.0})}
    new = {"search/a": outcome({"v": 1.0}, uncertified=[], objective_groups=[[49, 1]]),
           "search/b": outcome({"v": 2.0}, objective_groups=[[10]]),
           "umbilics/c": outcome({"v": 3.5}, dropped=[2]),
           "umbilics/d": outcome({"v": 4.0})}
    report = results_diff.compare(old, new)
    assert report["identical"] == 3 and report["differ"] == ["umbilics/c"]
    assert report["diagnostics_mismatches"] == ["search/a", "search/b", "umbilics/c"]
    assert report["diagnostics_keys_only_new"] == {"objective_groups": ["search/a", "search/b"]}
    assert report["diagnostics_keys_only_old"] == {"gone": ["search/b"]}
    assert report["diagnostics_changed"] == {"dropped": ["umbilics/c"]}
    assert results_diff.compare(old, old)["diagnostics_keys_only_new"] == {}


def test_results_diff_totals_the_objective_certificates_of_each_tree():
    # a certificate that moves reads as counts: each tree's totals by kind
    # over every trial of every search that reports them
    def certified(*trials):
        return outcome({"objective": 0.0}, objective_certificates=list(trials))

    old = {"search/a": certified({"windings": 90, "polish": 10}, {"windings": 100, "polish": 0}),
           "search/b": certified({"windings": 3, "polish": 0, "nonzero": 2}),
           "umbilics/c": outcome({"v": 3.0})}
    new = {"search/a": certified({"windings": 100, "polish": 0}, {"windings": 100, "polish": 0}),
           "search/b": certified({"windings": 5, "polish": 0, "nonzero": 0}),
           "umbilics/c": outcome({"v": 3.0})}
    report = results_diff.compare(old, new)
    assert report["objective_certificates"] == {
        "old": {"windings": 193, "polish": 10, "nonzero": 2},
        "new": {"windings": 205, "polish": 0, "nonzero": 0}}
    assert report["diagnostics_changed"] == {"objective_certificates": ["search/a", "search/b"]}
    assert results_diff.compare(new, new)["objective_certificates"]["old"] == \
        results_diff.certificate_totals(new)


def test_results_diff_compares_whole_error_objects():
    # an outcome holds the whole error object, so a changed message differs
    def failed(message):
        return {"obstruction/fuzz-torus/000": {
            "status": 4, "escaped": None, "results": None, "config": None, "diagnostics": {},
            "error": {"code": "TotallyDegenerate", "exit_status": 4, "message": message}}}

    assert results_diff.identical(results_diff.compare(failed("a"), failed("a")))
    report = results_diff.compare(failed("a"), failed("b"))
    assert not results_diff.identical(report)
    assert report["differ"] == ["obstruction/fuzz-torus/000"] and report["outcome_mismatches"]


def test_results_diff_lists_discrete_changes_apart_from_float_drift():
    old = {"search/a": outcome({"objective": 3.25e-9, "resolution_ok": False, "n": 2}),
           "search/b": outcome({"objective": 1.0, "modes": ["1,0"]}),
           "umbilics/c": outcome({"records": [{"x": 0.5, "twice_index": 1}]})}
    new = {"search/a": outcome({"objective": 4.19e-9, "resolution_ok": True, "n": 2}),
           "search/b": outcome({"objective": 1.0 + 2 ** -52, "modes": ["1,0"]}),
           "umbilics/c": outcome({"records": [{"x": 0.5, "twice_index": 1},
                                              {"x": 0.7, "twice_index": -1}]})}
    report = results_diff.compare(old, new)
    assert report["differ"] == ["search/a", "search/b", "umbilics/c"]
    assert report["discrete_changes"] == {
        "search/a": {"/resolution_ok": [False, True]},
        "umbilics/c": {"/records[1]/twice_index": ["<absent>", -1],
                       "/records[1]/x": ["<absent>", 0.7]}}
    assert results_diff.compare(old, old)["discrete_changes"] == {}


def test_results_diff_counts_the_leaves_that_differ():
    # every differing leaf counts once under its top-level results key, a
    # leaf one tree alone has included, and an int that becomes an equal
    # float differs
    old = {"umbilics/a": outcome({"records": [{"x": 0.5, "twice_index": 1}], "n": 2}),
           "umbilics/b": outcome({"v": 1.0, "w": 2.0, "k": 3}),
           "umbilics/c": outcome({"v": 1.0})}
    new = {"umbilics/a": outcome({"records": [{"x": 0.5, "twice_index": 1},
                                              {"x": 0.7, "twice_index": -1}], "n": 3}),
           "umbilics/b": outcome({"v": 1.5, "w": 2.0, "k": 3.0}),
           "umbilics/c": outcome({"v": 1.0})}
    report = results_diff.compare(old, new)
    assert report["leaves_differ"] == {"umbilics/a": {"n": 1, "records": 2},
                                       "umbilics/b": {"k": 1, "v": 1}}
    assert results_diff.compare(old, old)["leaves_differ"] == {}


def test_results_diff_flags_the_same_records_in_a_different_order():
    # two mirror pairs swapped read as one reorder of /records, not as a
    # drift of one z0; a changed record among them is no reorder, and the
    # search goes on into lists that are not permutations
    def rec(x, y, twice):
        return {"z0": [x, y], "twice_index": twice}

    records = [rec(-0.5, 0.1, 1), rec(-0.5, -0.1, 1), rec(0.5, 0.1, -1), rec(0.5, -0.1, -1)]
    swapped = [records[1], records[0], records[3], records[2]]
    old = {"ph-audit/a": outcome({"records": records, "audit": {"sum": 0}}),
           "ph-audit/b": outcome({"records": records}),
           "ph-audit/c": outcome({"rows": [[1, 2], [3, 4]]})}
    new = {"ph-audit/a": outcome({"records": swapped, "audit": {"sum": 0}}),
           "ph-audit/b": outcome({"records": [rec(-0.5, 0.1, 1)] + swapped[1:]}),
           "ph-audit/c": outcome({"rows": [[1, 2], [4, 3]]})}
    report = results_diff.compare(old, new)
    assert report["differ"] == ["ph-audit/a", "ph-audit/b", "ph-audit/c"]
    assert report["reordered"] == {"ph-audit/a": ["/records"], "ph-audit/c": ["/rows[1]"]}
    assert report["leaves_differ"]["ph-audit/a"] == {"records": 4}  # Im z0 of each swapped record
    assert results_diff.compare(old, old)["reordered"] == {}


_LINES_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_LINES_SPEC)
_LINES_SPEC.loader.exec_module(src_lines)

SYNTHETIC = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line

# a comment alone


class A:
    """Class docstring."""

    x = """a string that is no docstring
    counts, both lines"""

    def f(self):
        """Function docstring,

        three lines."""
        return "# not a comment"


async def g():
    """One line."""
    pass
'''


def test_src_lines_counts_code_without_docstrings_comments_or_blanks(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    (old / "pkg").mkdir(parents=True)
    (new / "pkg").mkdir(parents=True)
    (old / "pkg" / "mod.py").write_text(SYNTHETIC)
    (new / "pkg" / "mod.py").write_text(SYNTHETIC + "\n\ndef h():\n    return 1\n")
    (new / "pkg" / "extra.py").write_text("y = 2\n")
    # import, class, x's two lines, def f, return, async def, pass
    assert src_lines.code_lines(SYNTHETIC) == 8
    assert src_lines.count_tree(old) == {"pkg/mod.py": 8}
    assert src_lines.main([str(old), str(new)]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert rows == {"pkg/extra.py": ["0", "1", "+1"], "pkg/mod.py": ["8", "10", "+2"],
                    "total": ["8", "11", "+3"]}


@pytest.fixture
def cold_start(monkeypatch):
    """tools/cold_start.py, loaded with sys.path and the bytecode flag it
    sets restored after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location(
        "cold_start", Path(__file__).resolve().parents[1] / "tools" / "cold_start.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("no_bytecode", [True, False])
def test_cold_run_reports_the_import_time_and_the_bytecode_flag(cold_start, tmp_path,
                                                                 monkeypatch, no_bytecode):
    # a copy of the package, so a child that writes bytecode writes it here
    src = tmp_path / "src"
    shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "umbilic", src / "umbilic")
    if no_bytecode:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    else:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    cfg = {"surface": {"kind": "chart", "radius": 1.0}, "metric": {"builtin": "constant"},
           "operation": "loewner", "loewner": {"g": {"builtin": "zbar"}, "order": 4}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    latency, child = cold_start.cold_run(src, "loewner", cfg_path, tmp_path / "report.json")
    assert child["status"] == 0 and child["scipy"] == []
    assert child["dont_write_bytecode"] is no_bytecode
    assert 0.0 < child["import_s"] < latency
    assert any((src / "umbilic").rglob("*.pyc")) is not no_bytecode


def test_cold_run_reports_the_modules_main_added(cold_start, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "umbilic", src / "umbilic")
    cfg = {"surface": {"kind": "torus", "omega": [0.0, 1.0]}, "metric": {"builtin": "constant"},
           "operation": "search", "numeric": {"grid_n": 64},
           "search": {"mode_budget": 1, "trials": 1, "evaluations": 5}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    _, child = cold_start.cold_run(src, "search", cfg_path, tmp_path / "report.json")
    assert child["status"] == 0
    assert child["main_modules"] == []
