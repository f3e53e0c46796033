"""Compare the CLI outcomes of two source trees on every benchmark pool config
and every seeded fuzz config.

    python3 tools/results_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding an ``umbilic`` package (the
``src/`` of two checkouts).  Every config of ``perfbench.workloads.pool(w)``,
for each workload, goes through ``umbilic.cli.main`` once per tree, each tree
in its own interpreter.  The report gives the number of configs compared,
how many have byte-identical ``results`` blocks, ``config`` echoes and
``diagnostics`` blocks (every entry but ``wall_time_s``) as sorted-key
JSON, every mismatch of exit status or error object (code, exit status
and message), every config whose echo or diagnostics differ, and the
largest relative and the largest absolute drift over the numeric leaves of
the ``results`` blocks that differ, each with its leaf (a rounding-level change on a tiny residual shows a large
relative drift and a tiny absolute one), and ``differ``, the sorted job
ids whose results are not byte-identical (an outcome mismatch included).
``diagnostics_keys_only_old`` and ``diagnostics_keys_only_new`` map each
diagnostics key present in one tree alone to the job ids that have it,
apart from ``diagnostics_changed``, the keys of both trees whose values
differ, so a change that only adds keys reads as such.
``discrete_changes`` maps each config whose results differ in a leaf that
is not a float (a bool, an int, a string or null) or that one tree alone
has to those leaves, each with its [old, new] value ("<absent>" on the side
that lacks it), so a rounding drift reads apart from a flipped flag or a
changed count.
``leaves_differ`` maps each config whose results differ to the number of
leaves that differ (a leaf one tree alone has counting once), and
``reordered`` maps each config whose two results hold the same records in a
different order to the paths of those lists, so a reorder of several records
reads as such and not as the one drift leaf above.
``objective_certificates`` gives each tree's totals, over the configs
compared, of the search diagnostics of that name (per trial, how many
objective scores each way decided), so a certificate that moves reads as
counts.
``per_operation`` repeats the counts, drifts and ``differ`` for each
operation (the job-id prefix), so a change that moves every search result
does not hide the drift of the others.

``fuzz`` is the same report, apart from the pool's counts, for the 290
seeded configs of the CLI's exit-contract fuzz (``fuzz_jobs`` in
``tests/_oracles.py``, the configs ``TestNumericFuzz`` runs), their job ids
``<operation>/fuzz-<kind>/<number>``.  The exit status is 0 when every
config's outcome, results, echo and diagnostics, in the pool and in the
fuzz, are identical, else 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # perfbench/ is imported read-only
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from worker import run_job  # noqa: E402


def run_tree(src: Path, out: Path):
    """Child process: run every pool config on the umbilic package in src."""
    sys.path.insert(0, str(src.resolve()))
    import umbilic.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"umbilic was imported from {cli.__file__}, not from {src}")
    sys.path.insert(1, str(ROOT / "tests"))
    from _oracles import fuzz_jobs
    jobs = {"pool": [(jid, cfg["operation"], cfg) for workload in workloads.WORKLOADS
                     for jid, cfg in sorted(workloads.pool(workload).items())],
            "fuzz": [(f"{op}/fuzz-{kind}/{i:03d}", op, cfg)
                     for i, (kind, op, cfg) in enumerate(fuzz_jobs())]}
    outcomes = {"pool": {}, "fuzz": {}}
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths: the report path is echoed, and must match across trees
        os.chdir(tmp)
        cfg_path, report_path = Path("cfg.json"), Path("report.json")
        for group, group_jobs in jobs.items():
            for jid, op, cfg in group_jobs:
                cfg_path.write_text(json.dumps(cfg))
                status, report, _, escaped = run_job(cli, op, cfg_path, report_path)
                diagnostics = report.get("diagnostics", {})
                diagnostics.pop("wall_time_s", None)  # the one entry that is not deterministic
                outcomes[group][jid] = {"status": status, "escaped": escaped,
                                        "results": report.get("results"),
                                        "config": report.get("config"),
                                        "diagnostics": diagnostics,
                                        "error": report.get("error")}
    out.write_text(json.dumps(outcomes))


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}/{key}")
    elif isinstance(obj, list):
        for k, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, obj


def drift(a, b):
    """The largest relative and the largest absolute difference over the
    numeric leaves of two results blocks, each as (difference, leaf path);
    both (inf, path) where their shapes or other leaves differ."""
    la, lb = list(_leaves(a)), list(_leaves(b))
    if [p for p, _ in la] != [p for p, _ in lb]:
        return (float("inf"), "structure"), (float("inf"), "structure")
    worst_rel = worst_abs = (0.0, "")
    for (path, x), (_, y) in zip(la, lb):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if not numeric:
            if x != y:
                return (float("inf"), path), (float("inf"), path)
            continue
        if x != y:
            worst_rel = max(worst_rel, (abs(x - y) / max(abs(x), abs(y)), path))
            worst_abs = max(worst_abs, (abs(x - y), path))
    return worst_rel, worst_abs


def leaves_differ(a, b) -> int:
    """How many leaves of two results blocks differ in type or value, a
    leaf one block alone has counting once."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    return sum(path not in la or path not in lb
               or (type(la[path]), la[path]) != (type(lb[path]), lb[path])
               for path in la.keys() | lb.keys())


def reordered(a, b, path="") -> list:
    """The paths of the lists of two results blocks that hold the same
    items, each compared as sorted-key JSON, in a different order; lists of
    the same length that are not such a permutation are searched item by
    item."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for key in sorted(a.keys() & b.keys())
                for p in reordered(a[key], b[key], f"{path}/{key}")]
    if not (isinstance(a, list) and isinstance(b, list)) or len(a) != len(b):
        return []
    items = [[json.dumps(item, sort_keys=True) for item in side] for side in (a, b)]
    if items[0] != items[1] and sorted(items[0]) == sorted(items[1]):
        return [path]
    return [p for k, (x, y) in enumerate(zip(a, b)) for p in reordered(x, y, f"{path}[{k}]")]


def discrete_changes(a, b) -> dict:
    """The leaves of two results blocks that differ and are not both floats,
    and the leaves one block alone has, each path mapped to its [old, new]
    value, "<absent>" on the side that lacks it."""
    la, lb = dict(_leaves(a)), dict(_leaves(b))
    changes = {}
    for path in [*la, *(p for p in lb if p not in la)]:
        x, y = la.get(path, "<absent>"), lb.get(path, "<absent>")
        if not (type(x) is type(y) is float or (type(x), x) == (type(y), y)):
            changes[path] = [x, y]
    return changes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--child":
        run_tree(Path(args[1]), Path(args[2]))
        return 0
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "old.json", Path(tmp) / "new.json"]
        procs = [subprocess.Popen([sys.executable, __file__, "--child", src, str(out)])
                 for src, out in zip(args, outs)]
        if any(p.wait() != 0 for p in procs):
            print("a tree failed to run", file=sys.stderr)
            return 2
        old, new = (json.loads(out.read_text()) for out in outs)

    report = {**compare(old["pool"], new["pool"]), "fuzz": compare(old["fuzz"], new["fuzz"])}
    print(json.dumps(report, indent=1))
    return 0 if identical(report) and identical(report["fuzz"]) else 1


def identical(report: dict) -> bool:
    """Whether a report of :func:`compare` finds every config's results,
    echo and diagnostics identical."""
    return (report["identical"] == report["compared"] and not report["config_mismatches"]
            and not report["diagnostics_mismatches"])


def compare(old: dict, new: dict) -> dict:
    """The report of main on the outcomes of two trees, {job id: outcome}
    as ``run_tree`` writes them."""
    mismatches = []
    echo_mismatches, diagnostics_mismatches = (
        [jid for jid in sorted(old) if json.dumps(old[jid][key], sort_keys=True)
         != json.dumps(new[jid][key], sort_keys=True)]
        for key in ("config", "diagnostics"))
    only_old, only_new, changed, discrete, counts, permuted = {}, {}, {}, {}, {}, {}
    for jid in diagnostics_mismatches:
        a, b = old[jid]["diagnostics"], new[jid]["diagnostics"]
        for key in sorted(a.keys() | b.keys()):
            if key not in b:
                only_old.setdefault(key, []).append(jid)
            elif key not in a:
                only_new.setdefault(key, []).append(jid)
            elif json.dumps(a[key], sort_keys=True) != json.dumps(b[key], sort_keys=True):
                changed.setdefault(key, []).append(jid)
    # one tally for all configs, one per operation (the job-id prefix)
    tallies = {"all": _tally()}
    for jid in sorted(old):
        a, b = old[jid], new[jid]
        groups = (tallies["all"], tallies.setdefault(jid.split("/", 1)[0], _tally()))
        for t in groups:
            t["compared"] += 1
        if (a["status"], a["error"], a["escaped"]) != (b["status"], b["error"], b["escaped"]):
            mismatches.append(f"{jid}: exit {a['status']} {a['error'] or a['escaped']} "
                              f"-> exit {b['status']} {b['error'] or b['escaped']}")
        elif json.dumps(a["results"], sort_keys=True) == json.dumps(b["results"], sort_keys=True):
            for t in groups:
                t["identical"] += 1
            continue
        else:
            (rel, rel_path), (dif, dif_path) = drift(a["results"], b["results"])
            if changes := discrete_changes(a["results"], b["results"]):
                discrete[jid] = changes
            counts[jid] = leaves_differ(a["results"], b["results"])
            if paths := reordered(a["results"], b["results"]):
                permuted[jid] = paths
            for t in groups:
                t["rel"] = max(t["rel"], (rel, f"{jid} {rel_path}"))
                t["abs"] = max(t["abs"], (dif, f"{jid} {dif_path}"))
        for t in groups:
            t["differ"].append(jid)
    failed = {jid: f"exit {o['status']} {o['error']}" for jid, o in sorted(old.items())
              if o["status"] != 0}
    total = _report(tallies.pop("all"))
    return {**total,
            "outcome_mismatches": mismatches,
            "config_identical": len(old) - len(echo_mismatches),
            "config_mismatches": echo_mismatches,
            "diagnostics_identical": len(old) - len(diagnostics_mismatches),
            "diagnostics_mismatches": diagnostics_mismatches,
            "diagnostics_keys_only_old": only_old,
            "diagnostics_keys_only_new": only_new,
            "diagnostics_changed": changed,
            "discrete_changes": discrete,
            "leaves_differ": counts,
            "reordered": permuted,
            "objective_certificates": {"old": certificate_totals(old),
                                       "new": certificate_totals(new)},
            "nonzero_exits_old": failed,
            "per_operation": {op: _report(t) for op, t in sorted(tallies.items())}}


def certificate_totals(outcomes: dict) -> dict:
    """The totals by kind of the ``objective_certificates`` diagnostics (a
    list of per-trial counts) over the outcomes that have them."""
    totals = {}
    for outcome in outcomes.values():
        for trial in outcome["diagnostics"].get("objective_certificates", []):
            for kind, count in trial.items():
                totals[kind] = totals.get(kind, 0) + count
    return totals


def _tally():
    return {"compared": 0, "identical": 0, "rel": (0.0, ""), "abs": (0.0, ""), "differ": []}


def _report(t):
    return {"compared": t["compared"], "identical": t["identical"],
            "largest_relative_drift": t["rel"][0], "largest_drift_at": t["rel"][1],
            "largest_absolute_drift": t["abs"][0], "largest_absolute_drift_at": t["abs"][1],
            "differ": sorted(t["differ"])}


if __name__ == "__main__":
    sys.exit(main())
