"""Summarise paired benchmark runs of two checkouts as one trajectory point.

    python3 tools/bench_trajectory.py PARENT_CHECKOUT CHANGE_CHECKOUT OUT_JSON

Each checkout holds the untraced result files that ``perfbench/run.py
--trace 0`` wrote to its ``.perfbench/`` directory.  Files are paired by
workload and seed; a seed present on one side only is ignored.  Only the
paired files count: the environment and the revisions come from them, and
when one side's paired files carry more than one git revision (a stale
result left in ``.perfbench/`` from another revision) the tool exits 1
without writing.  For every workload and every end-to-end metric that
``BENCHMARK.json`` declares, OUT_JSON records each side's median and
quartiles, the relative change of the medians, the parent's interquartile
range relative to its median, and the number of pairs the change won (ties
count for neither side).  It also records the environment of the runs
(nproc, CPU, caches, Python, numpy and scipy versions), both git revisions,
the seeds, and each side's failure ratios and round counts.  Its "scope"
entry says that these medians compare only within the file: the same source
has measured 1.5x apart in two sessions, so medians from different files are
never chained.  An existing OUT_JSON is never replaced: the tool exits 1
without reading the checkouts.  Otherwise the exit status is 0 when at least
one pair was found and each side has one revision, else 1.
"""

from __future__ import annotations

import datetime
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"result-(?P<workload>[a-z]+)-seed(?P<seed>\d+)-trace0\.json")
SCOPE = ("medians compare the parent and change runs of this file only; runs in "
         "other files come from other sessions, whose medians on the same source "
         "have differed by 1.5x, so never chain or compare medians across files")
ENV_KEYS = ("nproc", "cpu", "cache_per_core", "platform", "python", "numpy", "scipy", "threads")


def load_results(checkout: Path) -> dict:
    """{(workload, seed): result} for the untraced result files of a checkout."""
    out = {}
    for path in sorted((checkout / ".perfbench").glob("result-*-trace0.json")):
        m = RESULT.fullmatch(path.name)
        if m:
            out[(m["workload"], int(m["seed"]))] = json.loads(path.read_text())
    return out


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent: dict, change: dict, end_to_end: list) -> dict:
    workloads = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        metrics = {}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            old = [p["metrics"][name] for p, _ in pairs]
            new = [c["metrics"][name] for _, c in pairs]
            qo, qn = quartiles(old), quartiles(new)
            won = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
            metrics[name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "parent": qo, "change": qn,
                "change_rel": qn["median"] / qo["median"] - 1.0,
                "parent_iqr_rel": (qo["q3"] - qo["q1"]) / qo["median"],
                "change_won": won,
            }
        workloads[workload] = {
            "pairs": len(pairs), "seeds": seeds,
            "fail_ratio": {"parent": sorted({tuple(p["fail_ratio"]) for p, _ in pairs}),
                           "change": sorted({tuple(c["fail_ratio"]) for _, c in pairs})},
            "rounds": {"parent": sorted({p["rounds"] for p, _ in pairs}),
                       "change": sorted({c["rounds"] for _, c in pairs})},
            "metrics": metrics,
        }
    return workloads


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir, out = (Path(a) for a in argv)
    if out.exists():
        print(f"{out} exists; pick another name for this trajectory point", file=sys.stderr)
        return 1
    parent, change = load_results(parent_dir), load_results(change_dir)
    paired = sorted(parent.keys() & change.keys())
    if not paired:
        print("no workload and seed has a result on both sides", file=sys.stderr)
        return 1
    parent = {key: parent[key] for key in paired}
    change = {key: change[key] for key in paired}
    revisions = {}
    for side, results in (("parent", parent), ("change", change)):
        revisions[side] = sorted({r["env"]["revision"] for r in results.values()})
        if len(revisions[side]) > 1:
            print(f"the paired {side} results carry revisions {', '.join(revisions[side])}; "
                  "remove the stale files from its .perfbench/", file=sys.stderr)
            return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {
        "date": datetime.date.today().isoformat(),
        "scope": SCOPE,
        "env": {k: change[paired[0]]["env"].get(k) for k in ENV_KEYS},
        "revisions": revisions,
        "workloads": summarise(parent, change, spec["end_to_end"]),
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
