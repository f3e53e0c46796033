"""Compare the layer mix of a benchmark search job with a full criterion-10
search (4 trials of 100 evaluations).

The search workload runs one trial per job (see workloads.py).  This script
traces one job of each shape on the same lattice and search seed and prints
every layer's self time as a share of the job, so the two mixes can be set
side by side.  It takes about half a minute.

    python3 perfbench/search_shape.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads
from tracing import Tracer, span_stats
from worker import ROOT, THREAD_VARS, import_cli, run_job

SHAPES = {"benchmark": workloads.SEARCH_SHAPE,
          "criterion-10": {"mode_budget": 3, "trials": 4, "evaluations": 100}}


def traced_job(cli, cfg: dict, tmp: Path) -> dict:
    cfg_path, report_path = tmp / "cfg.json", tmp / "report.json"
    cfg_path.write_text(json.dumps(cfg))
    tracer = Tracer()
    tracer.install()
    try:
        status, _, _, escaped = run_job(cli, "search", cfg_path, report_path)
    finally:
        tracer.uninstall()
    if status != 0:
        raise RuntimeError(f"search job failed: exit {status} {escaped or ''}")
    return span_stats(tracer.spans)


def main() -> int:
    if any(os.environ.get(v) != "1" for v in THREAD_VARS):
        # the benchmark's workers run with one BLAS/OpenMP thread; so does this
        env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        os.execve(sys.executable, [sys.executable, __file__], env)
    cli = import_cli()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        traced_job(cli, workloads.warmup("search")[1], Path(tmp))
        stats = {name: traced_job(cli, workloads._search("square", 0, shape), Path(tmp))
                 for name, shape in SHAPES.items()}
    print(f"{'self time share of cli.search':34s}" + "".join(f"{n:>14s}" for n in SHAPES))
    totals = {n: st["cli.search"]["total_s"] for n, st in stats.items()}
    names = sorted({k for st in stats.values() for k in st},
                   key=lambda k: -stats["criterion-10"].get(k, {"self_s": 0})["self_s"])
    for span in names:
        row = [stats[n].get(span, {"self_s": 0.0})["self_s"] / totals[n] for n in SHAPES]
        print(f"  {span:32s}" + "".join(f"{v:14.3f}" for v in row))
    print(f"  {'job seconds':32s}" + "".join(f"{totals[n]:14.3f}" for n in SHAPES))
    calls = {n: st["torussearch.objective"]["calls"] for n, st in stats.items()}
    print(f"  {'objective calls':32s}" + "".join(f"{calls[n]:14d}" for n in SHAPES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
