"""One benchmark worker: a fresh interpreter that acts as a closed-loop CLI
client.

It imports ``umbilic.cli`` from the checkout's ``src``, writes the seed's
job configs, runs the workload's fixed untimed warm-up job and prints
``ready``; the parent takes the time from launch to that line as this
worker's set-up time.  It then runs the first ``--rounds`` rounds of the
seed's job list, skipping the jobs that run in fewer workers than
``--index`` + 1; each job is one in-process call of
``umbilic.cli.main([op, "--config", cfg, "--out", report])`` with stdout
captured, the next job starting when the previous one returns.  With
``--trace 1`` every round runs twice, untraced and with layer tracing
installed (untraced first in even rounds, traced first in odd ones, so
neither side always meets the colder process), so one run also measures
the tracing overhead; the
spans are then written to ``--spans``.  Results go to ``--result`` as JSON.

    python3 perfbench/worker.py --workload search --seed 1 --rounds 1 --index 0 \\
        --trace 0 --rundir .perfbench/run --result .perfbench/run/w0.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_cli():
    """umbilic.cli from this checkout's src, never from another install."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import umbilic.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"umbilic was imported from {cli.__file__}, not from {src}")
    return cli


def run_job(cli, op: str, cfg_path: Path, out_path: Path):
    """Run one CLI call; returns (exit status or None, report, latency_s, escaped)."""
    out_path.unlink(missing_ok=True)
    sink = io.StringIO()
    escaped = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = cli.main([op, "--config", str(cfg_path), "--out", str(out_path)])
    except Exception as exc:  # an exception escaping the CLI is a failed job
        status, escaped = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        report = json.loads(out_path.read_text())
    except (OSError, ValueError):
        report = {}
    return status, report, latency, escaped


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--index", type=int, required=True, help="this worker's number, from 0")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rundir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    cli = import_cli()
    import numpy
    import scipy

    import checks
    import workloads
    from tracing import Tracer, span_stats

    refs = json.loads((Path(__file__).with_name("references.json")).read_text())["jobs"]

    def write(jid, cfg):
        path = args.rundir / f"{jid.replace('/', '_')}.json"
        path.write_text(json.dumps(cfg))
        return jid, cfg["operation"], path

    rounds = [[write(jid, cfg) for jid, cfg, repeats in jobs if args.index < repeats]
              for jobs in workloads.rounds(args.workload, args.seed, args.rounds)]
    jid, op, path = write(*workloads.warmup(args.workload))
    report_path = args.rundir / f"report-{os.getpid()}.json"

    def outcome(jid, op, status, report, latency, escaped):
        if status is None:
            failed, problems = True, [f"escaped exception {escaped}"]
        else:
            failed, problems = checks.check(op, status, report, refs[jid])
        return {"job": jid, "op": op, "status": status, "latency_s": latency,
                "failed": failed, "problems": problems,
                "digest": checks.results_digest(status, report) if status is not None else None}

    warmup = outcome(jid, op, *run_job(cli, op, path, report_path))
    print("ready", flush=True)

    tracer = Tracer() if args.trace else None
    walls, records = [], []
    for r, jobs in enumerate(rounds):
        for traced in ((r % 2 == 1, r % 2 == 0) if tracer else (False,)):
            if traced:
                tracer.install()
            wall = 0.0
            try:
                for jid, op, path in jobs:
                    gc.collect()
                    if traced:
                        tracer.job = jid
                    status, report, latency, escaped = run_job(cli, op, path, report_path)
                    wall += latency
                    rec = outcome(jid, op, status, report, latency, escaped)
                    rec.update({"round": r, "traced": traced})
                    records.append(rec)
            finally:
                if traced:
                    tracer.uninstall()
            walls.append({"round": r, "traced": traced, "wall_s": wall})
    report_path.unlink(missing_ok=True)

    result = {
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "umbilic": str(Path(cli.__file__).parent),
                "threads": {v: os.environ.get(v) for v in THREAD_VARS}},
        "warmup": warmup,
        "rounds": walls,
        "jobs": records,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "span_stats": span_stats(tracer.spans) if tracer else {},
    }
    if tracer:
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
