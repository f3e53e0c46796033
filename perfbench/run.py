"""Closed-loop CLI benchmark for umbilic.

One client waits for each ``umbilic <op>`` report before sending the next
job, as a CLI user does.  An untraced run launches fresh worker processes
one after another (never two at once; BLAS and OpenMP pools are pinned to
one thread in the worker's environment).  Each worker imports
``umbilic.cli``, writes its inputs, runs the workload's fixed untimed
warm-up job and then the run's job list, a number of rounds; a round takes
the same mix of jobs from the workload's pool.  Each job runs in a fixed
number of workers (three, or seven for the shortest jobs), once in each
and never twice in one process; its latency is its fastest repeat.  Every job's report is checked
against the reference outcome recorded for its config (``references.json``).

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

The number of rounds is fixed by ``--seconds`` through a nominal round
time per workload measured at the reference commit, so the commits being
compared run the same jobs.  With ``--trace 0`` the last line of output is
a JSON object with the end-to-end metrics.  With ``--trace 1`` one worker
runs every round once untraced and once traced, and the object carries the
per-layer metrics (amounts per traced round).  Each run also writes its
full result (the environment, every round and every job) to
``.perfbench/result-*.json``; traced runs write their spans there too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYER_METRICS, layer_metrics, merge_stats
from worker import ROOT, THREAD_VARS

# median seconds per untraced round (of a worker that runs every job),
# measured at the reference commit over five runs per workload
NOMINAL_ROUND_S = {"search": 6.4, "obstruction": 6.6, "catalogue": 3.8}
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".perfbench"

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def environment() -> dict:
    """Machine and toolchain facts recorded with every result."""
    env = {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (idx / "size").read_text().strip())
        except OSError:
            continue
    env["cache_per_core"] = caches
    env["revision"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        env["revision"] = rev.stdout.strip() or env["revision"]
    env["threads_inherited"] = {v: os.environ.get(v) for v in THREAD_VARS}
    return env


def layout(workload: str, seconds: float, trace: bool):
    """(workers, rounds per worker): as many whole rounds as fit in
    --seconds, at least one.  An untraced run spends the time on
    workloads.REPEATS passes over its job list (the extra workers of the
    shortest jobs take little); a traced run, one worker, on running every
    round untraced and traced."""
    if trace:
        return 1, max(1, int(seconds / 2 / NOMINAL_ROUND_S[workload]))
    return (workloads.workers(workload),
            max(1, int(seconds / workloads.REPEATS / NOMINAL_ROUND_S[workload])))


def launch_order(workers: int) -> list:
    """Worker numbers in launch order: the workers that run every job are
    spread evenly over the run, so the extra repeats of the shortest jobs
    fall between them instead of all at the end."""
    full = min(workers, workloads.REPEATS)
    slots = {round(i * (workers - 1) / max(1, full - 1)): i for i in range(full)}
    rest = iter(range(full, workers))
    return [slots[p] if p in slots else next(rest) for p in range(workers)]


def launch(args, k: int, count: int, rundir: Path, deadline: float):
    """Run worker k; returns (setup_s, result)."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    result = rundir / f"worker{k}.json"
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--rounds", str(count), "--index", str(k),
           "--trace", str(args.trace), "--rundir", str(rundir), "--result", str(result),
           "--spans", str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}-w{k}.jsonl")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker {k} did not become ready (exit {proc.poll()})")
        # the worker prints nothing after "ready"; its results go to a file
        status = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {k} exceeded the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if status != 0:
        raise BenchError(f"worker {k} exited with status {status}")
    return setup, json.loads(result.read_text())


def tail(latencies: list):
    """(percentile, value): the highest ladder percentile with at least ten
    jobs beyond it, by nearest rank; the median (reported as p50) when there
    are fewer than twenty jobs and no percentile has."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50.0, statistics.median(xs)


def run_workload(args) -> dict:
    if not (ROOT / "src" / "umbilic" / "cli.py").is_file():
        raise BenchError(f"no umbilic sources under {ROOT / 'src'}; run from a checkout")
    workers, count = layout(args.workload, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    rundir = OUT_DIR / f"run-{os.getpid()}"
    rundir.mkdir()
    deadline = time.monotonic() + RUN_LIMIT_S
    setups, results = [], []
    order = launch_order(workers)
    try:
        for k in order:
            setup, res = launch(args, k, count, rundir, deadline)
            for j in res["jobs"]:
                j["worker"] = k
            setups.append(setup)
            results.append(res)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    jobs = [j for r in results for j in r["jobs"]]
    checked = jobs + [r["warmup"] for r in results]
    untraced = [j for j in jobs if not j["traced"]]
    # rounds of the workers that run every job (the others run the short ones)
    full = [r for k, r in zip(order, results) if k < workloads.REPEATS]
    walls = {t: [w["wall_s"] for r in full for w in r["rounds"] if w["traced"] == t]
             for t in (False, True)}
    digests: dict = {}
    for j in checked:
        digests.setdefault(j["job"], set()).add(j["digest"])
    # A job does the same work on every repeat (the checks demand bit-identical
    # results), so repeats differ only by interference from the rest of the
    # host, which slows whole stretches of a run.  A job's latency is taken as
    # its fastest repeat over the workers, each worker's first run of it only,
    # so no repeat profits from state an earlier run left in its process.
    # The raw latencies go to the result file.
    first: dict = {}
    for j in untraced:
        first.setdefault((j["worker"], j["job"]), j["latency_s"])
    best: dict = {}
    repeats: dict = {}
    for (_, jid), latency in first.items():
        best[jid] = min(best.get(jid, math.inf), latency)
        repeats[jid] = repeats.get(jid, 0) + 1
    job_list = [j["job"] for j in untraced if j["worker"] == 0]
    distinct = sorted(best.values())
    pct, tail_s = tail(distinct)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": dict(environment(), **results[0]["env"]),
        "rounds": count, "workers": workers,
        "attempted": len(jobs), "distinct": len(distinct),
        "repeats": sorted(set(repeats.values())),
        "wrong": [j for j in checked if j["problems"]],
        "wrong_timed": sum(bool(j["problems"]) for j in jobs),
        "nondeterministic": sorted(jid for jid, d in digests.items() if len(d) > 1),
        # over distinct jobs, so that a job's repeats do not weigh in
        "fail_ratio": (len({j["job"] for j in untraced if j["failed"]}), len(distinct)),
        "known_failures": sorted({j["job"] for j in untraced
                                  if j["failed"] and not j["problems"]}),
        "tail_percentile": pct,
        "raw": {"round_median_s": statistics.median(walls[False]),
                "job_p50_s": statistics.median(j["latency_s"] for j in untraced)},
        "metrics": {
            "wall_s": sum(best[jid] for jid in job_list),
            "job_p50_s": statistics.median(distinct),
            "job_tail_s": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_kib"] for r in results) / 1024.0,
        },
    }
    if args.trace:
        overhead = sum(walls[True]) / sum(walls[False])
        stats = merge_stats(r["span_stats"] for r in results)
        summary["layers"] = layer_metrics(stats, len(walls[True]), overhead)
    detail = dict(summary, setups=setups, rounds_detail=[r["rounds"] for r in results],
                  jobs=jobs)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    return summary


def print_summary(s: dict) -> dict:
    """Print a workload's table; returns its result object."""
    m = s["metrics"]
    failed, timed = s["fail_ratio"]
    print(f"== workload {s['workload']}  seed {s['seed']}  trace {s['trace']}  "
          f"({s['workers']} workers, {s['rounds']} rounds each, closed loop, 1 client)")
    print("env " + json.dumps(s["env"], sort_keys=True))
    jobs = (f"{s['distinct']} distinct jobs, fastest of "
            f"{' or '.join(map(str, s['repeats']))} repeats")
    samples = {"wall_s": f"{s['rounds']} rounds, {jobs}", "job_p50_s": jobs,
               "job_tail_s": f"{jobs}, p{s['tail_percentile']:g}",
               "setup_s": f"{s['workers']} workers", "peak_rss_mb": f"{s['workers']} workers"}
    for name, unit in END_TO_END.items():
        print(f"  {name:14s} {m[name]:12.6f} {unit:6s} n={samples[name]}")
    print(f"  (every repeat as measured: median round {s['raw']['round_median_s']:.6f} s, "
          f"median job {s['raw']['job_p50_s']:.6f} s)")
    known = ", ".join(s["known_failures"]) or "none"
    print(f"  {'fail_ratio':14s} {failed / timed:12.6f} {'1':6s} n={timed} distinct jobs "
          f"({failed} failed; known baseline failures run: {known})")
    print(f"checks: {s['attempted']} timed jobs and {s['workers']} warm-ups checked "
          f"against references; {len(s['wrong'])} mismatches; "
          f"{len(s['nondeterministic'])} job ids with differing repeat results")
    for j in s["wrong"][:10]:
        print(f"  MISMATCH {j['job']}: {'; '.join(j['problems'])}")
    for jid in s["nondeterministic"][:10]:
        print(f"  NONDETERMINISTIC {jid}")
    if s["trace"]:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in s["layers"].items()}
        for name, v in metrics.items():
            print(f"  {name:40s} {v['value']:16.6f} {v['unit']}")
    else:
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": not s["wrong"] and not s["nondeterministic"] and s["attempted"] > 0,
            "attempted": s["attempted"], "failed": s["wrong_timed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Closed-loop CLI benchmark for umbilic.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exit, so a stopped run still stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    out = []
    try:
        for name in names:
            one = argparse.Namespace(**dict(vars(args), workload=name))
            out.append(print_summary(run_workload(one)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(out) == 1:
        result = out[0]
    else:
        result = {"correct": all(r["correct"] for r in out),
                  "attempted": sum(r["attempted"] for r in out),
                  "failed": sum(r["failed"] for r in out),
                  "metrics": {f"{n}.{k}": v for n, r in zip(names, out)
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
