"""Smoke self-test of the benchmark, at minimal run length.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics and workloads the
benchmark prints, that every traced run wraps the call sites callers use,
that each workload at ``--seconds 1`` prints every metric with its unit
after checking every job's output, and that the benchmark refuses to run
(nonzero exit, no result) where there is no umbilic source tree.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracing
import workloads
from worker import ROOT, import_cli

COMMAND = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def fail(msg: str):
    print(f"FAIL {msg}")
    sys.exit(1)


def check_declaration(bench: dict):
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.END_TO_END:
        fail(f"end_to_end in BENCHMARK.json {declared} != printed {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != tracing.LAYER_METRICS:
        fail(f"per_layer in BENCHMARK.json differs from the traced metrics: "
             f"{sorted(set(declared.items()) ^ set(tracing.LAYER_METRICS.items()))}")
    names = tuple(w["name"] for w in bench["workloads"])
    if names != workloads.WORKLOADS:
        fail(f"workloads {names} != {workloads.WORKLOADS}")
    print("ok   BENCHMARK.json matches the metrics and workloads the benchmark prints")


def check_wrapping():
    import_cli()
    import importlib
    mods = {m: importlib.import_module(f"umbilic.{m}") for m in tracing.PACKAGE_MODULES}
    before = {site: getattr(mods[site[0]], site[1]) for site in tracing.REQUIRED_SITES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), orig in before.items():
            now = getattr(mods[mod], name)
            if getattr(now, "__wrapped__", None) is not orig:
                fail(f"umbilic.{mod}.{name} is not wrapped in a traced run")
        for _, mod, cls, meth, _ in tracing.METHODS:
            if not hasattr(getattr(getattr(mods[mod], cls), meth), "__wrapped__"):
                fail(f"umbilic.{mod}.{cls}.{meth} is not wrapped in a traced run")
    finally:
        tracer.uninstall()
    for (mod, name), orig in before.items():
        if getattr(mods[mod], name) is not orig:
            fail(f"umbilic.{mod}.{name} was not restored after tracing")
    print("ok   tracing wraps every required call site and restores it")


def check_run(workload: str, trace: int, expected: dict):
    proc = subprocess.run(COMMAND + ["--workload", workload, "--seed", "0", "--seconds", "1",
                                     "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1 or result["failed"]:
        fail(f"{workload} trace {trace}: {proc.stdout}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} trace {trace}: metrics {sorted(set(got.items()) ^ set(expected.items()))}")
    checked = [l for l in lines if l.startswith("checks: ")]
    if not checked or f"checks: {result['attempted']} timed jobs" not in checked[0]:
        fail(f"{workload} trace {trace}: output checks did not run")
    for name, unit in run.END_TO_END.items():
        if not any(l.split()[:1] == [name] and unit in l.split() for l in lines):
            fail(f"{workload} trace {trace}: {name} not printed with unit {unit}")
    print(f"ok   {workload} trace {trace}: {result['attempted']} jobs checked, "
          f"{len(got)} metrics with units")


def check_bare_directory():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   without a source tree the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    check_declaration(json.loads((ROOT / "BENCHMARK.json").read_text()))
    check_wrapping()
    check_bare_directory()
    for trace, expected in ((0, run.END_TO_END), (1, tracing.LAYER_METRICS)):
        for workload in workloads.WORKLOADS:
            check_run(workload, trace, expected)
    print("PASS perfbench self-test")
    return 0


if __name__ == "__main__":
    sys.exit(main())
