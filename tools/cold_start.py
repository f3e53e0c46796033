"""Fresh-process latency of the CLI, one canonical config per operation.

    python3 tools/cold_start.py [SRC]

SRC is a directory holding an ``umbilic`` package (default: this
checkout's ``src/``).  For every CLI operation the tool takes the first
config, in sorted job-id order, of the benchmark pools
(``perfbench.workloads.pool``) whose operation it is, and runs it
REPEATS = 5 times, each time in a new interpreter that imports
``umbilic.cli`` from SRC and makes one ``main([op, "--config", cfg,
"--out", report])`` call.  A run's latency is the wall time from launching
the interpreter to its exit, so it holds the interpreter's start, every
import and the job.
The report, JSON on stdout, gives per operation the job id, the exit
status, the median and every run's latency in seconds, the median time
the child took to ``import umbilic.cli``, the child's
``sys.flags.dont_write_bytecode`` (set by ``PYTHONDONTWRITEBYTECODE`` or
``-B``: the child then compiles every module it imports, as no bytecode
cache is written), the scipy modules the run had loaded when ``main``
returned: their number and the sorted public ``scipy.<subpackage>`` names
among them, and ``main_modules``, the sorted names of the modules the
``main`` call added to ``sys.modules`` after ``import umbilic.cli``, which
should be none.  The exit status is 0 when every run exits 0, else 1.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # perfbench/ is imported read-only
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

OPERATIONS = ("invariant", "umbilics", "ph-audit", "loewner", "obstruction", "search")
REPEATS = 5

# the child: one main call, then its exit status, the scipy modules loaded,
# the modules main added, its import time of umbilic.cli and whether it
# writes bytecode
CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import umbilic.cli as cli
import_s = time.perf_counter() - t0
imported = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main([sys.argv[2], "--config", sys.argv[3], "--out", sys.argv[4]])
print(json.dumps({"status": status,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "main_modules": sorted(set(sys.modules) - imported),
                  "import_s": import_s,
                  "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}))
"""


def canonical_configs() -> dict:
    """{operation: (job id, config)}: the first pool config of each operation."""
    pool = {jid: cfg for w in workloads.WORKLOADS for jid, cfg in workloads.pool(w).items()}
    out = {}
    for jid in sorted(pool):
        out.setdefault(pool[jid]["operation"], (jid, pool[jid]))
    return {op: out[op] for op in OPERATIONS}


def cold_run(src: Path, op: str, cfg_path: Path, report_path: Path):
    """(latency_s, child) of one fresh process: child is the CHILD's JSON
    line ({"status", "scipy", "main_modules", "import_s",
    "dont_write_bytecode"}), or None when the process printed nothing."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src), op, str(cfg_path),
                           str(report_path)], capture_output=True, text=True)
    latency = time.perf_counter() - t0
    if not proc.stdout.strip():
        return latency, None
    return latency, json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) > 1 or any(a.startswith("-") for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(args[0]) if args else ROOT / "src"
    report = {"src": str(src.resolve()), "python": sys.version.split()[0],
              "repeats": REPEATS, "operations": {}}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for op, (jid, cfg) in canonical_configs().items():
            cfg_path, report_path = Path(tmp) / "cfg.json", Path(tmp) / "report.json"
            cfg_path.write_text(json.dumps(cfg))
            runs = [cold_run(src, op, cfg_path, report_path) for _ in range(REPEATS)]
            children = [child for _, child in runs if child is not None]
            statuses = sorted({child["status"] if child else None for _, child in runs}, key=str)
            modules = children[-1]["scipy"] if children else []
            ok = ok and statuses == [0]
            report["operations"][op] = {
                "job": jid,
                "status": statuses[0] if len(statuses) == 1 else statuses,
                "median_s": round(statistics.median(t for t, _ in runs), 4),
                "runs_s": [round(t, 4) for t, _ in runs],
                "import_median_s": round(statistics.median(
                    child["import_s"] for child in children), 4) if children else None,
                "dont_write_bytecode": children[-1]["dont_write_bytecode"] if children else None,
                "scipy_modules": len(modules),
                "scipy_packages": sorted({f"scipy.{m.split('.')[1]}" for m in modules
                                          if "." in m and not m.split(".")[1].startswith("_")}),
                "main_modules": children[-1]["main_modules"] if children else None,
            }
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
