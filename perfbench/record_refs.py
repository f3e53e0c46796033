"""Record the reference outcome of every pool config into references.json.

Run it once at the commit whose behaviour is the reference (the benchmark
was defined at such a commit); later commits are checked against the file,
never re-recorded to hide a change in behaviour.

    python3 perfbench/record_refs.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from worker import ROOT, import_cli, run_job


def main() -> int:
    cli = import_cli()
    out = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        cfg_path, report_path = Path(tmp) / "cfg.json", Path(tmp) / "report.json"
        for workload in workloads.WORKLOADS:
            for jid, cfg in workloads.pool(workload).items():
                cfg_path.write_text(json.dumps(cfg))
                status, report, latency, escaped = run_job(cli, cfg["operation"],
                                                           cfg_path, report_path)
                if status is None:
                    raise RuntimeError(f"{jid}: exception escaped the CLI: {escaped}")
                out[jid] = checks.summarize(cfg["operation"], status, report)
                print(f"{jid:36s} exit {status}  {latency:7.3f} s", flush=True)
    revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
    doc = {"recorded_at": {"revision": revision or "unknown", "python": sys.version.split()[0]},
           "jobs": out}
    Path(__file__).with_name("references.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
