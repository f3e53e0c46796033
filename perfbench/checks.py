"""Output checks: each job's report against the reference outcome recorded
for its config at the reference commit (the commit that added the benchmark).

Integers are compared exactly; floats at the acceptance-suite tolerances.
A job *fails* when it exits nonzero or reports a zero whose refined residual
exceeds the tolerance.  A job whose reference outcome is such a failure (a
known baseline failure) passes its check when it fails no worse, and still
counts in the run's fail ratio.
"""

from __future__ import annotations

import hashlib
import json

RESIDUAL_TOL = 1e-6         # refined zero residuals (acceptance criteria 7 and 9)
LOEWNER_TOL = 1e-9          # prescription residual (acceptance criterion 8)
CROSS_FORM_TOL = 1e-7       # relative agreement of r (acceptance criterion 1)
AUDIT_SUM = {"torus": 0, "sphere": 4}


def summarize(op: str, status: int, report: dict) -> dict:
    """The part of a report that references record and checks compare."""
    out = {"exit_status": status}
    if status != 0:
        out["error_code"] = report.get("error", {}).get("code")
        return out
    res = report["results"]
    if op == "obstruction":
        out.update(zeros_found=res["zeros_found"], n_zero_clusters=res["n_zero_clusters"],
                   cluster_kinds=res["cluster_kinds"],
                   dpsi_sign_change=res["dpsi_sign_change"],
                   over_tol=sum(not r <= RESIDUAL_TOL for r in res["refined_residuals"]))
    elif op in ("umbilics", "ph-audit"):
        out.update(record_count=len(res["records"]),
                   twice_indices=sorted(r["twice_index"] for r in res["records"]),
                   sum_twice_index=res["audit"]["sum_twice_index"],
                   surface=res["audit"]["surface"],
                   over_tol=sum(not r["residual"] <= RESIDUAL_TOL for r in res["records"]))
    elif op == "invariant":
        out.update(spherical=res["spherical"], r_sup_norm=res["r_sup_norm"],
                   r_min_modulus=res["r_min_modulus"])
    elif op == "loewner":
        out.update(order=res["order"], residual_norm=res["residual_norm"])
    elif op == "search":
        out.update(history_len=len(res["history"]))
    return out


def results_digest(status: int, report: dict) -> str:
    """Digest of the deterministic part of a report, for rerun identity."""
    body = report.get("results") if status == 0 else report.get("error", {}).get("code")
    return hashlib.sha256(json.dumps([status, body], sort_keys=True).encode()).hexdigest()


def check(op: str, status: int, report: dict, ref: dict):
    """(failed, problems): whether the job failed, and how its outcome
    departs from the reference; no problems means the check passed."""
    got = summarize(op, status, report)
    if status != 0:
        if (status, got["error_code"]) != (ref["exit_status"], ref.get("error_code")):
            return True, [f"exit {status} ({got['error_code']}), reference exit "
                          f"{ref['exit_status']} ({ref.get('error_code')})"]
        return True, []
    problems = []
    # a known baseline failure that now completes has no reference values;
    # its output is held to the tolerance checks alone
    exact = () if ref["exit_status"] != 0 else {
        "obstruction": ("zeros_found", "n_zero_clusters", "cluster_kinds", "dpsi_sign_change"),
        "umbilics": ("record_count", "twice_indices", "sum_twice_index"),
        "ph-audit": ("record_count", "twice_indices", "sum_twice_index"),
        "invariant": ("spherical",),
        "loewner": ("order",),
        "search": ("history_len",),
    }[op]
    for key in exact:
        if got[key] != ref[key]:
            problems.append(f"{key} = {got[key]!r}, reference {ref[key]!r}")
    res = report["results"]
    over = got.get("over_tol", 0)
    if over > ref.get("over_tol", 0):
        problems.append(f"{over} refined residuals above {RESIDUAL_TOL:.0e}, "
                        f"reference {ref.get('over_tol', 0)}")
    if op == "obstruction":
        if not res["zeros_found"] or not res["dpsi_sign_change"]:
            problems.append("obstruction did not show zeros with a sign change of Y'psi")
    elif op in ("umbilics", "ph-audit"):
        audit = res["audit"]
        if audit["sum_twice_index"] != AUDIT_SUM[audit["surface"]] or not audit["passed"]:
            problems.append(f"index audit sum {audit['sum_twice_index']} on a {audit['surface']}")
    elif op == "invariant":
        scale = ref["r_sup_norm"]
        if not abs(res["r_sup_norm"] - scale) <= CROSS_FORM_TOL * scale:
            problems.append(f"sup|r| {res['r_sup_norm']!r}, reference {scale!r}")
        if not abs(res["r_min_modulus"] - ref["r_min_modulus"]) <= CROSS_FORM_TOL * scale:
            problems.append(f"min|r| {res['r_min_modulus']!r}, reference {ref['r_min_modulus']!r}")
    elif op == "loewner":
        if not res["residual_norm"] <= LOEWNER_TOL:
            problems.append(f"residual_norm {res['residual_norm']:.3e} > {LOEWNER_TOL:.0e}")
    elif op == "search":
        for key in ("objective", "objective_2x"):
            if not 0.0 <= res[key] <= 1.0:
                problems.append(f"{key} {res[key]!r} outside [0, 1]")
    return over > 0, problems
