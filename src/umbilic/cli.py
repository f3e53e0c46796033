"""Configuration-driven command line front end.

Subcommands (each takes --config plus the overrides --grid-n, --seed,
--out): invariant, umbilics, ph-audit, loewner, search, obstruction.
ph-audit runs the same pipeline as umbilics, whose report already holds
the index-sum audit.

A run configuration is a JSON document:

    {
      "surface":  {"kind": "torus", "omega": [0.0, 1.0]}
                | {"kind": "sphere", "degree": 2,
                   "perturbations": [{"harmonic": "re_z", "epsilon": 0.05}]}
                | {"kind": "chart", "radius": 1.5},
      "metric":   {"builtin": "constant", "params": {"value": 0.0}}
                | {"builtin": "fs"}
                | {"modes": {"1,0": [0.3, 0.0], "0,1": [0.0, 0.2]}}
                | {"samples": "path/to/grid.csv"},
      "operation": "invariant" | "umbilics" | "ph-audit" | "loewner"
                 | "search" | "obstruction",
      "numeric":  {"grid_n": 128, "seed": 42, "tolerances": {...}},
      "loewner":  {"g": {"builtin": "zbar"} | {"coeffs": {"0,1": [1.0, 0.0]}},
                   "order": 8,
                   "normalization": {"f_diag": [], "phi_diag": [],
                                     "suppress_phi_harmonic": true}},
      "search":   {"mode_budget": 3, "trials": 4, "evaluations": 100,
                   "coeff_bound": 1.0, "mode_filter": "all"},
      "obstruction": {"direction": [0.0, 1.0]},
      "output":   {"report": "report.json", "grid_dump": "r.csv"}
    }

Reports are JSON with a config echo, a deterministic results block, and a
diagnostics block (wall time, resolution checks).  A failed index audit is
still a completed computation (exit 0, failure recorded in the report);
configuration and numerical faults exit nonzero with a machine-readable
error object:

    exit 2  configuration invalid
    exit 3  metric not strictly pseudoconvex
    exit 4  totally degenerate input (locally spherical)
    exit 5  linear solve failed
    exit 6  under-resolved field
    exit 7  numerical fault (contour winding, cross-form disagreement,
            singular chart transition)
    exit 8  claimed symmetry does not annihilate the potential
    exit 9  pointwise map applied outside its domain
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .cartan import cartan_r, cartan_r_all_forms, spherical_test
from .errors import (ConfigError, CrossFormMismatch, DomainError,
                     NotPseudoconvex, PhaseStepTooLarge, SolveFailed,
                     SymmetryViolated, TotallyDegenerate, TransitionSingular,
                     UmbilicError, UnderResolved, ZeroOnContour)
from .field import ChartGrid, PeriodicField, TorusLattice
from .index import (SPHERE_HARMONICS, sphere_two_chart_umbilics, torus_umbilics)
from .loewner import LoewnerNormalization, loewner_solve
from .series import PowerSeries2
from .torussearch import (SearchConfig, SymmetryDirection, TrigPotential,
                          chern_number, symmetric_obstruction_check,
                          torus_search)

EXIT_CODES = {
    ConfigError: 2,
    NotPseudoconvex: 3,
    TotallyDegenerate: 4,
    SolveFailed: 5,
    UnderResolved: 6,
    PhaseStepTooLarge: 7,
    ZeroOnContour: 7,
    CrossFormMismatch: 7,
    TransitionSingular: 7,
    SymmetryViolated: 8,
    DomainError: 9,
}

OPERATIONS = ("invariant", "umbilics", "ph-audit", "loewner", "search", "obstruction")


# --------------------------------------------------------------------------
# config validation
# --------------------------------------------------------------------------

def _fail(msg: str):
    raise ConfigError(msg)


def _require(cond, msg):
    if not cond:
        _fail(msg)


@contextmanager
def _parsing():
    """Report a malformed config value (a ValueError or TypeError raised
    while parsing it or building inputs from it) as ConfigError, exit 2.
    Usable as a decorator; numerical stages stay outside it."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


@_parsing()
def validate_config(cfg: dict) -> dict:
    """Validate and normalize a run configuration; returns the echo form."""
    _require(isinstance(cfg, dict), "config must be a JSON object")
    for key in ("surface", "metric", "operation"):
        _require(key in cfg, f"config needs a {key!r} entry")
    surface = cfg["surface"]
    _require(isinstance(surface, dict) and "kind" in surface, "surface needs a kind")
    kind = surface["kind"]
    if kind == "torus":
        om = surface.get("omega")
        _require(isinstance(om, (list, tuple)) and len(om) == 2,
                 "torus surface needs omega: [re, im]")
        _lattice(cfg)  # omega must be numeric with a nonzero imaginary part
    elif kind == "sphere":
        _require(int(surface.get("degree", 0)) >= 1, "sphere surface needs degree >= 1")
        for p in surface.get("perturbations", []):
            _require(isinstance(p, dict), "each perturbation must be an object")
            _require(p.get("harmonic") in SPHERE_HARMONICS,
                     f"unknown harmonic {p.get('harmonic')!r}")
            float(p.get("epsilon", 0.0))
    elif kind == "chart":
        _require(float(surface.get("radius", 0.0)) > 0.0, "chart surface needs radius > 0")
    else:
        _fail(f"unknown surface kind {kind!r}")

    metric = cfg["metric"]
    _require(isinstance(metric, dict), "metric must be an object")
    sources = [k for k in ("builtin", "modes", "samples") if k in metric]
    _require(len(sources) == 1, "metric needs exactly one of builtin | modes | samples")
    _require(isinstance(metric.get("modes", {}), dict), "metric modes must be an object")
    _require(isinstance(metric.get("params", {}), dict), "metric params must be an object")
    _require(isinstance(metric.get("samples", ""), str), "metric samples must be a file path")
    _require(isinstance(cfg.get("output", {}), dict), "output must be an object")

    op = cfg["operation"]
    _require(op in OPERATIONS, f"operation must be one of {OPERATIONS}")

    numeric = cfg.setdefault("numeric", {})
    _require(isinstance(numeric, dict), "numeric must be an object")
    grid_n = int(numeric.get("grid_n", 128))
    _require(grid_n >= 64 and grid_n % 2 == 0, "grid_n must be even and >= 64")
    numeric["grid_n"] = grid_n
    numeric["seed"] = int(numeric.get("seed", 0))
    tol = numeric.setdefault("tolerances", {})
    _require(isinstance(tol, dict), "numeric.tolerances must be an object")
    for name, val in tol.items():
        _require(float(val) > 0.0, f"tolerance {name!r} must be positive")

    if op == "loewner":
        lw = cfg.get("loewner")
        _require(isinstance(lw, dict) and isinstance(lw.get("g"), dict) and "order" in lw,
                 "loewner operation needs loewner: {g: {...}, order}")
        _require(isinstance(lw["g"].get("coeffs", {}), dict), "loewner g coeffs must be an object")
        _require(isinstance(lw.get("normalization", {}), dict),
                 "loewner normalization must be an object")
        _require(int(lw["order"]) >= 2, "loewner order must be >= 2")
    if op == "obstruction":
        ob = cfg.get("obstruction")
        _require(isinstance(ob, dict) and isinstance(ob.get("direction"), (list, tuple))
                 and len(ob["direction"]) == 2, "obstruction needs direction: [alpha, beta]")
        _require(any(float(x) != 0.0 for x in ob["direction"]),
                 "obstruction direction must be nonzero")
    if op == "search":
        _require(kind == "torus", "search runs on a torus surface")
        _require(isinstance(cfg.get("search", {}), dict), "search must be an object")
    if op in ("invariant", "umbilics", "ph-audit", "obstruction", "search") and kind == "sphere":
        _require(metric.get("builtin", "fs") == "fs",
                 "sphere runs take their metric from the surface entry (builtin fs)")
    return cfg


def _parse_mode_key(key: str):
    parts = key.split(",")
    if len(parts) != 2:
        _fail(f"mode key {key!r} must look like 'j,k'")
    return int(parts[0]), int(parts[1])


def _modes_from_config(modes_cfg: dict) -> dict:
    out = {}
    for key, val in modes_cfg.items():
        j, k = _parse_mode_key(key)
        _require(isinstance(val, (list, tuple)) and len(val) == 2,
                 f"mode {key!r} must map to [re, im]")
        out[(j, k)] = complex(float(val[0]), float(val[1]))
    return out


def _lattice(cfg: dict) -> TorusLattice:
    return TorusLattice(complex(*map(float, cfg["surface"]["omega"])))


@_parsing()
def build_torus_potential(cfg: dict) -> TrigPotential:
    lattice = _lattice(cfg)
    metric = cfg["metric"]
    if "builtin" in metric:
        name = metric["builtin"]
        params = metric.get("params", {})
        _require(name == "constant", f"unknown torus builtin metric {name!r}")
        pot = TrigPotential(lattice, {(0, 0): float(params.get("value", 0.0))})
    elif "modes" in metric:
        pot = TrigPotential.from_half_modes(lattice, _modes_from_config(metric["modes"]))
    else:
        # tabulated samples: recover band-limited modes from a dumped grid
        field = load_grid(metric["samples"], lattice)
        C = np.fft.fft2(field.values) / field.n ** 2
        modes = {}
        n = field.n
        for j in range(-(n // 2) + 1, n // 2):
            for k in range(-(n // 2) + 1, n // 2):
                c = C[j % n, k % n]
                if abs(c) > 1e-12:
                    modes[(j, k)] = complex(c)
        pot = TrigPotential(lattice, modes)
    n = cfg["numeric"]["grid_n"]
    _require(pot.mode_budget < n // 2,
             f"mode budget {pot.mode_budget} does not fit on an n={n} grid")
    return pot


# --------------------------------------------------------------------------
# grid dump / load
# --------------------------------------------------------------------------

def dump_grid(field, path: str):
    """Delimited text table (s,t,re,im on the torus; x,y,re,im on a chart),
    row major, 17 significant digits."""
    if isinstance(field, PeriodicField):
        header = "s,t,re,im"
        a = np.arange(field.n) / field.n
        ax0, ax1 = a, a
    elif isinstance(field, ChartGrid):
        header = "x,y,re,im"
        ax0 = ax1 = field.axis()
    else:
        raise TypeError("dump_grid expects a sampled field")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        V = field.values
        for i, a0 in enumerate(ax0):
            for j, a1 in enumerate(ax1):
                v = V[i, j]
                fh.write(f"{a0:.17g},{a1:.17g},{v.real:.17g},{v.imag:.17g}\n")


@_parsing()
def load_grid(path: str, lattice: TorusLattice) -> PeriodicField:
    """Reload a torus grid dump written by :func:`dump_grid`."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read samples: {exc}") from exc
    if header != "s,t,re,im":
        raise ConfigError(f"unsupported samples header {header!r}")
    if any(len(row) != 4 for row in rows):
        raise ConfigError("samples rows must have four fields s,t,re,im")
    count = len(rows)
    n = int(round(count ** 0.5))
    if n * n != count:
        raise ConfigError(f"samples file has {count} rows, not a square grid")
    vals = np.empty((n, n), dtype=complex)
    for idx, row in enumerate(rows):
        i, j = divmod(idx, n)
        vals[i, j] = complex(float(row[2]), float(row[3]))
    real = bool(np.max(np.abs(vals.imag)) <= 1e-12 * max(1.0, np.max(np.abs(vals))))
    return PeriodicField(lattice, vals, real_tag=real)


# --------------------------------------------------------------------------
# operation runners
# --------------------------------------------------------------------------

def _record_dict(rec) -> dict:
    return {
        "z0": [rec.z0.real, rec.z0.imag],
        "twice_index": rec.twice_index,
        "index": rec.index_str,
        "residual": rec.residual,
        "chart_id": rec.chart_id,
        "contour_radius": rec.contour_radius,
    }


def _audit_dict(audit) -> dict:
    out = {
        "surface": audit.surface.kind,
        "euler_characteristic": audit.surface.euler,
        "sum_twice_index": audit.sum_twice_index,
        "expected_twice_index": audit.expected_twice_index,
        "passed": audit.passed,
        "discrepancy": audit.discrepancy,
    }
    stab = audit.details.get("chart_stability")
    if stab is not None:
        out["chart_stability"] = stab
    return out


def _torus_field(cfg: dict):
    pot = build_torus_potential(cfg)
    return pot, pot.to_field(cfg["numeric"]["grid_n"])


@_parsing()
def _sphere_args(cfg: dict):
    surf = cfg["surface"]
    perts = [(p["harmonic"], float(p.get("epsilon", 0.0)))
             for p in surf.get("perturbations", [])]
    return int(surf["degree"]), perts


def run_invariant(cfg: dict) -> dict:
    kind = cfg["surface"]["kind"]
    tol = cfg["numeric"]["tolerances"].get("cross_form", 1e-7)
    if kind == "torus":
        _, u = _torus_field(cfg)
        forms = cartan_r_all_forms(u, tol=tol)
        r = forms["p_form"].r
        spherical = spherical_test(u, cfg["numeric"]["tolerances"].get("spherical", 1e-9))
    elif kind == "sphere":
        from .index import sphere_metric_potentials
        degree, perts = _sphere_args(cfg)
        u1, _ = sphere_metric_potentials(degree, perts, chart_radius=1.6,
                                         chart_n=cfg["numeric"]["grid_n"])
        r = cartan_r(u1, "p_form").r
        spherical = spherical_test(u1, cfg["numeric"]["tolerances"].get("spherical", 1e-6),
                                   region_radius=1.0)
        u = u1
    else:
        _fail("invariant on a bare chart needs a torus or sphere surface")
    result = {
        "form": "p_form",
        "r_sup_norm": r.sup_norm(),
        "r_min_modulus": r.min_modulus(),
        "spherical": bool(spherical),
        "grid_n": cfg["numeric"]["grid_n"],
    }
    return {"results": result, "dump_field": r}


def run_umbilics(cfg: dict) -> dict:
    kind = cfg["surface"]["kind"]
    extra = {}
    if kind == "torus":
        _, u = _torus_field(cfg)
        records, audit, clusters = torus_umbilics(u)
    elif kind == "sphere":
        degree, perts = _sphere_args(cfg)
        # sphere charts never run below n = 128; diagnostics record the n used
        extra["chart_n"] = max(cfg["numeric"]["grid_n"], 128)
        records, audit = sphere_two_chart_umbilics(degree, perts, chart_n=extra["chart_n"])
    else:
        _fail("umbilics needs a torus or sphere surface")
    return {"results": {
        "records": [_record_dict(r) for r in records],
        "audit": _audit_dict(audit),
    }, "diagnostics_extra": extra}


def run_loewner(cfg: dict) -> dict:
    lw = cfg["loewner"]
    order = int(lw["order"])
    with _parsing():
        gspec = lw["g"]
        if "builtin" in gspec:
            name = gspec["builtin"]
            if name == "zbar":
                g = PowerSeries2(max(order - 2, 1), {(0, 1): 1.0})
            elif name == "zero":
                g = PowerSeries2.zero(max(order - 2, 0))
            else:
                _fail(f"unknown builtin loewner g {name!r}")
        else:
            coeffs = {}
            for key, val in gspec.get("coeffs", {}).items():
                k, l = _parse_mode_key(key)
                coeffs[(k, l)] = complex(float(val[0]), float(val[1]))
            g = PowerSeries2(max(order - 2, max((k + l for k, l in coeffs), default=0)), coeffs)
        ncfg = lw.get("normalization", {})
        norm = LoewnerNormalization(
            f_diag=list(map(float, ncfg.get("f_diag", []))),
            phi_diag=list(map(float, ncfg.get("phi_diag", []))),
            suppress_phi_harmonic=bool(ncfg.get("suppress_phi_harmonic", True)))
    sol = loewner_solve(g, order, norm)
    return {"results": {
        "order": sol.order,
        "residual_norm": sol.residual_norm,
        "f_coeffs": {f"{k},{l}": [c.real, c.imag]
                     for (k, l), c in sorted(sol.f.coeffs.items())},
        "phi_coeffs": {f"{k},{l}": [c.real, c.imag]
                       for (k, l), c in sorted(sol.phi.coeffs.items())},
    }, "diagnostics_extra": {"normalization_ignored": norm.ignored(order)}}


def run_search(cfg: dict) -> dict:
    s = cfg.get("search", {})
    with _parsing():
        config = SearchConfig(
            lattice=_lattice(cfg),
            mode_budget=int(s.get("mode_budget", 3)),
            trials=int(s.get("trials", 4)),
            evaluations=int(s.get("evaluations", 100)),
            seed=cfg["numeric"]["seed"],
            grid_n=cfg["numeric"]["grid_n"],
            coeff_bound=float(s.get("coeff_bound", 1.0)),
            mode_filter=s.get("mode_filter", "all"))
    report = torus_search(config)
    return {"results": report.results_payload(),
            "diagnostics_extra": {"wall_time_s": report.wall_time}}


def run_obstruction(cfg: dict) -> dict:
    pot = build_torus_potential(cfg)
    a, b = map(float, cfg["obstruction"]["direction"])
    rep = symmetric_obstruction_check(pot, SymmetryDirection(a, b),
                                      grid_n=cfg["numeric"]["grid_n"])
    return {"results": {
        "direction": [rep.direction.alpha, rep.direction.beta],
        "zeros_found": rep.zeros_found,
        "n_zero_clusters": len(rep.zero_clusters),
        "cluster_kinds": sorted({c.kind for c in rep.zero_clusters}),
        "cluster_centers": [[c.center.real, c.center.imag] for c in rep.zero_clusters],
        "refined_residuals": rep.residuals,
        "psi_min": rep.psi_min,
        "psi_max": rep.psi_max,
        "dpsi_sign_change": rep.dpsi_sign_change,
        "proof_identity_residual": rep.proof_identity_residual,
        "chern_number_of_input": chern_number(pot),
    }}


_RUNNERS = {
    "invariant": run_invariant,
    "umbilics": run_umbilics,
    "ph-audit": run_umbilics,  # the same pipeline; the audit is part of its report
    "loewner": run_loewner,
    "search": run_search,
    "obstruction": run_obstruction,
}


def run(cfg: dict) -> dict:
    """Dispatch a validated config and assemble the report."""
    cfg = validate_config(cfg)
    t0 = time.monotonic()
    out = _RUNNERS[cfg["operation"]](cfg)
    wall = time.monotonic() - t0
    report = {
        "version": __version__,
        "config": cfg,
        "results": out["results"],
        "diagnostics": {"wall_time_s": wall},
    }
    report["diagnostics"].update(out.get("diagnostics_extra", {}))
    dump_path = cfg.get("output", {}).get("grid_dump")
    if dump_path and "dump_field" in out:
        dump_grid(out["dump_field"], dump_path)
        report["diagnostics"]["grid_dump"] = dump_path
    return report


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umbilic",
        description="Umbilical loci of strictly pseudoconvex circle bundles: "
                    "invariant fields, winding indices, index-sum audits, "
                    "curved-Hessian prescription, torus search.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="operation", required=True)
    for op in OPERATIONS:
        p = sub.add_parser(op)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--grid-n", type=int, default=None, help="override numeric.grid_n")
        p.add_argument("--seed", type=int, default=None, help="override numeric.seed")
        p.add_argument("--out", default=None, help="override output.report path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error(ConfigError(f"cannot read config: {exc}"), None)
        return 2
    # the overrides below write into numeric and output, and errors are
    # also written to output.report
    if not isinstance(cfg, dict) or not all(isinstance(cfg.get(key, {}), dict)
                                            for key in ("numeric", "output")):
        _emit_error(ConfigError("config must be a JSON object, with numeric and "
                                "output entries that are objects"), None)
        return 2
    cfg.setdefault("numeric", {})
    if args.grid_n is not None:
        cfg["numeric"]["grid_n"] = args.grid_n
    if args.seed is not None:
        cfg["numeric"]["seed"] = args.seed
    if args.out is not None:
        cfg.setdefault("output", {})["report"] = args.out
    if cfg.get("operation") not in (None, args.operation):
        _emit_error(ConfigError(
            f"config operation {cfg.get('operation')!r} does not match "
            f"subcommand {args.operation!r}"), cfg)
        return 2
    cfg["operation"] = args.operation
    try:
        report = run(cfg)
    except UmbilicError as exc:
        _emit_error(exc, cfg)
        return EXIT_CODES.get(type(exc), 1)
    text = json.dumps(report, indent=2, sort_keys=True)
    out_path = cfg.get("output", {}).get("report")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _emit_error(exc: UmbilicError, cfg):
    obj = {
        "error": {
            "code": type(exc).__name__,
            "exit_status": EXIT_CODES.get(type(exc), 1),
            "message": str(exc),
        }
    }
    print(json.dumps(obj, indent=2, sort_keys=True), file=sys.stderr)
    out_path = (cfg or {}).get("output", {}).get("report")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
