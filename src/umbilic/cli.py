"""Configuration-driven command line front end.

The first argument names the operation: invariant, umbilics, ph-audit,
loewner, search or obstruction.  Every run takes --config and the
overrides --grid-n, --seed and --out.  ph-audit runs the same pipeline
as umbilics, whose report already holds the index-sum audit.

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

search and obstruction take a torus; invariant, umbilics and ph-audit a
torus or a sphere (metric builtin fs); loewner any surface, which it
ignores.  grid_n is even and between 64 and MAX_GRID_N (2048), also when
--grid-n sets it.  Only invariant reads numeric.tolerances (cross_form on
a torus, spherical on a sphere, which runs the P form alone) and writes
output.grid_dump; any other tolerance name, and a grid_dump entry on
another operation, is rejected.  A torus is spherical (umbilics exits 4)
iff sup|r| < 1e-12, a shift-invariant rule; a sphere iff sup|K_zz| <=
spherical (1 + sup|K|) on chart 1, 1e-6 by default.  Integers (grid_n,
seed, degree, order, mode_budget, trials, evaluations) are JSON integers, integral
numbers (64.0) or integer strings ("64"), never 64.9, "6.5" or true; the
loewner order and the total degree k + l of each g coefficient "k,l" are
at most MAX_LOEWNER_DEGREE (64), since a degree-d series is a dense
(d+1) x (d+1) array; the sphere degree is at most the largest float,
since the metric takes its logarithm; other numbers are finite JSON
numbers or numeric strings ("1e-7"); suppress_phi_harmonic is true or
false; paths (metric.samples, output.report, output.grid_dump) are
strings.
:func:`parse_config` parses each value once; runners read only its inputs.

Reports are JSON with a config echo, a deterministic results block, and a
diagnostics block: wall_time_s, the time of the whole run from parsing the
config to the checked results block, for every operation; the sphere chart
resolution used; the clusters of winding 0 that umbilics and ph-audit
dropped, and how many of their index cross-checks ran or were skipped, by
reason; the profile roots that obstruction could not certify as zero
curves (uncertified_roots); the number of points of each call a search made
to its objective, per trial (objective_groups), and how many of a trial's
scores a row- or column-winding proof, a polish below the zero stop, a
degenerate invariant, neither, or the symmetry theorem for a potential that
varies in one direction decided (objective_certificates: windings, polish,
degenerate, nonzero, symmetric).  An obstruction's results
give the line of its zero curves, curve_line [j0, k0], and their sorted
offsets theta_i in [0, 1) (curve_offsets): curve i is j0 s + k0 t = theta_i.
Both come from the potential's modes alone, so they do not depend on
grid_n; the residuals and identity checks are sampled on the grid.  A failed
index audit is still a completed computation (exit 0, failure recorded in
the report); configuration and numerical faults exit nonzero with a
machine-readable error object:

    exit 2  configuration invalid, or an output path cannot be written
    exit 3  metric not strictly pseudoconvex
    exit 4  totally degenerate input: locally spherical (on a torus,
            sup|r| < 1e-12), or zeros of r that are not isolated points
    exit 5  linear solve failed
    exit 6  under-resolved field
    exit 7  numerical fault (contour winding, cross-form disagreement)
    exit 8  claimed symmetry does not annihilate the potential
    exit 9  pointwise map applied outside its domain, or a result that is
            not a finite number
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .cartan import _is_degenerate, cartan_r, cartan_r_all_forms, spherical_test
from .errors import (ConfigError, CrossFormMismatch, DomainError,
                     NotPseudoconvex, PhaseStepTooLarge, SolveFailed,
                     SymmetryViolated, TotallyDegenerate, UmbilicError,
                     UnderResolved, ZeroOnContour)
from .field import PeriodicField, TorusLattice, _is_real
from .index import (SPHERE_HARMONICS, SPHERE_SPHERICAL_TOL, sphere_metric_potentials,
                    sphere_two_chart_umbilics, torus_umbilics)
from .loewner import LoewnerNormalization, loewner_solve
from .series import PowerSeries2
from .torussearch import (SearchConfig, SymmetryDirection, TrigPotential,
                          symmetric_obstruction_check, torus_search)

EXIT_CODES = {
    ConfigError: 2,
    NotPseudoconvex: 3,
    TotallyDegenerate: 4,
    SolveFailed: 5,
    UnderResolved: 6,
    PhaseStepTooLarge: 7,
    ZeroOnContour: 7,
    CrossFormMismatch: 7,
    SymmetryViolated: 8,
    DomainError: 9,
}

# the surface kinds each operation accepts; loewner ignores its surface
SURFACES = {
    "invariant": ("torus", "sphere"),
    "umbilics": ("torus", "sphere"),
    "ph-audit": ("torus", "sphere"),
    "loewner": ("torus", "sphere", "chart"),
    "search": ("torus",),
    "obstruction": ("torus",),
}
OPERATIONS = tuple(SURFACES)

# largest loewner order and g coefficient degree a config may ask for
MAX_LOEWNER_DEGREE = 64
# largest grid_n: a torus field holds n^2 complex samples (64 MiB at 2048), a
# product of full-band fields lifts them to 2n x 2n, and search also runs its
# best potential at 2 * grid_n (objective_2x)
MAX_GRID_N = 2048
# the numeric.tolerances names each operation reads, by surface kind
TOLERANCES = {("invariant", "torus"): ("cross_form",),
              ("invariant", "sphere"): ("spherical",)}
# largest distance of a samples file's s,t entries from the grid (i/n, j/n)
_GRID_TOL = 1e-9


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


@contextmanager
def _parsing():
    """Report a malformed config value (a ValueError, TypeError or
    OverflowError raised while parsing it or building inputs from it) as
    ConfigError, exit 2.  Usable as a decorator; numerical stages stay
    outside it."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def _int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    out = float(value)
    if isinstance(value, bool) or not np.isfinite(out):
        raise ValueError(f"{value!r} is not a finite number")
    return out


def _pair(value, what: str) -> tuple:
    _require(isinstance(value, (list, tuple)) and len(value) == 2, f"{what} must be a pair [a, b]")
    return _float(value[0]), _float(value[1])


def _section(parent: dict, key: str) -> dict:
    value = parent.get(key, {})
    _require(isinstance(value, dict), f"{key} must be an object")
    return value


def _modes(section: dict) -> dict:
    """{(j, k): complex} from {"j,k": [re, im]} entries."""
    out = {}
    for key, val in section.items():
        parts = key.split(",")
        _require(len(parts) == 2, f"mode key {key!r} must look like 'j,k'")
        out[int(parts[0]), int(parts[1])] = complex(*_pair(val, f"mode {key!r}"))
    return out


@_parsing()
def parse_config(cfg: dict) -> tuple:
    """Parse a run configuration once into (echo, inputs).  The echo is the
    config with integer numeric.grid_n and seed and the numeric defaults
    filled in.  inputs holds grid_n, tolerances, grid_dump and what the
    operation reads: potential (TrigPotential), sphere (degree,
    [(harmonic, epsilon)]), loewner (g, order, LoewnerNormalization),
    search (SearchConfig) and direction (SymmetryDirection)."""
    _require(isinstance(cfg, dict), "config must be a JSON object")
    for key in ("surface", "metric", "operation"):
        _require(key in cfg, f"config needs a {key!r} entry")
    op, surface, metric = cfg["operation"], cfg["surface"], cfg["metric"]
    _require(op in SURFACES, f"operation must be one of {OPERATIONS}")

    numeric = _section(cfg, "numeric")
    grid_n, seed = _int(numeric.get("grid_n", 128)), _int(numeric.get("seed", 0))
    _require(64 <= grid_n <= MAX_GRID_N and grid_n % 2 == 0,
             f"grid_n must be even and between 64 and {MAX_GRID_N}")
    tol = _section(numeric, "tolerances")
    tolerances = {name: _float(val) for name, val in tol.items()}
    _require(all(val > 0.0 for val in tolerances.values()), "tolerances must be positive")
    echo = dict(cfg, numeric=dict(numeric, grid_n=grid_n, seed=seed, tolerances=tol))
    output = _section(cfg, "output")
    for key in ("report", "grid_dump"):
        _require(isinstance(output.get(key, ""), str), f"output.{key} must be a file path")
    _require(op == "invariant" or "grid_dump" not in output,
             "output.grid_dump is written by invariant only")
    inputs = {"grid_n": grid_n, "tolerances": tolerances,
              "grid_dump": output.get("grid_dump", "")}

    _require(isinstance(surface, dict), "surface must be an object")
    kind = surface.get("kind")
    _require(kind in SURFACES[op],
             f"{op} runs on a {' or '.join(SURFACES[op])} surface, not {kind!r}")
    reads = TOLERANCES.get((op, kind), ())
    unread = sorted(set(tolerances) - set(reads))
    _require(not unread, f"{op} on a {kind} reads the tolerances {list(reads)}, "
                         f"not {unread}")
    _require(isinstance(metric, dict) and
             sum(k in metric for k in ("builtin", "modes", "samples")) == 1,
             "metric needs exactly one of builtin | modes | samples")
    if kind == "torus":
        lattice = TorusLattice(complex(*_pair(surface.get("omega"), "torus omega")))
    elif kind == "sphere":
        degree, perts = _int(surface.get("degree", 0)), surface.get("perturbations", [])
        _require(degree >= 1, "sphere surface needs degree >= 1")
        # the metric takes log(degree) in floating point
        _require(degree <= sys.float_info.max, "sphere degree overflows a float")
        _require(isinstance(perts, list) and all(
            isinstance(p, dict) and p.get("harmonic") in SPHERE_HARMONICS for p in perts),
            f"sphere perturbations must be objects with a harmonic in {sorted(SPHERE_HARMONICS)}")
        inputs["sphere"] = degree, [(p["harmonic"], _float(p.get("epsilon", 0.0))) for p in perts]
        _require(op == "loewner" or metric.get("builtin") == "fs",
                 "sphere runs take their metric from the surface entry (builtin fs)")
    else:
        _require(_float(surface.get("radius", 0.0)) > 0.0, "chart surface needs radius > 0")

    if op == "loewner":
        inputs["loewner"] = _loewner_inputs(cfg.get("loewner"))
    elif op == "search":
        s = _section(cfg, "search")
        inputs["search"] = SearchConfig(
            lattice=lattice, mode_budget=_int(s.get("mode_budget", 3)),
            trials=_int(s.get("trials", 4)), evaluations=_int(s.get("evaluations", 100)),
            seed=seed, grid_n=grid_n, coeff_bound=_float(s.get("coeff_bound", 1.0)),
            mode_filter=s.get("mode_filter", "all"))
    elif kind == "torus":
        inputs["potential"] = build_torus_potential(metric, lattice, grid_n)
    if op == "obstruction":
        direction = _pair(_section(cfg, "obstruction").get("direction"), "obstruction direction")
        inputs["direction"] = SymmetryDirection(*direction)
    return echo, inputs


def _loewner_inputs(lw) -> tuple:
    _require(isinstance(lw, dict) and isinstance(lw.get("g"), dict) and "order" in lw,
             "loewner operation needs loewner: {g: {...}, order}")
    order, gspec = _int(lw["order"]), lw["g"]
    _require(2 <= order <= MAX_LOEWNER_DEGREE,
             f"loewner order must be between 2 and {MAX_LOEWNER_DEGREE}")
    if "builtin" in gspec:
        name = gspec["builtin"]
        _require(name in ("zbar", "zero"), f"unknown builtin loewner g {name!r}")
        g = (PowerSeries2(max(order - 2, 1), {(0, 1): 1.0}) if name == "zbar"
             else PowerSeries2.zero(max(order - 2, 0)))
    else:
        coeffs = _modes(_section(gspec, "coeffs"))
        _require(all(k + l <= MAX_LOEWNER_DEGREE for k, l in coeffs),
                 f"loewner g coefficients must have degree <= {MAX_LOEWNER_DEGREE}")
        g = PowerSeries2(max(order - 2, max((k + l for k, l in coeffs), default=0)), coeffs)
    ncfg = _section(lw, "normalization")
    diags = [ncfg.get("f_diag", []), ncfg.get("phi_diag", [])]
    suppress = ncfg.get("suppress_phi_harmonic", True)
    _require(all(isinstance(d, list) for d in diags) and isinstance(suppress, bool),
             "f_diag and phi_diag must be lists, suppress_phi_harmonic true or false")
    return g, order, LoewnerNormalization(*([_float(x) for x in d] for d in diags), suppress)


def build_torus_potential(metric: dict, lattice: TorusLattice, grid_n: int) -> TrigPotential:
    """The potential a torus metric entry describes; it must fit an
    n = grid_n grid."""
    if "builtin" in metric:
        _require(metric["builtin"] == "constant",
                 f"unknown torus builtin metric {metric['builtin']!r}")
        value = _float(_section(metric, "params").get("value", 0.0))
        pot = TrigPotential(lattice, {(0, 0): value})
    elif "modes" in metric:
        pot = TrigPotential.from_half_modes(lattice, _modes(_section(metric, "modes")))
    else:
        _require(isinstance(metric["samples"], str), "metric samples must be a file path")
        # tabulated samples: recover band-limited modes from a dumped grid's
        # one spectrum (centred and denoised), its Nyquist row and column dropped
        field = load_grid(metric["samples"], lattice)
        n = field.n
        f = np.arange(-(n // 2) + 1, n // 2)
        C = field._spectral_block()[1:, 1:] / n ** 2
        jj, kk = np.nonzero(np.abs(C) > 1e-12)  # row major: j, then k
        pot = TrigPotential(lattice, {(int(f[j]), int(f[k])): complex(C[j, k])
                                      for j, k in zip(jj, kk)})
    _require(pot.mode_budget < grid_n // 2,
             f"mode budget {pot.mode_budget} does not fit on an n={grid_n} grid")
    return pot


# --------------------------------------------------------------------------
# grid dump / load
# --------------------------------------------------------------------------

def dump_grid(field, path: str):
    """Delimited text table (s,t,re,im on the torus; x,y,re,im on a chart),
    row major, 17 significant digits."""
    ax0, ax1 = field.corner_st(np.arange(field.n), np.arange(field.n))
    V = field.values
    # one formatting per grid row i: its n lines s_i, t_j, re, im as 4n numbers
    table = np.stack(np.broadcast_arrays(ax0[:, None], ax1, V.real, V.imag), -1)
    rows = "%.17g,%.17g,%.17g,%.17g\n" * field.n
    with open(path, "w") as fh:
        fh.write("s,t,re,im\n" if field.periodic else "x,y,re,im\n")
        for row in table.reshape(field.n, -1).tolist():
            fh.write(rows % tuple(row))


@_parsing()
def load_grid(path: str, lattice: TorusLattice) -> PeriodicField:
    """Reload a torus grid dump written by :func:`dump_grid`: finite samples
    whose s,t columns are the row-major grid (i/n, j/n) to _GRID_TOL."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            body = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read samples: {exc}") from exc
    if header != "s,t,re,im":
        raise ConfigError(f"unsupported samples header {header!r}")
    _require(body.strip(), "samples file has no rows")
    table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    if table.shape[1] != 4:
        raise ConfigError("samples rows must have four fields s,t,re,im")
    count = len(table)
    n = int(round(count ** 0.5))
    if n * n != count:
        raise ConfigError(f"samples file has {count} rows, not a square grid")
    table = table.reshape(n, n, 4)
    if not np.isfinite(table[..., 2:]).all():
        raise ConfigError("samples must be finite numbers")
    grid = np.stack(np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij"), -1)
    if not (np.abs(table[..., :2] - grid) <= _GRID_TOL).all():  # NaN fails too
        raise ConfigError("samples s,t columns must be the row-major grid (i/n, j/n)")
    vals = np.empty((n, n), dtype=complex)
    vals.real, vals.imag = table[..., 2], table[..., 3]
    return PeriodicField(lattice, vals, real_tag=_is_real(vals))


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
        "surface": audit.surface,
        "euler_characteristic": audit.euler,
        "sum_twice_index": audit.sum_twice_index,
        "expected_twice_index": audit.expected_twice_index,
        "passed": audit.passed,
        "discrepancy": audit.discrepancy,
    }
    stab = audit.details.get("chart_stability")
    if stab is not None:
        out["chart_stability"] = stab
    return out


def run_invariant(inp: dict) -> dict:
    tol = inp["tolerances"]
    if "potential" in inp:
        u = inp["potential"].to_field(inp["grid_n"])
        r = cartan_r_all_forms(u, tol=tol.get("cross_form", 1e-7))["p_form"]
        spherical = _is_degenerate(r.sup_norm())
    else:
        u, _ = sphere_metric_potentials(*inp["sphere"], chart_n=inp["grid_n"])
        r = cartan_r(u, "p_form")
        spherical = spherical_test(u, r, tol.get("spherical", SPHERE_SPHERICAL_TOL),
                                   region_radius=1.0)
    result = {
        "form": "p_form",
        "r_sup_norm": r.sup_norm(),
        "r_min_modulus": r.min_modulus(),
        "spherical": bool(spherical),
        "grid_n": inp["grid_n"],
    }
    return {"results": result, "dump_field": r}


def run_umbilics(inp: dict) -> dict:
    extra = {}
    if "potential" in inp:
        records, audit, _ = torus_umbilics(inp["potential"].to_field(inp["grid_n"]))
    else:
        # sphere charts never run below n = 128; diagnostics record the n used
        extra["chart_n"] = max(inp["grid_n"], 128)
        records, audit = sphere_two_chart_umbilics(*inp["sphere"], chart_n=extra["chart_n"])
    # clusters of winding 0 give no record; they may be merged zero pairs
    extra["dropped_clusters"] = audit.details["dropped_clusters"]
    extra["index_cross_checks"] = audit.details["index_cross_checks"]
    return {"results": {
        "records": [_record_dict(r) for r in records],
        "audit": _audit_dict(audit),
    }, "diagnostics_extra": extra}


def run_loewner(inp: dict) -> dict:
    g, order, norm = inp["loewner"]
    sol = loewner_solve(g, order, norm)
    return {"results": {
        "order": sol.order,
        "residual_norm": sol.residual_norm,
        "f_coeffs": {f"{k},{l}": [c.real, c.imag]
                     for (k, l), c in sorted(sol.f.coeffs.items())},
        "phi_coeffs": {f"{k},{l}": [c.real, c.imag]
                       for (k, l), c in sorted(sol.phi.coeffs.items())},
    }, "diagnostics_extra": {"normalization_ignored": norm.ignored(order)}}


def run_search(inp: dict) -> dict:
    rep = torus_search(inp["search"])
    return {"results": rep.results_payload(),
            "diagnostics_extra": {"objective_groups": rep.objective_groups,
                                  "objective_certificates": rep.objective_certificates}}


def run_obstruction(inp: dict) -> dict:
    rep = symmetric_obstruction_check(inp["potential"], inp["direction"], grid_n=inp["grid_n"])
    return {"results": {
        "direction": [rep.direction.alpha, rep.direction.beta],
        "zeros_found": rep.zeros_found,
        "n_zero_clusters": len(rep.curve_offsets),
        "cluster_kinds": ["curve"] if rep.curve_offsets else [],
        "curve_line": list(rep.curve_line),
        "curve_offsets": rep.curve_offsets,
        "refined_residuals": rep.residuals,
        "psi_min": rep.psi_min,
        "psi_max": rep.psi_max,
        "dpsi_sign_change": rep.dpsi_sign_change,
        "proof_identity_residual": rep.proof_identity_residual,
        "profile_identity_residual": rep.profile_identity_residual,
        "chern_number_of_input": rep.chern_number,
    }, "diagnostics_extra": {"uncertified_roots": rep.uncertified_roots}}


_RUNNERS = {
    "invariant": run_invariant,
    "umbilics": run_umbilics,
    "ph-audit": run_umbilics,  # the same pipeline; the audit is part of its report
    "loewner": run_loewner,
    "search": run_search,
    "obstruction": run_obstruction,
}


def run(cfg: dict) -> dict:
    """Parse a config, run its operation and assemble the report."""
    t0 = time.monotonic()
    echo, inputs = parse_config(cfg)
    out = _RUNNERS[echo["operation"]](inputs)
    _require_finite(out["results"], "results")
    wall = time.monotonic() - t0
    report = {
        "version": __version__,
        "config": echo,
        "results": out["results"],
        "diagnostics": {"wall_time_s": wall},
    }
    report["diagnostics"].update(out.get("diagnostics_extra", {}))
    if inputs["grid_dump"]:  # parse_config allows it on invariant only
        try:
            dump_grid(out["dump_field"], inputs["grid_dump"])
        except OSError as exc:
            raise ConfigError(f"cannot write grid dump: {exc}") from exc
        report["diagnostics"]["grid_dump"] = inputs["grid_dump"]
    return report


def _require_finite(value, path: str):
    """Raise DomainError at the first NaN or infinite number in a results
    block: JSON has no such numbers, and a report never holds them."""
    found = _first_nonfinite(value)
    if found is not None:
        raise DomainError(f"{path}{found[0]} is {found[1]}: the computation left the float range")


def _first_nonfinite(value):
    """(path suffix, number) of the first NaN or infinite float in nested
    dicts and lists, or None: the walk spells the path of that leaf alone."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ("", value)
    if isinstance(value, dict):
        items, spell = value.items(), ".{}".format
    elif isinstance(value, list):
        items, spell = enumerate(value), "[{}]".format
    else:
        return None
    for key, item in items:
        found = _first_nonfinite(item)
        if found is not None:
            return spell(key) + found[0], found[1]
    return None


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, when this module is
    imported (argparse's message lookup imports locale then, so a main call
    loads no module): parsing leaves it as it was, so every :func:`main`
    call reads the same one."""
    parser = argparse.ArgumentParser(
        prog="umbilic",
        description="Umbilical loci of strictly pseudoconvex circle bundles: "
                    "invariant fields, winding indices, index-sum audits, "
                    "curved-Hessian prescription, torus search.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("operation", choices=OPERATIONS)
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--grid-n", type=int, default=None, help="override numeric.grid_n")
    parser.add_argument("--seed", type=int, default=None, help="override numeric.seed")
    parser.add_argument("--out", default=None, help="override output.report path")
    return parser


build_parser()


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
            f"operation {args.operation!r} on the command line"), cfg)
        return 2
    cfg["operation"] = args.operation
    try:
        # run rejects non-finite results, so numpy's floating-point warnings
        # would only add lines to stderr, which holds one JSON error object
        with np.errstate(all="ignore"):
            report = run(cfg)
    except UmbilicError as exc:
        _emit_error(exc, cfg)
        return EXIT_CODES.get(type(exc), 1)
    text = json.dumps(report, indent=2, sort_keys=True)
    out_path = cfg.get("output", {}).get("report")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _emit_error(ConfigError(f"cannot write report: {exc}"), cfg)
            return 2
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
    if out_path and isinstance(out_path, str):
        try:
            with open(out_path, "w") as fh:
                fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
