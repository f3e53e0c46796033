"""Seeded job lists for the three benchmark workloads.

Every workload draws its jobs from a fixed pool of canonical CLI configs.
The pool is generated from string-seeded ``random.Random`` streams, so it is
the same on every machine and Python version, and each pool entry has a
reference outcome recorded in ``references.json`` (see ``record_refs.py``).
The pool is grouped by *stratum* (lattice, direction, operation, order,
...).  A run's job list is a sequence of rounds; each round takes a fixed
number of entries from every stratum, so every round runs the same mix of
operations and sizes.  The run seed permutes each stratum's entries, and
rounds walk through the permutation, so a job list repeats no entry while
its rounds do not outnumber a stratum's entries; the seed also orders the
jobs within each round.  The seed never skips or
re-draws an entry whose reference outcome is a failure.  Each workload also
has one fixed warm-up job, the same for every seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("search", "obstruction", "catalogue")

LATTICES = {"square": [0.0, 1.0], "oblique": [0.3, 1.1]}
DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1))
SPHERE_HARMONICS = ("re_z", "im_z", "z_axis", "re_z2", "im_z2")

# search jobs: one trial of the criterion-10 shape (grid_n 96, mode budget 3,
# 100 Nelder-Mead evaluations); a criterion-10 run is four such trials and
# takes about 18 s, too long to repeat within a run
SEARCH_SHAPE = {"mode_budget": 3, "trials": 1, "evaluations": 100}
# the search warm-up pays the first-call cost with a tenth of the evaluations
SEARCH_WARMUP_SHAPE = {"mode_budget": 3, "trials": 1, "evaluations": 10}
SEARCH_GRID_N = 96
OBSTRUCTION_GRID_N = 64
UMBILICS_GRID_N = 128
SPHERE_GRID_N = 128
LOEWNER_ORDERS = (12, 16, 20, 24)
# entries per stratum in catalogue
VARIANTS = 2
# worker processes that run each job; a job's latency is its fastest repeat.
# The catalogue's ph-audit and loewner jobs (10-100 ms) are the most exposed
# to the host's sub-second jitter and cheap to repeat more often.
REPEATS = 3
SHORT_REPEATS = 7


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _complex(rng: random.Random, scale: float) -> list:
    return [scale * rng.gauss(0.0, 1.0), scale * rng.gauss(0.0, 1.0)]


def _torus(name: str) -> dict:
    return {"kind": "torus", "omega": list(LATTICES[name])}


def _generic_modes(rng: random.Random, budget: int = 3, scale: float = 0.06) -> dict:
    """Half-space Fourier modes of a generic real potential (isolated zeros)."""
    modes = {}
    for k in range(budget + 1):
        for j in range(-budget, budget + 1):
            if k == 0 and j <= 0:
                continue
            modes[f"{j},{k}"] = _complex(rng, scale)
    return modes


def _search(lattice: str, variant: int, shape: dict = SEARCH_SHAPE) -> dict:
    return {"surface": _torus(lattice), "metric": {"builtin": "constant"},
            "operation": "search",
            "numeric": {"grid_n": SEARCH_GRID_N, "seed": variant},
            "search": dict(shape)}


def _obstruction(lattice: str, jk, variant: int) -> dict:
    """Criterion-9 potential depending only on xi = j s + k t, with the
    constant direction that annihilates it."""
    rng = _rng("obstruction", lattice, *jk, variant)
    j0, k0 = jk
    modes = {f"{j0},{k0}": _complex(rng, 0.12), f"{2 * j0},{2 * k0}": _complex(rng, 0.04)}
    re, im = LATTICES[lattice]
    xi_y = (k0 - j0 * re) / im
    direction = [1.0, 0.0] if j0 == 0 else [-xi_y / j0, 1.0]
    return {"surface": _torus(lattice), "metric": {"modes": modes},
            "operation": "obstruction", "obstruction": {"direction": direction},
            "numeric": {"grid_n": OBSTRUCTION_GRID_N}}


def _torus_op(op: str, lattice: str, grid_n: int, variant: int) -> dict:
    rng = _rng(op, lattice, grid_n, variant)
    return {"surface": _torus(lattice), "metric": {"modes": _generic_modes(rng)},
            "operation": op, "numeric": {"grid_n": grid_n}}


def _sphere(degree: int, variant: int) -> dict:
    rng = _rng("ph-audit", degree, variant)
    harmonics = rng.sample(SPHERE_HARMONICS, 2)
    perts = [{"harmonic": h, "epsilon": rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.08)}
             for h in harmonics]
    return {"surface": {"kind": "sphere", "degree": degree, "perturbations": perts},
            "metric": {"builtin": "fs"}, "operation": "ph-audit",
            "numeric": {"grid_n": SPHERE_GRID_N}}


def _loewner(order: int, variant: int) -> dict:
    """g at the criterion-8 coefficient scale: complex normal coefficients
    through degree 10."""
    rng = _rng("loewner", order, variant)
    coeffs = {f"{k},{l}": _complex(rng, 1.0) for k in range(11) for l in range(11 - k)}
    return {"surface": _torus("square"), "metric": {"builtin": "constant"},
            "operation": "loewner", "loewner": {"g": {"coeffs": coeffs}, "order": order}}


def strata(workload: str) -> list:
    """[(stratum, draws per round, repeats, {job_id: config})]; every job of
    a stratum runs in `repeats` worker processes (see run.py)."""
    if workload == "search":
        return [(f"search/{lat}", 1, REPEATS,
                 {f"search/{lat}/seed{v}": _search(lat, v) for v in range(8)})
                for lat in LATTICES]
    if workload == "obstruction":
        return [(f"obstruction/{lat}/{j},{k}", 1, REPEATS,
                 {f"obstruction/{lat}/{j},{k}/v0": _obstruction(lat, (j, k), 0)})
                for lat in LATTICES for j, k in DIRECTIONS]
    if workload == "catalogue":
        out = [(f"invariant/n{n}/{lat}", 1, REPEATS,
                {f"invariant/n{n}/{lat}/v{v}": _torus_op("invariant", lat, n, v)
                 for v in range(VARIANTS)})
               for n in (128, 256) for lat in LATTICES]
        out += [(f"umbilics/{lat}", 1, REPEATS,
                 {f"umbilics/{lat}/v{v}": _torus_op("umbilics", lat, UMBILICS_GRID_N, v)
                  for v in range(VARIANTS)})
                for lat in LATTICES]
        out += [(f"ph-audit/degree{d}", 1, SHORT_REPEATS,
                 {f"ph-audit/degree{d}/v{v}": _sphere(d, v) for v in range(VARIANTS)})
                for d in (1, 2, 3)]
        out += [(f"loewner/order{N}", 1, SHORT_REPEATS,
                 {f"loewner/order{N}/v{v}": _loewner(N, v) for v in range(VARIANTS)})
                for N in LOEWNER_ORDERS]
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warmup(workload: str):
    """(job_id, config) of the workload's warm-up job, the same for every seed:
    the first pool entry of the first stratum, or for search a cut-down
    search (a full search job would take seconds to warm up)."""
    if workload == "search":
        return "search/warmup", _search("square", 0, SEARCH_WARMUP_SHAPE)
    entries = strata(workload)[0][3]
    jid = sorted(entries)[0]
    return jid, entries[jid]


def pool(workload: str) -> dict:
    """Every config the workload can draw, and its warm-up, keyed by job id."""
    out = {jid: cfg for *_, entries in strata(workload) for jid, cfg in entries.items()}
    jid, cfg = warmup(workload)
    out[jid] = cfg
    return out


def workers(workload: str) -> int:
    """Worker processes a run launches: the most repeats of any stratum."""
    return max(repeats for _, _, repeats, _ in strata(workload))


def rounds(workload: str, seed: int, count: int) -> list:
    """The first count rounds of the seed's job list, each a list
    [(job_id, config, repeats)] in the seed's order; the same seed gives
    the same rounds."""
    rng = _rng("perfbench", workload, seed)
    layout = [(draws, repeats, entries, rng.sample(sorted(entries), len(entries)))
              for _, draws, repeats, entries in strata(workload)]
    out = []
    for r in range(count):
        jobs = []
        for draws, repeats, entries, perm in layout:
            for i in range(draws):
                jid = perm[(r * draws + i) % len(perm)]
                jobs.append((jid, entries[jid], repeats))
        rng.shuffle(jobs)
        out.append(jobs)
    return out
