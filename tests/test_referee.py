"""The pipeline's r = Pu against the direct mode sums of
:func:`_oracles.direct_r`, which share no grid, transform, product or field
class with it: on generic fields, on symmetric ones, on the benchmark pools'
umbilics and obstruction configs and on the numeric fuzz configs of those
operations that complete.  The bound, 1e-12 of sup|r|, was fixed before any
of these was measured."""

import numpy as np
import pytest

from umbilic.cartan import cartan_r
from umbilic.cli import parse_config, run
from umbilic.errors import UmbilicError, UnderResolved
from umbilic.field import TorusLattice
from umbilic.index import torus_umbilics
from umbilic.torussearch import TrigPotential, symmetric_obstruction_check

from _oracles import benchmark_pool, direct_r, fuzz_jobs, one_directional, random_half_modes

BOUND = 1e-12
N = 128
LATTICES = [TorusLattice(1j), TorusLattice(0.3 + 1.1j)]
GENERIC = [(lat, seed, budget) for lat in LATTICES for seed in range(3) for budget in (1, 2, 3)]
GENERIC_IDS = [f"{lat.omega}-s{seed}-b{budget}" for lat, seed, budget in GENERIC]


def generic(lattice, seed, budget):
    pot = TrigPotential.from_half_modes(lattice, random_half_modes(seed, budget, scale=0.1))
    return pot, cartan_r(pot.to_field(N), "p_form")


def random_points(lattice, seed, count=200):
    return lattice.st_to_z(*np.random.default_rng(seed).random((2, count)))


@pytest.mark.parametrize("lattice, seed, budget", GENERIC, ids=GENERIC_IDS)
def test_interpolant_of_r_matches_direct_sums(lattice, seed, budget):
    pot, r = generic(lattice, seed, budget)
    z = random_points(lattice, seed)
    err = np.max(np.abs(r.evaluate_at(z) - direct_r(pot.modes, lattice.omega, z)))
    assert err <= BOUND * r.sup_norm()


@pytest.mark.parametrize("lattice, seed, budget", GENERIC, ids=GENERIC_IDS)
def test_umbilic_records_are_zeros_of_direct_sums(lattice, seed, budget):
    pot, r = generic(lattice, seed, budget)
    records, _, _ = torus_umbilics(pot.to_field(N))
    assert records
    z0 = np.array([rec.z0 for rec in records])
    assert np.max(np.abs(direct_r(pot.modes, lattice.omega, z0))) <= BOUND * r.sup_norm()


def obstruction_cases():
    rng = np.random.default_rng(4242)
    for lat in LATTICES:
        for jk in ((1, 0), (0, 1), (1, 1), (1, -1)):
            profile = {1: 0.12 * (rng.normal() + 1j * rng.normal()),
                       2: 0.04 * (rng.normal() + 1j * rng.normal())}
            yield one_directional(lat, jk, profile)


@pytest.mark.parametrize("pot, Y", list(obstruction_cases()))
def test_obstruction_curves_are_zeros_of_direct_sums(pot, Y):
    rep = symmetric_obstruction_check(pot, Y, grid_n=N)
    (j0, k0), theta = rep.curve_line, np.array(rep.curve_offsets)
    assert theta.size
    w = theta / (j0 * j0 + k0 * k0)
    z = pot.lattice.st_to_z(w * j0, w * k0)
    sup = cartan_r(pot.to_field(N), "p_form").sup_norm()
    assert np.max(np.abs(direct_r(pot.modes, pot.lattice.omega, z))) <= BOUND * sup


REFEREED = ("umbilics", "obstruction")
POOL = {job: cfg for workload in ("catalogue", "obstruction")
        for job, cfg in benchmark_pool(workload).items() if cfg["operation"] in REFEREED}


def reported_zeros_residual(cfg) -> float:
    """max |r| by direct sums over the zeros a torus umbilics or obstruction
    run reports (record points, or curve points on the curve line), over
    sup|r| on its grid."""
    inputs = parse_config(cfg)[1]
    pot = inputs["potential"]
    res = run(cfg)["results"]
    if cfg["operation"] == "umbilics":
        z = np.array([complex(*rec["z0"]) for rec in res["records"]])
    else:
        (j0, k0), theta = res["curve_line"], np.array(res["curve_offsets"])
        w = theta / (j0 * j0 + k0 * k0)
        z = pot.lattice.st_to_z(w * j0, w * k0)
    sup = cartan_r(pot.to_field(inputs["grid_n"]), "p_form").sup_norm()
    return np.max(np.abs(direct_r(pot.modes, pot.lattice.omega, z)), initial=0.0) / sup


@pytest.mark.parametrize("cfg", POOL.values(), ids=POOL)
def test_pool_zeros_are_zeros_of_direct_sums(cfg):
    assert reported_zeros_residual(cfg) <= BOUND


def test_fuzz_zeros_are_zeros_of_direct_sums():
    # the torus fuzz configs of test_cli that complete
    checked = 0
    for kind, op, cfg in fuzz_jobs():
        if kind != "torus" or op not in REFEREED:
            continue
        cfg = dict(cfg, operation=op)
        try:
            with np.errstate(all="ignore"):
                residual = reported_zeros_residual(cfg)
        except UmbilicError:
            continue
        assert residual <= BOUND, cfg
        checked += 1
    assert checked


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="cartan_r's resolution gate weighs u's energy above n/6, so a "
                          "1e-5 mode at 130 passes it and r is truncated (4.0e-5 of sup|r|)")
def test_resolution_gate_raises_or_r_matches_direct_sums():
    lattice = TorusLattice(1j)
    pot = TrigPotential.from_half_modes(lattice, {(1, 0): 0.1 + 0.05j, (130, 0): 1e-5})
    try:
        r = cartan_r(pot.to_field(392), "p_form")
    except UnderResolved:
        return
    z = random_points(lattice, 0)
    err = np.max(np.abs(r.evaluate_at(z) - direct_r(pot.modes, lattice.omega, z)))
    assert err <= BOUND * r.sup_norm()
