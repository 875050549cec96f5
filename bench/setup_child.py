"""One set-up of a benchmark workload in a fresh interpreter.

Imports gastba and gastba.cli, makes one cheap warm-up call per operation
kind of the workload, and prints time.monotonic() at the end. The parent
subtracts the monotonic time at which it spawned this process (the clock is
shared between processes), which gives setup_s.

Usage: python3 bench/setup_child.py WORKLOAD   (with src/ on PYTHONPATH)
"""
import contextlib
import io
import sys
import time

import numpy as np

import gastba
import gastba.cli
from gastba import cli, riemann, saddle, thermo

from workloads import deep_sea_profile_args


def warm_sweep():
    cfg = saddle.SolverConfig(bracket_points=320)
    boson = saddle.SpeciesSpec(statistics=saddle.BOSON, z_mu=0.5)
    fermion = saddle.SpeciesSpec(statistics=saddle.FERMION, z_mu=2.0)
    pair = [saddle.SpeciesSpec(name="b", statistics=saddle.BOSON),
            saddle.SpeciesSpec(name="f", statistics=saddle.FERMION)]
    sol = saddle.solve_2d_boson(1.0)
    thermo.central_charge([sol], [boson])
    saddle.solve_2d_fermion(0.5)
    saddle.solve_2d_multispecies(pair, np.ones((2, 2)))
    for d, sp in ((3, boson), (1, fermion)):
        coupling = saddle.CouplingSpec(mode="h_T", value=0.5, d=d)
        sol = saddle.solve_delta_constant(d, sp, coupling, 1.0, cfg)
        thermo.observables_constant(sol, thermo.ThermoState(T=1.0, d=d), sp)
    thermo.fermi_energy(3, 1.0, 0.5)
    thermo.thermodynamic_consistency(
        saddle.SpeciesSpec(statistics=saddle.BOSON),
        saddle.CouplingSpec(mode="h_T", value=0.3, d=3), 3, 1.0,
        -1.0 + 1e-3 * np.arange(3), cfg)
    few = saddle.SolverConfig(bracket_points=40)
    saddle.solve_delta_quasi(1.4, 0.1, few)
    saddle.solve_delta_quasi(complex(1.2, 2.0), 0.1, few)


def warm_zero_scan():
    (zero,) = riemann.find_zeros(0.5, 14.0, 14.5)
    riemann.verify_zero_delta(zero, (0.1, 1.0, 10.0))
    riemann.check_duality(zero.nu)


def warm_profile():
    saddle.solve_profile_quasiperiodic(1.4, 0.1, cfg=saddle.SolverConfig(grid_points=64))
    a = deep_sea_profile_args(128)
    cfg = saddle.SolverConfig(tol=a["tol"], grid_points=a["grid_points"],
                              k_max_sigmas=a["k_max_sigmas"], max_iter=a["max_iter"],
                              damping=a["damping"])
    saddle.solve_profile_quasiperiodic(a["nu"], a["T"], cfg=cfg)


def warm_cli():
    argvs = [
        ["solve", "--d", "3", "--statistics", "boson", "--z-mu", "0.5", "--h-t", "0.5"],
        ["charge", "--statistics", "boson", "--h", "1"],
        ["bec", "--d", "3", "--h-t", "0.5"],
        ["fermi", "--d", "3", "--n", "1", "--T", "0.5"],
        ["zeros", "--sigma", "0.5", "--t-min", "14", "--t-max", "14.5"],
        ["duality", "--nu-re", "0.3", "--nu-im", "5"],
        ["kernel-check", "--nu-re", "0.8", "--nu-im", "1", "--k", "1"],
        ["profile", "--nu-re", "1.4", "--T", "0.1", "--grid-points", "64", "--format", "csv"],
    ]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up call failed: {argv}")


WARM = {"sweep": warm_sweep, "zero-scan": warm_zero_scan,
        "profile": warm_profile, "cli": warm_cli}

if __name__ == "__main__":
    WARM[sys.argv[1]]()
    print(repr(time.monotonic()))
