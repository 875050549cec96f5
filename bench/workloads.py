"""Seeded inputs and the operations of each workload.

A run repeats rounds. Every round of a workload has the same fixed list of
operation slots; each slot draws fresh inputs from its own range for every
round, from a generator seeded by (workload, seed, round). The program sees
only these generated inputs. Operations marked `known_fault` have inputs that
do not depend on the seed and fail their check because of a fault in the
program (see README.md); every round holds the same number of them.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

DT = 0.02  # ScanConfig.dt, the zero scanner's default grid step
WINDOW = 5.0  # length of every zero-scan window
T_LO, T_HI = 10.0, 350.0
# Zeros on the critical line that find_zeros misses on its default grid
# (t = 10 + j*DT): near them |eta'| > 5, so the nearest grid point's |eta|
# lies above flag_threshold = 0.05.
MISSED_ZEROS = (121.3701, 158.850, 161.189, 187.229, 211.691,
                241.049, 258.610, 269.970, 301.649, 310.110)
ZERO_TEMPERATURES = (0.1, 1.0, 10.0)
# Deep Fermi sea of acceptance criterion 10: nu = 0.9, T = 0.05. The grid is
# sized from the constant-shift root delta = -84898.28 (mpmath; the checks
# recompute it) exactly as criterion 10 sizes it from the solver's root.
DEEP_NU, DEEP_T, DEEP_DELTA, DEEP_TOL = 0.9, 0.05, -84898.28, 1e-8
DEEP_BRACKET, DEEP_BRACKET_POINTS = (-2e5, 1.0), 400


@dataclass
class Op:
    kind: str
    args: dict
    known_fault: bool = False
    result: object = None
    error: str | None = None
    seconds: float = 0.0
    start: float = 0.0
    factor: float = 1.0
    extra: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


def deep_sea_profile_args(n: int) -> dict:
    k_edge = math.sqrt(DEEP_T * abs(DEEP_DELTA))
    sigmas = 20.0 * k_edge / math.sqrt(DEEP_T * math.log(1.0 / DEEP_TOL))
    return {"nu": DEEP_NU, "T": DEEP_T, "grid_points": n, "tol": DEEP_TOL,
            "k_max_sigmas": sigmas, "max_iter": 4000, "damping": 0.8}


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def sweep_round(seed: int, rnd: int) -> list[Op]:
    g = _rng("sweep", seed, rnd)
    u = g.uniform
    ops = [Op("2d", {"h_b": u(0.2, 3.0), "h_f": u(-0.5, 2.0)})]
    for d in (1, 2, 3):
        ops.append(Op("const", {"d": d, "s": 1, "z_mu": u(0.2, 0.9),
                                "h": u(0.1, 1.0), "T": u(0.5, 2.0)}))
    ops.append(Op("fermi_energy", {"d": g.choice((1, 2, 3)), "n": u(0.1, 2.0),
                                   "T": u(0.1, 2.0)}))
    t = u(0.5, 2.0)
    ops.append(Op("consistency", {"d": g.choice((1, 2, 3)), "s": 1, "h": u(0.1, 0.8),
                                  "T": t, "mu0": u(-1.5, -0.5) * t, "points": 3}))
    for d in (1, 2, 3, 1, 2, 3):
        ops.append(Op("const", {"d": d, "s": -1, "z_mu": u(0.3, 3.0),
                                "h": u(0.1, 1.0), "T": u(0.5, 2.0)}))
    ops.append(Op("quasi", {"nu": DEEP_NU, "T": DEEP_T, "bracket": DEEP_BRACKET,
                            "points": DEEP_BRACKET_POINTS}, known_fault=True))
    t = u(0.5, 2.0)
    ops.append(Op("consistency", {"d": g.choice((1, 2, 3)), "s": -1, "h": u(0.1, 0.8),
                                  "T": t, "mu0": u(-0.5, 0.5) * t, "points": 5}))
    for _ in range(2):
        ops.append(Op("quasi", {"nu": u(1.05, 1.45), "T": u(0.05, 0.5),
                                "bracket": None, "points": None}))
    ops.append(Op("quasi", {"nu": complex(u(1.05, 1.4), u(1.0, 4.0)), "T": u(0.05, 0.5),
                            "bracket": None, "points": 600}))
    return ops


def run_sweep_op(op: Op):
    import numpy as np

    from gastba import saddle, thermo

    a = op.args
    if op.kind == "2d":
        boson = saddle.SpeciesSpec(statistics=saddle.BOSON)
        fermion = saddle.SpeciesSpec(statistics=saddle.FERMION)
        sb = saddle.solve_2d_boson(a["h_b"])
        sf = saddle.solve_2d_fermion(a["h_f"])
        one = saddle.solve_2d_boson(1.0)
        pair_species = [saddle.SpeciesSpec(name="b", statistics=saddle.BOSON),
                        saddle.SpeciesSpec(name="f", statistics=saddle.FERMION)]
        pair = saddle.solve_2d_multispecies(pair_species, np.ones((2, 2)))
        return {
            "z_b": sb.z_delta, "c_b": thermo.central_charge([sb], [boson]),
            "z_f": sf.z_delta, "c_f": thermo.central_charge([sf], [fermion]),
            "z_one": one.z_delta, "c_one": thermo.central_charge([one], [boson]),
            "z_pair": [s.z_delta for s in pair],
            "c_pair": thermo.central_charge(pair, pair_species),
        }
    if op.kind == "const":
        sp = saddle.SpeciesSpec(statistics=a["s"], z_mu=a["z_mu"])
        coupling = saddle.CouplingSpec(mode="h_T", value=a["h"], d=a["d"])
        sol = saddle.solve_delta_constant(a["d"], sp, coupling, a["T"])
        obs = thermo.observables_constant(sol, thermo.ThermoState(T=a["T"], d=a["d"]), sp)
        return {"delta": sol.delta, "n": obs.density}
    if op.kind == "fermi_energy":
        return {"omega_F": thermo.fermi_energy(a["d"], a["n"], a["T"])}
    if op.kind == "consistency":
        sp = saddle.SpeciesSpec(statistics=a["s"])
        coupling = saddle.CouplingSpec(mode="h_T", value=a["h"], d=a["d"])
        grid = a["mu0"] + 1e-3 * np.arange(a["points"])
        return {"worst": thermo.thermodynamic_consistency(sp, coupling, a["d"], a["T"], grid)}
    if op.kind == "quasi":
        kw = {}
        if a["bracket"] is not None:
            kw["delta_bracket"] = a["bracket"]
        if a["points"] is not None:
            kw["bracket_points"] = a["points"]
        sol = saddle.solve_delta_quasi(a["nu"], a["T"], saddle.SolverConfig(**kw))
        return {"delta": sol.delta}
    raise ValueError(op.kind)


# --------------------------------------------------------------------------
# zero-scan
# --------------------------------------------------------------------------


def _clean_window(start: float, zeros: list[float]) -> bool:
    """No zero within 0.05 of either edge and no missed zero inside."""
    end = start + WINDOW
    for z in zeros:
        if abs(z - start) < 0.05 or abs(z - end) < 0.05:
            return False
    return True


def _contains_missed(start: float) -> bool:
    return any(start - 0.1 <= m <= start + WINDOW + 0.1 for m in MISSED_ZEROS)


def _grid(j: int) -> float:
    return T_LO + j * DT


def window_args(start: float) -> dict:
    # t_max a hair short of start + WINDOW keeps find_zeros' linspace on the
    # global grid t = 10 + j*DT (ceil((t_max - t_min)/dt) = WINDOW/DT exactly)
    return {"t_min": start, "t_max": start + WINDOW - 1e-9}


def fixed_missed_windows(zeros: list[float]) -> list[float]:
    """One window per missed zero, on the grid, near-centred, edges clean."""
    starts = []
    for m in MISSED_ZEROS:
        j = round((m - WINDOW / 2 - T_LO) / DT)
        while not _clean_window(_grid(j), zeros):
            j += 1
        starts.append(_grid(j))
    return starts


def zero_scan_round(seed: int, rnd: int, zeros: list[float], strata: int = 30) -> list[Op]:
    g = _rng("zero-scan", seed, rnd)
    span = (T_HI - WINDOW - T_LO) / strata
    ops = []
    for s in range(strata):
        lo = T_LO + s * span
        j_lo = math.ceil((lo - T_LO) / DT)
        j_hi = math.floor((lo + span - T_LO) / DT)
        allowed = [j for j in range(j_lo, j_hi + 1)
                   if _clean_window(_grid(j), zeros) and not _contains_missed(_grid(j))]
        ops.append(Op("window", window_args(_grid(g.choice(allowed)))))
    for start in fixed_missed_windows(zeros):
        ops.append(Op("window", window_args(start), known_fault=True))
    return ops


def run_window(op: Op):
    from gastba import riemann

    cands = riemann.find_zeros(0.5, op.args["t_min"], op.args["t_max"])
    rows = []
    for c in cands:
        row = {"t": complex(c.nu).imag, "refined": c.refined, "abs_g": c.abs_g}
        if c.refined:
            row["vzd"] = riemann.verify_zero_delta(c, ZERO_TEMPERATURES)
            row["duality"] = riemann.check_duality(c.nu)
        rows.append(row)
    return {"candidates": rows}


# --------------------------------------------------------------------------
# profile
# --------------------------------------------------------------------------


def profile_round(seed: int, rnd: int) -> list[Op]:
    g = _rng("profile", seed, rnd)
    u = g.uniform
    # The complex order stays at 1.1+3i: near it some orders need more than
    # the default 400 damped steps (see CHANGES.md), which would make failures
    # depend on the seed. At N = 1024 it runs twice, so that the two slowest
    # slots below the N = 2048 solve cost about the same and op_tail_ms falls
    # between like operations.
    cases = [(512, 1.4 + u(-0.05, 0.05)), (512, 1.2 + u(-0.05, 0.05)),
             (512, complex(1.1, 3.0)), (1024, 1.4 + u(-0.05, 0.05)),
             (1024, 1.2 + u(-0.05, 0.05)), (1024, complex(1.1, 3.0)),
             (1024, complex(1.1, 3.0))]
    ops = [Op("profile", {"nu": nu, "T": u(0.05, 0.2), "grid_points": n, "tol": None,
                          "k_max_sigmas": 2.0, "max_iter": 400, "damping": 0.5})
           for n, nu in cases]
    ops.append(Op("profile", deep_sea_profile_args(2048), extra={"deep": True}))
    return ops


def run_profile_op(op: Op):
    from gastba import saddle

    a = op.args
    cfg = saddle.SolverConfig(tol=a["tol"], grid_points=a["grid_points"],
                              k_max_sigmas=a["k_max_sigmas"], max_iter=a["max_iter"],
                              damping=a["damping"])
    return saddle.solve_profile_quasiperiodic(a["nu"], a["T"], cfg=cfg)


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

SUSY_SPECIES = {
    "species": [
        {"name": "b", "mass": 0.5, "statistics": "boson", "z_mu": 1.0},
        {"name": "f", "mass": 0.5, "statistics": "fermion", "z_mu": 1.0},
    ],
    "couplings": [1.0, 1.0, 1.0, 1.0],
}


def write_species_file(path) -> None:
    path.write_text(json.dumps(SUSY_SPECIES), encoding="utf-8")


def _f(x: float) -> str:
    return f"{x:.6g}"


def cli_round(seed: int, rnd: int, zeros: list[float], species_path: str) -> list[Op]:
    g = _rng("cli", seed, rnd)
    u = g.uniform
    stat = g.choice(("boson", "fermion"))
    z_mu = u(0.2, 0.9) if stat == "boson" else u(0.3, 3.0)
    solve = ["solve", "--d", str(g.choice((1, 2, 3))), "--statistics", stat,
             "--z-mu", _f(z_mu), "--T", _f(u(0.5, 2.0)), "--h-t", _f(u(0.1, 1.0))]
    h_stat = g.choice(("boson", "fermion"))
    h = u(0.2, 3.0) if h_stat == "boson" else u(-0.5, 2.0)
    starts = [j for j in range(0, round((60.0 - T_LO) / DT))
              if _clean_window(_grid(j), zeros) and not _contains_missed(_grid(j))]
    start = _grid(g.choice(starts))
    argvs = [
        solve,
        ["charge", "--statistics", h_stat, "--h", _f(h)],
        ["charge", "--species", species_path],
        ["bec", "--d", "3", "--n-phys", _f(u(0.2, 2.0)), "--T", _f(u(0.5, 2.0)),
         "--h-t", _f(u(0.1, 1.0))],
        ["fermi", "--d", str(g.choice((1, 2, 3))), "--n", _f(u(0.1, 2.0)),
         "--T", _f(u(0.1, 2.0))],
        ["zeros", "--sigma", "0.5", "--t-min", repr(start),
         "--t-max", repr(start + WINDOW - 1e-9)],
        ["duality", "--nu-re", _f(u(0.1, 0.9)), "--nu-im", _f(u(1.0, 30.0))],
        ["kernel-check", "--nu-re", _f(u(0.6, 1.4)), "--nu-im", _f(u(0.0, 2.0)),
         "--k", _f(u(0.5, 2.0))],
        ["profile", "--nu-re", _f(1.4 + u(-0.05, 0.05)), "--T", _f(u(0.05, 0.2)),
         "--grid-points", "512", "--format", "csv"],
        list(solve),  # repeated call: its stdout must be byte-identical
    ]
    ops = [Op("cli", {"argv": argv}) for argv in argvs]
    ops[-1].extra["repeat_of"] = 0
    return ops
