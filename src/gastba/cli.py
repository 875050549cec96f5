"""Command-line frontend with deterministic machine-readable output.

Commands: solve, charge, bec, fermi, profile, zeros, duality, kernel-check.
Reports are emitted as json (default) or csv with floats at 15 significant
digits, sorted keys, and "\n" newlines, so identical invocations are
byte-identical. Exit codes: 0 success, 2 usage error, 3 domain/numeric
failure (a structured error object goes to stderr).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import riemann, saddle, specfun, thermo
from .errors import DomainError, GasTbaError

_FLOAT_FMT = ".15g"


def _fmt_float(x: float) -> str:
    """x at 15 significant digits; nan, inf and -inf as those words."""
    return format(x, _FLOAT_FMT)


def _render_json(obj) -> str:
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{_render_json(obj[k])}" for k in sorted(obj)
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = _fmt_float(float(obj))
        return text if math.isfinite(obj) else f'"{text}"'
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _flatten(prefix: str, v, out: dict):
    if isinstance(v, dict):
        for k in sorted(v):
            _flatten(f"{prefix}.{k}", v[k], out)
    elif isinstance(v, (list, tuple)):
        for i, item in enumerate(v):
            _flatten(f"{prefix}_{i}", item, out)
    else:
        out[prefix] = v


def render_report(report: dict, fmt: str) -> str:
    """Deterministic serialization of a report object."""
    if fmt == "json":
        return _render_json(report) + "\n"
    if fmt != "csv":
        raise GasTbaError(f"unknown format {fmt!r}")
    rows = report.get("rows")
    if rows is not None:
        if not rows:
            return "\n"
        header = sorted(rows[0])
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(row[k]) for k in header))
        return "\n".join(lines) + "\n"
    flat: dict = {}
    for k in sorted(report):
        _flatten(k, report[k], flat)
    header = sorted(flat)
    return ",".join(header) + "\n" + ",".join(_csv_cell(flat[k]) for k in header) + "\n"


_STATISTICS = {"boson": saddle.BOSON, "fermion": saddle.FERMION}


def _statistics(name) -> int:
    if name not in _STATISTICS:
        raise DomainError(f"statistics must be 'boson' or 'fermion', got {name!r}")
    return _STATISTICS[name]


def _coupling_from_args(args, d: float) -> saddle.CouplingSpec:
    chosen = [
        (mode, getattr(args, attr))
        for mode, attr in (
            ("h_2d", "h"),
            ("h_T", "h_t"),
            ("scattering_length", "a"),
            ("gamma", "gamma_coupling"),
        )
        if getattr(args, attr, None) is not None
    ]
    if len(chosen) != 1:
        raise GasTbaError(
            "exactly one of --h, --h-t, --a, --gamma-coupling must be given"
        )
    mode, value = chosen[0]
    if mode == "h_2d" and d != 2:
        mode = "h_T"  # dimensionless h means h_T directly off d = 2
    return saddle.CouplingSpec(mode=mode, value=value, d=d)


def load_species_file(path: str) -> tuple[list[saddle.SpeciesSpec], np.ndarray]:
    """Parse the species file: a json document listing species and the
    symmetric coupling matrix h_ab (row-major flat list or nested rows).

    An unreadable file or a document without the "species" list, the
    "couplings" matrix or a statistics name per species raises GasTbaError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GasTbaError(f"cannot read species file {path!r}: {exc.strerror}") from exc
    if not (isinstance(doc, dict) and isinstance(doc.get("species"), list)
            and "couplings" in doc
            and all(isinstance(e, dict) and "statistics" in e for e in doc["species"])):
        raise GasTbaError(
            f"species file {path!r} needs a \"species\" list of objects with"
            " \"statistics\" and a \"couplings\" matrix"
        )
    species = []
    for entry in doc["species"]:
        species.append(
            saddle.SpeciesSpec(
                name=str(entry.get("name", f"species{len(species)}")),
                mass=float(entry.get("mass", 0.5)),
                statistics=_statistics(entry["statistics"]),
                z_mu=float(entry.get("z_mu", 1.0)),
            )
        )
    n = len(species)
    raw = doc["couplings"]
    mat = np.asarray(raw, dtype=float)
    if mat.ndim == 1:
        if mat.size != n * n:
            raise GasTbaError(f"couplings must hold {n*n} entries, got {mat.size}")
        mat = mat.reshape(n, n)
    if mat.shape != (n, n):
        raise GasTbaError(f"couplings must be {n}x{n}, got {mat.shape}")
    return species, mat


def _cmd_solve(args) -> dict:
    d = args.d
    sp = saddle.SpeciesSpec(
        mass=args.mass, statistics=_statistics(args.statistics), z_mu=args.z_mu
    )
    coupling = _coupling_from_args(args, d)
    sol = saddle.solve_delta_constant(d, sp, coupling, args.T)
    state = thermo.ThermoState(T=args.T, d=d, mass=args.mass)
    obs = thermo.observables_constant(sol, state, sp)
    report = {
        "d": d,
        "T": args.T,
        "statistics": args.statistics,
        "z_mu": args.z_mu,
        "delta": sol.delta,
        "z_delta": sol.z_delta,
        "residual": sol.residual,
        "n": obs.density,
        "free_energy": obs.free_energy,
        "pressure": obs.pressure,
    }
    if obs.central_charge is not None:
        report["c"] = obs.central_charge
    return report


def _cmd_charge(args) -> dict:
    if args.species:
        species, mat = load_species_file(args.species)
        sols = saddle.solve_2d_multispecies(species, mat)
    else:
        if args.h is None:
            raise GasTbaError("charge needs --species FILE or --statistics/--h")
        sp = saddle.SpeciesSpec(mass=args.mass, statistics=_statistics(args.statistics))
        if sp.statistics == saddle.BOSON:
            sols = [saddle.solve_2d_boson(args.h)]
        else:
            sols = [saddle.solve_2d_fermion(args.h)]
        species = [sp]
    c = thermo.central_charge(sols, species)
    return {
        "c": c,
        "z": [s.z_delta for s in sols],
        "delta": [s.delta for s in sols],
        "residual": max(s.residual for s in sols),
        "species": [sp.name for sp in species],
    }


def _cmd_bec(args) -> dict:
    d = args.d
    coupling = _coupling_from_args(args, d)
    state = thermo.ThermoState(T=args.T, d=d, mass=args.mass)
    rep = thermo.bec_critical(d, coupling, args.n_phys, state)
    return {
        "d": d,
        "T": args.T,
        "n_phys": args.n_phys,
        "mu_c": rep.mu_c,
        "n_c": rep.n_c,
        "T_c": rep.T_c,
        "F_c": rep.F_c,
    }


def _cmd_fermi(args) -> dict:
    omega_f = thermo.fermi_energy(args.d, args.n, args.T, args.mass)
    return {
        "d": args.d,
        "n": args.n,
        "T": args.T,
        "omega_F": omega_f,
        "beta_omega_F": omega_f / args.T,
        "omega_F_zero_T": thermo.fermi_energy_zero_temperature(args.d, args.n, args.mass),
    }


def _cmd_profile(args) -> dict:
    nu = complex(args.nu_re, args.nu_im)
    cfg = saddle.SolverConfig(
        tol=args.tol,
        grid_points=args.grid_points,
        k_max_sigmas=args.k_max_sigmas,
    )
    prof = saddle.solve_profile_quasiperiodic(nu, args.T, cfg=cfg)
    f = prof.occupancy()
    rows = [
        {"k": float(k), "epsilon": float(e), "f": float(ff)}
        for k, e, ff in zip(prof.nodes, prof.epsilon, f)
    ]
    return {
        "nu_re": args.nu_re,
        "nu_im": args.nu_im,
        "T": args.T,
        "kernel": prof.kernel_id,
        "rows": rows,
    }


def _cmd_zeros(args) -> dict:
    cands = riemann.find_zeros(args.sigma, args.t_min, args.t_max)
    rows = [
        {
            "sigma": complex(c.nu).real,
            "t": complex(c.nu).imag,
            "abs_g": c.abs_g,
            "abs_zeta": c.abs_zeta,
            "refined": c.refined,
        }
        for c in cands
    ]
    return {
        "sigma": args.sigma,
        "t_min": args.t_min,
        "t_max": args.t_max,
        "count": len(rows),
        "turing_count": len(rows) if args.sigma == 0.5 else None,
        "rows": rows,
    }


def _cmd_duality(args) -> dict:
    nu = complex(args.nu_re, args.nu_im)
    return {
        "nu_re": args.nu_re,
        "nu_im": args.nu_im,
        "residual": riemann.check_duality(nu),
    }


def _cmd_kernel_check(args) -> dict:
    nu = complex(args.nu_re, args.nu_im)
    spec = riemann.make_kernel_spec(nu)
    closed = riemann.kernel_closed_form(spec, args.k)
    from_pot = riemann.kernel_from_potential(spec, args.k)
    lhs = specfun.sinpi(nu) * specfun.gamma(1.0 - 2.0 * nu) * specfun.gamma(nu)
    rhs = math.sqrt(math.pi) * 2.0 ** (-2.0 * nu) * specfun.gamma(0.5 - nu)
    return {
        "nu_re": args.nu_re,
        "nu_im": args.nu_im,
        "k": args.k,
        "closed_form": closed,
        "from_potential": from_pot,
        "rel_difference": abs(closed - from_pot) / max(abs(closed), 1e-300),
        "gamma_identity_residual": abs(lhs - rhs) / abs(rhs),
    }


_DISPATCH = {
    "solve": _cmd_solve,
    "charge": _cmd_charge,
    "bec": _cmd_bec,
    "fermi": _cmd_fermi,
    "profile": _cmd_profile,
    "zeros": _cmd_zeros,
    "duality": _cmd_duality,
    "kernel-check": _cmd_kernel_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gastba",
        description="Finite-temperature interacting Bose/Fermi gas solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write the report to this path")

    def coupling_flags(p):
        p.add_argument("--h", type=float, default=None,
                       help="dimensionless coupling (2d, or h_T directly)")
        p.add_argument("--h-t", type=float, default=None, dest="h_t",
                       help="thermal coupling h_T")
        p.add_argument("--a", type=float, default=None, help="scattering length")
        p.add_argument("--gamma-coupling", type=float, default=None,
                       help="delta-potential strength (energy*volume)")

    p = sub.add_parser("solve", help="constant-kernel saddle point and observables")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--statistics", choices=("boson", "fermion"), required=True)
    p.add_argument("--z-mu", type=float, default=1.0, dest="z_mu")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=0.5)
    coupling_flags(p)
    common(p)

    p = sub.add_parser("charge", help="2d central charge")
    p.add_argument("--species", default=None, help="species json file")
    p.add_argument("--statistics", choices=("boson", "fermion"), default="boson")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--mass", type=float, default=0.5)
    common(p)

    p = sub.add_parser("bec", help="Bose-Einstein criticality (d > 2)")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--n-phys", type=float, default=1.0, dest="n_phys")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=0.5)
    coupling_flags(p)
    common(p)

    p = sub.add_parser("fermi", help="Fermi energy from density and temperature")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--mass", type=float, default=0.5)
    common(p)

    p = sub.add_parser("profile", help="pseudo-energy profile for the quasi-periodic kernel")
    p.add_argument("--nu-re", type=float, required=True, dest="nu_re")
    p.add_argument("--nu-im", type=float, default=0.0, dest="nu_im")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--grid-points", type=int, default=512, dest="grid_points")
    p.add_argument("--k-max-sigmas", type=float, default=2.0, dest="k_max_sigmas")
    p.add_argument("--tol", type=float, default=None)
    common(p)

    p = sub.add_parser("zeros", help="scan a fixed-sigma line for zeta zeros")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t-min", type=float, required=True, dest="t_min")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    common(p)

    p = sub.add_parser("duality", help="xi(nu) = xi(1-nu) residual")
    p.add_argument("--nu-re", type=float, required=True, dest="nu_re")
    p.add_argument("--nu-im", type=float, default=0.0, dest="nu_im")
    common(p)

    p = sub.add_parser("kernel-check", help="closed-form vs potential-route kernel")
    p.add_argument("--nu-re", type=float, required=True, dest="nu_re")
    p.add_argument("--nu-im", type=float, default=0.0, dest="nu_im")
    p.add_argument("--k", type=float, default=1.0)
    common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _DISPATCH[args.command](args)
        payload = render_report(report, args.format)
    except (GasTbaError, ValueError, OverflowError, FloatingPointError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(_render_json(err) + "\n")
        return 3
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except OSError as exc:
        err = {"error": {"type": "IoError", "message": str(exc)}}
        sys.stderr.write(_render_json(err) + "\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
