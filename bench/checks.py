"""Correctness checks made apart from the program.

Each `check_*` function takes an operation with its result and returns a list
of problems; an empty list means the output is correct. Reference values come
from mpmath at 20 digits, from closed forms, or from properties the method
must have. Where a check accepts a residual up to the program's own stated
noise floor, that floor is the one the program applies to itself: the solver
tolerance, or ten times the propagated polylog error estimate that
`solve_delta_quasi` uses.
"""
from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp
import numpy as np

from workloads import DEEP_DELTA, DEEP_NU, DEEP_T, ZERO_TEMPERATURES

mp.mp.dps = 20

SOLVER_TOL = 1e-10  # default tolerance of the constant, quasi and profile solvers
CONSISTENCY_TOL = 1e-5  # acceptance criterion 8's bound on |dF/dmu + n|/n
ZERO_MATCH = 1e-9
DENSITY_RTOL = 1e-9
CLOSED_FORM_TOL = 1e-11


def _t_tilde(T: float, mass: float = 0.5) -> float:
    return mass * T / (2.0 * math.pi)


def _mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _rogers(z) -> mp.mpf:
    """Rogers dilogarithm L(z) = Li2(z) + log|z| log(1 - z)/2 for z <= 1."""
    z = mp.mpf(z)
    return mp.re(mp.polylog(2, z)) + mp.log(abs(z)) * mp.log(1 - z) / 2


def _close(got, want, tol, what) -> list[str]:
    if not math.isfinite(got) or abs(got - float(want)) > tol * max(1.0, abs(float(want))):
        return [f"{what}: got {got!r}, want {float(want)!r} (tol {tol:g})"]
    return []


def _quasi_shift_residual(nu, T: float):
    """d -> d + Re[T**(nu-1) h_nu Li_nu(-e**-d)], h_nu = 1/(2 pi (1 - 2**(1-nu)))."""
    nu = _mpc(nu)
    pref = mp.power(T, nu - 1) / (2 * mp.pi * (1 - mp.power(2, 1 - nu)))
    return lambda d: d + mp.re(pref * mp.polylog(nu, -mp.exp(-d)))


def quasi_residual(nu, T: float, delta: float) -> float:
    return float(abs(_quasi_shift_residual(nu, T)(mp.mpf(delta))))


def quasi_root(nu, T: float, guess: float) -> float:
    """Root of the quasi-periodic shift equation, by mpmath."""
    return float(mp.findroot(_quasi_shift_residual(nu, T), mp.mpf(guess)))


def constant_residual(d, s, z_mu, h, delta) -> float:
    """|delta - s h Li_{d/2}(s z_mu e**-delta)|."""
    arg = s * mp.mpf(z_mu) * mp.exp(-mp.mpf(delta))
    return float(abs(delta - s * h * mp.re(mp.polylog(mp.mpf(d) / 2, arg))))


def density(d, s, z_mu, T, delta) -> float:
    u = mp.mpf(z_mu) * mp.exp(-mp.mpf(delta))
    li = mp.re(mp.polylog(mp.mpf(d) / 2, s * u))
    return float(s * mp.power(_t_tilde(T), mp.mpf(d) / 2) * li)


def _noise_floor(kind: str, nu, x: float, pref: float) -> float:
    """Ten times the program's propagated polylog error estimate, times |pref|."""
    from gastba import specfun

    if kind == "series":
        est = specfun.polylog_series_eval(nu, x).abs_error_estimate
    else:
        est = specfun.polylog_neg_exp_eval(nu, x).abs_error_estimate
    return max(SOLVER_TOL, 10.0 * abs(pref) * est)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def check_constant(d, s, z_mu, h, T, delta, n) -> list[str]:
    problems = []
    res = constant_residual(d, s, z_mu, h, delta)
    if s > 0:
        floor = _noise_floor("series", d / 2.0, z_mu * math.exp(-delta), h)
    else:
        floor = _noise_floor("neg_exp", d / 2.0, math.log(z_mu) - delta, h)
    if not res <= floor:
        problems.append(f"constant shift residual {res:.3e} above noise floor {floor:.3e}")
    problems += _close(n, density(d, s, z_mu, T, delta), DENSITY_RTOL, "density")
    return problems


def check_2d(a, r) -> list[str]:
    p = []
    zb, hb = r["z_b"], a["h_b"]
    p += _close(zb - (1.0 - zb) ** hb, 0.0, 1e-12, "boson fixed point")
    p += _close(r["c_b"], 6 / mp.pi**2 * _rogers(zb), CLOSED_FORM_TOL, "boson c")
    zf, hf = r["z_f"], a["h_f"]
    p += _close(zf - (1.0 + zf) ** (-hf), 0.0, 1e-12, "fermion fixed point")
    p += _close(r["c_f"], -6 / mp.pi**2 * _rogers(-zf), CLOSED_FORM_TOL, "fermion c")
    p += _close(r["z_one"], 0.5, CLOSED_FORM_TOL, "z at h = 1")
    p += _close(r["c_one"], 0.5, CLOSED_FORM_TOL, "c at h = 1")
    for z in r["z_pair"]:
        p += _close(z, math.sqrt(2.0) - 1.0, CLOSED_FORM_TOL, "mixed pair z")
    p += _close(r["c_pair"], 0.75, CLOSED_FORM_TOL, "mixed pair c")
    return p


def check_sweep(op) -> list[str]:
    a, r = op.args, op.result
    if op.kind == "2d":
        return check_2d(a, r)
    if op.kind == "const":
        return check_constant(a["d"], a["s"], a["z_mu"], a["h"], a["T"], r["delta"], r["n"])
    if op.kind == "fermi_energy":
        n = -mp.power(_t_tilde(a["T"]), mp.mpf(a["d"]) / 2) * mp.re(
            mp.polylog(mp.mpf(a["d"]) / 2, -mp.exp(mp.mpf(r["omega_F"]) / a["T"])))
        return _close(float(n) / a["n"], 1.0, DENSITY_RTOL, "density at omega_F")
    if op.kind == "consistency":
        if not r["worst"] < CONSISTENCY_TOL:
            return [f"|dF/dmu + n|/n = {r['worst']:.3e} above {CONSISTENCY_TOL:g}"]
        return []
    if op.kind == "quasi":
        nu, T, delta = a["nu"], a["T"], r["delta"]
        res = quasi_residual(nu, T, delta)
        from gastba import riemann

        pref = abs(complex(T ** (complex(nu) - 1.0)) * riemann.quasi_coupling(nu))
        floor = _noise_floor("neg_exp", nu, -delta, pref)
        if not res <= floor:
            return [f"quasi shift residual {res:.3e} above noise floor {floor:.3e} "
                    f"(delta = {delta!r})"]
        return []
    return [f"unknown kind {op.kind}"]


# --------------------------------------------------------------------------
# zero-scan
# --------------------------------------------------------------------------


def check_zero_rows(t_min, t_max, rows, zeros) -> list[str]:
    """Refined zeros equal mpmath's within ZERO_MATCH, one for one, and the
    identities at each zero stay at the |zeta| and round-off scale."""
    p = []
    inside = [z for z in zeros if t_min <= z <= t_max]
    refined = [row for row in rows if row["refined"]]
    matched = set()
    for row in refined:
        t = row["t"]
        best = min(range(len(zeros)), key=lambda i: abs(zeros[i] - t))
        if abs(zeros[best] - t) > ZERO_MATCH:
            p.append(f"refined zero t = {t!r} is {abs(zeros[best] - t):.2e} from mpmath's")
        elif best in matched:
            p.append(f"zero t = {t!r} reported twice")
        matched.add(best)
        nu = complex(0.5, t)
        h_nu = abs(1.0 / (2.0 * math.pi * (1.0 - 2.0 ** (1.0 - nu))))
        worst_pref = max(temp ** -0.5 for temp in ZERO_TEMPERATURES) * h_nu
        if "vzd" in row:
            # |eta| at the reported t is at most |eta'| times its distance from
            # the zero (both from mpmath), plus the round-off of the series
            eta = zeros.slopes[best] * (abs(zeros[best] - t) + 1e-12)
            bound = worst_pref * (eta + 1e-12)
            if not row["vzd"] <= bound:
                p.append(f"verify_zero_delta {row['vzd']:.3e} above {bound:.3e} at t = {t}")
        if "duality" in row and not row["duality"] <= 1e-12:
            p.append(f"check_duality {row['duality']:.3e} above 1e-12 at t = {t}")
    if len(refined) != len(inside):
        p.append(f"{len(refined)} refined zeros in [{t_min:.4f}, {t_max:.4f}], "
                 f"mpmath counts {len(inside)}")
    return p


def check_zero_scan(op, zeros) -> list[str]:
    return check_zero_rows(op.args["t_min"], op.args["t_max"],
                           op.result["candidates"], zeros)


# --------------------------------------------------------------------------
# profile
# --------------------------------------------------------------------------


def gamma_nu(nu) -> complex:
    nu = _mpc(nu)
    return complex(1 / ((1 - mp.power(2, 1 - nu)) * mp.gamma(nu)))


def _kernel(x: np.ndarray, expo: complex, g: complex) -> np.ndarray:
    """Re(g x**expo) for x > 0 and 0 at x = 0, in real arithmetic."""
    out = np.zeros_like(x)
    pos = x > 0.0
    lx = np.log(x[pos])
    mag = np.exp(expo.real * lx)
    if expo.imag == 0.0:
        out[pos] = g.real * mag
    else:
        ph = expo.imag * lx
        out[pos] = mag * (g.real * np.cos(ph) - g.imag * np.sin(ph))
    return out


def profile_residual(nu, T, k, eps, w) -> tuple[float, float]:
    """Sup-norm residual of eps = k**2 + (1/2pi) sum_j w_j [K(|k-k_j|) + K(k+k_j)] f_j
    and the largest |term| sum, the scale of the sum's round-off."""
    from scipy.special import expit

    g = gamma_nu(nu)
    expo = 2.0 * complex(nu) - 1.0
    f = expit(-eps / T)
    wf = w * f / (2.0 * math.pi)
    res, scale = 0.0, 0.0
    for i0 in range(0, len(k), 256):
        ki = k[i0:i0 + 256, None]
        m = _kernel(np.abs(ki - k[None, :]), expo, g) + _kernel(ki + k[None, :], expo, g)
        s = m @ wf
        res = max(res, float(np.max(np.abs(eps[i0:i0 + 256] - k[i0:i0 + 256] ** 2 - s))))
        scale = max(scale, float(np.max(np.abs(m) @ np.abs(wf))))
    return res, scale


def profile_limit(tol: float, scale: float) -> float:
    """Solver tolerance plus the round-off of the kernel sum (Gamma to ~1e-13)."""
    return 10.0 * tol + 1e-11 * scale


def check_profile_arrays(nu, T, tol, k, eps, w) -> list[str]:
    p = []
    res, scale = profile_residual(nu, T, k, eps, w)
    limit = profile_limit(tol, scale)
    if not res <= limit:
        p.append(f"profile residual {res:.3e} above {limit:.3e}")
    return p


class DeepSea:
    """mpmath's constant-shift root at the deep-sea point, computed once."""

    _delta = None

    @classmethod
    def delta(cls) -> float:
        if cls._delta is None:
            cls._delta = quasi_root(DEEP_NU, DEEP_T, DEEP_DELTA)
        return cls._delta


def deep_sea_ratio(prof) -> float:
    plateau = (prof.epsilon[0] - prof.nodes[0] ** 2) / prof.temperature
    return plateau / DeepSea.delta()


def deep_sea_expected(nu: float = DEEP_NU) -> float:
    p = 2.0 * nu - 1.0
    return 2.0 ** (p * (1.0 + p) / (1.0 - p))


def check_profile(op) -> list[str]:
    a, prof = op.args, op.result
    tol = a["tol"] if a["tol"] is not None else SOLVER_TOL
    p = check_profile_arrays(a["nu"], a["T"], tol, prof.nodes, prof.epsilon, prof.weights)
    k, e = prof.extended()
    if not (np.array_equal(e, e[::-1]) and np.array_equal(k, -k[::-1])):
        p.append("epsilon is not symmetric in k")
    if op.extra.get("deep"):
        ratio, want = deep_sea_ratio(prof), deep_sea_expected()
        if not abs(ratio - want) / want < 0.01:
            p.append(f"deep-sea plateau/shift ratio {ratio:.3f}, want R = {want:.3f} within 1%")
    return p


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------


def _opt(argv, name, cast=float, default=None):
    return cast(argv[argv.index(name) + 1]) if name in argv else default


def _panel_weights(k: np.ndarray) -> np.ndarray:
    """Weights of composite 16-node Gauss-Legendre panels, from the nodes."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    w = np.empty_like(k)
    for p0 in range(0, len(k), 16):
        # node = mid + half * x16: two nodes give the panel's midpoint and half-width
        half = (k[p0 + 15] - k[p0]) / (x16[15] - x16[0])
        mid = k[p0] - half * x16[0]
        if not np.allclose(mid + half * x16, k[p0:p0 + 16], rtol=0, atol=1e-12 * k[-1]):
            raise ValueError("nodes are not 16-node Gauss-Legendre panels")
        w[p0:p0 + 16] = half * w16
    return w


def check_cli(op, stdout: bytes, zeros, first_stdout: bytes | None) -> list[str]:
    argv = op.args["argv"]
    cmd = argv[0]
    text = stdout.decode("utf-8")
    if "repeat_of" in op.extra:
        return [] if stdout == first_stdout else ["repeated call is not byte-identical"]
    if cmd == "profile":
        rows = list(csv.DictReader(io.StringIO(text)))
        k = np.array([float(r["k"]) for r in rows])
        eps = np.array([float(r["epsilon"]) for r in rows])
        f = np.array([float(r["f"]) for r in rows])
        nu, T = _opt(argv, "--nu-re"), _opt(argv, "--T")
        from scipy.special import expit

        p = check_profile_arrays(nu, T, SOLVER_TOL, k, eps, _panel_weights(k))
        # eps is printed to 15 digits, which moves f by up to ~1e-15 |eps/T| f
        if np.any(np.abs(f - expit(-eps / T)) > 1e-14 * (1.0 + np.abs(eps / T)) * f):
            p.append("f column differs from 1/(exp(eps/T) + 1)")
        return p
    doc = json.loads(text)
    if cmd == "solve":
        s = 1 if _opt(argv, "--statistics", str) == "boson" else -1
        d, z_mu, T, h = (_opt(argv, "--d"), _opt(argv, "--z-mu"), _opt(argv, "--T"),
                         _opt(argv, "--h-t"))
        return check_constant(d, s, z_mu, h, T, doc["delta"], doc["n"])
    if cmd == "charge":
        if "--species" in argv:
            p = _close(doc["c"], 0.75, CLOSED_FORM_TOL, "mixed pair c")
            for z in doc["z"]:
                p += _close(z, math.sqrt(2.0) - 1.0, CLOSED_FORM_TOL, "mixed pair z")
            return p
        h, (z,) = _opt(argv, "--h"), doc["z"]
        if _opt(argv, "--statistics", str) == "boson":
            return (_close(z - (1.0 - z) ** h, 0.0, 1e-12, "boson fixed point")
                    + _close(doc["c"], 6 / mp.pi**2 * _rogers(z), CLOSED_FORM_TOL, "c"))
        return (_close(z - (1.0 + z) ** (-h), 0.0, 1e-12, "fermion fixed point")
                + _close(doc["c"], -6 / mp.pi**2 * _rogers(-z), CLOSED_FORM_TOL, "c"))
    if cmd == "bec":
        d, n, T, h = 3.0, _opt(argv, "--n-phys"), _opt(argv, "--T"), _opt(argv, "--h-t")
        z32, z52 = mp.zeta(mp.mpf(d) / 2), mp.zeta(mp.mpf(d + 2) / 2)
        pref = mp.power(_t_tilde(T), mp.mpf(d) / 2)
        want = {
            "mu_c": h * z32 * T,
            "n_c": z32 * pref,
            "T_c": (2 * mp.pi / 0.5) * mp.power(n / z32, mp.mpf(2) / d),
            "F_c": -z52 * T * pref * (1 + h * z32**2 / (2 * z52)),
        }
        p = []
        for key, val in want.items():
            p += _close(doc[key] / float(val), 1.0, CLOSED_FORM_TOL, key)
        return p
    if cmd == "fermi":
        d, n, T = _opt(argv, "--d"), _opt(argv, "--n"), _opt(argv, "--T")
        got = -mp.power(_t_tilde(T), mp.mpf(d) / 2) * mp.re(
            mp.polylog(mp.mpf(d) / 2, -mp.exp(mp.mpf(doc["omega_F"]) / T)))
        zero_t = (2 * mp.pi / 0.5) * mp.power(mp.gamma(mp.mpf(d) / 2 + 1) * n, 2 / mp.mpf(d))
        return (_close(float(got) / n, 1.0, DENSITY_RTOL, "density at omega_F")
                + _close(doc["omega_F_zero_T"] / float(zero_t), 1.0, CLOSED_FORM_TOL,
                         "omega_F at T = 0"))
    if cmd == "zeros":
        rows = [{"t": r["t"], "refined": r["refined"]} for r in doc["rows"]]
        return check_zero_rows(doc["t_min"], doc["t_max"], rows, zeros)
    if cmd == "duality":
        if not doc["residual"] <= 1e-12:
            return [f"duality residual {doc['residual']:.3e} above 1e-12"]
        return []
    if cmd == "kernel-check":
        nu = complex(_opt(argv, "--nu-re"), _opt(argv, "--nu-im"))
        k = _opt(argv, "--k")
        want = -mp.re(_mpc(gamma_nu(nu)) * mp.power(k, _mpc(2 * nu - 1)))
        return (_close(doc["closed_form"], want, 1e-10, "closed-form kernel")
                + _close(doc["rel_difference"], 0.0, 1e-6, "potential-route kernel")
                + _close(doc["gamma_identity_residual"], 0.0, 1e-12, "duplication identity"))
    return [f"unknown command {cmd}"]
