"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The reference values of criteria 3 and 10 are the ones that their
defining expressions give:

* criterion 3: the free 1d fermion density is
  n = int dk/2pi 1/(e**(k**2/T) + 1) = sqrt(T/4pi) eta(1/2), with
  eta(1/2) = (1 - sqrt 2) zeta(1/2) = 0.6048986434...; its 5-place rounding
  is 0.60490. The decimal 0.60649 once tabulated for it is the rounding of
  neither this value nor any nearby standard constant, while the companion
  pressure decimal 0.76515 = eta(3/2) from the same table is reproduced.

* criterion 10: at nu = 0.9 the kernel is attractive, c = Re gamma_nu/2pi
  < 0, and p = 2 nu - 1 = 0.8. As T -> 0 the occupancy is a step on
  [-k_F, k_F], so S(k) = c int_{-k_F}^{k_F} |k - k'|**p dk' and
  S(k_F) = 2**p S(0). The constant-shift ansatz puts its edge where
  k_F**2 + S(0) = 0, the full integral equation where k_F**2 + S(k_F) = 0.
  The true Fermi edge is therefore 2**(p/(1-p)) = 16 times the ansatz edge
  and the true plateau R = 2**(p (1+p)/(1-p)) = 2**7.2 = 147.03 times the
  ansatz shift, for any gamma_nu, up to O((T/|T delta|)**2). The criterion
  checks the profile plateau against R times the constant-shift root within
  1%; the two solvers agree outright only where the shift is perturbatively
  small (real nu > 1 at low temperature, covered by the unit suite).
"""
import contextlib
import io
import json
import math
import time

import numpy as np

from gastba import cli, riemann, saddle, specfun, thermo
from gastba.errors import DimensionError
from gastba.saddle import BOSON, FERMION, CouplingSpec, SolverConfig, SpeciesSpec
from gastba.thermo import ThermoState

import oracles


def run_cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, f"cli exited {code} for {argv}"
    return json.loads(buf.getvalue())


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_rational_central_charges():
    t0 = time.perf_counter()
    boson_table = {0.0: 1.0, 0.5: 3.0 / 5.0, 1.0: 0.5, 2.0: 2.0 / 5.0}
    fermion_table = {-0.5: 3.0 / 5.0, 0.0: 0.5, 1.0: 2.0 / 5.0}
    worst = 0.0
    for h, c_expected in boson_table.items():
        doc = run_cli_json(["charge", "--statistics", "boson", "--h", str(h)])
        worst = max(worst, abs(doc["c"] - c_expected))
    for h, c_expected in fermion_table.items():
        doc = run_cli_json(["charge", "--statistics", "fermion", "--h", str(h)])
        worst = max(worst, abs(doc["c"] - c_expected))
    # the h = -1 row is a divergent limit: approach it from above
    doc = run_cli_json(["charge", "--statistics", "fermion", "--h", str(-1.0 + 1e-6)])
    limit_defect = abs(doc["c"] - 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and limit_defect < 1e-4 and elapsed < 1.0
    report(1, ok, f"max |dc| = {worst:.2e}, h->-1 defect = {limit_defect:.2e}, "
                  f"{elapsed:.2f}s")
    assert worst < 1e-10
    assert limit_defect < 1e-4
    assert elapsed < 1.0


def test_criterion_02_supersymmetric_pair():
    t0 = time.perf_counter()
    species = [
        SpeciesSpec(name="b", statistics=BOSON),
        SpeciesSpec(name="f", statistics=FERMION),
    ]
    sols = saddle.solve_2d_multispecies(species, np.ones((2, 2)))
    z_defect = max(abs(s.z_delta - (math.sqrt(2.0) - 1.0)) for s in sols)
    c_defect = abs(thermo.central_charge(sols, species) - 0.75)
    elapsed = time.perf_counter() - t0
    ok = z_defect < 1e-12 and c_defect < 1e-10 and elapsed < 1.0
    report(2, ok, f"|z - (sqrt2 - 1)| = {z_defect:.2e}, |c - 3/4| = {c_defect:.2e}, "
                  f"{elapsed:.2f}s")
    assert z_defect < 1e-12
    assert c_defect < 1e-10
    assert elapsed < 1.0


def test_criterion_03_free_fermion_1d_constants():
    """Free 1d fermion density and pressure factors at z = 1.

    density  = sqrt(T/4pi) eta(1/2),   eta(1/2) = 0.60490 (5 places)
    pressure = sqrt(T**3/4pi) eta(3/2), eta(3/2) = 0.76515 (5 places)

    The density factor is also held to the exact (1 - sqrt 2) zeta(1/2) =
    0.60489864342163037 frozen from the high-precision oracle; see the
    module docstring for why the tabulated 0.60649 was corrected."""
    t0 = time.perf_counter()
    state = ThermoState(T=1.0, d=1)
    sp = SpeciesSpec(statistics=FERMION, z_mu=1.0)
    free = saddle.SaddleSolution(0.0, 1.0, 0.0, 0)
    obs = thermo.observables_constant(free, state, sp)
    density_factor = obs.density / math.sqrt(state.T / (4 * math.pi))
    pressure_factor = obs.pressure / math.sqrt(state.T**3 / (4 * math.pi))
    elapsed = time.perf_counter() - t0
    ok_density = abs(density_factor - 0.60490) < 5e-6
    ok_pressure = abs(pressure_factor - 0.76515) < 5e-6
    report(
        3,
        ok_density and ok_pressure and elapsed < 1.0,
        f"density factor {density_factor:.7f} vs tabulated 0.60490 "
        f"(exact (1-sqrt2)zeta(1/2) = {oracles.FREE_1D_DENSITY_FACTOR:.7f}), "
        f"pressure factor {pressure_factor:.7f} vs tabulated 0.76515, {elapsed:.2f}s",
    )
    assert elapsed < 1.0
    assert abs(density_factor - oracles.FREE_1D_DENSITY_FACTOR) < 1e-10
    assert ok_pressure, f"pressure factor {pressure_factor:.7f} vs tabulated 0.76515"
    assert ok_density, f"density factor {density_factor:.7f} vs tabulated 0.60490"


def test_criterion_04_dilogarithm_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    zs = rng.uniform(1e-12, 1.0 - 1e-12, size=1000)
    worst_euler = max(
        abs(specfun.rogers_dilog(z) + specfun.rogers_dilog(1 - z) - math.pi**2 / 6)
        for z in zs
    )
    worst_landen = max(
        abs(specfun.rogers_dilog(z) + specfun.rogers_dilog(-z / (1 - z))) for z in zs
    )
    half_defect = abs(specfun.rogers_dilog(0.5) - math.pi**2 / 12)
    elapsed = time.perf_counter() - t0
    ok = worst_euler < 1e-11 and worst_landen < 1e-11 and half_defect < 1e-13
    report(4, ok, f"Euler {worst_euler:.2e}, Landen {worst_landen:.2e}, "
                  f"Lr2(1/2) defect {half_defect:.2e}, {elapsed:.2f}s")
    assert worst_euler < 1e-11
    assert worst_landen < 1e-11
    assert half_defect < 1e-13


def test_criterion_05_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_kernel = 0.0
    checked = 0
    while checked < 20:
        nu = complex(rng.uniform(0.55, 1.45), rng.uniform(-2.0, 2.0))
        if abs(2 * nu - 1) < 0.1:
            continue
        k = rng.uniform(0.25, 3.0)
        spec = riemann.make_kernel_spec(nu)
        a = riemann.kernel_from_potential(spec, k)
        b = riemann.kernel_closed_form(spec, k)
        worst_kernel = max(worst_kernel, abs(a - b) / max(abs(b), 1e-12))
        checked += 1
    worst_identity = 0.0
    checked = 0
    while checked < 40:
        nu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(nu.imag) < 0.05 and (
            abs(2 * nu.real - round(2 * nu.real)) < 0.05
            or abs(nu.real - round(nu.real)) < 0.05
        ):
            continue
        lhs = specfun.sinpi(nu) * specfun.gamma(1 - 2 * nu) * specfun.gamma(nu)
        rhs = math.sqrt(math.pi) * 2.0 ** (-2 * nu) * specfun.gamma(0.5 - nu)
        worst_identity = max(worst_identity, abs(lhs - rhs) / abs(rhs))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_kernel < 1e-5 and worst_identity < 1e-10 and elapsed < 30.0
    report(5, ok, f"kernel routes rel {worst_kernel:.2e}, Gamma identity "
                  f"{worst_identity:.2e}, {elapsed:.2f}s")
    assert worst_kernel < 1e-5
    assert worst_identity < 1e-10
    assert elapsed < 30.0


def test_criterion_06_zero_scanner():
    t0 = time.perf_counter()
    cands = riemann.find_zeros(0.5, 10.0, 30.0)
    refined = [c for c in cands if c.refined]
    ts = [complex(c.nu).imag for c in refined]
    location_ok = len(refined) == 3 and all(
        abs(t - ref) < 1e-4 for t, ref in zip(ts, oracles.CRITICAL_LINE_ZEROS)
    )
    worst_delta_residual = max(
        riemann.verify_zero_delta(c, [0.1, 1.0, 10.0]) for c in refined
    ) if refined else math.inf
    off_line = riemann.find_zeros(0.9, 10.0, 30.0)
    elapsed = time.perf_counter() - t0
    ok = (
        location_ok
        and worst_delta_residual < 1e-8
        and len(off_line) == 0
        and elapsed < 60.0
    )
    report(6, ok, f"{len(refined)} refined at t = {[f'{t:.5f}' for t in ts]}, "
                  f"delta-residual {worst_delta_residual:.2e}, "
                  f"sigma=0.9 candidates {len(off_line)}, {elapsed:.1f}s")
    assert location_ok
    assert worst_delta_residual < 1e-8
    assert off_line == []
    assert elapsed < 60.0


def test_criterion_07_duality_and_casimir():
    t0 = time.perf_counter()
    worst_duality = max(
        riemann.check_duality(complex(sigma, t))
        for sigma in np.linspace(0.2, 0.8, 5)
        for t in np.linspace(0.0, 20.0, 5)
    )
    worst_casimir = max(riemann.casimir_channel_check(d).residual for d in (1, 2, 3))
    elapsed = time.perf_counter() - t0
    ok = worst_duality < 1e-9 and worst_casimir < 1e-8 and elapsed < 10.0
    report(7, ok, f"duality {worst_duality:.2e}, casimir {worst_casimir:.2e}, "
                  f"{elapsed:.2f}s")
    assert worst_duality < 1e-9
    assert worst_casimir < 1e-8
    assert elapsed < 10.0


def test_criterion_08_legendre_consistency():
    t0 = time.perf_counter()
    step = 1e-3
    cases = []
    for d in (1.0, 2.0, 3.0):
        coupling_free = CouplingSpec(mode="h_T", value=0.0, d=d)
        coupling_int = CouplingSpec(mode="h_T", value=0.4, d=d)
        fermion = SpeciesSpec(statistics=FERMION)
        boson = SpeciesSpec(statistics=BOSON)
        cases.append((fermion, coupling_free, d, -0.4))
        cases.append((fermion, coupling_int, d, -0.2))
        cases.append((boson, coupling_free, d, -1.0))
        cases.append((boson, coupling_int, d, -0.8))
    worst = 0.0
    for sp, coupling, d, mu0 in cases:
        grid = mu0 + step * np.arange(9)
        worst = max(worst, thermo.thermodynamic_consistency(sp, coupling, d, 1.0, grid))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    report(8, ok, f"worst |dF/dmu + n| / n = {worst:.2e} over {len(cases)} cases, "
                  f"{elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 30.0


def test_criterion_09_bec_criticality_and_fermi_energy():
    t0 = time.perf_counter()
    from scipy import integrate

    state = ThermoState(T=1.0, d=3)
    coupling = CouplingSpec(mode="h_T", value=0.7, d=3)
    n_phys = 1.0
    rep = thermo.bec_critical(3, coupling, n_phys, state)
    # at (mu_c, T_c) the effective chemical potential vanishes: re-solve the
    # density by brute-force quadrature of the free filling fraction
    resolved, _ = integrate.quad(
        lambda k: k**2 / (math.exp(k**2 / rep.T_c) - 1.0) / (2 * math.pi**2),
        1e-12,
        math.sqrt(rep.T_c * 80.0),
        limit=400,
    )
    density_defect = abs(resolved - n_phys) / n_phys
    try:
        thermo.bec_critical(2, CouplingSpec(mode="h_2d", value=0.7, d=2),
                            1.0, ThermoState(T=1.0, d=2))
        d2_raises = False
    except DimensionError:
        d2_raises = True
    w0 = thermo.fermi_energy_zero_temperature(3, 1.0)
    temp = w0 / 45.0  # beta omega_F >= 40
    w = thermo.fermi_energy(3, 1.0, temp)
    fermi_defect = abs(w - w0) / w0
    elapsed = time.perf_counter() - t0
    ok = density_defect < 1e-8 and d2_raises and fermi_defect < 0.01 and elapsed < 10.0
    report(9, ok, f"re-solved density defect {density_defect:.2e}, 2d raises: "
                  f"{d2_raises}, fermi defect {fermi_defect:.2e} at beta*omega = "
                  f"{w/temp:.1f}, {elapsed:.2f}s")
    assert density_defect < 1e-8
    assert d2_raises
    assert w / temp >= 40.0
    assert fermi_defect < 0.01
    assert elapsed < 10.0


def test_criterion_10_profile_constant_shift_agreement():
    """Profile plateau vs constant-shift root at nu = 0.9, T = 0.05.

    The kernel is attractive here and both solutions are deep Fermi seas;
    the full equation's edge sits where k**2 + S(k) = 0 with
    S(k_F) = 2**p S(0), p = 2 nu - 1, so the plateau is
    R = 2**(p (1+p)/(1-p)) times the ansatz shift (derivation in the module
    docstring). The measured ratio must match R within 1%."""
    t0 = time.perf_counter()
    nu, temp = 0.9, 0.05
    p = 2.0 * nu - 1.0
    ratio_expected = 2.0 ** (p * (1.0 + p) / (1.0 - p))
    cfg_q = SolverConfig(delta_bracket=(-2e5, 1.0), bracket_points=400)
    dq = saddle.solve_delta_quasi(nu, temp, cfg_q).delta
    # grid sized from the solution itself, then enlarged to stay
    # truncation-clean while the profile cascades beyond the ansatz edge
    tol = 1e-8
    k_edge = math.sqrt(temp * abs(dq))
    k_max_target = 20.0 * k_edge
    sigmas = k_max_target / math.sqrt(temp * math.log(1.0 / tol))
    cfg_p = SolverConfig(
        tol=tol,
        grid_points=3072,
        k_max_sigmas=sigmas,
    )
    prof = saddle.solve_profile_quasiperiodic(nu, temp, cfg=cfg_p)
    dp = (prof.epsilon[0] - prof.omega[0]) / temp
    rel = abs(dp / dq - ratio_expected) / ratio_expected
    elapsed = time.perf_counter() - t0
    ok = rel < 0.01 and elapsed < 120.0
    report(
        10,
        ok,
        f"constant-shift delta = {dq:.4g}, profile plateau = {dp:.4g}, "
        f"ratio {dp/dq:.2f} vs R = {ratio_expected:.2f}, rel defect {rel:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert rel < 0.01, (
        f"profile/ansatz ratio {dp/dq:.2f} vs R = 2**(p(1+p)/(1-p)) = "
        f"{ratio_expected:.2f} at nu = {nu}"
    )
