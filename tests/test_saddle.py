import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from gastba import riemann, saddle, specfun, thermo
from gastba.errors import (
    BranchAmbiguityError,
    DomainError,
    EmptyBracketError,
    NoSolutionError,
    TruncationWarning,
)
from gastba.roots import anderson
from gastba.saddle import BOSON, FERMION, CouplingSpec, SolverConfig, SpeciesSpec

import oracles

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # root of z**2 + z = 1


def h2d(value):
    return CouplingSpec(mode="h_2d", value=value, d=2)


class TestSpeciesAndCoupling:
    def test_species_validation(self):
        with pytest.raises(DomainError):
            SpeciesSpec(mass=-1.0)
        with pytest.raises(DomainError):
            SpeciesSpec(statistics=0)
        with pytest.raises(DomainError):
            SpeciesSpec(z_mu=0.0)

    def test_coupling_validation(self):
        with pytest.raises(DomainError):
            CouplingSpec(mode="bogus", value=1.0, d=3)
        with pytest.raises(DomainError):
            CouplingSpec(mode="h_2d", value=1.0, d=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for kwargs in ({"mass": bad}, {"z_mu": bad}):
            with pytest.raises(DomainError):
                SpeciesSpec(**kwargs)
        with pytest.raises(DomainError):
            CouplingSpec(mode="h_T", value=bad, d=3)
        with pytest.raises(DomainError):
            CouplingSpec(mode="h_T", value=0.5, d=bad)
        for kwargs in ({"T": bad, "d": 3}, {"T": 1.0, "d": bad}, {"T": 1.0, "d": 3, "mass": bad}):
            with pytest.raises(DomainError):
                thermo.ThermoState(**kwargs)
        with pytest.raises(DomainError):
            saddle.solve_delta_constant(3, SpeciesSpec(), CouplingSpec("h_T", 0.5, 3), T=bad)
        with pytest.raises(DomainError):
            saddle.solve_delta_quasi(1.4, bad)
        with pytest.raises(DomainError):
            saddle.solve_profile_quasiperiodic(1.4, bad)
        for kwargs in ({"tol": bad}, {"k_max_sigmas": bad}):
            with pytest.raises(DomainError):
                SolverConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1e-10}, {"tol": 1.0}, {"tol": 2.0},
        {"k_max_sigmas": 0.0}, {"k_max_sigmas": -1.0},
        {"grid_points": 0}, {"grid_points": -16}, {"grid_points": 8}, {"grid_points": 100},
        {"max_iter": 0}, {"bracket_points": 1}, {"grid_points": 64.0}, {"max_iter": 2.5},
        {"bracket_points": 400.0},
    ])
    def test_solver_config_out_of_range(self, kwargs):
        with pytest.raises(DomainError):
            SolverConfig(**kwargs)

    def test_h_T_from_scattering_length(self):
        # a = lambda_T / sqrt(2 pi) makes the thermal coupling unity in 3d
        T, m = 1.7, 0.5
        lam = math.sqrt(2.0 * math.pi / (m * T))
        c = CouplingSpec(mode="scattering_length", value=lam / math.sqrt(2 * math.pi), d=3)
        assert saddle.coupling_h_T(c, T, m) == pytest.approx(1.0, rel=1e-14)


class TestSolveDeltaConstant:
    def test_free_theory_all_statistics_dimensions(self):
        for d in (1, 2, 3):
            for s in (BOSON, FERMION):
                sp = SpeciesSpec(statistics=s, z_mu=1.0)
                c = CouplingSpec(mode="h_T", value=0.0, d=d)
                sol = saddle.solve_delta_constant(d, sp, c, T=1.0)
                assert sol.delta == 0.0
                assert sol.z_delta == 1.0
                assert sol.residual == 0.0

    def test_2d_boson_half(self):
        sp = SpeciesSpec(statistics=BOSON, z_mu=1.0)
        sol = saddle.solve_delta_constant(2, sp, h2d(1.0), T=1.0)
        assert sol.z_delta == pytest.approx(0.5, abs=1e-12)

    def test_2d_fermion_golden(self):
        sp = SpeciesSpec(statistics=FERMION, z_mu=1.0)
        sol = saddle.solve_delta_constant(2, sp, h2d(1.0), T=1.0)
        assert sol.z_delta == pytest.approx(GOLDEN, abs=1e-12)

    def test_residual_certificates(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = rng.choice([1.0, 2.0, 3.0])
            s = rng.choice([BOSON, FERMION])
            h = rng.uniform(0.05, 0.8)
            z_mu = rng.uniform(0.2, 0.8)
            sp = SpeciesSpec(statistics=int(s), z_mu=z_mu)
            c = CouplingSpec(mode="h_T", value=float(h), d=float(d))
            sol = saddle.solve_delta_constant(float(d), sp, c, T=1.0)
            # re-substitute into the defining equation
            u = z_mu * sol.z_delta
            if s == BOSON:
                rhs = h * specfun.polylog_series(d / 2.0, u).real
            else:
                rhs = -h * specfun.polylog_series(d / 2.0, -u).real
            assert abs(sol.delta - rhs) < 1e-10

    @pytest.mark.parametrize("h", [1e-8, 1e-10])
    def test_weak_boson_meets_the_2d_solver(self, h):
        # Li_1(x) = -log(1 - x): at d = 2 the shift equation is the 2d one, and
        # its root lies within 1e-6 of the bosonic branch point at z_mu = 1
        sp = SpeciesSpec(statistics=BOSON, z_mu=1.0)
        sol = saddle.solve_delta_constant(2, sp, CouplingSpec("h_T", h, 2), T=1.0)
        assert sol.delta == pytest.approx(saddle.solve_2d_boson(h).delta, rel=1e-6)

    def test_bosonic_attractive_detachment(self):
        sp = SpeciesSpec(statistics=BOSON, z_mu=1.0)
        with pytest.raises(NoSolutionError):
            saddle.solve_delta_constant(2, sp, h2d(-0.5), T=1.0)


class TestSolve2dBoson:
    def test_half_coupling_golden(self):
        assert saddle.solve_2d_boson(0.5).z_delta == pytest.approx(GOLDEN, abs=1e-13)

    def test_square_coupling_golden_squared(self):
        assert saddle.solve_2d_boson(2.0).z_delta == pytest.approx(
            GOLDEN**2, abs=1e-13
        )

    def test_free(self):
        assert saddle.solve_2d_boson(0.0).z_delta == 1.0

    def test_attractive_has_no_solution(self):
        with pytest.raises(NoSolutionError):
            saddle.solve_2d_boson(-0.5)

    def test_branch_continuity_monotone(self):
        hs = np.linspace(0.0, 4.0, 100)
        zs = [saddle.solve_2d_boson(float(h)).z_delta for h in hs]
        diffs = np.diff(zs)
        assert np.all(diffs < 0.0)
        # z(h) is steepest (but still continuous) coming off the free point
        assert np.max(np.abs(diffs)) < 0.15


class TestSolve2dFermion:
    def test_attractive_half(self):
        assert saddle.solve_2d_fermion(-0.5).z_delta == pytest.approx(
            1.0 / GOLDEN, abs=1e-12
        )

    def test_free(self):
        assert saddle.solve_2d_fermion(0.0).z_delta == 1.0

    def test_repulsive_golden(self):
        assert saddle.solve_2d_fermion(1.0).z_delta == pytest.approx(GOLDEN, abs=1e-13)

    def test_divergent_limit_tagged(self):
        for h in (-1.0, -1.5):
            sol = saddle.solve_2d_fermion(h)
            assert math.isinf(sol.z_delta)
            assert "divergent" in sol.branch_note


@st.composite
def draws_2d(draw):
    """(s, h, z_mu) with h > 0 for bosons and h > -1 for fermions, where
    F(w) = a w + log(1 - e**-w) - log z_mu rises for all w and has one root."""
    s = draw(st.sampled_from([BOSON, FERMION]))
    h = draw(st.floats(0.0 if s == BOSON else -0.999, 20.0))
    return s, h, math.exp(draw(st.floats(-5.0, 7.0)))


# (s, h, z_mu, field, value): mpmath at 60 digits on the root of F connected to
# z = 1 at h = 0
REFERENCE_2D = [
    (BOSON, 0.16994, 14.376, "delta", 2.6655603036370045),  # 1 - z_mu z = 1.5e-7
    (BOSON, 0.010895, 5.9184, "delta", 1.7780661420960525),  # 1 - z_mu z = 1.3e-71
    (FERMION, -0.91659, 78.024, "delta", -47.879123939188873),  # z = 6.2e20
    (FERMION, -0.58879, 643.18, "delta", -9.2589339775094750),  # z = 10497.9
    (BOSON, -0.1, 0.1, "z_delta", 1.0107121141684405),  # attractive, still bound
    (FERMION, -1.5, 0.01, "z_delta", 1.015267602692994),  # h < -1, still finite
    (FERMION, -1.0, 0.5, "z_delta", 2.0),  # a = 0: z = 1/(1 - z_mu), still finite
    (BOSON, 1e-12, 0.5, "delta", 6.9314718055925215e-13),  # weak coupling: no -log z
    (BOSON, 1e-12, 1.0, "delta", 2.4435004404946650e-11),  # log(1 - e**-w) = -3e-11
]


def solve_2d(s, h, z_mu):
    return (saddle.solve_2d_boson if s == BOSON else saddle.solve_2d_fermion)(h, z_mu)


class TestOne2dEquation:
    """Both statistics solve F(w) = 0 in w = -s log(1 - s z_mu z), with delta = h w,
    and take the root on the rising side of F."""

    @pytest.mark.parametrize("s, h, z_mu, field, value", REFERENCE_2D)
    def test_reference_roots(self, s, h, z_mu, field, value):
        assert getattr(solve_2d(s, h, z_mu), field) == pytest.approx(value, rel=1e-14, abs=0.0)

    @seed(7)
    @settings(max_examples=300, deadline=None)
    @given(case=draws_2d())
    @example(case=REFERENCE_2D[0][:3])
    @example(case=REFERENCE_2D[1][:3])
    @example(case=REFERENCE_2D[2][:3])
    @example(case=REFERENCE_2D[3][:3])
    @example(case=REFERENCE_2D[4][:3])
    @example(case=REFERENCE_2D[5][:3])
    @example(case=REFERENCE_2D[6][:3])
    @example(case=REFERENCE_2D[7][:3])
    @example(case=REFERENCE_2D[8][:3])
    def test_increasing_equation_always_solves(self, case):
        s, h, z_mu = case
        sol = solve_2d(s, h, z_mu)
        # sign(delta) = sign(h); delta = h w keeps the sign of h where it underflows
        assert math.copysign(1.0, sol.delta) == math.copysign(1.0, h) or h == 0.0
        assert sol.residual <= 1e-12
        if abs(sol.delta) >= sys.float_info.min:  # F(delta/h) = 0 in independent arithmetic
            w = mp.mpf(sol.delta) / h
            f = (h + (1 - s) / 2) * w + mp.log(-mp.expm1(-w)) - mp.log(z_mu)
            assert abs(f) < 1e-13

    @pytest.mark.parametrize("s", [BOSON, FERMION])
    @pytest.mark.parametrize("h", [1e38, 1e100, 1e300])
    @pytest.mark.parametrize("log_zmu", [-5.0, 0.0, 7.0])
    def test_huge_coupling_against_mpmath(self, s, h, log_zmu):
        # the root sits at t = log w ~ -log h, where one ulp of t moves F by more
        # than 1e-12 (at h = 1e38, z_mu = 1 the residual is 1.05e-12)
        z_mu = math.exp(log_zmu)
        with mp.workdps(50):
            a = mp.mpf(h) + (1 - s) // 2

            def f(t):
                return a * mp.exp(t) + mp.log(-mp.expm1(-mp.exp(t))) - mp.log(z_mu)

            t = mp.findroot(f, (-mp.log(a), mp.log(10 * mp.log(a) / a)), solver="anderson")
            expected = float(h * mp.exp(t))
        assert solve_2d(s, h, z_mu).delta == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_far_root_in_closed_form(self):
        # past w = e**7, e**-w underflows and F(w) = a w - log z_mu vanishes at
        # w = log z_mu / a, even where w itself overflows
        sol = saddle.solve_2d_fermion(-0.999, math.exp(7.0))
        assert sol.delta == pytest.approx(-0.999 * 7.0 / (1.0 - 0.999), rel=1e-14)
        assert math.isinf(sol.z_delta) and "divergent" not in sol.branch_note
        assert saddle.solve_2d_boson(1e-310, math.exp(2.0)).delta == pytest.approx(2.0, rel=1e-14)


class TestMultispecies:
    def test_susy_pair(self):
        species = [
            SpeciesSpec(name="b", statistics=BOSON),
            SpeciesSpec(name="f", statistics=FERMION),
        ]
        sols = saddle.solve_2d_multispecies(species, np.ones((2, 2)))
        for sol in sols:
            assert sol.z_delta == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
            assert sol.iterations <= 15

    def test_single_boson_reduces_to_scalar_solver(self):
        for h in (0.5, 1.0, 2.0):
            ref = saddle.solve_2d_boson(h).z_delta
            sols = saddle.solve_2d_multispecies(
                [SpeciesSpec(statistics=BOSON)], np.array([[h]])
            )
            assert sols[0].z_delta == pytest.approx(ref, abs=1e-12)

    def test_single_fermion_reduces_to_scalar_solver(self):
        ref = saddle.solve_2d_fermion(1.0).z_delta
        sols = saddle.solve_2d_multispecies(
            [SpeciesSpec(statistics=FERMION)], np.array([[1.0]])
        )
        assert sols[0].z_delta == pytest.approx(ref, abs=1e-12)

    def test_free_matrix(self):
        species = [
            SpeciesSpec(name="b", statistics=BOSON),
            SpeciesSpec(name="f", statistics=FERMION),
        ]
        sols = saddle.solve_2d_multispecies(species, np.zeros((2, 2)))
        assert all(s.z_delta == pytest.approx(1.0, abs=1e-14) for s in sols)

    @pytest.mark.parametrize("coupled", [BOSON, FERMION])
    @pytest.mark.parametrize("free", [BOSON, FERMION])
    def test_decoupled_species_is_free(self, coupled, free):
        # a species with a zero row has z = 1 exactly; for a free boson an
        # extrapolated step used to land on its branch point z = 1
        species = [
            SpeciesSpec(name="a", statistics=coupled),
            SpeciesSpec(name="b", statistics=free),
        ]
        a, b = saddle.solve_2d_multispecies(species, np.array([[1.0, 0.0], [0.0, 0.0]]))
        scalar = saddle.solve_2d_boson if coupled == BOSON else saddle.solve_2d_fermion
        assert a.z_delta == pytest.approx(scalar(1.0).z_delta, abs=1e-12)
        assert b.z_delta == 1.0

    def test_extrapolation_past_branch_point_takes_plain_step(self):
        # the weakly self-coupled boson: an extrapolated log z lands past its
        # branch point on the way, and the plain damped step replaces it
        species = [
            SpeciesSpec(name="b", statistics=BOSON),
            SpeciesSpec(name="f", statistics=FERMION, z_mu=0.5),
        ]
        mat = np.array([[0.001, 1.0], [1.0, 0.0]])
        sols = saddle.solve_2d_multispecies(species, mat)
        z = np.array([sol.z_delta for sol in sols])
        s, z_mu = np.array([1.0, -1.0]), np.array([1.0, 0.5])
        assert np.max(np.abs(np.log(z) - mat @ (s * np.log(1.0 - s * z_mu * z)))) < 1e-13
        assert z == pytest.approx([0.990742863803, 0.00925713619694], rel=1e-10)

    def test_asymmetric_matrix_rejected(self):
        species = [
            SpeciesSpec(name="a", statistics=FERMION),
            SpeciesSpec(name="b", statistics=FERMION),
        ]
        with pytest.raises(DomainError):
            saddle.solve_2d_multispecies(species, np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_boson_domain_violation_detected(self):
        # strongly attractive boson drives 1 - z through zero
        species = [SpeciesSpec(statistics=BOSON)]
        with pytest.raises(DomainError):
            saddle.solve_2d_multispecies(species, np.array([[-4.0]]))


class TestSolveDeltaQuasi:
    def test_zero_order_has_origin_root_at_every_temperature(self):
        nu = complex(0.5, oracles.CRITICAL_LINE_ZEROS[0])
        cfg = SolverConfig(delta_bracket=(-2.0, 5.0), bracket_points=200)
        for T in (0.5, 1.0, 2.0):
            sol = saddle.solve_delta_quasi(nu, T, cfg)
            assert sol.delta == 0.0
            assert any(abs(r) > 0.1 for r in sol.all_roots) or len(sol.all_roots) >= 1

    def test_real_order_far_root(self):
        # at real nu the only root is deep and attractive-side
        cfg = SolverConfig(delta_bracket=(-8e3, 2.0), bracket_points=400)
        sol = saddle.solve_delta_quasi(0.9, T=1.0, cfg=cfg)
        assert sol.delta < -1e3
        # re-substitution certificate
        rhs = -(riemann.quasi_coupling(0.9) * specfun.polylog_neg_exp(0.9, -sol.delta)).real
        assert abs(sol.delta - rhs) < 1e-7 * abs(sol.delta)

    def test_deep_fermi_sea_root(self):
        nu, T = 0.9, 0.05
        cfg = SolverConfig(delta_bracket=(-2e5, 1.0), bracket_points=400)
        sol = saddle.solve_delta_quasi(nu, T, cfg)
        with mp.workdps(25):
            pref = mp.power(T, nu - 1) / (2 * mp.pi * (1 - mp.power(2, 1 - nu)))
            root = mp.findroot(
                lambda d: d + mp.re(pref * mp.polylog(nu, -mp.exp(-d))), mp.mpf(-84898.28)
            )
        assert sol.delta == pytest.approx(float(root), rel=1e-9)

    def test_default_bracket_empty_at_real_order(self):
        with pytest.raises(EmptyBracketError):
            saddle.solve_delta_quasi(0.9, T=1.0)

    def test_excluded_order(self):
        from gastba.errors import ExcludedOrderError

        with pytest.raises(ExcludedOrderError):
            saddle.solve_delta_quasi(1.0, T=1.0)

    def test_requires_positive_real_part(self):
        with pytest.raises(DomainError):
            saddle.solve_delta_quasi(-0.5, T=1.0)


DEEP_SEA = SolverConfig(delta_bracket=(-2e5, 1.0), bracket_points=400)


def quasi_as_constant(nu, T, cfg=None):
    """The quasi-periodic shift posed as a constant-kernel one: a fermion at
    z_mu = 1 in d = 2 nu with h_T = T**(nu-1) h_nu (real nu)."""
    h_T = T ** (nu - 1.0) * complex(riemann.quasi_coupling(nu)).real
    coupling = CouplingSpec(mode="h_T", value=h_T, d=2.0 * nu)
    return saddle.solve_delta_constant(2.0 * nu, SpeciesSpec(statistics=FERMION), coupling, T, cfg)


class TestOneShiftEquation:
    """solve_delta_constant and solve_delta_quasi pose one equation,
    delta = Re[c Li_nu(s z_mu e**-delta)], and judge its roots by one rule set."""

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(1.05, 1.45), T=st.floats(0.05, 2.0), cfg=st.just(None))
    @example(nu=0.9, T=0.05, cfg=DEEP_SEA)  # the deep Fermi sea: z_delta = inf
    def test_quasi_is_a_constant_kernel_solve(self, nu, T, cfg):
        quasi = saddle.solve_delta_quasi(nu, T, cfg)
        const = quasi_as_constant(nu, T, cfg)
        assert const.delta == pytest.approx(quasi.delta, rel=1e-12)
        assert const.z_delta == pytest.approx(quasi.z_delta, rel=1e-12)

    def test_residual_inside_the_noise_floor_is_accepted(self):
        # at tol = 1e-17 the certificate is the polylog's own error bound
        cfg = SolverConfig(tol=1e-17)
        for d in (1, 2, 3):
            for s in (BOSON, FERMION):
                sp = SpeciesSpec(statistics=s, z_mu=0.5)
                sol = saddle.solve_delta_constant(d, sp, CouplingSpec("h_T", 0.5, d), 1.0, cfg)
                assert sol.residual < 1e-15
        assert saddle.solve_delta_quasi(1.4, 0.5, cfg).residual < 1e-15

    def test_empty_bracket_is_a_no_solution(self):
        assert issubclass(EmptyBracketError, NoSolutionError)
        sp = SpeciesSpec(statistics=BOSON, z_mu=1.0)
        with pytest.raises(EmptyBracketError):
            saddle.solve_delta_constant(3, sp, CouplingSpec("h_T", -0.5, 3), T=1.0)

    def test_tiny_coupling_takes_the_origin(self):
        for s in (BOSON, FERMION):
            sp = SpeciesSpec(statistics=s, z_mu=0.5)
            sol = saddle.solve_delta_constant(3, sp, CouplingSpec("h_T", 1e-12, 3), T=1.0)
            assert sol.delta == 0.0 and sol.z_delta == 1.0
            assert sol.residual < 1e-10

    def test_equidistant_roots_are_ambiguous_in_both(self, monkeypatch):
        # a polylog stand-in that makes the residual delta**2 - 1 (z_mu = 1),
        # with its roots at -1 and 1
        def stand_in(c):
            def polylog(order, log_abs_z, sign):
                d = -np.asarray(log_abs_z, dtype=float)
                return specfun.EvalResult((d - d * d + 1.0) / c, 0.0 * d, 1)
            return polylog

        monkeypatch.setattr(specfun, "polylog", stand_in(-riemann.quasi_coupling(1.4)))
        with pytest.raises(BranchAmbiguityError):
            saddle.solve_delta_quasi(1.4, 1.0)
        monkeypatch.setattr(specfun, "polylog", stand_in(-0.5))
        with pytest.raises(BranchAmbiguityError):
            saddle.solve_delta_constant(3, SpeciesSpec(statistics=FERMION),
                                        CouplingSpec("h_T", 0.5, 3), T=1.0)


PROFILE_ORDERS = [1.4, 1.2, 1.1 + 3j, 0.9]


class TestProfile:
    def test_free_dispersion(self):
        spec = riemann.QuasiKernelSpec(
            nu=specfun.ComplexOrder(0.9),
            h_nu=0.0,
            gamma_nu=0.0,
            b_nu=0.0,
            sigma=1.8,
            alpha=0.0,
        )
        for n in (16, 512):  # one panel, and the default grid
            cfg = SolverConfig(grid_points=n)
            prof = saddle.solve_profile_quasiperiodic(0.9, T=1.0, kernel=spec, cfg=cfg)
            assert np.max(np.abs(prof.epsilon - prof.omega)) == 0.0
            assert prof.iterations == 1 and prof.residual == 0.0

    def test_profile_symmetry_exact(self):
        cfg = SolverConfig(grid_points=256)
        prof = saddle.solve_profile_quasiperiodic(1.4, T=0.5, cfg=cfg)
        k, e = prof.extended()
        assert np.array_equal(e, e[::-1])
        assert np.array_equal(k, -k[::-1])

    def test_plateau_matches_constant_shift_in_stable_regime(self):
        # repulsive real order: the constant-shift ansatz approximates the
        # full solution with O(delta) relative defect; at this point the
        # measured gap is ~9%, asserted with margin
        T = 0.005
        cfg_q = SolverConfig(delta_bracket=(-3.0, 3.0), bracket_points=300)
        dq = saddle.solve_delta_quasi(1.4, T, cfg_q).delta
        cfg_p = SolverConfig(grid_points=1024, k_max_sigmas=3.0)
        prof = saddle.solve_profile_quasiperiodic(1.4, T, cfg=cfg_p)
        dp = (prof.epsilon[0] - prof.omega[0]) / T
        assert dp == pytest.approx(dq, rel=0.15)

    def test_complex_order_converges_at_default_config(self):
        # damped Picard steps stalled here at residual 2.2e-6 after 400 steps
        nu, T = 1.0854807860802898 + 3.1097572746810833j, 0.1035090822621387
        prof = saddle.solve_profile_quasiperiodic(nu, T, cfg=SolverConfig(grid_points=1024))
        # the discretized equation, assembled densely from the kernel and the grid
        mat = oracles.dense_profile_matrix(riemann.make_kernel_spec(nu), prof.nodes,
                                           prof.weights)
        assert np.max(np.abs(prof.omega + mat @ prof.occupancy() - prof.epsilon)) < 1e-10
        # damped Picard steps from eps = k**2 reach the same point after 20000 steps
        assert prof.epsilon[0] == pytest.approx(0.12284936003936316, abs=1e-9)

    @pytest.mark.parametrize("nu", PROFILE_ORDERS)
    @pytest.mark.parametrize("n", [16, 64, 512, 2048])
    def test_matrix_free_product_matches_dense_oracle(self, n, nu):
        spec = riemann.make_kernel_spec(nu)
        k, w = saddle._half_grid(1.3, n)
        f = np.random.default_rng(n).standard_normal(n)
        expected = oracles.dense_profile_matrix(spec, k, w) @ f
        got = saddle._profile_operator(spec, 1.3, w)(f)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    # at nu = 0.9 the attractive kernel fills the whole default grid
    @pytest.mark.filterwarnings("ignore::gastba.errors.TruncationWarning")
    @pytest.mark.parametrize("nu", PROFILE_ORDERS)
    @pytest.mark.parametrize("n", [64, 512, 2048])
    def test_profile_matches_dense_oracle_solve(self, n, nu):
        T, cfg = 0.1, SolverConfig(grid_points=n)
        prof = saddle.solve_profile_quasiperiodic(nu, T, cfg=cfg)
        mat = oracles.dense_profile_matrix(riemann.make_kernel_spec(nu), prof.nodes,
                                           prof.weights)
        eps, _, calls = anderson(lambda e: prof.omega + mat @ specfun.expit(-e / T),
                                 prof.omega, 1e-10, cfg.max_iter, cfg.damping)
        assert np.max(np.abs(prof.epsilon - eps)) <= 1e-12 * np.max(np.abs(eps))
        assert prof.iterations == calls

    @pytest.mark.parametrize("nu, calls", [(1.4, 9), (1.2, 10), (1.1 + 3j, 19)])
    def test_reports_anderson_calls_and_residual(self, nu, calls):
        prof = saddle.solve_profile_quasiperiodic(nu, 0.1, cfg=SolverConfig(grid_points=2048))
        assert prof.iterations == calls
        assert 0.0 <= prof.residual < 1e-10

    def test_memory_stays_linear_in_the_grid(self):
        # one 4096 x 4096 float64 matrix would take 128 MB; numpy reports its
        # buffers to tracemalloc
        cfg = SolverConfig(grid_points=4096)
        # a small solve first, so that imports and caches stay out of the traced peak
        saddle.solve_profile_quasiperiodic(1.4, 0.1, cfg=SolverConfig(grid_points=64))
        tracemalloc.start()
        try:
            saddle.solve_profile_quasiperiodic(1.1 + 3j, 0.1, cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_grid_is_equal_gauss_legendre_panels(self, n):
        cfg = SolverConfig(grid_points=n)
        T = 0.1
        prof = saddle.solve_profile_quasiperiodic(1.4, T, cfg=cfg)
        k, w = prof.nodes, prof.weights
        assert len(k) == len(w) == n
        k_max = cfg.k_max_sigmas * math.sqrt(T * math.log(1e10))  # default tol 1e-10
        x16, w16 = np.polynomial.legendre.leggauss(16)
        half = 0.5 * k_max / (n // 16)
        mids = half * (2 * np.arange(n // 16) + 1)
        assert np.allclose(k.reshape(-1, 16), mids[:, None] + half * x16,
                           rtol=0, atol=1e-15 * k_max)
        assert np.allclose(w.reshape(-1, 16), half * w16, rtol=1e-14, atol=0)
        # composite 16-node Gauss-Legendre is exact through degree 31
        for m in range(32):
            exact = k_max ** (m + 1) / (m + 1)
            assert abs(w @ k**m - exact) <= 1e-13 * exact

    def test_truncation_warning(self):
        cfg = SolverConfig(grid_points=128, k_max_sigmas=0.3)
        with pytest.warns(TruncationWarning):
            saddle.solve_profile_quasiperiodic(1.4, T=1.0, cfg=cfg)

    def test_occupancy_definition(self):
        cfg = SolverConfig(grid_points=256)
        prof = saddle.solve_profile_quasiperiodic(1.4, T=0.5, cfg=cfg)
        f = prof.occupancy()
        expected = 1.0 / (np.exp(prof.epsilon / prof.temperature) + 1.0)
        assert np.allclose(f, expected, rtol=1e-12, atol=1e-300)


class TestNoQuadratureOnHotPath:
    """The shift solves, the Fermi energy and the observables run on the
    quadrature-free polylog routes; quad stays an oracle."""

    def test_never_calls_quad(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.integrate.quad called on the hot path")

        monkeypatch.setattr(scipy.integrate, "quad", forbidden)
        for d in (1, 2, 3):
            for z_mu in (0.5, 3.0):
                sp = SpeciesSpec(statistics=FERMION, z_mu=z_mu)
                c = CouplingSpec(mode="h_T", value=0.6, d=d)
                sol = saddle.solve_delta_constant(d, sp, c, T=1.0)
                obs = thermo.observables_constant(sol, thermo.ThermoState(T=1.0, d=d), sp)
                assert math.isfinite(obs.free_energy)
            assert thermo.fermi_energy(d, 1.0, 0.1) > 0.0
        for nu, points in ((1.4, 2000), (1.1 + 3.0j, 600)):
            sol = saddle.solve_delta_quasi(nu, 0.1, SolverConfig(bracket_points=points))
            assert math.isfinite(sol.delta)
        # the bosonic scan starts at z = e**-1e-6, within 1e-3 of the branch
        # point, where d = 2 and 4 meet the integer orders 1, 2 and 3
        for d in (1, 2, 3, 4):
            for z_mu in (0.5, 0.999, 1.0):
                sp = SpeciesSpec(statistics=BOSON, z_mu=z_mu)
                c = CouplingSpec(mode="h_T", value=0.3, d=d)
                sol = saddle.solve_delta_constant(d, sp, c, T=1.0)
                obs = thermo.observables_constant(sol, thermo.ThermoState(T=1.0, d=d), sp)
                assert math.isfinite(obs.free_energy)
        sp = SpeciesSpec(statistics=BOSON)
        near = saddle.SaddleSolution(1e-5, math.exp(-1e-5), 0.0, 0)
        for d in (1, 3, 5):
            obs = thermo.observables_constant(near, thermo.ThermoState(T=1.0, d=d), sp)
            assert math.isfinite(obs.density) and obs.density > 0.0
