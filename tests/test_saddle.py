import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate

from gastba import riemann, saddle, specfun, thermo
from gastba.errors import (
    DomainError,
    EmptyBracketError,
    NoSolutionError,
    TruncationWarning,
)
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
        prof = saddle.solve_profile_quasiperiodic(0.9, T=1.0, kernel=spec)
        assert np.max(np.abs(prof.epsilon - prof.omega)) == 0.0

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
        # the discretized equation, assembled here from the kernel and the grid
        spec = riemann.make_kernel_spec(nu)
        k, w = prof.nodes, prof.weights

        def ker(x):
            out = np.zeros_like(x)
            out[x > 0] = (spec.gamma_nu * x[x > 0] ** (2 * nu - 1)).real
            return out

        mat = w / (2 * math.pi) * (ker(np.abs(k[:, None] - k)) + ker(k[:, None] + k))
        assert np.max(np.abs(prof.omega + mat @ prof.occupancy() - prof.epsilon)) < 1e-10
        # damped Picard steps from eps = k**2 reach the same point after 20000 steps
        assert prof.epsilon[0] == pytest.approx(0.12284936003936316, abs=1e-9)

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
