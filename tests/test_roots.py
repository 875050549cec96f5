import math

import numpy as np
import pytest
from scipy import optimize

from gastba import roots, specfun
from gastba.errors import ConvergenceError, DomainError, EmptyBracketError


def _same_root(f, a, b, xtol, rtol=8.9e-16):
    ours = roots.brent(f, a, b, xtol=xtol, rtol=rtol)
    ref = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
    assert abs(ours - ref) <= 1e-15 * max(1.0, abs(ref))
    return ours


class TestBrentMatchesBrentq:
    """The call sites' functions, a steep and a flat bracket, and tiny values."""

    def test_shift_scan_residuals(self):
        # _scan_roots: the fermionic constant-shift and the quasi-periodic
        # residuals, on the first sign change of a 200-point scan
        rng = np.random.default_rng(23)
        cases = [(rng.uniform(0.5, 1.5), rng.uniform(0.1, 1.0), math.log(rng.uniform(0.3, 3.0)),
                  1.0) for _ in range(8)]
        cases += [(complex(rng.uniform(1.05, 1.4), rng.uniform(1.0, 4.0)), 1.0, 0.0,
                   complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))) for _ in range(4)]
        for nu, h, log_zmu, pref in cases:
            def f(delta):
                li = specfun.polylog(nu, np.array([log_zmu - delta]), -1)
                return float(delta + h * (pref * li.value[0]).real)

            xs = np.linspace(-10.0, 10.0, 200)
            vals = [f(x) for x in xs]
            i = next(i for i in range(199) if vals[i] * vals[i + 1] < 0.0)
            _same_root(f, xs[i], xs[i + 1], 1e-15)

    def test_algebraic_2d(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            h, z_mu = rng.uniform(0.05, 4.0), rng.uniform(0.2, 1.0)
            z = _same_root(lambda x: x - (1.0 - z_mu * x) ** h, 1e-15, 1.0 - 1e-15, 1e-16)
            assert abs(z - (1.0 - z_mu * z) ** h) < 1e-14
            hf = rng.uniform(-0.9, 3.0)
            _same_root(lambda x: x - (1.0 + z_mu * x) ** (-hf), 1e-15, 32.0, 1e-16)

    def test_algebraic_2d_in_log_w(self):
        # saddle._solve_2d: F(e**t) = a e**t + log(1 - e**-e**t) - log z_mu
        rng = np.random.default_rng(37)
        for _ in range(20):
            a, log_zmu = rng.uniform(0.05, 4.0), rng.uniform(-3.0, 3.0)
            t = _same_root(lambda t: a * math.exp(t) + math.log1p(-math.exp(-math.exp(t)))
                           - log_zmu, -8.0, 7.0, 1e-16)
            assert abs(a * math.exp(t) + math.log(-math.expm1(-math.exp(t))) - log_zmu) < 1e-14

    def test_underflowing_interpolation(self):
        # f values near 1e-200: the inverse quadratic step's denominator
        # underflows to 0, and both take the bisection step there
        _same_root(lambda x: 1e-200 * math.expm1(x - 0.5), 0.0, 3.0, 1e-16)

    def test_fermi_energy_gap(self):
        for d, target in ((1, 0.3), (2, 5.0), (3, 40.0)):
            def gap(w):
                return -specfun.polylog_neg_exp(d / 2.0, w).real - target

            _same_root(gap, -20.0, 60.0, 1e-13)

    def test_steep_and_flat(self):
        _same_root(lambda x: math.atan(1e9 * (x - 1.0 / 3.0)), 0.0, 1.0, 1e-15)
        _same_root(lambda x: x**9 - 1e-30, -1.0, 2.0, 1e-15)
        _same_root(lambda x: math.expm1(x) - 1e-300, -1.0, 2.0, 1e-300)

    def test_fails_where_brentq_fails(self):
        # a root of multiplicity 7 stalls both within 100 steps at xtol 1e-15
        with pytest.raises(RuntimeError):
            optimize.brentq(lambda x: (x - 0.7) ** 7, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        with pytest.raises(ConvergenceError):
            roots.brent(lambda x: (x - 0.7) ** 7, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)


class TestBrentContract:
    def test_root_at_bracket_end(self):
        assert roots.brent(lambda x: x - 2.0, 2.0, 3.0, xtol=1e-12) == 2.0

    def test_same_sign_raises(self):
        with pytest.raises(EmptyBracketError):
            roots.brent(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)

    def test_non_finite_end_raises(self):
        with pytest.raises(DomainError):
            roots.brent(lambda x: math.nan, 0.0, 1.0, xtol=1e-12)

    def test_tolerances_checked(self):
        with pytest.raises(DomainError):
            roots.brent(lambda x: x, -1.0, 1.0, xtol=1e-12, rtol=1e-17)
        with pytest.raises(DomainError):
            roots.brent(lambda x: x, -1.0, 1.0, xtol=0.0)


class TestAnderson:
    def test_linear_map_beyond_undamped_reach(self):
        # x -> A x + b with eigenvalues -1.5, 0.9, 0.3 and 0.1: the plain step
        # x -> g(x) diverges along the -1.5 direction
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q @ np.diag([-1.5, 0.9, 0.3, 0.1]) @ q.T
        b = rng.standard_normal(4)
        x_star = np.linalg.solve(np.eye(4) - a, b)

        def g(x):
            return a @ x + b

        x = np.zeros(4)
        for _ in range(20):
            x = g(x)
        assert np.max(np.abs(x - x_star)) > 1e2
        x, res, _ = roots.anderson(g, np.zeros(4), 1e-12, 100, 1.0)
        assert res < 1e-12
        assert np.max(np.abs(x - x_star)) < 1e-10

    def test_extrapolation_out_of_domain_takes_plain_step(self):
        # g(x) = x/2 on x < 0: every extrapolation lands on the fixed point 0
        # itself, outside the domain, and the plain step replaces it
        def g(x):
            if np.any(x >= 0.0):
                raise DomainError("x must stay negative")
            return 0.5 * x

        x, res, _ = roots.anderson(g, -np.ones(1), 1e-10, 400, 0.5)
        assert res < 1e-10
        assert -2e-10 < x[0] < 0.0

    def test_domain_error_at_plain_step_propagates(self):
        err = DomainError("outside")

        def g(x):
            raise err

        with pytest.raises(DomainError) as info:
            roots.anderson(g, np.zeros(2), 1e-10, 400, 0.5)
        assert info.value is err

    def test_refuses_no_steps(self):
        with pytest.raises(DomainError):
            roots.anderson(lambda x: 0.5 * x, np.ones(2), 1e-12, 0, 0.5)

    def test_max_iter_raises(self):
        # x -> x + 1 has no fixed point
        with pytest.raises(ConvergenceError):
            roots.anderson(lambda x: x + 1.0, np.zeros(3), 1e-12, 25, 0.5)
