import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from gastba import specfun
from gastba.errors import DomainError, NearTrivialZeroWarning, PoleError

import oracles


class TestComplexOrder:
    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            specfun.ComplexOrder(math.nan, 0.0)
        with pytest.raises(DomainError):
            specfun.ComplexOrder(0.5, math.inf)

    def test_converts_to_complex(self):
        assert complex(specfun.ComplexOrder(0.5, 14.0)) == 0.5 + 14.0j


class TestGamma:
    def test_identity_case(self):
        assert specfun.gamma(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_half(self):
        assert specfun.gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_complex_point_against_integral_oracle(self):
        # frozen from the defining-integral quadrature oracle
        live = oracles.gamma_defining_integral(0.75 + 2j)
        assert live == pytest.approx(oracles.GAMMA_075_2I, abs=5e-14)
        assert specfun.gamma(0.75 + 2j) == pytest.approx(oracles.GAMMA_075_2I, rel=1e-12)

    def test_poles(self):
        for bad in (0.0, -1.0, -2.0, -7.0):
            with pytest.raises(PoleError):
                specfun.gamma(bad)

    def test_real_on_the_real_axis(self):
        for x in (-7.5, -1.5, -0.3, 0.5, 3.0, 20.25):
            g = specfun.gamma(x)
            assert g.imag == 0.0
            assert g.real == pytest.approx(math.gamma(x), rel=1e-13)

    def test_twelve_digits_within_disk(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(z) > 50 or (z.imag == 0 and z.real <= 0):
                continue
            if z.real <= 0 and abs(z.real - round(z.real)) < 1e-2 and abs(z.imag) < 1e-2:
                continue
            ref = complex(scipy.special.gamma(z))
            if not (math.isfinite(ref.real) and math.isfinite(ref.imag)):
                continue
            assert specfun.gamma(z) == pytest.approx(ref, rel=1e-12)

    def test_reflection_duplication_identity(self):
        # sin(pi nu) Gamma(1-2 nu) Gamma(nu) = sqrt(pi) 2**(-2 nu) Gamma(1/2 - nu)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 50:
            nu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(2 * nu.real - round(2 * nu.real)), abs(nu.real - round(nu.real))) < 0.05 and abs(nu.imag) < 0.05:
                continue
            lhs = specfun.sinpi(nu) * specfun.gamma(1 - 2 * nu) * specfun.gamma(nu)
            rhs = math.sqrt(math.pi) * 2.0 ** (-2 * nu) * specfun.gamma(0.5 - nu)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
            checked += 1


class TestLogGamma:
    """The in-repo principal branch against scipy's loggamma (Hare 1997 as
    well) and, on a smaller sample, against mpmath. One ulp of log Gamma is
    over 1e-13 where |log Gamma| > 512, so the bound is 1e-13 plus 4 ulp."""

    @staticmethod
    def _grid():
        rng = np.random.default_rng(41)
        wide = rng.uniform(-20, 60, 20000) + 1j * rng.uniform(-400, 400, 20000)
        small = rng.uniform(-20, 60, 20000) + 1j * rng.uniform(-8, 8, 20000)
        axis = rng.uniform(-20, 0, 4000) + 1j * rng.choice(
            [1e-300, 1e-12, -1e-12, 1e-6, -1e-6, 0.0], 4000)
        z = np.concatenate([wide, small, axis])
        return z[np.abs(z - np.round(z.real)) > 1e-9]  # off the poles

    def test_matches_scipy_on_principal_branch(self):
        z = self._grid()
        ours = specfun.loggamma(z)
        ref = scipy.special.loggamma(z)
        assert np.all(np.abs(ours - ref) <= 1e-13 + 4 * np.spacing(np.abs(ref)))

    def test_matches_mpmath(self):
        rng = np.random.default_rng(43)
        z = self._grid()[rng.choice(44000, 300, replace=False)]
        for x in z:
            ref = complex(mp.loggamma(mp.mpc(x)))
            assert abs(specfun.loggamma(x) - ref) <= 1e-13 + 4 * np.spacing(abs(ref))

    def test_scalar_and_array_agree(self):
        z = np.array([0.3 + 0.2j, -4.5 + 1e-9j, 12.0 - 3.0j, 0.5 + 300j, 2.0])
        arr = specfun.loggamma(z)
        assert arr.shape == z.shape
        for x, v in zip(z, arr):
            assert isinstance(specfun.loggamma(x), complex)
            assert specfun.loggamma(x) == v

    def test_real_positive_is_real(self):
        for x in (0.25, 1.0, 2.5, 30.0):
            lg = specfun.loggamma(x)
            assert lg.imag == 0.0
            assert lg.real == pytest.approx(math.lgamma(x), abs=4e-15)


class TestBernoulliTable:
    def test_literals_and_tail(self):
        b = specfun._bernoulli_ratios(40)
        for j in range(1, 41):
            ref = float(mp.bernoulli(2 * j) / mp.factorial(2 * j))
            assert b[j - 1] == pytest.approx(ref, rel=4e-16)


class TestExpit:
    """Both tails keep full relative accuracy. scipy's expit, itself up to
    2 ulp from the correctly rounded value, flushes to 0 below -709.8."""

    def test_within_two_ulp_of_mpmath(self):
        rng = np.random.default_rng(47)
        x = np.concatenate([rng.uniform(-745, 750, 1500), rng.uniform(-40, 40, 1500)])
        ours = specfun.expit(x)
        with mp.workdps(40):
            ref = np.array([float(1 / (1 + mp.exp(-mp.mpf(v)))) for v in x])
        assert np.all(np.abs(ours - ref) <= 2 * np.spacing(np.maximum(ref, 5e-324)))

    def test_against_scipy(self):
        x = np.linspace(-750.0, 750.0, 300001)
        ours = specfun.expit(x)
        ref = scipy.special.expit(x)
        normal = x > -700.0
        # scipy takes 1/(1 + e**-x) with the C library's exp, this e/(1 + e)
        # below 0 with numpy's: each rounds within 2 ulp, so they differ by 4 at most
        ulp = np.spacing(np.minimum(ours, ref))[normal]
        assert np.all(np.abs(ours - ref)[normal] <= 4 * ulp)
        assert np.array_equal(ours[~normal], np.exp(x[~normal]))
        assert specfun.expit(-740.0) > 0.0 and specfun.expit(750.0) == 1.0


class TestZeta:
    def test_two(self):
        assert specfun.zeta(2.0).real == pytest.approx(math.pi**2 / 6, rel=1e-13)

    def test_four(self):
        assert specfun.zeta(4.0).real == pytest.approx(math.pi**4 / 90, rel=1e-13)

    def test_zero(self):
        assert specfun.zeta(0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            specfun.zeta(1.0)

    def test_near_trivial_zero_warns(self):
        with pytest.warns(NearTrivialZeroWarning):
            specfun.zeta(-2.0 + 1e-9)

    def test_against_high_precision_oracle(self):
        pts = [0.5, 1.5, 3.0, 0.5 + 14j, 0.3 + 7.5j, 0.9 + 0.1j]
        for nu in pts:
            ref = complex(oracles.mp_zeta(nu))
            assert specfun.zeta(nu) == pytest.approx(ref, rel=1e-12)

    def test_reflection_consistency_on_strip(self):
        # zeta(nu) vs the functional-equation route, built here independently
        rng = np.random.default_rng(3)
        for _ in range(100):
            nu = complex(rng.uniform(0.05, 0.95), rng.uniform(-25, 25))
            chi = (
                2.0**nu
                * math.pi ** (nu - 1)
                * specfun.sinpi(nu / 2)
                * complex(scipy.special.gamma(1 - nu))
            )
            direct = specfun.zeta(nu)
            via_reflection = chi * specfun.zeta(1 - nu)
            assert abs(direct - via_reflection) < 1e-10 * (1 + abs(direct))

    def test_negative_axis_values(self):
        assert specfun.zeta(-1.0).real == pytest.approx(-1.0 / 12.0, rel=1e-12)
        with pytest.warns(NearTrivialZeroWarning):
            assert abs(specfun.zeta(-2.0)) < 1e-15


class TestPolylogSeries:
    def test_li1_is_log(self):
        assert specfun.polylog_series(1.0, 0.5).real == pytest.approx(
            math.log(2), rel=1e-14
        )

    def test_li3_near_one_approaches_zeta3(self):
        val = specfun.polylog_series(3.0, 1 - 1e-9).real
        assert val == pytest.approx(oracles.ZETA_3, abs=5e-9)

    def test_minus_one_matches_eta_identity(self):
        nu = 0.5 + 14j
        lhs = -specfun.polylog_series(nu, -1.0)
        rhs = (1 - 2 ** (1 - nu)) * specfun.zeta(nu)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.polylog_series(2.0, 1.0)
        with pytest.raises(DomainError):
            specfun.polylog_series(2.0, -1.5)
        with pytest.raises(DomainError):
            specfun.polylog_series(-0.5, -1.0)

    def test_zero_argument(self):
        assert specfun.polylog_series(1.7, 0.0) == 0

    def test_nonpositive_order_near_one(self):
        # expansion about z = 1; the power series needs millions of terms here
        z = 0.99999
        assert specfun.polylog_series(-1.0, z).real == pytest.approx(
            z / (1 - z) ** 2, rel=1e-10
        )
        r = specfun.polylog_series_eval(-0.5 + 1j, 0.999)
        ref = complex(mp.polylog(mp.mpc(-0.5, 1.0), mp.mpf("0.999")))
        assert r.value == pytest.approx(ref, rel=1e-10)
        assert abs(r.value - ref) <= r.abs_error_estimate

    def test_nonpositive_order_negative_argument(self):
        z = -0.9
        assert specfun.polylog_series(-1.0, z).real == pytest.approx(
            z / (1 - z) ** 2, rel=1e-13
        )


class TestExpansionAboutPlusOne:
    """Li_nu(z) for e**-1 < z < 1 takes the expansion about z = 1, and at
    positive integer orders its log limit, never the Bose integral."""

    @staticmethod
    def _orders():
        rng = np.random.default_rng(53)
        near = [n + s * d for n in (1, 2, 3) for s in (-1, 1)
                for d in np.exp(rng.uniform(math.log(1e-6), math.log(1e-4), 2))]
        near = [x for x in near if x > 0]
        wide = [complex(rng.uniform(0.05, 5.0), rng.uniform(-6.0, 6.0)) for _ in range(10)]
        return [0.5, 1.5, 2.5, 3.5, 0.7 + 3j, 1.3 - 2j] + near + wide

    def test_error_estimate_bounds_true_error(self):
        rng = np.random.default_rng(59)
        for nu in self._orders():
            for gap in np.exp(rng.uniform(math.log(1e-10), math.log(9.9e-4), 3)):
                z = 1.0 - gap
                r = specfun.polylog_series_eval(nu, z)
                with mp.workdps(40):
                    ref = complex(mp.polylog(mp.mpc(nu), mp.mpf(z)))
                err = abs(r.value - ref)
                assert err <= r.abs_error_estimate, (nu, gap, err, r.abs_error_estimate)
                assert r.abs_error_estimate <= 1e-8 * abs(ref)

    def test_order_just_above_one(self):
        # 1 - 2**(1-w) cancels at w -> 1; expm1 keeps the scale accurate
        r = specfun.polylog_series_eval(1.0001, 1.0 - 1e-6)
        ref = complex(mp.polylog(mp.mpf("1.0001"), mp.mpf(1.0 - 1e-6)))
        assert abs(r.value - ref) <= 1e-11 * abs(ref)
        assert abs(r.value - ref) <= r.abs_error_estimate

    def test_no_quadrature_at_any_order(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.integrate.quad called")

        monkeypatch.setattr(scipy.integrate, "quad", forbidden)
        for nu in (0.5, 1.5, 2.5, 0.7 + 3j, 1.0, 2.0, 3.0):
            specfun.polylog_series(nu, 1.0 - 1e-6)

    @pytest.mark.parametrize("nu", [2.0 + 1e-12, 1.0 + 1e-10, 3.0 - 1e-9])
    def test_near_integer_orders_report_their_loss(self, nu):
        # Gamma(1 - nu) (-mu)**(nu - 1) and the zeta(nu - k) term near its pole
        # cancel as 1/|nu - n|: digits are lost, and the bound says so
        z = 1.0 - 1e-4
        r = specfun.polylog(nu, math.log(z), 1)
        with mp.workdps(50):
            ref = complex(mp.polylog(mp.mpf(nu), mp.exp(mp.mpf(math.log(z)))))
        assert abs(r.value - ref) <= r.abs_error_estimate


class TestFermiDiracPolylog:
    def test_empty_gas_limit(self):
        y = 1e-6
        val = specfun.fermi_dirac_polylog(2.0, y)
        assert val.real == pytest.approx(-y, abs=1e-11)

    def test_unit_argument_matches_eta(self):
        # -Li_nu(-1) = (1 - 2**(1-nu)) zeta(nu)
        val = specfun.fermi_dirac_polylog(0.5, 1.0)
        eta_half = (1 - 2**0.5) * oracles.ZETA_HALF
        assert val.real == pytest.approx(-eta_half, rel=1e-9)
        assert val.real == pytest.approx(-oracles.FREE_1D_DENSITY_FACTOR, rel=1e-9)

    def test_degenerate_asymptotics(self):
        # Li_{3/2}(-e**40) ~ -(40)**1.5 / Gamma(5/2)
        val = specfun.fermi_dirac_polylog(1.5, math.exp(40.0))
        asymptotic = -(40.0**1.5) / specfun.gamma(2.5).real
        assert val.real == pytest.approx(asymptotic, rel=2e-3)

    def test_continuation_agrees_with_series_inside_disk(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            nu = complex(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            y = rng.uniform(0.05, 1.0)
            quad_val = specfun.fermi_dirac_polylog(nu, y)
            series_val = specfun.polylog_series(nu, -y)
            assert abs(quad_val - series_val) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.fermi_dirac_polylog(-0.5, 1.0)
        with pytest.raises(DomainError):
            specfun.fermi_dirac_polylog(2.0, -1.0)


def _mp_li_neg_exp(nu, mu) -> complex:
    with mp.workdps(20):
        return complex(mp.polylog(mp.mpc(nu.real, nu.imag), -mp.exp(mp.mpf(mu))))


class TestPolylogNegExp:
    """Li_nu(-e**mu), and in the calibration Li_nu(e**mu), from the
    quadrature-free routes of polylog."""

    def test_error_estimate_bounds_true_error(self):
        # standing calibration against mpmath; one sample in twenty lies in
        # (-ln 2, 1.5], where mpmath is slowest and the routes change
        rng = np.random.default_rng(2024)
        for i in range(320):
            nu = complex(rng.uniform(0.1, 3.0), rng.uniform(-10.0, 10.0))
            if i % 20 == 1:
                mu = rng.uniform(-math.log(2.0), 1.5)
            elif i % 2:
                mu = rng.uniform(-40.0, 2.0)
            else:
                mu = math.exp(rng.uniform(math.log(2.0), math.log(2e5)))
            r = specfun.polylog_neg_exp_eval(nu, mu)
            ref = _mp_li_neg_exp(nu, mu)
            err = abs(r.value - ref)
            assert err <= r.abs_error_estimate, (nu, mu, err, r.abs_error_estimate)
            # and the bound is tight enough to certify near double precision
            assert r.abs_error_estimate <= 1e-11 * abs(ref), (nu, mu, r.abs_error_estimate)
        # the positive side, Li_nu(e**mu) for mu < 0: integer orders, Re nu <= 0,
        # and one sample in four within 1e-3 of z = 1, down to 1e-9
        for i in range(160):
            if i % 4 == 0:
                nu = complex(rng.integers(1, 5))
            elif i % 4 == 1:
                nu = complex(rng.uniform(-3.0, 0.0), rng.uniform(-10.0, 10.0))
            else:
                nu = complex(rng.uniform(0.1, 3.0), rng.uniform(-10.0, 10.0))
            if i % 8 < 2:
                mu = -math.exp(rng.uniform(math.log(1e-9), math.log(1e-3)))
            else:
                mu = rng.uniform(-40.0, 0.0)
            r = specfun.polylog(nu, mu, 1)
            with mp.workdps(30):
                ref = complex(mp.polylog(mp.mpc(nu.real, nu.imag), mp.exp(mp.mpf(mu))))
            err = abs(r.value - ref)
            assert err <= r.abs_error_estimate, (nu, mu, err, r.abs_error_estimate)
            assert r.abs_error_estimate <= 1e-11 * abs(ref), (nu, mu, r.abs_error_estimate)

    def test_high_orders_near_minus_one(self):
        # the expansion about z = -1 avoids the cancellation that the direct
        # Hurwitz terms of the inversion formula suffer as mu -> 0+
        for nu in (2.5, 3.0):
            for mu in (1e-9, 1e-3, 0.2, 1.0, 1.5):
                ref = _mp_li_neg_exp(complex(nu), mu)
                assert specfun.polylog_neg_exp(nu, mu) == pytest.approx(ref, rel=1e-14)

    def test_deep_fermi_sea(self):
        mu = 84898.28
        r = specfun.polylog_neg_exp_eval(0.9, mu)
        assert r.value == pytest.approx(_mp_li_neg_exp(0.9 + 0j, mu), rel=1e-14)

    def test_array_matches_scalar(self):
        mu = np.array([[-50.0, -1.0, -0.3], [0.0, 0.7, 60.0]])
        for nu in (0.5, 1.3 - 2.0j):
            r = specfun.polylog(nu, mu, -1)
            assert r.value.shape == mu.shape == r.abs_error_estimate.shape
            for v, e, x in zip(r.value.ravel(), r.abs_error_estimate.ravel(), mu.ravel()):
                one = specfun.polylog_neg_exp_eval(nu, x)
                assert abs(v - one.value) <= e + one.abs_error_estimate

    def test_unit_argument_is_minus_eta(self):
        nu = 0.5 + 14j
        assert specfun.polylog_neg_exp(nu, 0.0) == pytest.approx(
            -specfun.dirichlet_eta(nu), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.polylog_neg_exp(-0.5, 0.5)
        with pytest.raises(DomainError):
            specfun.polylog(1.5, np.array([0.0, math.nan]), -1)
        for mu in (0.0, 1e-12, 2.0):  # z >= 1: the branch cut
            with pytest.raises(DomainError):
                specfun.polylog(1.5, mu, 1)
        with pytest.raises(DomainError):
            specfun.polylog(1.5, -1.0, 0)

    @pytest.mark.parametrize("t", [100.0, 150.0, 200.0, 250.0, 300.0, 600.0])
    @pytest.mark.parametrize("mu", [0.05, 0.5])
    def test_large_imaginary_order_bounded_or_refused(self, mu, t):
        # nu = 0.7 + i t: the expansion about z = -1, whose coefficients grow
        # like (t/pi)**k, serves mu up to an edge that falls like 1/t, the
        # inversion formula beyond it. Each value lies within its bound of
        # the reference; the expansion refuses past ETA_T_MAX
        nu = complex(0.7, t)
        ref = oracles.LI_NEG_EXP_07.get((mu, t))
        if ref is None:
            with pytest.raises(DomainError):
                specfun.polylog(nu, mu, -1)
            return
        r = specfun.polylog(nu, mu, -1)
        assert abs(r.value - ref) <= r.abs_error_estimate
        if t == 100.0:
            assert abs(r.value - ref) <= 1e-12 * abs(ref)


class TestBosePolylogIntegral:
    def test_dilog_half(self):
        assert specfun.bose_polylog_integral(2.0, 0.5).real == pytest.approx(
            oracles.LI2_HALF, rel=1e-10
        )

    def test_small_argument_leading_term(self):
        z = 1e-8
        assert specfun.bose_polylog_integral(1.3, z).real == pytest.approx(z, rel=1e-6)

    def test_near_one_matches_series(self):
        a = specfun.bose_polylog_integral(1.5, 0.99)
        b = specfun.polylog(1.5, math.log(0.99), 1).value
        assert abs(a - b) < 1e-9

    def test_domain(self):
        for bad in (1.0, 1.2, 0.0, -0.3):
            with pytest.raises(DomainError):
                specfun.bose_polylog_integral(2.0, bad)

    def test_series_integral_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            nu = complex(rng.uniform(0.6, 4.0), rng.uniform(-1.5, 1.5))
            z = rng.uniform(0.01, 0.95)
            a = specfun.polylog_series(nu, z)
            b = specfun.bose_polylog_integral(nu, z)
            assert abs(a - b) < 1e-9


class TestRogersDilog:
    def test_half(self):
        assert specfun.rogers_dilog(0.5) == pytest.approx(math.pi**2 / 12, abs=1e-13)

    def test_zero(self):
        assert specfun.rogers_dilog(0.0) == 0.0

    def test_golden_mean(self):
        r = (math.sqrt(5) - 1) / 2
        assert specfun.rogers_dilog(r) == pytest.approx(math.pi**2 / 10, abs=1e-12)

    def test_limit_at_one(self):
        assert specfun.rogers_dilog(1.0) == pytest.approx(math.pi**2 / 6, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.rogers_dilog(1.2)

    def test_euler_functional_equation(self):
        rng = np.random.default_rng(13)
        for z in rng.uniform(1e-6, 1 - 1e-6, size=300):
            lhs = specfun.rogers_dilog(z) + specfun.rogers_dilog(1 - z)
            assert lhs == pytest.approx(math.pi**2 / 6, abs=1e-11)

    def test_landen_functional_equation(self):
        rng = np.random.default_rng(17)
        for z in rng.uniform(1e-6, 1 - 1e-6, size=300):
            lhs = specfun.rogers_dilog(z) + specfun.rogers_dilog(-z / (1 - z))
            assert lhs == pytest.approx(0.0, abs=1e-11)

    def test_matches_spence_form(self):
        z = np.linspace(-50.0, 1.0, 20001)[:-1]
        z = z[z != 0.0]
        ours = np.array([specfun.rogers_dilog(x) for x in z])
        ref = scipy.special.spence(1.0 - z) + 0.5 * np.log(np.abs(z)) * np.log1p(-z)
        assert np.all(np.abs(ours - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_li2_against_mpmath(self):
        rng = np.random.default_rng(61)
        xs = np.concatenate([rng.uniform(-50, 1, 100), -np.exp(rng.uniform(-20, 8, 50)),
                             1 - np.exp(rng.uniform(-30, -1, 50))])
        for x in xs:
            ref = float(mp.polylog(2, x))
            assert specfun._li2_real(x) == pytest.approx(ref, rel=1e-15, abs=1e-16)

    def test_matches_series_route(self):
        rng = np.random.default_rng(19)
        for z in rng.uniform(-0.99, 0.99, size=50):
            if z == 0:
                continue
            series_li2 = specfun.polylog_series(2.0, float(z)).real
            expected = series_li2 + 0.5 * math.log(abs(z)) * math.log1p(-z)
            assert specfun.rogers_dilog(float(z)) == pytest.approx(expected, abs=1e-12)


class TestXiFunction:
    def test_xi_two(self):
        assert specfun.xi_function(2.0).real == pytest.approx(math.pi / 6, rel=1e-13)

    def test_duality_pair(self):
        a = specfun.xi_function(0.3 + 5j)
        b = specfun.xi_function(0.7 - 5j)
        assert abs(a - b) < 1e-10

    def test_small_at_critical_zero(self):
        at_zero = abs(specfun.xi_function(0.5 + 14.134725141734694j))
        nearby = abs(specfun.xi_function(0.5 + 15.0j))
        assert at_zero < 1e-4 * nearby

    def test_poles(self):
        for bad in (0.0, 1.0):
            with pytest.raises(PoleError):
                specfun.xi_function(bad)


class TestEvalResults:
    def test_error_estimates_within_tolerance(self):
        r = specfun.dirichlet_eta_eval(0.5 + 3j)
        assert r.abs_error_estimate <= 1e-12
        assert r.terms_or_nodes_used > 0
        ref = complex(oracles.mp_eta(0.5 + 3j))
        assert abs(r.value - ref) <= 10 * r.abs_error_estimate + 1e-14

    def test_eta_line_matches_pointwise(self):
        ts = np.linspace(10.0, 60.0, 300)
        line = specfun.dirichlet_eta_line(0.5, ts)
        for t, g in zip(ts, line):
            assert abs(g - specfun.dirichlet_eta(complex(0.5, t))) < 1e-13

    def test_fermi_quadrature_refuses_underflowing_gamma(self):
        # |Gamma(1/2 + 600.5 i)| ~ e**-942 is below the normal doubles
        with pytest.raises(DomainError):
            specfun.fermi_dirac_polylog_eval(0.5 + 600.5j, 1.0, tol=math.inf)

    @pytest.mark.parametrize("log_y", [705.0, 709.0])
    def test_fermi_quadrature_near_the_largest_double(self, log_y):
        # the oracle takes y itself, so log y stops at log(DBL_MAX) ~ 709.8
        for nu in (0.9, 1.5, 0.5 + 2j):
            q = specfun.fermi_dirac_polylog_eval(nu, math.exp(log_y))
            r = specfun.polylog(nu, log_y, -1)
            assert abs(q.value - r.value) <= q.abs_error_estimate + r.abs_error_estimate

    def test_fermi_eval_reports_nodes(self):
        r = specfun.fermi_dirac_polylog_eval(1.5, 2.0)
        assert r.terms_or_nodes_used > 0
        assert r.abs_error_estimate < 1e-9


class TestEtaHeight:
    """The accelerated eta series holds double precision up to
    ETA_T_MAX = 550; its estimate bounds the error against mpmath there
    without being orders of magnitude loose, and beyond it both eta routes
    refuse with DomainError."""

    @pytest.mark.parametrize("t", [100.0, 400.0, 550.0])
    def test_estimate_bounds_and_is_tight(self, t):
        nu = complex(0.5, t)
        r = specfun.dirichlet_eta_eval(nu)
        err = abs(r.value - complex(oracles.mp_eta(nu)))
        assert err <= r.abs_error_estimate <= 100.0 * max(err, 1e-15 * abs(r.value))
        line = specfun.dirichlet_eta_line(0.5, [t])[0]
        assert abs(line - r.value) <= r.abs_error_estimate

    @pytest.mark.parametrize("t", [600.0, 700.0, 1000.0, 5000.0])
    def test_refuses_past_the_height(self, t):
        with pytest.raises(DomainError):
            specfun.dirichlet_eta_eval(complex(0.5, t))
        with pytest.raises(DomainError):
            specfun.dirichlet_eta_line(0.5, [t - 1.0, t])
        with pytest.raises(DomainError):
            specfun.dirichlet_eta(complex(0.5, -t))


class TestZetaEulerMaclaurin:
    def test_bound_holds_on_the_critical_line(self):
        rng = np.random.default_rng(41)
        ts = np.concatenate([rng.uniform(0.0, 550.0, 40), [0.0, 550.0]])
        for t in ts:
            nu = complex(0.5, t)
            r = specfun.zeta_em_eval(nu)
            assert abs(r.value - complex(oracles.mp_zeta(nu))) <= r.abs_error_estimate
            assert r.abs_error_estimate < 1e-10

    def test_array_matches_scalar(self):
        nus = 0.5 + 1j * np.array([3.0, 14.134725141734695, 250.0])
        r = specfun.zeta_em_eval(nus)
        for nu, v, e in zip(nus, r.value, r.abs_error_estimate):
            s = specfun.zeta_em_eval(nu)
            assert abs(v - s.value) <= 1e-15 * max(abs(s.value), 1.0)
            assert e == pytest.approx(s.abs_error_estimate, rel=1e-12)

    def test_off_the_line_and_pole(self):
        for nu in (2.0, 0.3 + 7j, -1.5 + 2j):
            r = specfun.zeta_em_eval(nu)
            assert abs(r.value - complex(oracles.mp_zeta(nu))) <= r.abs_error_estimate
        with pytest.raises(PoleError):
            specfun.zeta_em_eval(1.0)
