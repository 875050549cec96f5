import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from gastba import riemann, specfun
from gastba.errors import (
    DomainError,
    ExcludedOrderError,
    PoleWarning,
    SingularityError,
)

import oracles

_LN2 = math.log(2.0)


def _h_nu_sinh_form(nu: complex) -> complex:
    return -(2.0 ** ((nu - 3.0) / 2.0)) / (
        2.0 * math.pi * cmath.sinh((1.0 - nu) * _LN2 / 2.0)
    )


class TestKernelSpec:
    def test_excluded_at_one(self):
        with pytest.raises(ExcludedOrderError):
            riemann.make_kernel_spec(1.0)

    def test_coupling_matches_sinh_form(self):
        for nu in (0.9, 0.75 + 2j, 0.5 + 14.13j, 1.3 - 0.4j):
            assert riemann.quasi_coupling(nu) == pytest.approx(
                _h_nu_sinh_form(complex(nu)), rel=1e-13
            )

    def test_constants_finite_and_consistent(self):
        spec = riemann.make_kernel_spec(0.75 + 2j)
        # b through the Gamma-duplication route must agree
        nu = complex(spec.nu)
        b_alt = 2.0 ** (2 * nu) / (
            (1 - 2 ** (1 - nu)) * math.sqrt(math.pi) * specfun.gamma(0.5 - nu)
        )
        assert spec.b_nu == pytest.approx(b_alt, rel=1e-10)
        assert spec.h_nu == pytest.approx(
            spec.gamma_nu * specfun.gamma(nu) / (2 * math.pi), rel=1e-12
        )
        assert spec.sigma == pytest.approx(1.5)
        assert spec.alpha == pytest.approx(2.0)

    def test_b_consistency_random(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 30:
            nu = complex(rng.uniform(0.55, 1.45), rng.uniform(-3, 3))
            if abs(nu.imag) < 0.05 and abs(2 * nu.real - round(2 * nu.real)) < 0.05:
                continue
            spec = riemann.make_kernel_spec(nu)
            b_alt = 2.0 ** (2 * nu) / (
                (1 - 2 ** (1 - nu)) * math.sqrt(math.pi) * specfun.gamma(0.5 - nu)
            )
            assert abs(spec.b_nu - b_alt) <= 1e-10 * abs(b_alt)
            checked += 1


class TestKernelClosedForm:
    def test_vanishes_at_small_k(self):
        spec = riemann.make_kernel_spec(0.8)
        vals = [abs(riemann.kernel_closed_form(spec, k)) for k in (1e-8, 1e-4, 1e-2)]
        assert vals[0] < vals[1] < vals[2]
        assert riemann.kernel_closed_form(spec, 0.0) == 0.0

    def test_power_law_ratio(self):
        spec = riemann.make_kernel_spec(0.8)
        ratio = riemann.kernel_closed_form(spec, 2.0) / riemann.kernel_closed_form(spec, 1.0)
        assert ratio == pytest.approx(2.0 ** (2 * 0.8 - 1.0), rel=1e-12)

    def test_equals_gamma_route(self):
        for nu in (0.8, 0.75 + 1j, 1.2 - 0.7j):
            spec = riemann.make_kernel_spec(nu)
            for k in (0.3, 1.0, 2.7):
                direct = -(spec.gamma_nu * k ** (2 * complex(nu) - 1)).real
                assert riemann.kernel_closed_form(spec, k) == pytest.approx(
                    direct, rel=1e-11
                )

    def test_pole_warning_near_half(self):
        spec = riemann.make_kernel_spec(0.51)
        with pytest.warns(PoleWarning):
            riemann.kernel_closed_form(spec, 1.0)


class TestKernelFromPotential:
    def test_matches_closed_form(self):
        spec = riemann.make_kernel_spec(0.8)
        a = riemann.kernel_from_potential(spec, 1.0)
        b = riemann.kernel_closed_form(spec, 1.0)
        assert a == pytest.approx(b, rel=1e-6)

    def test_complex_order_matches(self):
        spec = riemann.make_kernel_spec(0.75 + 1j)
        a = riemann.kernel_from_potential(spec, 1.0)
        b = riemann.kernel_closed_form(spec, 1.0)
        assert a == pytest.approx(b, rel=1e-5)

    def test_near_boundary_reports_larger_relative_error(self):
        spec = riemann.make_kernel_spec(0.51)
        with pytest.warns(PoleWarning):
            closed = riemann.kernel_closed_form(spec, 1.0)
        r = riemann.kernel_from_potential_eval(spec, 1.0)
        assert math.isfinite(r.value.real)
        interior = riemann.kernel_from_potential_eval(riemann.make_kernel_spec(0.9), 1.0)
        rel_boundary = r.abs_error_estimate / abs(r.value)
        rel_interior = interior.abs_error_estimate / abs(interior.value)
        assert rel_boundary > 5 * rel_interior
        assert r.value.real == pytest.approx(closed, rel=1e-3)

    def test_domain(self):
        # construction at Re nu = 0.4 is fine; the integral itself is restricted
        spec = riemann.make_kernel_spec(0.4)
        with pytest.raises(DomainError):
            riemann.kernel_from_potential(spec, 1.0)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 20:
            nu = complex(rng.uniform(0.55, 1.45), rng.uniform(-2.0, 2.0))
            if abs(2 * nu - 1) < 0.1:
                continue
            k = rng.uniform(0.25, 3.0)
            spec = riemann.make_kernel_spec(nu)
            a = riemann.kernel_from_potential(spec, k)
            b = riemann.kernel_closed_form(spec, k)
            assert abs(a - b) <= 1e-5 * max(abs(b), 1e-10)
            checked += 1


class TestPotentialRealspace:
    def test_pure_power_law_at_real_order(self):
        spec = riemann.make_kernel_spec(0.9)
        v1 = riemann.potential_realspace(spec, 1.0)
        v2 = riemann.potential_realspace(spec, 2.0)
        assert v2 == pytest.approx(v1 * 2.0 ** (-spec.sigma), rel=1e-12)
        assert v1 == pytest.approx(spec.b_nu.real, rel=1e-12)

    def test_log_periodic_sign_flip(self):
        # V(x)*|x|**sigma = |b| cos(2 alpha log|x| + phase) flips sign after
        # a half period of the cosine, i.e. when log|x| advances by pi/(2 alpha)
        spec = riemann.make_kernel_spec(0.75 + 2j)
        alpha = spec.alpha
        for x in (0.7, 1.0, 1.9):
            lhs = riemann.potential_realspace(spec, x * math.exp(math.pi / (2 * alpha)))
            lhs *= (x * math.exp(math.pi / (2 * alpha))) ** spec.sigma
            rhs = -riemann.potential_realspace(spec, x) * x**spec.sigma
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_scaling_check_complex_order(self):
        spec = riemann.make_kernel_spec(0.75 + 2j)
        nu = complex(spec.nu)
        for x in (1.0, math.exp(math.pi / 2)):
            expected = (spec.b_nu * cmath.exp(-2 * nu * math.log(x))).real
            assert riemann.potential_realspace(spec, x) == pytest.approx(expected)

    def test_singularity(self):
        spec = riemann.make_kernel_spec(0.9)
        with pytest.raises(SingularityError):
            riemann.potential_realspace(spec, 0.0)


class TestFindZeros:
    def test_first_zero_in_narrow_window(self):
        cands = riemann.find_zeros(0.5, 14.0, 14.3)
        assert len(cands) == 1
        c = cands[0]
        assert c.refined
        assert complex(c.nu).imag == pytest.approx(oracles.CRITICAL_LINE_ZEROS[0], abs=1e-6)
        assert c.abs_zeta < 1e-8

    def test_quadrature_oracle_refuses_large_heights(self):
        # Gamma(1/2 + 600.5 i) underflows: a typed error, not ZeroDivisionError
        with pytest.raises(DomainError):
            riemann.zeta_via_integral_eval(0.5 + 600.5j)
        with pytest.raises(DomainError):
            riemann.find_zeros(0.5, 600.0, 602.0)

    def test_first_ten_zeros_against_mpmath(self):
        cands = riemann.find_zeros(0.5, 10.0, 50.0)
        with mp.workdps(20):
            want = [float(mp.zetazero(n).imag) for n in range(1, 11)]
        assert [c.refined for c in cands] == [True] * 10
        for c, t in zip(cands, want):
            assert complex(c.nu).imag == pytest.approx(t, abs=1e-10)

    def test_off_line_window_is_empty(self):
        assert riemann.find_zeros(0.9, 12.0, 16.0) == []

    def test_no_zeros_below_first(self):
        assert riemann.find_zeros(0.5, 0.0, 5.0) == []

    def test_domain(self):
        with pytest.raises(DomainError):
            riemann.find_zeros(1.2, 0.0, 10.0)
        with pytest.raises(DomainError):
            riemann.find_zeros(0.5, 10.0, 5.0)


class TestVerifyZeroDelta:
    def test_refined_zero_residual_small(self):
        cands = riemann.find_zeros(0.5, 14.0, 14.3)
        res = riemann.verify_zero_delta(cands[0], [0.5, 1.0, 2.0])
        assert res < 1e-8

    def test_non_zero_order_residual_large(self):
        fake = riemann.ZeroCandidate(
            nu=specfun.ComplexOrder(0.5, 15.0), abs_g=1.0, refined=False,
            abs_zeta=1.0,
        )
        assert riemann.verify_zero_delta(fake, [1.0]) > 1e-4

    def test_residual_tracks_zeta_scale_across_temperatures(self):
        cands = riemann.find_zeros(0.5, 21.0, 21.1)
        assert cands and cands[0].refined
        scale = cands[0].abs_zeta
        for temp in (0.1, 1.0, 10.0):
            res = riemann.verify_zero_delta(cands[0], [temp])
            assert res <= 100.0 * max(scale, 1e-14)


class TestDuality:
    def test_point(self):
        assert riemann.check_duality(0.3 + 5j) < 1e-10

    def test_critical_line_self_dual(self):
        for t in (2.0, 9.5, 14.0):
            assert riemann.check_duality(0.5 + t * 1j) < 1e-12

    def test_xi_two_equals_xi_minus_one(self):
        a = specfun.xi_function(2.0)
        b = specfun.xi_function(-1.0)
        assert a == pytest.approx(b, rel=1e-12)
        assert a.real == pytest.approx(math.pi / 6, rel=1e-12)

    def test_grid(self):
        for sigma in np.linspace(0.2, 0.8, 5):
            for t in np.linspace(0.0, 20.0, 5):
                assert riemann.check_duality(complex(sigma, t)) < 1e-9


class TestCasimir:
    def test_d1_value_and_equality(self):
        chk = riemann.casimir_channel_check(1)
        assert chk.free_energy == pytest.approx(-math.pi / 6, rel=1e-12)
        assert chk.residual < 1e-12
        assert chk.route == "direct"

    def test_d3_equality(self):
        assert riemann.casimir_channel_check(3).residual < 1e-10

    def test_d2_pole_zero_cancellation(self):
        chk = riemann.casimir_channel_check(2)
        assert chk.residual < 1e-8
        assert "limit" in chk.route

    def test_d2_against_closed_form(self):
        # Gamma(-1) zeta(-2) -> 2 zeta'(-2) = -zeta(3)/(2 pi^2) known closed form
        chk = riemann.casimir_channel_check(2)
        assert chk.free_energy == pytest.approx(-oracles.ZETA_3 / (2 * math.pi), rel=1e-12)


class TestZetaViaIntegral:
    def test_matches_series_route_low_t(self):
        for nu in (0.5, 1.5, 0.8 + 2j):
            r = riemann.zeta_via_integral_eval(nu)
            ref = specfun.zeta(nu)
            assert abs(r.value - ref) <= max(1e-9, 5 * r.abs_error_estimate)


class TestScannerSoundness:
    def test_refined_candidates_reverified_independently(self):
        # every refined candidate must survive both the integral-route check
        # (within its honest double-precision error) and the high-precision
        # eta-series oracle
        cands = riemann.find_zeros(0.5, 13.9, 21.2)
        refined = [c for c in cands if c.refined]
        assert len(refined) == 2
        for c in refined:
            nu = complex(c.nu)
            assert abs(complex(oracles.mp_zeta(nu, dps=30))) < 1e-8
            r = riemann.zeta_via_integral_eval(nu)
            assert abs(r.value) <= 1e-8 + 3 * r.abs_error_estimate


# the zeros that a scan judged by an absolute |eta| threshold used to miss,
# with their index n (the n-th zero above the real axis)
_FORMERLY_MISSED = ((121.3701, 39), (158.850, 58), (161.189, 59), (187.229, 73),
                    (211.691, 86), (241.049, 103), (258.610, 113), (269.970, 120),
                    (301.649, 139), (310.110, 144))


class TestCompleteness:
    """Turing's method certifies each window: the scan returns every zero."""

    def test_all_zeros_up_to_350(self):
        cands = riemann.critical_line_zeros(10.0, 350.0)
        assert len(cands) == int(mp.nzeros(350)) == 169
        assert all(c.refined for c in cands)
        with mp.workdps(20):
            for c in cands:
                t = complex(c.nu).imag
                lo, hi = mp.siegelz(t - 1e-10), mp.siegelz(t + 1e-10)
                assert lo * hi < 0, t
        assert cands == riemann.find_zeros(0.5, 10.0, 350.0)

    @pytest.mark.parametrize("t, n", _FORMERLY_MISSED)
    def test_formerly_missed_zero(self, t, n):
        cands = riemann.find_zeros(0.5, t - 2.5, t + 2.5)
        near = min(cands, key=lambda c: abs(complex(c.nu).imag - t))
        assert near.refined
        with mp.workdps(20):
            want = float(mp.zetazero(n).imag)
        assert complex(near.nu).imag == pytest.approx(want, abs=1e-10)

    def test_count_closes_a_skipped_close_pair(self, monkeypatch):
        # with only the Gram points sampled, the Gram interval [g_126, g_127)
        # shows no sign change although it holds the zeros 282.465 and
        # 283.211: Turing's count must catch the gap and local halving
        # must recover the pair
        want = riemann.critical_line_zeros(281.0, 285.0)
        halved = []
        halve = riemann._GramScan.halve

        def spy(scan, cells):
            halved.append(list(cells))
            halve(scan, cells)

        monkeypatch.setattr(riemann, "_scan_step", lambda t: math.inf)
        monkeypatch.setattr(riemann._GramScan, "halve", spy)
        got = riemann.critical_line_zeros(281.0, 285.0)
        assert halved and all(set(cells) <= {125, 126} for cells in halved)
        assert len(got) == 3
        assert [complex(c.nu).imag for c in got] == pytest.approx(
            [complex(c.nu).imag for c in want], abs=1e-11)

    @pytest.mark.parametrize("t_min", [600.0, 1000.0, 5000.0])
    def test_refuses_past_the_eta_height(self, t_min):
        with pytest.raises(DomainError):
            riemann.find_zeros(0.5, t_min, t_min + 10.0)

    def test_below_the_first_gram_point(self):
        assert riemann.critical_line_zeros(0.0, 9.0) == []
        assert len(riemann.critical_line_zeros(0.0, 14.2)) == 1

    def test_zeros_outside_the_window_are_dropped(self):
        cands = riemann.critical_line_zeros(21.5, 24.9)
        assert cands == []


class TestOffLine:
    def test_near_misses_are_flagged_but_not_refined(self):
        # scanning sigma = 0.505, the dips of |eta| next to the zeros on the
        # line are deep against their neighbours, yet no zero is there
        on_line = [complex(c.nu).imag for c in riemann.find_zeros(0.5, 10.0, 50.0)]
        cands = riemann.find_zeros(0.505, 10.0, 50.0)
        assert cands
        for c in cands:
            assert not c.refined
            assert min(abs(complex(c.nu).imag - t) for t in on_line) < 0.05


class TestNoQuadratureOnHotPath:
    """The zero scan and the zero identities run without quadrature; the
    Fermi-Dirac route stays an oracle."""

    def test_never_calls_quad(self, monkeypatch):
        import scipy.integrate

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.integrate.quad called on the hot path")

        monkeypatch.setattr(scipy.integrate, "quad", forbidden)
        cands = riemann.find_zeros(0.5, 10.0, 50.0)
        assert len(cands) == 10
        for c in cands:
            assert riemann.verify_zero_delta(c, (0.1, 1.0, 10.0)) < 1e-10
            assert riemann.check_duality(c.nu) < 1e-12
