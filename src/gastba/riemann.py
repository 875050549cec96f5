"""Quasi-periodic scattering kernels and the critical-strip machinery.

A two-body potential V(x) = Re(b_nu / |x|**(2 nu)) in one dimension yields,
for fermions, the momentum-space kernel K(k) = -Re(gamma_nu k**(2 nu - 1)).
The normalization gamma_nu = 1/((1 - 2**(1-nu)) Gamma(nu)) removes the
spurious zeros of the eta prefactor, so a vanishing interaction correction
to the pressure at every temperature is equivalent to zeta(nu) = 0.

This module builds the kernel constants, evaluates the kernel both from the
closed form and from the defining improper integral (convergent only for
1/2 < Re nu < 3/2), scans a fixed-sigma line of the critical strip for
zeros, and runs the duality and Casimir-channel identities.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (
    ConvergenceError,
    DomainError,
    ExcludedOrderError,
    NearTrivialZeroWarning,
    PoleError,
    PoleWarning,
    SingularityError,
)
from .specfun import ComplexOrder, EvalResult

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class QuasiKernelSpec:
    """Derived constants of the quasi-periodic kernel for one order nu."""

    nu: ComplexOrder
    h_nu: complex
    gamma_nu: complex
    b_nu: complex
    sigma: float  # 2 Re nu: power-law exponent of the real-space potential
    alpha: float  # Im nu: log-oscillation frequency is 2*alpha

    @property
    def kernel_id(self) -> str:
        return f"quasiperiodic(nu={complex(self.nu):.12g})"


@dataclass
class ZeroCandidate:
    """One flagged dip of |eta| on the scan line, possibly Newton-refined."""

    nu: ComplexOrder
    abs_g: float
    refined: bool
    newton_residual: float


@dataclass
class ScanConfig:
    """Knobs of the zero scanner (grid, flag threshold, Newton refinement)."""

    dt: float = 0.02
    flag_threshold: float = 0.05
    newton_tol: float = 1e-12
    max_newton: int = 50
    refine_bound: float = 1e-8


def quasi_coupling(nu) -> complex:
    """h_nu = gamma_nu Gamma(nu) / (2 pi) = 1 / (2 pi (1 - 2**(1-nu)))."""
    z = specfun._order(nu)
    pref = 1.0 - cmath.exp((1.0 - z) * _LN2)
    if abs(pref) < 1e-12:
        raise ExcludedOrderError(
            f"1 - 2**(1-nu) vanishes at nu = {z}; kernel normalization undefined"
        )
    return 1.0 / (2.0 * math.pi * pref)


def make_kernel_spec(nu) -> QuasiKernelSpec:
    """Compute (gamma_nu, h_nu, b_nu) for the quasi-periodic kernel.

    b_nu is cross-validated against the route through the duplication
    identity sin(pi nu) Gamma(1-2 nu) Gamma(nu) = sqrt(pi) 2**(-2 nu) Gamma(1/2 - nu).
    """
    z = specfun._order(nu)
    h_nu = quasi_coupling(z)
    pref = 1.0 / (2.0 * math.pi * h_nu)
    try:
        g = specfun.gamma(z)
        g_half = specfun.gamma(0.5 * (1.0 - 2.0 * z))
    except PoleError as exc:
        raise ExcludedOrderError(str(exc)) from exc
    gamma_nu = 1.0 / (pref * g)
    b_nu = -(2.0 ** ((5.0 * z - 3.0) / 2.0)) / (
        math.sqrt(math.pi) * g_half * cmath.sinh((1.0 - z) * _LN2 / 2.0)
    )
    if not (cmath.isfinite(gamma_nu) and cmath.isfinite(b_nu)):
        raise ExcludedOrderError(f"kernel constants non-finite at nu = {z}")
    order = nu if isinstance(nu, ComplexOrder) else ComplexOrder(z.real, z.imag)
    return QuasiKernelSpec(
        nu=order,
        h_nu=h_nu,
        gamma_nu=gamma_nu,
        b_nu=b_nu,
        sigma=2.0 * z.real,
        alpha=z.imag,
    )


def kernel_closed_form(spec: QuasiKernelSpec, k: float) -> float:
    """K(k) = -Re[b_nu k**(2 nu - 1) sin(pi nu) Gamma(1 - 2 nu)].

    Identical to -Re(gamma_nu k**(2 nu - 1)); the b_nu form is kept because
    it is the one the potential route must reproduce.
    """
    z = complex(spec.nu)
    if k < 0.0:
        raise DomainError("momentum must be non-negative")
    if k == 0.0:
        if 2.0 * z.real - 1.0 > 0.0:
            return 0.0
        raise DomainError("kernel diverges at k = 0 for Re nu <= 1/2")
    if abs(2.0 * z - 1.0) < 0.05:
        warnings.warn(
            "Gamma(1 - 2 nu) is near its pole at nu = 1/2",
            PoleWarning,
            stacklevel=2,
        )
    g = specfun.gamma(1.0 - 2.0 * z)
    val = spec.b_nu * cmath.exp((2.0 * z - 1.0) * math.log(k)) * specfun.sinpi(z) * g
    return -val.real


def _euler_accelerate(terms: np.ndarray) -> tuple[complex, float]:
    """Accelerate the partial sums of a (near-)alternating complex series."""
    s = np.cumsum(terms)
    prev_tail = abs(s[-1] - s[-2])
    while len(s) > 2:
        s = 0.5 * (s[:-1] + s[1:])
        tail = abs(s[-1] - s[-2])
        if tail >= prev_tail:
            break
        prev_tail = tail
    return complex(s[-1]), float(prev_tail)


def kernel_from_potential_eval(spec: QuasiKernelSpec, k: float,
                               tol: float = 1e-8) -> EvalResult:
    z = complex(spec.nu)
    if not 0.5 < z.real < 1.5:
        raise DomainError(
            "potential-route kernel integral converges only for 1/2 < Re nu < 3/2"
        )
    if k <= 0.0:
        raise DomainError("momentum must be positive")
    from scipy import integrate  # a quadrature oracle: keeps scipy out of import

    x_split = 2.0 * math.pi / k

    def f_re(x):
        return (x ** complex(-2.0 * z)).real * math.sin(0.5 * k * x) ** 2

    def f_im(x):
        return (x ** complex(-2.0 * z)).imag * math.sin(0.5 * k * x) ** 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        hr, er = integrate.quad(f_re, 0.0, x_split, limit=400)
        hi, ei = integrate.quad(f_im, 0.0, x_split, limit=400)
        head = complex(hr, hi)
        err = er + ei

        # tail: sin^2 = 1/2 - cos/2; the constant half is closed-form, the
        # cosine half alternates over half-period panels and is accelerated
        tail_const = 0.5 * x_split ** (1.0 - 2.0 * z) / (2.0 * z - 1.0)
        n_panels = 40
        panels = []
        for j in range(n_panels):
            a = x_split + j * math.pi / k
            b = x_split + (j + 1) * math.pi / k
            cr, e1 = integrate.quad(
                lambda x: (x ** complex(-2.0 * z)).real * math.cos(k * x), a, b
            )
            ci, e2 = integrate.quad(
                lambda x: (x ** complex(-2.0 * z)).imag * math.cos(k * x), a, b
            )
            panels.append(complex(cr, ci))
            err += e1 + e2
    cos_tail, acc_err = _euler_accelerate(np.asarray(panels))
    err += acc_err

    total = head + tail_const - 0.5 * cos_tail
    value = (2.0 * spec.b_nu * total).real
    err *= 2.0 * abs(spec.b_nu)
    if not math.isfinite(value):
        raise ConvergenceError("potential-route kernel integral did not converge")
    return EvalResult(value, err, 400 + 2 * n_panels)


def kernel_from_potential(spec: QuasiKernelSpec, k: float) -> float:
    """K(k) = Re[2 b_nu int_0^inf x**(-2 nu) sin(kx/2)**2 dx], numerically."""
    return kernel_from_potential_eval(spec, k).value.real


def potential_realspace(spec: QuasiKernelSpec, x: float) -> float:
    """V(x) = Re(b_nu / |x|**(2 nu)), quasi-periodic in log|x| for Im nu != 0."""
    if x == 0.0:
        raise SingularityError("potential is singular at x = 0")
    z = complex(spec.nu)
    return (spec.b_nu * cmath.exp(-2.0 * z * math.log(abs(x)))).real


# ---------------------------------------------------------------------------
# zero scanning
# ---------------------------------------------------------------------------


_ETA_BLOCK = 128  # heights per array evaluation: at most 128 x 360 terms


def _eta_line(sigma: float, ts: np.ndarray) -> np.ndarray:
    return np.concatenate([
        specfun.dirichlet_eta_line(sigma, ts[i:i + _ETA_BLOCK])
        for i in range(0, len(ts), _ETA_BLOCK)
    ])


def _newton_on_line(sigma: float, t0: float, cfg: ScanConfig) -> tuple[float, complex]:
    """Damped Newton for eta(sigma + i t) = 0 along the fixed-sigma line.

    The step is the real part of eta/eta'; on a line through a genuine zero
    this converges quadratically, elsewhere it stalls at the |eta| minimum.
    """
    t = t0
    g = specfun.dirichlet_eta(complex(sigma, t))
    h = 1e-7
    for _ in range(cfg.max_newton):
        gp = specfun.dirichlet_eta(complex(sigma, t + h))
        gm = specfun.dirichlet_eta(complex(sigma, t - h))
        dg = (gp - gm) / (2.0 * h)
        if dg == 0:
            break
        step = -(g / dg).real
        new_t = t + step
        new_g = specfun.dirichlet_eta(complex(sigma, new_t))
        shrink = 0
        while abs(new_g) > abs(g) and shrink < 6:
            step *= 0.5
            new_t = t + step
            new_g = specfun.dirichlet_eta(complex(sigma, new_t))
            shrink += 1
        t, g = new_t, new_g
        if abs(step) < cfg.newton_tol * max(1.0, abs(t)):
            break
    return t, g


def zeta_via_integral_eval(nu) -> EvalResult:
    """zeta through the Fermi-Dirac integral: -Li_nu(-1) = (1 - 2**(1-nu)) zeta(nu).

    Independent of the eta-series route. In double precision the achievable
    absolute accuracy degrades like exp(pi |Im nu| / 2) because of the
    1/Gamma(nu) amplification; the error estimate reports this honestly.
    """
    z = specfun._order(nu)
    li = specfun.fermi_dirac_polylog_eval(z, 1.0, tol=math.inf)
    pref = 1.0 - cmath.exp((1.0 - z) * _LN2)
    return EvalResult(-li.value / pref, li.abs_error_estimate / abs(pref),
                      li.terms_or_nodes_used)


def find_zeros(sigma: float, t_min: float, t_max: float,
               cfg: ScanConfig | None = None) -> list[ZeroCandidate]:
    """Scan g(nu) = (1 - 2**(1-nu)) zeta(nu) = eta(nu) on a fixed-sigma line.

    Discrete local minima of |g| below the flag threshold are refined by
    damped Newton projected on the line; a candidate is marked refined when
    the series route gives |zeta| < 1e-8 and the integral route agrees
    within its reported error.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError("sigma must lie in the open critical strip (0, 1)")
    if not t_max > t_min >= 0.0:
        raise DomainError("need t_max > t_min >= 0")
    cfg = cfg or ScanConfig()
    n = max(int(math.ceil((t_max - t_min) / cfg.dt)) + 1, 8)
    ts = np.linspace(t_min, t_max, n)
    g = np.abs(_eta_line(sigma, ts))

    flagged = [
        i
        for i in range(1, n - 1)
        if g[i] <= g[i - 1] and g[i] <= g[i + 1] and g[i] < cfg.flag_threshold
    ]
    out: list[ZeroCandidate] = []
    for i in flagged:
        t_ref, g_ref = _newton_on_line(sigma, float(ts[i]), cfg)
        if out and abs(complex(out[-1].nu).imag - t_ref) < 2.0 * cfg.dt:
            continue
        nu_ref = complex(sigma, t_ref)
        pref = 1.0 - cmath.exp((1.0 - nu_ref) * _LN2)
        zeta_abs = abs(g_ref) / abs(pref)
        refined = zeta_abs < cfg.refine_bound
        if refined:
            zint = zeta_via_integral_eval(nu_ref)
            refined = abs(zint.value) <= cfg.refine_bound + 3.0 * zint.abs_error_estimate
        out.append(
            ZeroCandidate(
                nu=ComplexOrder(sigma, t_ref),
                abs_g=float(abs(g_ref)),
                refined=bool(refined),
                newton_residual=float(zeta_abs),
            )
        )
    return out


def verify_zero_delta(candidate: ZeroCandidate, temperatures) -> float:
    """Max over T of |Re[T**(nu-1) h_nu Li_nu(-1)]|, the delta = 0 defect.

    Li_nu(-1) is proportional to zeta(nu), so a refined zero candidate must
    give a residual at the |zeta| scale at every temperature.
    """
    z = complex(candidate.nu)
    h_nu = quasi_coupling(z)
    li = specfun.polylog_series(z, -1.0)
    worst = 0.0
    for temp in temperatures:
        if temp <= 0.0:
            raise DomainError("temperatures must be positive")
        pref = cmath.exp((z - 1.0) * math.log(temp))
        worst = max(worst, abs((-(pref * h_nu * li)).real))
    return worst


# ---------------------------------------------------------------------------
# duality and Casimir channel
# ---------------------------------------------------------------------------


def check_duality(nu) -> float:
    """Relative defect |xi(nu) - xi(1-nu)| / (1 + |xi(nu)|)."""
    z = specfun._order(nu)
    a = specfun.xi_function(z)
    b = specfun.xi_function(1.0 - z)
    return abs(a - b) / (1.0 + abs(a))


@dataclass(frozen=True)
class CasimirCheck:
    free_energy: float
    ground_state_energy: float
    residual: float
    route: str = "direct"


def _gamma_zeta_product(d: float) -> float:
    """Gamma(-d/2) zeta(-d) as a finite product."""
    with warnings.catch_warnings():
        # the epsilon-shifted even-d evaluation sits next to a trivial zero
        # by construction; the near-zero diagnostic is not informative here
        warnings.simplefilter("ignore", category=NearTrivialZeroWarning)
        return (specfun.gamma(-0.5 * d) * specfun.zeta(-d)).real


def casimir_channel_check(d: int) -> CasimirCheck:
    """Thermal free energy vs zeta-regularized Casimir energy for massless
    bosons in d spatial dimensions (beta set to 1; both scale as beta**-(d+1)).

    F  = -Gamma(d+1) zeta(d+1) / (2**(d-1) pi**(d/2) Gamma(d/2) d)
    E0 = -pi**(d/2) Gamma(-d/2) zeta(-d)

    For even d the Gamma pole meets the trivial zeta zero; the product is
    evaluated as a Richardson-extrapolated limit along d + epsilon.
    """
    if d < 1:
        raise DomainError("need d >= 1")
    f_val = -(
        specfun.gamma(d + 1.0) * specfun.zeta(d + 1.0)
    ).real / (2.0 ** (d - 1) * math.pi ** (d / 2.0) * specfun.gamma(d / 2.0).real * d)
    if d % 2 == 0:
        eps = 1e-6
        p1 = _gamma_zeta_product(d + eps)
        p2 = _gamma_zeta_product(d + 0.5 * eps)
        product = 2.0 * p2 - p1
        route = "pole-zero limit (Richardson)"
    else:
        product = _gamma_zeta_product(float(d))
        route = "direct"
    e0 = -math.pi ** (d / 2.0) * product
    residual = abs(f_val - e0) / abs(f_val)
    return CasimirCheck(f_val, e0, residual, route)
