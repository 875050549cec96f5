"""Special functions of complex order on the real argument axis.

Everything downstream is built from the functions here: complex Gamma,
Riemann zeta on the whole plane (alternating eta series with
Cohen-Rodriguez Villegas-Zagier acceleration, reflection for Re nu <= 0),
polylogarithms Li_nu(z) for real z, the Rogers dilogarithm, the logistic
function and the xi combination pi**(-nu/2) Gamma(nu/2) zeta(nu).

Gamma is exp(loggamma), and loggamma is the principal branch of log Gamma
by the Stirling series, after an upward shift or a reflection (Hare 1997,
"Computing the principal branch of log-Gamma"). The Bernoulli numbers of
the Stirling and Euler-Maclaurin series are literals. Nothing here imports
scipy, except the quadrature routes, which import scipy.integrate when they
run.

Li_nu(z) for real z comes from polylog(nu, log_abs_z, sign), array-in over
mu = log|z|, without quadrature and with an error bound on every value; its
docstring lists the routes. polylog_series(_eval), polylog_neg_exp(_eval) and
polylog_auto wrap it. The quadrature routes, bose_polylog_integral and
fermi_dirac_polylog, are kept as independent oracles.

eta holds double precision up to |Im nu| = ETA_T_MAX = 550 with its
360-term cap; past that height dirichlet_eta(_eval) and dirichlet_eta_line
raise DomainError. zeta_em_eval sums zeta(nu) by Euler-Maclaurin, the
Hurwitz code of the inversion route at a = 1, with an error bound: a route
to zeta that shares nothing with the eta series.

Branch convention: logarithms are principal everywhere, so for k > 0 the
power k**w means exp(w*log(k)).
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NearTrivialZeroWarning,
    PoleError,
)

_LN2 = math.log(2.0)
_SQRT8 = math.sqrt(8.0)
_LOG_CRVZ = math.log(3.0 + _SQRT8)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_EPS = float(np.finfo(float).eps)
_LOG_MIN_NORMAL = math.log(float(np.finfo(float).tiny))  # -708.4
_LOG_TINY = 41.5  # truncation and acceleration errors are held below e**-41.5 ~ 1e-18
_NEAR_MU = 1.5  # expansion about z = -1 on (0, _NEAR_MU] at most, inversion beyond
_NEAR_TERMS = 64  # terms of the expansions about z = -1 and z = 1: (1.5/pi)**64 ~ 3e-21
_EM_TERMS = 16  # Euler-Maclaurin Bernoulli terms beyond ceil(Re nu)
_BLOCK = 256  # points per block of polylog
_EM_WIDEN = 1.25  # |N + a| >= 1.25 (|s| + 2m)/(2 pi): the Bernoulli terms fall throughout
_CRVZ_CAP = 360  # most terms of the accelerated eta series
# Height up to which the capped eta series holds double precision: measured
# against mpmath at sigma = 1/2, its error is at the rounding floor (6.7e-13
# at t = 550), then 1.8e-8 at 600, 5e-3 at 700 and 0.7 at 800.
ETA_T_MAX = 550.0


@dataclass(frozen=True)
class ComplexOrder:
    """Complex order nu = sigma + i*t of a transcendental function."""

    sigma: float
    t: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise DomainError("complex order must have finite components")

    def __complex__(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class EvalResult:
    """Value of a transcendental evaluation with an honest error estimate."""

    value: complex
    abs_error_estimate: float
    terms_or_nodes_used: int


def _order(nu) -> complex:
    """Coerce ComplexOrder | complex | float to a validated complex number."""
    z = complex(nu)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite order {nu!r}")
    return z


def sinpi(z) -> complex:
    """sin(pi*z) with argument reduction on the real part.

    Avoids the catastrophic cancellation of sin(pi*(n + r)) for large |n|.
    """
    z = complex(z)
    n = math.floor(z.real + 0.5)
    r = z.real - n
    s = complex(
        math.sin(math.pi * r) * math.cosh(math.pi * z.imag),
        math.cos(math.pi * r) * math.sinh(math.pi * z.imag),
    )
    return -s if n % 2 else s


def _sinpi_array(z: np.ndarray) -> np.ndarray:
    """sinpi over an array of complex arguments."""
    n = np.floor(z.real + 0.5)
    r = np.pi * (z.real - n)
    y = np.pi * z.imag
    s = np.sin(r) * np.cosh(y) + 1j * np.cos(r) * np.sinh(y)
    return np.where(n % 2 == 0, s, -s)


# B_2j/(2j)! for j = 1..16, the exact rationals rounded to double.
_BERN = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26,
)
# B_2k/(2k (2k-1)) for k = 1..8: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)
_STIRLING_MIN = 7.0  # the series holds to double precision for Re z > 7 or |Im z| > 7


def _stirling(z, log=np.log):
    """The Stirling series of log Gamma(z), over an array, or over a complex
    scalar with log=cmath.log."""
    r = 1.0 / z
    r2 = r * r
    poly = 0.0
    for c in reversed(_STIRLING):
        poly = poly * r2 + c
    return (z - 0.5) * log(z) - z + _LOG_SQRT_2PI + r * poly


def _loggamma_shift(z: np.ndarray) -> np.ndarray:
    """log Gamma(z + n) - sum_{k<n} log(z + k), n = ceil(7 - Re z), for Re z >= 0.1."""
    n = np.ceil(_STIRLING_MIN - z.real)
    k = np.arange(_STIRLING_MIN + 1.0)
    logs = np.where(k < n[..., None], np.log(z[..., None] + k), 0.0)
    return _stirling(z + n) - logs.sum(axis=-1)


def _loggamma_reflect(z: np.ndarray) -> np.ndarray:
    """log pi - log sin(pi z) - log Gamma(1 - z) + the 2 pi i turns of the
    principal branch (Hare 1997, Proposition 3.1), for Re z < 0.1."""
    turn = np.copysign(2.0 * math.pi, z.imag) * np.floor(0.5 * z.real + 0.25)
    return _LOG_PI + 1j * turn - np.log(_sinpi_array(z)) - loggamma(1.0 - z)


def loggamma(z):
    """Principal branch of log Gamma(z), elementwise over complex z.

    Hare 1997: the Stirling series where Re z > 7 or |Im z| > 7; elsewhere
    the upward shift for Re z >= 0.1 and the reflection below. At the poles
    z = 0, -1, -2, ... the real part is inf. A scalar gives a complex.
    """
    z = np.asarray(z, dtype=complex)
    big = (z.real > _STIRLING_MIN) | (np.abs(z.imag) > _STIRLING_MIN)
    refl = ~big & (z.real < 0.1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if z.ndim == 0:
            route = _stirling if big else _loggamma_reflect if refl else _loggamma_shift
            return complex(route(z))
        out = np.empty(z.shape, dtype=complex)
        for mask, route in ((big, _stirling), (refl, _loggamma_reflect),
                            (~big & ~refl, _loggamma_shift)):
            if np.any(mask):
                out[mask] = route(z[mask])
    return out


def gamma(nu) -> complex:
    """Gamma function for complex order, exp(loggamma(nu)); >= 13 significant
    digits for |nu| <= 50. Real on the real axis, where the k pi i of the
    principal log Gamma would leave a rounding residue in the imaginary part."""
    z = _order(nu)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"Gamma pole at nu = {z.real:g}")
    g = cmath.exp(loggamma(z))
    return complex(g.real) if z.imag == 0.0 else g


def _crvz_terms(tol: float, t: float) -> int:
    """Series length for the accelerated alternating sum.

    The acceleration error is at most 2 TV (3+sqrt(8))**(-n), where the total
    variation TV of the measure behind (k+1)**-nu grows like exp(pi*|Im nu|/2)
    off the real axis (Cohen, Rodriguez Villegas and Zagier 2000).
    """
    n = int(math.ceil((-math.log(tol) + 0.5 * math.pi * abs(t)) / _LOG_CRVZ)) + 12
    return min(n, _CRVZ_CAP)


@functools.lru_cache(maxsize=None)
def _crvz_weights(n: int) -> np.ndarray:
    """Weights w of the n-term Chebyshev-accelerated alternating sum,
    sum_{k>=0} (-1)**k a[k] ~ w @ a (read-only: the cache shares it)."""
    d = (3.0 + _SQRT8) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    w = np.empty(n)
    for k in range(n):
        c = b - c
        w[k] = c
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    w /= d
    w.flags.writeable = False
    return w


def _check_eta_height(t: float) -> None:
    if not abs(t) <= ETA_T_MAX:
        raise DomainError(
            f"|Im nu| = {abs(t):.6g} lies past {ETA_T_MAX:g}, the height up to which"
            f" the {_CRVZ_CAP}-term eta series holds double precision"
        )


_LOGK = np.log(np.arange(1, _CRVZ_CAP + 1, dtype=float))  # log k, k <= _CRVZ_CAP


@functools.lru_cache(maxsize=8)
def _k_power(sigma: float) -> np.ndarray:
    """k**-sigma for k <= _CRVZ_CAP (read-only: the cache shares it)."""
    out = np.exp(-sigma * _LOGK)
    out.flags.writeable = False
    return out


def _eta_sum(z: complex):
    """The n-term accelerated sum for eta(z), its terms k**-z and n."""
    _check_eta_height(z.imag)
    n = _crvz_terms(1e-15, z.imag)
    a = np.exp(-z * _LOGK[:n])
    return complex(_crvz_weights(n) @ a), a, n


def dirichlet_eta_eval(nu) -> EvalResult:
    """eta(nu) = sum (-1)**(n-1) n**(-nu), accelerated; the analytic
    continuation on the whole plane, for |Im nu| <= ETA_T_MAX.

    The estimate adds the rounding of the weighted sum (each term's phase
    t log k is rounded to eps relative, and the n roundings add up like a
    random walk) to the truncation: the total-variation bound while the
    term count is below the cap; where the cap binds that bound no longer
    reaches, and the distance to (1 - 2**(1-nu)) zeta(nu) by Euler-Maclaurin,
    plus that route's own bound, takes its place.
    """
    z = _order(nu)
    s, a, n = _eta_sum(z)
    wa = np.abs(_crvz_weights(n)) * np.abs(a)
    rnd = _EPS * (4.0 * float(np.sum(wa))
                  + 3.0 * abs(z) * math.sqrt(float(np.sum((wa * _LOGK[:n]) ** 2))))
    if n < _CRVZ_CAP:
        return EvalResult(s, math.exp(0.5 * math.pi * abs(z.imag) - n * _LOG_CRVZ) + rnd, n)
    em = zeta_em_eval(z)
    pref = _eta_prefactor(z)
    err = abs(s - pref * em.value) + abs(pref) * em.abs_error_estimate + 2.0 * _EPS * abs(s)
    return EvalResult(s, err, n + em.terms_or_nodes_used)


def _eta_line_sums(sigma: float, ts: np.ndarray, slope: bool) -> np.ndarray:
    """Columns eta(sigma + i t) and, with slope, d eta/dt for every t of ts
    (nonempty): the weighted amplitudes k**-sigma, and the same times
    -i log k, against e**(-i t log k). Raises DomainError past ETA_T_MAX."""
    top = float(np.max(np.abs(ts)))
    _check_eta_height(top)
    n = _crvz_terms(1e-15, top)
    logk = _LOGK[:n]
    wa = _crvz_weights(n) * _k_power(sigma)[:n]
    amps = np.stack([wa, wa * logk], axis=1) if slope else wa[:, None]
    phase = np.multiply.outer(ts, logk)
    c, s = np.cos(phase) @ amps, np.sin(phase) @ amps
    out = c - 1j * s
    if slope:
        out[:, 1] = -s[:, 1] - 1j * c[:, 1]
    return out


def dirichlet_eta_line(sigma: float, ts) -> np.ndarray:
    """eta(sigma + i t) for every t of ts: one weighted sum per height, with
    the term count of the largest |t|, so at least as many as eta_eval's.
    Raises DomainError where some |t| exceeds ETA_T_MAX."""
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return np.empty(0, dtype=complex)
    return _eta_line_sums(sigma, ts, False)[:, 0]


def dirichlet_eta(nu) -> complex:
    """Value-only dirichlet_eta_eval: the same sum, without the estimate."""
    return _eta_sum(_order(nu))[0]


def _eta_prefactor(z: complex) -> complex:
    """1 - 2**(1-nu), the factor linking eta and zeta."""
    return 1.0 - cmath.exp((1.0 - z) * _LN2)


def _zeta_eta_route(z: complex) -> complex:
    return dirichlet_eta(z) / _eta_prefactor(z)


def _zeta_reflection(z: complex) -> complex:
    # zeta(nu) = 2**nu pi**(nu-1) sin(pi nu/2) Gamma(1-nu) zeta(1-nu)
    chi = 2.0**z * math.pi ** (z - 1.0) * sinpi(0.5 * z) * cmath.exp(loggamma(1.0 - z))
    return chi * _zeta_eta_route(1.0 - z)


def zeta(nu) -> complex:
    """Riemann zeta anywhere off the pole at nu = 1.

    Re nu > 0 uses the accelerated eta series; Re nu <= 0 the functional
    equation. Accuracy degrades in a small neighborhood of the points
    nu = 1 + 2*pi*i*k/log(2), k != 0, where the eta prefactor vanishes.
    """
    z = _order(nu)
    if z == 1.0:
        raise PoleError("zeta pole at nu = 1")
    if abs(z) < 1e-8:
        # expansion around the origin; the raw reflection is 0 * inf here
        return -0.5 - _LOG_SQRT_2PI * z
    if z.real > 0.0:
        return _zeta_eta_route(z)
    if z.imag == 0.0:
        m = round(-z.real / 2.0)
        if m >= 1 and abs(z.real + 2.0 * m) < 1e-6:
            warnings.warn(
                f"zeta evaluated within 1e-6 of the trivial zero at {-2 * m}",
                NearTrivialZeroWarning,
                stacklevel=2,
            )
    return _zeta_reflection(z)


def xi_function(nu) -> complex:
    """xi(nu) = pi**(-nu/2) Gamma(nu/2) zeta(nu); satisfies xi(nu) = xi(1-nu)."""
    z = _order(nu)
    if z == 0.0 or z == 1.0:
        raise PoleError(f"xi pole at nu = {z}")
    return math.pi ** (-z / 2.0) * gamma(z / 2.0) * zeta(z)


# ---------------------------------------------------------------------------
# polylogarithms
# ---------------------------------------------------------------------------


def _term_matrix(nu: complex, mu: np.ndarray, k: np.ndarray):
    """exp(k mu - nu log k) over (points, k), with each entry's rounding
    bound relative to its size: eps times the size of the exponent."""
    logk = np.log(k)
    a = np.exp(np.multiply.outer(mu, k) - nu * logk)
    rel = _EPS * (3.0 + np.multiply.outer(np.abs(mu), k) + abs(nu) * logk)
    return a, rel


def _li_series(nu: complex, mu: np.ndarray, sign: int):
    """sum_{k>=1} sign**k e**(k mu) k**-nu for mu <= -ln 2 (sign = -1) or
    mu <= -1 (sign = +1), any order. The terms past n fall in size by a
    ratio below 0.6 there, so four times the first of them bounds the tail."""
    top = float(np.max(mu))
    grow = max(-nu.real, 0.0)  # terms grow like k**grow before e**(k mu) wins
    n = 1
    for _ in range(4):
        n = math.ceil((_LOG_TINY + grow * math.log(n + 1.0)) / -top)
    k = np.arange(1, n + 1, dtype=float)
    a, rel = _term_matrix(nu, mu, k)
    signs = np.where(k % 2 == 0, 1.0, float(sign))
    tail = 4.0 * np.exp((n + 1.0) * mu + grow * math.log(n + 1.0))
    return a @ signs, np.sum(np.abs(a) * rel, axis=1) + tail, n


def _li_alternating(nu: complex, mu: np.ndarray):
    """-sum_{k>=0} (-1)**k e**((k+1) mu) (k+1)**-nu accelerated, for
    -ln 2 < mu <= 0 and Re nu > 0.

    The terms are moments of a measure of total variation
    e**mu Gamma(sigma)/|Gamma(nu)|, which bounds the acceleration error
    after scaling by 2 (3+sqrt(8))**-n.
    """
    log_tv = _log_total_variation(nu)
    n = min(max(math.ceil((_LOG_TINY + max(log_tv, 0.0)) / _LOG_CRVZ), 8), 360)
    w = _crvz_weights(n)
    a, rel = _term_matrix(nu, mu, np.arange(1, n + 1, dtype=float))
    rem = 2.0 * np.exp(mu + log_tv - n * _LOG_CRVZ)
    return -(a @ w), (np.abs(a) * rel) @ np.abs(w) + rem, n


@functools.lru_cache(maxsize=64)
def _log_total_variation(nu: complex) -> float:
    """log(Gamma(sigma)/|Gamma(nu)|), sigma = Re nu > 0."""
    return math.lgamma(nu.real) - loggamma(nu).real


def _tail_constants(nu: complex, rho: float, log_c: float) -> tuple[float, float, float]:
    """Bound on the terms k >= K = _NEAR_TERMS of sum_k c_k mu**k/k!, for
    c_k = zeta(nu - k) (rho = 2 pi, log_c = -log pi) or eta(nu - k) (rho = pi,
    log_c = log(4/pi)). For k >= K > Re nu = sigma the functional equation,
    with |sin(pi w/2)| <= e**(pi |t|/2), t = Im nu, and zeta(x) <= x/(x - 1),
    gives |zeta(nu - k)| <= (2 pi)**(sigma-k)/pi e**(pi |t|/2) |Gamma(1-nu+k)|
    zeta(1-sigma+K); |eta(nu - k)| <= (1 + 2**(1-sigma+k)) |zeta(nu - k)|
    multiplies that by 4 * 2**(k-sigma). The bound on term k + 1 over that on
    term k is |1-nu+k|/(k+1) |mu|/rho <= g |mu|/rho, g = max(|1-nu+K|/(K+1), 1),
    so the terms past K sum to at most e**log_b |mu|**K/(1 - g |mu|/rho).
    Returns (log_b, g, rho); g is inf where Re nu >= K - 1 leaves no bound.
    """
    x = 1.0 - nu.real + _NEAR_TERMS
    if x <= 2.0:
        return math.inf, math.inf, rho
    a = 1.0 - nu + _NEAR_TERMS
    log_b = (log_c + (nu.real - _NEAR_TERMS) * math.log(rho) + 0.5 * math.pi * abs(nu.imag)
             + loggamma(a).real + math.log(x / (x - 1.0)) - math.lgamma(_NEAR_TERMS + 1.0))
    return log_b, max(abs(a) / (_NEAR_TERMS + 1.0), 1.0), rho


@functools.lru_cache(maxsize=64)
def _eta_shifted(nu: complex):
    """eta(nu - k) for k < _NEAR_TERMS with absolute error bounds, and the
    _tail_constants of the terms past them.

    Orders with Re > 0 use the accelerated series; the others the
    functional equation eta(w) = (1 - 2**(1-w))/(1 - 2**w) chi(w) eta(1-w),
    chi(w) = 2**w pi**(w-1) sin(pi w/2) Gamma(1-w), with eta(0) = 1/2.
    Raises DomainError past ETA_T_MAX, as the eta series does.
    """
    _check_eta_height(nu.imag)
    w = nu - np.arange(_NEAR_TERMS)
    refl = w.real <= 0.0
    orders = np.where(refl, 1.0 - w, w)
    n = _crvz_terms(1e-17, nu.imag)
    logk = np.log(np.arange(1, n + 1, dtype=float))
    a = np.exp(-np.multiply.outer(orders, logk))
    wts = _crvz_weights(n)
    eta = a @ wts
    lg_orders = loggamma(orders)
    wr = w[refl]
    lg = lg_orders[refl]  # log Gamma(1 - w)
    # past |Im nu| ~ 450 the bound and sin(pi w/2) overflow, and polylog refuses
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tv = np.exp([math.lgamma(x) for x in orders.real] - lg_orders.real)
        factor = ((1.0 - np.exp((1.0 - wr) * _LN2)) / (1.0 - np.exp(wr * _LN2))
                  * np.exp(wr * _LN2 + (wr - 1.0) * _LOG_PI + lg) * _sinpi_array(0.5 * wr))
    err = _EPS * (np.abs(a) * (3.0 + np.multiply.outer(np.abs(orders), logk))) @ np.abs(wts)
    err = err + 2.0 * tv * math.exp(-n * _LOG_CRVZ)
    rel = 8.0 * _EPS * (2.0 + np.abs(lg) + np.abs(wr) * 3.0)
    err[refl] = np.abs(factor) * (err[refl] + rel * np.abs(eta[refl]))
    eta[refl] = factor * eta[refl]
    origin = w == 0.0
    eta[origin], err[origin] = 0.5, _EPS
    eta.flags.writeable = err.flags.writeable = False
    return eta, err, _tail_constants(nu, math.pi, math.log(4.0 / math.pi))


def _series_in_mu(coef: np.ndarray, coef_err: np.ndarray, tail,
                  mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k coef[k] mu**k / k! with its error bound: the coefficients'
    errors, the rounding, and the terms past the last by the tail constants
    (inf where they cannot bound them)."""
    k = np.arange(len(coef), dtype=float)
    p = np.divide.outer(mu, np.maximum(k, 1.0))
    p[:, 0] = 1.0
    p = np.cumprod(p, axis=1)
    val = p @ coef
    terms = np.abs(p) * np.abs(coef)
    log_b, g, rho = tail
    m = np.abs(mu)
    q = g * m / rho
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rest = np.where(q < 1.0, np.exp(log_b + len(coef) * np.log(m)) / (1.0 - q), np.inf)
    err = np.abs(p) @ coef_err + 4.0 * _EPS * (terms @ (1.0 + k)) + rest
    return val, err


def _li_about_minus_one(nu: complex, mu: np.ndarray):
    """Li_nu(-e**mu) = -sum_k eta(nu - k) mu**k / k!, for |mu| < pi."""
    val, err = _series_in_mu(*_eta_shifted(nu), mu)
    return -val, err, _NEAR_TERMS


@functools.lru_cache(maxsize=64)
def _inversion_prefactor(nu: complex) -> tuple[complex, float]:
    """(2 pi)**nu e**(i pi nu/2) / Gamma(nu), the prefactor of the inversion
    route for one order (Im nu >= 0), with its relative error."""
    lg = loggamma(nu)
    pref = cmath.exp(nu * math.log(2.0 * math.pi) + 0.5j * math.pi * nu - lg)
    return pref, 8.0 * _EPS * (1.0 + abs(lg) + abs(nu) * 3.0)


def _em_constants(s: np.ndarray):
    """Constants of the Euler-Maclaurin sum for zeta(s, a), for each s of a
    1-d array, with one Bernoulli order m for all: that of the least Re s.

    Returns the coefficients B_2j/(2j)! (s)_{2j-1} and the powers
    s + 2j - 1 they go with (one row per s), the remainder exponent q and
    constant, and the radius R0 that |N + a| must reach before the tail is
    used: wide enough that the Bernoulli terms fall throughout, and, for
    large |s|, that the remainder is below e**-_LOG_TINY.
    """
    m = _EM_TERMS + math.ceil(max(1.0 - float(np.min(s.real)), 0.0))
    j = np.arange(1, m + 1)
    rising = np.cumprod(s[:, None] + np.arange(2 * m + 1), axis=1)  # (s)_1 ... (s)_{2m+1}
    coef = _bernoulli_ratios(m) * rising[:, 2 * j - 2]
    q = s.real + 2 * m + 1
    # |B~_{2m+1}|/(2m+1)! <= 2 zeta(2m+1)/(2 pi)**(2m+1), with
    # zeta(2m+1) <= 1 + 2**-(2m+1) + 2**-2m/(2m) (the sum past n = 2 is below its
    # integral), and, for N + Re a >= 0,
    # int_N^inf |x + a|**-q dx <= |N + a|**(1-q) sqrt(pi)/2 Gamma((q-1)/2)/Gamma(q/2)
    zeta_odd = 1.0 + 2.0 ** (-2 * m - 1) + 2.0 ** (-2 * m) / (2 * m)
    gamma_ratio = np.exp([math.lgamma(0.5 * (x - 1.0)) - math.lgamma(0.5 * x) for x in q])
    rem = (2.0 * zeta_odd / (2.0 * math.pi) ** (2 * m + 1) * np.abs(rising[:, -1])
           * 0.5 * math.sqrt(math.pi) * gamma_ratio)
    with np.errstate(divide="ignore"):  # rem = 0 where (s)_{2m+1} = 0: no tail
        r_tail = np.exp((np.log(rem) + _LOG_TINY) / (q - 1.0))
    r0 = np.maximum(_EM_WIDEN * (np.abs(s) + 2 * m) / (2.0 * math.pi), r_tail)
    return coef, s[:, None] + 2.0 * j - 1.0, q, rem, r0


@functools.lru_cache(maxsize=64)
def _em_setup(s: complex):
    """_em_constants for one order, as one row and scalars, cached: the
    inversion route reuses it."""
    coef, powers, q, rem, r0 = _em_constants(np.array([s]))
    return coef[0], powers[0], float(q[0]), float(rem[0]), float(r0[0])


@functools.lru_cache(maxsize=16)
def _bernoulli_ratios(m: int) -> np.ndarray:
    """B_2j/(2j)! for j = 1..m: the literals, then for j > 16
    (-1)**(j+1) 2 zeta(2j)/(2 pi)**(2j) with zeta(2j) = 1 + 2**-2j + 3**-2j + 4**-2j
    (the rest is below 5**-34 ~ 2e-24 of it)."""
    j = np.arange(len(_BERN) + 1, m + 1)
    zeta_2j = 1.0 + 4.0 ** -j + 9.0 ** -j + 16.0 ** -j
    tail = (-1.0) ** (j + 1) * 2.0 * zeta_2j / (2.0 * math.pi) ** (2 * j)
    out = np.concatenate([_BERN, tail])[:m]
    out.flags.writeable = False
    return out


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of x dotted with y, or with the same row of y."""
    return x @ y if y.ndim == 1 else np.einsum("ij,ij->i", x, y)


def _hurwitz_em(s, a):
    """zeta(s, a) for Re a > 0 by Euler-Maclaurin, elementwise over 1-d
    arrays: one complex order s for an array of a, or an array of s for one
    a. The terms below N go directly, where N is the least with
    |N + a| >= R0, then the integral, half the first term left out and the
    Bernoulli tail."""
    a = np.asarray(a, dtype=complex)
    if np.ndim(s) == 0:
        s = s_col = complex(s)
        coef, powers, q, rem, r0 = _em_setup(s)
    else:
        s = np.asarray(s, dtype=complex)
        s_col = s[:, None]
        coef, powers, q, rem, r0 = _em_constants(s)
    b = np.abs(a.imag)
    n_direct = np.ceil(np.sqrt(np.maximum(r0 * r0 - b * b, 0.0)) - a.real).astype(int)
    n_direct = np.maximum(n_direct, 0)
    val = np.zeros(n_direct.shape, dtype=complex)
    err = np.zeros(n_direct.shape)
    top = int(n_direct.max())
    if top:
        k = np.arange(top, dtype=float)
        lx = np.log(np.add.outer(a.reshape(-1), k))
        t = np.where(k < n_direct[:, None], np.exp(-s_col * lx), 0.0)
        val += t.sum(axis=1)
        err += _EPS * np.sum(np.abs(t) * (4.0 + np.abs(s_col) * np.abs(lx)), axis=1)
    x = a + n_direct
    lx = np.log(x)
    half = 0.5 * np.exp(-s * lx)
    lead = 2.0 * half * x / (s - 1.0)
    pw = np.exp(-lx[:, None] * powers)
    val += lead + half + _row_dot(pw, coef)
    err += _EPS * ((4.0 + np.abs(1.0 - s) * np.abs(lx)) * np.abs(lead)
                   + (4.0 + np.abs(s) * np.abs(lx)) * np.abs(half)
                   + (4.0 + (np.abs(s) + 2.0 * coef.shape[-1]) * np.abs(lx))
                   * _row_dot(np.abs(pw), np.abs(coef)))
    # |(x + u)**-(s + 2m + 1)| = |x + u|**-q e**(Im s arg(x + u)), and arg(x + u)
    # shrinks towards 0 as u runs from 0 to infinity
    turn = np.maximum(np.imag(s) * np.angle(x), 0.0)
    err += rem * np.exp(turn + (1.0 - q) * np.log(np.abs(x)))
    return val, err, top + coef.shape[-1] + 2


def zeta_em_eval(nu) -> EvalResult:
    """zeta(nu) = zeta(nu, 1) by Euler-Maclaurin, with its error bound, for
    one order or elementwise over a 1-d array of orders.

    A route independent of the eta series: sum_{n<=N} n**-nu, the integral
    (N+1)**(1-nu)/(nu-1), half the next term and the Bernoulli tail, with
    N set by the remainder bound, about |nu|/2 at large |Im nu|.
    """
    z = np.asarray(nu, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise DomainError(f"non-finite order {nu!r}")
    if np.any(z == 1.0):
        raise PoleError("zeta pole at nu = 1")
    val, err, n = _hurwitz_em(z.reshape(-1), 1.0)
    err = err + 2.0 * _EPS * np.abs(val)
    if z.ndim == 0:
        return EvalResult(complex(val[0]), float(err[0]), n)
    return EvalResult(val, err, n)


def _li_inversion(nu: complex, mu: np.ndarray):
    """Li_nu(-e**mu) = (2 pi)**nu e**(i pi nu/2)/Gamma(nu) zeta(1-nu, 1/2 - i mu/2 pi)
    - e**(i pi nu) Li_nu(-e**-mu), for mu > 0, Re nu > 0 and Im nu >= 0."""
    pref, pref_rel = _inversion_prefactor(nu)
    z, z_err, n_em = _hurwitz_em(1.0 - nu, 0.5 - 1j * mu / (2.0 * math.pi))
    back, back_err, n_back = _li_series(nu, -mu, -1)
    rot = cmath.exp(1j * math.pi * nu)
    head = pref * z
    val = head - rot * back
    err = abs(pref) * z_err + pref_rel * np.abs(head) + abs(rot) * back_err
    return val, err + 2.0 * _EPS * np.abs(val), n_em + n_back


@functools.lru_cache(maxsize=64)
def _plus_one_setup(nu: complex):
    """zeta(nu - k) for k < _NEAR_TERMS with error bounds and _tail_constants,
    log Gamma(1 - nu), and n = nu at a positive integer order (else 0).
    There the zeta pole at k = n - 1 is left out, and Gamma(1 - nu) too.

    zeta(w) = eta(w)/(1 - 2**(1-w)), with 1 - 2**(1-w) = -expm1((1-w) ln 2) so
    that the scale keeps its relative accuracy as w -> 1; its rounding,
    eps (4 + 2 |x e**x/expm1(x)|) relative at x = (1-w) ln 2, is carried.
    """
    eta, eta_err, _ = _eta_shifted(nu)
    x = ((1.0 + np.arange(_NEAR_TERMS)) - nu) * _LN2
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 at the pole
        em1 = np.expm1(x)
        scale = -1.0 / em1
        scale_rel = _EPS * (4.0 + 2.0 * np.abs(x * np.exp(x) / em1))
        coef = eta * scale
        coef_err = eta_err * np.abs(scale) + np.abs(coef) * (scale_rel + 2.0 * _EPS)
    n = int(nu.real) if nu.imag == 0.0 and nu.real == round(nu.real) and nu.real >= 1.0 else 0
    if n:
        coef[n - 1:n] = coef_err[n - 1:n] = 0.0
    coef.flags.writeable = coef_err.flags.writeable = False
    tail = _tail_constants(nu, 2.0 * math.pi, -_LOG_PI)
    return coef, coef_err, tail, 0.0 if n else loggamma(1.0 - nu), n


def _li_about_plus_one(nu: complex, mu: np.ndarray):
    """Li_nu(e**mu) = Gamma(1-nu) (-mu)**(nu-1) + sum_k zeta(nu-k) mu**k/k!
    for -2 pi < mu < 0. At a positive integer order n the pole of
    Gamma(1-nu) and that of zeta(nu-k) at k = n - 1 cancel, and their sum
    takes Wood's log limit mu**(n-1)/(n-1)! (H_{n-1} - log(-mu))."""
    coef, coef_err, tail, lg, n = _plus_one_setup(nu)
    series, series_err = _series_in_mu(coef, coef_err, tail, mu)
    log_m = np.log(-mu)
    if n:
        p = mu ** (n - 1) / math.factorial(n - 1)
        harmonic = math.fsum(1.0 / j for j in range(1, n))
        lead = p * (harmonic - log_m)
        lead_err = 4.0 * _EPS * (n + 2.0) * np.abs(p) * (harmonic + np.abs(log_m))
    else:
        lead = np.exp(lg + (nu - 1.0) * log_m)
        lead_err = np.abs(lead) * 8.0 * _EPS * (2.0 + abs(lg) + abs(nu - 1.0) * np.abs(log_m))
    val = lead + series
    return val, lead_err + series_err + 2.0 * _EPS * np.abs(val), _NEAR_TERMS


def polylog(nu, log_abs_z, sign) -> EvalResult:
    """Li_nu(sign e**mu) elementwise over real mu = log_abs_z, sign = +1 or
    -1, with a bound on each value's error (the rounding of every term plus
    the truncation or acceleration remainder) and no quadrature (Wood 1992,
    "The computation of polylogarithms"; Crandall 2006, "Note on fast
    polylogarithm computation"). Routes by mu:

    sign = -1, every finite mu (mu < 0 where Re nu <= 0):
    - mu <= -ln 2: the power series;
    - -ln 2 < mu <= 0: the accelerated alternating sum, or for Re nu <= 0
      the expansion about z = -1;
    - 0 < mu <= 1.5: the expansion about z = -1, -sum_k eta(nu - k) mu**k/k!,
      up to an edge that falls like 1/|Im nu| from |Im nu| = 22 on;
    - beyond: the inversion formula with the Hurwitz zeta by Euler-Maclaurin.
    sign = +1, mu < 0, every order:
    - mu <= -1: the power series;
    - -1 < mu < 0: the expansion about z = 1,
      Gamma(1 - nu) (-mu)**(nu - 1) + sum_k zeta(nu - k) mu**k/k!, and at a
      positive integer order n Wood's log limit of it.

    A scalar log_abs_z gives a complex value and a float bound, an array
    arrays of its shape; terms_or_nodes_used is the most terms any route
    summed. Raises DomainError for a sign other than +-1, a non-finite mu,
    mu >= 0 with sign = +1 or with Re nu <= 0, |Im nu| past ETA_T_MAX on an
    expansion, and where a value or its bound is not finite, as where the
    tail of an expansion admits no bound at large |Im nu|.
    """
    w = _order(nu)
    mu = np.asarray(log_abs_z, dtype=float)
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    if not np.all(np.isfinite(mu)):
        raise DomainError("log_abs_z must be finite")
    if sign > 0 and np.any(mu >= 0.0):
        raise DomainError("Li_nu(z) for real z >= 1 lies on the branch cut")
    if sign < 0 and w.real <= 0.0 and np.any(mu >= 0.0):
        raise DomainError("Li_nu(-y) for y >= 1 requires Re nu > 0")
    if w.imag < 0.0:  # conjugation symmetry for real arguments
        r = polylog(w.conjugate(), mu, sign)
        return EvalResult(r.value.conjugate(), r.abs_error_estimate, r.terms_or_nodes_used)
    series = functools.partial(_li_series, sign=sign)
    # expand about -1 while the terms past _NEAR_TERMS fall at least twofold
    # (g mu/pi <= 1/2, see _tail_constants): up to 1.5 for |Im nu| < 22
    edge = min(_NEAR_MU, 0.5 * math.pi * (_NEAR_TERMS + 1.0) / abs(1.0 - w + _NEAR_TERMS))
    flat = mu.ravel()
    val = np.empty(flat.shape, dtype=complex)
    err = np.empty(flat.shape)
    terms = 0
    # blocks of _BLOCK points keep the term matrices small (and in cache)
    for start in range(0, flat.size, _BLOCK):
        m = flat[start:start + _BLOCK]
        if sign > 0:
            routes = ((m <= -1.0, series), (m > -1.0, _li_about_plus_one))
        else:
            mid = (m > -_LN2) & (m <= 0.0)
            near = (m > 0.0) & (m <= edge)
            if w.real <= 0.0:
                # no accelerated sum for these orders: expand about -1 on (-ln 2, 0)
                mid, near = near, mid
            routes = ((m <= -_LN2, series), (mid, _li_alternating),
                      (near, _li_about_minus_one), (m > edge, _li_inversion))
        for mask, route in routes:
            if np.any(mask):
                i = start + np.flatnonzero(mask)
                val[i], err[i], n = route(w, m[mask])
                terms = max(terms, n)
    if not (np.all(np.isfinite(val)) and np.all(np.isfinite(err))):
        raise DomainError(f"no finite error bound for Li_nu(z), z = {sign:+g} e**mu, at nu = {w}")
    if mu.ndim == 0:
        return EvalResult(complex(val[0]), float(err[0]), terms)
    return EvalResult(val.reshape(mu.shape), err.reshape(mu.shape), terms)


def polylog_series_eval(nu, z: float) -> EvalResult:
    """Li_nu(z) for real z in [-1, 1) with its error bound, by polylog."""
    z_arg = float(z)
    if not -1.0 <= z_arg < 1.0:
        raise DomainError(f"polylog series argument must lie in [-1, 1), got {z_arg}")
    if z_arg == 0.0:
        return EvalResult(0.0 + 0.0j, 0.0, 0)
    return polylog(nu, math.log(abs(z_arg)), 1 if z_arg > 0.0 else -1)


def polylog_series(nu, z: float) -> complex:
    """Li_nu(z) = sum_n z**n / n**nu for real z in [-1, 1)."""
    return polylog_series_eval(nu, z).value


def polylog_neg_exp_eval(nu, log_y: float) -> EvalResult:
    """Li_nu(-e**log_y) with its error bound, by polylog."""
    return polylog(nu, float(log_y), -1)


def polylog_neg_exp(nu, log_y: float) -> complex:
    """Value-only variant of polylog_neg_exp_eval."""
    return polylog_neg_exp_eval(nu, log_y).value


def polylog_auto(nu, z: float) -> complex:
    """Li_nu(z) for real z < 1, by polylog."""
    return polylog_series(nu, z) if z >= -1.0 else polylog_neg_exp(nu, math.log(-z))


def _quad_complex(f, a, b, *, t: float = 0.0, points=None, limit=300):
    """Integrate f(s)*exp(i*t*s) for real-valued f over [a, b].

    For t != 0 the oscillation is handled by weighted (Fourier) quadrature.
    Returns (complex value, abs error estimate, node count). The integrator's
    own convergence complaints are silenced; its abserr output is what we
    propagate, so a poor panel shows up in the error estimate instead.
    """
    from scipy import integrate  # quadrature oracles only: keeps scipy out of import

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        if t == 0.0:
            v, e = integrate.quad(f, a, b, points=points, limit=limit,
                                  epsabs=1e-14, epsrel=1e-12)
            return complex(v), e, limit
        vc, ec = integrate.quad(f, a, b, weight="cos", wvar=t, limit=limit,
                                epsabs=1e-13, epsrel=1e-12)
        vs, es = integrate.quad(f, a, b, weight="sin", wvar=t, limit=limit,
                                epsabs=1e-13, epsrel=1e-12)
        return complex(vc, vs), ec + es, 2 * limit


def fermi_dirac_polylog_eval(nu, y: float, tol: float = 1e-9) -> EvalResult:
    """Li_nu(-y) = -(1/Gamma(nu)) integral_0^inf x**(nu-1)/(e**(x - w) + 1) dx,
    w = log y, by quadrature over s = log x, where the integrand
    e**(sigma s) expit(w - e**s) never overflows. The estimate is the
    integrator's (very conservative for the oscillatory weights) over
    |Gamma(nu)|, which is the honest amplification off the real axis.

    Where |Gamma(nu)| underflows the range of normal doubles (|Im nu| past
    about 450 near the critical line) the route cannot divide it out and
    raises DomainError."""
    z = _order(nu)
    if z.real <= 0.0:
        raise DomainError("Fermi-Dirac integral requires Re nu > 0")
    if y <= 0.0:
        raise DomainError("argument y must be positive")
    if z.imag < 0.0:  # conjugation symmetry for real arguments
        r = fermi_dirac_polylog_eval(z.conjugate(), y, tol)
        return EvalResult(r.value.conjugate(), r.abs_error_estimate, r.terms_or_nodes_used)
    lg = loggamma(z)
    if lg.real < _LOG_MIN_NORMAL:
        raise DomainError(
            f"|Gamma(nu)| = e**{lg.real:.1f} underflows at nu = {z}: the"
            " Fermi-Dirac quadrature cannot resolve Li_nu there"
        )
    sig, w = z.real, math.log(y)
    big = math.log(1e18)
    s_max = math.log(max(w, 0.0) + big)
    for _ in range(4):
        s_max = math.log(max(max(w, 0.0) + sig * max(s_max, 1.0) + big, 10.0))
    s_min = math.log(1e-18 * sig) / sig

    def h(s):
        x = w - math.exp(s)  # exp(sigma s) expit(x), with no overflow in either tail
        if x >= 0.0:
            return math.exp(sig * s) / (1.0 + math.exp(-x))
        return math.exp(sig * s + x) / (1.0 + math.exp(x))

    points = [math.log(w)] if z.imag == 0.0 and w > 1.0 else None
    val, err, nodes = _quad_complex(h, s_min, s_max, t=z.imag, points=points)
    g = cmath.exp(lg)
    val, err = -val / g, err / abs(g)
    if err > max(tol * (1.0 + abs(val)), 1e2 * tol):
        raise ConvergenceError(
            f"Fermi-Dirac quadrature error {err:.2e} exceeds tolerance {tol:.2e}"
        )
    return EvalResult(val, err, nodes)


def fermi_dirac_polylog(nu, y: float) -> complex:
    """Li_nu(-y) for any y > 0 through the Fermi-Dirac integral.

    Analytic continuation of the power series past y = 1:
    Li_nu(-y) = -(1/Gamma(nu)) * integral_0^inf y x**(nu-1)/(e**x + y) dx,
    valid for Re nu > 0 on the whole positive y axis. By quadrature, so it
    serves as an oracle independent of polylog.
    """
    return fermi_dirac_polylog_eval(nu, y).value


def bose_polylog_integral_eval(nu, z: float, tol: float = 1e-9) -> EvalResult:
    w = _order(nu)
    if w.real <= 0.0:
        raise DomainError("Bose integral requires Re nu > 0")
    if not 0.0 < z < 1.0:
        raise DomainError(
            f"Bose integral argument must lie in (0, 1), got {z}"
            " (it diverges at z = 1 unless Re nu > 1)"
        )
    sig, t = w.real, w.imag
    if t < 0.0:
        r = bose_polylog_integral_eval(w.conjugate(), z, tol)
        return EvalResult(r.value.conjugate(), r.abs_error_estimate,
                          r.terms_or_nodes_used)
    big = math.log(1e18)
    s_max = math.log(max(sig * 3.0 + big, 10.0))
    s_min = math.log(1e-18 * sig * (1.0 - z) / z) / sig

    def h(s):
        return math.exp(sig * s) * z / (math.exp(math.exp(s)) - z)

    val, err, nodes = _quad_complex(h, s_min, s_max, t=t)
    g = cmath.exp(loggamma(w))
    out = val / g
    err /= abs(g)
    if err > max(tol * (1.0 + abs(out)), 1e2 * tol):
        raise ConvergenceError(
            f"Bose quadrature error {err:.2e} exceeds tolerance {tol:.2e}"
        )
    return EvalResult(out, err, nodes)


def bose_polylog_integral(nu, z: float) -> complex:
    """Li_nu(z) for 0 < z < 1 via Gamma(nu) Li_nu(z) = int_0^inf z x**(nu-1)/(e**x - z) dx."""
    return bose_polylog_integral_eval(nu, z).value


def _li2_real(x: float) -> float:
    """Li_2(x) for real x < 1.

    On [-1, 1/2] the Bernoulli series in u = -log(1 - x),
    Li_2 = u - u**2/4 + sum_j B_2j/(2j)! u**(2j+1)/(2j+1), where |u| <= ln 2;
    above 1/2 the reflection Li_2(x) = pi**2/6 - log x log(1 - x) - Li_2(1 - x),
    below -1 the inversion Li_2(x) = -pi**2/6 - log(-x)**2/2 - Li_2(1/x).
    """
    if x > 0.5:
        return math.pi**2 / 6.0 - math.log(x) * math.log1p(-x) - _li2_real(1.0 - x)
    if x < -1.0:
        lx = math.log(-x)
        return -math.pi**2 / 6.0 - 0.5 * lx * lx - _li2_real(1.0 / x)
    u = -math.log1p(-x)
    u2 = u * u
    s = 0.0
    for j in range(len(_BERN), 0, -1):
        s = s * u2 + _BERN[j - 1] / (2 * j + 1)
    return u - 0.25 * u2 + u * u2 * s


def rogers_dilog(z: float) -> float:
    """Rogers dilogarithm Lr2(z) = Li2(z) + (1/2) log|z| log(1-z) for z <= 1.

    Continuous at z = 0 with Lr2(0) = 0; z = 1 is accepted as the limit
    value pi**2/6 (the free bosonic case).
    """
    z = float(z)
    if z > 1.0:
        raise DomainError("Rogers dilogarithm has a branch cut for z > 1")
    if z == 1.0:
        return math.pi**2 / 6.0
    if z == 0.0:
        return 0.0
    return _li2_real(z) + 0.5 * math.log(abs(z)) * math.log1p(-z)


def expit(x):
    """Logistic function 1/(1 + e**-x), elementwise.

    From e = e**-|x|: 1/(1 + e) for x >= 0 and e/(1 + e) below, so both
    tails keep their relative accuracy (1/(1 + e**-x) flushes to 0 below
    x = -709.8). Where |x| >= 746, e is 0 without calling exp: numpy's exp
    leaves its vector path for results that underflow.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    e = np.exp(-a, out=np.zeros_like(a), where=a < 746.0)
    d = 1.0 + e
    return np.where(x >= 0.0, 1.0 / d, e / d)
