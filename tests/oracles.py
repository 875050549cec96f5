"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own evaluation paths: the Gamma
oracle integrates the defining integral with adaptive quadrature, and the
high-precision zeta oracle runs the accelerated alternating series in
mpmath arbitrary-precision arithmetic, where the acceleration error bound
is driven far below double precision. The dense profile matrix assembles
every entry of the kernel sum that the profile solver applies by FFT.
"""
from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
from scipy import integrate


def gamma_defining_integral(nu: complex) -> complex:
    """Gamma(nu) = int_0^inf t**(nu-1) e**-t dt for Re nu > 0 by quadrature."""
    if complex(nu).real <= 0:
        raise ValueError("defining integral needs Re nu > 0")

    def f_re(t):
        return (t ** (nu - 1)).real * math.exp(-t)

    def f_im(t):
        return (t ** (nu - 1)).imag * math.exp(-t)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=integrate.IntegrationWarning)
        re, _ = integrate.quad(f_re, 0, 80, limit=500, epsabs=1e-15, epsrel=1e-14)
        im, _ = integrate.quad(f_im, 0, 80, limit=500, epsabs=1e-15, epsrel=1e-14)
    return complex(re, im)


def mp_eta(nu, dps: int = 30) -> mp.mpc:
    """Accelerated alternating eta series in mpmath arithmetic."""
    with mp.workdps(dps):
        nu = mp.mpc(nu)
        t = abs(float(nu.imag))
        n = int((dps * mp.log(10) + mp.pi * t / 2) / mp.log(3 + mp.sqrt(8))) + 15
        d = (3 + mp.sqrt(8)) ** n
        d = (d + 1 / d) / 2
        b = mp.mpf(-1)
        c = -d
        s = mp.mpc(0)
        for k in range(n):
            c = b - c
            s += c * mp.power(k + 1, -nu)
            b *= mp.mpf((k + n) * (k - n)) / ((k + mp.mpf(0.5)) * (k + 1))
        return s / d


def mp_zeta(nu, dps: int = 30) -> mp.mpc:
    """zeta from the high-precision eta series (Re nu > 0, nu != 1)."""
    with mp.workdps(dps):
        nu = mp.mpc(nu)
        return mp_eta(nu, dps) / (1 - 2 ** (1 - nu))


def mp_refine_zero(t0: float, dps: int = 40) -> mp.mpf:
    """Newton-refine a critical-line zero of eta at high precision."""
    with mp.workdps(dps):
        t = mp.mpf(t0)
        h = mp.mpf(10) ** (-12)
        for _ in range(60):
            g0 = mp_eta(mp.mpc(0.5, t), dps)
            gp = mp_eta(mp.mpc(0.5, t + h), dps)
            gm = mp_eta(mp.mpc(0.5, t - h), dps)
            step = -(g0 / ((gp - gm) / (2 * h))).real
            t = t + step
            if abs(step) < mp.mpf(10) ** (-25):
                break
        return t


def dense_profile_matrix(spec, k, w) -> np.ndarray:
    """The profile equation's N x N matrix, w_j/(2 pi) [K(|k_i - k_j|) + K(k_i + k_j)]
    with K(x) = Re(gamma_nu x**(2 nu - 1)) and K(0) = 0, assembled entry by entry
    from the nodes k and weights w."""
    expo = 2.0 * complex(spec.nu) - 1.0

    def ker(x):
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = (spec.gamma_nu * x[pos] ** expo).real
        return out

    return w / (2.0 * math.pi) * (ker(np.abs(k[:, None] - k)) + ker(k[:, None] + k))


# frozen from the oracles above (dps = 30..40); regenerated by the slow tests
GAMMA_075_2I = complex(0.125572188541070110936851278812, -0.0275245648690685636665159770092)
ZETA_HALF = -1.4603545088095868129
FREE_1D_DENSITY_FACTOR = 0.60489864342163037025  # (1 - sqrt 2) zeta(1/2)
FREE_1D_PRESSURE_FACTOR = 0.76514702462540794537  # (1 - 1/sqrt 2) zeta(3/2)
ZETA_3_2 = 2.6123753486854883433
ZETA_5_2 = 1.3414872572509171798
ZETA_3 = 1.2020569031595942854
LI2_HALF = 0.5822405264650125059  # pi^2/12 - log(2)^2/2
CRITICAL_LINE_ZEROS = (
    14.13472514173469379046,
    21.02203963877155499263,
    25.01085758014568876321,
)
# Li_nu(-e**mu) at nu = 0.7 + i t, by mpmath.polylog at 0.3 t + 70 digits, which
# agrees with 0.3 t + 40 digits to 1e-25 (at 40 digits mpmath itself has no
# correct digit left from t ~ 250 on); keyed by (mu, t)
LI_NEG_EXP_07 = {
    (0.05, 100): (2.873472153059419-1.090367893511833j),
    (0.05, 150): (-1.0714264772376145-5.538910962064291j),
    (0.05, 200): (-0.5800563528756456-17.380683262085583j),
    (0.05, 250): (2.5138881919526193-31.22089819966876j),
    (0.05, 300): (20.630385635661888+61.58257626393999j),
    (0.5, 100): (2362174.0037844996+4457458.335917423j),
    (0.5, 150): (12402396674.866436+988107324.3909172j),
    (0.5, 200): (18651579707191.816+25280246849962.04j),
    (0.5, 250): (-1.223006456331595e+16+7.942226194699763e+16j),
    (0.5, 300): (6.089096493176751e+19-1.980837430379269e+20j),
    (0.5, 600): (-8.989456368147561e+39+6.542640141735013e+40j),
}
