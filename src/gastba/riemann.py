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

Every eta value and the factor 1 - 2**(1-nu) between eta and zeta come
from specfun's eta core (dirichlet_eta_line, one_minus_pow2); nothing here
re-derives them. The scan of the critical line uses no quadrature. Hardy's
Z(t) = e**(i theta(t)) zeta(1/2 + i t), theta(t) = Im log Gamma(1/4 + i t/2)
- (t/2) log pi, is real; its sign changes, sampled from the accelerated eta
series at a quarter of the Gram spacing 2 pi/log(t/2 pi), are refined by
Brent's method and confirmed by zeta through Euler-Maclaurin. Turing's
method (Turing 1953) in the Gram-block form of Brent 1979 ("On the zeros of
the Riemann zeta function in the critical strip", Math. Comp. 33, Thm 3.2)
proves each window complete; the integral bounds on S(t) behind it
(Turing 1953, Lehman 1970) are proved above t = 168 pi, and below that
height the same test is the classical numerical check, anchored at
N(g_-1) = 0 (Edwards 1974, ch. 6). zeta_via_integral_eval, the Fermi-Dirac
quadrature route to zeta, stays as an oracle.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import roots, specfun
from .errors import (
    ConvergenceError,
    DomainError,
    EmptyBracketError,
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
    """One zero of the scan line: on sigma = 1/2 a sign change of Hardy's Z
    refined by Brent, elsewhere a flagged dip of |eta|.

    abs_g is |eta| and abs_zeta |zeta| by the series route at the refined
    height; refined says that the Euler-Maclaurin route confirms the zero
    independently.
    """

    nu: ComplexOrder
    abs_g: float
    refined: bool
    abs_zeta: float


def quasi_coupling(nu) -> complex:
    """h_nu = gamma_nu Gamma(nu) / (2 pi) = 1 / (2 pi (1 - 2**(1-nu)))."""
    z = specfun._order(nu)
    pref = complex(specfun.one_minus_pow2(1.0 - z))
    if abs(pref) < 1e-12:
        raise ExcludedOrderError(
            f"1 - 2**(1-nu) vanishes at nu = {z}; kernel normalization undefined"
        )
    return 1.0 / (2.0 * math.pi * pref)


def make_kernel_spec(nu) -> QuasiKernelSpec:
    """Compute (gamma_nu, h_nu, b_nu) for the quasi-periodic kernel.

    b_nu is computed in its Gamma(1/2 - nu) form. Through the duplication
    identity sin(pi nu) Gamma(1-2 nu) Gamma(nu) = sqrt(pi) 2**(-2 nu) Gamma(1/2 - nu)
    it gives the same kernel as gamma_nu; nothing here checks that identity,
    and `gastba kernel-check` reports its residual.
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


def kernel_from_potential_eval(spec: QuasiKernelSpec, k: float) -> EvalResult:
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


_LOG_PI = math.log(math.pi)
_XTOL = 1e-12  # Brent's absolute tolerance on a zero's height
_CONFIRM_H = 1e-8  # the Euler-Maclaurin route must see Z change sign over t* -+ this
_MAX_HALVINGS = 6  # local halvings of the scan step before a window is given up
_DIP = 0.05  # off the line, a dip of |eta| is flagged below this share of its neighbours
_STIRLING_T = 2.0 * specfun._STIRLING_MIN  # t > 14: Stirling holds at 1/4 + i t/2
_G_MINUS_1 = 9.666908056130192  # the Gram point g_-1, theta(g_-1) = -pi


def _theta(ts: np.ndarray) -> np.ndarray:
    """theta(t) = Im log Gamma(1/4 + i t/2) - (t/2) log pi over an array:
    the continuous phase that makes Z(t) = e**(i theta) zeta(1/2 + i t) real.
    Above t = 14, where |Im(1/4 + i t/2)| > 7, the Stirling series alone."""
    z = 0.25 + 0.5j * ts
    lg = specfun._stirling(z) if np.min(ts) > _STIRLING_T else specfun.loggamma(z)
    return lg.imag - 0.5 * _LOG_PI * ts


def _theta_scalar(t: float) -> float:
    """theta at one height, the Stirling series in cmath above t = 14."""
    if t <= _STIRLING_T:
        return float(_theta(np.float64(t)))
    return specfun._stirling(complex(0.25, 0.5 * t), cmath.log).imag - 0.5 * _LOG_PI * t


def _hardy_z(ts: np.ndarray) -> np.ndarray:
    """Hardy's Z(t) = Re(e**(i theta) eta(1/2 + i t) / (1 - 2**(1/2 - i t)))."""
    eta = specfun.dirichlet_eta_line(0.5, ts)
    rot = np.exp(1j * _theta(ts)) / specfun.one_minus_pow2(0.5 - 1j * ts)
    return (rot * eta).real


def _hardy_z_scalar(t: float) -> float:
    """Z at one height, for the steps of Brent's method."""
    eta = complex(specfun._eta_line_sums(0.5, np.array([t]), False)[0, 0])
    rot = cmath.exp(1j * _theta_scalar(t)) / complex(specfun.one_minus_pow2(complex(0.5, -t)))
    return (rot * eta).real


def _gram_spacing(t: float) -> float:
    """2 pi / log(t / 2 pi), the mean distance of zeros at height t (capped
    at 2 pi below t = 2 pi e)."""
    return 2.0 * math.pi / math.log(max(t, 2.0 * math.pi * math.e) / (2.0 * math.pi))


def _scan_step(t: float) -> float:
    """The first step of the scan at height t: a quarter of the Gram spacing."""
    return 0.25 * _gram_spacing(t)


def _gram_points(j0: int, j1: int) -> np.ndarray:
    """The Gram points g_j, theta(g_j) = j pi, for j0 <= j <= j1 (j0 >= -1).

    Newton's method on theta from t = 2 pi (j + 1/8)/W((j + 1/8)/e), which
    solves the leading terms (t/2) log(t/(2 pi e)) - pi/8 = j pi, with the
    slope theta'(t) ~ log(t/(2 pi))/2 - 1/(48 t**2).
    """
    j = np.arange(j0, j1 + 1, dtype=float)
    x = (j + 0.125) / math.e
    w = np.log1p(x)  # W(x) by Newton's method, x >= -0.875/e > -1/e
    for _ in range(8):
        ew = np.exp(w)
        w -= (w * ew - x) / (ew * (w + 1.0))
    t = 2.0 * math.pi * (j + 0.125) / w
    for _ in range(8):
        slope = 0.5 * np.log(t / (2.0 * math.pi)) - 1.0 / (48.0 * t * t)
        step = (_theta(t) - j * math.pi) / slope
        t -= step
        if np.max(np.abs(step)) < 1e-10:
            break
    return t


def _rosser_blocks(t: float) -> int:
    """Gram blocks that must satisfy Rosser's rule on each side of a window
    topped at height t: K >= 0.0061 log(t)**2 + 0.08 log(t) (Brent 1979,
    Thm 3.2); 1 for every height up to ETA_T_MAX."""
    lt = math.log(t)
    return max(1, math.ceil(0.0061 * lt * lt + 0.08 * lt))


class _GramScan:
    """Z(t) sampled on [g_lo, g_hi], a run of whole Gram intervals.

    ts holds every Gram point of the run and, inside each Gram interval,
    the points of its scan step, which halving refines interval by interval.
    """

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi
        self.gram = _gram_points(lo, hi)
        self.ts = self._cells(self.gram)
        self.zs = _hardy_z(self.ts)

    @staticmethod
    def _cells(gram: np.ndarray) -> np.ndarray:
        parts = [np.linspace(a, b, max(1, math.ceil((b - a) / _scan_step(a))), endpoint=False)
                 for a, b in zip(gram[:-1], gram[1:])]
        return np.concatenate(parts + [gram[-1:]])

    def extend(self, down: int, up: int) -> None:
        """Add `down` Gram intervals below (not past g_-1) and `up` above."""
        new = []
        down = min(down, self.lo + 1)
        if down:
            g = _gram_points(self.lo - down, self.lo)
            new.append(self._cells(g)[:-1])
            self.gram = np.concatenate([g[:-1], self.gram])
            self.lo -= down
        if up:
            g = _gram_points(self.hi, self.hi + up)
            new.append(self._cells(g)[1:])
            self.gram = np.concatenate([self.gram, g[1:]])
            self.hi += up
        if new:
            self._insert(np.concatenate(new))

    def _insert(self, ts: np.ndarray) -> None:
        """Sample Z at the new heights ts and merge them in order."""
        order = np.argsort(np.concatenate([self.ts, ts]), kind="stable")
        self.ts = np.concatenate([self.ts, ts])[order]
        self.zs = np.concatenate([self.zs, _hardy_z(ts)])[order]

    def _at(self, j: int) -> int:
        """Index in ts of the Gram point g_j."""
        return int(np.searchsorted(self.ts, self.gram[j - self.lo]))

    def good(self, j: int) -> bool:
        """Gram's law at g_j: (-1)**j Z(g_j) > 0."""
        z = self.zs[self._at(j)]
        return z > 0.0 if j % 2 == 0 else z < 0.0

    def changes(self, j0: int, j1: int) -> int:
        """Sign changes of the samples of Z on [g_j0, g_j1]."""
        pos = self.zs[self._at(j0):self._at(j1) + 1] > 0.0
        return int(np.count_nonzero(pos[1:] != pos[:-1]))

    def bare(self, j0: int, j1: int) -> list[int]:
        """The Gram intervals [g_j, g_j+1) of [g_j0, g_j1) without a sign
        change of Z, or all of them if each has one."""
        cells = list(range(j0, j1))
        return [j for j in cells if self.changes(j, j + 1) == 0] or cells

    def halve(self, cells: list[int]) -> None:
        """Halve the step inside the Gram intervals [g_j, g_j+1) of cells."""
        segs = [self.ts[self._at(j):self._at(j + 1) + 1] for j in cells]
        self._insert(np.concatenate([0.5 * (seg[1:] + seg[:-1]) for seg in segs]))


def _next_good(scan: _GramScan, j: int, step: int) -> int | None:
    """The first good Gram point from j on, in the direction of step (-1 or
    +1); g_-1 is good. None where the walk leaves the sampled run."""
    while scan.lo <= j <= scan.hi:
        if j == -1 or scan.good(j):
            return j
        j += step
    return None


def _rosser_side(scan: _GramScan, j: int, step: int, k: int):
    """The Gram index that closes a window's count on one side, and the
    Gram intervals whose step must be halved before it can.

    From j, walk in the direction of step to the first good Gram point a,
    then past k more Gram blocks, each of which must hold at least as many
    sign changes as Gram intervals (Rosser's rule). Going down, reaching
    g_-1 ends the walk there: no zero lies under it (N(g_-1) = 0). Returns
    (a, cells), or (None, []) when the walk leaves the sampled run.
    """
    a = p = _next_good(scan, j, step)
    cells = []
    for _ in range(k):
        if p is None or p == -1:
            break
        q = _next_good(scan, p + step, step)
        if q is None or q == -1:
            return q, []
        j0, j1 = min(p, q), max(p, q)
        if scan.changes(j0, j1) < j1 - j0:
            cells += scan.bare(j0, j1)
        p = q
    return a, cells


def _certified_scan(t_min: float, t_max: float) -> tuple[_GramScan, int, int]:
    """Sample Z until Turing's method certifies the window.

    Returns the scan and Gram indices a <= b with g_a <= t_min and
    g_b >= t_max such that [g_a, g_b) holds exactly b - a zeros of zeta,
    each a sign change of the samples. N(g_a) >= a + 1 and N(g_b) <= b + 1
    come from k Gram blocks satisfying Rosser's rule on each side (Brent
    1979, Thm 3.2) or, for a = -1, from N(g_-1) = 0; b - a sign changes then
    leave no zero unaccounted for. Where the count falls short, the step is
    halved in the Gram intervals without a sign change, where a close pair
    of zeros (a Lehmer pair) hides; after _MAX_HALVINGS rounds the window is
    given up with ConvergenceError.
    """
    j_lo = -1
    if t_min > _G_MINUS_1:
        j_lo = max(math.floor(_theta_scalar(t_min) / math.pi), -1)
    j_hi = max(math.ceil(_theta_scalar(t_max) / math.pi), j_lo + 1)
    k = _rosser_blocks(t_max)
    scan = _GramScan(max(j_lo - k, -1), j_hi + k)
    for _ in range(_MAX_HALVINGS + 1):
        while True:
            a, low_cells = _rosser_side(scan, j_lo, -1, k)
            b, high_cells = _rosser_side(scan, j_hi, +1, k)
            if a is not None and b is not None and k >= _rosser_blocks(scan.gram[-1]):
                break
            k = _rosser_blocks(scan.gram[-1])
            scan.extend(2 if a is None else 0, 2 if b is None else 0)
        found = scan.changes(a, b)
        if found > b - a:
            raise ConvergenceError(
                f"{found} sign changes of Z in [g_{a}, g_{b}], where Turing's"
                f" method allows {b - a}: the samples of Z are not accurate"
            )
        cells = low_cells + high_cells
        if found < b - a:
            cells += scan.bare(a, b)
        if not cells:
            return scan, a, b
        scan.halve(sorted(set(cells)))
    raise ConvergenceError(
        f"Turing's method counts {b - a} zeros in [{scan.gram[a - scan.lo]:.6g},"
        f" {scan.gram[b - scan.lo]:.6g}] but {_MAX_HALVINGS} halvings of the step"
        f" found {found} sign changes of Z"
    )


def _brent_on_line(ta: float, tb: float, za: float, zb: float) -> float:
    """Brent's zero of Z in [ta, tb], where Z(ta) = za and Z(tb) = zb differ in sign."""

    def f(t):  # the bracket ends are sampled already
        return za if t == ta else zb if t == tb else _hardy_z_scalar(t)

    return roots.brent(f, ta, tb, xtol=_XTOL)


def _confirmed(ts: np.ndarray) -> np.ndarray:
    """Whether zeta by Euler-Maclaurin sees Z change sign over t -+ _CONFIRM_H,
    beyond its error bound on both sides, for each zero t of ts."""
    around = np.concatenate([ts - _CONFIRM_H, ts + _CONFIRM_H])
    em = specfun.zeta_em_eval(0.5 + 1j * around)
    z = (np.exp(1j * _theta(around)) * em.value).real
    clear = np.abs(z) > em.abs_error_estimate
    lo, hi = np.split(z, 2)
    return clear[:len(ts)] & clear[len(ts):] & ((lo > 0.0) != (hi > 0.0))


def critical_line_zeros(t_min: float, t_max: float) -> list[ZeroCandidate]:
    """The zeros 1/2 + i t of zeta with t_min <= t <= t_max, certified complete:
    their number is Turing's count (see find_zeros). Raises DomainError for a
    window whose top lies past specfun.ETA_T_MAX and ConvergenceError where
    the count cannot be closed.
    """
    if not t_max > t_min >= 0.0:
        raise DomainError("need t_max > t_min >= 0")
    if t_max > specfun.ETA_T_MAX:
        raise DomainError(
            f"t_max = {t_max:g} lies past {specfun.ETA_T_MAX:g}, the height up to"
            " which the eta series, and so Z, can be certified"
        )
    if t_max < _G_MINUS_1:
        return []  # N(g_-1) = 0
    scan, a, b = _certified_scan(t_min, t_max)
    ts, zs = scan.ts, scan.zs
    found = [_brent_on_line(ts[i], ts[i + 1], zs[i], zs[i + 1])
             for i in range(scan._at(a), scan._at(b))
             if (zs[i] > 0.0) != (zs[i + 1] > 0.0) and ts[i + 1] >= t_min and ts[i] <= t_max]
    t = np.array([x for x in found if t_min <= x <= t_max])
    if not t.size:
        return []
    abs_eta = np.abs(specfun.dirichlet_eta_line(0.5, t))
    pref = np.abs(specfun.one_minus_pow2(0.5 - 1j * t))
    return [ZeroCandidate(nu=ComplexOrder(0.5, float(x)), abs_g=float(g),
                          refined=bool(ok), abs_zeta=float(g / p))
            for x, g, p, ok in zip(t, abs_eta, pref, _confirmed(t))]


def _off_line_dips(sigma: float, t_min: float, t_max: float) -> list[ZeroCandidate]:
    """Dips of |eta| on a line sigma != 1/2, judged against their neighbours.

    Discrete minima of |eta| on the scan grid are refined by Brent on the
    sign of d|eta|**2/dt = 2 Re(conj(eta) d eta/dt); a dip is flagged when
    |eta| there is below _DIP times the smaller |eta| of the grid neighbours,
    and refined when the Euler-Maclaurin route puts a zero within
    _CONFIRM_H of it to first order.
    """
    n = max(math.ceil((t_max - t_min) / _scan_step(t_max)), 7) + 1
    ts = np.linspace(t_min, t_max, n)
    g = np.abs(specfun.dirichlet_eta_line(sigma, ts))

    def slope(t):
        (eta, deta), = specfun._eta_line_sums(sigma, np.array([t]), True)
        return (eta.conjugate() * deta).real

    out = []
    for i in range(1, n - 1):
        if not (g[i] <= g[i - 1] and g[i] <= g[i + 1]):
            continue
        try:
            t = roots.brent(slope, float(ts[i - 1]), float(ts[i + 1]), xtol=_XTOL)
        except EmptyBracketError:
            t = float(ts[i])
        (eta, deta), = specfun._eta_line_sums(sigma, np.array([t]), True)
        if not abs(eta) < _DIP * min(g[i - 1], g[i + 1]):
            continue
        nu = complex(sigma, t)
        pref = abs(specfun.one_minus_pow2(1.0 - nu))
        em = specfun.zeta_em_eval(nu)
        refined = abs(em.value) <= em.abs_error_estimate + abs(deta) / pref * _CONFIRM_H
        out.append(ZeroCandidate(nu=ComplexOrder(sigma, t), abs_g=float(abs(eta)),
                                 refined=bool(refined), abs_zeta=float(abs(eta) / pref)))
    return out


def zeta_via_integral_eval(nu) -> EvalResult:
    """zeta through the Fermi-Dirac integral: -Li_nu(-1) = (1 - 2**(1-nu)) zeta(nu).

    Independent of the eta-series route. In double precision the achievable
    absolute accuracy degrades like exp(pi |Im nu| / 2) because of the
    1/Gamma(nu) amplification; the error estimate reports this honestly.
    """
    z = specfun._order(nu)
    li = specfun.fermi_dirac_polylog_eval(z, 1.0, tol=math.inf)
    pref = complex(specfun.one_minus_pow2(1.0 - z))
    return EvalResult(-li.value / pref, li.abs_error_estimate / abs(pref),
                      li.terms_or_nodes_used)


def find_zeros(sigma: float, t_min: float, t_max: float) -> list[ZeroCandidate]:
    """Zeros of g(nu) = (1 - 2**(1-nu)) zeta(nu) = eta(nu) on a fixed-sigma line.

    On sigma = 1/2 it returns every zero with t_min <= t <= t_max, and no
    other: the sign changes of Hardy's real Z(t), sampled at a quarter of
    the Gram spacing and refined by Brent's method. Turing's method proves
    the list complete: the window grows to Gram points g_a <= t_min and
    g_b >= t_max closed by Gram blocks that satisfy Rosser's rule, where
    [g_a, g_b) holds exactly b - a zeros, and the scan must find b - a sign
    changes there, halving its step locally until it does. A zero is
    refined when zeta by Euler-Maclaurin, a route independent of the eta
    series, confirms the sign change of Z across t -+ 1e-8. Windows past
    specfun.ETA_T_MAX raise DomainError; a count that cannot be closed
    raises ConvergenceError.

    Off the line it flags the dips of |eta| that are deep against the
    neighbouring values, each refined by Brent on d|eta|**2/dt.
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError("sigma must lie in the open critical strip (0, 1)")
    if sigma == 0.5:
        return critical_line_zeros(t_min, t_max)
    if not t_max > t_min >= 0.0:
        raise DomainError("need t_max > t_min >= 0")
    return _off_line_dips(sigma, t_min, t_max)


def verify_zero_delta(candidate: ZeroCandidate, temperatures) -> float:
    """Max over T of |Re[T**(nu-1) h_nu Li_nu(-1)]|, the delta = 0 defect.

    Li_nu(-1) is proportional to zeta(nu), so a refined zero candidate must
    give a residual at the |zeta| scale at every temperature.
    """
    z = complex(candidate.nu)
    h_nu = quasi_coupling(z)
    li = specfun.polylog(z, 0.0, -1).value
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
