"""Saddle-point solvers for the pseudo-energy of interacting gases.

The filling fraction f = 1/(e**(eps/T) - s) is parameterized by a
pseudo-energy eps(k). A constant shift, eps = omega - mu + T*delta, solves one
equation, delta = Re[c Li_nu(s z_mu e**-delta)], in _solve_shift. The
constant two-body kernel in d dimensions has c = s h_T and nu = d/2; the
quasi-periodic kernel K(k) = -Re(gamma_nu k**(2 nu - 1)) has
c = -T**(nu-1) h_nu, s = -1 and z_mu = 1. In two dimensions the constant-kernel
equation is algebraic, z = (1 - s z_mu z)**(s h), solved in _solve_2d. Without
the constant-shift ansatz the quasi-periodic kernel gives a one-dimensional
integral equation, solved on a momentum grid.

Units: k_B = 1, hbar = 1; the default particle mass is 1/2 so that
omega_k = k**2 and the thermal factor is T_tilde = m*T/(2*pi) = T/(4*pi).
"""
from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import riemann, specfun
from .errors import (
    BranchAmbiguityError,
    ConvergenceError,
    DomainError,
    EmptyBracketError,
    NoSolutionError,
    TruncationWarning,
)
from .riemann import QuasiKernelSpec
from .roots import anderson, brent

BOSON = +1
FERMION = -1


@dataclass(frozen=True)
class SpeciesSpec:
    """One particle species: mass, statistics sign, fugacity."""

    name: str = "species"
    mass: float = 0.5
    statistics: int = BOSON  # +1 boson, -1 fermion
    z_mu: float = 1.0  # fugacity e**(mu/T)

    def __post_init__(self):
        if not (math.isfinite(self.mass) and math.isfinite(self.z_mu)):
            raise DomainError("mass and fugacity z_mu must be finite")
        if self.mass <= 0.0:
            raise DomainError("mass must be positive")
        if self.statistics not in (BOSON, FERMION):
            raise DomainError("statistics must be +1 (boson) or -1 (fermion)")
        if self.z_mu <= 0.0:
            raise DomainError("fugacity z_mu must be positive")


@dataclass(frozen=True)
class CouplingSpec:
    """Two-body coupling in one of its equivalent parameterizations.

    mode "gamma": delta-potential strength (energy * volume);
    mode "scattering_length": length a with gamma/(2 pi)**(d/2) = a**(d-2)/m;
    mode "h_T": the dimensionless thermal coupling (sqrt(2 pi) a / lambda_T)**(d-2);
    mode "h_2d": the temperature-independent dimensionless coupling of d = 2.
    """

    mode: str
    value: float
    d: float

    _MODES = ("gamma", "scattering_length", "h_T", "h_2d")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise DomainError(f"unknown coupling mode {self.mode!r}")
        if not (math.isfinite(self.value) and math.isfinite(self.d)):
            raise DomainError("coupling value and dimension must be finite")
        if self.d <= 0.0:
            raise DomainError("dimension must be positive")
        if self.mode == "h_2d" and self.d != 2:
            raise DomainError("mode h_2d is only meaningful at d = 2")


def coupling_a_pow(coupling: CouplingSpec, T: float, mass: float) -> float:
    """A = a**(d-2) = m gamma / (2 pi)**(d/2) = h_T (m T)**(-(d-2)/2), off d = 2.

    At d = 2 the power of a degenerates and only the dimensionless h exists.
    """
    d = coupling.d
    if d == 2:
        raise DomainError("a**(d-2) is degenerate at d = 2; use mode h_2d or h_T")
    if coupling.mode == "gamma":
        return mass * coupling.value / (2.0 * math.pi) ** (d / 2.0)
    if coupling.mode == "scattering_length":
        if coupling.value <= 0.0:
            raise DomainError("scattering length must be positive")
        return coupling.value ** (d - 2.0)
    return coupling.value * (mass * T) ** (-(d - 2.0) / 2.0)  # h_T; h_2d needs d = 2


def coupling_h_T(coupling: CouplingSpec, T: float, mass: float) -> float:
    """Resolve any coupling mode to the thermal coupling h_T at temperature T.

    h_T = (a sqrt(m T))**(d-2); at d = 2 it is the dimensionless h itself.
    """
    if coupling.mode in ("h_T", "h_2d"):
        return coupling.value
    return coupling_a_pow(coupling, T, mass) * (mass * T) ** ((coupling.d - 2.0) / 2.0)


@dataclass
class SolverConfig:
    """Tolerances, iteration caps, damping (the weight of roots.anderson), grids and
    brackets. solve_delta_quasi scans bracket_points points of delta_bracket, and
    solve_delta_constant scans max(bracket_points // 5, 64) of them."""

    tol: float | None = None  # default 1e-12 (2d), 1e-14 (multispecies), 1e-10 (shifts, profile)
    max_iter: int = 400
    damping: float = 0.5
    grid_points: int = 512  # a positive multiple of 16: grid_points/16 Gauss-Legendre panels
    k_max_sigmas: float = 2.0
    delta_bracket: tuple[float, float] = (-10.0, 10.0)
    bracket_points: int = 2000

    def __post_init__(self):
        if self.tol is not None and not 0.0 < self.tol < 1.0:
            raise DomainError("tol must lie in (0, 1)")
        if not 0.0 < self.damping <= 1.0:
            raise DomainError("damping must lie in (0, 1]")
        if not 0.0 < self.k_max_sigmas < math.inf:
            raise DomainError("k_max_sigmas must be positive and finite")
        for name, least in (("max_iter", 1), ("grid_points", 16), ("bracket_points", 2)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise DomainError(f"{name} must be an integer of at least {least}")
        if self.grid_points % 16:
            raise DomainError("grid_points must be a positive multiple of 16")

    def resolved_tol(self, default: float) -> float:
        return default if self.tol is None else self.tol


@dataclass
class SaddleSolution:
    """A converged constant shift delta with its certificate."""

    delta: float
    z_delta: float  # e**(-delta)
    residual: float
    iterations: int
    branch_note: str = ""
    all_roots: list[float] = field(default_factory=list)


@dataclass
class PseudoEnergyProfile:
    """Discretized eps(k) on the non-negative half of a symmetric grid.

    eps depends on |k| only; the symmetric extension to negative momenta is
    implied and returned by extended(). Quadrature weights cover [0, k_max].
    """

    nodes: np.ndarray
    epsilon: np.ndarray
    temperature: float
    kernel_id: str
    weights: np.ndarray
    iterations: int = 0  # calls of the profile map by roots.anderson
    residual: float = math.nan  # sup-norm residual of the discrete equation

    @property
    def omega(self) -> np.ndarray:
        return self.nodes**2  # mass fixed at 1/2

    def occupancy(self) -> np.ndarray:
        return specfun.expit(-self.epsilon / self.temperature)

    def extended(self) -> tuple[np.ndarray, np.ndarray]:
        """Full symmetric grid (-k reversed then +k) and mirrored epsilon."""
        k = np.concatenate([-self.nodes[::-1], self.nodes])
        e = np.concatenate([self.epsilon[::-1], self.epsilon])
        return k, e


def _scan_roots(fun, lo: float, hi: float, n: int, tol: float) -> list[float]:
    """All sign-change roots of fun on [lo, hi] from an n-point scan.

    fun maps an array of points to an array of values; it is called once on
    the whole scan, and Brent's method refines each bracket on it point by
    point.
    """
    xs = np.linspace(lo, hi, n)
    vals = fun(xs)

    def one(x):
        return float(fun(np.array([x]))[0])

    roots = []
    for i in range(n - 1):
        a, b = vals[i], vals[i + 1]
        if not (math.isfinite(a) and math.isfinite(b)):
            continue
        if a == 0.0:
            roots.append(float(xs[i]))
        elif a * b < 0.0:
            roots.append(brent(one, xs[i], xs[i + 1], xtol=1e-15, rtol=8.9e-16))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    # dedupe near-coincident refinements
    out: list[float] = []
    for r in roots:
        if not out or abs(r - out[-1]) > tol:
            out.append(r)
    return out


def _solve_shift(c, order, s: int, log_zmu: float, lo: float, hi: float, points: int,
                 cfg: SolverConfig) -> SaddleSolution:
    """The shift equation delta = Re[c Li_order(s z_mu e**-delta)] on [lo, hi].

    Returns the root of smallest |delta| of a `points`-point _scan_roots, or
    delta = 0 where |r(0)| < tol (as at a zeta zero), with every root in
    all_roots. No root raises EmptyBracketError and two roots equally far
    from 0 raise BranchAmbiguityError. The residual must lie below tol or
    below ten times the polylog's error bound on it, whichever is larger.
    """
    tol = cfg.resolved_tol(1e-10)

    def li(delta):
        return specfun.polylog(order, log_zmu - delta, s)

    def residual(delta):
        return delta - (c * li(delta).value).real

    roots = _scan_roots(residual, lo, hi, points, 1e-9)
    r0 = None
    # a root at the origin replaces the refinements that straddle it within
    # evaluation noise; genuine other roots sit at O(1) distance, not in 1e-4
    if lo <= 0.0 <= hi and (not roots or min(map(abs, roots)) < 1e-4):
        r0 = residual(0.0)
        if abs(r0) < tol:
            roots = [r for r in roots if abs(r) > 1e-4] + [0.0]
    if not roots:
        raise EmptyBracketError(f"no root of the shift equation on [{lo:.3g}, {hi:.3g}]" + (
            "" if r0 is None else f"; delta = 0 leaves residual {r0:.3e}"))
    roots.sort(key=abs)
    if len(roots) > 1 and abs(abs(roots[0]) - abs(roots[1])) < 1e-9:
        raise BranchAmbiguityError(
            f"two roots equidistant from the free branch: {roots[0]:.6g}, {roots[1]:.6g}"
        )
    delta = roots[0]
    val = li(delta)
    res = abs(delta - (c * val.value).real)
    noise_floor = 10.0 * abs(c) * val.abs_error_estimate
    if res > max(tol, noise_floor):
        raise ConvergenceError(f"root residual {res:.2e} above tolerance {tol:.2e}")
    z_delta = math.exp(-delta) if -delta < 700.0 else math.inf
    return SaddleSolution(delta, z_delta, res, 0,
                          branch_note="smallest-|delta| root", all_roots=roots)


def solve_delta_constant(d: float, species: SpeciesSpec, coupling: CouplingSpec,
                         T: float, cfg: SolverConfig | None = None) -> SaddleSolution:
    """Constant-kernel shift: delta = s * h_T * Li_{d/2}(s z_mu e**-delta), the
    shift equation with c = s h_T and order d/2 (see _solve_shift). Its root
    of smallest |delta| is the one connected to delta = 0 at h_T = 0.
    """
    cfg = cfg or SolverConfig()
    if not 0.0 < T < math.inf:
        raise DomainError("temperature must be positive and finite")
    h = coupling_h_T(coupling, T, species.mass)
    s = species.statistics
    if h == 0.0:
        return SaddleSolution(0.0, 1.0, 0.0, 0, branch_note="free")
    log_zmu = math.log(species.z_mu)
    lo, hi = cfg.delta_bracket
    if s == BOSON:  # z_mu e**-delta stays below the branch point at 1
        lo = max(float(np.nextafter(log_zmu, math.inf)), lo)
    return _solve_shift(s * h, d / 2.0, s, log_zmu, lo, hi if lo < hi else lo + 20.0,
                        max(cfg.bracket_points // 5, 64), cfg)


def _solve_2d(s: int, h: float, z_mu: float, cfg: SolverConfig | None) -> SaddleSolution:
    """The 2d fixed point z = (1 - s z_mu z)**(s h) as one equation for both statistics:
    F(w) = a w + log(1 - e**-w) - log z_mu = 0 in w = -s log(1 - s z_mu z) > 0, with
    a = h + (1 - s)/2 and delta = -log z = h w. F'(w) = a + 1/(e**w - 1), so F rises
    for all w when a >= 0 and up to w_top = log(1 - 1/a) when a < 0. The root on this
    rising side is the one connected to z = 1 at h = 0; Brent's method finds it in
    log w (past w = e**7, where e**-w underflows, it is log z_mu / a). With no root
    there (only when a <= 0), bosons raise NoSolutionError and fermions return the
    tagged limit z -> infinity. residual is |F(w)|, the relative residual of z_mu z,
    certified against tol or, where it is larger (h past about 1e37), against ten
    times the change in F over one ulp of t.
    """
    tol = (cfg or SolverConfig()).resolved_tol(1e-12)
    if z_mu <= 0.0:
        raise DomainError("fugacity must be positive")
    if h == 0.0:
        return SaddleSolution(0.0, 1.0, 0.0, 0, branch_note="free")
    a, log_zmu = h + (1 - s) / 2, math.log(z_mu)

    def fun(t):  # F at w = e**t, with log(1 - e**-w) as in Maechler 2012
        w = math.exp(t)
        return a * w - log_zmu + (
            math.log(-math.expm1(-w)) if w <= math.log(2.0) else math.log1p(-math.exp(-w)))

    # F(w) <= a w + log w - log z_mu < -1 at w = min(1/a, z_mu/e)/e (z_mu/e**2 if a <= 0);
    # F(w) > a w - 1/2 - log z_mu for w >= 1; where |a| < 1e-300, w_top lies past 690
    t_lo = -1.0 - max(1.0 - log_zmu, math.log(a) if a > 0.0 else -math.inf)
    t_hi = (min(7.0, max(0.0, math.log1p(abs(log_zmu)) - math.log(a))) if a > 0.0
            else math.log(math.log1p(-1.0 / min(a, -1e-300))))
    if fun(t_hi) > 0.0:
        t = brent(fun, t_lo, t_hi, xtol=1e-16)
        w = math.exp(t)
        delta, res = h * w, abs(fun(t))
        # one ulp of t moves F by eps |t| dF/dt, dF/dt = a w + w/(e**w - 1)
        slope = a * w + w * math.exp(-w) / -math.expm1(-w)
        if res > max(tol, 10.0 * sys.float_info.epsilon * abs(t) * slope):
            raise ConvergenceError(f"residual {res:.2e} above tolerance")
    elif a > 0.0:  # past w = e**7, F = a w - log z_mu exactly
        delta, res = h / a * log_zmu, 0.0
    elif s == BOSON:
        raise NoSolutionError(f"no root of z = (1 - z_mu z)**h connected to z = 1 at h = {h:.6g}")
    else:
        return SaddleSolution(-math.inf, math.inf, 0.0, 0, branch_note="divergent limit: z -> inf")
    return SaddleSolution(delta, math.exp(-delta) if -delta < 700.0 else math.inf, res, 0,
                          branch_note="rising-side root")


def solve_2d_boson(h: float, z_mu: float = 1.0,
                   cfg: SolverConfig | None = None) -> SaddleSolution:
    """Bosonic z = (1 - z_mu z)**h: the rising-side root of F, a = h (see _solve_2d)."""
    return _solve_2d(BOSON, h, z_mu, cfg)


def solve_2d_fermion(h: float, z_mu: float = 1.0,
                     cfg: SolverConfig | None = None) -> SaddleSolution:
    """Fermionic z = (1 + z_mu z)**(-h): the rising-side root of F, a = h + 1 (see _solve_2d)."""
    return _solve_2d(FERMION, h, z_mu, cfg)


def solve_2d_multispecies(species: list[SpeciesSpec], h_ab: np.ndarray,
                          cfg: SolverConfig | None = None) -> list[SaddleSolution]:
    """Mixed-statistics 2d system: z_a = prod_b (1 - s_b z_mu_b z_b)**(h_ab s_b).

    roots.anderson iterates log z; residual is the sup of |log z - log rhs|. Bosonic
    arguments must stay in (0, 1) throughout, otherwise a DomainError is raised.

    Where the system has several fixed points, this returns the one the
    iteration reaches from its start point (log z = log 1/2 for bosons, 0 for
    fermions), and cfg.damping can change which one that is; no rule picks a
    branch (see the `FOUND:` line on solve_2d_multispecies in CHANGES.md).
    """
    cfg = cfg or SolverConfig()
    tol = cfg.resolved_tol(1e-14)
    mat = np.asarray(h_ab, dtype=float)
    n = len(species)
    if mat.shape != (n, n):
        raise DomainError(f"coupling matrix must be {n}x{n}, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-12, rtol=0.0):
        raise DomainError("coupling matrix must be symmetric to 1e-12")

    coupled = mat.any(axis=1)  # a species with a zero row is free: z = 1 exactly
    mat = mat[np.ix_(coupled, coupled)]
    s = np.array([sp.statistics for sp in species], dtype=float)[coupled]
    z_mu = np.array([sp.z_mu for sp in species], dtype=float)[coupled]

    def log_rhs(log_z):
        args = 1.0 - s * z_mu * np.exp(log_z)
        if np.any(args[s > 0] <= 0.0):
            raise DomainError("bosonic argument 1 - z_mu z left (0, 1) during iteration")
        return mat @ (s * np.log(args))

    log_z = np.zeros(n)
    log_z[coupled], residual, it = anderson(log_rhs, np.where(s > 0, math.log(0.5), 0.0),
                                            tol, cfg.max_iter, cfg.damping)
    return [SaddleSolution(-float(x), math.exp(x), residual, it, branch_note=sp.name)
            for x, sp in zip(log_z, species)]


def solve_delta_quasi(nu, T: float, cfg: SolverConfig | None = None) -> SaddleSolution:
    """Quasi-periodic-kernel shift at zero chemical potential:
    delta = -Re[T**(nu-1) h_nu Li_nu(-e**-delta)], the shift equation with
    c = -T**(nu-1) h_nu, s = -1 and z_mu = 1 (see _solve_shift). When
    zeta(nu) = 0 the point delta = 0 solves it at every temperature.
    """
    cfg = cfg or SolverConfig()
    if not 0.0 < T < math.inf:
        raise DomainError("temperature must be positive and finite")
    z = specfun._order(nu)
    if z.real <= 0.0:
        raise DomainError("need Re nu > 0 for the continuation of Li_nu past -1")
    c = -(cmath.exp((z - 1.0) * math.log(T)) * riemann.quasi_coupling(z))
    lo, hi = cfg.delta_bracket
    return _solve_shift(c, z, FERMION, 0.0, lo, hi, cfg.bracket_points, cfg)


def _half_grid(k_max: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """n_points nodes and weights: n_points/16 equal-width 16-node
    Gauss-Legendre panels on [0, k_max]."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, k_max, n_points // 16 + 1)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (b - a) * x16 + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * w16).ravel()


def _profile_operator(spec: QuasiKernelSpec, k_max: float, w: np.ndarray):
    """f -> sum_j (w_j / 2 pi) [K(|k_i - k_j|) + K(k_i + k_j)] f_j on the
    _half_grid(k_max, len(w)), with K(x) = Re(gamma_nu x**(2 nu - 1)) and K(0) = 0,
    without forming the matrix.

    With p panels of width h, node (q, b) sits at h (q + t_b), t = (1 + x16)/2.
    The 16x16 block (q, r) of the |k - k'| part depends on q - r alone (Toeplitz)
    and that of the k + k' part on q + r alone (Hankel, Toeplitz in q against the
    panel-reversed vector). Both are products with the 2p - 1 blocks at offsets
    j = 1 - p .. p - 1, which a circulant of length 2p holds: one rfft of the
    blocks per operator, and per product one rfft of the weighted vector and its
    reverse, one 16x32 product per frequency and one irfft.
    """
    p = len(w) // 16
    n = 2 * p
    t = 0.5 * (1.0 + np.polynomial.legendre.leggauss(16)[0])
    h = k_max / p
    j = ((np.arange(n) + p) % n - p)[:, None, None]  # 0 .. p - 1, then -p (unread) .. -1
    expo = 2.0 * complex(spec.nu) - 1.0

    def ker(u):  # K(h u)
        out = np.zeros_like(u)
        pos = u > 0.0
        out[pos] = (np.exp(expo * np.log(h * u[pos])) * spec.gamma_nu).real
        return out

    # numpy loads numpy.fft on first use of np.fft, so importing gastba does not pay for it
    blocks = np.fft.rfft(np.concatenate(
        [ker(np.abs(j + t[:, None] - t)), ker(j + (p - 1) + t[:, None] + t)], axis=2), axis=0)
    wp = (w / (2.0 * math.pi)).reshape(p, 16)

    def apply(f):
        v = wp * f.reshape(p, 16)
        x = np.fft.rfft(np.concatenate([v, v[::-1]], axis=1), n=n, axis=0)
        return np.fft.irfft((blocks @ x[..., None])[..., 0], n=n, axis=0)[:p].ravel()

    return apply


def solve_profile_quasiperiodic(nu, T: float,
                                kernel: QuasiKernelSpec | None = None,
                                cfg: SolverConfig | None = None) -> PseudoEnergyProfile:
    """Full discretized integral equation for the quasi-periodic kernel:

        eps(k) = k**2 + (1/2 pi) int dk' Re(gamma_nu |k - k'|**(2 nu - 1)) f(eps(k'))

    over the symmetric line, realized on the non-negative half grid of
    grid_points/16 equal-width Gauss-Legendre panels. roots.anderson iterates
    from eps = k**2 until the sup-norm residual of the discrete equation is
    below tol, and the profile reports its calls and final residual.

    The kernel is homogeneous, K(h u) = Re(gamma_nu h**(2 nu - 1) u**(2 nu - 1)),
    so on equal panels the discrete operator is block Toeplitz (the |k - k'|
    part) plus block Hankel (the k + k' part) in 16x16 blocks. _profile_operator
    applies it by circulant embedding and the FFT: O(N log N) work per call and
    O(N) memory, with no N x N array.

    The grid, not tol, sets the error against the integral equation:
    Gauss-Legendre panels treat the kernel as smooth, which it is not at k = k'.
    At N = 512 and T = 0.1 the density is off by 1.1e-9 at nu = 1.4, 4.2e-8 at
    nu = 1.2 and 1.1e-5 at nu = 1.1+3i.
    """
    cfg = cfg or SolverConfig()
    tol = cfg.resolved_tol(1e-10)
    if not 0.0 < T < math.inf:
        raise DomainError("temperature must be positive and finite")
    spec = kernel or riemann.make_kernel_spec(nu)
    z = complex(spec.nu)
    if 2.0 * z.real - 1.0 <= 0.0:
        raise DomainError("need Re nu > 1/2 so the kernel is bounded at coincidence")

    k_max = cfg.k_max_sigmas * math.sqrt(T * math.log(1.0 / tol))
    k, w = _half_grid(k_max, cfg.grid_points)
    product = _profile_operator(spec, k_max, w)
    omega = k * k
    beta = 1.0 / T
    eps, residual, calls = anderson(lambda e: omega + product(specfun.expit(-beta * e)),
                                    omega, tol, cfg.max_iter, cfg.damping)
    f_boundary = float(specfun.expit(-beta * eps[-1]))
    if f_boundary > tol:
        warnings.warn(
            f"filling fraction {f_boundary:.2e} at the grid boundary exceeds "
            f"tolerance {tol:.2e}; enlarge k_max",
            TruncationWarning,
            stacklevel=2,
        )
    return PseudoEnergyProfile(k, eps, T, spec.kernel_id, w, calls, residual)
