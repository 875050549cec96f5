"""Saddle-point solvers for the pseudo-energy of interacting gases.

The filling fraction f = 1/(e**(eps/T) - s) is parameterized by a
pseudo-energy eps(k). For a constant two-body kernel eps = omega - mu + T*delta
with a k-independent shift delta solving a transcendental equation in
Li_{d/2}; in two dimensions that equation is algebraic. The quasi-periodic
kernel K(k) = -Re(gamma_nu k**(2 nu - 1)) gives the constant-delta equation
delta = -Re[T**(nu-1) h_nu Li_nu(-e**-delta)] and, without the constant-shift
ansatz, a full one-dimensional integral equation solved on a momentum grid.

Units: k_B = 1, hbar = 1; the default particle mass is 1/2 so that
omega_k = k**2 and the thermal factor is T_tilde = m*T/(2*pi) = T/(4*pi).
"""
from __future__ import annotations

import cmath
import math
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
    """Tolerances, iteration caps, damping (the weight of roots.anderson), grids, brackets."""

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


def solve_delta_constant(d: float, species: SpeciesSpec, coupling: CouplingSpec,
                         T: float, cfg: SolverConfig | None = None) -> SaddleSolution:
    """Constant-kernel shift: delta = s * h_T * Li_{d/2}(s z_mu e**-delta).

    Returns the root continuously connected to delta = 0 at h_T = 0 (the one
    of smallest |delta|); every bracketed root is listed in all_roots.
    """
    cfg = cfg or SolverConfig()
    tol = cfg.resolved_tol(1e-10)
    if not 0.0 < T < math.inf:
        raise DomainError("temperature must be positive and finite")
    h = coupling_h_T(coupling, T, species.mass)
    s = species.statistics
    z_mu = species.z_mu
    if h == 0.0:
        return SaddleSolution(0.0, 1.0, 0.0, 0, branch_note="free")

    order = d / 2.0
    log_zmu = math.log(z_mu)

    def rhs(delta):
        return s * h * specfun.polylog(order, log_zmu - delta, s).value.real

    # the bosonic argument z_mu e**-delta must stay below 1; the 1e-6 margin
    # keeps the scan off the branch point
    lo = max(log_zmu + 1e-6, cfg.delta_bracket[0]) if s == BOSON else cfg.delta_bracket[0]
    hi = cfg.delta_bracket[1]
    if lo >= hi:
        hi = lo + 20.0

    def residual_fun(delta):
        return delta - rhs(delta)

    roots = _scan_roots(residual_fun, lo, hi, max(cfg.bracket_points // 5, 64), 1e-9)
    if not roots:
        kind = "bosonic attractive regime detaches the fixed-point curve" \
            if s == BOSON else "no bracketed root (divergent-shift regime)"
        raise NoSolutionError(
            f"no solution of the constant-kernel saddle equation on "
            f"[{lo:.3g}, {hi:.3g}]: {kind}"
        )
    roots.sort(key=abs)
    if len(roots) > 1 and abs(abs(roots[0]) - abs(roots[1])) < 1e-9:
        raise BranchAmbiguityError(
            f"two roots equidistant from the free branch: {roots[0]:.6g}, {roots[1]:.6g}"
        )
    delta = roots[0]
    res = abs(float(residual_fun(np.array([delta]))[0]))
    if res > tol:
        raise ConvergenceError(f"root residual {res:.2e} above tolerance {tol:.2e}")
    return SaddleSolution(
        delta, math.exp(-delta), res, 0,
        branch_note="connected-to-free", all_roots=roots,
    )


def solve_2d_boson(h: float, z_mu: float = 1.0,
                   cfg: SolverConfig | None = None) -> SaddleSolution:
    """Bosonic 2d fixed point: z = (1 - z_mu z)**h, bisection-certified on (0, 1)."""
    cfg = cfg or SolverConfig()
    tol = cfg.resolved_tol(1e-12)
    if z_mu <= 0.0:
        raise DomainError("fugacity must be positive")
    if h == 0.0:
        return SaddleSolution(0.0, 1.0, 0.0, 0, branch_note="free")
    if h < 0.0:
        raise NoSolutionError(
            "attractive 2d boson (h < 0): no root of z = (1 - z_mu z)**h in (0, 1)"
        )

    cap = min(1.0, 1.0 / z_mu)

    def fun(z):
        return z - (1.0 - z_mu * z) ** h

    a, b = 1e-15, cap * (1.0 - 1e-15)
    if fun(a) * fun(b) > 0.0:
        raise NoSolutionError("no sign change of z - (1 - z_mu z)**h on (0, 1)")
    z = brent(fun, a, b, xtol=1e-16, rtol=8.9e-16)
    res = abs(fun(z))
    if res > tol:
        raise ConvergenceError(f"residual {res:.2e} above tolerance")
    return SaddleSolution(-math.log(z), z, res, 0, branch_note="bisection-certified")


def solve_2d_fermion(h: float, z_mu: float = 1.0,
                     cfg: SolverConfig | None = None) -> SaddleSolution:
    """Fermionic 2d fixed point: z = (1 + z_mu z)**(-h).

    Real solutions persist for attractive h < 0; at h <= -1 the solution
    runs away to z = infinity and is reported as a tagged limit.
    """
    cfg = cfg or SolverConfig()
    tol = cfg.resolved_tol(1e-12)
    if z_mu <= 0.0:
        raise DomainError("fugacity must be positive")
    if h == 0.0:
        return SaddleSolution(0.0, 1.0, 0.0, 0, branch_note="free")
    if h <= -1.0:
        return SaddleSolution(
            -math.inf, math.inf, 0.0, 0,
            branch_note="divergent limit: z -> infinity for h <= -1",
        )

    def fun(z):
        return z - (1.0 + z_mu * z) ** (-h)

    hi = 2.0
    while fun(hi) < 0.0:
        hi *= 4.0
        if hi > 1e15:
            raise NoSolutionError("fermionic fixed point escaped the bracket")
    z = brent(fun, 1e-15, hi, xtol=1e-16, rtol=8.9e-16)
    res = abs(fun(z))
    if res > tol:
        raise ConvergenceError(f"residual {res:.2e} above tolerance")
    return SaddleSolution(-math.log(z), z, res, 0, branch_note="bisection-certified")


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
    """Constant shift for the quasi-periodic kernel at zero chemical potential:

        delta = -Re[T**(nu-1) h_nu Li_nu(-e**-delta)]

    with the real part over the whole bracket. All real roots found on the
    configured delta bracket are returned in all_roots, ordered by |delta|;
    the principal fields describe the smallest-|delta| root. When zeta(nu)=0
    the point delta = 0 solves the equation at every temperature.
    """
    cfg = cfg or SolverConfig()
    tol = cfg.resolved_tol(1e-10)
    if not 0.0 < T < math.inf:
        raise DomainError("temperature must be positive and finite")
    z = specfun._order(nu)
    if z.real <= 0.0:
        raise DomainError("need Re nu > 0 for the continuation of Li_nu past -1")
    h_nu = riemann.quasi_coupling(z)
    pref = cmath.exp((z - 1.0) * math.log(T)) * h_nu

    def residual_fun(delta):
        return delta + (pref * specfun.polylog(z, -delta, -1).value).real

    lo, hi = cfg.delta_bracket
    roots = _scan_roots(residual_fun, lo, hi, cfg.bracket_points, 1e-9)
    r0 = float(residual_fun(np.array([0.0]))[0])
    if abs(r0) < tol:
        # when zeta(nu) = 0 the origin solves the equation exactly; prefer it
        # over bracketed refinements that straddle it within evaluation noise
        # (genuine extra roots sit at O(1) distance, never inside 1e-4)
        roots = [r for r in roots if abs(r) > 1e-4]
        roots.append(0.0)
    if not roots:
        raise EmptyBracketError(
            f"no sign change of the shift equation on [{lo:.3g}, {hi:.3g}] "
            f"and delta = 0 is not a root (residual {r0:.3e})"
        )
    roots.sort(key=abs)
    delta = roots[0]
    li = specfun.polylog(z, -delta, -1)
    res = abs(delta + (pref * li.value).real)
    noise_floor = 10.0 * abs(pref) * li.abs_error_estimate
    if res > max(tol, noise_floor):
        raise ConvergenceError(f"root residual {res:.2e} above tolerance {tol:.2e}")
    z_delta = math.exp(-delta) if -delta < 700.0 else math.inf
    return SaddleSolution(delta, z_delta, res, 0,
                          branch_note="smallest-|delta| root", all_roots=roots)


def _half_grid(k_max: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """n_points nodes and weights: n_points/16 equal-width 16-node
    Gauss-Legendre panels on [0, k_max]."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, k_max, n_points // 16 + 1)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (b - a) * x16 + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * w16).ravel()


def solve_profile_quasiperiodic(nu, T: float,
                                kernel: QuasiKernelSpec | None = None,
                                cfg: SolverConfig | None = None) -> PseudoEnergyProfile:
    """Full discretized integral equation for the quasi-periodic kernel:

        eps(k) = k**2 + (1/2 pi) int dk' Re(gamma_nu |k - k'|**(2 nu - 1)) f(eps(k'))

    over the symmetric line, realized on the non-negative half grid. roots.anderson
    iterates from eps = k**2; the returned profile satisfies the equation with
    sup-norm residual below tolerance.

    The grid must resolve the kernel: for strongly complex nu the factor
    |k - k'|**(2 i Im nu) oscillates in log|k - k'| faster than any fixed
    grid near coincidence, and quadrature noise of order |gamma_nu| * eps
    is the honest accuracy floor.
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

    expo = 2.0 * z - 1.0

    def ker(x):
        out = np.zeros_like(x, dtype=float)
        pos = x > 0.0
        out[pos] = (np.exp(expo * np.log(x[pos])) * spec.gamma_nu).real
        return out

    mat = (w[None, :] / (2.0 * math.pi)) * (
        ker(np.abs(k[:, None] - k[None, :])) + ker(k[:, None] + k[None, :])
    )
    omega = k * k
    beta = 1.0 / T
    eps = anderson(lambda e: omega + mat @ specfun.expit(-beta * e), omega, tol,
                   cfg.max_iter, cfg.damping)[0]
    f_boundary = float(specfun.expit(-beta * eps[-1]))
    if f_boundary > tol:
        warnings.warn(
            f"filling fraction {f_boundary:.2e} at the grid boundary exceeds "
            f"tolerance {tol:.2e}; enlarge k_max",
            TruncationWarning,
            stacklevel=2,
        )
    return PseudoEnergyProfile(k, eps, T, spec.kernel_id, w)
