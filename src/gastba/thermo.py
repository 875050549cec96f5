"""Thermodynamic observables from converged saddle solutions.

Density, free energy density, pressure (p = -F), the 2d central charge
c defined by F = -c pi T**2 / 24, Bose-Einstein criticality for d > 2,
and the Fermi energy. Units: k_B = 1; T_tilde = mass * T / (2 pi) is the
inverse squared thermal wavelength (T/4 pi at mass 1/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConvergenceError, DimensionError, DomainError
from .roots import brent
from .saddle import (
    BOSON,
    CouplingSpec,
    SaddleSolution,
    SolverConfig,
    SpeciesSpec,
    coupling_h_T,
    solve_delta_constant,
)

_PI2_OVER_6 = math.pi**2 / 6.0


@dataclass(frozen=True)
class ThermoState:
    """Temperature, dimension, and mass bundled with derived factors."""

    T: float
    d: float
    mass: float = 0.5

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.T, self.d, self.mass)):
            raise DomainError("temperature, dimension and mass must be finite")
        if self.T <= 0.0:
            raise DomainError("temperature must be positive")
        if self.d <= 0.0:
            raise DomainError("dimension must be positive")
        if self.mass <= 0.0:
            raise DomainError("mass must be positive")

    @property
    def beta(self) -> float:
        return 1.0 / self.T

    @property
    def T_tilde(self) -> float:
        return self.mass * self.T / (2.0 * math.pi)


@dataclass(frozen=True)
class ObservableReport:
    density: float
    free_energy: float
    pressure: float
    central_charge: float | None = None


@dataclass(frozen=True)
class BecReport:
    mu_c: float
    n_c: float
    T_c: float
    F_c: float


def observables_constant(sol: SaddleSolution, state: ThermoState,
                         species: SpeciesSpec) -> ObservableReport:
    """Density and free energy of one species with a constant kernel.

    boson:   n =  T_tilde**(d/2) Li_{d/2}(z_mu z_delta)
             F = -T T_tilde**(d/2) [Li_{(d+2)/2}(u) + (delta/2) Li_{d/2}(u)]
    fermion: n = -T_tilde**(d/2) Li_{d/2}(-z_mu z_delta)
             F = +T T_tilde**(d/2) [Li_{(d+2)/2}(-u) + (delta/2) Li_{d/2}(-u)]
    """
    d = state.d
    s = species.statistics
    log_u = math.log(species.z_mu) - sol.delta  # polylog refuses u >= 1 for bosons
    pref = state.T_tilde ** (d / 2.0)
    li_n, li_f = (specfun.polylog(order, log_u, s).value.real
                  for order in (d / 2.0, (d + 2.0) / 2.0))
    n = s * pref * li_n
    free = -s * state.T * pref * (li_f + 0.5 * sol.delta * li_n)
    charge = None
    if d == 2 and species.z_mu == 1.0:
        charge = central_charge([sol], [species])
    return ObservableReport(n, free, -free, charge)


def _charge_one(statistics: int, z: float) -> float:
    """c_+(z) = (6/pi^2) Lr2(z) for bosons, c_-(z) = -(6/pi^2) Lr2(-z) for fermions."""
    if statistics == BOSON:
        if z > 1.0:
            raise DomainError(f"bosonic z = {z:.6g} beyond the branch point at 1")
        return specfun.rogers_dilog(z) / _PI2_OVER_6
    if math.isinf(z):
        return 1.0  # Lr2(-z) -> -pi**2/6 as z -> infinity
    return -specfun.rogers_dilog(-z) / _PI2_OVER_6


def central_charge(solutions: list[SaddleSolution],
                   species: list[SpeciesSpec]) -> float:
    """Total 2d central charge c = 2 sum_a m_a c_{s_a}(z_a) at z_mu = 1."""
    if len(solutions) != len(species):
        raise DomainError("one solution per species required")
    return 2.0 * sum(
        sp.mass * _charge_one(sp.statistics, sol.z_delta)
        for sol, sp in zip(solutions, species)
    )


def bec_critical(d: float, coupling: CouplingSpec, n_phys: float,
                 state: ThermoState) -> BecReport:
    """Bose-Einstein criticality for d > 2.

    mu_c = h_T zeta(d/2) T,  n_c = zeta(d/2) T_tilde**(d/2),
    T_c from n_c(T_c) = n_phys (independent of the coupling), and the
    critical free energy with its first-order coupling correction.
    """
    if d <= 2.0:
        raise DimensionError(
            "zeta(d/2) has its pole at d = 2: the critical density is infinite "
            "and the critical temperature zero in 2d, so no condensation occurs "
            f"for d = {d:g} <= 2"
        )
    if n_phys <= 0.0:
        raise DomainError("physical density must be positive")
    h_t = coupling_h_T(coupling, state.T, state.mass)
    z_d = specfun.zeta(d / 2.0).real
    z_d2 = specfun.zeta((d + 2.0) / 2.0).real
    pref = state.T_tilde ** (d / 2.0)
    mu_c = h_t * z_d * state.T
    n_c = z_d * pref
    t_c = (2.0 * math.pi / state.mass) * (n_phys / z_d) ** (2.0 / d)
    f_c = -z_d2 * state.T * pref * (1.0 + 0.5 * h_t * z_d**2 / z_d2)
    return BecReport(mu_c, n_c, t_c, f_c)


def fermi_energy(d: float, n: float, T: float, mass: float = 0.5) -> float:
    """omega_F solving n = -T_tilde**(d/2) Li_{d/2}(-e**(omega_F/T)).

    The Fermi surface is the point where the filling fraction is 1/2,
    i.e. eps(k_F) = 0. Independent of the interaction strength by
    construction. Monotone in omega_F, solved by bracketed root-finding.
    """
    if n <= 0.0 or T <= 0.0:
        raise DomainError("need n > 0 and T > 0")
    state = ThermoState(T=T, d=d, mass=mass)
    target = n / state.T_tilde ** (d / 2.0)

    def gap(w):
        return -specfun.polylog(d / 2.0, w, -1).value.real - target

    w_classical = math.log(target)
    w_degenerate = (target * specfun.gamma(d / 2.0 + 1.0).real) ** (2.0 / d)
    lo = min(w_classical, w_degenerate) - 5.0
    hi = max(w_classical, w_degenerate) + 5.0
    tries = 0
    while gap(lo) > 0.0:
        lo -= 10.0
        tries += 1
        if tries > 60:
            raise ConvergenceError("Fermi-energy bracket search failed (low side)")
    while gap(hi) < 0.0:
        hi += 10.0
        tries += 1
        if tries > 120:
            raise ConvergenceError("Fermi-energy bracket search failed (high side)")
    return brent(gap, lo, hi, xtol=1e-13, rtol=8.9e-16) * T


def fermi_energy_zero_temperature(d: float, n: float, mass: float = 0.5) -> float:
    """T -> 0 limit: omega_F = (2 pi / m) (Gamma((d+2)/2) n)**(2/d)."""
    return (2.0 * math.pi / mass) * (
        specfun.gamma((d + 2.0) / 2.0).real * n
    ) ** (2.0 / d)


def coupling_convert(coupling: CouplingSpec, target_mode: str,
                     state: ThermoState) -> CouplingSpec:
    """Exact conversion among gamma, scattering_length, h_T, and h_2d.

    All modes route through A = a**(d-2) = m gamma / (2 pi)**(d/2)
    = h_T (m T)**(-(d-2)/2). At d = 2 the power of a degenerates and only
    the dimensionless h (mode h_2d, equal to the T-independent h_T) exists.
    """
    d = coupling.d
    m = state.mass
    T = state.T
    if target_mode not in CouplingSpec._MODES:
        raise DomainError(f"unknown target mode {target_mode!r}")

    if d == 2:
        if coupling.mode in ("gamma", "scattering_length") or target_mode in (
            "gamma",
            "scattering_length",
        ):
            raise DomainError(
                "a**(d-2) is degenerate at d = 2; only h_2d <-> h_T conversions exist"
            )
        return CouplingSpec(mode=target_mode, value=coupling.value, d=d)

    if coupling.mode == "gamma":
        a_pow = m * coupling.value / (2.0 * math.pi) ** (d / 2.0)
    elif coupling.mode == "scattering_length":
        if coupling.value <= 0.0:
            raise DomainError("scattering length must be positive")
        a_pow = coupling.value ** (d - 2.0)
    elif coupling.mode == "h_T":
        a_pow = coupling.value * (m * T) ** (-(d - 2.0) / 2.0)
    else:  # h_2d rejected off d = 2 by CouplingSpec
        raise DomainError("mode h_2d is only meaningful at d = 2")

    if target_mode == "gamma":
        value = (2.0 * math.pi) ** (d / 2.0) * a_pow / m
    elif target_mode == "scattering_length":
        if a_pow <= 0.0:
            raise DomainError("cannot take a fractional power of a <= 0")
        value = a_pow ** (1.0 / (d - 2.0))
    elif target_mode == "h_T":
        value = a_pow * (m * T) ** ((d - 2.0) / 2.0)
    else:
        raise DomainError("mode h_2d is only meaningful at d = 2")
    return CouplingSpec(mode=target_mode, value=float(value), d=d)


def thermodynamic_consistency(species: SpeciesSpec, coupling: CouplingSpec,
                              d: float, T: float, mu_grid: np.ndarray,
                              cfg: SolverConfig | None = None) -> float:
    """Worst relative defect of n = -dF/dmu over an evenly spaced mu grid.

    F(mu) is stationary in the filling fraction, so a central finite
    difference of the solved free energy must reproduce the solved density
    at interior grid points.
    """
    mu = np.asarray(mu_grid, dtype=float)
    if len(mu) < 3:
        raise DomainError("need at least 3 chemical-potential points")
    step = mu[1] - mu[0]
    if not np.allclose(np.diff(mu), step, rtol=1e-12, atol=0.0):
        raise DomainError("mu grid must be evenly spaced")
    state = ThermoState(T=T, d=d, mass=species.mass)
    free, dens = [], []
    for m_val in mu:
        sp = SpeciesSpec(
            name=species.name,
            mass=species.mass,
            statistics=species.statistics,
            z_mu=math.exp(m_val / T),
        )
        sol = solve_delta_constant(d, sp, coupling, T, cfg)
        obs = observables_constant(sol, state, sp)
        free.append(obs.free_energy)
        dens.append(obs.density)
    worst = 0.0
    for i in range(1, len(mu) - 1):
        dfdmu = (free[i + 1] - free[i - 1]) / (2.0 * step)
        worst = max(worst, abs(dfdmu + dens[i]) / max(abs(dens[i]), 1e-300))
    return worst
