"""Pseudo-energy profiles of the quasi-periodic-kernel gas.

For repulsive real order (nu > 1) the full integral equation relaxes to a
profile whose plateau near k = 0 tracks the constant-shift root; the match
tightens as the shift goes soft with temperature. For nu in (1/2, 1) the
kernel prefactor turns attractive and the gas cascades into a deep Fermi
sea far beyond the constant-shift ansatz (run with --deep to watch).
"""
import sys


from gastba import SolverConfig, solve_delta_quasi, solve_profile_quasiperiodic

nu = 1.4
print(f"repulsive order nu = {nu}: plateau vs constant-shift root")
print(f"{'T':>8} {'delta (shift eq)':>18} {'profile plateau':>18} {'gap':>8}")
for T in (0.05, 0.01, 0.005):
    dq = solve_delta_quasi(nu, T, SolverConfig(delta_bracket=(-3, 3),
                                               bracket_points=300)).delta
    cfg = SolverConfig(grid_points=1024, k_max_sigmas=3.0)
    prof = solve_profile_quasiperiodic(nu, T, cfg=cfg)
    dp = (prof.epsilon[0] - prof.omega[0]) / T
    print(f"{T:8.3f} {dq:18.6f} {dp:18.6f} {abs(dp-dq)/abs(dq):8.1%}")

print()
print("the residual gap is the O(delta) defect of the constant-shift ansatz:")
print("the convolution shift varies across the thermally occupied window.")

if "--deep" in sys.argv:
    print()
    nu, T = 0.9, 0.05
    dq = solve_delta_quasi(nu, T, SolverConfig(delta_bracket=(-2e5, 1),
                                               bracket_points=400)).delta
    print(f"attractive order nu = {nu}, T = {T}: shift-equation root delta = {dq:.4g}")
    import math

    tol = 1e-8
    sigmas = 20.0 * math.sqrt(T * abs(dq)) / math.sqrt(T * math.log(1 / tol))
    cfg = SolverConfig(tol=tol, grid_points=3072, k_max_sigmas=sigmas)
    prof = solve_profile_quasiperiodic(nu, T, cfg=cfg)
    dp = (prof.epsilon[0] - prof.omega[0]) / T
    occupied = prof.nodes[prof.epsilon < 0]
    print(f"full profile plateau delta = {dp:.4g} "
          f"(x {dp/dq:.0f} deeper), Fermi edge near k = {occupied.max():.1f}")
    print("the ansatz is self-consistent at k = 0 only; the true sea edge is")
    print("driven by the k-dependent convolution and runs much further out.")
