"""Finite-temperature interacting Bose and Fermi gases.

Pseudo-energy saddle-point solvers (constant kernels in any dimension,
algebraic 2d systems, quasi-periodic kernels in 1d), thermodynamic
observables and 2d central charges, and the critical-strip machinery:
quasi-periodic kernel construction, a zeta-zero scanner, and the
duality/Casimir identities.
"""

from .errors import (
    BranchAmbiguityError,
    ConvergenceError,
    DimensionError,
    DomainError,
    EmptyBracketError,
    ExcludedOrderError,
    GasTbaError,
    NearTrivialZeroWarning,
    NoSolutionError,
    PoleError,
    PoleWarning,
    SingularityError,
    TruncationWarning,
)
from .riemann import (
    CasimirCheck,
    QuasiKernelSpec,
    ZeroCandidate,
    casimir_channel_check,
    check_duality,
    find_zeros,
    kernel_closed_form,
    kernel_from_potential,
    make_kernel_spec,
    potential_realspace,
    quasi_coupling,
    verify_zero_delta,
)
from .saddle import (
    BOSON,
    FERMION,
    CouplingSpec,
    PseudoEnergyProfile,
    SaddleSolution,
    SolverConfig,
    SpeciesSpec,
    solve_2d_boson,
    solve_2d_fermion,
    solve_2d_multispecies,
    solve_delta_constant,
    solve_delta_quasi,
    solve_profile_quasiperiodic,
)
from .specfun import (
    ComplexOrder,
    EvalResult,
    dirichlet_eta,
    gamma,
    polylog,
    rogers_dilog,
    xi_function,
    zeta,
)
from .thermo import (
    BecReport,
    ObservableReport,
    ThermoState,
    bec_critical,
    central_charge,
    coupling_convert,
    fermi_energy,
    fermi_energy_zero_temperature,
    observables_constant,
    thermodynamic_consistency,
)

__version__ = "0.1.0"
