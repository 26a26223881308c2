"""hopquant: a numerical laboratory for unitary hopping dynamics.

Two sectors share one numerical substrate: a single particle hopping on a
cubic lattice (whose continuum limit carries a mass, a vector potential and
a scalar potential), and a Z(N) link field whose one-link hopping dynamics
approaches the free-Maxwell Hamiltonian as the clock order grows and the
spacing shrinks.
"""

from .errors import (
    ChargeConjugationError,
    ConfigError,
    DegenerateKernelError,
    EigenConvergenceError,
    GroundStateSignError,
    HermiticityError,
    HilbertDimensionError,
    HopquantError,
    IntegratorAccuracyError,
    KernelSymmetryError,
    MassRequiredError,
    ReflectionSymmetryError,
)
from .evolution import (
    ContinuumProblem,
    ConvergenceReport,
    EvolveResult,
    constant_field_problem,
    continuum_residual,
    convergence_study,
    evolve,
    fit_order,
    free_gaussian_problem,
    harmonic_problem,
)
from .gauge_ham import (
    CallableResponseSpec,
    ContinuumConstants,
    GapComparison,
    GaugeHoppingSpec,
    MaxwellPreset,
    SpectrumResult,
    SymmetryReport,
    TaylorReport,
    build_gauge_hamiltonian,
    compare_to_reference,
    extract_continuum_constants,
    reference_ks_hamiltonian,
    spectrum,
    symmetry_commutator_norms,
    taylor_consistency_check,
)
from .linop import (
    SparseHermitianOperator,
    eigs_extremal,
    propagate,
)
from .particle import (
    HoppingKernel,
    LatticeGrid,
    LatticeWavefunction,
    MassFit,
    PotentialFields,
    UnitarityReport,
    apply_kernel,
    build_particle_hamiltonian,
    extract_potentials,
    gauge_shift_kernel,
    kernel_from_potentials,
    mass_from_kernel,
    perturb_kernel,
    random_unitary_kernel,
    scalar_potential_from_kernel,
    vacuum_energy,
    validate_kernel_unitarity,
    vector_potential_from_kernel,
)
from .states import (
    AnalyticState,
    coherent_oscillator,
    drifting_gaussian,
    free_gaussian,
    gaussian_state,
    plane_wave,
)
from .zn import (
    InvariantSubspace,
    LinkLattice,
    flux_from_plaquette,
    project_gauge_invariant,
    wrap_plaquette,
)

__version__ = "0.1.0"
