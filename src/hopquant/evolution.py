"""Time evolution of lattice wavefunctions and continuum-limit studies."""

from dataclasses import dataclass

import numpy as np

from . import linop
from .errors import IntegratorAccuracyError
from .particle import (
    HoppingKernel,
    LatticeGrid,
    LatticeWavefunction,
    apply_kernel,
    build_particle_hamiltonian,
    extract_potentials,
    kernel_from_potentials,
)
from .states import coherent_oscillator, drifting_gaussian, free_gaussian

NORM_DRIFT_TOL = 1e-8


@dataclass
class EvolveResult:
    psi: LatticeWavefunction
    norm_drift: float


def evolve(source, psi, dt, steps, hbar=1.0, drift_tol=NORM_DRIFT_TOL):
    """Propagate ``psi`` through ``steps`` intervals of length ``dt``.

    ``source`` is a prebuilt Hermitian operator or a HoppingKernel, whose
    operator is built once. Raises ``IntegratorAccuracyError`` when ``dt`` is
    not finite, before any step runs (evolve's one check of ``dt``), and when
    the norm drifts beyond ``drift_tol`` or is NaN; a NaN or infinite start
    has a NaN drift.
    """
    if not np.isfinite(dt):
        raise IntegratorAccuracyError(f"integrator accuracy: time step {dt} is not finite")
    op = build_particle_hamiltonian(source) if isinstance(source, HoppingKernel) else source
    v = np.asarray(psi.values, dtype=complex).ravel()
    norm0 = np.linalg.norm(v)
    drift = 0.0 if np.isfinite(norm0) else np.nan
    for _ in range(steps):
        v = linop.propagate(op, v, dt, hbar=hbar)
        if 0 < norm0 < np.inf:
            # np.maximum, unlike max(), carries a NaN drift to the check
            drift = float(np.maximum(drift, abs(np.linalg.norm(v) - norm0) / norm0))
    if not drift <= drift_tol:  # a NaN drift fails too
        raise IntegratorAccuracyError(
            f"integrator accuracy: norm drift {drift:.3e} exceeds {drift_tol:.1e}")
    out = LatticeWavefunction(psi.grid, v.reshape(psi.grid.shape))
    return EvolveResult(psi=out, norm_drift=drift)


def _divergence(components, grid):
    """Central-difference divergence of a site vector field."""
    div = np.zeros(grid.shape)
    for ax, comp in enumerate(components):
        if grid.boundary == "periodic":
            div += (np.roll(comp, -1, axis=ax) - np.roll(comp, 1, axis=ax)) \
                / (2.0 * grid.spacing)
        else:
            div += np.gradient(comp, grid.spacing, axis=ax)
    return div


def continuum_residual(kernel, state):
    """Relative L2 mismatch between H psi and the continuum right-hand side.

    The right-hand side uses the mass, potentials and background energy
    extracted from the kernel itself, with the derivatives of the analytic
    test state evaluated exactly.
    """
    grid = kernel.grid
    fields = extract_potentials(kernel)
    coords = grid.coordinates()
    psi = np.asarray(state.value(*coords), dtype=complex)
    grad = [np.asarray(g, dtype=complex) for g in state.gradient(*coords)]
    lap = np.asarray(state.laplacian(*coords), dtype=complex)

    h_psi = apply_kernel(kernel, psi)
    a_comp = fields.vector_potential
    a_sq = sum(c * c for c in a_comp)
    div_a = _divergence(a_comp, grid)
    a_dot_grad = sum(c * g for c, g in zip(a_comp, grad))
    rhs = (1.0 / (2.0 * fields.mass)) * (
        -lap
        + 1j * div_a * psi
        + 2j * a_dot_grad
        + a_sq * psi
    ) + fields.scalar_potential * psi
    return float(np.linalg.norm((h_psi - rhs).ravel())
                 / np.linalg.norm(psi.ravel()))


@dataclass
class ContinuumProblem:
    """A continuum initial-value problem posed over a fixed physical domain.

    ``solution`` maps (coordinate arrays, t) to the exact solution, whose
    value at t=0 is the initial state. Potentials are callables of the
    coordinate arrays (or None).
    """

    solution: callable
    duration: float
    domain: tuple  # ((lo, hi), ...) per axis
    mass: float = 1.0
    vector_potential: callable = None
    scalar_potential: callable = None
    boundary: str = "periodic"
    name: str = "custom"


@dataclass
class ConvergenceReport:
    spacings: list
    errors: list
    order: float
    monotone: bool
    problem: str = ""


def fit_order(spacings, errors):
    """Least-squares slope of log(error) against log(spacing)."""
    x = np.log(np.asarray(spacings, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _grid_for(problem, a):
    lo = [d[0] for d in problem.domain]
    hi = [d[1] for d in problem.domain]
    dims = []
    for l, h in zip(lo, hi):
        n = (h - l) / a
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"domain ({l}, {h}) is not commensurate with spacing {a}")
        n = int(round(n))
        dims.append(n if problem.boundary == "periodic" else n + 1)
    return LatticeGrid(dims, a, boundary=problem.boundary, origin=lo)


def _relative_error(problem, a):
    """Relative L2 error at spacing ``a`` of one propagation over the duration."""
    grid = _grid_for(problem, a)
    kernel = kernel_from_potentials(problem.vector_potential,
                                    problem.scalar_potential, problem.mass, grid)
    psi0 = LatticeWavefunction.from_callable(grid, lambda *x: problem.solution(*x, 0.0))
    values = evolve(kernel, psi0, problem.duration, 1).psi.values
    ref = np.asarray(problem.solution(*grid.coordinates(), problem.duration),
                     dtype=complex)
    return float(np.linalg.norm((values - ref).ravel()) / np.linalg.norm(ref.ravel()))


def convergence_study(problem, spacings):
    """Errors against the problem's analytic solution over a ladder of spacings.

    Non-monotone error tables are flagged in the report rather than raised.
    """
    spacings = sorted((float(a) for a in spacings), reverse=True)
    if len(spacings) < 3:
        raise ValueError("need >=3 spacings")
    errors = [_relative_error(problem, a) for a in spacings]
    order = fit_order(spacings, errors)
    monotone = all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    return ConvergenceReport(spacings=list(spacings), errors=errors, order=order,
                             monotone=monotone, problem=problem.name)


def free_gaussian_problem(domain=(-12.0, 12.0), duration=1.0, x0=0.0, sigma=1.0,
                          k0=0.0, mass=1.0):
    """Free packet spreading against the closed-form Gaussian solution."""
    return ContinuumProblem(
        solution=lambda x, t: free_gaussian(x, t, x0=x0, sigma=sigma, k0=k0,
                                            mass=mass),
        duration=duration, domain=(domain,), mass=mass, name="free-gaussian")


def harmonic_problem(domain=(-8.0, 8.0), duration=None, x0=1.0, mass=1.0,
                     omega=1.0):
    """Coherent-state swing in a harmonic well; default duration one period."""
    if duration is None:
        duration = 2.0 * np.pi / omega
    return ContinuumProblem(
        solution=lambda x, t: coherent_oscillator(x, t, x0=x0, mass=mass,
                                                  omega=omega),
        duration=duration, domain=(domain,), mass=mass,
        scalar_potential=lambda x: 0.5 * mass * omega ** 2 * x ** 2,
        boundary="open", name="harmonic")


def constant_field_problem(a_strength, domain=(-12.0, 12.0), duration=2.0,
                           x0=0.0, sigma=1.0, mass=1.0):
    """Packet drift under a constant vector potential (kinetic momentum shift)."""
    return ContinuumProblem(
        solution=lambda x, t: drifting_gaussian(x, t, a_strength, x0=x0,
                                                sigma=sigma, mass=mass),
        duration=duration, domain=(domain,), mass=mass,
        vector_potential=lambda x: [np.full_like(x, a_strength)],
        name="constant-field")
