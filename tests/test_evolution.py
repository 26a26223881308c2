"""Propagation, continuum residuals, and convergence studies."""

import numpy as np
import pytest

from hopquant import (
    HoppingKernel,
    LatticeGrid,
    LatticeWavefunction,
    build_particle_hamiltonian,
    constant_field_problem,
    continuum_residual,
    convergence_study,
    evolution,
    evolve,
    free_gaussian_problem,
    harmonic_problem,
    kernel_from_potentials,
    linop,
)
from hopquant.errors import IntegratorAccuracyError
from hopquant.evolution import fit_order
from hopquant.states import (
    coherent_oscillator,
    drifting_gaussian,
    free_gaussian,
    plane_wave,
)


# --- reference solutions are verified before they are trusted -----------------

def _pde_residual(psi_fn, rhs_fn, x, t, dx=1e-4, dt=1e-6):
    dpsi_dt = (psi_fn(x, t + dt) - psi_fn(x, t - dt)) / (2 * dt)
    lap = (psi_fn(x + dx, t) - 2 * psi_fn(x, t) + psi_fn(x - dx, t)) / dx ** 2
    grad = (psi_fn(x + dx, t) - psi_fn(x - dx, t)) / (2 * dx)
    return np.abs(1j * dpsi_dt - rhs_fn(psi_fn(x, t), grad, lap, x)).max()


def test_free_gaussian_solves_free_equation():
    x = np.linspace(-3, 3, 13)
    res = _pde_residual(
        lambda x, t: free_gaussian(x, t, x0=0.3, sigma=0.9, k0=0.7),
        lambda p, g, l, x: -0.5 * l, x, 0.37)
    assert res < 1e-4


def test_coherent_state_solves_harmonic_equation():
    x = np.linspace(-3, 3, 13)
    res = _pde_residual(
        lambda x, t: coherent_oscillator(x, t, x0=1.3),
        lambda p, g, l, x: -0.5 * l + 0.5 * x ** 2 * p, x, 0.41)
    assert res < 1e-4


def test_coherent_state_with_nonunit_constants():
    # i*hbar dpsi/dt = -(hbar^2/2m) lap + (m w^2 x^2 / 2) psi
    hbar, m, w = 0.7, 1.9, 1.4
    x = np.linspace(-2, 2, 9)
    dt, dx = 1e-6, 1e-4

    def psi(x, t):
        return coherent_oscillator(x, t, x0=0.8, mass=m, omega=w, hbar=hbar)

    t = 0.53
    dpsi_dt = (psi(x, t + dt) - psi(x, t - dt)) / (2 * dt)
    lap = (psi(x + dx, t) - 2 * psi(x, t) + psi(x - dx, t)) / dx ** 2
    res = (1j * hbar * dpsi_dt
           + hbar ** 2 / (2 * m) * lap - 0.5 * m * w ** 2 * x ** 2 * psi(x, t))
    assert np.abs(res).max() < 1e-4


def test_free_gaussian_with_nonunit_constants():
    hbar, m = 1.3, 0.6
    x = np.linspace(-2, 2, 9)
    dt, dx = 1e-6, 1e-4

    def psi(x, t):
        return free_gaussian(x, t, x0=0.2, sigma=0.9, k0=0.4, mass=m, hbar=hbar)

    t = 0.37
    dpsi_dt = (psi(x, t + dt) - psi(x, t - dt)) / (2 * dt)
    lap = (psi(x + dx, t) - 2 * psi(x, t) + psi(x - dx, t)) / dx ** 2
    res = 1j * hbar * dpsi_dt + hbar ** 2 / (2 * m) * lap
    assert np.abs(res).max() < 1e-4


def test_drifting_gaussian_solves_constant_field_equation():
    x = np.linspace(-3, 3, 13)
    a = 0.6
    res = _pde_residual(
        lambda x, t: drifting_gaussian(x, t, a, x0=-0.2, sigma=1.1),
        lambda p, g, l, x: -0.5 * l + 1j * a * g + 0.5 * a ** 2 * p, x, 0.29)
    assert res < 1e-4


# --- evolve --------------------------------------------------------------------

def test_evolve_zero_hamiltonian_is_identity():
    grid = LatticeGrid((8,), 1.0)
    kernel = HoppingKernel(grid, kappa0={})
    psi = LatticeWavefunction.from_callable(grid, lambda x: np.exp(-x ** 2))
    out = evolve(kernel, psi, dt=0.3, steps=4)
    assert np.abs(out.psi.values - psi.values).max() < 1e-14


def test_evolve_eigenvector_phase_rotation():
    grid = LatticeGrid((10,), 1.0)
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    op = build_particle_hamiltonian(kernel)
    w, q = np.linalg.eigh(op.matrix.toarray())
    psi0 = LatticeWavefunction(grid, q[:, 2].reshape(grid.shape))
    out = evolve(op, psi0, dt=0.11, steps=7).psi
    expected = np.exp(-1j * w[2] * 0.77) * psi0.values
    assert np.abs(out.values - expected).max() < 1e-12
    assert abs(psi0.overlap(out)) == pytest.approx(
        abs(psi0.overlap(psi0)), abs=1e-10)


def test_evolve_gaussian_matches_analytic_spreading():
    errs = []
    for a in (0.2, 0.1):
        grid = LatticeGrid((int(24 / a),), a, origin=(-12.0,))
        kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
        psi0 = LatticeWavefunction.from_callable(
            grid, lambda x: free_gaussian(x, 0.0))
        out = evolve(kernel, psi0, dt=0.5, steps=2).psi
        ref = free_gaussian(grid.axes()[0], 1.0)
        errs.append(np.linalg.norm(out.values - ref) / np.linalg.norm(ref))
    assert errs[1] < errs[0] / 3.2  # O(a^2)


def test_evolve_norm_conservation_many_steps():
    grid = LatticeGrid((81,), 0.2, boundary="open", origin=(-8.0,))
    kernel = kernel_from_potentials(None, lambda x: 0.5 * x ** 2, 1.0, grid)
    psi = LatticeWavefunction.from_callable(
        grid, lambda x: coherent_oscillator(x, 0.0)).normalized()
    res = evolve(kernel, psi, dt=0.01, steps=1000)
    assert res.norm_drift <= 1e-10


def test_evolve_reports_drift_violation():
    grid = LatticeGrid((8,), 1.0)
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    psi = LatticeWavefunction.from_callable(grid, lambda x: np.exp(-x ** 2)).normalized()
    with pytest.raises(IntegratorAccuracyError):
        evolve(kernel, psi, dt=0.1, steps=10, drift_tol=0.0)


def test_evolve_nan_time_step_raises():
    # propagate refuses a NaN step, and evolve reports it as an accuracy failure
    grid = LatticeGrid((8,), 1.0)
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    psi = LatticeWavefunction.from_callable(grid, lambda x: np.exp(-x ** 2)).normalized()
    with pytest.raises(IntegratorAccuracyError, match="nan"):
        evolve(kernel, psi, dt=float("nan"), steps=3)


def test_evolve_nan_state_fails_drift_check():
    # a NaN start has no norm to drift from; its drift reads NaN and fails the check
    grid = LatticeGrid((8,), 1.0)
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    psi = LatticeWavefunction(grid, np.full(grid.shape, np.nan, dtype=complex))
    for steps in (0, 3):
        with pytest.raises(IntegratorAccuracyError, match="norm drift nan"):
            evolve(kernel, psi, dt=0.1, steps=steps)


def test_evolve_state_turning_nan_fails_drift_check(monkeypatch):
    # a step that returns NaN after a finite one must not leave the finite drift standing
    grid = LatticeGrid((8,), 1.0)
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    psi = LatticeWavefunction.from_callable(grid, lambda x: np.exp(-x ** 2)).normalized()
    calls = []
    exact = linop.propagate

    def nan_on_second_step(op, v, t, hbar=1.0):
        calls.append(t)
        return exact(op, v, t, hbar=hbar) * (np.nan if len(calls) == 2 else 1.0)

    monkeypatch.setattr(linop, "propagate", nan_on_second_step)
    with pytest.raises(IntegratorAccuracyError, match="norm drift nan"):
        evolve(kernel, psi, dt=0.1, steps=3)
    assert len(calls) == 3


# --- continuum residual -----------------------------------------------------------

def test_residual_free_kernel_plane_wave_quadratic():
    residuals = []
    for a in (0.5, 0.25):
        grid = LatticeGrid((int(8 / a),), a)
        kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
        k = 2 * np.pi / 8.0  # commensurate wavenumber
        residuals.append(continuum_residual(kernel, plane_wave([k])))
    ratio = residuals[0] / residuals[1]
    assert 3.6 < ratio < 4.4


def test_residual_constant_state_vanishes():
    grid = LatticeGrid((10,), 0.5)
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    from hopquant.states import AnalyticState
    const = AnalyticState(value=lambda x: np.ones_like(x, dtype=complex),
                          gradient=lambda x: [np.zeros_like(x, dtype=complex)],
                          laplacian=lambda x: np.zeros_like(x, dtype=complex))
    assert continuum_residual(kernel, const) < 1e-13


def test_residual_constant_field_kernel_order():
    residuals, spacings = [], (0.5, 0.25, 0.125)
    for a in spacings:
        grid = LatticeGrid((int(8 / a),), a)
        kernel = kernel_from_potentials(lambda x: [np.full_like(x, 0.5)],
                                        None, 1.0, grid)
        k = 2 * np.pi / 8.0
        residuals.append(continuum_residual(kernel, plane_wave([k])))
    assert fit_order(spacings, residuals) > 1.9


def test_residual_inhomogeneous_family_order_at_least_one():
    # Re kappa1 = O(1), Im kappa1 = O(1/a) via the potential-built kernel;
    # the test state is smooth and periodic on the domain
    from hopquant.states import AnalyticState

    w = 2 * np.pi / 8.0

    def g(x):
        return 0.3 * np.cos(w * x) + 0.5j * np.sin(w * x)

    def gp(x):
        return -0.3 * w * np.sin(w * x) + 0.5j * w * np.cos(w * x)

    def gpp(x):
        return -0.3 * w ** 2 * np.cos(w * x) - 0.5j * w ** 2 * np.sin(w * x)

    state = AnalyticState(
        value=lambda x: np.exp(g(x)),
        gradient=lambda x: [gp(x) * np.exp(g(x))],
        laplacian=lambda x: (gpp(x) + gp(x) ** 2) * np.exp(g(x)))

    residuals, spacings = [], (0.25, 0.125, 0.0625)
    for a in spacings:
        grid = LatticeGrid((int(8 / a),), a)
        kernel = kernel_from_potentials(
            lambda x: [0.4 * np.sin(w * x)],
            lambda x: 0.3 * np.cos(w * x), 1.0, grid)
        residuals.append(continuum_residual(kernel, state))
    assert fit_order(spacings, residuals) >= 1.0


def test_divergence_on_an_open_grid_is_exact_for_a_linear_field():
    # np.gradient's central and one-sided differences are exact on a linear
    # field, so the divergence is 2 + 4 at every site, the edges included
    grid = LatticeGrid((6, 5), 0.5, boundary="open", origin=(-1.0, 0.25))
    x, y = grid.coordinates()
    div = evolution._divergence([2.0 * x + 3.0 * y, -0.5 * x + 4.0 * y], grid)
    assert div.shape == grid.shape
    assert np.abs(div - 6.0).max() < 1e-12


# --- convergence studies ------------------------------------------------------------

def test_convergence_needs_three_spacings():
    with pytest.raises(ValueError):
        convergence_study(free_gaussian_problem(), [0.1])


def test_convergence_free_gaussian_second_order():
    study = convergence_study(free_gaussian_problem(), [0.2, 0.1, 0.05])
    assert study.monotone
    assert 1.8 < study.order < 2.3


def test_convergence_harmonic_coherent_period():
    study = convergence_study(harmonic_problem(), [0.2, 0.1, 0.05])
    assert study.monotone
    assert study.order > 1.8


def test_constant_field_momentum_shift():
    # packet center moves by -e*A*T/m under a constant vector potential
    strength = 2 * np.pi * 2 / 24.0
    problem = constant_field_problem(strength, domain=(-12, 12), duration=3.0)
    grid = LatticeGrid((240,), 0.1, origin=(-12.0,))
    kernel = kernel_from_potentials(problem.vector_potential, None, 1.0, grid)
    psi0 = LatticeWavefunction.from_callable(grid, lambda x: problem.solution(x, 0.0))
    out = evolve(kernel, psi0, dt=3.0, steps=1).psi
    x = grid.axes()[0]
    prob = np.abs(out.values) ** 2
    center = float((x * prob).sum() / prob.sum())
    assert center == pytest.approx(-strength * 3.0, abs=0.02)
