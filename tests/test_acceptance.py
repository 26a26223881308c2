"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hopquant import (
    HoppingKernel,
    LatticeGrid,
    LatticeWavefunction,
    LinkLattice,
    MaxwellPreset,
    build_gauge_hamiltonian,
    build_particle_hamiltonian,
    compare_to_reference,
    constant_field_problem,
    convergence_study,
    evolve,
    extract_continuum_constants,
    harmonic_problem,
    kernel_from_potentials,
    mass_from_kernel,
    perturb_kernel,
    random_unitary_kernel,
    reference_ks_hamiltonian,
    symmetry_commutator_norms,
    validate_kernel_unitarity,
)
from hopquant import linop
from hopquant.errors import ChargeConjugationError
from hopquant.gauge_ham import GaugeHoppingSpec
from hopquant.particle import second_moment_matrix


@contextmanager
def criterion(number, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label} "
          f"({time.monotonic() - start:.1f}s)")


def test_criterion_1_unitarity_iff_hermiticity():
    with criterion(1, "conservation constraint <-> operator hermiticity"):
        start = time.monotonic()
        grid = LatticeGrid((16, 16, 16), 1.0)
        rng = np.random.default_rng(20260810)
        reps = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0)]
        for _ in range(100):
            kernel = random_unitary_kernel(grid, rng, representatives=reps)
            op = build_particle_hamiltonian(kernel)
            assert op.hermiticity_defect <= 1e-12
            assert validate_kernel_unitarity(kernel).passed
        for _ in range(100):
            kernel = perturb_kernel(
                random_unitary_kernel(grid, rng, representatives=reps), rng)
            assert not validate_kernel_unitarity(kernel).passed
        assert time.monotonic() - start < 30.0


def test_criterion_2_mass_and_isotropy():
    with criterion(2, "mass round trip exact, cubic moments isotropic"):
        for grid in (LatticeGrid((8,), 0.31), LatticeGrid((4, 4, 4), 1.7)):
            for m in (1.0, -2.0, 0.618, 11.2):
                kernel = HoppingKernel.nearest_neighbor(grid, mass=m)
                fit = mass_from_kernel(kernel)
                assert abs(fit.mass - m) <= 1e-14 * abs(m)
                assert fit.anisotropy == 0.0
        # cubic preset with a diagonal orbit: off-diagonal moments exactly zero
        grid = LatticeGrid((4, 4, 4), 1.0)
        kappa0 = {}
        for ax in range(3):
            for sg in (1, -1):
                kappa0[tuple(sg if j == ax else 0 for j in range(3))] = -0.5
        for nx in (1, -1):
            for ny in (1, -1):
                kappa0[(nx, ny, 0)] = -0.0625
                kappa0[(nx, 0, ny)] = -0.0625
                kappa0[(0, nx, ny)] = -0.0625
        moments = second_moment_matrix(HoppingKernel.free(grid, kappa0))
        off = moments - np.diag(np.diag(moments))
        assert np.abs(off).max() == 0.0


def test_criterion_3_continuum_limit():
    with criterion(3, "continuum limit: oscillator order >= 1.8, field drift order >= 1"):
        start = time.monotonic()
        spacings = [0.2, 0.1, 0.05, 0.025]
        osc = convergence_study(harmonic_problem(), spacings)
        assert osc.monotone
        assert osc.order >= 1.8

        strength = 2 * np.pi * 2 / 24.0  # periodic-commensurate potential
        drift = convergence_study(
            constant_field_problem(strength, domain=(-12, 12), duration=3.0),
            spacings)
        assert drift.order >= 1.0

        # the drift realizes the kinetic-momentum shift: center at -e*A*T/m
        grid = LatticeGrid((480,), 0.05, origin=(-12.0,))
        problem = constant_field_problem(strength, domain=(-12, 12), duration=3.0)
        kernel = kernel_from_potentials(problem.vector_potential, None, 1.0, grid)
        psi0 = LatticeWavefunction.from_callable(grid, problem.initial)
        out = evolve(kernel, psi0, dt=3.0, steps=1).psi
        x = grid.axes()[0]
        prob = np.abs(out.values) ** 2
        center = float((x * prob).sum() / prob.sum())
        assert abs(center - (-strength * 3.0)) < 0.01
        assert time.monotonic() - start < 120.0


def test_criterion_4_norm_conservation(monkeypatch):
    with criterion(4, "norm drift <= 1e-10 dense / <= 1e-8 Krylov over 1e3 steps"):
        grid = LatticeGrid((81,), 0.2, boundary="open", origin=(-8.0,))
        kernel = kernel_from_potentials(None, lambda x: 0.5 * x ** 2, 1.0, grid)
        psi = LatticeWavefunction.from_callable(
            grid, lambda x: np.exp(-0.5 * (x - 1.0) ** 2)).normalized()
        dense = evolve(kernel, psi, dt=0.01, steps=1000, drift_tol=1e-10)
        assert dense.norm_drift <= 1e-10

        grid3 = LatticeGrid((8, 8, 8), 1.0)
        op = build_particle_hamiltonian(HoppingKernel.nearest_neighbor(grid3, 1.0))
        rng = np.random.default_rng(8)
        v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        v /= np.linalg.norm(v)
        drift = 0.0
        monkeypatch.setattr(linop, "DENSE_CUTOFF", 0)  # the Chebyshev series
        for _ in range(1000):
            v = linop.propagate(op, v, 0.02)
            drift = max(drift, abs(np.linalg.norm(v) - 1.0))
        assert drift <= 1e-8


def test_criterion_5_gauge_c_p_invariance():
    with criterion(5, "gauge/C/P commutators: exact <= 1e-12 for N = 2, 3, 4"):
        start = time.monotonic()
        spec = MaxwellPreset(electric=1.0, magnetic=1.0)
        for n in (2, 3, 4):
            lattice = LinkLattice((2, 2), n, boundary="periodic")
            op = build_gauge_hamiltonian(lattice, spec)
            report = symmetry_commutator_norms(op, lattice)
            assert report.max_norm <= 1e-12
        assert lattice.hilbert_dim == 65536
        assert time.monotonic() - start < 300.0


def test_criterion_6_hopping_vs_reference_oracle():
    with criterion(6, "gap deviations vs reference shrink with N; exact at zero coupling"):
        start = time.monotonic()
        per_gap = []
        for n in (4, 6, 8, 10):
            lattice = LinkLattice((2, 2), n, boundary="open")
            hop = build_gauge_hamiltonian(lattice, MaxwellPreset(1.0, 1.0))
            ref = reference_ks_hamiltonian(lattice, 1.0, 1.0)
            comp = compare_to_reference(hop, ref, 5)
            per_gap.append(comp.deviations)
        for a, b in zip(per_gap, per_gap[1:]):
            assert np.all(b < a)

        lattice = LinkLattice((2, 2), 6, boundary="open")
        hop0 = build_gauge_hamiltonian(lattice, MaxwellPreset(1.0, 0.0))
        ref0 = reference_ks_hamiltonian(lattice, 1.0, 0.0)
        assert compare_to_reference(hop0, ref0, 5).max_deviation <= 1e-10
        assert time.monotonic() - start < 180.0


def test_criterion_7_constants_round_trip():
    with criterion(7, "emergent constants reproduce the preset couplings to 1e-10"):
        n, spacing = 1024, 1.0
        lam_e, lam_b = 1.0, 1.0
        consts = extract_continuum_constants(MaxwellPreset(lam_e, lam_b), n,
                                             spacing=spacing)
        expected_inv_eps0 = 8.0 * np.pi ** 2 * spacing * lam_e / n ** 2
        assert abs(consts.inv_eps0 - expected_inv_eps0) \
            <= 1e-10 * expected_inv_eps0
        assert abs(consts.inv_mu0 - spacing * lam_b) <= 1e-10 * lam_b

        class Odd(GaugeHoppingSpec):
            def response(self, pvals, n):
                pvals = np.asarray(pvals, dtype=float)
                return -1.0 + 0.1 * np.sin(2 * np.pi * pvals / n).sum(axis=0)

        with pytest.raises(ChargeConjugationError):
            extract_continuum_constants(Odd(), n)


def test_criterion_8_desk_scale_limits_documented():
    with criterion(8, "README documents the out-of-reach continuum observables"):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as f:
            text = f.read().lower()
        assert "dispersion" in text
        assert "infinite-volume" in text or "infinite volume" in text
        # the reachable proxy is the clock-order trend against the reference
        assert "plaquette_n_scan" in text or "gap deviation" in text
