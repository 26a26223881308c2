"""Kernel validation and extraction of mass, background energy, A and U."""

import numpy as np
import pytest

from hopquant import (
    HoppingKernel,
    LatticeGrid,
    build_particle_hamiltonian,
    kernel_from_potentials,
    mass_from_kernel,
    perturb_kernel,
    random_unitary_kernel,
    scalar_potential_from_kernel,
    vacuum_energy,
    validate_kernel_unitarity,
    vector_potential_from_kernel,
)
from hopquant.errors import (
    DegenerateKernelError,
    KernelSymmetryError,
    MassRequiredError,
)
from hopquant.particle import second_moment_matrix
from sparse_oracle import coo_hopping


def grid1d(n=16, a=1.0, boundary="periodic"):
    return LatticeGrid((n,), a, boundary=boundary)


# --- conservation constraint -------------------------------------------------

def test_validate_free_nn_kernel():
    kernel = HoppingKernel.free(grid1d(), {(1,): -0.5, (-1,): -0.5, (0,): 1.0})
    report = validate_kernel_unitarity(kernel)
    assert report.max_violation == 0.0
    assert report.passed


def test_validate_imaginary_antisymmetric_pair_passes():
    grid = grid1d()
    kernel = HoppingKernel(grid, kappa1={(1,): np.full(grid.shape, 1j),
                                         (-1,): np.full(grid.shape, -1j)})
    assert validate_kernel_unitarity(kernel).passed


def test_validate_imaginary_symmetric_pair_fails_by_two():
    grid = grid1d()
    kernel = HoppingKernel(grid, kappa1={(1,): np.full(grid.shape, 1j),
                                         (-1,): np.full(grid.shape, 1j)})
    report = validate_kernel_unitarity(kernel)
    assert report.max_violation == pytest.approx(2.0)
    assert not report.passed


def test_validate_random_kernels_pass_and_perturbed_fail():
    rng = np.random.default_rng(21)
    grid = LatticeGrid((6, 6, 6), 0.7)
    reps = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
    for _ in range(10):
        kernel = random_unitary_kernel(grid, rng, representatives=reps)
        assert validate_kernel_unitarity(kernel).passed
        broken = perturb_kernel(kernel, rng, epsilon=1e-6)
        assert not validate_kernel_unitarity(broken).passed


def test_validate_open_boundary_counts_skipped_pairs():
    grid = grid1d(8, boundary="open")
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    report = validate_kernel_unitarity(kernel)
    assert report.passed
    # each of the two hopping offsets loses one site at the edge
    assert report.skipped_pairs == 2
    assert report.checked_pairs == 8 + 7 + 7


def _brute_force_unitarity(kernel):
    """(max violation, checked, skipped) of kappa(x - a*n, n) = conj(kappa(x, -n)),
    site by site over every offset of the support and its negation."""
    grid = kernel.grid
    offsets = sorted(set(kernel.support) | {tuple(-c for c in n) for n in kernel.support})
    worst, checked, skipped = 0.0, 0, 0
    for n in offsets:
        fwd, bwd = kernel.field(n), kernel.field(tuple(-c for c in n))
        for x in np.ndindex(grid.shape):
            y = tuple(xi - c for xi, c in zip(x, n))
            if grid.boundary == "periodic":
                y = tuple(yi % length for yi, length in zip(y, grid.shape))
            elif any(not 0 <= yi < length for yi, length in zip(y, grid.shape)):
                skipped += 1
                continue
            checked += 1
            worst = float(np.maximum(worst, abs(fwd[y] - np.conj(bwd[x]))))
    return worst, checked, skipped


def _nan_kernel():
    grid = LatticeGrid((5, 4), 1.0, boundary="open")
    kernel = random_unitary_kernel(grid, np.random.default_rng(4),
                                   representatives=[(1, 0), (0, 1)])
    kernel._kappa1[(0, 1)][2, 1] = np.nan
    return kernel


@pytest.mark.parametrize("make", [
    # +-2 coincide mod 4, and each still checks against its own partner
    lambda: HoppingKernel(grid1d(4), kappa0={(1,): -0.5, (-1,): -0.5 + 1e-3j,
                                             (2,): 0.25, (-2,): 0.25j}),
    lambda: HoppingKernel(LatticeGrid((5, 4), 1.0, boundary="open"), kappa0={(0, 0): 1.0},
                          kappa1={(1, 0): np.full((5, 4), 0.5j), (2, 1): np.ones((5, 4)),
                                  (0, -3): np.arange(20.0).reshape(5, 4)}),
    lambda: perturb_kernel(random_unitary_kernel(
        LatticeGrid((4, 3, 5), 1.0), np.random.default_rng(6),
        representatives=[(1, 0, 0), (0, 1, 0), (1, 1, -2)]), np.random.default_rng(7), 1e-3),
    _nan_kernel,
], ids=["1d-periodic-coinciding", "2d-open-one-sided", "3d-periodic-random", "nan"])
def test_validation_matches_site_by_site_oracle(make):
    kernel = make()
    report = validate_kernel_unitarity(kernel)
    worst, checked, skipped = _brute_force_unitarity(kernel)
    assert float.hex(report.max_violation) == float.hex(worst)
    assert (report.checked_pairs, report.skipped_pairs) == (checked, skipped)


@pytest.mark.parametrize("n_sites, kappa0, kappa1, error, message", [
    (3, {(3,): 1.0}, None, ValueError, "does not fit within grid"),
    (16, None, {(1,): np.ones(15)}, ValueError, "has shape"),
    (16, None, lambda t: {}, TypeError, "time-dependent kernels were removed"),
], ids=["grid-fit", "field-shape", "callable"])
def test_kernel_rejects_oversized_support(n_sites, kappa0, kappa1, error, message):
    with pytest.raises(error, match=message):
        HoppingKernel(grid1d(n_sites), kappa0=kappa0, kappa1=kappa1)


def test_kernel_of_radius_five_that_fits_its_grid_builds():
    # the grid-fit check is the one bound on an offset
    kernel = HoppingKernel.free(grid1d(16), {(0,): 0.5, (5,): -0.25, (-5,): -0.25})
    assert validate_kernel_unitarity(kernel).passed
    want = coo_hopping((16,), True, kernel.support,
                       [kernel.field(n) for n in kernel.support], dtype=complex)
    got = build_particle_hamiltonian(kernel).matrix.copy()
    got.sort_indices()
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# --- mass ---------------------------------------------------------------------

def test_mass_1d_nearest_neighbor():
    kernel = HoppingKernel.free(grid1d(), {(1,): -0.5, (-1,): -0.5})
    fit = mass_from_kernel(kernel)
    assert fit.mass == pytest.approx(1.0, abs=1e-15)
    assert fit.anisotropy == 0.0


def test_mass_3d_nearest_neighbor():
    grid = LatticeGrid((4, 4, 4), 1.0)
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    fit = mass_from_kernel(kernel)
    assert fit.mass == pytest.approx(1.0, abs=1e-15)
    assert fit.anisotropy == 0.0


def test_mass_two_shell_kernel_brute_force():
    # hand sum: -0.4*2*1 - 0.025*2*4 = -1.0  =>  m = 1
    kappa0 = {(1,): -0.4, (-1,): -0.4, (2,): -0.025, (-2,): -0.025}
    kernel = HoppingKernel.free(grid1d(), kappa0)
    fit = mass_from_kernel(kernel)
    assert fit.mass == pytest.approx(1.0, abs=1e-14)
    # independent oracle: explicit loop over the support
    moment = sum(v * n[0] * n[0] for n, v in kappa0.items())
    assert moment == pytest.approx(-1.0)
    assert second_moment_matrix(kernel)[0, 0] == pytest.approx(moment)


def test_mass_round_trip_exact():
    grid = LatticeGrid((5, 5, 5), 0.37)
    for m in (1.0, 2.5, -3.0, 0.731):
        kernel = HoppingKernel.nearest_neighbor(grid, mass=m, hbar=1.3)
        fit = mass_from_kernel(kernel, hbar=1.3)
        assert abs(fit.mass - m) <= 1e-14 * abs(m)


def test_mass_isotropy_cubic_orbit_exact_zero():
    # include a diagonal orbit: off-diagonal moments must cancel exactly
    grid = LatticeGrid((5, 5), 1.0)
    kappa0 = {}
    for n in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        kappa0[n] = -0.5
    for n in [(1, 1), (-1, -1), (1, -1), (-1, 1)]:
        kappa0[n] = -0.125
    kernel = HoppingKernel.free(grid, kappa0)
    m = second_moment_matrix(kernel)
    assert m[0, 1] == 0.0
    assert m[1, 0] == 0.0
    assert mass_from_kernel(kernel).anisotropy == 0.0


def test_mass_degenerate_kernel_rejected():
    kernel = HoppingKernel.free(grid1d(), {(0,): 1.0})
    with pytest.raises(DegenerateKernelError):
        mass_from_kernel(kernel)


def test_mass_requires_symmetry_flag():
    grid = grid1d()
    kernel = HoppingKernel(grid, kappa1={(1,): np.full(grid.shape, 1j),
                                         (-1,): np.full(grid.shape, -1j)})
    with pytest.raises(KernelSymmetryError):
        mass_from_kernel(kernel)


def test_symmetry_flag_rejects_asymmetric_kappa0():
    with pytest.raises(KernelSymmetryError):
        HoppingKernel(grid1d(), kappa0={(1,): -0.5, (-1,): -0.4},
                      free_symmetric=True)


# --- background energy ---------------------------------------------------------

def test_vacuum_energy_examples():
    assert vacuum_energy(HoppingKernel.free(
        grid1d(), {(0,): 1.0, (1,): -0.5, (-1,): -0.5})) == pytest.approx(0.0)
    assert vacuum_energy(HoppingKernel.free(
        grid1d(), {(1,): -0.5, (-1,): -0.5})) == pytest.approx(-1.0)
    grid = LatticeGrid((4, 4, 4), 1.0)
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0, onsite=3.0)
    assert vacuum_energy(kernel) == pytest.approx(0.0)


# --- vector potential -----------------------------------------------------------

def test_vector_potential_zero_for_homogeneous_kernel():
    kernel = HoppingKernel.nearest_neighbor(grid1d(), mass=1.0)
    a = vector_potential_from_kernel(kernel)
    assert np.all(a[0] == 0.0)


def test_vector_potential_constant_imaginary_pair():
    # Im kappa1(+e1) = 0.3, Im kappa1(-e1) = -0.3  =>  A1 = 0.6 everywhere
    grid = grid1d()
    base = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    gamma = 0.3
    kernel = HoppingKernel(grid, kappa0=base.kappa0,
                           kappa1={(1,): np.full(grid.shape, 1j * gamma),
                                   (-1,): np.full(grid.shape, -1j * gamma)},
                           free_symmetric=True)
    assert validate_kernel_unitarity(kernel).passed
    a = vector_potential_from_kernel(kernel, mass=1.0)
    assert np.abs(a[0] - 0.6).max() < 1e-14


def test_vector_potential_sinusoidal_matches_site_sum():
    grid = grid1d(24)
    base = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    x = grid.axes()[0]
    length = grid.dims[0] * grid.spacing
    gamma = 0.3
    fwd = 1j * gamma * np.sin(2 * np.pi * x / length)
    bwd = np.conj(np.roll(fwd, 1))
    kernel = HoppingKernel(grid, kappa0=base.kappa0,
                           kappa1={(1,): fwd, (-1,): bwd}, free_symmetric=True)
    assert validate_kernel_unitarity(kernel).passed
    a = vector_potential_from_kernel(kernel, mass=1.0)

    # brute-force site-by-site evaluation of the defining sum
    expected = np.zeros(grid.dims[0])
    for site in range(grid.dims[0]):
        for n, field in ((1, fwd), (-1, bwd)):
            expected[site] += 1.0 * n * field[site].imag
    assert np.abs(a[0] - expected).max() < 1e-14


def test_vector_potential_needs_mass():
    grid = grid1d()
    kernel = HoppingKernel(grid, kappa1={(1,): np.full(grid.shape, 0.2j),
                                         (-1,): np.full(grid.shape, -0.2j)})
    with pytest.raises(MassRequiredError):
        vector_potential_from_kernel(kernel)


# --- scalar potential ------------------------------------------------------------

def test_scalar_potential_homogeneous_is_background():
    kernel = HoppingKernel.free(grid1d(), {(0,): 1.0, (1,): -0.5, (-1,): -0.5})
    a = vector_potential_from_kernel(kernel, mass=1.0)
    u = scalar_potential_from_kernel(kernel, a, mass=1.0)
    assert np.abs(u - 0.0).max() < 1e-14


def test_scalar_potential_diagonal_real_shift():
    grid = grid1d()
    base = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    x = grid.axes()[0]
    bump = (0.5 * x ** 2).astype(complex)
    kernel = HoppingKernel(grid, kappa0=base.kappa0,
                           kappa1={(0,): bump}, free_symmetric=True)
    a = vector_potential_from_kernel(kernel, mass=1.0)
    u = scalar_potential_from_kernel(kernel, a, mass=1.0)
    assert np.abs(u - 0.5 * x ** 2).max() < 1e-13


def test_scalar_potential_constant_a_example():
    # Re kappa1 = 0 and A = 0.6 give U = E0 - 0.18
    grid = grid1d()
    base = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    kernel = HoppingKernel(grid, kappa0=base.kappa0,
                           kappa1={(1,): np.full(grid.shape, 0.3j),
                                   (-1,): np.full(grid.shape, -0.3j)},
                           free_symmetric=True)
    a = vector_potential_from_kernel(kernel, mass=1.0)
    u = scalar_potential_from_kernel(kernel, a, mass=1.0)
    assert np.abs(u - (-0.18)).max() < 1e-14


# --- kernel from potentials -------------------------------------------------------

def test_kernel_from_potentials_free_case():
    grid = grid1d()
    kernel = kernel_from_potentials(None, None, 1.0, grid)
    reference = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    assert kernel.kappa0 == reference.kappa0
    for n in kernel.support:
        assert np.abs(kernel.kappa1_field(n)).max() == 0.0


def test_kernel_from_potentials_constant_a_matches_linear_inversion():
    grid = grid1d()
    kernel = kernel_from_potentials(lambda x: [np.full_like(x, 0.6)], None,
                                    1.0, grid)
    fwd = kernel.kappa1_field((1,))
    assert np.abs(fwd - 0.3j).max() < 1e-15
    assert validate_kernel_unitarity(kernel).passed
    a = vector_potential_from_kernel(kernel)
    u = scalar_potential_from_kernel(kernel, a)
    # constant fields reproduce exactly
    assert np.abs(a[0] - 0.6).max() < 1e-14
    assert np.abs(u).max() < 1e-14


def test_kernel_from_potentials_harmonic_diagonal():
    grid = LatticeGrid((17,), 0.5, boundary="open", origin=(-4.0,))
    kernel = kernel_from_potentials(None, lambda x: 0.5 * x ** 2, 1.0, grid)
    x = grid.axes()[0]
    assert np.abs(kernel.kappa1_field((0,)) - 0.5 * x ** 2).max() < 1e-14


def test_kernel_from_potentials_round_trip_order():
    # smooth periodic fields: extraction error should shrink like a^2
    def vec(x):
        return [0.3 * np.sin(2 * np.pi * x / 8.0)]

    def scal(x):
        return 0.2 * np.cos(2 * np.pi * x / 8.0)

    errs = []
    for a in (0.25, 0.125, 0.0625):
        grid = LatticeGrid((int(8.0 / a),), a)
        kernel = kernel_from_potentials(vec, scal, 1.0, grid)
        x = grid.axes()[0]
        a_field = vector_potential_from_kernel(kernel)
        u_field = scalar_potential_from_kernel(kernel, a_field)
        err = max(np.abs(a_field[0] - vec(x)[0]).max(),
                  np.abs(u_field - scal(x)).max())
        errs.append(err)
    order = np.polyfit(np.log([0.25, 0.125, 0.0625]), np.log(errs), 1)[0]
    assert order > 1.5
