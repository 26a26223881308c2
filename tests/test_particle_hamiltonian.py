"""Operator assembly: hermiticity, spectra, gauge covariance."""

import tracemalloc

import numpy as np
import pytest

from hopquant import (
    HoppingKernel,
    LatticeGrid,
    apply_kernel,
    build_particle_hamiltonian,
    gauge_shift_kernel,
    kernel_from_potentials,
    perturb_kernel,
    random_unitary_kernel,
    validate_kernel_unitarity,
)
from hopquant.errors import HermiticityError
from sparse_oracle import coo_hopping, from_matrix


def test_ring_circulant_eigenvalues():
    grid = LatticeGrid((4,), 1.0)
    kernel = HoppingKernel.free(grid, {(0,): 1.0, (1,): -0.5, (-1,): -0.5})
    op = build_particle_hamiltonian(kernel)
    w = np.linalg.eigvalsh(op.matrix.toarray())
    expected = np.sort([1.0 + 2 * (-0.5) * np.cos(2 * np.pi * k / 4) for k in range(4)])
    assert np.abs(np.sort(w) - expected).max() < 1e-12


def test_open_two_site_matrix():
    grid = LatticeGrid((2,), 1.0, boundary="open")
    kernel = HoppingKernel.free(grid, {(0,): 1.0, (1,): -0.5, (-1,): -0.5})
    op = build_particle_hamiltonian(kernel)
    assert np.abs(op.matrix.toarray() - np.array([[1.0, -0.5], [-0.5, 1.0]])).max() == 0.0


def test_constraint_equivalent_to_hermiticity_both_directions():
    rng = np.random.default_rng(31)
    grid = LatticeGrid((8, 8), 0.5)
    for _ in range(8):
        kernel = random_unitary_kernel(grid, rng,
                                       representatives=[(1, 0), (0, 1), (1, 1)])
        op = build_particle_hamiltonian(kernel)
        assert op.hermiticity_defect <= 1e-12
        with pytest.raises(HermiticityError):
            build_particle_hamiltonian(perturb_kernel(kernel, rng))


def _coo_oracle(kernel):
    """H[x, x + n] = kappa(x, n) from COO triplets."""
    grid = kernel.grid
    return coo_hopping(grid.shape, grid.boundary == "periodic", kernel.support,
                       [kernel.field(n) for n in kernel.support], dtype=complex)


def _assert_same_csr(got, want):
    got = got.copy()
    got.sort_indices()  # the assembler keeps each row in offset order
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def _assert_offset_order(got, kernel):
    """Row x holds x + n for each distinct offset n of the support, in support
    order: wrapped on a periodic grid, and left out where it leaves an open one."""
    grid = kernel.grid
    for x, site in enumerate(np.ndindex(grid.shape)):
        want = []
        for n in kernel.support:
            y = np.add(site, n)
            if grid.boundary == "periodic":
                y = np.mod(y, grid.shape)
            elif np.any(y < 0) or np.any(y >= grid.shape):
                continue
            col = np.ravel_multi_index(tuple(y), grid.shape)
            if col not in want:  # offsets that coincide on the grid share a slot
                want.append(col)
        assert got.indices[got.indptr[x]:got.indptr[x + 1]].tolist() == want, site


def _oracle_kernels():
    rng = np.random.default_rng(34)
    for boundary in ("periodic", "open"):
        for dims, reps in (((7,), [(1,), (2,)]),
                           ((5, 4), [(1, 0), (0, 1), (1, -1)]),
                           ((4, 3, 5), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])):
            grid = LatticeGrid(dims, 0.5, boundary=boundary)
            yield random_unitary_kernel(grid, rng, representatives=reps)
    # offsets that coincide on the periodic grid share one entry
    for dims, reps in (((2,), [(1,)]), ((4,), [(2,), (1,)]), ((2, 3), [(1, 0), (1, 1)])):
        grid = LatticeGrid(dims, 1.0)
        yield random_unitary_kernel(grid, rng, representatives=reps)
    grid = LatticeGrid((6,), 1.0)
    yield HoppingKernel(grid, kappa0={(1,): 1.0})  # unpaired
    yield HoppingKernel(grid)  # empty support
    yield HoppingKernel(grid, kappa0={(1,): -0.5, (-1,): -0.5},  # complex, unpaired
                        kappa1={(0,): np.full(grid.shape, 0.7, dtype=complex),
                                (1,): np.full(grid.shape, 0.7j)})


def test_direct_csr_assembly_matches_coo_oracle():
    for kernel in _oracle_kernels():
        op = build_particle_hamiltonian(kernel, tol=np.inf)
        _assert_same_csr(op.matrix, _coo_oracle(kernel))
        _assert_offset_order(op.matrix, kernel)
    # four offsets meet on a 2x2 torus and are summed in offset order
    kernel = random_unitary_kernel(LatticeGrid((2, 2), 1.0), np.random.default_rng(35),
                                   representatives=[(1, 1), (1, -1)])
    _assert_same_csr(build_particle_hamiltonian(kernel).matrix, _coo_oracle(kernel))


def test_periodic_assembly_records_its_slot_offsets():
    # the record is each distinct offset mod the grid, in slot order; offsets
    # that coincide on the grid share a slot, and an open grid records nothing
    rng = np.random.default_rng(38)
    for dims, reps in (((5, 4), [(1, 0), (0, 1), (1, -1)]), ((2, 3), [(1, 0), (1, 1)])):
        kernel = random_unitary_kernel(LatticeGrid(dims, 1.0), rng, representatives=reps)
        op = build_particle_hamiltonian(kernel)
        want = list(dict.fromkeys(tuple(np.mod(n, dims).tolist()) for n in kernel.support))
        assert op.slot_offsets.dtype == np.int64
        assert list(map(tuple, op.slot_offsets.tolist())) == want
        assert len(want) == op.nnz // op.dimension
    assert len(want) < len(kernel.support)  # (1, 0) and (-1, 0) meet on an axis of 2
    assert from_matrix(op.matrix).slot_offsets is None
    grid = LatticeGrid((5, 4), 1.0, boundary="open")
    kernel = random_unitary_kernel(grid, rng, representatives=[(1, 0), (0, 1)])
    assert build_particle_hamiltonian(kernel).slot_offsets is None


def test_open_grid_operator_holds_only_its_entries():
    # the entries that leave an open grid are dropped, and the operator's
    # arrays are then exactly nnz long and own their memory: nothing of the
    # assembler's m slots a row stays allocated behind them
    grid = LatticeGrid((12, 12, 12), 1.0, boundary="open")
    kernel = random_unitary_kernel(grid, np.random.default_rng(37), representatives=[
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0), (1, -1, 2)])
    tracemalloc.start()
    try:
        op = build_particle_hamiltonian(kernel)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert op.nnz < grid.n_sites * len(kernel.support)
    for a in (op.data, op.indices):
        assert a.nbytes == op.nnz * a.itemsize and a.base is None
    assert held <= op.data.nbytes + op.indices.nbytes + op.indptr.nbytes + 2 ** 16


def test_pairing_defect_equals_generic_defect():
    rng = np.random.default_rng(36)
    kernels = []
    for kernel in _oracle_kernels():
        if kernel.support:  # the unpaired kernels are among them
            kernels += [kernel, perturb_kernel(kernel, rng)]
    rejected = 0
    for kernel in kernels:
        want = from_matrix(_coo_oracle(kernel), tol=np.inf).hermiticity_defect
        if want <= 1e-12:
            assert build_particle_hamiltonian(kernel).hermiticity_defect == want
            continue
        with pytest.raises(HermiticityError) as info:
            build_particle_hamiltonian(kernel)
        assert info.value.defect == want
        rejected += 1
    assert rejected > len(kernels) // 2


def test_nan_amplitude_fails_both_checks():
    # one NaN among finite offsets must not be folded away by the running maximum
    for boundary in ("periodic", "open"):
        grid = LatticeGrid((5, 4), 1.0, boundary=boundary)
        kernel = HoppingKernel.free(grid, {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0,
                                           (0, 1): np.nan, (0, -1): np.nan})
        report = validate_kernel_unitarity(kernel)
        assert np.isnan(report.max_violation) and not report.passed
        with pytest.raises(HermiticityError) as info:
            build_particle_hamiltonian(kernel)
        assert np.isnan(info.value.defect)


def test_matrix_matches_direct_application():
    rng = np.random.default_rng(32)
    for boundary in ("periodic", "open"):
        grid = LatticeGrid((7, 5), 0.5, boundary=boundary)
        kernel = random_unitary_kernel(grid, rng, representatives=[(1, 0), (0, 1)])
        op = build_particle_hamiltonian(kernel)
        psi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        via_matrix = (op.matvec(psi.ravel())).reshape(grid.shape)
        direct = apply_kernel(kernel, psi)
        assert np.abs(via_matrix - direct).max() < 1e-13


def test_gauge_shift_preserves_spectrum():
    rng = np.random.default_rng(33)
    grid = LatticeGrid((10,), 0.5)
    kernel = kernel_from_potentials(
        lambda x: [0.4 * np.sin(2 * np.pi * x / 5.0)],
        lambda x: 0.1 * np.cos(2 * np.pi * x / 5.0), 1.0, grid)
    chi = rng.standard_normal(grid.shape)
    shifted = gauge_shift_kernel(kernel, chi)
    w0 = np.linalg.eigvalsh(build_particle_hamiltonian(kernel).matrix.toarray())
    w1 = np.linalg.eigvalsh(build_particle_hamiltonian(shifted).matrix.toarray())
    assert np.abs(w0 - w1).max() < 1e-10


def test_gauge_shift_moves_vector_potential_by_discrete_gradient():
    from hopquant import vector_potential_from_kernel

    grid = LatticeGrid((12,), 0.5)
    kernel = HoppingKernel.nearest_neighbor(grid, mass=1.0)
    chi = 0.3 * np.sin(2 * np.pi * grid.axes()[0] / 6.0)
    shifted = gauge_shift_kernel(kernel, chi)
    a = vector_potential_from_kernel(shifted)[0]
    # the discrete gradient of chi appears as the shift of A up to O(a^2)
    grad = (np.roll(chi, -1) - chi) / grid.spacing
    sym = 0.5 * (grad + np.roll(grad, 1))
    assert np.abs(a - sym).max() < 0.05 * np.abs(sym).max()
