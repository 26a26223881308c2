"""Operator substrate: matvec, propagation, extremal eigenpairs."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigvalsh_tridiagonal, expm

from hopquant import (
    LatticeGrid,
    LatticeWavefunction,
    LinkLattice,
    MaxwellPreset,
    build_gauge_hamiltonian,
    build_particle_hamiltonian,
    evolution,
    harmonic_problem,
    kernel_from_potentials,
    linop,
    random_unitary_kernel,
    reference_ks_hamiltonian,
)
from hopquant.errors import EigenConvergenceError, HermiticityError, HilbertDimensionError
from hopquant.linop import eigs_extremal, propagate
from sparse_oracle import coo_hopping, from_matrix
from test_cli import _python
from test_gauge_hamiltonian import (
    _reference_oracle,
    _rule_operator,
    _rule_oracle,
    _spec_oracle,
    phase_rule,
)


def random_hermitian(n, rng, density=0.1):
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)),
                  dtype=float)
    a = a + 1j * sp.random(n, n, density=density,
                           random_state=np.random.RandomState(rng.integers(2**31)), dtype=float)
    return from_matrix(a + a.conj().T)


def _eigh_propagate(op, v, t):
    """exp(-i H t) v through the eigendecomposition of the dense H, an oracle."""
    w, q = np.linalg.eigh(op.matrix.toarray())
    return q @ (np.exp(-1j * w * t) * (q.conj().T @ v))


def test_identity_matvec():
    op = from_matrix(sp.identity(7, format="csr"))
    v = np.arange(7, dtype=complex)
    assert np.array_equal(op.matvec(v), v)


def test_zero_matvec():
    op = from_matrix(sp.csr_matrix((5, 5)))
    assert np.all(op.matvec(np.ones(5)) == 0.0)


def test_matvec_against_dense():
    rng = np.random.default_rng(11)
    for n in (8, 33, 120):
        op = random_hermitian(n, rng)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dense = op.matrix.toarray() @ v
        assert np.abs(op.matvec(v) - dense).max() < 1e-13 * max(1.0, np.abs(dense).max())


def test_hermiticity_certificate_rejects():
    bad = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(HermiticityError):
        from_matrix(bad)
    op = from_matrix(bad, tol=np.inf)
    assert op.hermiticity_defect == pytest.approx(1.0)


def test_solvers_take_the_tolerance_an_operator_was_built_with():
    # certified once, at construction: neither solver checks against the default again
    h = np.diag(np.arange(6.0)) + np.diag(np.full(5, 0.5), 1)
    h += np.diag(np.full(5, 0.5 + 1e-10), -1)
    with pytest.raises(HermiticityError):
        from_matrix(h)
    op = from_matrix(h, tol=1e-9)
    assert op.hermiticity_defect == pytest.approx(1e-10)
    v = np.ones(6, dtype=complex)
    assert np.all(np.isfinite(propagate(op, v, 0.5)))
    assert eigs_extremal(op, 2)[0].shape == (2,)


def test_propagate_t0_is_identity():
    rng = np.random.default_rng(5)
    op = random_hermitian(20, rng)
    v = rng.standard_normal(20) + 0j
    assert np.array_equal(propagate(op, v, 0.0), v)


def test_propagate_eigenvector_phase():
    rng = np.random.default_rng(6)
    op = random_hermitian(24, rng)
    w, q = np.linalg.eigh(op.matrix.toarray())
    v = q[:, 3]
    out = propagate(op, v, 1.7)
    assert np.abs(out - np.exp(-1j * w[3] * 1.7) * v).max() < 1e-12


def test_propagate_matches_expm():
    rng = np.random.default_rng(7)
    op = random_hermitian(30, rng, density=0.3)
    v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    for vec in (v, np.zeros(30)):
        expected = expm(-1j * 0.9 * op.matrix.toarray()) @ vec
        out = propagate(op, vec, 0.9)
        assert np.linalg.norm(out - expected) < 1e-10


def test_propagate_matches_expm_at_large_argument():
    # z = r*|t| in the hundreds: the series runs to hundreds of terms
    rng = np.random.default_rng(13)
    for complex_data in (True, False):
        a = sp.random(40, 40, density=0.3, random_state=np.random.RandomState(rng.integers(2**31)))
        if complex_data:
            a = a + 1j * sp.random(40, 40, density=0.3,
                                   random_state=np.random.RandomState(rng.integers(2**31)))
        op = from_matrix(a + a.conj().T)
        v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        lo, hi = op.spectral_interval()
        t = 400.0 / (hi - lo)
        assert 150.0 < (hi - lo) / 2.0 * t < 250.0
        expected = expm(-1j * t * op.matrix.toarray()) @ v
        out = propagate(op, v, t)
        assert np.linalg.norm(out - expected) < 1e-10 * np.linalg.norm(v)


def test_propagate_matches_eigh_over_ten_thousand_terms():
    # the finest grid of the bundled harmonic_period config: 641 open sites
    # over one period, a stiff operator whose series runs to 10,391 terms
    problem = harmonic_problem()
    grid = evolution._grid_for(problem, 0.025)
    op = build_particle_hamiltonian(kernel_from_potentials(
        problem.vector_potential, problem.scalar_potential, problem.mass, grid))
    t = problem.duration
    assert op.dimension == 641 and t == 2.0 * np.pi
    assert len(linop._bessel_series(op.propagation_interval()[1] * t)) > 10_000
    v = LatticeWavefunction.from_callable(
        grid, lambda x: problem.solution(x, 0.0)).normalized().values.ravel()
    assert np.linalg.norm(propagate(op, v, t) - _eigh_propagate(op, v, t)) < 1e-11


def test_propagate_negative_time_undoes_positive():
    rng = np.random.default_rng(14)
    op = random_hermitian(50, rng, density=0.2)
    v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    forward = propagate(op, v, 3.1)
    assert np.linalg.norm(forward - v) > 0.1 * np.linalg.norm(v)
    back = propagate(op, forward, -3.1)
    assert np.linalg.norm(back - v) < 1e-12 * np.linalg.norm(v)


def test_propagate_real_operator_on_strided_vector():
    # scipy casts a real H's data to complex for a complex, strided v
    a = sp.random(30, 30, density=0.3, random_state=np.random.RandomState(18))
    op = from_matrix(a + a.T)
    wide = np.random.default_rng(18).standard_normal(60) + 1j
    v = wide[::2]
    expected = expm(-1.3j * op.matrix.toarray()) @ v
    assert np.linalg.norm(propagate(op, v, 1.3) - expected) < 1e-12


def test_propagate_multiple_of_identity_is_a_phase():
    # the Gershgorin interval of c*I has radius 0, which the series cannot scale by;
    # the propagation interval keeps it, with no warning on the way
    v = np.arange(9) + 1j
    for op, c in ((from_matrix(2.5 * sp.identity(9, format="csr")), 2.5),
                  (from_matrix(sp.csr_matrix((9, 9))), 0.0)):
        assert op.spectral_interval() == (c, c)
        assert op.propagation_interval() == (c, 0.0)
        out = propagate(op, v, 0.7)
        assert np.abs(out - np.exp(-1j * c * 0.7) * v).max() < 1e-15
        assert np.array_equal(propagate(op, np.zeros(9), 0.7), np.zeros(9))


@pytest.mark.parametrize("t, hbar", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                                     (1.0, 0.0), (1.0, np.nan), (1.0, np.inf), (0.0, 0.0)])
def test_propagate_rejects_non_finite_time_and_bad_hbar(t, hbar):
    # unchecked, the series raised ValueError, OverflowError or
    # ZeroDivisionError from deep inside
    rng = np.random.default_rng(19)
    op = random_hermitian(20, rng)
    v = rng.standard_normal(20) + 0j
    with pytest.raises(ValueError, match="finite t and a finite, nonzero hbar"):
        propagate(op, v, t, hbar=hbar)


def _assert_intervals_hold(op, eigenvalues, slack=0.0):
    """Both intervals hold the spectrum; the propagation one lies inside Gershgorin's.

    ``slack`` allows for the rounding of eigenvalues computed densely where
    an interval is tight, as both are on a ring; elsewhere it is 0.
    """
    lo, hi = op.spectral_interval()
    c, r = op.propagation_interval()
    assert c == (hi + lo) / 2.0 and 0.0 <= r <= (hi - lo) / 2.0
    assert np.abs(eigenvalues - c).max() <= r + slack
    assert lo - slack <= eigenvalues.min() and eigenvalues.max() <= hi + slack


def test_gershgorin_interval_contains_spectrum():
    rng = np.random.default_rng(15)
    real = sp.random(50, 50, density=0.2, random_state=np.random.RandomState(3))
    shifted = sp.random(50, 50, density=0.2, random_state=np.random.RandomState(4))
    # a ring's rows all sum to 2, so w = 1 is already optimal; its last row is
    # empty, so without the floor that power step would zero an entry of w
    sites, right = np.arange(12), (np.arange(12) + 1) % 12
    ring = sp.csr_matrix((np.ones(24), (np.r_[sites, right], np.r_[right, sites])), shape=(13, 13))
    ops = [random_hermitian(50, rng, density=0.2), from_matrix(real + real.T),
           from_matrix(shifted + shifted.T + 100.0 * sp.identity(50)),
           from_matrix(ring)]
    for op in ops[:3]:
        _assert_intervals_hold(op, np.linalg.eigvalsh(op.matrix.toarray()))
    # the ring's top eigenvalue is 2, which eigvalsh may round up by an ulp
    _assert_intervals_hold(ops[3], np.linalg.eigvalsh(ops[3].matrix.toarray()),
                           slack=2.0 ** -45 * 2.0)
    assert ops[3].propagation_interval() == (0.0, 2.0)
    # off the strongly shifted diagonal, the refined radius is well inside Gershgorin's
    lo, hi = ops[2].spectral_interval()
    assert ops[2].propagation_interval()[1] < 0.9 * (hi - lo) / 2.0


def test_gershgorin_interval_matches_row_sums_across_blocks():
    # over 2^16 entries, so the intervals are read in several blocks of rows,
    # and rows 10-19 and the last 5 are empty
    n = 100_000
    rng = np.random.default_rng(16)
    diag = rng.standard_normal(n)
    off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    off[9:20] = 0.0
    diag[10:20] = diag[-5:] = 0.0
    off[-5:] = 0.0
    h = sp.diags([off.conj(), diag, off], [-1, 0, 1], format="csr")
    h.eliminate_zeros()
    op = from_matrix(h)
    assert op.matrix.nnz > 2 ** 17
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = op.spectral_interval()
    assert lo == pytest.approx((diag - radius).min(), abs=1e-12)
    assert hi == pytest.approx((diag + radius).max(), abs=1e-12)
    # a Hermitian tridiagonal has the spectrum of the real one with |off|
    ends = [eigvalsh_tridiagonal(diag, np.abs(off), select="i", select_range=(i, i))
            for i in (0, n - 1)]
    _assert_intervals_hold(op, np.concatenate(ends))


def test_propagate_reuses_cached_interval():
    rng = np.random.default_rng(17)
    op = random_hermitian(30, rng)
    v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    assert op._interval is None and op._propagation_interval is None
    first = propagate(op, v, 0.8)
    interval, propagation = op.spectral_interval(), op.propagation_interval()

    def recompute(*args):
        raise AssertionError("an interval was computed again")

    op.diagonal = op._row_sums = op._diagonal_entries = recompute
    assert op.spectral_interval() is interval
    assert op.propagation_interval() is propagation
    assert np.array_equal(propagate(op, v, 0.8), first)


def test_add_product_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20)
    real = sp.random(60, 60, density=0.2, random_state=np.random.RandomState(5))
    ops = [random_hermitian(60, rng, density=0.2), from_matrix(real + real.T)]
    wide = rng.standard_normal((120, 3)) + 1j * rng.standard_normal((120, 3))
    for op in ops:
        for x in (wide[::2, 0].real, wide[::2, 1], wide[:60].copy(), wide[:60].real.copy()):
            out = np.zeros(x.shape, dtype=np.result_type(op.data.dtype, x.dtype))
            op._add_product(x, out)
            assert out.tobytes() == (op.matrix @ x).tobytes()
            # a second call adds to what is there
            op._add_product(x, out)
            assert np.abs(out - 2.0 * (op.matrix @ x)).max() < 1e-13
    x, op = wide[:60, 0], ops[1]  # complex x, real H: a complex product
    for out in (np.zeros(60), np.zeros(120, dtype=complex)[::2],
                np.zeros((60, 1), dtype=complex), np.zeros(60, dtype=np.complex64)):
        with pytest.raises(ValueError, match="in place"):
            op._add_product(x, out)
    with pytest.raises(ValueError, match="in place"):  # a block in Fortran order
        op._add_product(wide[:60], np.zeros((3, 60), dtype=complex).T)
    # matvec adds into zeros of the product's dtype, so it is scipy's product
    vectors = [wide[:60, 0].real.astype(dtype) for dtype in (np.int64, np.float32)]
    vectors += [wide[:60, 0].astype(np.complex64), wide[:60, 0].real, wide[:60, 0],
                list(wide[:60, 1].real), wide[:60, :1].copy(), wide[:60, 1:]]
    for op in ops:
        for x in vectors:
            hx, expected = op.matvec(x), op.matrix @ x
            assert hx.dtype == expected.dtype and hx.shape == expected.shape
            assert hx.tobytes() == expected.tobytes()
        for x in (np.ones(59), np.ones((61, 2)), np.ones((60, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="in place"):
                op.matvec(x)
    # real H, complex x: the product of x's real view equals scipy's complex one
    for dims, n, boundary in (((2, 2), 3, "periodic"), ((2, 2), 4, "open")):
        lat = LinkLattice(dims, n, boundary=boundary)
        for op in (build_gauge_hamiltonian(lat, MaxwellPreset(1.3, 0.8)),
                   reference_ks_hamiltonian(lat, 1.3, 0.8)):
            shape = (op.dimension, 6)
            block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for x in (block[:, 0].copy(), block[:, 1], block[:, :1].copy(), block[:, 3:]):
                out = np.zeros(x.shape, dtype=complex)
                op._add_product(x, out)
                assert out.tobytes() == (op.matrix @ x).tobytes()


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_propagate_series_on_kernel_operator(boundary):
    # the free kernel's rows all sum alike, so only a random kernel tests the refinement
    rng = np.random.default_rng(21)
    grid = LatticeGrid((10, 10, 10), 1.0, boundary=boundary)
    op = build_particle_hamiltonian(random_unitary_kernel(
        grid, rng, representatives=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0)]))
    v = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    kept = v.copy()
    series = propagate(op, v, 0.5)
    assert np.array_equal(v, kept)
    assert np.linalg.norm(series - _eigh_propagate(op, v, 0.5)) < 1e-12 * np.linalg.norm(v)
    lo, hi = op.spectral_interval()
    terms = len(linop._bessel_series(op.propagation_interval()[1] * 0.5))
    assert terms < len(linop._bessel_series((hi - lo) / 2.0 * 0.5))


@pytest.fixture(scope="module")
def gauge_n4():
    """The Maxwell Hamiltonian on 2x2 periodic N=4 (dim 65,536), 16 row blocks."""
    return build_gauge_hamiltonian(LinkLattice((2, 2), 4, boundary="periodic"),
                                   MaxwellPreset(1.0, 1.0))


def _particle_32():
    rng = np.random.default_rng(22)
    op = build_particle_hamiltonian(random_unitary_kernel(
        LatticeGrid((32, 32, 32), 1.0), rng,
        representatives=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0)]))
    return op, rng


def _unblocked_term(op, cur, prev, c, r):
    """The term of ``_chebyshev_next`` made over all rows at once."""
    prev = prev.copy()
    prev *= -r / 2.0
    prev -= c * cur
    op._add_product(cur, prev)
    prev *= 2.0 / r
    return prev


@pytest.mark.parametrize("case", ["real 22-column block", "complex vector"])
def test_chebyshev_terms_by_row_block_match_the_unblocked_formula(case, gauge_n4):
    if case == "real 22-column block":
        op, rng, coef = gauge_n4, np.random.default_rng(23), 0.3
        cur, prev, total = rng.standard_normal((3, op.dimension, 22))
    else:
        (op, rng), coef = _particle_32(), 0.3 - 0.7j
        cur, prev, total = (rng.standard_normal((3, op.dimension))
                            + 1j * rng.standard_normal((3, op.dimension)))
    assert len(list(op._row_blocks())) > 1
    lo, hi = op.spectral_interval()
    c, r = (hi + lo) / 2.0, (hi - lo) / 2.0
    tmp = np.empty((op._block_rows(),) + cur.shape[1:], dtype=cur.dtype)
    # each block's rows of the product are the whole product's, bit for bit
    whole = op.matvec(cur)
    for start, ptr in op._row_blocks():
        rows = np.zeros((len(ptr) - 1,) + cur.shape[1:], dtype=cur.dtype)
        op._add_product(cur, rows, ptr)
        assert rows.tobytes() == whole[start:start + len(ptr) - 1].tobytes()
    want = _unblocked_term(op, cur, prev, c, r)
    assert linop._chebyshev_next(op, cur, prev.copy(), c, r, tmp).tobytes() == want.tobytes()
    # with out and coef, the sum gains coef times the term, as it would after it
    want_total = total + np.multiply(want, coef)  # the order of a complex product counts
    got = linop._chebyshev_next(op, cur, prev.copy(), c, r, tmp, total, coef)
    assert got.tobytes() == want.tobytes() and total.tobytes() == want_total.tobytes()
    first = linop._chebyshev_first(op, whole.copy(), cur, c, r, tmp)
    assert first.tobytes() == ((whole - c * cur) * (1.0 / r)).tobytes()


def test_propagate_holds_three_vectors_and_one_row_block():
    op, rng = _particle_32()
    v = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    propagate(op, v, 0.5)  # caches the interval and loads the kernels
    tracemalloc.start()
    try:
        propagate(op, v, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the series' coefficients, a few hundred numbers, take the last 16 KiB
    assert peak <= 16 * (3 * op.dimension + op._block_rows()) + 2 ** 14


def test_propagate_under_a_real_operator_holds_no_complex_copy_of_data():
    # 2x2 periodic N=3, dim 6,561
    op = build_gauge_hamiltonian(LinkLattice((2, 2), 3, boundary="periodic"),
                                 MaxwellPreset(1.0, 1.0))
    assert op.data.dtype == float
    rng = np.random.default_rng(25)
    v = rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    propagate(op, v, 0.5)  # caches the interval and loads the kernels
    tracemalloc.start()
    try:
        propagate(op, v, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a complex copy of data alone would take twice its 0.84 MB
    assert peak <= 16 * (3 * op.dimension + op._block_rows()) + 2 ** 14 < 2 * op.data.nbytes


def test_gauge_eigenpairs_come_from_flat_blocks(gauge_n4):
    gauge_n4.matvec(np.ones(gauge_n4.dimension))  # loads the kernels
    tracemalloc.start()
    try:
        eigs_extremal(gauge_n4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20  # filtered subspace iteration held 26 MiB
    # conjugate pairs of complex blocks (N=3), and complex pairs beside real blocks (N=6)
    for dims, n, boundary, count in (((2, 2), 3, "periodic", 12), ((2, 2), 6, "open", 10)):
        lat = LinkLattice(dims, n, boundary=boundary)
        for op in (build_gauge_hamiltonian(lat, MaxwellPreset(1.3, 0.8)),
                   reference_ks_hamiltonian(lat, 1.3, 0.8)):
            w, v = eigs_extremal(op, count)
            assert np.abs(v.conj().T @ v - np.eye(count)).max() < 1e-10
            # the second copy of a conjugate pair is the first one's conjugate
            assert any(np.array_equal(v[:, j + 1], v[:, j].conj()) for j in range(count - 1))
            assert np.abs(w - eigs_extremal(from_matrix(op.matrix), count)[0]).max() < 1e-10


@pytest.mark.parametrize("case, blocks", [
    ("real gauge", 3.25),
    # a complex block's locked columns are held conjugated as well
    ("complex particle", 3.5),
])
def test_eigensolve_holds_three_blocks(monkeypatch, gauge_n4, case, blocks):
    if case == "real gauge":
        op = from_matrix(gauge_n4.matrix)  # records no lattice: filtered subspace iteration
    else:
        op = build_particle_hamiltonian(random_unitary_kernel(
            LatticeGrid((16, 16, 16), 1.0), np.random.default_rng(24),
            representatives=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0)]))
    widths = _record_block_widths(monkeypatch)
    op.matvec(np.ones(op.dimension))  # loads the kernels
    # the memory check's estimate: three blocks and three times k - 1 columns
    column = op.dimension * np.result_type(op.data, float).itemsize
    budget = (3 * 22 + 3 * 5) * column
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: budget)
    tracemalloc.start()
    try:
        eigs_extremal(op, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(widths) == {22}
    assert peak <= blocks * 22 * column
    assert peak <= budget  # the check bounds the peak of the solve it admits
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: budget - 1)
    with pytest.raises(HilbertDimensionError, match=f"dimension {op.dimension}, 22 "):
        eigs_extremal(op, 6)


def test_oversize_eigensolve_fails_before_allocating(monkeypatch, gauge_n4):
    op = from_matrix(gauge_n4.matrix)  # records no lattice: filtered subspace iteration
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: 2 ** 24)
    tracemalloc.start()
    try:
        with pytest.raises(HilbertDimensionError, match="eigensolve of dimension 65536, 22 "):
            eigs_extremal(op, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_eigensolve_checks_memory_before_widening(monkeypatch):
    # the (10, 52) case below: the block starts 26 columns wide and doubles
    op = _lattice_free_gauge_n2()
    # enough for 26 columns and the 9 locked ones: three blocks and three times k - 1 columns
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: (3 * 26 + 3 * 9) * 256 * 8)
    with pytest.raises(HilbertDimensionError, match="eigensolve of dimension 256, 52 "):
        eigs_extremal(op, 10)
    eigs_extremal(op, 9)  # 25 columns, which never widen


def test_bessel_series_matches_scipy_and_truncates():
    from scipy.special import jv

    for z in (1e-9, 0.3, 1.0, 12.0, 150.0, 700.0):
        j = linop._bessel_series(z)
        k = np.arange(len(j) + 40)
        reference = jv(k, z)
        assert np.abs(j - reference[:len(j)]).max() < 1e-13
        # the dropped tail is below 2^-53, and one order fewer would not be
        assert 2.0 * np.abs(reference[len(j):]).sum() < 2.0 ** -53
        assert 2.0 * np.abs(reference[len(j) - 1:]).sum() >= 2.0 ** -53 or len(j) == 2


def test_propagate_unitary_and_semigroup():
    rng = np.random.default_rng(8)
    op = random_hermitian(40, rng)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    v /= np.linalg.norm(v)
    out = propagate(op, v, 2.3)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10
    two_step = propagate(op, propagate(op, v, 0.7), 1.6)
    assert np.linalg.norm(two_step - out) < 1e-9


def test_propagate_hbar_scaling():
    rng = np.random.default_rng(9)
    op = random_hermitian(16, rng)
    v = rng.standard_normal(16) + 0j
    a = propagate(op, v, 1.0, hbar=2.0)
    b = propagate(op, v, 0.5, hbar=1.0)
    assert np.linalg.norm(a - b) < 1e-12


def test_eigs_circulant_closed_form():
    # ring hopping: eigenvalues -2 cos(2 pi k / n)
    n = 12
    ring = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1]).tolil()
    ring[0, n - 1] = ring[n - 1, 0] = 1.0
    op = from_matrix(-1.0 * ring.tocsr())
    w, _ = eigs_extremal(op, n)
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.abs(np.sort(w) - expected).max() < 1e-12


def test_eigs_full_spectrum_matches_dense():
    rng = np.random.default_rng(10)
    op = random_hermitian(60, rng, density=0.4)
    w, v = eigs_extremal(op, 60)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    assert np.abs(w - dense).max() < 1e-10
    assert np.all(np.diff(w) >= -1e-12)


def test_eigs_sparse_path_matches_dense():
    rng = np.random.default_rng(12)
    op = random_hermitian(300, rng, density=0.05)
    w_sparse, v_sparse = eigs_extremal(op, 5)
    w_dense = np.linalg.eigvalsh(op.matrix.toarray())[:5]
    assert np.abs(w_sparse - w_dense).max() < 1e-9
    resid = np.linalg.norm(op.matrix @ v_sparse - v_sparse * w_sparse, axis=0)
    assert resid.max() < 1e-8


def test_eigs_degenerate_pair_found():
    diag = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    op = from_matrix(sp.diags(diag).tocsr())
    w, v = eigs_extremal(op, 2)
    assert np.abs(w - [0.0, 0.0]).max() < 1e-12
    overlap = v.conj().T @ v
    assert np.abs(overlap - np.eye(2)).max() < 1e-10


@pytest.mark.parametrize("n", [0, 5])
def test_eigs_zero_pairs(n):
    op = from_matrix(sp.identity(n, format="csr"))
    w, v = eigs_extremal(op, 0)
    assert w.shape == (0,) and v.shape == (n, 0)


def _lattice_free_gauge_n2():
    """The Maxwell Hamiltonian on 2x2 periodic N=2 (dim 256) as an operator that
    records no lattice, so that ``eigs_extremal`` takes filtered subspace iteration."""
    return from_matrix(build_gauge_hamiltonian(LinkLattice((2, 2), 2, boundary="periodic"),
                                               MaxwellPreset(1.0, 1.0)).matrix)


def _record_block_widths(monkeypatch):
    """Column counts of every block the subspace iteration orthonormalizes."""
    widths = []
    orthonormalize = linop._orthonormalize

    def recording(y, *rest):
        widths.append(y.shape[1])
        return orthonormalize(y, *rest)

    monkeypatch.setattr(linop, "_orthonormalize", recording)
    return widths


@pytest.mark.parametrize("dtype", [float, complex])
def test_positive_definite_flags_the_one_indefinite_member(dtype):
    # np.linalg.cholesky would raise for the whole stack
    rng = np.random.default_rng(5)
    g = rng.standard_normal((5, 6, 6)).astype(dtype)
    if dtype is complex:
        g += 1j * rng.standard_normal((5, 6, 6))
    stack = g @ np.conj(g.transpose(0, 2, 1)) + 0.1 * np.eye(6)
    values = np.linalg.eigvalsh(stack[2])
    stack[2] -= (values[0] + values[-1]) / 2 * np.eye(6)  # one value of each sign
    assert linop._positive_definite(stack).tolist() == [True, True, False, True, True]
    assert linop._positive_definite(stack[:0]).shape == (0,)


@pytest.mark.parametrize("count, width", [
    (20, 40),  # cuts through the 28-fold level, which ends inside the block
    (9, 25),   # the 28-fold level fills the block past its edge but is not wanted
    (10, 52),  # the wanted 28-fold level reaches the initial block's edge: it doubles
])
def test_eigs_iterative_resolves_degenerate_gauge_levels(monkeypatch, count, width):
    # 2x2 periodic N=2, dim 256: levels -12 + 3j with multiplicity C(8, j)
    op = _lattice_free_gauge_n2()
    widths = _record_block_widths(monkeypatch)
    w, v = eigs_extremal(op, count)
    assert max(widths) == width
    assert np.abs(w - np.linalg.eigvalsh(op.matrix.toarray())[:count]).max() < 1e-10
    levels, copies = np.unique(np.round(w, 8), return_counts=True)
    want = {-12.0: 1, -9.0: 8, -6.0: count - 9}
    assert dict(zip(levels.tolist(), copies.tolist())) == {e: c for e, c in want.items() if c}
    assert np.abs(v.T @ v - np.eye(count)).max() < 1e-10


def test_eigs_iterative_complex_degenerate_operator_matches_dense():
    # Hofstadter torus: 12x12 sites, flux 1/4 per plaquette in the Landau gauge,
    # so every level is at least 4-fold (magnetic translations) and H is complex
    side, alpha = 12, 0.25
    x, y = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    site = (x * side + y).reshape(-1)
    right = (((x + 1) % side) * side + y).reshape(-1)
    up = (x * side + (y + 1) % side).reshape(-1)
    phase = np.exp(2j * np.pi * alpha * y).reshape(-1)
    hop = sp.csr_matrix((np.concatenate([-phase, -np.ones(site.size)]),
                         (np.concatenate([right, up]), np.concatenate([site, site]))),
                        shape=(side ** 2, side ** 2))
    op = from_matrix(hop + hop.conj().T)
    assert np.iscomplexobj(op.matrix.data)
    w, v = eigs_extremal(op, 12)
    assert np.abs(w - np.linalg.eigvalsh(op.matrix.toarray())[:12]).max() < 1e-10
    assert np.unique(np.round(w, 8), return_counts=True)[1].min() >= 4
    assert np.abs(v.conj().T @ v - np.eye(12)).max() < 1e-10


def test_eigs_iterative_level_far_below_the_rest():
    # a ring with one deep site: its bound state lies 1000 below the band, so the
    # filter grows it about 1e70 times more than the band's bottom per pass
    n = 400
    ring = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1]).tolil()
    ring[0, n - 1] = ring[n - 1, 0] = 1.0
    ring[0, 0] = -1000.0
    op = from_matrix(ring.tocsr())
    w, _ = eigs_extremal(op, 4)
    assert np.abs(w - np.linalg.eigvalsh(op.matrix.toarray())[:4]).max() < 1e-10


def test_eigs_pass_cap_raises_with_residuals(monkeypatch):
    op = _lattice_free_gauge_n2()
    monkeypatch.setattr(linop, "EIGS_MAX_PASSES", 1)
    with pytest.raises(EigenConvergenceError, match="after 1 passes") as info:
        eigs_extremal(op, 6)
    residuals = info.value.residuals
    assert residuals.shape == (6,)
    assert np.all(np.isfinite(residuals)) and residuals.max() > linop.RESIDUAL_TOL


def _assembled_and_oracle():
    """(build, the COO oracle it must equal) for particle kernels on periodic and
    open 3-D and 1-D grids and on a 2x2 torus whose offsets coincide, and for
    gauge builds on 2x2 periodic lattices, where raise and lower coincide at N=2."""
    rng = np.random.default_rng(41)
    for dims, reps in (((4, 3, 5), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, -1)]),
                       ((9,), [(1,), (3,)]), ((2, 2), [(1, 1), (1, -1)])):
        for boundary in ("periodic", "open"):
            grid = LatticeGrid(dims, 1.0, boundary=boundary)
            kernel = random_unitary_kernel(grid, rng, representatives=reps)
            yield (lambda kernel=kernel: build_particle_hamiltonian(kernel),
                   coo_hopping(grid.shape, boundary == "periodic", kernel.support,
                               [kernel.field(n) for n in kernel.support], dtype=complex))
    spec, skewed = MaxwellPreset(1.3, 0.8), phase_rule(skew=1e-3)
    for n in (2, 3):
        lat = LinkLattice((2, 2), n, boundary="periodic")
        yield lambda lat=lat: build_gauge_hamiltonian(lat, spec), _spec_oracle(lat, spec)
        yield (lambda lat=lat: reference_ks_hamiltonian(lat, 1.3, 0.8),
               _reference_oracle(lat, 1.3, 0.8))
        yield (lambda lat=lat: _rule_operator(lat, skewed, tol=np.inf),
               _rule_oracle(lat, skewed))


@pytest.mark.parametrize("entries", [1, 30, 200, 2 ** 16])
def test_blocked_assembly_matches_coo_oracle_bit_for_bit(monkeypatch, entries):
    # blocks of one row, chunks of a split last axis, trailing sub-grids, one block
    monkeypatch.setattr(linop, "_BLOCK_ENTRIES", entries)
    for build, want in _assembled_and_oracle():
        op = build()
        got = op.matrix.copy()
        got.sort_indices()  # the assembler keeps each row in move order
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert op.hermiticity_defect == from_matrix(want, tol=np.inf).hermiticity_defect


def test_available_memory_reads_meminfo(tmp_path):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:        8222320 kB\n"
                       "MemFree:         7354000 kB\n"
                       "MemAvailable:    7746248 kB\n")
    assert linop._available_memory_bytes(meminfo) == 7746248 * 1024
    installed = linop._available_memory_bytes(tmp_path / "missing")
    assert installed is None or installed > 0
    meminfo.write_text("MemTotal:        8222320 kB\n")  # kernels before 3.14
    assert linop._available_memory_bytes(meminfo) == installed


def test_import_leaves_sparse_linalg_and_csgraph_unloaded():
    code = ("import sys, hopquant; "
            "print([m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph') if m in sys.modules])")
    assert _python(code) == ["[]"]


# an operator built without scipy, and a block to multiply, in a fresh process
_GAUGE_OPERATOR = """
import sys
import numpy as np
from hopquant import LinkLattice, MaxwellPreset, build_gauge_hamiltonian, linop
op = build_gauge_hamiltonian(LinkLattice((2, 2), 3, boundary="open"), MaxwellPreset(1.0, 1.0))
x = np.random.default_rng(0).standard_normal((op.dimension, 3))
"""


def test_kernels_are_scipys_own_module_once_scipy_sparse_is_loaded():
    code = "import scipy.sparse as sp; from hopquant import linop; print(linop._kernels() is sp._sparsetools)"
    assert _python(code) == ["True"]


def test_scipy_sparse_imports_after_a_solve():
    code = _GAUGE_OPERATOR + """
linop.eigs_extremal(op, 2)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
import scipy.sparse as sp
print(sp._sparsetools is sys.modules["scipy.sparse._sparsetools"],
      (op.matrix @ x).tobytes() == op.matvec(x).tobytes())
"""
    assert _python(code) == ["[]", "True True"]


def test_kernels_fall_back_to_scipy_sparse_without_the_extension_file(tmp_path):
    # scipy's package directory looked up where its sparse/ holds no extension
    (tmp_path / "sparse").mkdir()
    code = _GAUGE_OPERATOR + f"""
import importlib.machinery, importlib.util
find_spec = importlib.util.find_spec

def without_extension(name, package=None):
    spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
    spec.submodule_search_locations = [{str(tmp_path)!r}]
    return spec

importlib.util.find_spec = without_extension
kernels = linop._kernels()
importlib.util.find_spec = find_spec
print(kernels is sys.modules["scipy.sparse._sparsetools"],
      (op.matrix @ x).tobytes() == op.matvec(x).tobytes(),
      np.abs(op.matvec(x) - op.matrix.toarray() @ x).max() < 1e-12)
"""
    assert _python(code) == ["True True True"]


def _built_operators():
    """Particle operators on periodic and open grids, and both gauge builders'."""
    rng = np.random.default_rng(40)
    reps = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0)]
    for boundary in ("periodic", "open"):
        grid = LatticeGrid((6, 5, 4), 1.0, boundary=boundary)
        yield build_particle_hamiltonian(random_unitary_kernel(grid, rng, representatives=reps))
    for dims, n, boundary in (((2, 2), 3, "periodic"), ((2, 2), 2, "open")):
        lat = LinkLattice(dims, n, boundary=boundary)
        yield build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
        yield reference_ks_hamiltonian(lat, 1.3, 0.8)


def _scipy_interval(m):
    """The Gershgorin interval from scipy's diagonal() and one reduceat over all rows."""
    diag = np.real(m.diagonal())
    full = m.indptr[1:] > m.indptr[:-1]
    sums = np.zeros(m.shape[0])
    sums[full] = np.add.reduceat(np.abs(m.data), m.indptr[:-1][full])
    radius = sums - np.abs(diag)
    return float((diag - radius).min()), float((diag + radius).max())


def test_matrix_wraps_the_operators_own_arrays():
    for op in _built_operators():
        m = op.matrix
        assert isinstance(m, sp.csr_matrix) and op.matrix is m
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(m, name), getattr(op, name)), name
        assert m.nnz == op.nnz and m.shape == (op.dimension,) * 2


def test_dense_diagonal_and_interval_match_scipy_bit_for_bit():
    # a generic operator whose rows hold duplicates, repeated diagonal
    # entries and -0.0, in an order that changes their rounded sums
    rng = np.random.default_rng(41)
    n, count = 40, 600
    rows = np.sort(rng.integers(n, size=count))
    cols = rng.integers(n, size=count)
    cols[::7] = rows[::7]
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    vals[::11] = -0.0
    dup = sp.csr_matrix((vals, cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))
    assert not dup.has_canonical_format
    for op in [*_built_operators(), from_matrix(dup, tol=np.inf)]:
        m = op.matrix
        assert op.diagonal().tobytes() == m.diagonal().tobytes()
        assert op.spectral_interval() == _scipy_interval(m)
