"""Operator substrate: matvec, propagation, extremal eigenpairs."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from hopquant import linop
from hopquant.errors import HermiticityError
from hopquant.linop import SparseHermitianOperator, eigs_extremal, propagate


def random_hermitian(n, rng, density=0.1):
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)),
                  dtype=float)
    a = a + 1j * sp.random(n, n, density=density,
                           random_state=np.random.RandomState(rng.integers(2**31)), dtype=float)
    return SparseHermitianOperator(a + a.conj().T)


def test_identity_matvec():
    op = SparseHermitianOperator(sp.identity(7, format="csr"))
    v = np.arange(7, dtype=complex)
    assert np.array_equal(op.matvec(v), v)


def test_zero_matvec():
    op = SparseHermitianOperator(sp.csr_matrix((5, 5)))
    assert np.all(op.matvec(np.ones(5)) == 0.0)


def test_matvec_against_dense():
    rng = np.random.default_rng(11)
    for n in (8, 33, 120):
        op = random_hermitian(n, rng)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dense = op.to_dense() @ v
        assert np.abs(op.matvec(v) - dense).max() < 1e-13 * max(1.0, np.abs(dense).max())


def test_hermiticity_certificate_rejects():
    bad = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(HermiticityError):
        SparseHermitianOperator(bad)
    op = SparseHermitianOperator(bad, check=False)
    assert op.hermiticity_defect == pytest.approx(1.0)


def test_propagate_t0_is_identity():
    rng = np.random.default_rng(5)
    op = random_hermitian(20, rng)
    v = rng.standard_normal(20) + 0j
    assert np.array_equal(propagate(op, v, 0.0), v)


def test_propagate_eigenvector_phase():
    rng = np.random.default_rng(6)
    op = random_hermitian(24, rng)
    w, q = op.dense_eig()
    v = q[:, 3]
    for dense_cutoff in (op.dimension, 0):
        out = propagate(op, v, 1.7, dense_cutoff=dense_cutoff)
        assert np.abs(out - np.exp(-1j * w[3] * 1.7) * v).max() < 1e-12


def test_propagate_matches_expm():
    rng = np.random.default_rng(7)
    op = random_hermitian(30, rng, density=0.3)
    v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    # a cutoff below the dimension takes the Chebyshev series
    for vec in (v, np.zeros(30)):
        expected = expm(-1j * 0.9 * op.to_dense()) @ vec
        for dense_cutoff in (op.dimension, 0, 10):
            out = propagate(op, vec, 0.9, dense_cutoff=dense_cutoff)
            assert np.linalg.norm(out - expected) < 1e-10


def test_propagate_matches_expm_at_large_argument():
    # z = r*|t| in the hundreds: the series runs to hundreds of terms
    rng = np.random.default_rng(13)
    for complex_data in (True, False):
        a = sp.random(40, 40, density=0.3, random_state=np.random.RandomState(rng.integers(2**31)))
        if complex_data:
            a = a + 1j * sp.random(40, 40, density=0.3,
                                   random_state=np.random.RandomState(rng.integers(2**31)))
        op = SparseHermitianOperator(a + a.conj().T)
        v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        lo, hi = op.spectral_interval()
        t = 400.0 / (hi - lo)
        assert 150.0 < (hi - lo) / 2.0 * t < 250.0
        expected = expm(-1j * t * op.to_dense()) @ v
        out = propagate(op, v, t, dense_cutoff=0)
        assert np.linalg.norm(out - expected) < 1e-10 * np.linalg.norm(v)


def test_propagate_negative_time_undoes_positive():
    rng = np.random.default_rng(14)
    op = random_hermitian(50, rng, density=0.2)
    v = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    forward = propagate(op, v, 3.1, dense_cutoff=0)
    assert np.linalg.norm(forward - v) > 0.1 * np.linalg.norm(v)
    back = propagate(op, forward, -3.1, dense_cutoff=0)
    assert np.linalg.norm(back - v) < 1e-12 * np.linalg.norm(v)


def test_propagate_real_operator_on_strided_vector():
    # scipy casts a real H's data to complex for a complex, strided v
    a = sp.random(30, 30, density=0.3, random_state=np.random.RandomState(18))
    op = SparseHermitianOperator(a + a.T)
    wide = np.random.default_rng(18).standard_normal(60) + 1j
    v = wide[::2]
    expected = expm(-1.3j * op.to_dense()) @ v
    assert np.linalg.norm(propagate(op, v, 1.3, dense_cutoff=0) - expected) < 1e-12


def test_propagate_multiple_of_identity_is_a_phase():
    # the Gershgorin interval of c*I has radius 0, which the series cannot scale by
    op = SparseHermitianOperator(2.5 * sp.identity(9, format="csr"))
    assert op.spectral_interval() == (2.5, 2.5)
    v = np.arange(9) + 1j
    out = propagate(op, v, 0.7, dense_cutoff=0)
    assert np.abs(out - np.exp(-1j * 2.5 * 0.7) * v).max() < 1e-15
    assert np.array_equal(propagate(op, np.zeros(9), 0.7, dense_cutoff=0), np.zeros(9))


def test_gershgorin_interval_contains_spectrum():
    rng = np.random.default_rng(15)
    real = sp.random(50, 50, density=0.2, random_state=np.random.RandomState(3))
    ops = [random_hermitian(50, rng, density=0.2), SparseHermitianOperator(real + real.T)]
    for op in ops:
        lo, hi = op.spectral_interval()
        w = np.linalg.eigvalsh(op.to_dense())
        assert lo <= w[0] and w[-1] <= hi


def test_gershgorin_interval_matches_row_sums_across_blocks():
    # over 2^16 entries, so the interval is read in several blocks of rows,
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
    op = SparseHermitianOperator(h)
    assert op.matrix.nnz > 2 ** 17
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = op.spectral_interval()
    assert lo == pytest.approx((diag - radius).min(), abs=1e-12)
    assert hi == pytest.approx((diag + radius).max(), abs=1e-12)


def test_propagate_reuses_cached_interval():
    rng = np.random.default_rng(17)
    op = random_hermitian(30, rng)
    v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    assert op._interval is None
    first = propagate(op, v, 0.8, dense_cutoff=0)
    interval = op.spectral_interval()

    def recompute():
        raise AssertionError("the Gershgorin interval was computed again")

    op.matrix.diagonal = recompute
    assert op.spectral_interval() is interval
    assert np.array_equal(propagate(op, v, 0.8, dense_cutoff=0), first)


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
    for dense_cutoff in (op.dimension, 0):
        out = propagate(op, v, 2.3, dense_cutoff=dense_cutoff)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10
        two_step = propagate(op, propagate(op, v, 0.7, dense_cutoff=dense_cutoff), 1.6,
                             dense_cutoff=dense_cutoff)
        assert np.linalg.norm(two_step - out) < 1e-9


def test_propagate_hbar_scaling():
    rng = np.random.default_rng(9)
    op = random_hermitian(16, rng)
    v = rng.standard_normal(16) + 0j
    for dense_cutoff in (op.dimension, 0):
        a = propagate(op, v, 1.0, hbar=2.0, dense_cutoff=dense_cutoff)
        b = propagate(op, v, 0.5, hbar=1.0, dense_cutoff=dense_cutoff)
        assert np.linalg.norm(a - b) < 1e-12


def test_eigs_circulant_closed_form():
    # ring hopping: eigenvalues -2 cos(2 pi k / n)
    n = 12
    ring = sp.diags([np.ones(n - 1), np.ones(n - 1)], [1, -1]).tolil()
    ring[0, n - 1] = ring[n - 1, 0] = 1.0
    op = SparseHermitianOperator(-1.0 * ring.tocsr())
    w, _ = eigs_extremal(op, n)
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.abs(np.sort(w) - expected).max() < 1e-12


def test_eigs_full_spectrum_matches_dense():
    rng = np.random.default_rng(10)
    op = random_hermitian(60, rng, density=0.4)
    w, v = eigs_extremal(op, 60)
    dense = np.linalg.eigvalsh(op.to_dense())
    assert np.abs(w - dense).max() < 1e-10
    assert np.all(np.diff(w) >= -1e-12)


def test_eigs_sparse_path_matches_dense():
    rng = np.random.default_rng(12)
    op = random_hermitian(300, rng, density=0.05)
    w_sparse, v_sparse = eigs_extremal(op, 5, dense_cutoff=10)
    w_dense = np.linalg.eigvalsh(op.to_dense())[:5]
    assert np.abs(w_sparse - w_dense).max() < 1e-9
    resid = np.linalg.norm(op.matrix @ v_sparse - v_sparse * w_sparse, axis=0)
    assert resid.max() < 1e-8


def test_eigs_degenerate_pair_found():
    diag = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    op = SparseHermitianOperator(sp.diags(diag).tocsr())
    w, v = eigs_extremal(op, 2)
    assert np.abs(w - [0.0, 0.0]).max() < 1e-12
    overlap = v.conj().T @ v
    assert np.abs(overlap - np.eye(2)).max() < 1e-10

