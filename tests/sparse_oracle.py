"""scipy-built operators for the tests, certified like the assembler's.

``from_matrix`` measures the hermiticity defect max|(H - H^H)_ij| of any
scipy sparse or dense matrix with scipy and wraps its CSR arrays in the one
constructor of ``SparseHermitianOperator``, so the tests can build operators
that no hopping assembly makes: duplicates, unsorted rows, non-Hermitian
entries (with ``tol=np.inf``). ``coo_hopping`` builds the matrix of any
hopping from COO triplets, independently of the assembler, and
``commutator_max`` measures a permutation's commutator independently of the
symmetry certifier.
"""

import math

import numpy as np
import scipy.sparse as sp

from hopquant.linop import HERMITICITY_TOL, SparseHermitianOperator


def from_matrix(matrix, tol=HERMITICITY_TOL):
    """The operator over ``matrix``'s CSR arrays; ``HermiticityError`` above ``tol``."""
    csr = sp.csr_matrix(matrix)
    delta = (csr - csr.conj().T).tocoo()
    defect = float(np.abs(delta.data).max()) if delta.nnz else 0.0
    return SparseHermitianOperator(csr.data, csr.indices, csr.indptr, defect, tol)


def coo_hopping(shape, periodic, offsets, amplitudes, dtype=float):
    """H[x, x + o] = the amplitude of offset o at x, on the C-ordered grid
    ``shape``, as a ``dtype`` CSR matrix with sorted rows.

    ``amplitudes`` holds one array over the grid, or a scalar, per offset; an
    array may also be flat, in the grid's C order.
    The grid wraps when ``periodic``; an open grid drops the entries whose
    column leaves it. Entries that land on one (row, column) are summed in
    offset order, the first plus the next and so on, as the assembler sums
    offsets that coincide on the grid; scipy would sum them in no fixed order.
    """
    dim = math.prod(shape)
    index = np.arange(dim).reshape(shape)
    rows, cols, data = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], []
    for offset, amp in zip(offsets, amplitudes, strict=True):
        amp = np.asarray(amp)
        amp = np.broadcast_to(amp, shape) if amp.ndim == 0 else amp.reshape(shape)
        if periodic:
            src = (slice(None),) * len(shape)
            dst = np.roll(index, [-c for c in offset], axis=range(len(shape)))
        else:
            src = tuple(slice(max(0, -c), length - max(0, c)) for c, length in zip(offset, shape))
            dst = index[tuple(slice(s.start + c, s.stop + c) for s, c in zip(src, offset))]
        rows.append(index[src].ravel())
        cols.append(dst.ravel())
        data.append(amp[src].ravel().astype(dtype))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    data = np.concatenate(data) if data else np.zeros(0, dtype=dtype)
    entry, first, inverse = np.unique(rows * dim + cols, return_index=True, return_inverse=True)
    summed = data[first]
    later = np.setdiff1d(np.arange(len(data)), first)  # in offset order
    np.add.at(summed, inverse[later], data[later])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(entry // dim, minlength=dim))])
    return sp.csr_matrix((summed, entry % dim, indptr), shape=(dim, dim))


def commutator_max(h, sigma):
    """max|P H P^T - H| of the scipy matrix ``h``, with P e_j = e_sigma(j), by
    scipy's indexing and subtraction: (P H P^T)[r, c] = H[inv r, inv c]."""
    inv = np.argsort(sigma)
    delta = (h[inv][:, inv] - h).tocoo()
    return float(np.abs(delta.data).max()) if delta.nnz else 0.0
