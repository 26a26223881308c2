"""scipy-built operators for the tests, certified like the assembler's.

``from_matrix`` measures the hermiticity defect max|(H - H^H)_ij| of any
scipy sparse or dense matrix with scipy and wraps its CSR arrays in the one
constructor of ``SparseHermitianOperator``, so the tests can build operators
that no hopping assembly makes: duplicates, unsorted rows, non-Hermitian
entries (with ``tol=np.inf``).
"""

import numpy as np
import scipy.sparse as sp

from hopquant.linop import HERMITICITY_TOL, SparseHermitianOperator


def from_matrix(matrix, tol=HERMITICITY_TOL):
    """The operator over ``matrix``'s CSR arrays; ``HermiticityError`` above ``tol``."""
    csr = sp.csr_matrix(matrix)
    delta = (csr - csr.conj().T).tocoo()
    defect = float(np.abs(delta.data).max()) if delta.nnz else 0.0
    return SparseHermitianOperator(csr.data, csr.indices, csr.indptr, defect, tol)
