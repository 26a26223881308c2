"""Sparse Hermitian operators: matvec, unitary propagation, extremal eigenpairs.

Small dimensions go through exact dense eigendecompositions; everything above
the cutoff uses scipy's ``expm_multiply`` (propagation) or ARPACK (eigenpairs).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenConvergenceError, HermiticityError

DENSE_CUTOFF = 4096
HERMITICITY_TOL = 1e-12
EIGS_SEED = 20240811


class SparseHermitianOperator:
    """A Hamiltonian stored as a row-grouped (CSR) sparse matrix.

    The hermiticity defect max|H_ij - conj(H_ji)| is computed at construction
    and must stay below tolerance before any spectral use.
    """

    def __init__(self, matrix, check=True, tol=HERMITICITY_TOL):
        self.matrix = sp.csr_matrix(matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("operator must be square")
        delta = (self.matrix - self.matrix.conj().T).tocoo()
        self.hermiticity_defect = float(np.abs(delta.data).max()) if delta.nnz else 0.0
        self._eig = None
        if check:
            self.require_hermitian(tol)

    @classmethod
    def _certified(cls, matrix, defect, tol=HERMITICITY_TOL):
        """Wrap a square CSR whose defect max|H - H^H| its builder measured."""
        op = cls.__new__(cls)
        op.matrix, op.hermiticity_defect, op._eig = matrix, defect, None
        op.require_hermitian(tol)
        return op

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def require_hermitian(self, tol=HERMITICITY_TOL):
        if self.hermiticity_defect > tol:
            raise HermiticityError(
                f"hermiticity defect {self.hermiticity_defect:.3e} exceeds {tol:.1e}",
                defect=self.hermiticity_defect,
            )

    def matvec(self, v):
        return self.matrix @ v

    def __matmul__(self, v):
        return self.matrix @ v

    def to_dense(self):
        return self.matrix.toarray()

    def dense_eig(self):
        """Cached full eigendecomposition (eigenvalues ascending)."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.to_dense())
            self._eig = (w, v)
        return self._eig


def propagate(op, v, t, hbar=1.0, method="auto", dense_cutoff=DENSE_CUTOFF):
    """Unitary propagation exp(-i*H*t/hbar) @ v.

    ``method`` is "dense" (exact eigendecomposition, cached on ``op``),
    "krylov" (scipy's ``expm_multiply``, a truncated Taylor polynomial in H
    applied to ``v``; Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488),
    or "auto" (dense up to ``dense_cutoff``, otherwise "krylov").
    """
    op.require_hermitian()
    v = np.asarray(v, dtype=complex)
    if method == "auto":
        method = "dense" if op.dimension <= dense_cutoff else "krylov"
    if method not in ("dense", "krylov"):
        raise ValueError(f"unknown propagation method {method!r}")
    if t == 0.0:
        return v.copy()
    if method == "dense":
        w, q = op.dense_eig()
        return q @ (np.exp(-1j * w * t / hbar) * (q.conj().T @ v))
    return spla.expm_multiply((-1j * t / hbar) * op.matrix, v)


def eigs_extremal(op, k, dense_cutoff=DENSE_CUTOFF, residual_tol=1e-8,
                  seed=EIGS_SEED, maxiter=None, ncv=None):
    """Lowest ``k`` eigenpairs, ascending; residuals are checked per pair."""
    op.require_hermitian()
    n = op.dimension
    if k > n:
        raise ValueError(f"requested {k} eigenpairs of a dimension-{n} operator")
    if n <= dense_cutoff or k > n - 2:
        w, q = op.dense_eig()
        values, vectors = w[:k].copy(), q[:, :k].copy()
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        try:
            values, vectors = spla.eigsh(op.matrix, k=k, which="SA", v0=v0,
                                         maxiter=maxiter, ncv=ncv)
        except spla.ArpackNoConvergence as exc:
            residuals = _residuals(op, exc.eigenvalues, exc.eigenvectors)
            raise EigenConvergenceError(
                f"eigensolver stopped with {len(exc.eigenvalues)}/{k} pairs converged",
                residuals=residuals,
            ) from exc
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]
    residuals = _residuals(op, values, vectors)
    if residuals.size and residuals.max() > residual_tol:
        raise EigenConvergenceError(
            f"eigenpair residual {residuals.max():.3e} exceeds {residual_tol:.1e}",
            residuals=residuals,
        )
    return values, vectors


def _residuals(op, values, vectors):
    if vectors is None or vectors.size == 0:
        return np.array([])
    r = op.matrix @ vectors - vectors * values[np.newaxis, :]
    return np.linalg.norm(r, axis=0)
