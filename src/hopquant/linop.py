"""Sparse Hermitian operators: assembly, matvec, propagation, extremal eigenpairs.

Both solvers run the Chebyshev three-term recurrence over the operator's cached
Gershgorin interval. Propagation sums a Chebyshev series (Tal-Ezer & Kosloff,
J. Chem. Phys. 81 (1984) 3967), with truncation error at most 2^-53 * |v|, and
goes through the exact dense eigendecomposition up to a dimension cutoff.
Eigenpairs, at every dimension, come from block Chebyshev-filtered subspace
iteration (Zhou, Saad, Tiago & Chelikowsky, J. Comput. Phys. 219 (2006) 172),
which holds every copy of a degenerate level.
"""

import math
import os

import numpy as np
import scipy.sparse as sp

from .errors import EigenConvergenceError, HermiticityError, HilbertDimensionError

# Propagation up to this dimension diagonalizes once and caches the result.
# One propagate over each converge problem's duration, fresh operator and
# eigh included, best of 3 on a 2-core VM, dense against the Chebyshev
# series: the `harmonic_period` grid (n=641, t=2*pi) 0.054 s against 0.093 s;
# the `free_particle` grids (t=1) 0.0021 against 0.0005 s at n=120, 0.0078
# against 0.0011 s at n=240, 0.040 against 0.0038 s at n=480 and 0.37 against
# 0.018 s at n=960. Dimension alone does not set the crossover: the series
# wins on free grids of every size, dense on the stiff harmonic grid. The value
# stays because a lower one would change bundled report bytes.
DENSE_CUTOFF = 4096
# Default tolerance of every hermiticity and unitarity check, and of a run.
HERMITICITY_TOL = 1e-12
EIGS_SEED = 20240811
RESIDUAL_TOL = 1e-8
# Degree of the Chebyshev filter of each subspace-iteration pass, and the
# passes after which the iteration gives up.
EIGS_FILTER_DEGREE = 20
EIGS_MAX_PASSES = 100
# Peak memory of one hopping assembly beyond its m slots a row, per grid
# point: the caller's amplitude inputs and the assembler's temporaries.
# tracemalloc measured 13-45 bytes for both gauge builders on 2x2 periodic
# N=5 and 3x3 periodic N=2, and 60-68 bytes for particle kernels of 7, 13
# and 125 offsets on periodic and open 64^3 and 32^3 grids.
ASSEMBLY_BYTES_PER_STATE = 68


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
        self._eig = self._interval = None
        if check:
            self.require_hermitian(tol)

    @classmethod
    def _certified(cls, matrix, defect, tol=HERMITICITY_TOL):
        """Wrap a square CSR whose defect max|H - H^H| its builder measured."""
        op = cls.__new__(cls)
        op.matrix, op.hermiticity_defect = matrix, defect
        op._eig = op._interval = None
        op.require_hermitian(tol)
        return op

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def require_hermitian(self, tol=HERMITICITY_TOL):
        if not self.hermiticity_defect <= tol:  # a NaN defect fails too
            raise HermiticityError(
                f"hermiticity defect {self.hermiticity_defect:.3e} exceeds {tol:.1e}",
                defect=self.hermiticity_defect,
            )

    def matvec(self, v):
        return self.matrix @ v

    def to_dense(self):
        return self.matrix.toarray()

    def dense_eig(self):
        """Cached full eigendecomposition (eigenvalues ascending)."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.to_dense())
            self._eig = (w, v)
        return self._eig

    def spectral_interval(self):
        """Cached Gershgorin interval [min(d_i - R_i), max(d_i + R_i)].

        d_i is the real part of H_ii and R_i = sum_j |H_ij| - |d_i| bounds
        row i's off-diagonal absolute sum from above, so the interval holds
        every eigenvalue. It is read from the CSR arrays a block of rows at a
        time, without a copy of H.
        """
        if self._interval is None:
            m, n = self.matrix, self.dimension
            diag = np.real(m.diagonal())
            lo, hi = math.inf, -math.inf
            rows = max(1, 2 ** 16 * n // max(m.nnz, 1))  # about 2^16 entries a block
            for start in range(0, n, rows):
                ptr = m.indptr[start:start + rows + 1]
                full = ptr[1:] > ptr[:-1]  # reduceat needs the empty rows left out
                sums = np.zeros(len(full))
                sums[full] = np.add.reduceat(np.abs(m.data[ptr[0]:ptr[-1]]),
                                             ptr[:-1][full] - ptr[0])
                d = diag[start:start + rows]
                radius = sums - np.abs(d)
                # np.minimum, unlike min(), carries a NaN entry into the interval
                lo = float(np.minimum(lo, (d - radius).min()))
                hi = float(np.maximum(hi, (d + radius).max()))
            self._interval = (lo, hi)
        return self._interval


def _available_memory_bytes(meminfo="/proc/meminfo"):
    """Memory that can be allocated now; None where unknown.

    That is ``MemAvailable`` of ``meminfo`` where the file has it (Linux), and
    the installed memory reported by ``os.sysconf`` otherwise.
    """
    try:
        with open(meminfo) as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # the file counts KiB
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(estimate, what):
    """Raise ``HilbertDimensionError`` when ``estimate`` bytes exceed available memory."""
    memory = _available_memory_bytes()
    if memory is not None and estimate > memory:
        raise HilbertDimensionError(
            f"{what} needs about {estimate / 2 ** 30:.2f} GiB, "
            f"more than the {memory / 2 ** 30:.2f} GiB of available memory")


def _assemble_hopping(shape, periodic, offsets, amplitudes, dtype=float,
                      tol=HERMITICITY_TOL, held_bytes=0):
    """Certified Hamiltonian of hopping on the C-ordered grid ``shape``.

    Move j sets H[x, x + offsets[j]] to ``amplitudes``' j-th item at x (an
    array over the grid, or a scalar), read lazily after the memory check.
    Offsets that coincide on the grid (which wraps when ``periodic``) are
    summed into one entry, the zero offset is the diagonal, and an open grid
    drops entries whose column leaves it. Entries are stored as ``dtype``
    straight into CSR arrays. Row x holds one slot per distinct offset, in the
    order of first appearance, not sorted by column. max|H - H^H| is the largest
    |H[x, x + o] - conj(H[x + o, x])| over stored entries, with the reverse
    offset's entry or zero where no move has it.

    Raises ``HilbertDimensionError``, before allocating anything of the grid
    size, when the estimated peak (the CSR, ``ASSEMBLY_BYTES_PER_STATE`` per
    grid point and the ``held_bytes`` the caller's inputs hold beside them)
    exceeds the available memory, and ``ValueError`` when a real ``dtype``
    meets an amplitude with a nonzero imaginary part.
    """
    dim = math.prod(shape)

    def key(offset):
        return tuple(np.mod(offset, shape) if periodic else offset)

    keys = [key(offset) for offset in offsets]
    column = {k: j for j, k in enumerate(dict.fromkeys(keys))}
    m = len(column)
    index_dtype = np.dtype(np.int32 if dim * max(m, 1) <= np.iinfo(np.int32).max
                           else np.int64)
    _require_memory(dim * m * (index_dtype.itemsize + np.dtype(dtype).itemsize)
                    + (dim + 1) * index_dtype.itemsize + ASSEMBLY_BYTES_PER_STATE * dim
                    + held_bytes, f"assembling dimension {dim}")

    cols = np.empty((dim, m), dtype=index_dtype)
    col_grid = cols.reshape(shape + (m,))
    for k, j in column.items():
        col_grid[..., j] = np.roll(np.arange(dim, dtype=index_dtype).reshape(shape),
                                   [-c for c in k], axis=range(len(shape)))
        # column ``dim`` marks an entry off an open grid, which is dropped
        for ax, c in enumerate(() if periodic else k):
            col_grid[(slice(None),) * ax + (slice(shape[ax] - c, None) if c > 0
                                            else slice(None, -c), Ellipsis, j)] = dim

    data = np.empty((dim, m), dtype=dtype)
    for i, (k, amp) in enumerate(zip(keys, amplitudes, strict=True)):
        amp = np.asarray(amp).reshape(-1)
        if np.iscomplexobj(amp) and not np.iscomplexobj(data):
            if np.any(amp.imag):
                raise ValueError(f"complex amplitude of move {i} in a {data.dtype} assembly")
            amp = amp.real
        j = column[k]
        if keys.index(k) < i:  # offsets that coincide on the grid add up
            data[:, j] += amp
        else:
            data[:, j] = amp

    defect = 0.0
    for k, j in column.items():
        rev = column.get(key([-c for c in k]))
        if rev is not None and rev < j:
            continue  # the pair was measured from its other side
        rows = slice(None) if periodic else cols[:, j] < dim
        # gathering from a contiguous copy of the reverse column is faster
        there = 0.0 if rev is None else np.ascontiguousarray(data[:, rev])[cols[rows, j]]
        # np.maximum, unlike max(), carries a NaN amplitude into the defect
        defect = float(np.maximum(defect, np.abs(data[rows, j] - np.conj(there)).max(initial=0.0)))

    flat_cols, flat_data = cols.reshape(-1), data.reshape(-1)
    indptr = np.arange(dim + 1, dtype=index_dtype)
    indptr *= m  # m slots a row (none: H is empty), scaled in place
    if not periodic:  # drop the entries off the grid in place, a chunk of rows at a time
        chunk, end = max(1, 2 ** 16 // max(m, 1)), 0
        for start in range(0, dim, chunk):
            keep = cols[start:start + chunk] < dim
            indptr[start + 1:start + 1 + len(keep)] = keep.sum(axis=1)
            # compacted rows end at or before this chunk's first entry
            nnz, end = end, end + int(np.count_nonzero(keep))
            flat_cols[nnz:end] = cols[start:start + chunk][keep]
            flat_data[nnz:end] = data[start:start + chunk][keep]
        np.cumsum(indptr, out=indptr)
        flat_cols, flat_data = flat_cols[:end], flat_data[:end]
    mat = sp.csr_matrix((flat_data, flat_cols, indptr), shape=(dim, dim))
    return SparseHermitianOperator._certified(mat, defect, tol)


def propagate(op, v, t, hbar=1.0, dense_cutoff=DENSE_CUTOFF):
    """Unitary propagation exp(-i*H*t/hbar) @ v.

    Up to ``dense_cutoff`` it uses the exact eigendecomposition, cached on
    ``op``; above it the Chebyshev series of Tal-Ezer & Kosloff (J. Chem.
    Phys. 81 (1984) 3967). With tau = t/hbar, the Gershgorin interval
    [c - r, c + r] of ``op`` and Ht = (H - c)/r, whose spectrum lies in
    [-1, 1],

        exp(-i*H*tau) v = exp(-i*c*tau) sum_k (2 - delta_k0) (-i*sgn(tau))^k
                          J_k(r*|tau|) T_k(Ht) v,

    summed by the three-term recurrence T_{k+1} = 2*Ht*T_k - T_{k-1}: one
    matvec per term and five work vectors, nothing the size of H. The series
    stops where the dropped sum of 2|J_k| falls below 2^-53; since
    |T_k(Ht)| <= 1, that bounds the truncation error by 2^-53 * |v|.
    """
    op.require_hermitian()
    v = np.asarray(v, dtype=complex)
    if t == 0.0:
        return v.copy()
    if op.dimension <= dense_cutoff:
        w, q = op.dense_eig()
        return q @ (np.exp(-1j * w * t / hbar) * (q.conj().T @ v))
    tau = t / hbar
    lo, hi = op.spectral_interval()
    c, r = (hi + lo) / 2.0, (hi - lo) / 2.0
    phase = np.exp(-1j * c * tau)
    if r == 0.0:  # H = c*I
        return phase * v
    j = _bessel_series(r * abs(tau))
    powers = np.array([1.0, -1j, -1.0, 1j])  # (-i)^k, conjugated for tau < 0
    coefs = 2.0 * j * (powers if tau > 0 else powers.conj())[np.arange(len(j)) % 4]
    coefs[0] /= 2.0
    h, tmp = op.matrix, np.empty_like(v)
    prev, cur = v, _chebyshev_first(h @ v, v, c, r, tmp)
    out = coefs[0] * v
    out += np.multiply(cur, coefs[1], out=tmp)
    for a in coefs[2:]:
        prev, cur = cur, _chebyshev_next(h, cur, prev, c, r, tmp)
        out += np.multiply(cur, a, out=tmp)
    out *= phase
    return out


def _chebyshev_first(hv, v, c, r, tmp):
    """T_1(Ht) v = (H v - c v) / r, written over ``hv`` = H v; ``tmp`` is a work array."""
    hv -= np.multiply(v, c, out=tmp)
    hv *= 1.0 / r
    return hv


def _chebyshev_next(h, cur, prev, c, r, tmp):
    """T_{k+1}(Ht) v = 2 Ht T_k(Ht) v - T_{k-1}(Ht) v with Ht = (H - c)/r.

    One matvec (of a vector or a block of columns) into a new array, updated
    in place; ``tmp`` is a work array of the shape of ``cur``.
    """
    nxt = h @ cur
    nxt -= np.multiply(cur, c, out=tmp)
    nxt *= 2.0 / r
    nxt -= prev
    return nxt


def _bessel_series(z):
    """J_0(z), ..., J_K(z) for z > 0, K the first order >= 1 with sum_{k>K} 2|J_k| < 2^-53.

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, started
    where J_k(z) is far below double precision and normalised by
    J_0 + 2 sum_k J_2k = 1. Past k = z, J_k(z) decays like
    exp(-(2*sqrt(2)/3) (k - z)^(3/2) / sqrt(k)), so a start 30 z^(1/3) + 40
    orders past z leaves errors far below the truncation threshold. It stands
    in for scipy.special.jv, whose import adds about 30 ms of wall time and
    7 MiB of peak RSS to each particle_cube pass.
    """
    start = int(z + 30.0 * z ** (1.0 / 3.0)) + 40
    j = np.zeros(start + 2)
    j[start] = 1e-300
    for k in range(start, 0, -1):
        j[k - 1] = (2.0 * k / z) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # rescale; orders far above k underflow harmlessly
            j[k - 1:] *= 1e-250
    j /= j[0] + 2.0 * j[2::2].sum()
    tail = 2.0 * np.cumsum(np.abs(j[::-1]))[::-1]  # tail[k] = sum_{i>=k} 2|J_i|
    keep = int(np.argmax(tail[1:] < 2.0 ** -53)) + 1
    return j[:max(keep, 2)]


def eigs_extremal(op, k):
    """Lowest ``k`` eigenpairs, ascending; residuals are checked per pair.

    They come from block Chebyshev-filtered subspace iteration (Zhou, Saad,
    Tiago & Chelikowsky, J. Comput. Phys. 219 (2006) 172). Each pass takes an
    orthonormal n x m block X through a Rayleigh-Ritz step (H X, then eigh of
    X^H H X) and stops once the ``k`` lowest Ritz residuals are below
    ``RESIDUAL_TOL``. Otherwise the degree-``EIGS_FILTER_DEGREE`` Chebyshev
    polynomial that is bounded by 1 on [theta_m, hi] filters the block, which
    is then orthonormalized. theta_m is the largest Ritz value and hi the top
    of the Gershgorin interval that ``propagate`` caches, so every copy of a
    level below theta_m grows against the rest of the spectrum at the same
    rate. Pairs converged from the lowest up are locked: the filter projects
    them out. m starts at min(n, max(2k, k + 16)), so at n <= k + 16 the
    first Rayleigh-Ritz step spans the whole space and is exact, and doubles
    whenever Ritz values k and m coincide, i.e. when the wanted level's
    cluster reaches the edge of the block. The block is seeded from
    ``EIGS_SEED``; after ``EIGS_MAX_PASSES`` passes ``EigenConvergenceError``
    carries the residuals.
    """
    op.require_hermitian()
    n = op.dimension
    if not 0 <= k <= n:
        raise ValueError(f"requested {k} eigenpairs of a dimension-{n} operator")
    if k == 0:
        return np.zeros(0), np.zeros((n, 0))
    values, vectors = _filtered_subspace_iteration(op, k)
    residuals = np.linalg.norm(op.matrix @ vectors - vectors * values, axis=0)
    if residuals.max() > RESIDUAL_TOL:
        raise EigenConvergenceError(
            f"eigenpair residual {residuals.max():.3e} exceeds {RESIDUAL_TOL:.1e}",
            residuals=residuals,
        )
    return values, vectors


def _filtered_subspace_iteration(op, k):
    """The ``k`` lowest Ritz pairs, ascending, of the iteration in ``eigs_extremal``."""
    h, n = op.matrix, op.dimension
    lo, hi = op.spectral_interval()
    rng = np.random.default_rng(EIGS_SEED)
    dtype = np.result_type(h.dtype, float)

    def random_block(columns):
        return rng.standard_normal((n, columns)).astype(dtype, copy=False)

    x = _orthonormalize(random_block(min(n, max(2 * k, k + 16))))
    for passes in range(1, EIGS_MAX_PASSES + 1):
        hx = h @ x
        theta, q = np.linalg.eigh(x.conj().T @ hx)
        x = x @ q
        hx = hx @ q
        tmp = np.empty_like(x)
        residuals = _column_norms(np.subtract(hx, np.multiply(x, theta, out=tmp), out=tmp))
        if residuals[:k].max(initial=0.0) <= RESIDUAL_TOL:
            return theta[:k], x[:, :k]
        if passes == EIGS_MAX_PASSES:
            break
        m = x.shape[1]
        # T_d((H - c)/r) is bounded by 1 on [theta_m, hi]; a floor on the
        # width of that interval keeps T_d finite below it.
        a = min(theta[-1], hi - (hi - lo) * 2.0 ** -20)
        c, r = (hi + a) / 2.0, (hi - a) / 2.0
        # Ritz values k and m coincide when the filter lifts the k-th by less
        # than a factor 2 above [theta_m, hi]: the wanted level's cluster then
        # reaches the block's edge and would converge ever slower. A random
        # block's Ritz values say nothing, so this waits for one filter pass.
        gain = np.cosh(EIGS_FILTER_DEGREE * np.arccosh(max(1.0, (c - theta[k - 1]) / r)))
        # Converged leading pairs are locked: their columns are zeroed for the
        # filter, which projects them out of every term, and come back after
        # it. A level far below the others then cannot swamp the block with
        # its growth, and every block keeps the same width.
        locked = int(np.argmax(residuals[:k] > RESIDUAL_TOL))
        done = x[:, :locked].copy()
        x[:, :locked] = hx[:, :locked] = 0.0
        if passes > 1 and m < n and gain < 2.0:
            extra = random_block(min(m, n - m))
            x, hx = np.hstack([x, extra]), np.hstack([hx, h @ extra])
            tmp = np.empty_like(x)

        def deflate(y):
            if locked:
                y -= np.matmul(done, done.conj().T @ y, out=tmp)
            return y

        prev, cur = x, deflate(_chebyshev_first(hx, x, c, r, tmp))
        del x, hx
        for _ in range(EIGS_FILTER_DEGREE - 1):
            prev, cur = cur, deflate(_chebyshev_next(h, cur, prev, c, r, tmp))
        del prev, tmp
        cur[:, :locked] = done
        x = _orthonormalize(cur)
    raise EigenConvergenceError(
        f"filtered subspace iteration stopped after {EIGS_MAX_PASSES} passes with "
        f"{int(np.sum(residuals[:k] <= RESIDUAL_TOL))}/{k} pairs converged",
        residuals=residuals[:k],
    )


def _orthonormalize(y):
    """An orthonormal basis of the span of the columns of ``y``, which it rescales.

    SVQB (Stathopoulos & Wu, SIAM J. Sci. Comput. 23 (2002) 2165): scale the
    columns to unit norm, diagonalize their Gram matrix G = V S V^H and take
    Y V S^(-1/2). Directions that rounding has lost (S below 2^-52 of its
    largest value) come out as rounding noise, which the next sweep or the
    next filter pass treats like any other vector. A sweep that starts from
    a Gram matrix with eigenvalues above 1/2 leaves columns orthonormal to
    rounding, so the sweeps stop there, or after four. Unlike numpy's Householder QR, which
    holds four copies of the block, it holds two, and its work is three
    matrix products.
    """
    for _ in range(4):
        y /= _column_norms(y)
        s, v = np.linalg.eigh(y.conj().T @ y)
        y = y @ (v / np.sqrt(np.maximum(s, s[-1] * 2.0 ** -52)))
        if s[0] > 0.5:
            break
    return y


def _column_norms(a):
    """Euclidean norm of each column of ``a``, with no temporary of its size."""
    pairs = a.view(float) if np.iscomplexobj(a) else a  # complex as (re, im) pairs
    squares = np.einsum("ij,ij->j", pairs, pairs)
    return np.sqrt(squares.reshape(a.shape[1], -1).sum(axis=1))

