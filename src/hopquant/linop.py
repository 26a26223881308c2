"""Sparse Hermitian operators: assembly, matvec, propagation, extremal eigenpairs.

Both solvers run one Chebyshev three-term recurrence, which writes each term
over the one before last and adds H times the last into it in place, one
block of rows at a time that stays in cache through the term's steps, so no
term allocates. Propagation holds three vectors and one row block of
scratch, the eigensolver a fixed workspace of three blocks of columns.
Propagation sums a Chebyshev series (Tal-Ezer & Kosloff,
J. Chem. Phys. 81 (1984) 3967), with truncation error at most 2^-53 * |v|, over
a proven interval: the Collatz-Wielandt bound max_i (|H - cI| w)_i / w_i on
|lambda - c|, for the Gershgorin centre c and a positive w from three power
steps, never wider than Gershgorin's. Up to a dimension cutoff it goes through
the exact dense eigendecomposition instead. Eigenpairs, at every dimension,
come from block Chebyshev-filtered subspace iteration (Zhou, Saad, Tiago &
Chelikowsky, J. Comput. Phys. 219 (2006) 172) over the Gershgorin interval,
which holds every copy of a degenerate level.

Every sparse product goes through ``SparseHermitianOperator._add_product``,
which calls scipy's compiled CSR kernels (``csr_matvec`` and ``csr_matvecs``
of the extension module ``scipy.sparse._sparsetools``). ``_kernels`` loads
that module from its file without importing the ``scipy.sparse`` package, so
no solver imports a scipy module. ``matrix`` is the package's one import of
``scipy.sparse``, the fallback of ``_kernels`` aside.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

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
_KERNELS = "scipy.sparse._sparsetools"


@functools.cache
def _kernels():
    """scipy's compiled CSR product module, loaded once and without ``scipy.sparse``.

    Importing the ``scipy.sparse`` package costs a fresh process 0.2-0.35 s
    and 15 MiB on a 2-core VM (Python 3.11, scipy 1.17) and pulls in some 75
    scipy modules; the extension module alone loads in under a millisecond
    and imports nothing. So where scipy has not loaded it already, it is
    loaded from its file beside scipy's sources, found without importing
    scipy. Loading it registers it in ``sys.modules``; the entry is dropped
    again, so that a later ``import scipy.sparse`` makes its own module and
    sets it as the package's attribute. An install without that file (zipped
    or frozen) imports it through ``scipy.sparse``.
    """
    if _KERNELS in sys.modules:
        return sys.modules[_KERNELS]
    scipy = importlib.util.find_spec("scipy")
    for folder in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_KERNELS, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(_KERNELS, loader))
                loader.exec_module(module)
                if sys.modules.get(_KERNELS) is module:
                    del sys.modules[_KERNELS]
                return module
    from scipy.sparse import _sparsetools
    return _sparsetools


class SparseHermitianOperator:
    """A certified Hamiltonian stored as a row-grouped (CSR) sparse matrix.

    The operator owns its CSR arrays ``data``, ``indices`` and ``indptr`` as
    plain numpy arrays: row i holds the entries ``data[indptr[i]:indptr[i+1]]``
    in the columns ``indices[indptr[i]:indptr[i+1]]``, in any order, with
    duplicates summed. Everything reads them directly, sparse products through
    ``_add_product``; ``matrix`` wraps them for scipy, which is imported there
    on first use.

    ``defect`` is the hermiticity defect max|H_ij - conj(H_ji)| that the
    builder of the arrays measured. Construction raises ``HermiticityError``
    when it exceeds ``tol`` or is NaN, so every operator that exists is
    Hermitian within the tolerance it was built with, and no solver checks
    it again.
    """

    def __init__(self, data, indices, indptr, defect, tol=HERMITICITY_TOL):
        if not defect <= tol:  # a NaN defect fails too
            raise HermiticityError(f"hermiticity defect {defect:.3e} exceeds {tol:.1e}",
                                   defect=defect)
        self.data, self.indices, self.indptr = data, indices, indptr
        self.hermiticity_defect = defect
        self._eig = self._interval = self._propagation_interval = None

    @property
    def dimension(self):
        return len(self.indptr) - 1

    @property
    def nnz(self):
        """Stored entries, duplicates and explicit zeros included."""
        return int(self.indptr[-1])

    @functools.cached_property
    def matrix(self):
        """The operator as a ``scipy.sparse.csr_matrix`` over its own arrays, uncopied.

        This is the one place a built operator imports ``scipy.sparse``; no
        solver reads it, so matvec, Chebyshev propagation and eigenpairs never
        load the package. The wrapper is made once and shares memory with
        ``data``, ``indices`` and ``indptr``; rows keep their storage order.
        """
        import scipy.sparse as sp

        n = self.dimension
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(n, n))

    def matvec(self, v):
        """H @ v for a vector or an (n, m) block ``v``, equal bit for bit to ``matrix @ v``.

        The product is added into zeros of dtype ``np.result_type(data, v)``
        by ``_add_product``, so it loads no ``scipy.sparse``. A ``v`` whose
        first axis is not n long, or that is neither a vector nor a block,
        raises ``ValueError``.
        """
        v = np.asarray(v)
        out = np.zeros(v.shape, dtype=np.result_type(self.data, v))
        self._add_product(v, out)
        return out

    def _add_product(self, x, out, ptr=None):
        """``out += H @ x`` in place, for a vector or an (n, m) block ``x``.

        scipy's product has no ``out=``, so this calls the kernels behind it,
        ``csr_matvec`` and ``csr_matvecs`` of ``_kernels()``, as scipy does:
        the first for a vector or an (n, 1) block, the second for wider
        blocks. Both add each row's entries in storage order to ``out``'s
        entry, so into zeros it equals ``matrix @ x`` bit for bit. ``out``
        must be C-contiguous, writeable and of the product's dtype, else
        ``ValueError``; scipy would take the sum into a silent copy.

        ``ptr``, an ``indptr`` slice as ``_row_blocks`` yields it, limits the
        product to those rows, and ``out`` then holds only them. The kernels
        read its offsets as positions in ``indices`` and ``data``, so nothing
        is copied; an ``x`` that is not C-contiguous is, at every call.
        """
        n = self.dimension
        ptr = self.indptr if ptr is None else ptr
        rows = len(ptr) - 1
        dtype = np.result_type(self.data.dtype, x.dtype)
        if (x.ndim not in (1, 2) or x.shape[0] != n or out.dtype != dtype
                or out.shape != (rows,) + x.shape[1:]
                or not (out.flags.c_contiguous and out.flags.writeable)):
            raise ValueError(f"H @ x of shape {x.shape} and dtype {dtype} cannot be added "
                             f"into a {out.dtype} array of shape {out.shape} in place")
        kernels = _kernels()
        if x.ndim == 1 or x.shape[1] == 1:
            kernels.csr_matvec(rows, n, ptr, self.indices, self.data, x.reshape(-1),
                               out.reshape(-1))
        else:  # like scipy, a block that is not C-contiguous is copied
            kernels.csr_matvecs(rows, n, x.shape[1], ptr, self.indices, self.data,
                                x.ravel(), out.reshape(-1))

    def _rows(self, start, ptr):
        """The row of each entry ``ptr[0]:ptr[-1]`` of the rows from ``start`` on."""
        return np.repeat(np.arange(start, start + len(ptr) - 1, dtype=self.indices.dtype),
                         np.diff(ptr))

    def _block_rows(self):
        """Rows in each block of ``_row_blocks`` but the last: about 2^16 entries."""
        n = self.dimension
        return max(1, min(n, 2 ** 16 * n // max(self.nnz, 1)))

    def _row_blocks(self):
        """(first row, indptr slice) of consecutive blocks of about 2^16 entries."""
        rows = self._block_rows()
        for start in range(0, self.dimension, rows):
            yield start, self.indptr[start:start + rows + 1]

    def to_dense(self):
        """The dense matrix, equal bit for bit to scipy's ``toarray()``.

        Like scipy, it adds each row's entries into a zero array in storage
        order, so duplicates are summed in that order and a -0.0 reads 0.0.
        """
        n, nnz = self.dimension, self.nnz
        out = np.zeros((n, n), dtype=self.data.dtype)
        flat = self._rows(0, self.indptr).astype(np.intp) * n + self.indices[:nnz]
        np.add.at(out.reshape(-1), flat, self.data[:nnz])
        return out

    def _diagonal_entries(self):
        """(first row, positions of the entries in column = row) of each block of rows."""
        for start, ptr in self._row_blocks():
            yield start, ptr[0] + np.flatnonzero(self.indices[ptr[0]:ptr[-1]]
                                                 == self._rows(start, ptr))

    def diagonal(self):
        """H_ii for every i, equal bit for bit to scipy's ``diagonal()``.

        Each is the sum, from zero and in storage order, of row i's entries
        in column i (``indices == row``), read a block of rows at a time.
        """
        diag = np.zeros(self.dimension, dtype=self.data.dtype)
        for _, hit in self._diagonal_entries():
            np.add.at(diag, self.indices[hit], self.data[hit])
        return diag

    def dense_eig(self):
        """Cached full eigendecomposition (eigenvalues ascending)."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.to_dense())
            self._eig = (w, v)
        return self._eig

    def _row_sums(self, entry_values):
        """Per-row sums of ``entry_values(start, ptr)``, the values of the entries of
        each block of rows (see ``_row_blocks``); an empty row sums to 0."""
        sums = np.zeros(self.dimension)
        for start, ptr in self._row_blocks():
            full = ptr[1:] > ptr[:-1]  # reduceat needs the empty rows left out
            block = sums[start:start + len(full)]
            block[full] = np.add.reduceat(entry_values(start, ptr), ptr[:-1][full] - ptr[0])
        return sums

    def spectral_interval(self):
        """Cached Gershgorin interval [min(d_i - R_i), max(d_i + R_i)].

        d_i is the real part of H_ii and R_i = sum_j |H_ij| - |d_i| bounds
        row i's off-diagonal absolute sum from above, so the interval holds
        every eigenvalue. It is read from the CSR arrays a block of rows at a
        time, without a copy of H.
        """
        if self._interval is None:
            diag = np.real(self.diagonal())
            radius = self._row_sums(lambda start, ptr: np.abs(self.data[ptr[0]:ptr[-1]]))
            radius -= np.abs(diag)
            # min() and max() of an array, unlike the builtins, carry a NaN entry
            self._interval = (float((diag - radius).min(initial=math.inf)),
                              float((diag + radius).max(initial=-math.inf)))
        return self._interval

    def propagation_interval(self):
        """Cached centre c and radius rho with |lambda - c| <= rho for every eigenvalue.

        c is the centre of ``spectral_interval()``. For any vector w > 0 the
        Collatz-Wielandt bound (Horn & Johnson, Matrix Analysis, Thms 8.1.18
        and 8.1.26) gives, with |.| taken entry by entry,

            |lambda - c| <= rho(H - cI) <= rho(|H - cI|) <= max_i (|H - cI| w)_i / w_i.

        w = 1 gives the Gershgorin radius; three power steps follow, each
        w <- |H - cI| w normalised by its maximum and floored at 2^-40 so that
        w stays positive. rho is the least of the four bounds times 1 + 2^-40,
        which covers the rounding of rows of fewer than 2^12 entries, and at
        most the Gershgorin radius. Off the diagonal each stored entry counts
        with its absolute value, which bounds the summed duplicates' from
        above; the diagonal counts as |d_i - c|, d_i as in ``spectral_interval``.
        |H - cI| w is read from the CSR arrays a block of rows at a time,
        without a copy of H. Returning c and rho, not c - rho and c + rho,
        lets ``propagate`` scale H by the very numbers the bound was proven for.
        """
        if self._propagation_interval is None:
            lo, hi = self.spectral_interval()
            c, radius = (hi + lo) / 2.0, (hi - lo) / 2.0
            if radius > 0.0:
                shift = np.abs(np.real(self.diagonal()) - c)
                hits = dict(self._diagonal_entries())
                w, bounds = np.ones(self.dimension), []

                def off_diagonal(start, ptr):
                    terms = np.abs(self.data[ptr[0]:ptr[-1]])
                    terms *= w[self.indices[ptr[0]:ptr[-1]]]
                    terms[hits[start] - ptr[0]] = 0.0
                    return terms

                for _ in range(4):
                    y = self._row_sums(off_diagonal)
                    y += shift * w
                    bounds.append((y / w).max())
                    top = y.max()
                    if not top > 0.0:  # |H - cI| = 0
                        break
                    w = np.maximum(y / top, 2.0 ** -40)
                # np.minimum and np.min, unlike the builtins, carry a NaN
                radius = float(np.minimum(radius, (1.0 + 2.0 ** -40) * np.min(bounds)))
            self._propagation_interval = (c, radius)
        return self._propagation_interval


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

    indptr = np.arange(dim + 1, dtype=index_dtype)
    indptr *= m  # m slots a row (none: H is empty), scaled in place
    end = dim * m
    if not periodic:  # drop the entries off the grid in place, a chunk of rows at a time
        flat_cols, flat_data = cols.reshape(-1), data.reshape(-1)
        chunk, end = max(1, 2 ** 16 // max(m, 1)), 0
        for start in range(0, dim, chunk):
            keep = cols[start:start + chunk] < dim
            indptr[start + 1:start + 1 + len(keep)] = keep.sum(axis=1)
            # compacted rows end at or before this chunk's first entry
            nnz, end = end, end + int(np.count_nonzero(keep))
            flat_cols[nnz:end] = cols[start:start + chunk][keep]
            flat_data[nnz:end] = data[start:start + chunk][keep]
        np.cumsum(indptr, out=indptr)
        del flat_cols, flat_data
    # Flatten both buffers and shrink them to their nnz entries in place: a
    # realloc, which frees an open grid's dead tail without a copy. No view of
    # them may outlive this, so none is checked for.
    del col_grid
    cols.resize(end, refcheck=False)
    data.resize(end, refcheck=False)
    return SparseHermitianOperator(data, cols, indptr, defect, tol)


def propagate(op, v, t, hbar=1.0):
    """Unitary propagation exp(-i*H*t/hbar) @ v; ``v`` itself is never written.

    ``t`` must be finite and ``hbar`` finite and nonzero, else ``ValueError``.
    Up to ``DENSE_CUTOFF``, read at each call, it uses the exact
    eigendecomposition, cached on ``op``; above it the Chebyshev series of
    Tal-Ezer & Kosloff (J. Chem. Phys. 81 (1984) 3967). With tau = t/hbar,
    the centre c and radius r of ``op.propagation_interval()``, a
    Collatz-Wielandt bound no wider than the Gershgorin interval, and
    Ht = (H - c)/r, whose spectrum that bound proves to lie in [-1, 1],

        exp(-i*H*tau) v = exp(-i*c*tau) sum_k (2 - delta_k0) (-i*sgn(tau))^k
                          J_k(r*|tau|) T_k(Ht) v,

    summed by the three-term recurrence T_{k+1} = 2*Ht*T_k - T_{k-1}, with
    T_{k+1} written over T_{k-1}: one matvec per term, added in place a row
    block at a time, with the block's share of the sum added while it is in
    cache. Three work vectors (the sum, T_k and T_{k-1}) and one row block of
    scratch are allocated once per call, nothing the size of H. The series
    stops where the dropped sum of 2|J_k| falls below 2^-53; since
    |T_k(Ht)| <= 1, that bounds the truncation error by 2^-53 * |v|.

    The two paths agree only on a Hermitian H. An operator certified above
    the default 1e-12 tolerance may not be one: the dense path then evolves
    the Hermitian matrix that ``eigh`` reads from H's lower triangle, unitarily,
    while the series applies H itself, and the norm drifts.
    """
    if not (math.isfinite(t) and math.isfinite(hbar) and hbar != 0.0):
        raise ValueError(f"propagation needs a finite t and a finite, nonzero hbar, "
                         f"not t={t!r}, hbar={hbar!r}")
    v = np.asarray(v, dtype=complex)
    if t == 0.0:
        return v.copy()
    if op.dimension <= DENSE_CUTOFF:
        w, q = op.dense_eig()
        return q @ (np.exp(-1j * w * t / hbar) * (q.conj().T @ v))
    tau = t / hbar
    c, r = op.propagation_interval()
    phase = np.exp(-1j * c * tau)
    if r == 0.0:  # H = c*I
        return phase * v
    j = _bessel_series(r * abs(tau))
    powers = np.array([1.0, -1j, -1.0, 1j])  # (-i)^k, conjugated for tau < 0
    coefs = 2.0 * j * (powers if tau > 0 else powers.conj())[np.arange(len(j)) % 4]
    coefs[0] /= 2.0
    tmp = np.empty((op._block_rows(),) + v.shape[1:], dtype=complex)
    cur = np.zeros(v.shape, dtype=complex)
    op._add_product(v, cur)
    out = coefs[0] * v
    prev, cur = v.copy(), _chebyshev_first(op, cur, v, c, r, tmp, out, coefs[1])
    for a in coefs[2:]:
        prev, cur = cur, _chebyshev_next(op, cur, prev, c, r, tmp, out, a)
    out *= phase
    return out


def _chebyshev_first(op, hv, v, c, r, tmp, out=None, coef=None):
    """T_1(Ht) v = (H v - c v) / r, written over ``hv`` = H v a row block at a time.

    ``tmp`` and ``out`` are as in ``_chebyshev_next``.
    """
    for start, ptr in op._row_blocks():
        rows = slice(start, start + len(ptr) - 1)
        block, scratch = hv[rows], tmp[:len(ptr) - 1]
        block -= np.multiply(v[rows], c, out=scratch)
        block *= 1.0 / r
        if out is not None:
            out[rows] += np.multiply(block, coef, out=scratch)
    return hv


def _chebyshev_next(op, cur, prev, c, r, tmp, out=None, coef=None):
    """T_{k+1}(Ht) v = 2 Ht T_k(Ht) v - T_{k-1}(Ht) v with Ht = (H - c)/r, over ``prev``.

    ``cur`` and ``prev`` hold T_k and T_{k-1} (C-contiguous vectors or blocks
    of columns, ``prev`` of the product's dtype). The term is made one block
    of ``op._row_blocks()`` at a time, which stays in cache through its four
    steps: its rows of ``prev`` are scaled by -r/2, lose c T_k, gain H T_k in
    place and are scaled by 2/r, so no term allocates, and with ``out``
    ``coef`` times them is added into ``out``'s. Each step acts on every
    entry alone, so the result equals the unblocked formula bit for bit.
    ``tmp`` is a work array whose leading rows hold one block of ``cur``.
    """
    for start, ptr in op._row_blocks():
        rows = slice(start, start + len(ptr) - 1)
        block, scratch = prev[rows], tmp[:len(ptr) - 1]
        block *= -r / 2.0
        block -= np.multiply(cur[rows], c, out=scratch)
        op._add_product(cur, block, ptr)
        block *= 2.0 / r
        if out is not None:
            out[rows] += np.multiply(block, coef, out=scratch)
    return prev


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
    of the operator's cached Gershgorin interval, so every copy of a
    level below theta_m grows against the rest of the spectrum at the same
    rate. Pairs converged from the lowest up are locked: the filter projects
    them out. m starts at min(n, max(2k, k + 16)), so at n <= k + 16 the
    first Rayleigh-Ritz step spans the whole space and is exact, and doubles
    whenever Ritz values k and m coincide, i.e. when the wanted level's
    cluster reaches the edge of the block. The block is seeded from
    ``EIGS_SEED``; after ``EIGS_MAX_PASSES`` passes ``EigenConvergenceError``
    carries the residuals.

    A solve holds a workspace of three n x m blocks, allocated once and again
    only when the block widens: X, H X and a third that takes each rotation
    X Q and H X Q, the conjugate of X for X^H H X, the residuals, the
    deflation's product and the filter terms' row-block scratch. Each filter
    term is made a row block at a time (see ``_chebyshev_next``).
    ``HilbertDimensionError`` is raised, before
    anything of size n is allocated, when the three blocks would not fit in
    the available memory, and again before widening. The vectors returned
    are a copy of the k wanted columns.
    """
    n = op.dimension
    if not 0 <= k <= n:
        raise ValueError(f"requested {k} eigenpairs of a dimension-{n} operator")
    if k == 0:
        return np.zeros(0), np.zeros((n, 0))
    values, vectors = _filtered_subspace_iteration(op, k)
    # a copy, so that the vectors a caller keeps do not hold the solver's block
    vectors = vectors.copy()
    residuals = np.linalg.norm(op.matvec(vectors) - vectors * values, axis=0)
    if residuals.max() > RESIDUAL_TOL:
        raise EigenConvergenceError(
            f"eigenpair residual {residuals.max():.3e} exceeds {RESIDUAL_TOL:.1e}",
            residuals=residuals,
        )
    return values, vectors


def _filtered_subspace_iteration(op, k):
    """The ``k`` lowest Ritz pairs, ascending, of the iteration in ``eigs_extremal``;
    the vectors are a view of the workspace's block."""
    n = op.dimension
    m = min(n, max(2 * k, k + 16))
    dtype = np.result_type(op.data.dtype, float)
    _require_memory(3 * n * m * dtype.itemsize, f"eigensolve of dimension {n}, {m} columns")
    lo, hi = op.spectral_interval()
    rng = np.random.default_rng(EIGS_SEED)

    def random_block(columns):
        return rng.standard_normal((n, columns)).astype(dtype, copy=False)

    # The workspace: x holds the block, hx H times it and w the rest; each
    # product is written into a spare block and the names swapped.
    x = random_block(m)
    x, w = _orthonormalize(x, np.empty_like(x))
    hx = np.zeros_like(x)
    for passes in range(1, EIGS_MAX_PASSES + 1):
        op._add_product(x, hx)
        theta, q = np.linalg.eigh(_conjugate(x, w).T @ hx)
        x, w = np.matmul(x, q, out=w), x
        hx, w = np.matmul(hx, q, out=w), hx
        residuals = _column_norms(np.subtract(hx, np.multiply(x, theta, out=w), out=w))
        if residuals[:k].max(initial=0.0) <= RESIDUAL_TOL:
            return theta[:k], x[:, :k]
        if passes == EIGS_MAX_PASSES:
            break
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
            wider = m + min(m, n - m)
            _require_memory(3 * n * wider * dtype.itemsize,
                            f"eigensolve of dimension {n}, {wider} columns")
            # the old blocks go as the new ones come, so at most three are held
            del w
            extra = random_block(wider - m)
            h_extra = op.matvec(extra)
            x = np.hstack([x, extra])
            del extra
            hx = np.hstack([hx, h_extra])
            del h_extra
            w, m = np.empty_like(x), wider

        done_h = done.conj().T  # once a pass, not once a term

        def deflate(y):
            if locked:
                y -= np.matmul(done, done_h @ y, out=w)
            return y

        # w is the terms' row-block scratch as well as the deflation's output
        prev, cur = x, deflate(_chebyshev_first(op, hx, x, c, r, w))
        del x, hx
        for _ in range(EIGS_FILTER_DEGREE - 1):
            prev, cur = cur, deflate(_chebyshev_next(op, cur, prev, c, r, w))
        cur[:, :locked] = done
        x, hx = _orthonormalize(cur, prev)
        del prev, cur  # else a widening would keep the old blocks alive
        hx.fill(0.0)
    raise EigenConvergenceError(
        f"filtered subspace iteration stopped after {EIGS_MAX_PASSES} passes with "
        f"{int(np.sum(residuals[:k] <= RESIDUAL_TOL))}/{k} pairs converged",
        residuals=residuals[:k],
    )


def _orthonormalize(y, spare):
    """An orthonormal basis of the span of the columns of ``y``, which it rescales.

    SVQB (Stathopoulos & Wu, SIAM J. Sci. Comput. 23 (2002) 2165): scale the
    columns to unit norm, diagonalize their Gram matrix G = V S V^H and take
    Y V S^(-1/2). Directions that rounding has lost (S below 2^-52 of its
    largest value) come out as rounding noise, which the next sweep or the
    next filter pass treats like any other vector. A sweep that starts from
    a Gram matrix with eigenvalues above 1/2 leaves columns orthonormal to
    rounding, so the sweeps stop there, or after four. Unlike numpy's
    Householder QR, which holds four copies of the block, it holds two: each
    sweep writes the conjugate of a complex ``y`` and then its product into
    ``spare``, a C-contiguous block of ``y``'s shape and dtype, and swaps the
    two. It returns (basis, spare), which are ``y`` and ``spare`` in some
    order, and its work is three matrix products.
    """
    for _ in range(4):
        y /= _column_norms(y)
        s, v = np.linalg.eigh(_conjugate(y, spare).T @ y)
        y, spare = np.matmul(y, v / np.sqrt(np.maximum(s, s[-1] * 2.0 ** -52)), out=spare), y
        if s[0] > 0.5:
            break
    return y, spare


def _conjugate(a, out):
    """conj(``a``), written into ``out`` for a complex ``a``; a real ``a`` is its own."""
    return np.conjugate(a, out=out) if np.iscomplexobj(a) else a


def _column_norms(a):
    """Euclidean norm of each column of ``a``, with no temporary of its size."""
    pairs = a.view(float) if np.iscomplexobj(a) else a  # complex as (re, im) pairs
    squares = np.einsum("ij,ij->j", pairs, pairs)
    return np.sqrt(squares.reshape(a.shape[1], -1).sum(axis=1))

