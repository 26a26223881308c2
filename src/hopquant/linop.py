"""Sparse Hermitian operators: assembly, matvec, propagation, extremal eigenpairs.

Propagation and the eigensolver's subspace iteration run one Chebyshev
three-term recurrence, which writes each term over the one before last and
adds H times the last into it in place, one block of rows at a time that
stays in cache through the term's steps, so no term allocates. Propagation
sums a Chebyshev series (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967),
with truncation error at most 2^-53 * |v|, over a proven interval: the
Collatz-Wielandt bound max_i (|H - cI| w)_i / w_i on |lambda - c|, for the
Gershgorin centre c and a positive w from three power steps, never wider
than Gershgorin's, at every dimension. ``eigs_extremal``, the one eigenpair
solver, solves a gauge build as the exact union of its flat-translation
blocks and any other operator by block Chebyshev-filtered subspace iteration.

Every sparse product goes through ``SparseHermitianOperator._add_product``,
which calls scipy's compiled CSR kernels (``csr_matvec`` and ``csr_matvecs``
of the extension module ``scipy.sparse._sparsetools``), a complex vector
under a real H as its real view. ``_kernels`` loads that module from its
file without importing the ``scipy.sparse`` package, so no solver imports a
scipy module. ``matrix`` is the package's one import of ``scipy.sparse``,
the fallback of ``_kernels`` aside.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from . import zn
from .errors import EigenConvergenceError, HermiticityError, HilbertDimensionError

# Default tolerance of every hermiticity and unitarity check, and of a run.
HERMITICITY_TOL = 1e-12
EIGS_SEED = 20240811
RESIDUAL_TOL = 1e-8
# Degree of the Chebyshev filter of each subspace-iteration pass, and the
# passes after which the iteration gives up.
EIGS_FILTER_DEGREE = 20
EIGS_MAX_PASSES = 100
# Peak memory of one hopping assembly beyond its m slots a row and its
# indptr, per grid point: the caller's amplitude inputs and the assembler's
# temporaries, which hold one row block, not the grid. tracemalloc measured
# 1-7 bytes for both gauge builders on 2x2 periodic N=5 and 3x3 periodic N=2
# and 1-5 bytes for particle kernels of 7, 13 and 125 offsets on periodic
# and open 64^3 grids; on 32^3 grids the same kernels held 34-37 bytes, one
# block's arrays of about 1.2 MiB spread over fewer points.
ASSEMBLY_BYTES_PER_STATE = 37
# Entries of H a row block holds, for the blocked products and the assembly:
# a block of index and amplitude arrays stays in cache.
_BLOCK_ENTRIES = 2 ** 16
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
        self.slot_offsets = None  # the hopping assembler's record, see _slot_table
        self._interval = self._propagation_interval = None

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

        A complex ``x`` under a real ``data`` goes in as its real view, an
        (n, 2m) block of (re, im) pairs, and ``out`` as its own: given a
        complex ``x``, the kernels' wrapper would copy ``data`` to complex.
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
        if n and x.dtype.kind == "c" and self.data.dtype.kind != "c":  # n = 0 has no view
            x = np.ascontiguousarray(x).reshape(n, -1).view(np.finfo(x.dtype).dtype)
            out = out.reshape(rows, -1).view(np.finfo(dtype).dtype)
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
        """Rows in each block of ``_row_blocks`` but the last: about
        ``_BLOCK_ENTRIES`` entries."""
        n = self.dimension
        return max(1, min(n, _BLOCK_ENTRIES * n // max(self.nnz, 1)))

    def _row_blocks(self):
        """(first row, indptr slice) of consecutive blocks of about 2^16 entries."""
        rows = self._block_rows()
        for start in range(0, self.dimension, rows):
            yield start, self.indptr[start:start + rows + 1]

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


def _offset_columns(shape, offsets, periodic):
    """Flat index of x + o on the C-ordered grid ``shape``, for each point x
    of the grid and each row o of the int64 array ``offsets``.

    Returns the int64 array (points, len(offsets)) of those indices, each
    wrapped when ``periodic``, and a mask of the points x + o that leave an
    open grid.
    """
    cols = np.zeros((math.prod(shape), len(offsets)), dtype=np.int64)
    off = np.zeros(cols.shape, dtype=bool)
    rest, place = np.arange(len(cols), dtype=np.int64), 1
    for ax in range(len(shape) - 1, -1, -1):
        rest, coord = np.divmod(rest, shape[ax])
        coord = coord[:, np.newaxis] + offsets[:, ax]
        if periodic:
            coord %= shape[ax]
        else:
            off |= (coord < 0) | (coord >= shape[ax])
        coord *= place
        cols += coord
        place *= shape[ax]
    return cols, off


def _grid_blocks(shape, offsets, periodic, rows, out):
    """Row blocks of the C-ordered grid ``shape`` and the columns x + o of
    their rows x for each int64 row o of ``offsets``, wrapped when ``periodic``.

    A block is k whole trailing sub-grids ``shape[q:]`` in a row along axis
    q - 1, for the least q whose sub-grid has at most ``rows`` rows and the
    most k that keep the block within ``rows`` rows; where the last axis
    alone has more, q is past it and a sub-grid is one point. A point with
    coordinates (u, c, t), split at axes q - 1 and q, has the column
    ravel(u + o_u) * (L size) + (c + o_c) * size + ravel(t + o_t), L the
    length of axis q - 1 and size the rows of a sub-grid: one table of
    in-sub-grid columns plus two offsets per move, one per position c and
    one per u, all made once. Writes each block's columns into its rows of
    ``out``, an array (rows of the grid, len(offsets)), and yields (first
    row, those rows of ``out``) for each block in row order. A column off an
    open grid reads ``math.prod(shape)``. The first block is the largest.
    """
    dim, m = math.prod(shape), len(offsets)
    shape = (1,) + tuple(shape)  # an axis of length 1 in front: the whole grid is one sub-grid
    offsets = np.column_stack([np.zeros(m, dtype=np.int64), offsets])
    q = len(shape)
    while q > 1 and math.prod(shape[q - 1:]) <= rows:
        q -= 1
    size, length = math.prod(shape[q:]), shape[q - 1]
    k = min(length, rows // size)
    table, table_off = _offset_columns(shape[q:], offsets[:, q:], periodic)
    strip, strip_off = _offset_columns((length,), offsets[:, q - 1:q], periodic)
    lead, lead_off = _offset_columns(shape[:q - 1], offsets[:, :q - 1], periodic)
    dtype = out.dtype  # made in, so added without a cast
    table, strip, lead = (table.astype(dtype), (strip * size).astype(dtype),
                          (lead * (length * size)).astype(dtype))
    for u in range(len(lead)):
        for c in range(0, length, k):
            start, count = (u * length + c) * size, min(k, length - c)
            block = out[start:start + count * size].reshape(count, size, m)
            np.add(table, strip[c:c + count, np.newaxis] + lead[u], out=block)
            if not periodic:
                block[table_off | strip_off[c:c + count, np.newaxis] | lead_off[u]] = dim
            yield start, block.reshape(count * size, m)


def _fill_slots(data, blocks, slots, amplitudes):
    """Move i's amplitudes into slot ``slots[i]`` of the rows of ``data``
    of each block of ``blocks`` (see ``_grid_blocks``), adding up moves that
    share a slot in move order.

    Where every move has a slot of its own, in move order, a block whose
    amplitudes come as one array (moves, rows) is written in one copy.
    """
    in_order = slots == list(range(len(slots)))
    added = [j in slots[:i] for i, j in enumerate(slots)]
    for start, block in blocks:
        rows = slice(start, start + len(block))
        amps = amplitudes(rows)
        if in_order and isinstance(amps, np.ndarray) and amps.shape == (len(slots), len(block)):
            data[rows] = amps.T
            continue
        out = data[rows]
        for j, add, amp in zip(slots, added, amps, strict=True):
            if add:
                out[:, j] += amp
            else:
                out[:, j] = amp


def _slot_defect(cols, data, reverse, periodic, rows):
    """max |H[x, y] - conj(H[y, x])| over the entries of the (dim, m) slot
    arrays, ``rows`` rows at a time, with columns ``dim`` off an open grid
    left out.

    The reverse of the entry in slot j of row x is the entry in slot
    ``reverse[j]`` of row y, or zero where ``reverse[j]`` is None. A pair of
    slots is measured from the first of the two only: |a - conj(b)| equals
    |b - conj(a)|. The slots are read in three groups, each a strided view
    where its slots are evenly spaced: those that are their own reverse,
    those paired with a later slot, and those without a reverse.
    """
    dim, m = data.shape
    groups = [[j for j, rev in enumerate(reverse) if rev == j],
              [j for j, rev in enumerate(reverse) if rev is not None and rev > j],
              [j for j, rev in enumerate(reverse) if rev is None]]
    flat, defect, work, rows = data.reshape(-1), 0.0, [], min(rows, dim)
    for slots in filter(None, groups):
        there = None if reverse[slots[0]] is None else np.array(
            [reverse[j] for j in slots], dtype=np.intp)
        # index, differences and their moduli (the differences' own array where
        # real) of one block, reused by every block
        index, diff = (np.empty((rows, len(slots)), dtype=t) for t in (np.intp, data.dtype))
        size = np.empty(diff.shape) if diff.dtype.kind == "c" else diff
        work.append((_evenly(slots), there, index, diff, size))
    for start in range(0, dim, rows):
        block = min(rows, dim - start)
        for slots, there, index, diff, size in work:
            block_cols = cols[start:start + block, slots]
            block_data = data[start:start + block, slots]
            index, diff, size = index[:block], diff[:block], size[:block]
            if there is None:
                np.abs(block_data, out=size)
            else:
                # an index off an open grid is clipped here and masked out below
                np.multiply(block_cols, m, out=index)
                index += there
                np.take(flat, index, out=diff, mode="clip")
                if diff.dtype.kind == "c":
                    np.conj(diff, out=diff)
                np.subtract(block_data, diff, out=diff)
                np.abs(diff, out=size)
            # np.maximum, unlike max(), carries a NaN amplitude into the defect
            defect = float(np.maximum(defect, size.max(
                initial=0.0, where=True if periodic else block_cols < dim)))
    return defect


def _evenly(slots):
    """``slots`` as a slice where they are evenly spaced and ascending, which
    indexes a strided view rather than a copy."""
    step = slots[1] - slots[0] if len(slots) > 1 else 1
    if step > 0 and slots == list(range(slots[0], slots[-1] + 1, step)):
        return slice(slots[0], slots[-1] + 1, step)
    return slots


def _assemble_hopping(shape, periodic, offsets, amplitudes, dtype=float,
                      tol=HERMITICITY_TOL, held_bytes=0):
    """Certified Hamiltonian of hopping on the C-ordered grid ``shape``.

    Move j sets H[x, x + offsets[j]] to the j-th item of ``amplitudes(rows)``
    at x, for the rows x of the flat-index slice ``rows``: an array of one
    value a row, or a scalar. The assembler calls it once per row block of
    about ``_BLOCK_ENTRIES`` entries (see ``_grid_blocks``), after the memory
    check, and fills the block's columns and its m slots a row while they
    are in cache. It copies a block's amplitudes before the next call, so
    the callable may return the same array, an array (moves, rows), each
    time. The amplitudes must already be of a kind ``dtype`` holds: they
    are stored as ``dtype`` straight into CSR arrays, unchecked. Offsets
    that coincide on the grid (which wraps when ``periodic``) are summed
    into one entry, the zero offset is the diagonal, and an open grid drops
    entries whose column leaves it. Row x holds one slot per distinct
    offset, in the order of first appearance, not sorted by column. On a
    periodic grid the operator records those offsets, mod ``shape`` and in
    slot order, as ``slot_offsets``, an int64 array (slots, axes).
    max|H - H^H| is the largest |H[x, x + o] - conj(H[x + o, x])| over
    stored entries, with the reverse offset's entry or zero where no move
    has it, read a block of rows at a time from the filled slots.

    Raises ``HilbertDimensionError``, before allocating anything of the grid
    size, when the estimated peak (the CSR, ``ASSEMBLY_BYTES_PER_STATE`` per
    grid point and the ``held_bytes`` the caller's inputs hold beside them)
    exceeds the available memory.
    """
    dim = math.prod(shape)

    def key(offset):
        return tuple(np.mod(offset, shape) if periodic else offset)

    keys = [key(offset) for offset in offsets]
    column = {k: j for j, k in enumerate(dict.fromkeys(keys))}
    m = len(column)
    slot_offsets = np.array(list(column), dtype=np.int64).reshape(m, len(shape))
    index_dtype = np.dtype(np.int32 if dim * max(m, 1) <= np.iinfo(np.int32).max
                           else np.int64)
    _require_memory(dim * m * (index_dtype.itemsize + np.dtype(dtype).itemsize)
                    + (dim + 1) * index_dtype.itemsize + ASSEMBLY_BYTES_PER_STATE * dim
                    + held_bytes, f"assembling dimension {dim}")

    cols = np.empty((dim, m), dtype=index_dtype)
    data = np.empty((dim, m), dtype=dtype)
    rows = max(1, _BLOCK_ENTRIES // max(m, 1))
    _fill_slots(data, _grid_blocks(shape, slot_offsets, periodic, rows, out=cols),
                [column[k] for k in keys], amplitudes)
    del amplitudes  # what it holds can go before the defect pass makes its own arrays
    reverse = [column.get(key([-c for c in k])) for k in column]
    defect = _slot_defect(cols, data, reverse, periodic, rows)

    indptr = np.arange(dim + 1, dtype=index_dtype)
    indptr *= m  # m slots a row (none: H is empty), scaled in place
    end = dim * m
    if not periodic:  # drop the entries off the grid in place, a block of rows at a time
        flat_cols, flat_data = cols.reshape(-1), data.reshape(-1)
        end = 0
        for start in range(0, dim, rows):
            keep = cols[start:start + rows] < dim
            indptr[start + 1:start + 1 + len(keep)] = keep.sum(axis=1)
            # compacted rows end at or before this block's first entry
            nnz, end = end, end + int(np.count_nonzero(keep))
            flat_cols[nnz:end] = cols[start:start + rows][keep]
            flat_data[nnz:end] = data[start:start + rows][keep]
        np.cumsum(indptr, out=indptr)
        del flat_cols, flat_data
    # Flatten both buffers and shrink them to their nnz entries in place: a
    # realloc, which frees an open grid's dead tail without a copy. No view of
    # them may outlive this, so none is checked for.
    cols.resize(end, refcheck=False)
    data.resize(end, refcheck=False)
    op = SparseHermitianOperator(data, cols, indptr, defect, tol)
    op.slot_offsets = slot_offsets if periodic else None
    return op


def _slot_table(op, dim):
    """The slot offsets o_j that the hopping assembler recorded on ``op``, and ``data``
    as an array (dim, slots) whose entry [x, j] is H[x, x + o_j]; else ``ValueError``."""
    if op.slot_offsets is None:
        raise ValueError("operator has no slot layout: only the hopping assembler "
                         "records one, on a periodic grid")
    return op.slot_offsets, op.data.reshape(dim, len(op.slot_offsets))


def propagate(op, v, t, hbar=1.0):
    """Unitary propagation exp(-i*H*t/hbar) @ v; ``v`` itself is never written.

    ``t`` must be finite and ``hbar`` finite and nonzero, else ``ValueError``.
    It sums the Chebyshev series of Tal-Ezer & Kosloff (J. Chem. Phys. 81
    (1984) 3967), at every dimension. With tau = t/hbar, the centre c and
    radius r of ``op.propagation_interval()``, a Collatz-Wielandt bound no
    wider than the Gershgorin interval, and Ht = (H - c)/r, whose spectrum
    that bound proves to lie in [-1, 1],

        exp(-i*H*tau) v = exp(-i*c*tau) sum_k (2 - delta_k0) (-i*sgn(tau))^k
                          J_k(r*|tau|) T_k(Ht) v,

    summed by the three-term recurrence T_{k+1} = 2*Ht*T_k - T_{k-1}, with
    T_{k+1} written over T_{k-1}: one matvec per term, added in place a row
    block at a time, with the block's share of the sum added while it is in
    cache. Three work vectors (the sum, T_k and T_{k-1}) and one row block of
    scratch are allocated once per call, nothing the size of H. The series
    stops where the dropped sum of 2|J_k| falls below 2^-53; since
    |T_k(Ht)| <= 1, that bounds the truncation error by 2^-53 * |v|.

    The series applies H itself: under an operator certified above the
    default 1e-12 tolerance, which need not be Hermitian, the norm drifts.
    """
    if not (math.isfinite(t) and math.isfinite(hbar) and hbar != 0.0):
        raise ValueError(f"propagation needs a finite t and a finite, nonzero hbar, "
                         f"not t={t!r}, hbar={hbar!r}")
    v = np.asarray(v, dtype=complex)
    if t == 0.0:
        return v.copy()
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
    """Lowest ``k`` eigenpairs, ascending, every copy of a degenerate level counted.

    An operator from a gauge builder, which records ``op.lattice``, is solved
    as the exact union of its flat-translation blocks, with complex vectors
    in Fortran order; any other by filtered subspace iteration, with vectors
    of its dtype made at least float. Each of the k orthonormal pairs must
    satisfy |H v - lambda v| <= ``RESIDUAL_TOL``, checked a chunk of about
    ``_BLOCK_ENTRIES`` entries at a time, else ``EigenConvergenceError``
    carries the residuals and names the path. ``ValueError`` for ``k``
    outside [0, n]; ``HilbertDimensionError`` when a path's memory check
    fails, before anything of size n is allocated.
    """
    n = op.dimension
    if not 0 <= k <= n:
        raise ValueError(f"requested {k} eigenpairs of a dimension-{n} operator")
    if k == 0:
        return np.zeros(0), np.zeros((n, 0))
    lattice = getattr(op, "lattice", None)
    if lattice is None:
        values, vectors, how = _filtered_subspace_iteration(op, k)
        vectors = vectors.copy()  # else the vectors a caller keeps hold the solver's block
    else:
        values, vectors, how = _flat_translation_blocks(op, lattice, k)
    # a chunk of columns of about _BLOCK_ENTRIES entries at a time, so that a
    # full spectrum's check holds a few columns beside the vectors
    columns, residuals = max(1, _BLOCK_ENTRIES // n), np.empty(k)
    for start in range(0, k, columns):
        part = vectors[:, start:start + columns]
        res = op.matvec(part)
        res -= part * values[start:start + columns]
        residuals[start:start + columns] = _column_norms(res)
    if not residuals.max() <= RESIDUAL_TOL:  # a NaN residual fails too
        raise EigenConvergenceError(
            f"eigenpair residual {residuals.max():.3e} exceeds {RESIDUAL_TOL:.1e} {how}",
            residuals=residuals)
    return values, vectors


def _filtered_subspace_iteration(op, k):
    """The ``k`` lowest Ritz pairs, ascending, of block Chebyshev-filtered subspace
    iteration (Zhou, Saad, Tiago & Chelikowsky, J. Comput. Phys. 219 (2006)
    172), and how they were found; the vectors are a view of the workspace.

    Each pass takes an orthonormal n x m block X through a Rayleigh-Ritz step
    (H X, then eigh of X^H H X) and stops once the ``k`` lowest Ritz residuals are
    below ``RESIDUAL_TOL``. Otherwise the degree-``EIGS_FILTER_DEGREE``
    Chebyshev polynomial that is bounded by 1 on [theta_m, hi] filters the
    block, which is then orthonormalized. theta_m is the largest Ritz value and
    hi the top of the operator's cached Gershgorin interval, so every copy of a
    level below theta_m grows against the rest of the spectrum at the same rate.
    Pairs converged from the lowest up are locked: the filter projects them out.
    m starts at min(n, max(2k, k + 16)), so at n <= k + 16 the first
    Rayleigh-Ritz step spans the whole space and is exact, and doubles whenever
    Ritz values k and m coincide, i.e. when the wanted level's cluster reaches
    the edge of the block. The block is seeded from ``EIGS_SEED``. After
    ``EIGS_MAX_PASSES`` passes the pairs are returned unconverged, for
    ``eigs_extremal``'s residual check to refuse.

    A solve holds a workspace of three n x m blocks, allocated once and again
    only when the block widens: X, H X and a third that takes each rotation X Q
    and H X Q, the conjugate of X for X^H H X, the residuals, the deflation's
    product and the filter terms' row-block scratch. Each filter term is made a
    row block at a time (see ``_chebyshev_next``). Beside them it holds the
    locked columns, up to k - 1: twice while they are replaced, and a complex
    block their conjugate as well. ``HilbertDimensionError`` is raised, before
    anything of size n is allocated, when the three blocks and three times k - 1
    columns would not fit in the available memory, and again before widening.
    """
    n = op.dimension
    m = min(n, max(2 * k, k + 16))
    dtype = np.result_type(op.data.dtype, float)

    def require_workspace(columns):
        # three blocks, and up to k - 1 locked columns, held twice while they
        # are replaced and once more conjugated for a complex block
        _require_memory((3 * columns + 3 * (k - 1)) * n * dtype.itemsize,
                        f"eigensolve of dimension {n}, {columns} columns")

    require_workspace(m)
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
        if residuals[:k].max(initial=0.0) <= RESIDUAL_TOL or passes == EIGS_MAX_PASSES:
            return theta[:k], x[:, :k], f"after {passes} passes of filtered subspace iteration"
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
            require_workspace(wider)
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


def _flat_translation_blocks(op, lattice, k):
    """The ``k`` lowest eigenpairs of a gauge build, ascending, as the union of
    its flat-translation blocks, and how they were found.

    The build's amplitudes read only plaquette values, so translation by a
    flat configuration, one in ker(A mod N) for the plaquette map A, commutes
    with it. In the coordinates (u, w) = V^-1 x mod N of
    ``zn._flat_coordinates`` the plaquettes read u alone, and slot j's recorded
    offset o_j is the step (u_j, w_j) = V^-1 o_j. So each character theta of
    the flat group, on w, gives the dense block of dimension N^r on u,
    H_theta = sum_j omega^(theta . w_j) M_j, omega = exp(2 pi i / N), with
    M_j[u, u + u_j] = a_j(u) from row x(u) = V (u, 0) of ``_slot_table``.
    The builders are real, so H_-theta = conj(H_theta): one block of each
    conjugate pair is solved and its values counted twice, and a theta with
    2 theta = 0 gives a real block. ``np.linalg.eigvalsh`` runs over chunks of
    at most about ``_BLOCK_ENTRIES`` block entries, keeping the lowest ``k``:
    until it holds k values, a chunk holds only the blocks whose values,
    copies counted, make up the k, and then each chunk doubles the last, so
    the k-th value falls early. Once it holds them, with mu the k-th plus
    1e-10 of the chunk's norm (for eigvalsh's rounding), it skips a block none
    of whose values could be kept (``_may_hold``): one whose Gershgorin bound
    lies above mu, and then one for which H_theta - mu' I has a Cholesky
    factor, so that every value of H_theta lies above mu' by Sylvester's law
    of inertia. mu' exceeds mu by s (s + 2) 2^-53 (|H_theta| + |mu|) for
    blocks of size s, which covers the factor's backward error (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
    Thm 10.3; s + 2 for complex arithmetic). That step is 0.005-0.15 of the
    1e-10 term at s = 64, 125 and 256 and exceeds it from s near 1,000. The
    values solved, and so the ones kept, are those of a run that solves every
    block, bit for bit. Each kept value's vector phi, from ``np.linalg.eigh``
    of its block, is lifted to the unit psi(x) = phi(u(x))
    omega^(theta . w(x)) (N^r / n)^(1/2), and the second copy of a pair to
    conj psi, in the block of -theta. How they were found counts the blocks
    solved and those each test cleared.
    ``ValueError`` for an operator without the assembler's slot layout, and
    ``HilbertDimensionError`` when the arrays would not fit in memory.
    """
    dim, n, links = op.dimension, lattice.n, lattice.n_links
    slot_offsets, table = _slot_table(op, dim)
    v, v_inv, r = zn._flat_coordinates(lattice)
    size, m = n ** r, len(slot_offsets)
    per_chunk = max(1, _BLOCK_ENTRIES // size ** 2)
    # the chunk five times (itself, its moduli, the shifted blocks, their factor, the blocks
    # solved), the slots' amplitudes and places, the k vectors, and 88 bytes a configuration
    # or column-chunk entry (lift, residual check)
    _require_memory(16 * (5 * per_chunk * size ** 2 + 2 * m * size + k * dim)
                    + 88 * max(dim, _BLOCK_ENTRIES),
                    f"eigensolve of dimension {dim} in blocks of {size}")
    u = _digits(np.arange(size), r, n)
    # link k is grid axis links - 1 - k, so an offset's link values are its axes reversed
    steps = slot_offsets[:, ::-1] @ v_inv.T % n  # row j: (u_j, w_j)
    target = (u[:, np.newaxis] + steps[:, :r]) % n @ n ** np.arange(r)
    # each slot's amplitudes a_j(u), in the rows x(u), and flat places u * N^r + (u + u_j)
    amps = table[u @ v[:, :r].T % n @ n ** np.arange(links)].T
    places = (np.arange(size)[:, np.newaxis] * size + target).T
    roots = np.exp(2j * np.pi * np.arange(n) / n)

    def blocks(thetas, dtype):
        """H_theta for each row theta of ``thetas``, an array (thetas, size, size)."""
        phases = roots[thetas @ steps[:, r:].T % n]
        phases = phases.real if dtype is float else phases
        out = np.zeros((len(thetas), size * size), dtype=dtype)
        for j in range(m):
            out[:, places[j]] += phases[:, j, np.newaxis] * amps[j]
        return out.reshape(-1, size, size)

    # every character theta, and the index of -theta
    thetas = _digits(np.arange(n ** (links - r)), links - r, n)
    conj = (-thetas % n) @ n ** np.arange(links - r)
    ids = np.arange(len(thetas))
    low, keys = np.zeros(0), np.zeros(0, dtype=np.int64)  # keys: theta * size + index
    total = solved = gershgorin = cholesky = count = 0
    for reps, copies, dtype in ((np.flatnonzero(conj == ids), 1, float),
                                (np.flatnonzero(conj > ids), 2, complex)):
        total += len(reps)
        while len(reps):
            # the blocks that make up the values still missing, then chunks that double
            missing = k - len(low)
            count = min(per_chunk, -(-missing // (size * copies)) if missing else 2 * count)
            chunk, reps = reps[:count], reps[count:]
            h = blocks(thetas[chunk], dtype)
            if len(low) == k:
                needed, left = _may_hold(h, low[-1])
                gershgorin += len(chunk) - len(needed)
                cholesky += len(needed) - len(left)
                chunk, h = chunk[left], h[left]
                if not len(chunk):
                    continue
            solved += len(chunk)
            values = np.linalg.eigvalsh(h)
            low = np.concatenate([low, np.repeat(values.reshape(-1), copies)])
            keys = np.concatenate([keys, np.repeat(
                (chunk[:, np.newaxis] * size + np.arange(size)).reshape(-1), copies)])
            keep = np.argsort(low, kind="stable")[:k]
            low, keys = low[keep], keys[keep]

    # u(x) over the basis grid, as a block index
    grid = zn._basis_grid_shape(lattice)
    u_index = np.zeros(grid, dtype=np.int64)
    for i, digit in enumerate(zn._affine_values(lattice, (v_inv[:r], np.zeros(r, np.int64)))):
        u_index += digit * n ** i
    u_index = u_index.reshape(-1)
    # a stable sort keeps the two copies of a pair's value next to each other;
    # the vectors are columns in Fortran order, each one contiguous
    vectors = np.empty((dim, k), dtype=complex, order="F")
    for theta in np.unique(keys // size):
        dtype = float if conj[theta] == theta else complex
        _, phi = np.linalg.eigh(blocks(thetas[theta:theta + 1], dtype)[0])
        row = (thetas[theta] @ v_inv[r:])[np.newaxis]  # theta . w(x) as one affine row
        phase = roots[next(zn._affine_values(lattice, (row, np.zeros(1, np.int64))))]
        phase *= math.sqrt(size / dim)  # each u is hit n / N^r times
        phase = np.broadcast_to(phase, grid).reshape(-1)
        for j in np.flatnonzero(keys // size == theta):
            psi = np.multiply(phi[:, keys[j] % size].take(u_index), phase, out=vectors[:, j])
            if j and keys[j - 1] == keys[j]:
                np.conjugate(psi, out=psi)
    return low, vectors, (f"from flat-translation blocks of {size}: {solved} of {total} solved, "
                          f"{gershgorin} cleared by Gershgorin, {cholesky} by Cholesky")


def _may_hold(h, kth):
    """Indices of the blocks of the stack ``h`` that may hold a value at or below ``kth``
    by their Gershgorin bound, and of those that may by a Cholesky factor too."""
    # Gershgorin bounds: each row's diagonal less its other moduli
    moduli, d = np.abs(h).sum(axis=2), np.einsum("tii->ti", h).real
    norm, size = moduli.max(), h.shape[1]  # the norm bounds every block's 2-norm
    mu = kth + 1e-10 * norm  # 1e-10 of the norm: rounding
    needed = np.flatnonzero((d + np.abs(d) - moduli).min(axis=1) <= mu)
    # a factor of H_theta - mu' I puts every value above mu, with mu' - mu
    # the factor's backward error
    shifted = h[needed]
    mu += size * (size + 2) * 2.0 ** -53 * (norm + abs(mu))
    shifted.reshape(len(needed), size * size)[:, ::size + 1] -= mu
    return needed, needed[~_positive_definite(shifted)]


def _positive_definite(stack):
    """Whether each Hermitian matrix of ``stack`` has a Cholesky factor: a boolean
    per matrix.

    ``np.linalg.cholesky`` raises for the whole stack when one member has no
    factor; the gufunc behind it fills that member's factor with NaN instead.
    """
    signature = "D->D" if np.iscomplexobj(stack) else "d->d"
    with np.errstate(invalid="ignore"):
        factor = np.linalg._umath_linalg.cholesky_lo(stack, signature=signature)
    return ~np.isnan(np.einsum("tii->ti", factor)).any(axis=1)


def _digits(flat, places, n):
    """The base-``n`` digits of each of ``flat``, least significant first:
    an array (len(flat), places)."""
    return np.asarray(flat)[:, np.newaxis] // n ** np.arange(places) % n
