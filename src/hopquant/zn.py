"""Z(N) link configurations on 2D/3D lattices and their exact symmetries.

Link variables live in {0, ..., N-1} on lattice edges. Configurations are
enumerated little-endian over a fixed link ordering (site-major, then
direction), so every symmetry acts as an explicit permutation of basis
indices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import HopquantError


class LinkLattice:
    """Spatial lattice carrying one Z(N) variable per link.

    ``dims`` has 2 or 3 extents. Periodic extents must be at least 2; open
    extents of 1 collapse that direction (no links along it), which permits
    single-link and single-plaquette systems.
    """

    def __init__(self, dims, n, boundary="periodic"):
        dims = tuple(int(d) for d in dims)
        if len(dims) not in (2, 3):
            raise ValueError("link lattice must have 2 or 3 extents")
        if n < 2:
            raise ValueError("clock order must be at least 2")
        if boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary {boundary!r}")
        if any(d < 1 for d in dims) or (boundary == "periodic" and any(d < 2 for d in dims)):
            raise ValueError(f"extents {dims} invalid for {boundary} boundary")
        self.dims = dims
        self.n = int(n)
        self.boundary = boundary
        self.sites = [tuple(s) for s in np.ndindex(*dims)]
        self._site_index = {s: i for i, s in enumerate(self.sites)}
        self.links = []
        for s in self.sites:
            for k in range(self.ndim):
                if boundary == "periodic" or s[k] + 1 < dims[k]:
                    if dims[k] >= 2:
                        self.links.append((s, k))
        if not self.links:
            raise ValueError(f"extents {dims} with {boundary} boundary carry no links")
        self._link_index = {lk: i for i, lk in enumerate(self.links)}
        self.plaquettes = []
        for s in self.sites:
            for i in range(self.ndim):
                for k in range(i + 1, self.ndim):
                    if self._plaquette_exists(s, i, k):
                        self.plaquettes.append((s, i, k))

    @property
    def ndim(self):
        return len(self.dims)

    @property
    def n_sites(self):
        return len(self.sites)

    @property
    def n_links(self):
        return len(self.links)

    @property
    def hilbert_dim(self):
        return self.n ** self.n_links

    def site_index(self, s):
        return self._site_index[tuple(s)]

    def link_index(self, s, k):
        key = (tuple(s), k)
        if key not in self._link_index:
            raise HopquantError(f"link {key} does not exist on this lattice")
        return self._link_index[key]

    def shift_site(self, s, k):
        """Site one step along axis k; None when it leaves an open lattice."""
        out = list(s)
        out[k] += 1
        if self.boundary == "periodic":
            out[k] %= self.dims[k]
        elif not 0 <= out[k] < self.dims[k]:
            return None
        return tuple(out)

    def _plaquette_exists(self, s, i, k):
        if self.dims[i] < 2 or self.dims[k] < 2:
            return False
        if self.boundary == "open" and (s[i] + 1 >= self.dims[i] or s[k] + 1 >= self.dims[k]):
            return False
        return True

    def plaquette_links(self, s, i, k):
        """The four (link index, sign) pairs forming plaquette (s, i, k)."""
        s = tuple(s)
        si = self.shift_site(s, i)
        sk = self.shift_site(s, k)
        if si is None or sk is None:
            raise HopquantError(f"plaquette ({s}, {i}, {k}) leaves the open lattice")
        return [(self.link_index(s, i), +1),
                (self.link_index(si, k), +1),
                (self.link_index(sk, i), -1),
                (self.link_index(s, k), -1)]

    def link_adjacency(self, link_idx):
        """Plaquettes containing a link, as (plaquette index, sign) pairs."""
        if not hasattr(self, "_adjacency"):
            adj = [[] for _ in range(self.n_links)]
            for p_idx, (s, i, k) in enumerate(self.plaquettes):
                for l_idx, sign in self.plaquette_links(s, i, k):
                    adj[l_idx].append((p_idx, sign))
            self._adjacency = adj
        return self._adjacency[link_idx]

    def __repr__(self):
        return (f"LinkLattice(dims={self.dims}, n={self.n}, "
                f"boundary={self.boundary!r})")


# --- symmetries as Z_N-affine maps -------------------------------------------
# Each symmetry is defined once, as a pair (A, b) of int64 arrays in link
# order that sends the link values x to A x + b mod N: rows of A are the
# destination links, columns the source links. ``permutation`` applies it to
# the whole basis. ``_plaquette_map`` is one more such map, whose rows are
# the plaquettes: ``_affine_values`` evaluates either over the basis.

def _gauge_map(lattice, g):
    """Gauge transform g, one value per site in site order:
    l'(s,k) = l(s,k) + g(s+k) - g(s) mod N."""
    g = np.asarray(g, dtype=np.int64)
    if g.shape != (lattice.n_sites,):
        raise ValueError("gauge transform must supply one value per site")
    tails = [lattice.site_index(s) for s, _ in lattice.links]
    heads = [lattice.site_index(lattice.shift_site(s, k)) for s, k in lattice.links]
    return np.eye(lattice.n_links, dtype=np.int64), g[heads] - g[tails]


def _charge_map(lattice):
    """Charge conjugation: every link value negated mod N."""
    return (np.diag(np.full(lattice.n_links, -1, dtype=np.int64)),
            np.zeros(lattice.n_links, dtype=np.int64))


def _parity_center(lattice, s0):
    twice = np.asarray(s0, dtype=float) * 2.0
    if np.any(np.abs(twice - np.round(twice)) > 1e-9):
        raise ValueError("parity center must have half-integer coordinates")
    if len(twice) != lattice.ndim:
        raise ValueError("parity center must match lattice dimensionality")
    return np.round(twice).astype(np.int64)


def _parity_map(lattice, s0):
    """Point reflection about s0 with negation: l'(s,k) = -l(2*s0 - s - e_k, k).

    On an open lattice every source link must exist.
    """
    twice = _parity_center(lattice, s0)
    a = np.zeros((lattice.n_links, lattice.n_links), dtype=np.int64)
    for idx, (s, k) in enumerate(lattice.links):
        src = twice - np.asarray(s, dtype=np.int64)
        src[k] -= 1
        if lattice.boundary == "periodic":
            src = src % np.asarray(lattice.dims)
        key = (tuple(int(c) for c in src), k)
        if key not in lattice._link_index:
            raise HopquantError(
                f"parity image of link ({s}, {k}) is not a link of this lattice")
        a[idx, lattice._link_index[key]] = -1
    return a, np.zeros(lattice.n_links, dtype=np.int64)


def _plaquette_map(lattice):
    """Plaquette values: row p of A holds the signs of plaquette p's links, so
    A x mod N is the value of every plaquette, one row a plaquette."""
    a = np.zeros((len(lattice.plaquettes), lattice.n_links), dtype=np.int64)
    for row, (s, i, k) in zip(a, lattice.plaquettes):
        for l_idx, sign in lattice.plaquette_links(s, i, k):
            row[l_idx] += sign
    return a, np.zeros(len(lattice.plaquettes), dtype=np.int64)


def _flat_coordinates(lattice):
    """Link coordinates in which the plaquettes read only the first r: (V, V^-1, r).

    Integer column operations on the plaquette map A, with unit pivots, give
    the unimodular int64 V with A V = [C | 0]: C has r columns, and the row
    where column i got its pivot is zero right of it and ±1 on it. So with
    y = V^-1 x mod N the plaquettes A x = C y[:r] depend only on y[:r], C u
    vanishes mod N only at u = 0, and the last L - r columns of V generate
    the flat configurations ker(A mod N), the link values that change no
    plaquette. Raises ``ValueError`` when a row's remaining entries have a gcd
    other than 1, which no unit pivot would leave.
    """
    av = _plaquette_map(lattice)[0]  # A V, under the column operations applied to V
    v, v_inv = (np.eye(lattice.n_links, dtype=np.int64) for _ in range(2))
    r = 0
    for row in av:
        # Euclid's algorithm on the row's entries right of the pivots
        while (cols := r + np.flatnonzero(row[r:])).size:
            p = cols[np.argmin(np.abs(row[cols]))]
            if cols.size == 1:
                if abs(row[p]) != 1:
                    raise ValueError(f"a plaquette row of {lattice} has remaining gcd "
                                     f"{abs(row[p])}, not 1")
                for m in av, v:
                    m[:, [r, p]] = m[:, [p, r]]
                v_inv[[r, p]] = v_inv[[p, r]]
                r += 1
                break
            for c in cols[cols != p]:
                # column c -= q column p; V^-1's row p += q row c
                q = row[c] // row[p]
                av[:, c] -= q * av[:, p]
                v[:, c] -= q * v[:, p]
                v_inv[p] += q * v_inv[c]
    return v, v_inv, r


def wrap_plaquette(p, n):
    """Principal representative of the integer p mod N in (-N/2, N/2];
    ties go positive."""
    r = p % n
    return int(r - n if r > n / 2 else r)


def flux_from_plaquette(p, n, spacing):
    """Magnetic flux density on the principal branch of the plaquette phase:
    2 pi w / (a^2 N) for w the principal value of p. This is the
    package's one statement of the flux formula; a unit plaquette, p = 1, is
    on the branch for every N."""
    w = wrap_plaquette(p, n)
    return 2.0 * np.pi / (spacing ** 2 * n) * w


# --- permutation representations over the full configuration basis ---------

def _basis_grid_shape(lattice):
    """The basis as a C-ordered grid: link k is axis ``n_links - 1 - k``.

    Raveling the grid gives the little-endian index sum_k value_k * N**k.
    """
    return (lattice.n,) * lattice.n_links


def _link_axis(lattice, link_idx):
    """The axis of the basis grid that holds link ``link_idx``."""
    return lattice.n_links - 1 - link_idx


def _along_link(lattice, link_idx, table):
    """``table[value of link link_idx]`` broadcastable over the basis grid."""
    shape = [1] * lattice.n_links
    shape[_link_axis(lattice, link_idx)] = lattice.n
    return np.reshape(table, shape)


def _affine_values(lattice, affine):
    """Row r of A x + b mod N, for each row of the map ``affine`` (A, b) in
    turn, over the basis grid: an int64 array that broadcasts over it, with
    an axis of length N for each link whose column is nonzero in row r."""
    a, b = affine
    values = np.arange(lattice.n, dtype=np.int64)
    for row, offset in zip(a, b):
        yield (offset + sum(_along_link(lattice, src, row[src] * values)
                            for src in np.flatnonzero(row))) % lattice.n


def permutation(lattice, symmetry):
    """Permutation sigma with sigma[j] = index of the image of config j under
    ``symmetry`` (A, b), whose link dest holds b[dest] + sum A[dest, src] x[src] mod N.

    Raises ``ValueError`` when the map sends two configurations to one.
    """
    sigma = np.zeros(_basis_grid_shape(lattice), dtype=np.int64)
    for dest, digit in enumerate(_affine_values(lattice, symmetry)):
        sigma += digit * lattice.n ** dest
    sigma = sigma.reshape(-1)
    hit = np.zeros(len(sigma), dtype=bool)
    hit[sigma] = True
    if not hit.all():
        raise ValueError("map is not a bijection of the basis")
    return sigma


def site_generator_maps(lattice):
    """Unit gauge increments, one per site; they generate the full gauge group."""
    return [_gauge_map(lattice, g) for g in np.eye(lattice.n_sites, dtype=np.int64)]


def site_generator_permutations(lattice):
    """The permutations of ``site_generator_maps``."""
    return [permutation(lattice, symmetry) for symmetry in site_generator_maps(lattice)]


# --- gauge-invariant subspace ----------------------------------------------

@dataclass
class InvariantSubspace:
    """Orbit decomposition of the basis under the gauge group.

    The invariant subspace of the permutation representation is spanned by
    one uniform superposition per orbit.
    """

    dimension: int
    labels: np.ndarray
    orbit_sizes: np.ndarray


def project_gauge_invariant(lattice):
    """Decompose the basis into gauge orbits; equivalent to group averaging."""
    dim = lattice.hilbert_dim
    gens = site_generator_permutations(lattice)
    # Min-label propagation: each state takes the smallest label among its
    # images, then its label's label, until nothing changes. Every label stays
    # a member of its state's orbit, and at the fixed point each generator's
    # cycles, and so each orbit, carry one label: the orbit's smallest member.
    # Labels only decrease, so an unchanged sum means unchanged labels.
    labels = np.arange(dim, dtype=np.int64)
    while True:
        total = labels.sum()
        for sigma in gens:
            np.minimum(labels, labels[sigma], out=labels)
        labels = labels[labels]
        if labels.sum() == total:
            break
    # orbits numbered in the order of their smallest members
    labels = (np.cumsum(labels == np.arange(dim)) - 1)[labels]
    sizes = np.bincount(labels)
    return InvariantSubspace(dimension=sizes.size, labels=labels, orbit_sizes=sizes)
