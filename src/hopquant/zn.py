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

    def shift_site(self, s, k, step=1):
        """Site displaced along axis k; None when it leaves an open lattice."""
        out = list(s)
        out[k] += step
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


# --- symmetries as link maps ------------------------------------------------
# Each symmetry is defined once, as a link map in the format documented at
# ``permutation_from_link_map``, which applies it to the whole basis.

def _gauge_link_map(lattice, g):
    """Gauge transform g: l'(s,k) = l(s,k) + g(s+k) - g(s) mod N."""
    g = _gauge_array(lattice, g)
    assignments = {}
    for idx, (s, k) in enumerate(lattice.links):
        head = lattice.shift_site(s, k)
        delta = int(g[lattice.site_index(head)] - g[lattice.site_index(s)])
        assignments[idx] = (idx, 1, delta)
    return assignments


def _gauge_array(lattice, g):
    if isinstance(g, dict):
        arr = np.zeros(lattice.n_sites, dtype=np.int64)
        for s, v in g.items():
            arr[lattice.site_index(s)] = v
        return arr
    arr = np.asarray(g, dtype=np.int64)
    if arr.shape == tuple(lattice.dims):
        arr = arr.ravel()
    if arr.shape != (lattice.n_sites,):
        raise ValueError("gauge transform must supply one value per site")
    return arr


def _charge_link_map(lattice):
    """Charge conjugation: every link value negated mod N."""
    return {idx: (idx, -1, 0) for idx in range(lattice.n_links)}


def _parity_center(lattice, s0):
    twice = np.asarray(s0, dtype=float) * 2.0
    if np.any(np.abs(twice - np.round(twice)) > 1e-9):
        raise ValueError("parity center must have half-integer coordinates")
    if len(twice) != lattice.ndim:
        raise ValueError("parity center must match lattice dimensionality")
    return np.round(twice).astype(np.int64)


def _parity_link_map(lattice, s0):
    """Point reflection about s0 with negation: l'(s,k) = -l(2*s0 - s - e_k, k).

    On an open lattice every source link must exist.
    """
    twice = _parity_center(lattice, s0)
    assignments = {}
    for idx, (s, k) in enumerate(lattice.links):
        src = twice - np.asarray(s, dtype=np.int64)
        src[k] -= 1
        if lattice.boundary == "periodic":
            src = src % np.asarray(lattice.dims)
        key = (tuple(int(c) for c in src), k)
        if key not in lattice._link_index:
            raise HopquantError(
                f"parity image of link ({s}, {k}) is not a link of this lattice")
        assignments[idx] = (lattice._link_index[key], -1, 0)
    return assignments


def wrap_plaquette(p, n):
    """Principal representative of p mod N in (-N/2, N/2]; ties go positive."""
    p = np.asarray(p)
    r = np.mod(p, n)
    out = np.where(r > n / 2, r - n, r)
    if np.isscalar(p) or p.ndim == 0:
        return int(out)
    return out.astype(np.int64)


def flux_from_plaquette(p, n, spacing, hbar=1.0, charge=1.0):
    """Magnetic flux density on the principal branch of the plaquette phase."""
    w = wrap_plaquette(p, n)
    return 2.0 * np.pi * hbar / (charge * spacing ** 2 * n) * w


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


def permutation_from_link_map(lattice, assignments):
    """Permutation sigma with sigma[j] = index of the transformed config.

    ``assignments`` maps each destination link index to (source link index,
    sign, shift): new value = sign * old[source] + shift mod N.
    """
    n = lattice.n
    values = np.arange(n, dtype=np.int64)
    sigma = np.zeros(_basis_grid_shape(lattice), dtype=np.int64)
    for dest, (src, sign, shift) in assignments.items():
        sigma += _along_link(lattice, src, ((sign * values + shift) % n) * n ** dest)
    return sigma.reshape(-1)


def site_generator_link_maps(lattice, sites=None):
    """Unit gauge increments, one per site; they generate the full gauge group."""
    sites = lattice.sites if sites is None else [tuple(s) for s in sites]
    maps = []
    for s in sites:
        g = np.zeros(lattice.n_sites, dtype=np.int64)
        g[lattice.site_index(s)] = 1
        maps.append(_gauge_link_map(lattice, g))
    return maps


def site_generator_permutations(lattice, sites=None):
    """The permutations of ``site_generator_link_maps``."""
    return [permutation_from_link_map(lattice, assignments)
            for assignments in site_generator_link_maps(lattice, sites)]


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


def project_gauge_invariant(lattice, sites=None):
    """Decompose the basis into gauge orbits; equivalent to group averaging.

    ``sites`` restricts which gauge generators act; an empty list leaves the
    full space invariant.
    """
    dim = lattice.hilbert_dim
    if sites is not None and len(sites) == 0:
        return InvariantSubspace(dimension=dim,
                                 labels=np.arange(dim, dtype=np.int64),
                                 orbit_sizes=np.ones(dim, dtype=np.int64))
    gens = site_generator_permutations(lattice, sites)
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
