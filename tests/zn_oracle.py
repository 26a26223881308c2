"""Per-configuration oracles for the Z(N) link basis and its symmetries.

They apply the symmetries of ``hopquant.zn``, each a pair (A, b) sending
the link values x to A x + b mod N, to one configuration at a time, so the
tests can check the vectorized basis permutations against them.
``basis`` spans a gauge-invariant subspace with scipy.
"""

import numpy as np
import scipy.sparse as sp

from hopquant import zn


def basis(subspace):
    """Sparse (hilbert_dim x dimension) matrix of the orthonormal orbit sums of
    a ``zn.InvariantSubspace``, one uniform superposition per orbit."""
    dim = subspace.labels.size
    data = 1.0 / np.sqrt(subspace.orbit_sizes[subspace.labels])
    return sp.csr_matrix((data, (np.arange(dim), subspace.labels)),
                         shape=(dim, subspace.dimension))


class LinkConfig:
    """One basis state: an integer in {0, ..., N-1} per link."""

    def __init__(self, lattice, values):
        values = np.asarray(values, dtype=np.int64) % lattice.n
        if values.shape != (lattice.n_links,):
            raise ValueError(f"need {lattice.n_links} link values, got {values.shape}")
        self.lattice = lattice
        self.values = values

    @classmethod
    def zeros(cls, lattice):
        return cls(lattice, np.zeros(lattice.n_links, dtype=np.int64))

    @classmethod
    def from_index(cls, lattice, index):
        if not 0 <= index < lattice.hilbert_dim:
            raise ValueError("index out of range")
        vals = np.empty(lattice.n_links, dtype=np.int64)
        for k in range(lattice.n_links):
            index, vals[k] = divmod(index, lattice.n)
        return cls(lattice, vals)

    @property
    def index(self):
        """Little-endian mixed-radix linear index."""
        idx = 0
        for v in self.values[::-1]:
            idx = idx * self.lattice.n + int(v)
        return idx

    def __eq__(self, other):
        return (isinstance(other, LinkConfig)
                and self.lattice is other.lattice
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((id(self.lattice), self.values.tobytes()))


def plaquette(config, s, i, k):
    """p = l(s,i) + l(s+i,k) - l(s+k,i) - l(s,k) mod N."""
    lat = config.lattice
    total = sum(sign * config.values[l_idx]
                for l_idx, sign in lat.plaquette_links(s, i, k))
    return int(total) % lat.n


def apply_map(config, symmetry):
    """Image of ``config`` under a map (A, b) in ``zn.permutation``'s format."""
    a, b = symmetry
    return LinkConfig(config.lattice, a @ config.values + b)


def apply_gauge(config, g):
    """Relabel links by l'(s,k) = l(s,k) + g(s+k) - g(s) mod N."""
    return apply_map(config, zn._gauge_map(config.lattice, g))


def charge_conjugate(config):
    """Negate every link value mod N; an involution for all N."""
    return apply_map(config, zn._charge_map(config.lattice))


def parity_transform(config, s0):
    """Point reflection about s0 combined with negation.

    Link (s, k) receives -l(2*s0 - s - e_k, k). On open lattices the source
    link must exist, otherwise an error is raised.
    """
    return apply_map(config, zn._parity_map(config.lattice, s0))


def shift_map(lattice, b):
    """The map (1, b), which raises each link l by b[l]."""
    return np.eye(lattice.n_links, dtype=np.int64), np.asarray(b, dtype=np.int64)


def direction_shift(lattice, direction):
    """Every link along ``direction`` raised by one, which changes no plaquette."""
    return shift_map(lattice, [k == direction for _, k in lattice.links])
