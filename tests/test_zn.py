"""Link configurations: plaquettes, gauge maps, C, P, projection, flux."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from hopquant import (
    LinkLattice,
    flux_from_plaquette,
    project_gauge_invariant,
    wrap_plaquette,
)
from hopquant import zn
from hopquant.errors import HopquantError
from hopquant.gauge_ham import allowed_parity_centers
from zn_oracle import (
    LinkConfig,
    apply_gauge,
    basis,
    charge_conjugate,
    parity_transform,
    plaquette,
)


def gauge_permutation(lattice, g):
    return zn.permutation_from_link_map(lattice, zn._gauge_link_map(lattice, g))


def charge_conjugation_permutation(lattice):
    return zn.permutation_from_link_map(lattice, zn._charge_link_map(lattice))


def parity_permutation(lattice, s0):
    return zn.permutation_from_link_map(lattice, zn._parity_link_map(lattice, s0))


def single_plaquette(n=3):
    return LinkLattice((2, 2), n, boundary="open")


def all_configs(lattice):
    return (LinkConfig.from_index(lattice, i) for i in range(lattice.hilbert_dim))


# --- plaquette ----------------------------------------------------------------

def test_lattice_rejects_linkless_extents():
    with pytest.raises(ValueError):
        LinkLattice((1, 1), 3, boundary="open")


def test_plaquette_zero_config():
    lat = single_plaquette()
    assert plaquette(LinkConfig.zeros(lat), (0, 0), 0, 1) == 0


def test_plaquette_direct_evaluation():
    # l(s,1)=1, l(s+e1,2)=2, l(s+e2,1)=0, l(s,2)=1 with N=5 gives p=2
    lat = single_plaquette(n=5)
    config = LinkConfig.zeros(lat)
    config.values[lat.link_index((0, 0), 0)] = 1
    config.values[lat.link_index((1, 0), 1)] = 2
    config.values[lat.link_index((0, 1), 0)] = 0
    config.values[lat.link_index((0, 0), 1)] = 1
    assert plaquette(config, (0, 0), 0, 1) == 2


def test_plaquette_gauge_invariance_exhaustive():
    # every config x every gauge transform, via the permutation picture
    from itertools import product as iproduct

    for n in (2, 3, 4):
        lat = LinkLattice((2, 2), n, boundary="periodic")
        dim = lat.hilbert_dim
        idx = np.arange(dim)
        digits = [(idx // n ** k) % n for k in range(lat.n_links)]
        plaq_values = []
        for s, i, k in lat.plaquettes:
            total = np.zeros(dim, dtype=np.int64)
            for l_idx, sign in lat.plaquette_links(s, i, k):
                total = total + sign * digits[l_idx]
            plaq_values.append(total % n)
        for g in iproduct(range(n), repeat=lat.n_sites):
            sigma = gauge_permutation(lat, np.array(g))
            for p in plaq_values:
                assert np.array_equal(p[sigma], p)


def test_plaquette_open_boundary_error():
    lat = single_plaquette()
    with pytest.raises(HopquantError):
        plaquette(LinkConfig.zeros(lat), (1, 1), 0, 1)


# --- gauge transforms -----------------------------------------------------------

def test_gauge_constant_is_identity():
    lat = LinkLattice((2, 2), 5)
    config = LinkConfig(lat, np.arange(lat.n_links) % 5)
    out = apply_gauge(config, np.full(lat.n_sites, 3))
    assert np.array_equal(out.values, config.values)


def test_gauge_delta_touches_only_adjacent_links():
    lat = LinkLattice((2, 2), 4)
    config = LinkConfig.zeros(lat)
    out = apply_gauge(config, {(0, 0): 1})
    changed = {lat.links[i] for i in np.nonzero(out.values)[0]}
    # 2d touching links on the periodic 2x2 lattice
    assert changed == {((0, 0), 0), ((0, 0), 1), ((1, 0), 0), ((0, 1), 1)}


def test_gauge_composition_exhaustive():
    lat = single_plaquette(n=4)
    rng = np.random.default_rng(42)
    for _ in range(20):
        g1 = rng.integers(0, 4, lat.n_sites)
        g2 = rng.integers(0, 4, lat.n_sites)
        s1 = gauge_permutation(lat, g1)
        s2 = gauge_permutation(lat, g2)
        s12 = gauge_permutation(lat, (g1 + g2) % 4)
        assert np.array_equal(s1[s2], s12)


def test_shift_covariance_commutes_with_gauge():
    # raising one link commutes with gauge relabeling as a map on configs
    lat = single_plaquette(n=3)
    rng = np.random.default_rng(43)
    for link in range(lat.n_links):
        raise_map = zn.permutation_from_link_map(
            lat, {idx: (idx, 1, 1 if idx == link else 0) for idx in range(lat.n_links)})
        g = rng.integers(0, 3, lat.n_sites)
        gauge_map = gauge_permutation(lat, g)
        assert np.array_equal(raise_map[gauge_map], gauge_map[raise_map])


# --- charge conjugation ----------------------------------------------------------

def test_charge_conjugate_values():
    lat = single_plaquette(n=5)
    config = LinkConfig(lat, [0, 3, 1, 4])
    out = charge_conjugate(config)
    assert list(out.values) == [0, 2, 4, 1]


def test_charge_conjugate_involution_exhaustive():
    lat = single_plaquette(n=4)
    for config in all_configs(lat):
        assert charge_conjugate(charge_conjugate(config)) == config


# --- parity -----------------------------------------------------------------------

def test_parity_uniform_config_negates():
    lat = LinkLattice((2, 2), 5)
    config = LinkConfig(lat, np.full(lat.n_links, 2))
    out = parity_transform(config, (0.5, 0.5))
    assert np.all(out.values == 3)  # -2 mod 5


def test_parity_involution_exhaustive():
    lat = LinkLattice((2, 2), 3)
    for center in [(0, 0), (0.5, 0.5), (1, 0), (0.5, 1.0)]:
        for config in all_configs(lat):
            assert parity_transform(parity_transform(config, center), center) == config


def test_parity_relocates_plaquettes_without_negation():
    # the link negation and the orientation reversal of the point map cancel:
    # p'(s,i,k) = +p(2 s0 - s - e_i - e_k, i, k), so flux is reflection-even
    lat = LinkLattice((2, 2), 5)
    rng = np.random.default_rng(44)
    s0 = (0.5, 0.5)
    for _ in range(20):
        config = LinkConfig(lat, rng.integers(0, 5, lat.n_links))
        for (s, i, k) in lat.plaquettes:
            src = [int(round(2 * s0[j] - s[j])) for j in range(2)]
            src[i] -= 1
            src[k] -= 1
            src = tuple(c % L for c, L in zip(src, lat.dims))
            p_after = plaquette(parity_transform(config, s0), s, i, k)
            p_before = plaquette(config, src, i, k)
            assert p_after == p_before


def test_parity_requires_half_integer_center():
    lat = LinkLattice((2, 2), 3)
    with pytest.raises(ValueError):
        parity_transform(LinkConfig.zeros(lat), (0.3, 0.0))


def test_parity_open_boundary_out_of_range():
    lat = single_plaquette(n=3)
    with pytest.raises(HopquantError):
        parity_transform(LinkConfig.zeros(lat), (0.0, 0.0))


def test_parity_open_plaquette_center_works():
    lat = single_plaquette(n=3)
    config = LinkConfig(lat, [1, 2, 0, 1])
    out = parity_transform(config, (0.5, 0.5))
    assert parity_transform(out, (0.5, 0.5)) == config


# --- wrap and flux -----------------------------------------------------------------

def test_wrap_examples():
    assert wrap_plaquette(0, 6) == 0
    assert wrap_plaquette(3, 6) == 3          # tie at N/2 stays positive
    assert wrap_plaquette(5, 6) == -1
    assert wrap_plaquette(4, 7) == -3
    assert wrap_plaquette(-8, 7) == -1


def test_wrap_range_property():
    for n in (2, 3, 4, 5, 8, 9):
        for p in range(-2 * n, 2 * n + 1):
            w = wrap_plaquette(p, n)
            assert -n / 2 < w <= n / 2
            assert (w - p) % n == 0


def test_flux_examples():
    assert flux_from_plaquette(0, 5, 1.0) == 0.0
    n = 6
    assert flux_from_plaquette(n // 2, n, 1.0) == pytest.approx(np.pi)
    assert flux_from_plaquette(n - 1, n, 1.0) == pytest.approx(-2 * np.pi / n)


def test_flux_antisymmetry_off_branch_edge():
    for n in (4, 5, 7):
        for p in range(1, n):
            if 2 * p == n:
                continue
            assert flux_from_plaquette(-p, n, 0.7) == pytest.approx(
                -flux_from_plaquette(p, n, 0.7))


def test_flux_units():
    # doubling the spacing divides the flux density by four
    assert flux_from_plaquette(1, 8, 2.0) == pytest.approx(
        flux_from_plaquette(1, 8, 1.0) / 4.0)


# --- gauge-invariant subspace --------------------------------------------------------

def test_permutations_agree_with_config_transforms():
    # the vectorized basis permutations must match the per-config maps
    lat = LinkLattice((2, 2), 3, boundary="periodic")
    rng = np.random.default_rng(45)
    g = rng.integers(0, 3, lat.n_sites)
    sigma_g = gauge_permutation(lat, g)
    sigma_c = charge_conjugation_permutation(lat)
    sigma_p = parity_permutation(lat, (0.5, 0.0))
    sigma_s = zn.permutation_from_link_map(
        lat, {idx: (idx, 1, 1 if k == 1 else 0) for idx, (_, k) in enumerate(lat.links)})
    for index in rng.integers(0, lat.hilbert_dim, size=40):
        config = LinkConfig.from_index(lat, int(index))
        assert sigma_g[index] == apply_gauge(config, g).index
        assert sigma_c[index] == charge_conjugate(config).index
        assert sigma_p[index] == parity_transform(config, (0.5, 0.0)).index
        shifted = config.values.copy()
        for l_idx, (s, k) in enumerate(lat.links):
            if k == 1:
                shifted[l_idx] += 1
        assert sigma_s[index] == LinkConfig(lat, shifted).index


@pytest.mark.parametrize("dims, n, boundary", [((2, 2, 2), 2, "open"),
                                               ((3, 2), 3, "periodic")])
def test_permutations_agree_with_config_transforms_off_square(dims, n, boundary):
    # unequal extents and 3D keep a wrong link-to-axis order from cancelling
    lat = LinkLattice(dims, n, boundary=boundary)
    rng = np.random.default_rng(46)
    g = {s: int(rng.integers(0, n)) for s in lat.sites}
    centers = allowed_parity_centers(lat)
    assert centers
    raised = lat.n_links - 2
    checks = [(gauge_permutation(lat, g), lambda c: apply_gauge(c, g)),
              (zn.permutation_from_link_map(
                  lat, {idx: (idx, 1, 2 if idx == raised else 0) for idx in range(lat.n_links)}),
               lambda c: LinkConfig(lat, c.values + 2 * (np.arange(lat.n_links) == raised)))]
    checks += [(parity_permutation(lat, s0), lambda c, s0=s0: parity_transform(c, s0))
                for s0 in centers]
    indices = np.concatenate([[0, lat.hilbert_dim - 1],
                              rng.integers(0, lat.hilbert_dim, size=40)])
    for sigma, transform in checks:
        for index in indices:
            config = LinkConfig.from_index(lat, int(index))
            assert sigma[index] == transform(config).index


def test_projection_no_sites_is_full_space():
    lat = LinkLattice((2, 1), 4, boundary="open")  # single link
    sub = project_gauge_invariant(lat, sites=[])
    assert sub.dimension == lat.hilbert_dim


def test_projection_single_plaquette_dimension_is_n():
    for n in (2, 3, 4):
        lat = single_plaquette(n)
        sub = project_gauge_invariant(lat)
        assert sub.dimension == n


@pytest.mark.parametrize("dims, n, boundary, sites", [
    ((2, 2), 5, "periodic", None),
    ((2, 2), 3, "periodic", [(0, 0), (1, 1)]),
    ((3, 2), 2, "periodic", None),
    ((3, 3), 2, "open", [(1, 1)]),
    ((2, 2, 2), 2, "open", None),
])
def test_projection_labels_match_connected_components(dims, n, boundary, sites):
    # oracle: the connected components of the graph joining j to sigma(j)
    lat = LinkLattice(dims, n, boundary=boundary)
    dim = lat.hilbert_dim
    gens = zn.site_generator_permutations(lat, sites)
    rows = np.tile(np.arange(dim), len(gens))
    graph = sp.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, np.concatenate(gens))),
                          shape=(dim, dim))
    count, labels = connected_components(graph, directed=False)
    sub = project_gauge_invariant(lat, sites)
    assert sub.dimension == count
    assert np.array_equal(sub.labels, labels)
    assert np.array_equal(sub.orbit_sizes, np.bincount(labels))


def test_projection_matches_group_averaging_oracle():
    # oracle: average all gauge permutation matrices and compare projectors
    lat = single_plaquette(3)
    dim = lat.hilbert_dim
    pi = np.zeros((dim, dim))
    count = 0
    for g0 in range(3):
        for g1 in range(3):
            for g2 in range(3):
                for g3 in range(3):
                    sigma = gauge_permutation(lat, np.array([g0, g1, g2, g3]))
                    mat = np.zeros((dim, dim))
                    mat[sigma, np.arange(dim)] = 1.0
                    pi += mat
                    count += 1
    pi /= count
    sub = project_gauge_invariant(lat)
    span = basis(sub).toarray()
    assert sub.dimension == int(round(np.trace(pi)))
    assert np.abs(pi - span @ span.T).max() < 1e-12


def test_projection_2x2_periodic_matches_averaging_oracle():
    from itertools import product as iproduct

    lat = LinkLattice((2, 2), 2, boundary="periodic")
    sub = project_gauge_invariant(lat)
    # the effective group (gauge modulo constants) acts freely: 256 / 8
    assert sub.dimension == 32
    span = basis(sub)
    gram = (span.T @ span).toarray()
    assert np.abs(gram - np.eye(sub.dimension)).max() < 1e-12
    # exhaustive group averaging reproduces the same projector
    dim = lat.hilbert_dim
    pi = np.zeros((dim, dim))
    count = 0
    for g in iproduct(range(2), repeat=lat.n_sites):
        sigma = gauge_permutation(lat, np.array(g))
        mat = np.zeros((dim, dim))
        mat[sigma, np.arange(dim)] = 1.0
        pi += mat
        count += 1
    pi /= count
    assert int(round(np.trace(pi))) == 32
    assert np.abs(pi - (span @ span.T).toarray()).max() < 1e-12
