"""Link-field Hamiltonians: build, symmetries, spectra, constants."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hopquant import (
    HoppingKernel,
    LatticeGrid,
    LinkLattice,
    MaxwellPreset,
    SparseHermitianOperator,
    build_gauge_hamiltonian,
    build_particle_hamiltonian,
    compare_to_reference,
    extract_continuum_constants,
    project_gauge_invariant,
    random_unitary_kernel,
    reference_ks_hamiltonian,
    spectrum,
    symmetry_commutator_norms,
    taylor_consistency_check,
)
from hopquant import gauge_ham, linop, zn
from hopquant.errors import (
    ChargeConjugationError,
    GroundStateSignError,
    HermiticityError,
    HilbertDimensionError,
    HopquantError,
    ReflectionSymmetryError,
)
from hopquant.gauge_ham import GaugeHoppingSpec, LinearLinkFunctional, commutator_norms
from sparse_oracle import from_matrix
from zn_oracle import LinkConfig, basis, plaquette


def single_link(n):
    return LinkLattice((2, 1), n, boundary="open")


def single_plaquette(n):
    return LinkLattice((2, 2), n, boundary="open")


class CallableResponseSpec(GaugeHoppingSpec):
    """Wrap a response function fn(pvals, n) -> amplitude.

    ``fn`` is bound by ``GaugeHoppingSpec``'s contract: column c of its
    result depends only on column c of ``pvals``, because the builder calls
    it on a table of plaquette-value combinations, not on configurations.
    """

    def __init__(self, fn):
        self.fn = fn

    def response(self, pvals, n):
        return self.fn(np.asarray(pvals, dtype=float), n)


class OddResponseSpec(GaugeHoppingSpec):
    """Adds a flux-odd term; Hermitian but charge-conjugation breaking."""

    def __init__(self, electric, odd):
        self.electric = electric
        self.odd = odd

    def response(self, pvals, n):
        pvals = np.asarray(pvals, dtype=float)
        return -self.electric + self.odd * np.sin(2 * np.pi * pvals / n).sum(axis=0)


# Rules that read more than plaquette values, for the certifier to catch. Each
# gives the (raise, lower) pair of link ``l_idx`` from ``d``, the value of that
# link in every configuration; ``_rule_operator`` assembles them.

def link_value_rule(lat, l_idx, d):
    """Peeks at the raw link value: deliberately gauge breaking.

    The bias is evaluated halfway along the move so the pair stays Hermitian.
    """
    up = -1.0 + 0.1 * np.cos(2 * np.pi * (d + 0.5) / lat.n)
    down = -1.0 + 0.1 * np.cos(2 * np.pi * (d - 0.5) / lat.n)
    return up, down


def site_dependent_rule(lat, l_idx, d):
    """Per-link electric strength: gauge invariant but parity breaking."""
    lam = 1.0 + 0.25 * l_idx
    return np.full(d.size, -lam), np.full(d.size, -lam)


def unpaired_rule(lat, l_idx, d):
    """Constant but unequal up/down amplitudes: violates unitary hopping."""
    return np.full(d.size, 1.0), np.full(d.size, 2.0)


def phase_rule(skew=0.0):
    """Complex per-link phases on a link-value bias; ``skew`` unpairs them."""
    def pair(lat, l_idx, d):
        phase = np.exp(0.3j * (l_idx + 1))
        up = -phase * (1.0 + 0.1 * np.cos(2 * np.pi * (d + 0.5) / lat.n))
        down = -np.conj(phase) * (1.0 + 0.1 * np.cos(2 * np.pi * (d - 0.5) / lat.n))
        return up, down * (1.0 + skew * 1j)
    return pair


def _rule_operator(lat, pair):
    """The certified one-link-move operator of a rule, through the hopping assembler."""
    idx = np.arange(lat.hilbert_dim)
    amplitudes = (amp for l_idx in range(lat.n_links)
                  for amp in pair(lat, l_idx, (idx // lat.n ** l_idx) % lat.n))
    return linop._assemble_hopping(zn._basis_grid_shape(lat), True,
                                   gauge_ham._move_offsets(lat)[1:], amplitudes,
                                   dtype=complex)


# --- construction ---------------------------------------------------------------

def test_single_link_circulant_spectrum():
    for n in (3, 5, 8):
        lat = single_link(n)
        op = build_gauge_hamiltonian(lat, MaxwellPreset(electric=1.0, magnetic=0.0))
        w = np.linalg.eigvalsh(op.to_dense())
        expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
        assert np.abs(np.sort(w) - expected).max() < 1e-12


def test_electric_only_is_kronecker_sum_of_link_circulants():
    n = 3
    lat = single_plaquette(n)
    op = build_gauge_hamiltonian(lat, MaxwellPreset(electric=0.7, magnetic=0.0))
    ring = np.zeros((n, n))
    for k in range(n):
        ring[k, (k + 1) % n] = ring[(k + 1) % n, k] = -0.7
    eye = np.eye(n)
    expected = np.zeros((n ** 4, n ** 4))
    for pos in range(4):
        mats = [eye] * 4
        mats[pos] = ring
        term = mats[0]
        for m in mats[1:]:
            term = np.kron(m, term)  # little-endian: link 0 varies fastest
        expected += term
    assert np.abs(op.to_dense() - expected).max() < 1e-12


def test_zero_spec_gives_zero_operator():
    lat = single_plaquette(3)
    op = build_gauge_hamiltonian(lat, MaxwellPreset(electric=0.0, magnetic=0.0))
    assert op.matrix.nnz == 0 or np.abs(op.matrix.data).max() == 0.0


def test_hamiltonian_strictly_off_diagonal():
    lat = single_plaquette(4)
    op = build_gauge_hamiltonian(lat, MaxwellPreset(electric=1.0, magnetic=2.0))
    assert np.abs(op.matrix.diagonal()).max() == 0.0


def test_unpaired_amplitudes_rejected():
    # a response that is not N-periodic jumps where the lower's midpoint wraps
    with pytest.raises(HermiticityError, match="unitary hopping"):
        build_gauge_hamiltonian(single_plaquette(4),
                                CallableResponseSpec(lambda pvals, n: pvals.sum(axis=0)))
    with pytest.raises(HermiticityError):
        _rule_operator(single_link(4), unpaired_rule)


def test_complex_response_refused():
    # a complex response is never Hermitian at the midpoint, and a real build refuses it
    spec = CallableResponseSpec(
        lambda pvals, n: -1.0 + 0.1j * np.cos(2 * np.pi * pvals / n).sum(axis=0))
    with pytest.raises(ValueError, match="complex amplitude"):
        build_gauge_hamiltonian(single_plaquette(3), spec)


def test_dimension_cap_enforced():
    # 9^8 > 2^24 = DIMENSION_CAP; the cap, not the memory check, must raise
    lat = LinkLattice((2, 2), 9, boundary="periodic")
    assert lat.hilbert_dim > gauge_ham.DIMENSION_CAP
    with pytest.raises(HilbertDimensionError, match="exceeds cap"):
        build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))


def test_hermiticity_certificate_exact_for_preset():
    for n in (2, 3, 5):
        for dims, boundary in (((2, 2), "periodic"), ((2, 2), "open"),
                               ((2, 2, 2), "open")):
            lat = LinkLattice(dims, n, boundary=boundary)
            if lat.hilbert_dim > 70000:
                continue
            op = build_gauge_hamiltonian(lat, MaxwellPreset(1.3, 0.8))
            assert op.hermiticity_defect == 0.0
            assert np.abs(op.matrix.diagonal()).max() == 0.0


def test_open_cube_symmetries():
    # a genuinely 3D system: the 12 edges of one cube
    lat = LinkLattice((2, 2, 2), 2, boundary="open")
    assert lat.n_links == 12
    assert len(lat.plaquettes) == 6
    assert gauge_ham.allowed_parity_centers(lat) == [(0.5, 0.5, 0.5)]
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    report = symmetry_commutator_norms(op, lat)
    assert report.gauge <= 1e-12
    assert report.charge_conjugation <= 1e-12
    assert report.parity <= 1e-12


def _link_move_oracle(lat, electric, magnetic):
    """Dense hopping and reference Hamiltonians, one configuration at a time."""
    n, dim = lat.n, lat.hilbert_dim
    hop = np.zeros((dim, dim))
    ref = np.zeros((dim, dim))
    for j in range(dim):
        config = LinkConfig.from_index(lat, j)
        pvals = [plaquette(config, *pl) for pl in lat.plaquettes]
        ref[j, j] = 2.0 * electric * lat.n_links + magnetic * sum(
            1.0 - np.cos(2.0 * np.pi * p / n) for p in pvals)
        for l_idx in range(lat.n_links):
            for step in (+1, -1):
                values = config.values.copy()
                values[l_idx] += step
                target = LinkConfig(lat, values).index
                # adjacent plaquettes halfway along the move
                mid = [pvals[p] + 0.5 * step * sign
                       for p, sign in lat.link_adjacency(l_idx)]
                hop[j, target] += -electric + magnetic / 8.0 * sum(
                    1.0 - np.cos(2.0 * np.pi * m / n) for m in mid)
                ref[j, target] += -electric
    return hop, ref


def test_link_move_builders_match_configuration_oracle():
    # at N=2 raise and lower reach the same configuration and must add up
    for lat in (single_link(2), single_plaquette(2), single_plaquette(3),
                LinkLattice((2, 2), 2, boundary="periodic")):
        hop, ref = _link_move_oracle(lat, 1.3, 0.8)
        op_hop = build_gauge_hamiltonian(lat, MaxwellPreset(1.3, 0.8))
        op_ref = reference_ks_hamiltonian(lat, 1.3, 0.8)
        assert np.abs(op_hop.to_dense() - hop).max() <= 1e-12
        assert np.abs(op_ref.to_dense() - ref).max() <= 1e-12


def _coo_oracle(lat, link_amplitudes, diagonal=None):
    """Link-move Hamiltonian from COO triplets, one dim-length block per move."""
    n, dim = lat.n, lat.hilbert_dim
    idx = np.arange(dim, dtype=np.int64)
    digits = [(idx // n ** l_idx) % n for l_idx in range(lat.n_links)]
    plaq = [np.mod(sum(sign * digits[l_idx] for l_idx, sign in lat.plaquette_links(*pl)), n)
            for pl in lat.plaquettes]
    rows, cols, data = [], [], []
    if diagonal is not None:
        rows.append(idx)
        cols.append(idx)
        data.append(diagonal(plaq))
    for l_idx in range(lat.n_links):
        d = digits[l_idx]
        for step, amp in zip((+1, -1), link_amplitudes(l_idx, d, plaq)):
            rows.append(idx)
            cols.append(idx + (((d + step) % n) - d) * n ** l_idx)
            data.append(np.broadcast_to(np.asarray(amp), (dim,)))
    data = np.concatenate(data)
    if np.isrealobj(data) or np.abs(data.imag).max() == 0.0:
        data = data.real.astype(float)
    return sp.coo_matrix((data, (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim)).tocsr()


def _spec_oracle(lat, spec):
    """A spec's response at the midpoint of every move, on every configuration."""
    def link_amplitudes(l_idx, d, plaq):
        adj = lat.link_adjacency(l_idx)
        pv = (np.stack([plaq[p] for p, _ in adj]).astype(float) if adj
              else np.zeros((0, lat.hilbert_dim)))
        half = 0.5 * np.array([sg for _, sg in adj], dtype=float)[:, np.newaxis]
        return spec.response(pv + half, lat.n), spec.response(pv - half, lat.n)
    return _coo_oracle(lat, link_amplitudes)


def _rule_oracle(lat, pair):
    return _coo_oracle(lat, lambda l_idx, d, plaq: pair(lat, l_idx, d))


def _reference_oracle(lat, electric, magnetic):
    def diagonal(plaq):
        diag = np.full(lat.hilbert_dim, 2.0 * electric * lat.n_links)
        for p in plaq:
            diag = diag + magnetic * 2.0 * np.sin(np.pi * p / lat.n) ** 2
        return diag
    return _coo_oracle(lat, lambda l_idx, d, plaq: (-electric, -electric), diagonal)


def _assert_same_csr(got, want):
    got = got.copy()
    got.sort_indices()  # the assembler keeps each row in move order
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _assert_move_order(got, lat, diagonal):
    """Row x holds its diagonal entry if H has one, then the raise and the
    lower of each link in link order, which are one entry at N=2."""
    n, idx = lat.n, np.arange(lat.hilbert_dim)
    want = [idx] if diagonal else []
    for l_idx in range(lat.n_links):
        d = (idx // n ** l_idx) % n
        want += [idx + ((d + step) % n - d) * n ** l_idx for step in ((1,) if n == 2 else (1, -1))]
    want = np.stack(want, axis=1)
    assert np.array_equal(got.indptr, np.arange(lat.hilbert_dim + 1) * want.shape[1])
    assert np.array_equal(got.indices, want.reshape(-1))


ORACLE_LATTICES = [single_link(2), single_link(3), single_plaquette(2), single_plaquette(4),
                   LinkLattice((2, 2), 2, boundary="periodic"),
                   LinkLattice((2, 2), 3, boundary="periodic"),
                   LinkLattice((2, 2, 2), 2, boundary="open")]


def _callable_response(pvals, n):
    # N-periodic, so Hermitian, but odd in the first adjacent plaquette only
    return (-1.0 + 0.3 * np.cos(2 * np.pi * pvals / n).sum(axis=0)
            + 0.05 * np.sin(2 * np.pi * pvals[:1] / n).sum(axis=0))


def test_direct_csr_assembly_matches_coo_oracle():
    # N=2 sums raise and lower into one entry; the single link is in no plaquette.
    # The builder tabulates responses; the oracle evaluates them on every configuration.
    specs = [MaxwellPreset(1.3, 0.8), OddResponseSpec(electric=1.0, odd=0.2),
             CallableResponseSpec(_callable_response),
             CallableResponseSpec(lambda pvals, n: -0.5)]
    for lat in ORACLE_LATTICES:
        for spec in specs:
            got = build_gauge_hamiltonian(lat, spec).matrix
            _assert_same_csr(got, _spec_oracle(lat, spec))
            _assert_move_order(got, lat, diagonal=False)
        got = _rule_operator(lat, phase_rule()).matrix  # complex entries
        _assert_same_csr(got, _rule_oracle(lat, phase_rule()))
        _assert_move_order(got, lat, diagonal=False)
        got = reference_ks_hamiltonian(lat, 1.3, 0.8).matrix
        _assert_same_csr(got, _reference_oracle(lat, 1.3, 0.8))
        _assert_move_order(got, lat, diagonal=True)


def test_pairing_defect_equals_generic_defect():
    # at N=2 the summed unpaired entries are Hermitian again
    odd = OddResponseSpec(electric=1.0, odd=0.2)
    rules = [link_value_rule, site_dependent_rule, phase_rule(), phase_rule(skew=1e-14),
             unpaired_rule, phase_rule(skew=1e-3)]
    rejected = 0
    for lat in ORACLE_LATTICES:
        cases = [(lambda: build_gauge_hamiltonian(lat, odd), _spec_oracle(lat, odd))]
        cases += [(lambda pair=pair: _rule_operator(lat, pair), _rule_oracle(lat, pair))
                  for pair in rules]
        for build, oracle in cases:
            want = from_matrix(oracle, tol=np.inf)
            if want.hermiticity_defect <= 1e-12:
                assert build().hermiticity_defect == want.hermiticity_defect
                continue
            with pytest.raises(HermiticityError) as info:
                build()
            assert info.value.defect == want.hermiticity_defect
            rejected += 1
    assert rejected >= len(ORACLE_LATTICES) + 3


def test_oversize_assembly_fails_before_allocating(monkeypatch):
    lat = LinkLattice((2, 2), 7, boundary="periodic")  # 7^8 = 5.8M, under the cap
    assert lat.hilbert_dim < gauge_ham.DIMENSION_CAP
    kernel = HoppingKernel.nearest_neighbor(LatticeGrid((180, 180, 180), 1.0), 1.0)
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: 2 ** 30)
    tracemalloc.start()
    try:
        with pytest.raises(HilbertDimensionError, match="GiB"):
            build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
        with pytest.raises(HilbertDimensionError, match="GiB"):
            reference_ks_hamiltonian(lat, 1.0, 1.0)
        with pytest.raises(HilbertDimensionError, match="GiB"):
            build_particle_hamiltonian(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_gauge_memory_estimate_counts_plaquette_values(monkeypatch):
    # 4 one-byte plaquette arrays beside a 16-entry int32/float64 CSR row per state
    lat = LinkLattice((2, 2), 3, boundary="periodic")
    dim = lat.hilbert_dim
    without = dim * 16 * 12 + (dim + 1) * 4 + linop.ASSEMBLY_BYTES_PER_STATE * dim
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: without + 4 * dim - 1)
    with pytest.raises(HilbertDimensionError, match="GiB"):
        build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: without + 4 * dim)
    build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))


def test_assembly_peak_memory_bounded_by_csr():
    lat = LinkLattice((2, 2), 4, boundary="periodic")
    kernel = random_unitary_kernel(LatticeGrid((32, 32, 32), 1.0), np.random.default_rng(5))
    for build in (lambda: build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)),
                  lambda: reference_ks_hamiltonian(lat, 1.0, 1.0),
                  lambda: build_particle_hamiltonian(kernel)):
        tracemalloc.start()
        try:
            op = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = op.matrix
        assert peak <= 3 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


# --- symmetries -------------------------------------------------------------------

def test_maxwell_preset_commutes_with_everything():
    lat = LinkLattice((2, 2), 3, boundary="periodic")
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    report = symmetry_commutator_norms(op, lat)
    assert report.gauge <= 1e-12
    assert report.charge_conjugation <= 1e-12
    assert report.parity <= 1e-12


def test_link_value_spec_breaks_gauge():
    lat = single_plaquette(3)
    op = _rule_operator(lat, link_value_rule)
    report = symmetry_commutator_norms(op, lat)
    assert report.gauge > 1e-3


def test_odd_response_breaks_charge_conjugation_only():
    lat = single_plaquette(3)
    op = build_gauge_hamiltonian(lat, OddResponseSpec(electric=1.0, odd=0.2))
    report = symmetry_commutator_norms(op, lat)
    assert report.gauge <= 1e-12
    assert report.charge_conjugation > 1e-3
    assert report.parity <= 1e-12


def test_site_dependent_spec_breaks_parity():
    lat = LinkLattice((2, 2), 3, boundary="periodic")
    op = _rule_operator(lat, site_dependent_rule)
    report = symmetry_commutator_norms(op, lat)
    assert report.gauge <= 1e-12
    assert report.parity > 1e-3


def _every_parity_center(lat):
    """Every half-integer center in [0, L) whose reflection maps the links onto
    themselves, c and c + L/2 both listed on a periodic axis."""
    centers = []
    for twice in itertools.product(*(range(2 * L) for L in lat.dims)):
        s0 = tuple(c / 2.0 for c in twice)
        try:
            centers.append((s0, zn._parity_link_map(lat, s0)))
        except HopquantError:
            pass
    return centers


def test_parity_centers_are_distinct_reflections():
    for dims, n in (((2, 2), 3), ((3, 2), 2)):
        lat = LinkLattice(dims, n, boundary="periodic")
        maps = [zn._parity_link_map(lat, s0) for s0 in gauge_ham.allowed_parity_centers(lat)]
        assert len(maps) == np.prod(dims)
        assert all(a != b for a, b in itertools.combinations(maps, 2))
        assert all(m in maps for _, m in _every_parity_center(lat))
    # the parity norm is the same maximum over the same distinct permutations
    lat = LinkLattice((2, 2), 3, boundary="periodic")
    op = _rule_operator(lat, site_dependent_rule)
    old = commutator_norms(op, lat, [m for _, m in _every_parity_center(lat)])
    assert max(old) > 1e-3
    assert symmetry_commutator_norms(op, lat).parity == max(old)
    for dims, centers in (((2, 2), [(0.5, 0.5)]), ((2, 2, 2), [(0.5, 0.5, 0.5)])):
        lat = LinkLattice(dims, 2, boundary="open")
        assert gauge_ham.allowed_parity_centers(lat) == centers
        assert centers == [s0 for s0, _ in _every_parity_center(lat)]


def test_projected_sector_invariant_under_hamiltonian():
    lat = single_plaquette(3)
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    sub = project_gauge_invariant(lat)
    span = basis(sub)
    hb = op.matrix @ span
    inside = span @ (span.T @ hb)
    leak = (hb - inside).tocoo()
    assert (np.abs(leak.data).max() if leak.nnz else 0.0) <= 1e-12


def _dense_commutator_oracle(op, sigma, block=512):
    """max|P H P^T - H| over dense row blocks, with P e_j = e_sigma(j)."""
    h = op.matrix
    inv = np.argsort(sigma)
    worst = 0.0
    for start in range(0, op.dimension, block):
        rows = np.arange(start, min(start + block, op.dimension))
        permuted = h[inv[rows]].toarray()[:, inv]  # (P H P^T)[r, c] = H[inv r, inv c]
        worst = max(worst, float(np.abs(permuted - h[rows].toarray()).max()))
    return worst


def _symmetry_link_maps(lat, rng):
    """Site generators, a random gauge transform, C, every parity, the direction shifts."""
    maps = zn.site_generator_link_maps(lat)
    maps.append(zn._gauge_link_map(lat, rng.integers(0, lat.n, lat.n_sites)))
    maps.append(zn._charge_link_map(lat))
    maps += [zn._parity_link_map(lat, s0) for s0 in gauge_ham.allowed_parity_centers(lat)]
    maps += [{idx: (idx, 1, 1 if k == direction else 0) for idx, (_, k) in enumerate(lat.links)}
             for direction in range(lat.ndim) if lat.dims[direction] > 1]
    return maps


def _link_cycle(lat):
    """A 3-cycle of links with a sign flip: no symmetry, but a bijection whose
    move map A is not an involution, so pairing sigma with A^-1 shows."""
    cycle = {idx: (idx, 1, 0) for idx in range(lat.n_links)}
    cycle.update({0: (1, -1, 1), 1: (2, 1, 0), 2: (0, 1, 0)})
    return cycle


def _random_move_operator(lat, rng):
    """Random complex amplitudes on the diagonal and on every one-link move; not Hermitian."""
    offsets = gauge_ham._move_offsets(lat)
    amplitudes = [rng.standard_normal(lat.hilbert_dim) + 1j * rng.standard_normal(lat.hilbert_dim)
                  for _ in offsets]
    return linop._assemble_hopping(zn._basis_grid_shape(lat), True, offsets, amplitudes,
                                   dtype=complex, tol=np.inf)


def test_exact_commutator_matches_dense_oracle():
    # at N >= 3 the gauge generators and shifts are not involutions, so P and P^T differ
    rng = np.random.default_rng(12)
    specs = [MaxwellPreset(1.3, 0.8), OddResponseSpec(electric=1.0, odd=0.2)]
    rules = [site_dependent_rule, link_value_rule, phase_rule()]
    breaking = set()
    for lat in (single_link(5), single_plaquette(3), single_plaquette(4),
                LinkLattice((2, 2), 2, boundary="periodic")):
        symmetries = _symmetry_link_maps(lat, rng)
        maps = symmetries + ([_link_cycle(lat)] if lat.n_links >= 3 else [])
        ops = [build_gauge_hamiltonian(lat, spec) for spec in specs]
        ops += [_rule_operator(lat, pair) for pair in rules]
        ops += [reference_ks_hamiltonian(lat, 1.3, 0.8), _random_move_operator(lat, rng)]
        for i, op in enumerate(ops):
            want = [_dense_commutator_oracle(op, zn.permutation_from_link_map(lat, m))
                    for m in maps]
            assert commutator_norms(op, lat, maps) == want
            breaking.update(i for w in want[:len(symmetries)] if w > 1e-3)
    assert breaking == {1, 2, 3, 4, 6}  # every symmetry-breaking operator was caught
    # the open cube (dim 4096): two generators, a gauge transform, C, parity, a shift, the cycle
    cube = LinkLattice((2, 2, 2), 2, boundary="open")
    maps = _symmetry_link_maps(cube, rng)
    maps = maps[:2] + maps[len(cube.sites):len(cube.sites) + 3] + [maps[-1], _link_cycle(cube)]
    for op in (_rule_operator(cube, site_dependent_rule),
               reference_ks_hamiltonian(cube, 1.3, 0.8)):
        want = [_dense_commutator_oracle(op, zn.permutation_from_link_map(cube, m))
                for m in maps]
        assert commutator_norms(op, cube, maps) == want


def test_commutator_rejects_non_permutation():
    lat = single_plaquette(5)
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    identity = {idx: (idx, 1, 0) for idx in range(lat.n_links)}
    repeated = {**identity, 1: (0, 1, 0)}
    missing = {idx: identity[idx] for idx in range(lat.n_links - 1)}
    doubling = {**identity, 2: (2, 2, 0)}  # a bijection of Z_5, but not of the moves
    for assignments in (repeated, missing, doubling):
        with pytest.raises(ValueError, match="not a bijection"):
            commutator_norms(op, lat, [identity, assignments])
    assert commutator_norms(op, lat, [identity]) == [0.0]


def test_commutator_rejects_entries_off_the_moves():
    lat = single_plaquette(3)
    h = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)).matrix.tolil()
    h[0, 4] = h[4, 0] = 0.25  # configuration 4 differs from 0 on two links
    with pytest.raises(ValueError, match="outside the one-link moves"):
        commutator_norms(from_matrix(h.tocsr()), lat, [zn._charge_link_map(lat)])


def test_commutator_rejects_rows_out_of_move_order():
    lat = single_plaquette(3)
    h = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)).matrix.copy()
    h.sort_indices()
    with pytest.raises(ValueError, match="outside the one-link moves"):
        commutator_norms(from_matrix(h), lat, [zn._charge_link_map(lat)])


def test_commutator_reads_h_in_blocks(monkeypatch):
    # blocks of 9 rows, so the shifts of the two high links change from block to block
    monkeypatch.setattr(gauge_ham, "_BLOCK_ROWS", 9)
    lat = single_plaquette(3)
    maps = _symmetry_link_maps(lat, np.random.default_rng(7)) + [_link_cycle(lat)]
    for op in (_rule_operator(lat, link_value_rule), reference_ks_hamiltonian(lat, 1.3, 0.8)):
        want = [_dense_commutator_oracle(op, zn.permutation_from_link_map(lat, m)) for m in maps]
        assert commutator_norms(op, lat, maps) == want
    # the same matrix with the last row's first two entries swapped
    h = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)).matrix.copy()
    last = slice(h.indptr[-2], h.indptr[-2] + 2)
    h.indices[last], h.data[last] = h.indices[last][::-1].copy(), h.data[last][::-1].copy()
    with pytest.raises(ValueError, match="outside the one-link moves"):
        commutator_norms(from_matrix(h), lat, [zn._charge_link_map(lat)])


def test_nan_amplitude_fails_every_certificate():
    lat = single_plaquette(3)
    with pytest.raises(HermiticityError, match="unitary hopping") as info:
        build_gauge_hamiltonian(lat, CallableResponseSpec(lambda pvals, n: np.nan))
    assert np.isnan(info.value.defect)
    h = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)).matrix.copy()
    h.data[7] = np.nan
    with pytest.raises(HermiticityError) as info:
        from_matrix(h, tol=np.inf)
    assert np.isnan(info.value.defect)
    # the commutators of that operator, certified with a defect supplied by hand
    op = SparseHermitianOperator(h.data, h.indices, h.indptr, 0.0)
    report = symmetry_commutator_norms(op, lat)
    assert np.isnan(report.gauge) and np.isnan(report.charge_conjugation)
    assert np.isnan(report.parity) and np.isnan(report.max_norm)


def test_certifier_memory_checked_before_allocating(monkeypatch):
    lat = LinkLattice((2, 2), 4, boundary="periodic")
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    m = op.matrix
    monkeypatch.setattr(linop, "_available_memory_bytes",
                        lambda: m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
    tracemalloc.start()
    try:
        with pytest.raises(HilbertDimensionError, match="certifying dimension 65536"):
            symmetry_commutator_norms(op, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_certifier_peak_within_its_memory_budget(monkeypatch):
    # the check budgets four 8-byte words per state beside H and the amplitudes
    lat = LinkLattice((2, 2), 4, boundary="periodic")
    dim, op = lat.hilbert_dim, build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    amplitudes = len({tuple(np.mod(o, lat.n)) for o in gauge_ham._move_offsets(lat)}) * dim * 8
    tracemalloc.start()
    try:
        symmetry_commutator_norms(op, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - amplitudes <= 4 * 8 * dim
    held = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes + amplitudes
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: held + 4 * 8 * dim - 1)
    with pytest.raises(HilbertDimensionError, match="certifying dimension 65536"):
        symmetry_commutator_norms(op, lat)
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: held + 4 * 8 * dim)
    symmetry_commutator_norms(op, lat)


def test_spectrum_invariant_under_global_direction_shift():
    lat = LinkLattice((2, 2), 3, boundary="periodic")
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    shifts = [{idx: (idx, 1, 1 if k == direction else 0) for idx, (_, k) in enumerate(lat.links)}
              for direction in range(2)]
    assert max(commutator_norms(op, lat, shifts)) <= 1e-12


# --- spectra against the reference -------------------------------------------------

def test_spectrum_single_link_closed_form():
    n = 7
    op = build_gauge_hamiltonian(single_link(n), MaxwellPreset(1.0, 0.0))
    result = spectrum(op, n)
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.abs(result.values - expected).max() < 1e-10


def test_spectrum_matches_dense_eigvalsh_at_dim_1296():
    # 2x2 open N=6 has dimension 1,296 and an 8-fold first excited level
    lat = LinkLattice((2, 2), 6, boundary="open")
    assert lat.hilbert_dim == 1296
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    result = spectrum(op, 10)
    assert np.abs(result.values - np.linalg.eigvalsh(op.to_dense())[:10]).max() < 1e-10
    assert np.sum(np.abs(result.gaps - result.gaps[0]) < 1e-8) == 8


def test_spectrum_keeps_every_copy_of_a_16_fold_level():
    # 2x2 periodic N=4, dim 65,536: both operators' first excited level is 16-fold
    lat = LinkLattice((2, 2), 4, boundary="periodic")
    for op, level in ((build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)), -10.68057479),
                      (reference_ks_hamiltonian(lat, 1.0, 1.0), 5.67643315)):
        values = spectrum(op, 17).values
        assert np.abs(values[1:] - level).max() < 1e-8
        assert values[0] < level - 1.0


def test_spectrum_zero_operator():
    op = build_gauge_hamiltonian(single_plaquette(3),
                                 MaxwellPreset(0.0, 0.0))
    result = spectrum(op, 4)
    assert np.abs(result.values).max() == 0.0


def test_reference_electric_only_shifted_circulants():
    n = 5
    lat = single_link(n)
    op = reference_ks_hamiltonian(lat, 1.0, 0.0)
    w = np.linalg.eigvalsh(op.to_dense())
    expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.abs(np.sort(w) - expected).max() < 1e-12


def test_reference_commutes_with_gauge():
    lat = single_plaquette(3)
    op = reference_ks_hamiltonian(lat, 1.0, 1.0)
    report = symmetry_commutator_norms(op, lat)
    assert report.gauge <= 1e-12


def test_compare_zero_magnetic_gaps_identical():
    lat = single_plaquette(4)
    hop = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 0.0))
    ref = reference_ks_hamiltonian(lat, 1.0, 0.0)
    comp = compare_to_reference(hop, ref, 5)
    assert comp.max_deviation <= 1e-10


def test_compare_single_plaquette_dense_oracle():
    lat = single_plaquette(3)
    hop = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    ref = reference_ks_hamiltonian(lat, 1.0, 1.0)
    comp = compare_to_reference(hop, ref, 5)
    wh = np.linalg.eigvalsh(hop.to_dense())
    wk = np.linalg.eigvalsh(ref.to_dense())
    gaps_h = wh[1:6] - wh[0]
    gaps_k = wk[1:6] - wk[0]
    expected = np.abs(gaps_h - gaps_k) / np.abs(gaps_k).max()
    assert np.abs(comp.deviations - expected).max() < 1e-9


def test_compare_extreme_coupling_has_large_deviation():
    # far outside the expansion regime the two dynamics disagree badly
    lat = single_plaquette(4)
    mild = compare_to_reference(
        build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)),
        reference_ks_hamiltonian(lat, 1.0, 1.0), 5)
    extreme = compare_to_reference(
        build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 50.0)),
        reference_ks_hamiltonian(lat, 1.0, 50.0), 5)
    assert extreme.max_deviation > 5 * mild.max_deviation


def test_plaquette_rotor_harmonic_gap_uniformity_trend():
    # deep magnetic well: the projected low-lying gaps approach uniform
    # spacing as the clock order grows
    def uniformity(n, lam_b):
        lat = single_plaquette(n)
        op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, lam_b))
        span = basis(project_gauge_invariant(lat))
        phys = (span.T @ (op.matrix @ span)).toarray()
        w = np.linalg.eigvalsh(phys)
        gaps = np.diff(w[:4])
        return gaps.std() / gaps.mean()

    covs = [uniformity(n, 60.0) for n in (8, 12, 16, 24)]
    assert all(b < a for a, b in zip(covs, covs[1:]))
    assert covs[-1] < 0.12


# --- continuum constants --------------------------------------------------------------

def test_constants_maxwell_identities():
    n = 1024
    consts = extract_continuum_constants(MaxwellPreset(1.0, 1.0), n)
    assert consts.inv_eps0 == pytest.approx(8 * np.pi ** 2 / n ** 2, rel=1e-12)
    assert consts.inv_mu0 == pytest.approx(1.0, rel=1e-10)
    assert consts.light_speed == pytest.approx(np.sqrt(consts.inv_eps0), rel=1e-9)


def test_constants_magnetic_linearity():
    n = 512
    c1 = extract_continuum_constants(MaxwellPreset(1.0, 1.0), n)
    c2 = extract_continuum_constants(MaxwellPreset(1.0, 2.0), n)
    assert c2.inv_mu0 == pytest.approx(2.0 * c1.inv_mu0, rel=1e-12)
    assert c2.mu0 == pytest.approx(c1.mu0 / 2.0, rel=1e-12)


def test_constants_spacing_and_charge_scaling():
    n = 512
    base = extract_continuum_constants(MaxwellPreset(1.0, 1.0), n, spacing=1.0)
    scaled = extract_continuum_constants(MaxwellPreset(1.0, 1.0), n, spacing=2.0)
    assert scaled.inv_eps0 == pytest.approx(2.0 * base.inv_eps0, rel=1e-10)
    assert scaled.inv_mu0 == pytest.approx(2.0 * base.inv_mu0, rel=1e-8)


def test_constants_degenerate_spec():
    consts = extract_continuum_constants(MaxwellPreset(0.0, 0.0), 64)
    assert consts.degenerate
    assert consts.inv_eps0 == 0.0
    assert consts.inv_mu0 == 0.0
    assert consts.light_speed is None
    assert consts.vacuum_energy_per_link == 0.0


def test_constants_vacuum_energy_with_lattice_size():
    lat = single_plaquette(8)
    consts = extract_continuum_constants(MaxwellPreset(1.5, 0.0), 8)
    assert consts.vacuum_energy_per_link * lat.n_links == pytest.approx(-2.0 * 1.5 * 4)


def test_constants_reject_odd_response():
    spec = OddResponseSpec(electric=1.0, odd=0.05)
    with pytest.raises(ChargeConjugationError, match="C-violating"):
        extract_continuum_constants(spec, 64)


def test_constants_reject_transverse_mixing():
    def mixing(pvals, n):
        base = -1.0 + 0.1 * (1 - np.cos(2 * np.pi * pvals / n)).sum(axis=0)
        if pvals.shape[0] >= 4:
            base = base + 0.01 * pvals[0] * pvals[2] * (2 * np.pi / n) ** 2
        return base

    with pytest.raises(ReflectionSymmetryError):
        extract_continuum_constants(CallableResponseSpec(mixing), 64)


def test_constants_ground_state_flag():
    consts = extract_continuum_constants(MaxwellPreset(-1.0, 1.0), 64)
    assert consts.inv_eps0 < 0.0
    with pytest.raises(GroundStateSignError):
        extract_continuum_constants(MaxwellPreset(-1.0, 1.0), 64,
                                    require_ground_state=True)


# --- expansion consistency ---------------------------------------------------------

def test_taylor_linear_functional_exact():
    spec = MaxwellPreset(1.0, 1.0)
    a_values = [0.9, 0.7, 0.5]
    n_values = [max(4, int(round(40 / a ** 3))) for a in a_values]
    report = taylor_consistency_check(
        spec, n_values, a_values,
        functional=LinearLinkFunctional(coeffs=np.array([0.3, -0.2, 0.7])))
    assert max(report.expansion_remainders) < 1e-15  # zero up to rounding


def test_taylor_gaussian_functional_order_above_four():
    spec = MaxwellPreset(1.0, 1.0)
    a_values = [1.0, 0.8, 0.6, 0.45]
    n_values = [max(4, int(round(60 / a ** 3))) for a in a_values]
    report = taylor_consistency_check(spec, n_values, a_values)
    assert report.expansion_order > 4.0


def test_taylor_amplitude_remainder_eighth_order():
    spec = MaxwellPreset(1.0, 1.0)
    a_values = [1.0, 0.8, 0.6, 0.45]
    n_values = [max(4, int(round(60 / a ** 3))) for a in a_values]
    report = taylor_consistency_check(spec, n_values, a_values, flux=0.7)
    assert 7.5 < report.amplitude_order < 8.5
