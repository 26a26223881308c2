"""Link-field Hamiltonians: build, symmetries, spectra, constants."""

import itertools
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from hopquant import (
    HoppingKernel,
    LatticeGrid,
    LinkLattice,
    MaxwellPreset,
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
    EigenConvergenceError,
    GroundStateSignError,
    HermiticityError,
    HilbertDimensionError,
    HopquantError,
    ReflectionSymmetryError,
)
from hopquant.gauge_ham import GaugeHoppingSpec, commutator_norms
from sparse_oracle import commutator_max, coo_hopping, from_matrix
from zn_oracle import LinkConfig, basis, direction_shift, plaquette, shift_map


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


def _rule_operator(lat, pair, tol=linop.HERMITICITY_TOL):
    """The certified one-link-move operator of a rule, through the hopping assembler."""
    def amplitudes(rows):
        idx = np.arange(rows.start, rows.stop)
        return [amp for l_idx in range(lat.n_links)
                for amp in pair(lat, l_idx, (idx // lat.n ** l_idx) % lat.n)]
    return linop._assemble_hopping(zn._basis_grid_shape(lat), True,
                                   gauge_ham._move_offsets(lat)[1:], amplitudes,
                                   dtype=complex, tol=tol)


# --- construction ---------------------------------------------------------------

def test_single_link_circulant_spectrum():
    for n in (3, 5, 8):
        lat = single_link(n)
        op = build_gauge_hamiltonian(lat, MaxwellPreset(electric=1.0, magnetic=0.0))
        w = np.linalg.eigvalsh(op.matrix.toarray())
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
    assert np.abs(op.matrix.toarray() - expected).max() < 1e-12


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


def test_response_evaluated_once_per_link_and_direction(monkeypatch):
    # the tables are made before the assembly, so a block count does not change them
    class Counting(MaxwellPreset):
        def response(self, pvals, n):
            self.calls += 1
            return super().response(pvals, n)

    monkeypatch.setattr(linop, "_BLOCK_ENTRIES", 64)
    for lat in (LinkLattice((2, 2), 3, boundary="periodic"), single_plaquette(4),
                LinkLattice((2, 2, 2), 2, boundary="open")):
        spec = Counting(1.0, 1.0)
        for _ in range(2):
            spec.calls = 0
            build_gauge_hamiltonian(lat, spec)
            assert spec.calls == 2 * lat.n_links


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
        assert np.abs(op_hop.matrix.toarray() - hop).max() <= 1e-12
        assert np.abs(op_ref.matrix.toarray() - ref).max() <= 1e-12


def _coo_oracle(lat, link_amplitudes, diagonal=None):
    """Link-move Hamiltonian from COO triplets: link l's raise and lower add
    +-1 to its digit, the basis-grid axis n_links - 1 - l. Real unless an
    amplitude has a nonzero imaginary part."""
    n, dim = lat.n, lat.hilbert_dim
    idx = np.arange(dim, dtype=np.int64)
    digits = [(idx // n ** l_idx) % n for l_idx in range(lat.n_links)]
    plaq = [np.mod(sum(sign * digits[l_idx] for l_idx, sign in lat.plaquette_links(*pl)), n)
            for pl in lat.plaquettes]
    offsets, amplitudes = [], []
    if diagonal is not None:
        offsets.append(np.zeros(lat.n_links, dtype=int))
        amplitudes.append(diagonal(plaq))
    for l_idx in range(lat.n_links):
        for step, amp in zip((+1, -1), link_amplitudes(l_idx, digits[l_idx], plaq)):
            offsets.append(step * (np.arange(lat.n_links) == lat.n_links - 1 - l_idx))
            amplitudes.append(amp)
    real = not any(np.any(np.imag(amp)) for amp in amplitudes)
    return coo_hopping((n,) * lat.n_links, True, offsets,
                       [np.real(amp) for amp in amplitudes] if real else amplitudes,
                       dtype=float if real else complex)


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
    kernel = HoppingKernel.nearest_neighbor(LatticeGrid((190, 190, 190), 1.0), 1.0)
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
    # beside the CSR an assembly holds one row block's arrays and no grid-sized
    # temporary: tracemalloc measured 1.035, 1.025 and 1.008 times the CSR
    lat = LinkLattice((2, 2), 5, boundary="periodic")
    kernel = random_unitary_kernel(LatticeGrid((64, 64, 64), 1.0), np.random.default_rng(5))
    for build in (lambda: build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)),
                  lambda: reference_ks_hamiltonian(lat, 1.0, 1.0),
                  lambda: build_particle_hamiltonian(kernel)):
        tracemalloc.start()
        try:
            op = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * (op.data.nbytes + op.indices.nbytes + op.indptr.nbytes)


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
            centers.append((s0, zn._parity_map(lat, s0)))
        except HopquantError:
            pass
    return centers


def _map_key(symmetry):
    """A map (A, b) as bytes, which compare equal when the maps are equal."""
    a, b = symmetry
    return a.tobytes() + b.tobytes()


def test_parity_centers_are_distinct_reflections():
    for dims, n in (((2, 2), 3), ((3, 2), 2)):
        lat = LinkLattice(dims, n, boundary="periodic")
        maps = [_map_key(zn._parity_map(lat, s0)) for s0 in gauge_ham.allowed_parity_centers(lat)]
        assert len(maps) == np.prod(dims)
        assert all(a != b for a, b in itertools.combinations(maps, 2))
        assert all(_map_key(m) in maps for _, m in _every_parity_center(lat))
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


def _symmetry_maps(lat, rng):
    """Site generators, a random gauge transform, C, every parity, the direction shifts."""
    maps = zn.site_generator_maps(lat)
    maps.append(zn._gauge_map(lat, rng.integers(0, lat.n, lat.n_sites)))
    maps.append(zn._charge_map(lat))
    maps += [zn._parity_map(lat, s0) for s0 in gauge_ham.allowed_parity_centers(lat)]
    maps += [direction_shift(lat, direction)
             for direction in range(lat.ndim) if lat.dims[direction] > 1]
    return maps


def _link_cycle(lat):
    """A 3-cycle of links with a sign flip: no symmetry, but a bijection whose
    move map A is not an involution, so pairing sigma with A^-1 shows."""
    a, b = shift_map(lat, np.arange(lat.n_links) == 0)
    a[:3, :3] = [[0, -1, 0], [0, 0, 1], [1, 0, 0]]
    return a, b


def _random_move_operator(lat, rng):
    """Random complex amplitudes on the diagonal and on every one-link move; not Hermitian."""
    offsets = gauge_ham._move_offsets(lat)
    amplitudes = [rng.standard_normal(lat.hilbert_dim) + 1j * rng.standard_normal(lat.hilbert_dim)
                  for _ in offsets]
    return linop._assemble_hopping(zn._basis_grid_shape(lat), True, offsets,
                                   lambda rows: [amp[rows] for amp in amplitudes],
                                   dtype=complex, tol=np.inf)


def test_exact_commutator_matches_dense_oracle():
    # at N >= 3 the gauge generators and shifts are not involutions, so P and P^T differ
    rng = np.random.default_rng(12)
    specs = [MaxwellPreset(1.3, 0.8), OddResponseSpec(electric=1.0, odd=0.2)]
    rules = [site_dependent_rule, link_value_rule, phase_rule()]
    breaking = set()
    # the last lattice is the open cube, of dimension 4096
    for lat in (single_link(5), single_plaquette(3), single_plaquette(4),
                LinkLattice((2, 2), 2, boundary="periodic"),
                LinkLattice((2, 2, 2), 2, boundary="open")):
        symmetries = _symmetry_maps(lat, rng)
        maps = symmetries + ([_link_cycle(lat)] if lat.n_links >= 3 else [])
        ops = [build_gauge_hamiltonian(lat, spec) for spec in specs]
        ops += [_rule_operator(lat, pair) for pair in rules]
        ops += [reference_ks_hamiltonian(lat, 1.3, 0.8), _random_move_operator(lat, rng)]
        for i, op in enumerate(ops):
            want = [commutator_max(op.matrix, zn.permutation(lat, m)) for m in maps]
            assert commutator_norms(op, lat, maps) == want
            breaking.update(i for w in want[:len(symmetries)] if w > 1e-3)
    assert breaking == {1, 2, 3, 4, 6}  # every symmetry-breaking operator was caught


def test_commutator_rejects_non_permutation():
    lat = single_plaquette(5)
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    identity = shift_map(lat, np.zeros(lat.n_links))
    repeated, missing, doubling = (identity[0].copy() for _ in range(3))
    repeated[1] = identity[0][0]
    missing[-1] = 0
    doubling[2, 2] = 2  # a bijection of Z_5, but not of the moves
    for a in (repeated, missing, doubling):
        with pytest.raises(ValueError, match="not a bijection"):
            commutator_norms(op, lat, [identity, (a, identity[1])])
    assert commutator_norms(op, lat, [identity]) == [0.0]


def _two_link_hopping(amplitudes, steps):
    """Hopping on the two links of a 3x1 open lattice at N=5 (dimension 25) by
    each change of the link values in ``steps`` and then its negative, the
    j-th of these offsets with the j-th of ``amplitudes``, arrays over the
    basis; not Hermitian."""
    lat = LinkLattice((3, 1), 5, boundary="open")
    # the basis grid holds the links in reverse order
    offsets = [sign * np.asarray(step)[::-1] for step in steps for sign in (1, -1)]
    return lat, linop._assemble_hopping(zn._basis_grid_shape(lat), True, offsets,
                                        lambda rows: [amp[rows] for amp in amplitudes],
                                        tol=np.inf)


def test_commutator_certifies_a_map_that_mixes_links():
    # A fixes e0 and swaps e1 with e0 - e1, so it permutes the steps +-e0, +-e1,
    # +-(e0 - e1), but it is not a signed permutation of the links
    shear = (np.array([[1, 1], [0, -1]]), np.array([2, 3]))
    steps = [(1, 0), (0, 1), (1, -1)]
    lat, op = _two_link_hopping([np.full(25, 1.5)] * 2 + [np.full(25, -0.5)] * 4, steps)
    assert commutator_norms(op, lat, [shear]) == [0.0]
    rng = np.random.default_rng(29)
    lat, op = _two_link_hopping([rng.standard_normal(25) for _ in range(6)], steps)
    want = [commutator_max(op.matrix, zn.permutation(lat, shear))]
    assert commutator_norms(op, lat, [shear]) == want
    assert want[0] > 1.0


def test_commutator_rejects_a_singular_map_of_the_stored_moves():
    # H moves link 0 only, and A fixes that move but sends every x to x_1 = 0
    lat, op = _two_link_hopping([np.ones(25)] * 2, [(1, 0)])
    singular = (np.array([[1, 0], [0, 0]]), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match="not a bijection"):
        commutator_norms(op, lat, [singular])


def test_commutator_rejects_entries_off_the_moves():
    # an operator made from a matrix records no slot layout, whatever its entries
    lat = single_plaquette(3)
    h = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)).matrix.tolil()
    h[0, 4] = h[4, 0] = 0.25  # configuration 4 differs from 0 on two links
    with pytest.raises(ValueError, match="no slot layout"):
        commutator_norms(from_matrix(h.tocsr()), lat, [zn._charge_map(lat)])


def test_commutator_rejects_rows_out_of_move_order():
    lat = single_plaquette(3)
    h = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)).matrix.copy()
    h.sort_indices()
    with pytest.raises(ValueError, match="no slot layout"):
        commutator_norms(from_matrix(h), lat, [zn._charge_map(lat)])


def test_commutator_reads_no_column_of_h():
    # the certifier reads the assembler's slot offsets and amplitudes, not H's CSR columns
    lat = single_plaquette(3)
    maps = _symmetry_maps(lat, np.random.default_rng(8)) + [_link_cycle(lat)]
    largest = []
    for op in (_rule_operator(lat, link_value_rule), reference_ks_hamiltonian(lat, 1.3, 0.8)):
        want = [commutator_max(op.matrix, zn.permutation(lat, m)) for m in maps]
        del op.indices, op.indptr
        assert commutator_norms(op, lat, maps) == want
        largest.append(max(want))
    assert largest[0] > 1e-3  # the rule breaks a symmetry, so not every norm is 0


def test_commutator_reads_h_in_blocks(monkeypatch):
    # the amplitudes are copied in blocks of 72 entries, 9 rows of the hopping
    # operator and 8 of the reference, so the reference's last block is partial
    monkeypatch.setattr(linop, "_BLOCK_ENTRIES", 72)
    lat = single_plaquette(3)
    maps = _symmetry_maps(lat, np.random.default_rng(7)) + [_link_cycle(lat)]
    for op in (_rule_operator(lat, link_value_rule), reference_ks_hamiltonian(lat, 1.3, 0.8)):
        want = [commutator_max(op.matrix, zn.permutation(lat, m)) for m in maps]
        assert commutator_norms(op, lat, maps) == want
    # the same matrix with the last row's first two entries swapped
    h = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0)).matrix.copy()
    last = slice(h.indptr[-2], h.indptr[-2] + 2)
    h.indices[last], h.data[last] = h.indices[last][::-1].copy(), h.data[last][::-1].copy()
    with pytest.raises(ValueError, match="no slot layout"):
        commutator_norms(from_matrix(h), lat, [zn._charge_map(lat)])


def test_nan_amplitude_fails_every_certificate():
    lat = single_plaquette(3)
    with pytest.raises(HermiticityError, match="unitary hopping") as info:
        build_gauge_hamiltonian(lat, CallableResponseSpec(lambda pvals, n: np.nan))
    assert np.isnan(info.value.defect)
    # a NaN put into a built operator's amplitudes after it was certified
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    op.data[7] = np.nan
    with pytest.raises(HermiticityError) as info:
        from_matrix(op.matrix, tol=np.inf)
    assert np.isnan(info.value.defect)
    report = symmetry_commutator_norms(op, lat)
    assert np.isnan(report.gauge) and np.isnan(report.charge_conjugation)
    assert np.isnan(report.parity)


def test_certifier_memory_checked_before_allocating(monkeypatch):
    lat = LinkLattice((2, 2), 4, boundary="periodic")
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    # a byte short of the amplitude copies and four words a state; H's own bytes are more
    monkeypatch.setattr(linop, "_available_memory_bytes",
                        lambda: op.data.nbytes + 4 * 8 * lat.hilbert_dim - 1)
    tracemalloc.start()
    try:
        with pytest.raises(HilbertDimensionError, match="certifying dimension 65536"):
            symmetry_commutator_norms(op, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_certifier_peak_within_its_memory_budget(monkeypatch):
    # the check budgets its amplitude copies, one per entry of H, and four 8-byte
    # words per state; H exists already, and available memory does not hold it
    lat = LinkLattice((2, 2), 4, boundary="periodic")
    dim, op = lat.hilbert_dim, build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    amplitudes = op.data.nbytes
    tracemalloc.start()
    try:
        symmetry_commutator_norms(op, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - amplitudes <= 4 * 8 * dim
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: amplitudes + 4 * 8 * dim - 1)
    with pytest.raises(HilbertDimensionError, match="certifying dimension 65536"):
        symmetry_commutator_norms(op, lat)
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: amplitudes + 4 * 8 * dim)
    symmetry_commutator_norms(op, lat)


def test_spectrum_invariant_under_global_direction_shift():
    lat = LinkLattice((2, 2), 3, boundary="periodic")
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    shifts = [direction_shift(lat, direction) for direction in range(2)]
    assert max(commutator_norms(op, lat, shifts)) <= 1e-12


# --- spectra against the reference -------------------------------------------------

def test_spectrum_single_link_closed_form():
    # a link carries no plaquette, so its flat blocks hold one state each
    n = 7
    op = build_gauge_hamiltonian(single_link(n), MaxwellPreset(1.0, 0.0))
    result = spectrum(op, n)
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.abs(result.values - expected).max() < 1e-10
    result = spectrum(reference_ks_hamiltonian(single_link(n), 1.0, 1.0), n)
    assert np.abs(result.values - (2.0 + expected)).max() < 1e-12


def test_spectrum_matches_dense_eigvalsh_at_dim_1296():
    # 2x2 open N=6 has dimension 1,296 and an 8-fold first excited level
    lat = LinkLattice((2, 2), 6, boundary="open")
    assert lat.hilbert_dim == 1296
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    result = spectrum(op, 10)
    assert np.abs(result.values - np.linalg.eigvalsh(op.matrix.toarray())[:10]).max() < 1e-10
    assert np.sum(np.abs(result.gaps - result.gaps[0]) < 1e-8) == 8
    # every value, of both builders: at N=6 complex pairs of blocks sit beside real ones
    for op in (op, reference_ks_hamiltonian(lat, 1.3, 0.8)):
        want = np.linalg.eigvalsh(op.matrix.toarray())
        assert np.abs(spectrum(op, op.dimension).values - want).max() < 1e-12


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


def test_spectrum_and_comparison_of_count_zero_are_empty():
    lat = LinkLattice((2, 2), 2, boundary="open")
    hop = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    result = spectrum(hop, 0)
    assert result.values.shape == result.gaps.shape == (0,)
    comp = compare_to_reference(hop, reference_ks_hamiltonian(lat, 1.0, 1.0), 0)
    assert comp.gaps_hopping.shape == comp.deviations.shape == (0,)
    assert comp.max_deviation == 0.0


# real blocks only (N=2), complex pairs beside real blocks (N=6), complex pairs
# and the one real block theta = 0 (N=3, 7), and blocks of one state (no plaquette)
FLAT_BLOCK_LATTICES = {
    "2x2-periodic-2": ((2, 2), 2, "periodic"),
    "2x2-periodic-3": ((2, 2), 3, "periodic"),
    "3x2-periodic-2": ((3, 2), 2, "periodic"),
    "2x2x2-open-2": ((2, 2, 2), 2, "open"),
    "2x2-open-6": ((2, 2), 6, "open"),
    "single-link-7": ((2, 1), 7, "open"),
}


def _both_builders(name):
    dims, n, boundary = FLAT_BLOCK_LATTICES[name]
    lat = LinkLattice(dims, n, boundary=boundary)
    return lat, (build_gauge_hamiltonian(lat, MaxwellPreset(1.3, 0.8)),
                 reference_ks_hamiltonian(lat, 1.3, 0.8))


def test_flat_block_union_is_the_full_spectrum():
    # a dense solve takes about 4 s at dimension 4,096, so there one builder is checked
    ops = _both_builders("2x2-periodic-2")[1] + _both_builders("3x2-periodic-2")[1][:1]
    for op in ops:
        want = np.linalg.eigvalsh(op.matrix.toarray())
        assert np.abs(spectrum(op, op.dimension).values - want).max() < 1e-12


def _eigvalsh_spy(monkeypatch):
    """The number of matrices each call of np.linalg.eigvalsh is given."""
    solved, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
    return solved


def test_blocks_bounded_above_the_kept_values_are_not_solved(monkeypatch):
    # a full spectrum solves every block; the lowest few skip the blocks whose
    # Gershgorin bound or Cholesky factor puts every value above them, and
    # give the same values bit for bit
    solved = _eigvalsh_spy(monkeypatch)
    for name, count in (("2x2-open-6", 6), ("single-link-7", 1)):
        for op in _both_builders(name)[1]:
            solved.clear()
            full = linop.eigs_extremal(op, op.dimension)[0]
            every = sum(solved)
            solved.clear()
            low = linop.eigs_extremal(op, count)[0]
            assert sum(solved) < every  # 52 of 112 blocks, and 1 of 4
            assert low.tobytes() == full[:count].tobytes()


def _never_definite(stack):
    return np.zeros(len(stack), dtype=bool)


def test_cholesky_clears_the_blocks_gershgorin_cannot(monkeypatch):
    # at 2x2x2 open N=2 (128 blocks of 32, up to 64 to a chunk) no Gershgorin
    # bound lies above the sixth value; a factor of H_theta - mu I clears most
    # blocks once six values are held
    solved = _eigvalsh_spy(monkeypatch)
    for op in _both_builders("2x2x2-open-2")[1]:
        solved.clear()
        got = linop.eigs_extremal(op, 6)
        cleared = sum(solved)
        with monkeypatch.context() as m:
            m.setattr(linop, "_positive_definite", _never_definite)
            solved.clear()
            want = linop.eigs_extremal(op, 6)
        assert sum(solved) == 128  # Gershgorin alone
        assert cleared < 64 + 64 // 10  # 19 for both builders, 67 with a first chunk of 64
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_cholesky_clearing_keeps_values_and_vectors_through_a_degenerate_level(monkeypatch):
    # 2x2 periodic N=4: k = 2-6 keep one to five copies of the 16-fold first
    # excited level, which lie in different blocks; every k gives the bytes
    # of a run whose Cholesky test never clears a block
    lat = LinkLattice((2, 2), 4, boundary="periodic")
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    for k in range(1, 7):
        values, vectors = linop.eigs_extremal(op, k)
        with monkeypatch.context() as m:
            m.setattr(linop, "_positive_definite", _never_definite)
            want_values, want_vectors = linop.eigs_extremal(op, k)
        assert np.abs(values[1:] + 10.68057479).max(initial=0.0) < 1e-8
        assert values.tobytes() == want_values.tobytes()
        assert vectors.tobytes() == want_vectors.tobytes()


def _clear_nothing(h, kth):
    return (np.arange(len(h)),) * 2


@pytest.mark.parametrize("dims, n, boundary, blocks, most", [
    ((3, 3), 2, "open", 256, 64), ((3, 2), 3, "open", 122, 30), ((2, 2), 5, "open", 63, 15),
    ((2, 2), 4, "periodic", 528, 31)])
def test_first_chunk_holds_just_the_blocks_of_the_kept_values(monkeypatch, dims, n, boundary,
                                                              blocks, most):
    # the blocks of the three open lattices all fit one chunk, which a first
    # chunk solved whole before six values were held, so no test cleared a
    # block; 2x2 open N=5 is the bundled plaquette_spectrum lattice. At 2x2
    # periodic N=4 a first chunk of 16 blocks of 64 left 31 of 528 solved
    lat = LinkLattice(dims, n, boundary=boundary)
    solved = _eigvalsh_spy(monkeypatch)
    for op in (build_gauge_hamiltonian(lat, MaxwellPreset(1.3, 0.8)),
               reference_ks_hamiltonian(lat, 1.3, 0.8)):
        solved.clear()
        got = linop.eigs_extremal(op, 6)
        fewer = sum(solved)
        with monkeypatch.context() as m:
            m.setattr(linop, "_may_hold", _clear_nothing)
            solved.clear()
            want = linop.eigs_extremal(op, 6)
        assert sum(solved) == blocks and fewer <= most
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_convergence_error_counts_the_blocks_each_test_cleared(monkeypatch):
    # the residual failure of test_spectrum_checks_residuals_against_h, whose
    # 243 characters make 122 blocks: one real (theta = 0) and 121 pairs
    op = build_gauge_hamiltonian(LinkLattice((2, 2), 3, boundary="periodic"),
                                 MaxwellPreset(1.0, 1.0))
    op.data[3] += 0.5
    solved = _eigvalsh_spy(monkeypatch)
    with pytest.raises(EigenConvergenceError) as info:
        spectrum(op, 6)
    counts = re.search(r"from flat-translation blocks of 27: (\d+) of (\d+) solved, "
                       r"(\d+) cleared by Gershgorin, (\d+) by Cholesky$", str(info.value))
    done, total, gershgorin, cholesky = map(int, counts.groups())
    assert done == sum(solved) and total == 122
    assert done + gershgorin + cholesky == total
    assert gershgorin > 0 and cholesky > 0


@pytest.mark.parametrize("name", ["3x2-periodic-2", "2x2x2-open-2", "2x2-periodic-3"])
def test_flat_block_union_against_traces_and_the_iterative_solver(name):
    # where a dense solve takes 4-16 s: the power sums of every value against
    # the traces of H, H^2 and H^3, and the lowest values against filtered
    # subspace iteration on a copy of H that records no lattice
    _, ops = _both_builders(name)
    for op in ops:
        values, h = spectrum(op, op.dimension).values, op.matrix
        traces = [h.diagonal().sum(), h.multiply(h.T).sum(), (h @ h).multiply(h.T).sum()]
        for power, trace in enumerate(traces, start=1):
            assert abs(np.sum(values ** power) - trace) <= 1e-11 * np.sum(np.abs(values) ** power)
        assert np.abs(values[:12] - linop.eigs_extremal(from_matrix(h), 12)[0]).max() < 1e-10


@pytest.mark.parametrize("name", FLAT_BLOCK_LATTICES)
def test_flat_translations_commute_with_both_builders(name):
    # the premise of the blocks: each generator of ker(A mod N), as the map (I, t)
    lat, ops = _both_builders(name)
    v, _, r = zn._flat_coordinates(lat)
    maps = [(np.eye(lat.n_links, dtype=np.int64), t) for t in v[:, r:].T]
    for op in ops:
        assert commutator_norms(op, lat, maps) == [0.0] * len(maps)


def test_spectrum_memory_checked_before_a_block_is_allocated(monkeypatch):
    lat = LinkLattice((2, 2), 4, boundary="periodic")
    op = build_gauge_hamiltonian(lat, MaxwellPreset(1.0, 1.0))
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(HilbertDimensionError,
                           match="eigensolve of dimension 65536 in blocks of 64"):
            spectrum(op, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 64 * 64  # one complex block


def test_spectrum_solves_any_operator_and_refuses_a_bad_count_or_layout():
    op = build_gauge_hamiltonian(single_plaquette(3), MaxwellPreset(1.0, 1.0))
    with pytest.raises(ValueError, match="requested 82 eigenpairs of a dimension-81 operator"):
        spectrum(op, 82)
    # an operator that records no lattice goes through filtered subspace iteration
    grid = LatticeGrid((4,), 1.0)
    particle = build_particle_hamiltonian(HoppingKernel.free(grid, {(0,): 1.0, (1,): -0.5,
                                                                    (-1,): -0.5}))
    result = spectrum(particle, 2)
    assert np.abs(result.values - np.linalg.eigvalsh(particle.matrix.toarray())[:2]).max() < 1e-10
    # the builder's matrix with its rows sorted, whose representative rows are out of order
    h = op.matrix.copy()
    h.sort_indices()
    resorted = from_matrix(h)
    resorted.lattice = op.lattice
    with pytest.raises(ValueError, match="no slot layout"):
        spectrum(resorted, 2)


def test_spectrum_checks_residuals_against_h():
    # an amplitude of row 0, the representative of u = 0, changed in H alone: its
    # flat translates keep the old one, so no block is a restriction of H
    op = build_gauge_hamiltonian(LinkLattice((2, 2), 3, boundary="periodic"),
                                 MaxwellPreset(1.0, 1.0))
    op.data[3] += 0.5
    with pytest.raises(EigenConvergenceError,
                       match="residual .* from flat-translation blocks of 27") as info:
        spectrum(op, 6)
    assert info.value.residuals.max() > 1e-3


def test_reference_electric_only_shifted_circulants():
    n = 5
    lat = single_link(n)
    op = reference_ks_hamiltonian(lat, 1.0, 0.0)
    w = np.linalg.eigvalsh(op.matrix.toarray())
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
    wh = np.linalg.eigvalsh(hop.matrix.toarray())
    wk = np.linalg.eigvalsh(ref.matrix.toarray())
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

@dataclass
class LinearLinkFunctional:
    """Linear functional; its expansion remainder vanishes identically."""

    coeffs: np.ndarray

    @property
    def size(self):
        return len(self.coeffs)

    def value(self, a_vals):
        return float(np.dot(self.coeffs, a_vals))

    def d1(self, a_vals, i):
        return float(self.coeffs[i])

    def d2(self, a_vals, i):
        return 0.0


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
    report = taylor_consistency_check(spec, n_values, a_values)
    assert 7.5 < report.amplitude_order < 8.5
