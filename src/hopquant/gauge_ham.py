"""Configuration-space hopping Hamiltonians for Z(N) link fields.

The dynamics raises or lowers one link at a time; every amplitude depends
only on the plaquettes adjacent to that link. A symmetric rule of the
plaquette values is turned into the Hermitian pair (kappa+, kappa-) by
evaluating it halfway between the two configurations an elementary move
connects, which preserves charge conjugation and parity exactly.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linop, zn
from .errors import (
    ChargeConjugationError,
    GroundStateSignError,
    HermiticityError,
    HilbertDimensionError,
    HopquantError,
    ReflectionSymmetryError,
)
from .evolution import fit_order

DIMENSION_CAP = 2 ** 24
# relative size of an odd or mixed flux response that counts as a violation
DETECTION_TOL = 1e-10
# rows of H that commutator_norms reads at a time, at most: a block stays in cache
_BLOCK_ROWS = 4096


class GaugeHoppingSpec:
    """Rule producing link-move amplitudes from adjacent plaquette values.

    Subclasses define ``response(pvals, n)``: a real, even, N-periodic
    function of the adjacent plaquette values (rows of ``pvals``). It must
    act on each column of ``pvals`` alone, so that column c of its result
    depends only on column c of ``pvals``: ``build_gauge_hamiltonian`` calls
    it once per link on every distinct combination of the adjacent plaquette
    values, shifted halfway along the raise and along the lower, and gathers
    the result for each configuration. That midpoint evaluation makes the
    pair (kappa+, kappa-) Hermitian and keeps charge conjugation and parity.
    """

    def response(self, pvals, n):
        raise NotImplementedError


@dataclass
class MaxwellPreset(GaugeHoppingSpec):
    """Electric hopping strength plus plaquette-modulated magnetic weight.

    Each plaquette's (1 - cos) contribution is spread over its four links
    and two move directions, hence the 1/8 weight.
    """

    electric: float
    magnetic: float

    def response(self, pvals, n):
        # reduce mod n first so equivalent arguments evaluate bitwise equal
        pvals = np.mod(np.asarray(pvals, dtype=float), n)
        mag = 2.0 * np.sin(np.pi * pvals / n) ** 2  # 1 - cos(2 pi p / n), stable near 0
        total = mag.sum(axis=0)
        return -self.electric + (self.magnetic / 8.0) * total


def _plaquette_dtype(n):
    """The smallest unsigned type holding a sum of four link terms in [0, N)."""
    return np.min_scalar_type(4 * (n - 1))


def _plaquette_values(lattice):
    """Every plaquette's value in every basis configuration, in [0, N).

    Each of the four link terms is reduced mod N first, so their sum fits
    ``_plaquette_dtype``. Cast to float before any float arithmetic: numpy
    1.x would compute uint8 * float in float16.
    """
    n = lattice.n
    dtype = _plaquette_dtype(n)
    vals = []
    for s, i, k in lattice.plaquettes:
        total = np.zeros(zn._basis_grid_shape(lattice), dtype=dtype)
        for l_idx, sign in lattice.plaquette_links(s, i, k):
            table = (sign * np.arange(n)) % n
            total += zn._along_link(lattice, l_idx, table.astype(dtype))
        vals.append(np.mod(total, dtype.type(n), out=total).reshape(-1))
    return vals


def _move_offsets(lattice):
    """The diagonal, then the raise and the lower of each link, as basis-grid offsets."""
    eye = np.eye(lattice.n_links, dtype=int)
    units = [eye[zn._link_axis(lattice, l_idx)] for l_idx in range(lattice.n_links)]
    return [np.zeros_like(eye[0])] + [step * unit for unit in units for step in (1, -1)]


def _link_moves(lattice, link_amplitudes, diagonal=None, tol=linop.HERMITICITY_TOL):
    """Certified Hamiltonian of one-link moves plus an optional diagonal.

    ``link_amplitudes(l_idx, plaq)`` gives the (raise, lower) pair of link
    ``l_idx``, the offsets +-1 on its axis of the basis grid, and
    ``diagonal(plaq)`` the diagonal, as real arrays or scalars. ``plaq`` holds
    the value of every plaquette in each basis configuration. Raises
    ``HilbertDimensionError`` above ``DIMENSION_CAP``, or when the assembly
    and the plaquette values together would not fit in memory.
    """
    if lattice.hilbert_dim > DIMENSION_CAP:
        raise HilbertDimensionError(
            f"configuration space of dimension {lattice.hilbert_dim} "
            f"exceeds cap {DIMENSION_CAP}")
    offsets = _move_offsets(lattice)[int(diagonal is None):]  # the diagonal's is first

    def move_amplitudes():
        plaq = _plaquette_values(lattice)
        if diagonal is not None:
            yield diagonal(plaq)
        for l_idx in range(lattice.n_links):
            yield from link_amplitudes(l_idx, plaq)

    plaq_bytes = (len(lattice.plaquettes) * lattice.hilbert_dim
                  * _plaquette_dtype(lattice.n).itemsize)
    return linop._assemble_hopping(zn._basis_grid_shape(lattice), True, offsets,
                                   move_amplitudes(), tol=tol, held_bytes=plaq_bytes)


def build_gauge_hamiltonian(lattice, spec, tol=linop.HERMITICITY_TOL):
    """Assemble the strictly off-diagonal one-link-move Hamiltonian.

    For each link, ``spec.response`` is evaluated once on the N**k
    combinations of its k adjacent plaquette values, shifted by half the
    move's change to each, and each configuration reads its (raise, lower)
    pair from that table. Raises ``HermiticityError`` ("spec violates
    unitary hopping") when the pair is not Hermitian-compatible, and
    ``ValueError`` when the response is complex.
    """
    n = lattice.n

    def link_amplitudes(l_idx, plaq):
        adj = lattice.link_adjacency(l_idx)
        half = 0.5 * np.array([sg for _, sg in adj], dtype=float)[:, np.newaxis]
        # column c of the table holds the plaquette values whose base-N code is c
        table = np.indices((n,) * len(adj), dtype=float).reshape(len(adj), n ** len(adj))
        code = np.zeros(lattice.hilbert_dim, dtype=np.intp)
        for p, _ in adj:
            code *= n
            code += plaq[p]
        return tuple(amp if np.ndim(amp) == 0 else np.asarray(amp).reshape(-1)[code]
                     for amp in (spec.response(table + half, n),
                                 spec.response(table - half, n)))

    try:
        return _link_moves(lattice, link_amplitudes, tol=tol)
    except HermiticityError as exc:
        raise HermiticityError(
            f"spec violates unitary hopping: {exc}", defect=exc.defect) from exc


def reference_ks_hamiltonian(lattice, electric, magnetic, tol=linop.HERMITICITY_TOL):
    """Independent oracle: diagonal magnetic term plus electric link hopping.

    H = electric * sum_links (2 - raise - lower)
      + magnetic * sum_plaquettes (1 - cos(2 pi p / N)).
    """
    # the magnetic term of one plaquette, indexed by its value
    table = magnetic * 2.0 * np.sin(np.pi * np.arange(lattice.n, dtype=float) / lattice.n) ** 2

    def diagonal(plaq):
        diag = np.full(lattice.hilbert_dim, 2.0 * electric * lattice.n_links)
        for p in plaq:
            diag = diag + table[p]
        return diag

    return _link_moves(
        lattice, lambda l_idx, plaq: (-electric, -electric),
        diagonal=diagonal, tol=tol)


# --- symmetry checks ---------------------------------------------------------

@dataclass
class SymmetryReport:
    gauge: float
    charge_conjugation: float
    parity: float

    @property
    def max_norm(self):
        return _fold_max([self.gauge, self.charge_conjugation, self.parity])


def commutator_norms(op, lattice, link_maps):
    """Exact max-norms of [H, P] for the permutation P of each link map.

    H must be a sum of one-link moves on ``lattice``: H = sum_o D_o T_o over
    the move offsets o of ``_move_offsets`` taken mod N (raise and lower
    coincide at N=2), where T_o shifts a configuration by o and D_o holds its
    amplitudes a_o(x) = H[x, x + o]. A link map in
    ``zn.permutation_from_link_map``'s format sends configuration x to
    sigma(x) and offset o to A o, whose step on link dest is sign times the
    step of o on link src, mod N. So P H P^T - H holds exactly the entries
    a_o(x) - a_{A o}(sigma(x)), and each norm is their largest modulus. That
    is max|P H P^T - H|, the max-norm of the commutator with its columns
    permuted. H must come from the hopping
    assembler, whose row x holds one slot per move H stores, in the order of
    the move offsets. Each a_o is copied from its slot once, a move H does
    not store reads as zero, a pair of moves H stores neither of is skipped,
    and no copy of H is made.

    Raises ``ValueError`` when H has entries off the moves or rows in another
    order, or a link map is not a bijection of the links with signs +-1, and
    ``HilbertDimensionError`` when H and the amplitude arrays together
    would not fit in the available memory.
    """
    n, dim = lattice.n, lattice.hilbert_dim
    if op.dimension != dim:
        raise ValueError(f"operator of dimension {op.dimension} does not act on {lattice}")
    moves = list(dict.fromkeys(tuple(int(c) for c in np.mod(o, n))
                               for o in _move_offsets(lattice)))
    link_maps = list(link_maps)
    images = [_move_image(lattice, assignments, moves) for assignments in link_maps]
    # beside H and the amplitudes, index arrays and gathers: tracemalloc measured
    # 24-26 bytes per state on 2x2 periodic N=4/5, 3x3 periodic N=2, 2x2x2 open N=3,
    # so four 8-byte words per state bound them
    dtype = op.data.dtype
    linop._require_memory(
        op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
        + len(moves) * dim * dtype.itemsize + 4 * dim * np.dtype(np.intp).itemsize,
        f"certifying dimension {dim}")
    amps, stored = _stored_amplitudes(op, lattice, moves)

    moved, norms = np.empty(dim, dtype=dtype), []
    for assignments, image in zip(link_maps, images):
        sigma = zn.permutation_from_link_map(lattice, assignments)
        norm = 0.0
        for k, j in enumerate(image):
            if not (stored[k] or stored[j]):
                continue  # zero on both sides, such as the hopping operator's diagonal
            # sigma is a permutation, so "clip" never clips; it skips the bounds check
            np.take(amps[j], sigma, out=moved, mode="clip")
            if np.array_equal(amps[k], moved):
                continue  # a zero difference; NaN is never equal, so it is measured
            np.subtract(amps[k], moved, out=moved)
            # np.maximum, unlike max(), carries a NaN amplitude into the norm
            norm = np.maximum(norm, np.abs(moved).max())
        norms.append(float(norm))
    return norms


def _stored_amplitudes(op, lattice, moves):
    """The amplitudes a_o of ``commutator_norms`` for every move o in
    ``moves``, zero for a move H does not store, and which moves H stores.

    Move k adds step[k] mod N to one link, whose place value in a basis
    index is place[k], so its column at row x is x + shift, with shift =
    ((v + step) mod N - v) * place and v that link's value in x. The slots
    are matched to moves on row 0, where distinct moves have distinct
    columns. Then H is read a block of N**q rows at a time, which stays in
    cache: within a block only the q lowest links change, so the shifts of
    row start + r are those of row r plus one offset per slot.
    """
    n, dim = lattice.n, lattice.hilbert_dim
    m = op.nnz // dim  # slots a row, if every row has as many
    layout_error = "operator has entries outside the one-link moves or out of their order"
    # a move's one nonzero entry is on basis-grid axis a, which holds link n_links - 1 - a
    step = np.array([max(move) for move in moves], dtype=np.int64)
    place = n ** np.array([lattice.n_links - 1 - int(np.argmax(move)) for move in moves],
                          dtype=np.int64)

    def shift(x, k):
        value = x // place[k] % n
        return ((value + step[k]) % n - value) * place[k]

    layout = np.array_equal(op.indptr, np.arange(dim + 1) * m)
    slots = []  # the move each slot holds
    for k in range(len(moves) if layout else 0):
        if len(slots) < m and op.indices[len(slots)] == step[k] * place[k]:
            slots.append(k)
    if not layout or len(slots) < m:
        raise ValueError(layout_error)
    q = 1
    while q < lattice.n_links and n ** (q + 1) <= _BLOCK_ROWS:
        q += 1
    r = np.arange(n ** q, dtype=np.int64)[:, np.newaxis]
    base, corner = r + shift(r, slots), shift(0, slots)
    want = np.empty_like(base)
    data, indices = op.data.reshape(dim, m), op.indices.reshape(dim, m)
    amps = np.zeros((len(moves), dim), dtype=op.data.dtype)
    for start in range(0, dim, n ** q):
        rows = slice(start, start + n ** q)
        np.add(base, start + shift(start, slots) - corner, out=want)
        if not np.array_equal(indices[rows], want):
            raise ValueError(layout_error)
        amps[slots, rows] = data[rows].T
    return amps, np.isin(np.arange(len(moves)), slots)


def _move_image(lattice, assignments, moves):
    """The index in ``moves`` of A o for every move offset o, with A as in
    ``commutator_norms``, or ``ValueError``."""
    n = lattice.n
    srcs = sorted(src for src, _, _ in assignments.values())
    if (sorted(assignments) != list(range(lattice.n_links))
            or srcs != list(range(lattice.n_links))
            or any((sign % n) not in (1, n - 1) for _, sign, _ in assignments.values())):
        raise ValueError("link map is not a bijection of the links with signs +-1")
    index = {move: k for k, move in enumerate(moves)}
    image = []
    for move in moves:
        moved = [0] * lattice.n_links
        for dest, (src, sign, _) in assignments.items():
            moved[zn._link_axis(lattice, dest)] = sign * move[zn._link_axis(lattice, src)] % n
        image.append(index[tuple(moved)])
    return image


def allowed_parity_centers(lattice):
    """One half-integer center per distinct reflection that maps the link set
    onto itself.

    On a periodic axis of length L the centers c and c + L/2 give the same
    reflection, so twice the center runs over range(L) there and over
    range(2 L) on an open axis.
    """
    span = 1 if lattice.boundary == "periodic" else 2
    centers = []
    for twice in product(*(range(span * L) for L in lattice.dims)):
        s0 = tuple(c / 2.0 for c in twice)
        try:
            zn._parity_link_map(lattice, s0)
        except HopquantError:
            continue
        centers.append(s0)
    return centers


def symmetry_commutator_norms(op, lattice):
    """Exact max commutator norms of H with the gauge generators, C and parity.

    ``gauge`` is the largest norm over the site generators, ``parity`` the
    largest over every distinct allowed reflection, each from
    ``commutator_norms``.
    """
    gauge_maps = zn.site_generator_link_maps(lattice)
    parity_maps = [zn._parity_link_map(lattice, s0)
                   for s0 in allowed_parity_centers(lattice)]
    norms = commutator_norms(op, lattice,
                             [*gauge_maps, zn._charge_link_map(lattice), *parity_maps])
    gauge, conj, parity = (norms[:len(gauge_maps)], norms[len(gauge_maps)],
                           norms[len(gauge_maps) + 1:])
    return SymmetryReport(gauge=_fold_max(gauge), charge_conjugation=conj,
                          parity=_fold_max(parity))


def _fold_max(values):
    """The largest of ``values``, 0.0 when empty, NaN when any is NaN."""
    return float(np.max(values, initial=0.0))


# --- spectra -----------------------------------------------------------------

@dataclass
class SpectrumResult:
    values: np.ndarray
    gaps: np.ndarray  # E_i - E_0 for i >= 1


def spectrum(op, count):
    """Lowest ``count`` eigenvalues, each copy of a degenerate level counted,
    and their gaps from the ground state."""
    values, _ = linop.eigs_extremal(op, count)
    return SpectrumResult(values=values, gaps=values[1:] - values[0])


@dataclass
class GapComparison:
    gaps_hopping: np.ndarray
    gaps_reference: np.ndarray
    deviations: np.ndarray  # relative to the largest reference gap

    @property
    def max_deviation(self):
        return float(self.deviations.max()) if self.deviations.size else 0.0


def compare_to_reference(op_hop, op_ref, count):
    """Relative differences of the lowest ``count`` energy gaps."""
    ga = spectrum(op_hop, count + 1).gaps
    gb = spectrum(op_ref, count + 1).gaps
    scale = max(float(np.abs(gb).max()), 1e-300)
    return GapComparison(gaps_hopping=ga, gaps_reference=gb,
                         deviations=np.abs(ga - gb) / scale)


# --- continuum constants -----------------------------------------------------

@dataclass
class ContinuumConstants:
    inv_eps0: float
    inv_mu0: float
    eps0: float
    mu0: float
    vacuum_energy_per_link: float
    light_speed: float    # None when degenerate or sign-indefinite
    degenerate: bool
    kappa0: float
    kappa2: float


def _probe_response(spec, n, pattern):
    pv = np.asarray(pattern, dtype=float)[:, np.newaxis]
    out = np.asarray(spec.response(pv, n), dtype=float)
    return float(out.reshape(-1)[0])


def extract_continuum_constants(spec, n, spacing=1.0, hbar=1.0, charge=1.0,
                                require_ground_state=False):
    """Read the quadratic flux response of a plaquette rule.

    The constant part is read at zero plaquettes; the quadratic part comes
    from symmetric second differences over plaquette probes p = +-1, +-2
    (the finest probes an integer-valued plaquette admits), combined with one
    Richardson step. Odd components and transverse mixing are rejected.
    """
    kappa0 = _probe_response(spec, n, [0.0, 0.0])
    scale = 1.0 + abs(kappa0)
    # odd (flux-linear) components must vanish for charge conjugation
    for q in (1, 2):
        for pattern in ([q, 0], [0, q], [q, q]):
            plus = _probe_response(spec, n, pattern)
            minus = _probe_response(spec, n, [-c for c in pattern])
            scale = max(scale, abs(plus))
            if abs(plus - minus) > DETECTION_TOL * scale:
                raise ChargeConjugationError(
                    "C-violating spec: odd flux component "
                    f"{abs(plus - minus):.3e} at probe {pattern}")
    # transverse mixing must vanish for reflection symmetry
    mixed = (_probe_response(spec, n, [1, 1, 1, 1])
             - _probe_response(spec, n, [1, 1, -1, -1])
             - _probe_response(spec, n, [-1, -1, 1, 1])
             + _probe_response(spec, n, [-1, -1, -1, -1]))
    if abs(mixed) > DETECTION_TOL * scale:
        raise ReflectionSymmetryError(
            f"reflection symmetry violated: mixed response {abs(mixed):.3e}")
    # quadratic response by Richardson-combined central differences
    diffs = []
    for q in (1, 2):
        flux_step = 2.0 * np.pi * hbar * q / (charge * spacing ** 2 * n)
        second = (_probe_response(spec, n, [q, q])
                  + _probe_response(spec, n, [-q, -q])
                  - 2.0 * kappa0)
        diffs.append(second / flux_step ** 2)
    curvature = (4.0 * diffs[0] - diffs[1]) / 3.0
    kappa2 = hbar ** 2 / (2.0 * charge ** 2 * spacing ** 4) * curvature
    inv_eps0 = -(4.0 * np.pi ** 2 * spacing / (charge ** 2 * n ** 2)) * 2.0 * kappa0
    inv_mu0 = (4.0 * charge ** 2 * spacing / hbar ** 2) * 2.0 * kappa2
    degenerate = inv_eps0 == 0.0 or inv_mu0 == 0.0
    prod = inv_eps0 * inv_mu0
    if require_ground_state and prod <= 0.0:
        raise GroundStateSignError(
            "relative sign of the extracted constants admits no ground state")
    return ContinuumConstants(
        inv_eps0=inv_eps0,
        inv_mu0=inv_mu0,
        eps0=1.0 / inv_eps0 if inv_eps0 != 0.0 else np.inf,
        mu0=1.0 / inv_mu0 if inv_mu0 != 0.0 else np.inf,
        vacuum_energy_per_link=2.0 * kappa0,
        light_speed=float(np.sqrt(prod)) if prod > 0.0 else None,
        degenerate=degenerate,
        kappa0=kappa0,
        kappa2=kappa2,
    )


# --- expansion consistency ---------------------------------------------------

@dataclass
class GaussianLinkFunctional:
    """Smooth closed-form functional of a handful of link potentials."""

    weights: np.ndarray

    @property
    def size(self):
        return len(self.weights)

    def value(self, a_vals):
        return float(np.exp(-0.5 * np.dot(self.weights, np.asarray(a_vals) ** 2)))

    def d1(self, a_vals, i):
        return -self.weights[i] * a_vals[i] * self.value(a_vals)

    def d2(self, a_vals, i):
        w = self.weights[i]
        return (w ** 2 * a_vals[i] ** 2 - w) * self.value(a_vals)


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


@dataclass
class TaylorReport:
    spacings: list
    clock_orders: list
    expansion_remainders: list
    expansion_order: float
    amplitude_remainders: list
    amplitude_order: float


def taylor_consistency_check(spec, n_values, a_values, functional=None,
                             flux=0.7, hbar=1.0, charge=1.0):
    """Numerically verify the two truncations behind the continuum limit.

    ``n_values`` and ``a_values`` are zipped into a scaling path (N growing
    as the spacing shrinks). For each point, the wavefunction remainder is
    the unit-link-step difference of the functional minus its first and
    second derivative terms; the amplitude remainder compares the rule
    against its own quadratic flux model at fixed flux. The link potentials
    expanded around, and the default functional's weights, are drawn from a
    generator seeded with 5, so the report is reproducible.
    """
    if len(n_values) != len(a_values):
        raise ValueError("n_values and a_values must pair up into one path")
    if len(a_values) < 3:
        raise ValueError("need >=3 path points to fit orders")
    rng = np.random.default_rng(5)
    if functional is None:
        functional = GaussianLinkFunctional(weights=1.0 + rng.random(3))
    a_fixed = rng.uniform(-0.4, 0.4, size=functional.size)
    exp_rem, amp_rem = [], []
    for n, a in zip(n_values, a_values):
        step = 2.0 * np.pi * hbar / (charge * n * a)
        worst = 0.0
        for i in range(len(a_fixed)):
            for sign in (+1.0, -1.0):
                shifted = a_fixed.copy()
                shifted[i] += sign * step
                lhs = functional.value(shifted) - functional.value(a_fixed)
                kept = (sign * step * functional.d1(a_fixed, i)
                        + 0.5 * step ** 2 * functional.d2(a_fixed, i))
                worst = max(worst, abs(lhs - kept))
        exp_rem.append(worst)
        consts = extract_continuum_constants(spec, n, spacing=a, hbar=hbar,
                                             charge=charge)
        p = charge * n * a ** 2 * flux / (2.0 * np.pi * hbar)
        resp = _probe_response(spec, n, [p, p])
        model = consts.kappa0 + (charge ** 2 * a ** 4 / hbar ** 2) \
            * consts.kappa2 * flux ** 2
        amp_rem.append(abs(resp - model))
    return TaylorReport(
        spacings=list(a_values),
        clock_orders=list(n_values),
        expansion_remainders=exp_rem,
        expansion_order=fit_order(a_values, exp_rem) if min(exp_rem) > 0 else np.inf,
        amplitude_remainders=amp_rem,
        amplitude_order=fit_order(a_values, amp_rem) if min(amp_rem) > 0 else np.inf,
    )
