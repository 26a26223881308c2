"""Configuration-space hopping Hamiltonians for Z(N) link fields.

The dynamics raises or lowers one link at a time; every amplitude depends
only on the plaquettes adjacent to that link. A symmetric rule of the
plaquette values is turned into the Hermitian pair (kappa+, kappa-) by
evaluating it halfway between the two configurations an elementary move
connects, which preserves charge conjugation and parity exactly.
"""

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linop, zn
from .errors import (
    ChargeConjugationError,
    GroundStateSignError,
    HermiticityError,
    HopquantError,
    ReflectionSymmetryError,
)
from .evolution import fit_order

# relative size of an odd or mixed flux response that counts as a violation
DETECTION_TOL = 1e-10


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
    """The smallest unsigned type holding a plaquette value in [0, N)."""
    return np.min_scalar_type(n - 1)


def _plaquette_values(lattice):
    """Every plaquette's value in every basis configuration, in [0, N), as
    an array (plaquettes, configurations) of ``_plaquette_dtype``: the rows
    of ``zn._plaquette_map`` evaluated over the basis grid. Cast to float
    before any float arithmetic: numpy 1.x would compute uint8 * float in
    float16.
    """
    shape = zn._basis_grid_shape(lattice)
    vals = np.empty((len(lattice.plaquettes),) + shape, dtype=_plaquette_dtype(lattice.n))
    for out, value in zip(vals, zn._affine_values(lattice, zn._plaquette_map(lattice))):
        out[...] = value.astype(out.dtype)
    return vals.reshape(len(lattice.plaquettes), lattice.hilbert_dim)


def _move_offsets(lattice):
    """The diagonal, then the raise and the lower of each link, as basis-grid offsets."""
    eye = np.eye(lattice.n_links, dtype=int)
    units = [eye[zn._link_axis(lattice, l_idx)] for l_idx in range(lattice.n_links)]
    return [np.zeros_like(eye[0])] + [step * unit for unit in units for step in (1, -1)]


def _link_moves(lattice, amplitudes, diagonal=False, tol=linop.HERMITICITY_TOL):
    """Certified Hamiltonian of the one-link moves, after the diagonal where
    ``diagonal``.

    ``amplitudes(plaq, work)`` gives the amplitudes of a block of
    configurations from the value of every plaquette in each, ``plaq``, an
    array (plaquettes, block) of ``_plaquette_dtype``: a real array (moves,
    block), the diagonal first where ``diagonal``, then the raise and the
    lower of each link. ``work`` is a list, empty at the first block, the
    largest, where the callable keeps the arrays it reuses from block to
    block. The plaquette values are made at the first block, after the
    assembler's memory check. They and ``work`` are held by the assembler's
    callable alone, so they are freed before its hermiticity pass.

    The operator records ``lattice`` as its attribute ``lattice``, from which
    ``linop.eigs_extremal`` solves it by its flat-translation blocks. Raises
    ``HilbertDimensionError`` when the assembly and the plaquette values
    together would not fit in memory.
    """
    plaq_bytes = (len(lattice.plaquettes) * lattice.hilbert_dim
                  * _plaquette_dtype(lattice.n).itemsize)
    # the defaults are made with the lambda, once per build, and only the assembler holds it
    op = linop._assemble_hopping(
        zn._basis_grid_shape(lattice), True, _move_offsets(lattice)[int(not diagonal):],
        lambda rows, plaq=functools.cache(lambda: _plaquette_values(lattice)), work=[]:
            amplitudes(plaq()[:, rows], work),
        tol=tol, held_bytes=plaq_bytes)
    op.lattice = lattice
    return op


def build_gauge_hamiltonian(lattice, spec, tol=linop.HERMITICITY_TOL):
    """Assemble the strictly off-diagonal one-link-move Hamiltonian.

    For each link, ``spec.response`` is evaluated once on the N**k
    combinations of its k adjacent plaquette values shifted by half the
    raise's change to each, and once for the lower; a scalar response holds
    for every combination. Each block of configurations then computes the
    base-N code of every link's adjacent plaquette values, in
    ``link_adjacency`` order, and gathers the amplitudes of all links in one
    ``take`` from the tables laid end to end. Raises ``HermiticityError``
    ("spec violates unitary hopping") when the pair is not
    Hermitian-compatible, and ``ValueError`` when a table has an entry with
    a nonzero imaginary part.
    """
    n = lattice.n
    adjacency = [lattice.link_adjacency(l_idx) for l_idx in range(lattice.n_links)]

    def tables(adj):
        half = 0.5 * np.array([sg for _, sg in adj], dtype=float)[:, np.newaxis]
        # column c of the grid holds the plaquette values whose base-N code is c
        grid = np.indices((n,) * len(adj), dtype=float).reshape(len(adj), n ** len(adj))
        for step in (half, -half):
            table = np.broadcast_to(np.reshape(spec.response(grid + step, n), -1),
                                    grid.shape[1:])
            if np.iscomplexobj(table) and np.any(table.imag):
                raise ValueError(f"complex amplitude: the response on {lattice} has a "
                                 "nonzero imaginary part, and gauge builds are real")
            yield np.real(table)

    # every link's raise tables end to end, and its lower tables
    joined = [np.concatenate(d, dtype=float) for d in zip(*map(tables, adjacency))]
    first = np.cumsum([0] + [n ** len(adj) for adj in adjacency])[:-1, np.newaxis]
    # each link's adjacent plaquettes as rows of a block's plaquette values,
    # below a zero row 0 that pads the shorter lists in front
    width = max(map(len, adjacency))
    adjacent = np.array([[0] * (width - len(adj)) + [p + 1 for p, _ in adj]
                         for adj in adjacency], dtype=np.intp)

    def amplitudes(plaq, work):
        size = plaq.shape[1]
        if not work:
            # the plaquette values times each place value of a code, down to 1
            work.extend(np.zeros(axes + (size,), dtype=t) for axes, t in (
                ((max(width, 1), len(plaq) + 1), np.intp), ((len(first),), np.intp),
                ((len(first),), np.intp), ((2 * len(first),), float)))
        scaled, code, term, values = (a[..., :size] for a in work)
        scaled[-1, 1:] = plaq
        for k in range(width - 1):
            np.multiply(scaled[-1], n ** (width - 1 - k), out=scaled[k])
        # each link's code, plus the start of its table
        code[...] = first
        for k in range(width):
            code += np.take(scaled[k], adjacent[:, k], axis=0, out=term, mode="clip")
        for d in (0, 1):
            np.take(joined[d], code, out=values[d::2], mode="clip")
        return values

    try:
        return _link_moves(lattice, amplitudes, tol=tol)
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

    def amplitudes(plaq, work):
        if not work:
            work.append(np.empty((1 + 2 * lattice.n_links, plaq.shape[1])))
        values = work[0][:, :plaq.shape[1]]
        values[0] = 2.0 * electric * lattice.n_links
        for term in table.take(plaq):
            values[0] += term
        values[1:] = -electric
        return values

    return _link_moves(lattice, amplitudes, diagonal=True, tol=tol)


# --- symmetry checks ---------------------------------------------------------

@dataclass
class SymmetryReport:
    gauge: float
    charge_conjugation: float
    parity: float


def commutator_norms(op, lattice, maps):
    """Exact max-norms of [H, P] for the permutation P of each map (A, b).

    H must carry the hopping assembler's slot layout (``linop._slot_table``):
    slot j of row x holds a_j(x) = H[x, x + o_j] for the offset o_j, mod N,
    that the assembler recorded. A map (A, b) in ``zn.permutation``'s format
    sends configuration x to sigma(x) = A x + b mod N, so sigma(x + o_j) =
    sigma(x) + A o_j: the image of slot j is the slot k_j whose offset is
    A o_j. P H P^T - H then holds exactly the entries a_j(x) -
    a_{k_j}(sigma(x)), and each norm is their largest modulus. That is
    max|P H P^T - H|, the max-norm of the commutator with its columns
    permuted. Each a_j is copied from the slot table once, a block of rows
    that stays in cache at a time.

    Raises ``ValueError`` when H has no slot layout of the lattice's
    dimension, or a map is not a bijection of the basis or of H's slots, and
    ``HilbertDimensionError`` when the copies would not fit in memory.
    """
    dim, n = lattice.hilbert_dim, lattice.n
    offsets, table = linop._slot_table(op, dim)
    # beside the amplitudes, index arrays and gathers: tracemalloc measured 17.0-17.3 bytes
    # per state on 2x2 periodic N=4/5, 3x3 periodic N=2, 2x2x2 open N=3, both builders,
    # so four 8-byte words per state bound them; H exists, and is not counted again
    linop._require_memory(op.data.nbytes + 4 * dim * np.dtype(np.intp).itemsize,
                          f"certifying dimension {dim}")
    amps = np.empty(table.shape[::-1], dtype=table.dtype)
    rows = max(1, linop._BLOCK_ENTRIES // max(len(offsets), 1))
    for start in range(0, dim, rows):
        amps[:, start:start + rows] = table[start:start + rows].T
    moves = offsets[:, ::-1]  # link k is grid axis n_links - 1 - k
    slot = {move: j for j, move in enumerate(map(tuple, moves.tolist()))}

    moved, norms = np.empty(dim, dtype=op.data.dtype), []
    for symmetry in maps:
        sigma = zn.permutation(lattice, symmetry)
        image = [slot.get(tuple(o)) for o in (moves @ np.transpose(symmetry[0]) % n).tolist()]
        if set(image) != set(slot.values()):
            raise ValueError("map is not a bijection of the link moves")
        norm = 0.0
        for j, k in enumerate(image):
            # sigma is a permutation, so "clip" never clips; it skips the bounds check
            np.take(amps[k], sigma, out=moved, mode="clip")
            if np.array_equal(amps[j], moved):
                continue  # a zero difference; NaN is never equal, so it is measured
            np.subtract(amps[j], moved, out=moved)
            # np.maximum, unlike max(), carries a NaN amplitude into the norm
            norm = np.maximum(norm, np.abs(moved).max())
        norms.append(float(norm))
        del sigma  # before the next map's is built, so that one sigma is held at a time
    return norms


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
            zn._parity_map(lattice, s0)
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
    gauge_maps = zn.site_generator_maps(lattice)
    parity_maps = [zn._parity_map(lattice, s0) for s0 in allowed_parity_centers(lattice)]
    norms = commutator_norms(op, lattice,
                             [*gauge_maps, zn._charge_map(lattice), *parity_maps])
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
    """Lowest ``count`` eigenvalues of any operator, each copy of a degenerate
    level counted, and their gaps from the ground state: ``linop.eigs_extremal``'s
    values, which raises as it does. A count of 0 gives empty values and gaps."""
    values = linop.eigs_extremal(op, count)[0]
    return SpectrumResult(values=values, gaps=values[1:] - values[:1])


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
    scale = max(float(np.abs(gb).max(initial=0.0)), 1e-300)
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


def extract_continuum_constants(spec, n, spacing=1.0, require_ground_state=False):
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
        flux_step = q * zn.flux_from_plaquette(1, n, spacing)
        second = (_probe_response(spec, n, [q, q])
                  + _probe_response(spec, n, [-q, -q])
                  - 2.0 * kappa0)
        diffs.append(second / flux_step ** 2)
    curvature = (4.0 * diffs[0] - diffs[1]) / 3.0
    kappa2 = 1.0 / (2.0 * spacing ** 4) * curvature
    inv_eps0 = -(4.0 * np.pi ** 2 * spacing / n ** 2) * 2.0 * kappa0
    inv_mu0 = 4.0 * spacing * 2.0 * kappa2
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
class TaylorReport:
    expansion_remainders: list
    expansion_order: float
    amplitude_remainders: list
    amplitude_order: float


def taylor_consistency_check(spec, n_values, a_values, functional=None):
    """Numerically verify the two truncations behind the continuum limit.

    ``n_values`` and ``a_values`` are zipped into a scaling path (N growing
    as the spacing shrinks). For each point, the wavefunction remainder is
    the unit-link-step difference of the functional minus its first and
    second derivative terms; the amplitude remainder compares the rule
    against its own quadratic flux model at the fixed flux 0.7. The link
    potentials expanded around, and the default functional's weights, are
    drawn from a generator seeded with 5, so the report is reproducible.
    """
    if len(n_values) != len(a_values):
        raise ValueError("n_values and a_values must pair up into one path")
    if len(a_values) < 3:
        raise ValueError("need >=3 path points to fit orders")
    flux = 0.7
    rng = np.random.default_rng(5)
    if functional is None:
        functional = GaussianLinkFunctional(weights=1.0 + rng.random(3))
    a_fixed = rng.uniform(-0.4, 0.4, size=functional.size)
    exp_rem, amp_rem = [], []
    for n, a in zip(n_values, a_values):
        step = 2.0 * np.pi / (n * a)
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
        consts = extract_continuum_constants(spec, n, spacing=a)
        p = flux / zn.flux_from_plaquette(1, n, a)
        resp = _probe_response(spec, n, [p, p])
        model = consts.kappa0 + a ** 4 * consts.kappa2 * flux ** 2
        amp_rem.append(abs(resp - model))
    return TaylorReport(
        expansion_remainders=exp_rem,
        expansion_order=fit_order(a_values, exp_rem) if min(exp_rem) > 0 else np.inf,
        amplitude_remainders=amp_rem,
        amplitude_order=fit_order(a_values, amp_rem) if min(amp_rem) > 0 else np.inf,
    )
