"""Single-particle hopping dynamics on cubic lattices.

A kernel maps (site, offset) to a complex amplitude of units energy and fully
determines the dynamics i*hbar dpsi/dt = sum_n kappa(x, n) psi(x+a*n).
This module validates the probability-conservation constraint, builds the
corresponding Hermitian operator, and extracts the emergent continuum data
(mass, background energy, vector and scalar potentials). Units fix e = 1:
e enters only through the product eA, so it is a choice of units for A.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernelError, KernelSymmetryError, MassRequiredError
from .linop import HERMITICITY_TOL, _assemble_hopping


class LatticeGrid:
    """Cubic grid in 1 to 3 dimensions with spacing ``a``.

    ``boundary`` is "periodic" (hops wrap) or "open" (hops off the edge are
    dropped).
    """

    def __init__(self, dims, spacing, boundary="periodic", origin=None):
        dims = tuple(int(d) for d in (dims if np.iterable(dims) else (dims,)))
        if not 1 <= len(dims) <= 3:
            raise ValueError("grid must have 1 to 3 axes")
        if any(d < 2 for d in dims):
            raise ValueError("every axis needs at least 2 sites")
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        if boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary {boundary!r}")
        self.dims = dims
        self.spacing = float(spacing)
        self.boundary = boundary
        self.origin = tuple(float(x) for x in origin) if origin is not None \
            else (0.0,) * len(dims)
        if len(self.origin) != len(dims):
            raise ValueError("origin must match grid dimensionality")

    @property
    def ndim(self):
        return len(self.dims)

    @property
    def shape(self):
        return self.dims

    @property
    def n_sites(self):
        return int(np.prod(self.dims))

    def axes(self):
        """Coordinate values along each axis."""
        return [self.origin[j] + self.spacing * np.arange(self.dims[j])
                for j in range(self.ndim)]

    def coordinates(self):
        """Meshgrid coordinate arrays, one per axis, each of grid shape."""
        return np.meshgrid(*self.axes(), indexing="ij")

    def __repr__(self):
        return (f"LatticeGrid(dims={self.dims}, spacing={self.spacing}, "
                f"boundary={self.boundary!r})")


class LatticeWavefunction:
    """Complex amplitudes on a grid, with discrete L2 norm a^d * sum |psi|^2."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values

    @classmethod
    def from_callable(cls, grid, fn):
        return cls(grid, np.asarray(fn(*grid.coordinates()), dtype=complex))

    def norm(self):
        return float(np.sqrt(self.grid.spacing ** self.grid.ndim
                             * np.sum(np.abs(self.values) ** 2)))

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return LatticeWavefunction(self.grid, self.values / n)

    def overlap(self, other):
        """<self|other> with the discrete measure."""
        return complex(self.grid.spacing ** self.grid.ndim
                       * np.vdot(self.values, other.values))


@dataclass
class PotentialFields:
    """Continuum data carried by a kernel: potentials plus constants."""

    mass: float
    background_energy: float
    vector_potential: list  # one real array per axis
    scalar_potential: np.ndarray


def _normalize_offset(n, ndim):
    n = tuple(int(c) for c in (n if np.iterable(n) else (n,)))
    if len(n) != ndim:
        raise ValueError(f"offset {n} does not match grid dimensionality {ndim}")
    return n


def _neg(n):
    return tuple(-c for c in n)


class HoppingKernel:
    """Finite-support hopping amplitudes kappa(x, n) on a grid.

    ``kappa0`` holds the homogeneous part (offset -> scalar), ``kappa1`` the
    site-dependent deviation (offset -> complex array of grid shape).
    ``free_symmetric`` declares that kappa0 is inversion symmetric and real,
    which the cubic symmetry of a free particle forces. Offsets must fit
    within the grid: |n_i| below the grid's length along every axis i.
    """

    def __init__(self, grid, kappa0=None, kappa1=None, free_symmetric=False):
        self.grid = grid
        self.kappa0 = {}
        for n, val in (kappa0 or {}).items():
            self.kappa0[_normalize_offset(n, grid.ndim)] = complex(val)
        if callable(kappa1):
            raise TypeError("kappa1 must be a dict of fields: time-dependent "
                            "kernels were removed")
        self._kappa1 = {_normalize_offset(n, grid.ndim): np.asarray(v, dtype=complex)
                        for n, v in (kappa1 or {}).items()}
        for n, v in self._kappa1.items():
            if v.shape != grid.shape:
                raise ValueError(f"kappa1 field for offset {n} has shape "
                                 f"{v.shape}, expected {grid.shape}")
        self.free_symmetric = bool(free_symmetric)
        for n in self.support:
            if any(abs(c) >= L for c, L in zip(n, grid.dims)):
                raise ValueError(f"offset {n} does not fit within grid {grid.dims}")
        if self.free_symmetric:
            for n, val in self.kappa0.items():
                partner = self.kappa0.get(_neg(n), 0.0)
                if abs(val - partner) > 1e-12 * (1.0 + abs(val)):
                    raise KernelSymmetryError(
                        f"kappa0({n}) != kappa0({_neg(n)}) but kernel is flagged symmetric")
                if abs(val.imag) > 1e-12 * (1.0 + abs(val)):
                    raise KernelSymmetryError(
                        f"kappa0({n}) must be real for a symmetric kernel")

    @property
    def support(self):
        """All offsets carrying amplitude."""
        return sorted(set(self.kappa0).union(self._kappa1))

    def kappa0_value(self, n):
        return self.kappa0.get(_normalize_offset(n, self.grid.ndim), 0.0 + 0.0j)

    def kappa1_field(self, n):
        """Inhomogeneous part at offset ``n``; zeros if absent."""
        n = _normalize_offset(n, self.grid.ndim)
        if n in self._kappa1:
            return self._kappa1[n]
        return np.zeros(self.grid.shape, dtype=complex)

    def field(self, n):
        """Full amplitude field kappa(x, n) over all sites."""
        return self.kappa0_value(n) + self.kappa1_field(n)

    @classmethod
    def free(cls, grid, kappa0):
        """Homogeneous kernel with the declared symmetric real amplitudes."""
        return cls(grid, kappa0=kappa0, free_symmetric=True)

    @classmethod
    def nearest_neighbor(cls, grid, mass, hbar=1.0, onsite=None):
        """Free nearest-neighbor kernel tuned to ``mass``.

        The on-site amplitude defaults to the value that makes the summed
        homogeneous amplitude vanish.
        """
        if mass == 0:
            raise ValueError("mass must be nonzero")
        hop = -hbar ** 2 / (2.0 * mass * grid.spacing ** 2)
        kappa0 = {}
        for ax in range(grid.ndim):
            for sign in (+1, -1):
                n = tuple(sign if j == ax else 0 for j in range(grid.ndim))
                kappa0[n] = hop
        zero = (0,) * grid.ndim
        kappa0[zero] = -2 * grid.ndim * hop if onsite is None else onsite
        return cls.free(grid, kappa0)


def random_unitary_kernel(grid, rng, representatives=None, scale=1.0):
    """Random inhomogeneous kernel satisfying the conservation constraint.

    One free complex field is drawn per representative offset; the opposite
    offset is fixed by kappa(x - a*n, n) = conj(kappa(x, -n)), and a real
    diagonal field is drawn last.
    """
    if representatives is None:
        representatives = [tuple(1 if j == ax else 0 for j in range(grid.ndim))
                           for ax in range(grid.ndim)]
    kappa1 = {}
    for n in representatives:
        n = _normalize_offset(n, grid.ndim)
        fwd = scale * (rng.standard_normal(grid.shape)
                       + 1j * rng.standard_normal(grid.shape))
        kappa1[n] = fwd
        kappa1[_neg(n)] = np.conj(np.roll(fwd, shift=n, axis=range(grid.ndim)))
    kappa1[(0,) * grid.ndim] = scale * rng.standard_normal(grid.shape).astype(complex)
    return HoppingKernel(grid, kappa1=kappa1)


def perturb_kernel(kernel, rng, epsilon=1e-3):
    """Break the conservation pairing by noising a single forward field."""
    snap = dict(kernel._kappa1)
    offs = [n for n in snap if any(c != 0 for c in n)]
    n = offs[rng.integers(len(offs))] if offs else (0,) * kernel.grid.ndim
    noise = epsilon * (rng.standard_normal(kernel.grid.shape)
                       + 1j * rng.standard_normal(kernel.grid.shape))
    snap[n] = snap.get(n, 0.0) + kernel.kappa0_value(n) + noise
    kappa0 = dict(kernel.kappa0)
    kappa0.pop(n, None)
    return HoppingKernel(kernel.grid, kappa0=kappa0, kappa1=snap)


@dataclass
class UnitarityReport:
    """Result of checking kappa(x-a*n, n) = conj(kappa(x, -n)) everywhere."""

    max_violation: float
    passed: bool
    tolerance: float
    checked_pairs: int
    skipped_pairs: int


def _pieces(grid, n):
    """(sites x, partner sites x + n) slice pairs of ``grid``: on a periodic
    grid, along each axis the sites whose partner does not wrap and, unless n
    is zero there, those whose partner does, 2^d pieces at most that tile the
    grid; on an open grid the one piece of sites whose partner is in it."""
    periodic = grid.boundary == "periodic"
    axes = []
    for length, c in zip(grid.shape, n):
        c = c % length if periodic else c
        lo, hi = max(0, -c), length - max(0, c)
        axes.append([(slice(lo, hi), slice(lo + c, hi + c))]
                    + ([(slice(hi, length), slice(0, c))] if periodic and c else []))
    for piece in itertools.product(*axes):
        yield tuple(x for x, _ in piece), tuple(y for _, y in piece)


def validate_kernel_unitarity(kernel, tol=HERMITICITY_TOL):
    """Check the probability-conservation constraint at every site and offset.

    The checks of n and -n see the same values |kappa(x, n) - conj(kappa(x +
    a*n, -n))|, so each pair +-n is read once, a piece of sites at a time
    (``_pieces``), and counted for both offsets. On open grids, (site,
    offset) pairs whose partner site falls outside the lattice are skipped
    and counted separately.
    """
    grid = kernel.grid
    offsets = set(kernel.support)
    offsets.update(_neg(n) for n in kernel.support)
    max_violation = 0.0
    checked = 0

    def field(n, sites):
        k1 = kernel._kappa1.get(n)
        return kernel.kappa0_value(n) + (0j if k1 is None else k1[sites])

    for n in sorted(offsets):
        m = _neg(n)
        if m < n:
            continue  # read with -n
        for x, y in _pieces(grid, n):
            checked += (1 if n == m else 2) * math.prod(s.stop - s.start for s in x)
            diff = np.abs(field(n, x) - np.conj(field(m, y)))
            # np.maximum, unlike max(), carries a NaN amplitude into the result
            max_violation = float(np.maximum(max_violation, np.max(diff)))
    return UnitarityReport(max_violation=max_violation,
                           passed=max_violation <= tol,
                           tolerance=tol,
                           checked_pairs=checked,
                           # every offset has a partner or a skip at every site
                           skipped_pairs=len(offsets) * grid.n_sites - checked)


def apply_kernel(kernel, values):
    """(H psi)(x) = sum_n kappa(x, n) psi(x + a*n) without building H.

    Each offset's products kappa(x, n) psi(x + a*n) are made in one buffer
    and added to the result a piece of sites at a time, through the slices
    of ``_pieces``, with kappa0(n) + kappa1(x, n) read piece by piece.
    """
    grid = kernel.grid
    out = np.zeros(grid.shape, dtype=complex)
    product = np.empty(grid.shape, dtype=complex)
    for n in kernel.support:
        k0, k1 = kernel.kappa0_value(n), kernel._kappa1.get(n)
        for x, y in _pieces(grid, n):
            if k1 is None:
                np.multiply(k0 + 0j, values[y], out=product[x])
            else:
                np.add(k0, k1[x], out=product[x])
                product[x] *= values[y]
            out[x] += product[x]
    return out


def build_particle_hamiltonian(kernel, tol=HERMITICITY_TOL):
    """Assemble the hopping operator as a sparse Hermitian matrix.

    H[x, x + a*n] = kappa(x, n) for every offset n of the support.
    Raises ``HermiticityError`` when the kernel violates the conservation
    constraint, which is equivalent to H losing hermiticity, and
    ``HilbertDimensionError`` when the build would not fit in memory.
    """
    grid = kernel.grid
    support = kernel.support
    fields = [kernel._kappa1[n].reshape(-1) if n in kernel._kappa1 else 0j for n in support]

    def amplitudes(rows):
        # kernel.field(n) on the block's sites, one offset at a time
        for n, f in zip(support, fields):
            yield kernel.kappa0_value(n) + (f if np.ndim(f) == 0 else f[rows])

    return _assemble_hopping(grid.shape, grid.boundary == "periodic", support,
                             amplitudes, dtype=complex, tol=tol)


@dataclass
class MassFit:
    """Least-squares mass from the homogeneous second moment."""

    mass: float
    anisotropy: float


def second_moment_matrix(kernel):
    """M_ij = sum_n kappa0(n) n_i n_j over the kernel support."""
    d = kernel.grid.ndim
    m = np.zeros((d, d))
    for n, val in kernel.kappa0.items():
        arr = np.asarray(n, dtype=float)
        m += val.real * np.outer(arr, arr)
    return m


def mass_from_kernel(kernel, hbar=1.0):
    """Fit the second moment to -(hbar^2 / (m a^2)) * identity.

    The sign of the fitted mass is reported as-is; a vanishing second moment
    is rejected rather than mapped to an infinite mass.
    """
    if not kernel.free_symmetric:
        raise KernelSymmetryError(
            "mass extraction requires a kernel with the free-symmetry flag")
    m = second_moment_matrix(kernel)
    d = kernel.grid.ndim
    c = float(np.trace(m)) / d
    scale = sum(abs(v) * max(sum(x * x for x in n), 1) for n, v in kernel.kappa0.items())
    if scale == 0.0 or abs(c) <= 1e-14 * scale:
        raise DegenerateKernelError("degenerate kernel: zero second moment")
    off = float(np.abs(m - np.diag(np.diag(m))).max()) if d > 1 else 0.0
    spread = float(np.diag(m).max() - np.diag(m).min()) if d > 1 else 0.0
    return MassFit(mass=-hbar ** 2 / (kernel.grid.spacing ** 2 * c),
                   anisotropy=(off + spread) / abs(c))


def vacuum_energy(kernel):
    """Summed homogeneous amplitude; the constant background energy."""
    total = sum(kernel.kappa0.values(), start=0.0 + 0.0j)
    if abs(total.imag) > 1e-12 * (1.0 + abs(total)):
        raise KernelSymmetryError("homogeneous amplitudes do not sum to a real energy")
    return float(total.real)


def vector_potential_from_kernel(kernel, mass=None, hbar=1.0):
    """A_i(x) = (m a / hbar) sum_n n_i Im kappa1(x, n)."""
    grid = kernel.grid
    if mass is None:
        if not kernel.free_symmetric:
            raise MassRequiredError("mass required first")
        mass = mass_from_kernel(kernel, hbar=hbar).mass
    pref = mass * grid.spacing / hbar
    comps = [np.zeros(grid.shape) for _ in range(grid.ndim)]
    for n in kernel.support:
        im = np.imag(kernel.kappa1_field(n))
        for ax, c in enumerate(n):
            if c != 0:
                comps[ax] += pref * c * im
    return comps


def scalar_potential_from_kernel(kernel, vector_potential, mass=None, hbar=1.0):
    """U(x) = E0 + sum_n Re kappa1(x, n) - A(x)^2 / 2m."""
    grid = kernel.grid
    if mass is None:
        if not kernel.free_symmetric:
            raise MassRequiredError("mass required first")
        mass = mass_from_kernel(kernel, hbar=hbar).mass
    u = np.full(grid.shape, vacuum_energy(kernel))
    for n in kernel.support:
        u = u + np.real(kernel.kappa1_field(n))
    a_sq = sum(a * a for a in vector_potential)
    return u - (1.0 / (2.0 * mass)) * a_sq


def extract_potentials(kernel, hbar=1.0):
    """Full continuum readout: mass, background energy, A and U fields."""
    fit = mass_from_kernel(kernel, hbar=hbar)
    a_field = vector_potential_from_kernel(kernel, mass=fit.mass, hbar=hbar)
    u_field = scalar_potential_from_kernel(kernel, a_field, mass=fit.mass, hbar=hbar)
    return PotentialFields(mass=fit.mass,
                           background_energy=vacuum_energy(kernel),
                           vector_potential=a_field,
                           scalar_potential=u_field)


def _axis_offset(ax, sign, ndim):
    return tuple(sign if j == ax else 0 for j in range(ndim))


def kernel_from_potentials(vector_potential, scalar_potential, mass, grid,
                           hbar=1.0):
    """Minimal nearest-neighbor kernel reproducing the given fields.

    The imaginary hopping parts are the linearized link phases
    Im kappa1(x, +e_i) = (hbar / (2 m a)) A_i at the link midpoint, and the
    diagonal carries U plus the A^2 compensation, so that extracting (A, U)
    from the result reproduces the inputs to O(a).

    ``vector_potential`` is None or a callable of the coordinate arrays
    returning a list of one array per axis; ``scalar_potential`` is None or
    a callable returning one array.
    """
    kern = HoppingKernel.nearest_neighbor(grid, mass, hbar=hbar)
    coords = grid.coordinates()
    a = grid.spacing

    def vp_on(points):
        if vector_potential is None:
            return [np.zeros(grid.shape) for _ in range(grid.ndim)]
        out = [np.broadcast_to(np.asarray(c, dtype=float), grid.shape)
               for c in vector_potential(*points)]
        if len(out) != grid.ndim:
            raise ValueError("vector potential must supply one component per axis")
        return out

    site_a = vp_on(coords)
    kappa1 = {}
    gamma = hbar / (2.0 * mass * a)
    for ax in range(grid.ndim):
        mid = list(coords)
        mid[ax] = mid[ax] + a / 2.0
        fwd = 1j * gamma * vp_on(mid)[ax]
        kappa1[_axis_offset(ax, +1, grid.ndim)] = fwd
        kappa1[_axis_offset(ax, -1, grid.ndim)] = np.conj(
            np.roll(fwd, shift=_axis_offset(ax, +1, grid.ndim), axis=range(grid.ndim)))
    if scalar_potential is None:
        u = np.zeros(grid.shape)
    else:
        u = np.asarray(scalar_potential(*coords), dtype=float)
    a_sq = sum(c * c for c in site_a)
    diag = u + (1.0 / (2.0 * mass)) * a_sq
    if np.any(diag != 0.0):
        kappa1[(0,) * grid.ndim] = diag.astype(complex)
    return HoppingKernel(grid, kappa0=kern.kappa0, kappa1=kappa1,
                         free_symmetric=True)


def gauge_shift_kernel(kernel, chi):
    """Conjugate the kernel by the site phases exp(i chi(x)).

    This shifts the extracted vector potential by a discrete pure gradient
    and leaves the operator spectrum unchanged.
    """
    grid = kernel.grid
    chi = np.asarray(chi, dtype=float)
    if chi.shape != grid.shape:
        raise ValueError("chi must be a per-site field")
    phase = np.exp(1j * chi)
    kappa1 = {}
    for n in kernel.support:
        shifted = np.roll(phase, shift=_neg(n), axis=range(grid.ndim))
        full = kernel.field(n) * phase * np.conj(shifted)
        kappa1[n] = full - kernel.kappa0_value(n)
    return HoppingKernel(grid, kappa0=dict(kernel.kappa0), kappa1=kappa1,
                         free_symmetric=kernel.free_symmetric)
