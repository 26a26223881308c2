"""Named experiments binding configs to module operations.

``REGISTRY`` declares each experiment once; the CLI subcommands come from its
names. Every run goes through ``run_experiment``, which returns a ``Report``
whose checks decide the process exit code.
"""

from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import gauge_ham, zn
from .config import REQUIRED
from .errors import ConfigError, HermiticityError
from .evolution import (
    constant_field_problem,
    convergence_study,
    evolve,
    free_gaussian_problem,
    harmonic_problem,
)
from .linop import HERMITICITY_TOL
from .particle import (
    HoppingKernel,
    LatticeGrid,
    LatticeWavefunction,
    build_particle_hamiltonian,
    extract_potentials,
    kernel_from_potentials,
    perturb_kernel,
    random_unitary_kernel,
    validate_kernel_unitarity,
)
from .report import Report
from .states import coherent_oscillator, drifting_gaussian, free_gaussian

_BASE_RUN_KEYS = {"experiment", "seed", "tolerance"}
_PARTICLE_SECTIONS = {
    "grid": {"dims", "spacing", "boundary", "origin"},
    "kernel": {"preset", "mass", "hbar", "onsite", "scale", "perturb", "k0(*",
               "potential", "omega", "center", "strength"},
}
_GAUGE_SECTIONS = {
    "gauge": {"dims", "n", "boundary"},
    "preset": {"type", "lambda_e", "lambda_b"},
}


def _grid_from_config(cfg):
    dims = cfg.getints("grid", "dims")
    spacing = cfg.getfloat("grid", "spacing")
    boundary = cfg.getstr("grid", "boundary", default="periodic",
                          choices={"periodic", "open"})
    origin = cfg.getfloats("grid", "origin", default=None)
    return LatticeGrid(dims, spacing, boundary=boundary, origin=origin)


def _potentials_from_config(cfg, grid):
    kind = cfg.getstr("kernel", "potential", default="none",
                      choices={"none", "harmonic", "constant-a"})
    mass = cfg.getfloat("kernel", "mass", default=1.0)
    if kind == "harmonic":
        omega = cfg.getfloat("kernel", "omega", default=1.0)
        center = cfg.getfloat("kernel", "center", default=0.0)

        def scalar(*coords):
            r2 = sum((c - center) ** 2 for c in coords)
            return 0.5 * mass * omega ** 2 * r2

        return None, scalar, mass
    if kind == "constant-a":
        strength = cfg.getfloat("kernel", "strength")

        def vector(*coords):
            return [np.full_like(coords[0], strength)] \
                + [np.zeros_like(coords[0]) for _ in coords[1:]]

        return vector, None, mass
    return None, None, mass


def _kernel_from_config(cfg, grid, rng):
    preset = cfg.getstr("kernel", "preset", default="free-nn",
                        choices={"free-nn", "tabulated", "from-potentials",
                                 "random"})
    hbar = cfg.getfloat("kernel", "hbar", default=1.0)
    if preset == "free-nn":
        mass = cfg.getfloat("kernel", "mass", default=1.0)
        onsite = cfg.getcomplex("kernel", "onsite", default=None)
        kernel = HoppingKernel.nearest_neighbor(grid, mass, hbar=hbar,
                                                onsite=onsite)
    elif preset == "tabulated":
        kappa0 = {}
        for key in cfg.keys("kernel"):
            if not key.startswith("k0("):
                continue
            try:
                if not key.endswith(")"):
                    raise ValueError(key)
                offset = tuple(int(p) for p in key[3:-1].split(","))
            except ValueError:
                raise ConfigError(f"malformed tabulated key {key!r}") from None
            kappa0[offset] = cfg.getcomplex("kernel", key)
        if not kappa0:
            raise ConfigError("tabulated kernel needs at least one k0(...) entry")
        kernel = HoppingKernel.free(grid, kappa0)
    elif preset == "from-potentials":
        vector, scalar, mass = _potentials_from_config(cfg, grid)
        kernel = kernel_from_potentials(vector, scalar, mass, grid, hbar=hbar)
    else:
        scale = cfg.getfloat("kernel", "scale", default=1.0)
        kernel = random_unitary_kernel(grid, rng, scale=scale)
    if cfg.getbool("kernel", "perturb", default=False):
        kernel = perturb_kernel(kernel, rng)
    return kernel


def _state_from_config(cfg, grid):
    kind = cfg.getstr("state", "type", default="gaussian",
                      choices={"gaussian", "coherent", "drifting"})
    x0 = cfg.getfloat("state", "x0", default=0.0)
    if kind == "gaussian":
        sigma = cfg.getfloat("state", "sigma", default=1.0)
        k0 = cfg.getfloat("state", "k0", default=0.0)
        fn = lambda x: free_gaussian(x, 0.0, x0=x0, sigma=sigma, k0=k0)
    elif kind == "coherent":
        omega = cfg.getfloat("state", "omega", default=1.0)
        fn = lambda x: coherent_oscillator(x, 0.0, x0=x0, omega=omega)
    else:
        sigma = cfg.getfloat("state", "sigma", default=1.0)
        strength = cfg.getfloat("state", "strength", default=0.0)
        fn = lambda x: drifting_gaussian(x, 0.0, strength, x0=x0, sigma=sigma)
    if grid.ndim != 1:
        raise ConfigError("bundled state presets are one-dimensional")
    return LatticeWavefunction.from_callable(grid, fn)


def _lattice_from_config(cfg, n_override=None):
    dims = cfg.getints("gauge", "dims")
    n = n_override if n_override is not None else cfg.getint("gauge", "n")
    boundary = cfg.getstr("gauge", "boundary", default="periodic",
                          choices={"periodic", "open"})
    return zn.LinkLattice(dims, n, boundary=boundary)


def _spec_from_config(cfg):
    cfg.getstr("preset", "type", default="maxwell", choices={"maxwell"})
    return gauge_ham.MaxwellPreset(
        electric=cfg.getfloat("preset", "lambda_e", default=1.0),
        magnetic=cfg.getfloat("preset", "lambda_b", default=1.0))


def _site_rows(grid, fields):
    coords = grid.coordinates()
    rows = []
    for flat, idx in enumerate(np.ndindex(*grid.shape)):
        row = [flat] + [float(c[idx]) for c in coords]
        for name, arr in fields:
            row.append(arr[idx])
        rows.append(row)
    return rows


def _particle_kernel(cfg, report):
    """The grid and kernel of ``[grid]`` and ``[kernel]``, drawn from the report's seed."""
    grid = _grid_from_config(cfg)
    return grid, _kernel_from_config(cfg, grid, np.random.default_rng(report.seed))


def _gauge_operator(cfg, tol):
    """The lattice of ``[gauge]`` and the certified Hamiltonian of ``[preset]`` on it."""
    lattice = _lattice_from_config(cfg)
    op = gauge_ham.build_gauge_hamiltonian(lattice, _spec_from_config(cfg), tol=tol)
    return lattice, op


def _check_hermiticity(report, defect, tol):
    """Record ``operator-hermiticity`` for a measured ``defect``."""
    report.add_check("operator-hermiticity", defect <= tol, value=defect, tolerance=tol)


def _count(cfg, section, default=REQUIRED, key="count"):
    count = cfg.getint(section, key, default=default)
    if count < 1:
        raise cfg.invalid(section, key,
                          f"[{section}] {key} must be at least 1, got {count}")
    return count


# --- particle experiments ----------------------------------------------------

def run_particle_validate(cfg, report, tol):
    _, kernel = _particle_kernel(cfg, report)
    result = validate_kernel_unitarity(kernel, tol=tol)
    report.results["max_violation"] = result.max_violation
    report.results["checked_pairs"] = result.checked_pairs
    report.results["skipped_pairs"] = result.skipped_pairs
    report.add_check("unitarity-constraint", result.passed,
                     value=result.max_violation, tolerance=tol)
    try:
        defect = build_particle_hamiltonian(kernel, tol=tol).hermiticity_defect
    except HermiticityError as exc:
        defect = exc.defect
    report.results["hermiticity_defect"] = defect
    _check_hermiticity(report, defect, tol)


def run_particle_extract(cfg, report, tol):
    grid, kernel = _particle_kernel(cfg, report)
    result = validate_kernel_unitarity(kernel, tol=tol)
    report.add_check("unitarity-constraint", result.passed,
                     value=result.max_violation, tolerance=tol)
    fields = extract_potentials(kernel)
    report.results["mass"] = fields.mass
    report.results["background_energy"] = fields.background_energy
    report.results["mass_sign"] = 1 if fields.mass > 0 else -1
    for j, comp in enumerate(fields.vector_potential):
        report.results[f"A{j+1}_range"] = [float(comp.min()), float(comp.max())]
    report.results["U_range"] = [float(fields.scalar_potential.min()),
                                 float(fields.scalar_potential.max())]
    header = ["site"] + [f"x{j+1}" for j in range(grid.ndim)] \
        + [f"A{j+1}" for j in range(grid.ndim)] + ["U"]
    named = [(f"A{j+1}", fields.vector_potential[j]) for j in range(grid.ndim)]
    named.append(("U", fields.scalar_potential))
    report.add_table("potentials", header, _site_rows(grid, named))


def run_particle_evolve(cfg, report, tol):
    grid, kernel = _particle_kernel(cfg, report)
    psi0 = _state_from_config(cfg, grid).normalized()
    dt = cfg.getfloat("evolve", "dt")
    if not np.isfinite(dt):
        raise cfg.invalid("evolve", "dt", f"[evolve] dt must be finite, got {dt}")
    steps = _count(cfg, "evolve", key="steps")
    drift_tol = cfg.gettolerance("evolve", "drift_tol", default=1e-8)
    op = build_particle_hamiltonian(kernel, tol=tol)
    result = evolve(op, psi0, dt, steps, drift_tol=drift_tol)
    report.results["norm_drift"] = result.norm_drift
    report.results["final_norm"] = result.psi.norm()
    report.results["overlap_with_initial"] = abs(psi0.overlap(result.psi))
    report.add_check("norm-drift", result.norm_drift <= drift_tol,
                     value=result.norm_drift, tolerance=drift_tol)
    final = result.psi.values.ravel()
    rows = [[i, float(v.real), float(v.imag), float(abs(v) ** 2)]
            for i, v in enumerate(final)]
    report.add_table("final_state", ["site", "re", "im", "abs2"], rows)


def run_particle_converge(cfg, report, tol):
    name = cfg.getstr("converge", "problem",
                      choices={"free-gaussian", "harmonic", "constant-a"})
    spacings = cfg.getfloats("converge", "spacings")
    domain = tuple(cfg.getfloats("converge", "domain", default=[-12.0, 12.0]))
    mass = cfg.getfloat("converge", "mass", default=1.0)
    x0 = cfg.getfloat("converge", "x0", default=0.0)
    if name == "free-gaussian":
        problem = free_gaussian_problem(
            domain=domain, x0=x0, mass=mass,
            duration=cfg.getfloat("converge", "duration", default=1.0),
            sigma=cfg.getfloat("converge", "sigma", default=1.0),
            k0=cfg.getfloat("converge", "k0", default=0.0))
    elif name == "harmonic":
        problem = harmonic_problem(
            domain=domain, x0=x0 if cfg.has("converge", "x0") else 1.0, mass=mass,
            omega=cfg.getfloat("converge", "omega", default=1.0),
            duration=cfg.getfloat("converge", "duration", default=None))
    else:
        problem = constant_field_problem(
            cfg.getfloat("converge", "strength"), domain=domain, x0=x0,
            mass=mass,
            duration=cfg.getfloat("converge", "duration", default=2.0),
            sigma=cfg.getfloat("converge", "sigma", default=1.0))
    min_order = cfg.getfloat("converge", "min_order", default=1.0)
    study = convergence_study(problem, spacings)
    report.results["order"] = study.order
    report.results["monotone"] = study.monotone
    report.results["problem"] = study.problem
    report.add_check("convergence-order", study.order >= min_order,
                     value=study.order, tolerance=min_order)
    report.add_table("errors", ["spacing", "l2_error"],
                     list(zip(study.spacings, study.errors)))


# --- gauge experiments -------------------------------------------------------

def run_gauge_build(cfg, report, tol):
    _, op = _gauge_operator(cfg, tol)
    diag_max = float(np.abs(op.diagonal()).max(initial=0.0))
    report.results["dimension"] = op.dimension
    report.results["nnz"] = op.nnz
    report.results["hermiticity_defect"] = op.hermiticity_defect
    _check_hermiticity(report, op.hermiticity_defect, tol)
    report.add_check("strictly-off-diagonal", diag_max == 0.0, value=diag_max,
                     tolerance=0.0)


def run_gauge_symcheck(cfg, report, tol):
    lattice, op = _gauge_operator(cfg, tol)
    result = gauge_ham.symmetry_commutator_norms(op, lattice)
    report.results["mode"] = "exact"
    for label, value in (("gauge", result.gauge),
                         ("charge-conjugation", result.charge_conjugation),
                         ("parity", result.parity)):
        report.results[f"commutator_{label}"] = value
        report.add_check(f"commutator-{label}", value <= tol,
                         value=value, tolerance=tol)


def run_gauge_spectrum(cfg, report, tol):
    count = _count(cfg, "spectrum", default=6)
    _, op = _gauge_operator(cfg, tol)
    result = gauge_ham.spectrum(op, count)
    report.results["ground_energy"] = float(result.values[0])
    _check_hermiticity(report, op.hermiticity_defect, tol)
    rows = [[i, float(v), float(v - result.values[0])]
            for i, v in enumerate(result.values)]
    report.add_table("eigenvalues", ["index", "energy", "gap"], rows)


def run_gauge_compare_ks(cfg, report, tol):
    spec = _spec_from_config(cfg)
    n_list = cfg.getints("compare", "n_list", default=[4, 6, 8, 10])
    count = _count(cfg, "compare", default=5)
    trend = spec.magnetic != 0.0 and cfg.getbool("compare", "require_trend", default=True)
    if len(n_list) < 1 + trend:
        need = "two clock orders for the deviation trend" if trend else "a clock order"
        raise cfg.invalid("compare", "n_list",
                          f"[compare] n_list needs {need}, got {len(n_list)}")
    rows = []
    max_devs = []
    for n in n_list:
        lattice = _lattice_from_config(cfg, n_override=n)
        op_hop = gauge_ham.build_gauge_hamiltonian(lattice, spec, tol=tol)
        op_ref = gauge_ham.reference_ks_hamiltonian(lattice, spec.electric,
                                                    spec.magnetic, tol=tol)
        comp = gauge_ham.compare_to_reference(op_hop, op_ref, count)
        max_devs.append(comp.max_deviation)
        for i, (gh, gr, dv) in enumerate(zip(comp.gaps_hopping,
                                             comp.gaps_reference,
                                             comp.deviations), start=1):
            rows.append([n, i, float(gh), float(gr), float(dv)])
    report.add_table("gap_deviation",
                     ["n", "gap_index", "gap_hopping", "gap_reference",
                      "deviation"], rows)
    report.results["max_deviations"] = max_devs
    if spec.magnetic == 0.0:
        limit = cfg.getfloat("compare", "zero_magnetic_tol", default=1e-10)
        report.add_check("zero-magnetic-agreement", max(max_devs) <= limit,
                         value=max(max_devs), tolerance=limit)
    elif trend:
        decreasing = all(b < a for a, b in zip(max_devs, max_devs[1:]))
        report.add_check("deviation-trend-decreasing", decreasing,
                         value=max_devs[-1])


def run_gauge_constants(cfg, report, tol):
    spec = _spec_from_config(cfg)
    n = cfg.getint("constants", "n", default=1024)
    spacing = cfg.getfloat("constants", "spacing", default=1.0)
    identity_tol = cfg.getfloat("constants", "identity_tol", default=1e-10)
    consts = gauge_ham.extract_continuum_constants(spec, n, spacing=spacing)
    report.results.update({
        "inv_eps0": consts.inv_eps0,
        "inv_mu0": consts.inv_mu0,
        "vacuum_energy_per_link": consts.vacuum_energy_per_link,
        "light_speed": consts.light_speed,
        "degenerate": consts.degenerate,
    })
    expected_inv_eps0 = 8.0 * np.pi ** 2 * spacing * spec.electric / n ** 2
    expected_inv_mu0 = spacing * spec.magnetic
    scale_e = max(abs(expected_inv_eps0), 1e-300)
    scale_b = max(abs(expected_inv_mu0), 1e-300)
    if spec.electric != 0.0 or spec.magnetic != 0.0:
        report.add_check("electric-constant-identity",
                         abs(consts.inv_eps0 - expected_inv_eps0) <= identity_tol * scale_e,
                         value=abs(consts.inv_eps0 - expected_inv_eps0) / scale_e,
                         tolerance=identity_tol)
        report.add_check("magnetic-constant-identity",
                         abs(consts.inv_mu0 - expected_inv_mu0) <= identity_tol * scale_b,
                         value=abs(consts.inv_mu0 - expected_inv_mu0) / scale_b,
                         tolerance=identity_tol)
    else:
        report.add_check("degenerate-reported", consts.degenerate)


@dataclass(frozen=True)
class Experiment:
    """``run(cfg, report, tol)`` fills in the report; ``sections`` maps each
    config section it reads besides ``[run]`` to its allowed keys."""

    run: callable
    doc: str
    sections: dict


# Help text of each sector: the part of an experiment name before its first "-".
SECTORS = {"particle": "single-particle studies", "gauge": "link-field studies"}

REGISTRY = {
    "particle-validate": Experiment(
        run_particle_validate,
        "check the conservation constraint and operator hermiticity",
        _PARTICLE_SECTIONS),
    "particle-extract": Experiment(
        run_particle_extract,
        "read mass, background energy and potentials off a kernel",
        _PARTICLE_SECTIONS),
    "particle-evolve": Experiment(
        run_particle_evolve, "propagate an initial state and report norm drift",
        {**_PARTICLE_SECTIONS,
         "state": {"type", "x0", "sigma", "k0", "omega", "strength"},
         "evolve": {"dt", "steps", "drift_tol"}}),
    "particle-converge": Experiment(
        run_particle_converge, "error-vs-spacing study against an analytic solution",
        {"converge": {"problem", "spacings", "duration", "domain", "x0", "sigma",
                      "k0", "omega", "strength", "mass", "min_order"}}),
    "gauge-build": Experiment(
        run_gauge_build, "assemble the link-field Hamiltonian and certify hermiticity",
        _GAUGE_SECTIONS),
    "gauge-symcheck": Experiment(
        run_gauge_symcheck,
        "commutator norms with gauge, charge-conjugation and parity maps",
        _GAUGE_SECTIONS),
    "gauge-spectrum": Experiment(
        run_gauge_spectrum, "lowest eigenvalues and gaps of the link-field Hamiltonian",
        {**_GAUGE_SECTIONS, "spectrum": {"count"}}),
    "gauge-compare-ks": Experiment(
        run_gauge_compare_ks,
        "gap deviations against the standard reference Hamiltonian over N",
        {**_GAUGE_SECTIONS,
         "compare": {"n_list", "count", "require_trend", "zero_magnetic_tol"}}),
    "gauge-constants": Experiment(
        run_gauge_constants, "extract the emergent electric/magnetic constants",
        {**_GAUGE_SECTIONS, "constants": {"n", "spacing", "identity_tol"}}),
}


def list_experiments():
    """Registry names with one-line descriptions."""
    return [(name, exp.doc) for name, exp in sorted(REGISTRY.items())]


def bundled_config_path(name):
    """Filesystem path of a config shipped with the package."""
    path = resources.files("hopquant").joinpath("configs", name)
    if not path.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return str(path)


def bundled_config_names():
    root = resources.files("hopquant").joinpath("configs")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))


def run_experiment(name, cfg, seed=None, tol=None):
    """Resolve the seed, then the tolerance, check the config against the
    experiment's sections, and return the report its runner filled in."""
    if name not in REGISTRY:
        raise ConfigError(f"unknown experiment {name!r}; "
                          f"known: {', '.join(sorted(REGISTRY))}")
    if seed is None:
        seed = cfg.getint("run", "seed", default=0)
    if tol is None:
        tol = cfg.gettolerance("run", "tolerance", default=HERMITICITY_TOL)
    experiment = REGISTRY[name]
    cfg.validate_schema({"run": _BASE_RUN_KEYS, **experiment.sections})
    report = Report(name, seed, cfg.resolved())
    experiment.run(cfg, report, tol)
    return report
