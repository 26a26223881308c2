"""The four hopquant benchmark workloads and the per-layer metric table.

Each workload is a closed loop with one client: a function that makes a
fixed sequence of calls into hopquant's public functions through
``Pass.call``, each call starting after the previous one returns. Every
call is one operation; it fails when it raises or when its output misses
the workload's correctness gate. The reference values of the gates were
recorded from the code at the commit that introduced this benchmark.

A workload receives ``key = (seed, pass index)``. A seeded workload draws
its inputs from the key, so one run's median mixes several draws: on
particle_cube the draw decides whether Krylov steps take 23 or 24
iterations, a 15% difference in work that would otherwise split the runs
of different seeds into two groups.

Each entry of ``WORKLOADS`` holds the desk-scale inputs the benchmark
measures (``params``) and inputs small enough for the benchmark's own tests
(``tiny``). Why each workload was chosen is recorded in BENCHMARK.json.
"""

import os
import shutil
import subprocess
import sys

PERIODIC_2X2 = ((2, 2), "periodic")
MAXWELL = (1.0, 1.0)  # lambda_E, lambda_B
# criterion 1's representative offsets; their partners follow from unitarity
PARTICLE_OFFSETS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 0, 0)]
BUNDLED_CONFIGS = [
    "constant_a_drift.cfg", "constants_roundtrip.cfg", "evolve_demo.cfg",
    "extract_demo.cfg", "free_particle.cfg", "gauge_symcheck_small.cfg",
    "harmonic_period.cfg", "nn_validate.cfg", "plaquette_n_scan.cfg",
    "plaquette_spectrum.cfg",
]

HERMITICITY_TOL = 1e-12
COMMUTATOR_TOL = 1e-12
SPECTRUM_TOL = 1e-7      # ground energy and max gap deviation, absolute
NORM_DRIFT_TOL = 1e-8    # over all propagation steps
ENERGY_DRIFT_TOL = 1e-8  # <H> after each step against <H> before the first
APPLY_KERNEL_TOL = 1e-12  # max |apply_kernel - CSR matvec|
CLI_TIMEOUT_S = 120.0


def _hermitian(op):
    if op.hermiticity_defect > HERMITICITY_TOL:
        return f"hermiticity defect {op.hermiticity_defect:.3e}"
    return None


def _within(what, value, reference, tol):
    if not abs(value - reference) <= tol:
        return f"{what} {value!r} differs from {reference!r} by more than {tol:g}"
    return None


def gauge_spectrum(p, params, key):
    """Build H and the reference, then compare their lowest five gaps."""
    import hopquant as hq
    from hopquant import linop

    dims, boundary = PERIODIC_2X2
    lattice = hq.LinkLattice(dims, params["n"], boundary=boundary)
    spec = hq.MaxwellPreset(*MAXWELL)

    def gate(comp):
        ground = linop.eigs_extremal(hop, 1)[0][0]
        return (_within("ground energy", ground, params["ground_energy"], SPECTRUM_TOL)
                or _within("max gap deviation", comp.max_deviation,
                           params["max_deviation"], SPECTRUM_TOL))

    hop = p.call("gauge_ham.build", hq.build_gauge_hamiltonian, lattice, spec,
                 gate=_hermitian, peak=True)
    ref = p.call("gauge_ham.reference_build", hq.reference_ks_hamiltonian,
                 lattice, *MAXWELL, gate=_hermitian, peak=True)
    p.call("gauge_ham.compare", hq.compare_to_reference, hop, ref, 5, gate=gate)
    _note_gauge_operator(p, hop)


def gauge_certify(p, params, key):
    """Build H, certify its symmetries, split off the invariant sector."""
    import hopquant as hq

    dims, boundary = PERIODIC_2X2
    lattice = hq.LinkLattice(dims, params["n"], boundary=boundary)
    spec = hq.MaxwellPreset(*MAXWELL)

    def commutators_vanish(report):
        worst = max(report.gauge, report.charge_conjugation, report.parity)
        if worst > COMMUTATOR_TOL:
            return f"commutator norm {worst:.3e} ({report})"
        return None

    def invariant_dim(inv):
        if inv.dimension != params["invariant_dim"]:
            return f"invariant dimension {inv.dimension} != {params['invariant_dim']}"
        return None

    hop = p.call("gauge_ham.build", hq.build_gauge_hamiltonian, lattice, spec,
                 gate=_hermitian, peak=True)
    p.call("gauge_ham.symcheck", hq.symmetry_commutator_norms, hop, lattice,
           gate=commutators_vanish)
    inv = p.call("zn.invariant", hq.project_gauge_invariant, lattice,
                 gate=invariant_dim)
    p.call("gauge_ham.reference_build", hq.reference_ks_hamiltonian,
           lattice, *MAXWELL, gate=_hermitian, peak=True)
    _note_gauge_operator(p, hop)
    p.note("zn.invariant_dim", inv.dimension)
    if p.trace:
        p.note("gauge_ham.commutators", _commutators_checked(dims, boundary))


def _note_gauge_operator(p, op):
    p.note("gauge_ham.dim", op.dimension)
    p.note("gauge_ham.nnz", op.matrix.nnz)
    p.note("gauge_ham.csr_mb", _csr_mb(op))


def _commutators_checked(dims, boundary):
    """Permutations symmetry_commutator_norms checks: generators, C, parities.

    The count depends on the extents and boundary only, so it is taken on
    the N=2 lattice of the same shape.
    """
    import hopquant as hq
    from hopquant import gauge_ham, zn

    small = hq.LinkLattice(dims, 2, boundary=boundary)
    return (len(zn.site_generator_permutations(small)) + 1
            + len(gauge_ham.allowed_parity_centers(small)))


def _csr_mb(op):
    m = op.matrix
    return (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes) / 2 ** 20


def particle_cube(p, params, key):
    """Random unitary kernel on a periodic cube: build, apply, propagate."""
    import numpy as np
    import hopquant as hq
    from hopquant import linop

    size = params["size"]
    grid = hq.LatticeGrid((size,) * 3, 1.0)
    kernel_rng = np.random.default_rng([*key, 0])
    vec_rng = np.random.default_rng([*key, 1])
    v = vec_rng.standard_normal(grid.n_sites) + 1j * vec_rng.standard_normal(grid.n_sites)
    v /= np.linalg.norm(v)
    state = {}

    def validated(report):
        return None if report.passed else f"kernel violates unitarity by {report.max_violation:.3e}"

    def matches_matvec(out):
        diff = float(np.abs(out.ravel() - state["hv"]).max())
        return None if diff <= APPLY_KERNEL_TOL else f"apply_kernel differs from matvec by {diff:.3e}"

    def conserved(w):
        drift = abs(np.linalg.norm(w) - 1.0)
        energy = np.vdot(w, op.matvec(w)).real
        return (None if drift <= NORM_DRIFT_TOL else f"norm drift {drift:.3e}") or \
            _within("<H>", energy, state["energy"], ENERGY_DRIFT_TOL)

    kernel = p.call("particle.kernel", hq.random_unitary_kernel, grid, kernel_rng,
                    representatives=PARTICLE_OFFSETS)
    p.call("particle.validate", hq.validate_kernel_unitarity, kernel, gate=validated)
    op = p.call("particle.build", hq.build_particle_hamiltonian, kernel,
                gate=_hermitian, peak=True)
    for _ in range(params["matvecs"]):
        state["hv"] = p.call("linop.matvec", op.matvec, v)
    state["energy"] = np.vdot(v, state["hv"]).real
    for _ in range(params["matvecs"]):
        p.call("particle.apply_kernel", hq.apply_kernel, kernel, v.reshape(grid.shape),
               gate=matches_matvec)
    w = v
    for _ in range(params["steps"]):
        w = p.call("linop.propagate", linop.propagate, op, w, params["dt"],
                   gate=conserved)
    p.note("particle.csr_mb", _csr_mb(op))


def cli_configs(p, params, key):
    """Every bundled config through ``python -m hopquant.cli run``, in turn.

    A traced pass also runs the same configs in this process, one layer at
    a time, outside the measured wall time.
    """
    import json

    from hopquant.experiments import bundled_config_path

    paths = [bundled_config_path(name) for name in params["configs"]]

    def cli_ok(outdir):
        def gate(proc):
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"
            with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
                failed = [c["name"] for c in json.load(fh)["checks"] if not c["passed"]]
            return f"report checks failed: {failed}" if failed else None
        return gate

    for path in paths:
        outdir = p.scratch_dir()
        cmd = [sys.executable, "-m", "hopquant.cli", "run", path, "--out", outdir]
        try:
            p.call("cli." + _stem(path), subprocess.run, cmd, capture_output=True,
                   text=True, timeout=CLI_TIMEOUT_S, gate=cli_ok(outdir))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    if p.trace:
        _inprocess_layers(p, paths)


def _inprocess_layers(p, paths):
    from hopquant.config import ExperimentConfig
    from hopquant.experiments import run_experiment

    def passed(report):
        return None if report.passed else f"{report.experiment} failed its checks"

    for path in paths:
        with p.span("inprocess." + _stem(path)):
            cfg = p.call("config.parse", ExperimentConfig.from_file, path, timed=False)
            report = p.call("experiments.run", run_experiment,
                            cfg.getstr("run", "experiment"), cfg, timed=False,
                            gate=passed)
            outdir = p.scratch_dir()
            try:
                p.call("report.write", report.write, outdir, timed=False)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


WORKLOADS = {
    "cli_configs": dict(
        run=cli_configs,
        planned=lambda params: len(params["configs"]),
        params={"configs": BUNDLED_CONFIGS},
        tiny={"configs": ["nn_validate.cfg"]},
        seeded=False),
    "gauge_spectrum": dict(
        run=gauge_spectrum,
        planned=lambda params: 3,
        params={"n": 4, "ground_energy": -12.16880082, "max_deviation": 0.22977396},
        tiny={"n": 2, "ground_energy": -12.0, "max_deviation": 0.22364371},
        seeded=False),
    "gauge_certify": dict(
        run=gauge_certify,
        planned=lambda params: 4,
        params={"n": 5, "invariant_dim": 5 ** 5},
        tiny={"n": 2, "invariant_dim": 2 ** 5},
        seeded=False),
    "particle_cube": dict(
        run=particle_cube,
        planned=lambda params: 3 + 2 * params["matvecs"] + params["steps"],
        params={"size": 64, "matvecs": 10, "steps": 4, "dt": 0.5},
        tiny={"size": 8, "matvecs": 10, "steps": 4, "dt": 0.5},
        seeded=True),
}

# The per-layer metrics of a traced run: (name, unit, workload it is
# measured for, the end-to-end metric it should move there). A metric whose
# layer does not run on a workload reads 0 on that workload.
LAYERS = [
    ("cli.import_s", "s", "all", "setup_s on every workload; wall_s on cli_configs"),
    *[("cli." + name[:-4] + "_s", "s", "cli_configs", "wall_s")
      for name in BUNDLED_CONFIGS],
    ("config.parse_s", "s", "cli_configs", "wall_s"),
    ("experiments.run_s", "s", "cli_configs", "wall_s"),
    ("report.write_s", "s", "cli_configs", "wall_s"),
    ("gauge_ham.compare_s", "s", "gauge_spectrum",
     "wall_s and cpu_s; no change on gauge_certify and particle_cube, where it does not run"),
    ("gauge_ham.build_s", "s", "gauge_spectrum gauge_certify", "peak_rss_mb and wall_s"),
    ("gauge_ham.reference_build_s", "s", "gauge_spectrum gauge_certify",
     "peak_rss_mb and wall_s"),
    ("gauge_ham.dim", "count", "gauge_spectrum gauge_certify", "recorded alongside"),
    ("gauge_ham.nnz", "count", "gauge_spectrum gauge_certify", "recorded alongside"),
    ("gauge_ham.symcheck_s", "s", "gauge_certify", "wall_s"),
    ("gauge_ham.commutators", "count", "gauge_certify", "wall_s"),
    ("gauge_ham.build_peak_mb", "MiB", "gauge_certify", "peak_rss_mb and wall_s"),
    ("gauge_ham.reference_peak_mb", "MiB", "gauge_certify", "peak_rss_mb and wall_s"),
    ("gauge_ham.csr_mb", "MiB", "gauge_certify", "recorded alongside (computed CSR bytes)"),
    ("gauge_ham.build_peak_over_csr", "ratio", "gauge_certify",
     "peak_rss_mb (assembly peak over final CSR)"),
    ("zn.invariant_s", "s", "gauge_certify", "wall_s"),
    ("zn.invariant_dim", "count", "gauge_certify", "recorded alongside"),
    ("linop.propagate_s", "s", "particle_cube", "wall_s"),
    ("linop.matvec_s", "s", "particle_cube", "wall_s (per call)"),
    ("particle.apply_kernel_s", "s", "particle_cube", "wall_s (per call)"),
    ("particle.build_s", "s", "particle_cube", "peak_rss_mb and wall_s"),
    ("particle.build_peak_mb", "MiB", "particle_cube", "peak_rss_mb"),
    ("particle.csr_mb", "MiB", "particle_cube", "peak_rss_mb"),
    ("particle.kernel_s", "s", "particle_cube", "recorded alongside"),
    ("particle.validate_s", "s", "particle_cube", "recorded alongside"),
    ("trace.overhead_s", "s", "all", "none: traced wall_s minus untraced wall_s"),
]
# spans whose layer metric is the median time of one call, not the total
PER_CALL = {"linop.matvec", "particle.apply_kernel"}
# spans whose tracemalloc peak is a layer metric
PEAK_METRICS = {"gauge_ham.build": "gauge_ham.build_peak_mb",
                "gauge_ham.reference_build": "gauge_ham.reference_peak_mb",
                "particle.build": "particle.build_peak_mb"}
