"""Config parsing, experiment dispatch, report emission, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from hopquant import linop
from hopquant.cli import build_parser, main
from hopquant.config import ExperimentConfig
from hopquant.errors import ConfigError
from hopquant.experiments import (
    REGISTRY,
    bundled_config_path,
    list_experiments,
    run_experiment,
)
from hopquant.states import coherent_oscillator


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def bundled_config_names():
    root = resources.files("hopquant").joinpath("configs")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))


VALIDATE_CFG = """
[run]
experiment = particle-validate
seed = 3

[grid]
dims = 8
spacing = 1.0

[kernel]
preset = free-nn
mass = 1.0
"""


# --- parser ------------------------------------------------------------------

def test_parse_sections_and_values():
    cfg = ExperimentConfig.parse(VALIDATE_CFG)
    assert cfg.getstr("run", "experiment") == "particle-validate"
    assert cfg.getint("run", "seed") == 3
    assert cfg.getints("grid", "dims") == [8]
    assert cfg.getfloat("grid", "spacing") == 1.0


def test_parse_error_carries_line_and_column():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.parse("[run]\nexperiment particle-validate\n")
    assert err.value.line == 2


def test_parse_rejects_entry_outside_section():
    with pytest.raises(ConfigError):
        ExperimentConfig.parse("a = 1\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError):
        ExperimentConfig.parse("[run]\nseed = 1\nseed = 2\n")


def test_bad_value_type_reported_with_location():
    cfg = ExperimentConfig.parse("[grid]\nspacing = fast\n")
    with pytest.raises(ConfigError) as err:
        cfg.getfloat("grid", "spacing")
    assert err.value.line == 2


def test_unknown_key_rejected():
    cfg = ExperimentConfig.parse(VALIDATE_CFG + "unknown_key = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        run_experiment("particle-validate", cfg)
    # every declared section of every experiment, and [gauge] spacing wherever [gauge] is read
    cases = [(name, section, "unknown_key") for name, exp in REGISTRY.items()
             for section in ["run", *exp.sections]]
    cases += [(name, "gauge", "spacing") for name, exp in REGISTRY.items()
              if "gauge" in exp.sections]
    for name, section, key in cases:
        cfg = ExperimentConfig.parse(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in \[{section}\]"):
            run_experiment(name, cfg)


def test_unknown_section_rejected():
    cfg = ExperimentConfig.parse(VALIDATE_CFG + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        run_experiment("particle-validate", cfg)
    # a made-up section, and every section that only other experiments read
    declared = {section for exp in REGISTRY.values() for section in exp.sections}
    for name, exp in REGISTRY.items():
        for section in ["mystery", *sorted(declared - set(exp.sections))]:
            cfg = ExperimentConfig.parse(f"[run]\nseed = 1\n[{section}]\nx = 1\n")
            with pytest.raises(ConfigError,
                               match=rf"unknown section \[{section}\] \(line 3"):
                run_experiment(name, cfg)


# --- registry -----------------------------------------------------------------

def test_registry_contents():
    names = [name for name, _ in list_experiments()]
    assert "particle-converge" in names
    assert "gauge-symcheck" in names
    assert len(names) >= 6
    for _, doc in list_experiments():
        assert doc


def test_registry_names_parse_as_subcommands():
    parser = build_parser()
    for name in REGISTRY:
        sector, action = name.split("-", 1)
        args = parser.parse_args([sector, action, "exp.cfg"])
        assert (args.command, args.subcommand, args.experiment) == (sector, action, name)


def test_bundled_configs_exist():
    names = bundled_config_names()
    assert "free_particle.cfg" in names
    assert "plaquette_n_scan.cfg" in names
    assert len(names) >= 6


def test_every_experiment_has_a_bundled_config():
    # a line "experiment = <name>" in some bundled config, for every name `hopquant list` prints
    named = set()
    for name in bundled_config_names():
        text = Path(bundled_config_path(name)).read_text()
        named.update(re.findall(r"^experiment *= *(\S+)$", text, flags=re.MULTILINE))
    missing = [name for name, _ in list_experiments() if name not in named]
    assert not missing, f"no bundled config has 'experiment = <name>' for: {missing}"


# --- cli ----------------------------------------------------------------------

def test_cli_validate_pass(tmp_path, capsys):
    cfg = write(tmp_path, VALIDATE_CFG)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert report["schema_version"] == 1
    assert report["experiment"] == "particle-validate"
    assert report["config"]["kernel"]["preset"] == "free-nn"


def test_cli_validation_failure_exits_two(tmp_path):
    cfg = write(tmp_path, VALIDATE_CFG + "perturb = true\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False


def test_cli_nan_mass_fails_both_checks(tmp_path):
    cfg = write(tmp_path, VALIDATE_CFG.replace("mass = 1.0", "mass = nan"))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("unitarity-constraint", "operator-hermiticity"):
        assert checks[name]["passed"] is False
        assert checks[name]["value"] != checks[name]["value"]  # NaN


def test_cli_parse_error_exits_three(tmp_path, capsys):
    cfg = write(tmp_path, "[run\nexperiment = particle-validate\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "line" in err


def test_cli_unknown_experiment_exits_three(tmp_path):
    cfg = write(tmp_path, "[run]\nexperiment = nope\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3


def test_cli_runtime_error_exits_one(tmp_path, capsys):
    # a valid config asking for more eigenvalues than the space holds
    text = """
[run]
experiment = gauge-spectrum

[gauge]
dims = 2, 1
n = 3
boundary = open

[preset]
type = maxwell

[spectrum]
count = 99
"""
    cfg = write(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1


def test_cli_missing_config_file_exits_one(tmp_path):
    assert main(["run", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "out")]) == 1


def test_cli_subcommand_forces_experiment(tmp_path):
    # config names a different experiment; the subcommand takes precedence
    cfg = write(tmp_path, VALIDATE_CFG.replace("particle-validate",
                                               "particle-extract"))
    out = str(tmp_path / "out")
    assert main(["particle", "validate", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["experiment"] == "particle-validate"


def test_cli_seed_override_recorded(tmp_path):
    cfg = write(tmp_path, VALIDATE_CFG)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out, "--seed", "99"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 99


def test_tolerance_comes_from_the_config_alone(tmp_path, monkeypatch):
    # [run] tolerance (default 1e-12) is the one source; no environment variable
    # overrides it, so the report's config block describes the run
    for tolerance in ("", "tolerance = 0.1\n"):
        cfg = write(tmp_path, VALIDATE_CFG.replace("seed = 3\n", "seed = 3\n" + tolerance))
        monkeypatch.delenv("HOPQUANT_TOL", raising=False)
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("HOPQUANT_TOL", "1e-6")
        assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "report.json").read_bytes()
                == (tmp_path / "b" / "report.json").read_bytes())


def test_run_tolerance_key_rejects_non_finite_or_negative(tmp_path, capsys):
    for entry, col in (("tolerance = nan", 13), ("tolerance = inf", 13),
                       ("tolerance = -1", 13), ("tolerance=nan", 11)):
        text = VALIDATE_CFG.replace("seed = 3", f"seed = 3\n{entry}")
        with pytest.raises(ConfigError) as err:
            run_experiment("particle-validate", ExperimentConfig.parse(text))
        assert (err.value.line, err.value.col) == (5, col)
        cfg = write(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "tolerance" in capsys.readouterr().err


def test_symcheck_section_rejected(tmp_path, capsys):
    text = Path(bundled_config_path("gauge_symcheck_small.cfg")).read_text()
    text += "\n[symcheck]\nprobes = 4\n"
    line = text.splitlines().index("[symcheck]") + 1
    cfg = write(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"unknown section [symcheck] (line {line}, col 1)" in err


def test_cli_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "particle-converge" in out
    assert "gauge-symcheck" in out


def test_reports_byte_stable(tmp_path):
    cfg = bundled_config_path("gauge_symcheck_small.cfg")
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "--out", out1]) == 0
    assert main(["run", cfg, "--out", out2]) == 0
    for name in os.listdir(out1):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


@pytest.mark.parametrize("config, old, new, error", [
    pytest.param("constants_roundtrip.cfg", "[constants]",
                 "[gauge]\ndims = 2, 2\n\n[constants]", "unknown section [gauge]",
                 id="constants-gauge-section"),
    pytest.param("plaquette_n_scan.cfg", "boundary = open", "boundary = open\nn = 4",
                 "unknown key 'n' in [gauge]", id="compare-ks-gauge-n"),
])
def test_gauge_entries_an_experiment_does_not_read_exit_three(tmp_path, capsys, config,
                                                               old, new, error):
    # gauge-constants reads no lattice, and gauge-compare-ks takes N from n_list
    text = Path(bundled_config_path(config)).read_text()
    assert old in text
    cfg = write(tmp_path, text.replace(old, new))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bundled_gauge_constants_config(tmp_path):
    cfg = bundled_config_path("constants_roundtrip.cfg")
    out = str(tmp_path / "out")
    assert main(["gauge", "constants", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True


def test_bundled_evolve_config(tmp_path):
    cfg = bundled_config_path("evolve_demo.cfg")
    out = str(tmp_path / "out")
    assert main(["particle", "evolve", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "final_state.csv").exists()


@pytest.mark.parametrize("tolerance, dims", [("0.1", 128), ("0.1", 4096), ("1e-3", 128)])
def test_evolve_builds_with_the_run_tolerance(tmp_path, capsys, tolerance, dims):
    # the perturbed kernel's hermiticity defect, 5.7e-3, lies between the two
    # tolerances: at 1e-3 the operator is refused, at 0.1 it builds, and the
    # series applies that non-Hermitian H, whose norm drifts, at every size
    error = "exceeds 1.0e-03" if tolerance == "1e-3" else "norm drift"
    text = Path(bundled_config_path("evolve_demo.cfg")).read_text()
    text = text.replace("seed = 1", f"seed = 1\ntolerance = {tolerance}")
    text = text.replace("dims = 128", f"dims = {dims}")
    cfg = write(tmp_path, text.replace("mass = 1.0", "mass = 1.0\nperturb = true"))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert error in capsys.readouterr().err


def test_validate_refused_build_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    # a build refused for memory measured no defect: no hermiticity check fails
    monkeypatch.setattr(linop, "_available_memory_bytes", lambda: 2 ** 16)
    cfg = bundled_config_path("nn_validate.cfg")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "more than the" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_extract_writes_potentials_table(tmp_path):
    cfg = bundled_config_path("extract_demo.cfg")
    out = str(tmp_path / "out")
    assert main(["particle", "extract", cfg, "--out", out]) == 0
    table = (tmp_path / "out" / "potentials.csv").read_text().splitlines()
    assert table[0] == "site,x1,A1,U"
    assert len(table) == 1 + 64
    # every cell is a number: numpy 2 wrote np.float64 fields as "np.float64(0.0)"
    values = np.loadtxt(tmp_path / "out" / "potentials.csv", delimiter=",", skiprows=1)
    assert values.shape == (64, 4)
    assert np.array_equal(values[:, 0], np.arange(64))


@pytest.mark.parametrize("kernel", ["preset = free-nn",
                                    "preset = from-potentials\npotential = constant-a\n"
                                    "strength = 0.3"], ids=["free-nn", "constant-a"])
def test_extract_reads_hbar_of_the_kernel(tmp_path, kernel):
    # a kernel built at hbar = 0.5 read at hbar = 1 had mass 8.0 and, in a
    # constant field of 0.3, A = 0.6
    text = f"""
[run]
experiment = particle-extract

[grid]
dims = 16
spacing = 0.25

[kernel]
{kernel}
mass = 2.0
hbar = 0.5
"""
    out = tmp_path / "out"
    assert main(["run", write(tmp_path, text), "--out", str(out)]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["mass"] == pytest.approx(2.0, rel=1e-12)
    strength = 0.3 if "constant-a" in kernel else 0.0
    assert results["A1_range"] == pytest.approx([strength] * 2, abs=1e-12)
    assert results["U_range"] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_converge_bundled_free_particle(tmp_path):
    cfg = bundled_config_path("free_particle.cfg")
    out = str(tmp_path / "out")
    assert main(["particle", "converge", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["order"] > 1.8
    table = (tmp_path / "out" / "errors.csv").read_text().splitlines()
    assert table[0] == "spacing,l2_error"
    assert len(table) == 4


def test_gauge_spectrum_count_flag(tmp_path):
    cfg = bundled_config_path("plaquette_spectrum.cfg")
    out = str(tmp_path / "out")
    assert main(["gauge", "spectrum", cfg, "--out", out, "--count", "4"]) == 0
    table = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
    assert len(table) == 5


SMALL_GAUGE_CFG = """
[gauge]
dims = 2, 1
n = 3
boundary = open

[preset]
type = maxwell
"""


SMALL_EVOLVE_CFG = """
[grid]
dims = 8
spacing = 1.0

[kernel]
preset = free-nn
mass = 1.0

[state]
type = gaussian
x0 = 0.0
sigma = 1.0

[evolve]
"""


@pytest.mark.parametrize("experiment, extra, flags, key", [
    pytest.param("gauge-spectrum", "[spectrum]\ncount = 0\n", [], "[spectrum] count",
                 id="spectrum-count-0"),
    pytest.param("gauge-spectrum", "", ["--count", "0"], "[spectrum] count",
                 id="count-flag-0"),
    pytest.param("gauge-spectrum", "", ["--count", "-2"], "[spectrum] count",
                 id="count-flag-negative"),
    pytest.param("gauge-compare-ks", "[compare]\nn_list = 3, 4\ncount = 0\n", [],
                 "[compare] count", id="compare-count-0"),
    pytest.param("gauge-compare-ks", "[compare]\nn_list =\n", [], "[compare] n_list",
                 id="n_list-empty"),
    pytest.param("gauge-compare-ks", "lambda_b = 0\n[compare]\nn_list =\n", [],
                 "[compare] n_list", id="n_list-empty-zero-magnetic"),
    # one clock order makes no trend while lambda_b != 0 and require_trend holds
    pytest.param("gauge-compare-ks", "[compare]\nn_list = 3\n", [], "[compare] n_list",
                 id="n_list-single-with-trend"),
    # a NaN step once wrote an all-NaN state that passed norm-drift at 0.0
    pytest.param("particle-evolve", "dt = nan\nsteps = 3\n", [], "[evolve] dt",
                 id="evolve-dt-nan"),
    pytest.param("particle-evolve", "dt = 0.05\nsteps = -3\n", [], "[evolve] steps",
                 id="evolve-steps-negative"),
    pytest.param("particle-evolve", "dt = 0.05\nsteps = 3\ndrift_tol = nan\n", [],
                 "[evolve] drift_tol", id="evolve-drift-tol-nan"),
])
def test_counts_and_n_lists_without_a_result_exit_three(tmp_path, capsys, experiment,
                                                         extra, flags, key):
    sector, action = experiment.split("-", 1)
    text = {"gauge": SMALL_GAUGE_CFG, "particle": SMALL_EVOLVE_CFG}[sector]
    if experiment == "gauge-compare-ks":
        text = text.replace("n = 3\n", "")  # its clock orders come from [compare] n_list
    cfg = write(tmp_path, text + extra)
    assert main([sector, action, cfg, "--out", str(tmp_path / "out"), *flags]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tabulated_kernel_config(tmp_path):
    text = """
[run]
experiment = particle-validate

[grid]
dims = 12
spacing = 1.0

[kernel]
preset = tabulated
k0(0) = 1.0
k0(1) = -0.4+0j
k0(-1) = -0.4
k0(2) = -0.05
k0(-2) = -0.05
"""
    cfg = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0


def test_random_kernel_config_passes_validation(tmp_path):
    text = """
[run]
experiment = particle-validate
seed = 5

[grid]
dims = 6, 6
spacing = 0.5

[kernel]
preset = random
scale = 0.3
"""
    cfg = write(tmp_path, text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0


def test_run_tolerance_key(tmp_path):
    cfg = write(tmp_path, VALIDATE_CFG.replace("seed = 3",
                                               "seed = 3\ntolerance = 1e-9"))
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"][0]["tolerance"] == 1e-9


def test_evolve_reads_mass_and_hbar_of_the_kernel(tmp_path):
    # a quarter period of the m = 2, hbar = 0.5 well: the state, the kernel and
    # the propagator all take [kernel] mass and hbar (with m = hbar = 1 in the
    # state and the propagator, the error was 1.11)
    text = f"""
[run]
experiment = particle-evolve

[grid]
dims = 321
spacing = 0.05
boundary = open
origin = -8

[kernel]
preset = from-potentials
potential = harmonic
mass = 2.0
hbar = 0.5

[state]
type = coherent
x0 = 1.0

[evolve]
dt = {math.pi / 16!r}
steps = 8
"""
    out = tmp_path / "out"
    assert main(["run", write(tmp_path, text), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "final_state.csv", delimiter=",", skiprows=1)
    psi = rows[:, 1] + 1j * rows[:, 2]
    exact = coherent_oscillator(-8.0 + 0.05 * np.arange(321), math.pi / 2, x0=1.0,
                                mass=2.0, hbar=0.5)
    overlap = np.vdot(exact, psi)
    error = np.linalg.norm(psi - overlap / abs(overlap) * exact) / np.linalg.norm(exact)
    assert error < 0.02  # 1.1e-2, the lattice's own error at this spacing


def test_evolve_drifting_state(tmp_path):
    text = """
[run]
experiment = particle-evolve

[grid]
dims = 96
spacing = 0.25
origin = -12

[kernel]
preset = from-potentials
potential = constant-a
strength = 0.5235987755982988

[state]
type = drifting
strength = 0.5235987755982988

[evolve]
dt = 0.5
steps = 2
"""
    cfg = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0


@pytest.mark.parametrize("kernel, state", [
    ("potential = harmonic\nomega = 2.0", "type = coherent\nx0 = 1.0\nomega = 2.0"),
    ("potential = constant-a\nstrength = 0.5", "type = drifting\nstrength = 0.5"),
], ids=["coherent-omega", "drifting-strength"])
def test_evolve_state_defaults_follow_the_kernel(tmp_path, kernel, state):
    # the same run with the state's key left out and set to the kernel's value
    template = """
[run]
experiment = particle-evolve

[grid]
dims = 161
spacing = 0.1
boundary = open
origin = -8

[kernel]
preset = from-potentials
{kernel}

[state]
{state}

[evolve]
dt = 0.1
steps = 4
"""
    outputs = []
    for name, lines in (("implied", state.splitlines()[:-1]), ("explicit", state.splitlines())):
        cfg = write(tmp_path, template.format(kernel=kernel, state="\n".join(lines)),
                    name=f"{name}.cfg")
        out = tmp_path / name
        assert main(["run", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        outputs.append((report["results"], report["checks"],
                        (out / "final_state.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_gauge_build_reports_dimensions(tmp_path):
    cfg = bundled_config_path("gauge_symcheck_small.cfg")
    out = str(tmp_path / "out")
    assert main(["gauge", "build", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["dimension"] == 3 ** 8
    assert report["results"]["hermiticity_defect"] == 0.0


def test_gauge_compare_ks_bundled_scan(tmp_path):
    cfg = bundled_config_path("plaquette_n_scan.cfg")
    out = str(tmp_path / "out")
    assert main(["gauge", "compare-ks", cfg, "--out", out]) == 0
    table = (tmp_path / "out" / "gap_deviation.csv").read_text().splitlines()
    assert table[0] == "n,gap_index,gap_hopping,gap_reference,deviation"
    assert len(table) == 1 + 4 * 5  # four clock orders, five gaps each
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    devs = report["results"]["max_deviations"]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def _python(code):
    """Standard output of ``python -c code`` with this tree's sources first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout.strip().splitlines()


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.sparse, and scipy.special or sparse.linalg with it, is loaded only
    # where an operator is wrapped for scipy, so it is no cost of the command line
    assert _python(f"import sys, hopquant.cli; print({SCIPY_MODULES})") == ["[]"]


def test_bundled_configs_load_no_scipy(tmp_path):
    # the solvers load scipy's CSR kernels from their file, not through scipy.sparse
    code = f"""
import os, sys
from hopquant import linop
from hopquant.config import ExperimentConfig
from hopquant.experiments import bundled_config_path, run_experiment

passed = []
for i, name in enumerate({bundled_config_names()!r}):
    cfg = ExperimentConfig.from_file(bundled_config_path(name))
    report = run_experiment(cfg.getstr("run", "experiment"), cfg)
    report.write(os.path.join({str(tmp_path)!r}, str(i)))
    assert report.passed, name
    passed.append(name)
print({SCIPY_MODULES})
print("plaquette_spectrum.cfg" in passed, linop._kernels.cache_info().currsize)
"""
    assert len(bundled_config_names()) == 11
    # plaquette_spectrum's eigensolve makes sparse products, so the guard is not vacuous
    assert _python(code) == ["[]", "True 1"]
