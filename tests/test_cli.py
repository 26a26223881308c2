"""Config parsing, experiment dispatch, report emission, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopquant import linop
from hopquant.cli import build_parser, main
from hopquant.config import ExperimentConfig
from hopquant.errors import ConfigError
from hopquant.experiments import (
    REGISTRY,
    bundled_config_names,
    bundled_config_path,
    list_experiments,
    run_experiment,
)


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
    # every declared section of every experiment, and the removed [gauge] spacing
    cases = [(name, section, "unknown_key") for name, exp in REGISTRY.items()
             for section in ["run", *exp.sections]]
    cases += [(name, "gauge", "spacing") for name in REGISTRY if name.startswith("gauge-")]
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


def test_cli_tolerance_env_override(tmp_path, monkeypatch):
    cfg = write(tmp_path, VALIDATE_CFG)
    out = str(tmp_path / "out")
    monkeypatch.setenv("HOPQUANT_TOL", "1e-6")
    assert main(["run", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"][0]["tolerance"] == 1e-6


def test_cli_rejects_non_finite_or_negative_env_tolerance(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path, VALIDATE_CFG)
    for raw in ("nan", "inf", "-1"):
        monkeypatch.setenv("HOPQUANT_TOL", raw)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"HOPQUANT_TOL={raw!r} is not a finite non-negative number" in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("tolerance, code", [("0.1", 0), ("1e-3", 1)])
def test_evolve_builds_with_the_run_tolerance(tmp_path, capsys, tolerance, code):
    # the perturbed kernel's hermiticity defect, 5.7e-3, lies between the two
    text = Path(bundled_config_path("evolve_demo.cfg")).read_text()
    text = text.replace("seed = 1", f"seed = 1\ntolerance = {tolerance}")
    cfg = write(tmp_path, text.replace("mass = 1.0", "mass = 1.0\nperturb = true"))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == code
    if code:
        assert "exceeds 1.0e-03" in capsys.readouterr().err


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
    cfg = write(tmp_path, {"gauge": SMALL_GAUGE_CFG, "particle": SMALL_EVOLVE_CFG}[sector]
                + extra)
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
    assert len(bundled_config_names()) == 10
    # plaquette_spectrum's eigensolve makes sparse products, so the guard is not vacuous
    assert _python(code) == ["[]", "True 1"]
