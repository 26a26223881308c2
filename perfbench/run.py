"""hopquant benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

hopquant is imported from the ``src/`` directory beside ``perfbench/``;
without one the run exits with an error and prints no result. Every pass
of the workload runs in a fresh process (``passes.py``), so that set-up
time and peak resident memory are those of one pass. The BLAS thread count stays at the machine default unless the
caller sets it; the environment record printed with every result says which.

With ``--trace 0`` the run first starts the workload's process a few times
up to its first call, to sample set-up time, then runs whole passes while
the next one still fits in ``--seconds``. It reports the median over passes
of:

  wall_s       wall time of the pass's timed calls
  cpu_s        user + system CPU time of those calls, all threads and children
  peak_rss_mb  peak resident memory of the pass's process (MiB)
  setup_s      process start through import and input generation to the
               first timed call (median over all set-ups of the run)

With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of ``workloads.LAYERS`` from the traced pass's spans,
plus the tracing overhead (traced minus untraced wall_s). The spans are
written to ``perfbench/out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The error rate is
``failed / attempted``: an operation is one timed call, and it fails when
it raises or its output misses the workload's correctness gate.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class Run:
    """Spawns the pass processes of one benchmark run and keeps its tallies."""

    def __init__(self, workload, seed, tiny):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        spec = workloads.WORKLOADS[workload]
        self.planned = spec["planned"](spec["tiny" if tiny else "params"])
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.crashed = False

    def elapsed(self):
        return time.monotonic() - self.start

    def spawn(self, pass_index=0, trace=False, setup_only=False):
        """Run one pass process; its result dict, or None if it crashed."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "passes.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--pass-index", str(pass_index), "--t0", repr(t0)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--tiny"] * self.tiny
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=env, cwd=ROOT, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += "\npass process killed: the run's time limit was reached"
        if proc.returncode != 0:
            self._crash(f"pass process exited with {proc.returncode}: {err.strip()[-2000:]}")
            return None
        result = json.loads(out.strip().splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]
        return result

    def _crash(self, message):
        self.crashed = True
        self.attempted += self.planned
        self.failed += self.planned
        self.failures.append(message)


def timed_run(run, seconds):
    setups, passes = [], []
    for _ in range(SETUP_SAMPLES):
        result = run.spawn(setup_only=True)
        if result is None:
            return None
        setups.append(result["setup_s"])
    while True:
        began = run.elapsed()
        result = run.spawn(pass_index=len(passes))
        if result is None:
            break
        passes.append(result)
        setups.append(result["setup_s"])
        took = run.elapsed() - began
        if run.elapsed() + took > min(seconds, RUN_LIMIT_S):
            break
    if not passes:
        return None
    for p in passes:
        print(f"pass: wall_s {p['wall_s']:.4f} cpu_s {p['cpu_s']:.4f} "
              f"peak_rss_mb {p['peak_rss_mb']:.1f} setup_s {p['setup_s']:.4f}")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    values = {name: statistics.median(p[name] for p in passes)
              for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def traced_run(run, env_record):
    base = run.spawn()
    traced = run.spawn(trace=True) if base is not None else None
    if traced is None:
        return None
    values = layer_metrics(traced)
    values["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{run.workload}-{run.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env_record, "untraced_wall_s": base["wall_s"],
                   "traced_wall_s": traced["wall_s"], "spans": traced["spans"],
                   "notes": traced["notes"], "metrics": values}, fh, indent=1)
    print(f"spans: {len(traced['spans'])} written to {os.path.relpath(path, ROOT)}")
    print(f"tracing overhead: {values['trace.overhead_s']:+.4f} s "
          f"(traced wall_s {traced['wall_s']:.4f} - untraced {base['wall_s']:.4f})")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in workloads.LAYERS}


def layer_metrics(traced):
    """Per-layer values from a traced pass; 0 for layers the workload skips."""
    values = {name: 0.0 for name, _, _, _ in workloads.LAYERS}
    durations = {}
    for span in traced["spans"]:
        durations.setdefault(span["name"], []).append(span["end"] - span["start"])
        if span["name"] in workloads.PEAK_METRICS:
            values[workloads.PEAK_METRICS[span["name"]]] = span["peak_bytes"] / 2 ** 20
    for name, times in durations.items():
        key = name + "_s"
        if key in values:
            per_call = name in workloads.PER_CALL
            values[key] = statistics.median(times) if per_call else sum(times)
    values.update({k: v for k, v in traced["notes"].items() if k in values})
    if values["gauge_ham.csr_mb"]:
        values["gauge_ham.build_peak_over_csr"] = (
            values["gauge_ham.build_peak_mb"] / values["gauge_ham.csr_mb"])
    return values


def _source_digest():
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "hopquant"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_depend_on_seed": workloads.WORKLOADS[args.workload]["seeded"],
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="hopquant benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the small inputs of the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopquant", "__init__.py")):
        print(f"perfbench: no hopquant sources under {SRC}", file=sys.stderr)
        return 2
    env_record = environment(args)
    print("environment: " + json.dumps(env_record, sort_keys=True))
    run = Run(args.workload, args.seed, args.tiny)
    metrics = traced_run(run, env_record) if args.trace else timed_run(run, args.seconds)
    for failure in run.failures:
        print(f"FAILED {failure}")
    if metrics is None:
        print("perfbench: no pass of the workload completed", file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':32s} {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations failed)")
    print(json.dumps({"correct": run.failed == 0 and not run.crashed,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
