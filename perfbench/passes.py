"""One pass of a workload, run in a fresh process by ``run.py``.

A pass imports hopquant, generates the workload's inputs from the seed,
makes the workload's calls and prints one JSON line with what it measured:
set-up time, wall and CPU time of the calls, peak resident memory, the
operations attempted and failed, and, when traced, the spans and notes
from which ``run.py`` derives the per-layer metrics.

    python3 perfbench/passes.py --workload NAME --seed N --t0 MONOTONIC
                                [--pass-index I] [--trace] [--setup-only] [--tiny]
"""

import argparse
import itertools
import json
import os
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


class PassAborted(Exception):
    """A call raised, so the calls after it cannot run."""


class SetupDone(Exception):
    """A set-up-only pass reached its first call."""


def _cpu_s():
    """User + system CPU of this process, its threads and waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Peak resident memory of this process and its waited children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Pass:
    """Times, gates and (when traced) spans the calls of one workload pass.

    ``t0`` is the monotonic time at which the pass's process was started;
    the set-up time runs from it to the start of the first call. Spans are
    kept in memory as dicts with name, start, end and parent.
    """

    def __init__(self, t0, trace=False, setup_only=False):
        self.t0 = t0
        self.trace = trace
        self.setup_only = setup_only
        self.setup_s = None
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.attempted = 0
        self.failures = []
        self.spans = []
        self.notes = {}
        self._open = []
        self._scratch = itertools.count()

    @contextmanager
    def span(self, name, peak=False):
        if not self.trace:
            yield
            return
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        if peak:
            tracemalloc.start()
        try:
            yield
        finally:
            if peak:
                record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, gate=None, peak=False, timed=True, **kwargs):
        """One operation: ``fn(*args, **kwargs)``, then its gate, untimed.

        ``gate(result)`` returns None when the output is correct, else a
        message. A call that raises aborts the pass. ``timed=False`` keeps
        the call out of the pass's wall and CPU time.
        """
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.t0
            if self.setup_only:
                raise SetupDone
        self.attempted += 1
        with self.span(name, peak=peak):
            cpu0, wall0 = _cpu_s(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                raise PassAborted(name) from exc
            wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
        if timed:
            self.wall_s += wall
            self.cpu_s += cpu
        try:
            problem = gate(result) if gate is not None else None
        except Exception as exc:
            problem = f"gate raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{name}: {problem}")
        return result

    def note(self, name, value):
        self.notes[name] = value

    def scratch_dir(self):
        """A fresh output path inside the checkout, not yet created."""
        return os.path.join(OUT, f"scratch-{os.getpid()}-{next(self._scratch)}")


def run_pass(workload, seed, t0, pass_index=0, trace=False, setup_only=False,
             tiny=False):
    """Run one pass in this process and return its measurements as a dict."""
    spec = workloads.WORKLOADS[workload]
    params = spec["tiny" if tiny else "params"]
    planned = spec["planned"](params)
    p = Pass(t0, trace=trace, setup_only=setup_only)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    aborted = False
    try:
        with p.span("cli.import"):
            import hopquant
        here = os.path.dirname(os.path.abspath(hopquant.__file__))
        if here != os.path.join(SRC, "hopquant"):
            raise RuntimeError(f"imported hopquant from {here}, not from {SRC}")
        spec["run"](p, params, (seed, pass_index))
    except SetupDone:
        pass
    except PassAborted:
        aborted = True
    failed = len(p.failures) + (max(0, planned - p.attempted) if aborted else 0)
    return {
        "setup_s": p.setup_s,
        "wall_s": p.wall_s,
        "cpu_s": p.cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": 0 if setup_only else max(planned, p.attempted),
        "failed": failed,
        "failures": p.failures,
        "spans": p.spans,
        "notes": p.notes,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when this process was started")
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="the small inputs of the benchmark's own tests")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.t0, pass_index=args.pass_index,
                      trace=args.trace, setup_only=args.setup_only, tiny=args.tiny)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
