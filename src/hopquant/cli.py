"""Command-line entry point.

Exit codes: 0 all checks pass, 1 runtime error, 2 validation failure,
3 config parse error. Reports land in --out as report.json plus CSVs.
"""

import argparse
import sys

from .config import ExperimentConfig
from .errors import ConfigError, HopquantError
from .experiments import REGISTRY, SECTORS, list_experiments, run_experiment

EXIT_PASS = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
EXIT_PARSE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_RUNTIME, f"{self.prog}: error: {message}\n")


def _add_common(parser):
    parser.add_argument("config", help="path to a sectioned key=value config")
    parser.add_argument("--out", default="hopquant-out",
                        help="directory for report.json and CSV tables")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the [run] seed")


def build_parser():
    parser = _Parser(prog="hopquant",
                     description="unitary hopping dynamics laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment named in [run]")
    _add_common(run)

    sub.add_parser("list", help="list bundled experiments")

    sectors = {}
    for name in REGISTRY:
        sector, _, action = name.partition("-")
        if sector not in sectors:
            sectors[sector] = sub.add_parser(sector, help=SECTORS[sector]) \
                .add_subparsers(dest="subcommand", required=True)
        p = sectors[sector].add_parser(action)
        p.set_defaults(experiment=name)
        _add_common(p)
        if name == "gauge-spectrum":
            p.add_argument("--count", type=int, default=None,
                           help="number of low eigenvalues")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, doc in list_experiments():
            print(f"{name:20s} {doc}")
        return EXIT_PASS

    try:
        cfg = ExperimentConfig.from_file(args.config)
        if getattr(args, "count", None) is not None:
            cfg.sections.setdefault("spectrum", {})["count"] = str(args.count)
            cfg.locations.setdefault("spectrum", {})["count"] = (None, None)  # no file location
        name = args.experiment if "experiment" in args else cfg.getstr("run", "experiment")
        report = run_experiment(name, cfg, seed=args.seed)
    except ConfigError as exc:
        print(f"hopquant: config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"hopquant: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (HopquantError, ValueError, MemoryError) as exc:
        print(f"hopquant: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    paths = report.write(args.out)
    status = "PASS" if report.passed else "FAIL"
    for check in report.checks:
        mark = "ok" if check.passed else "FAIL"
        print(f"[{mark}] {check.name}: value={check.value} tol={check.tolerance}")
    print(f"{status} {report.experiment} -> {paths[0]}")
    return EXIT_PASS if report.passed else EXIT_VALIDATION


def cli_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
