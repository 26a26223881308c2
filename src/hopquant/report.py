"""Machine-readable run reports: one JSON summary plus CSV data tables.

Reports are byte-stable for a fixed config and seed: keys are sorted,
floats use repr round-tripping, and CSV rows are written with plain ``\\n``
terminators.
"""

import json
import os
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class Check:
    name: str
    passed: bool
    value: float = None
    tolerance: float = None

    def as_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                "value": _plain(self.value), "tolerance": _plain(self.tolerance)}


def _plain(obj):
    """Coerce numpy scalars/arrays into JSON-friendly builtins."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "item") and getattr(obj, "ndim", 1) == 0:
        return _plain(obj.item())
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return str(obj)


@dataclass
class Report:
    experiment: str
    seed: int
    config: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)  # name -> (header, rows)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add_check(self, name, passed, value=None, tolerance=None):
        self.checks.append(Check(name=name, passed=bool(passed), value=value,
                                 tolerance=tolerance))

    def add_table(self, name, header, rows):
        self.tables[name] = (list(header), [list(r) for r in rows])

    def as_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "seed": self.seed,
            "passed": self.passed,
            "config": _plain(self.config),
            "results": _plain(self.results),
            "checks": [c.as_dict() for c in self.checks],
            "tables": sorted(self.tables),
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, outdir):
        """Write report.json and one CSV per table; returns the paths."""
        os.makedirs(outdir, exist_ok=True)
        paths = []
        json_path = os.path.join(outdir, "report.json")
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())
        paths.append(json_path)
        for name in sorted(self.tables):
            header, rows = self.tables[name]
            csv_path = os.path.join(outdir, f"{name}.csv")
            with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(str(h) for h in header) + "\n")
                for row in rows:
                    fh.write(",".join(_cell(c) for c in row) + "\n")
            paths.append(csv_path)
        return paths


def _cell(value):
    if isinstance(value, float):
        return repr(float(value))  # numpy 2's repr of an np.float64 is not a number
    if hasattr(value, "item"):
        return _cell(value.item())
    if isinstance(value, complex):
        return f"{value.real!r}{value.imag:+}j"
    return str(value)
