"""Sectioned key = value experiment configs.

The format is deliberately flat: ``[section]`` headers, one ``key = value``
per line, ``#`` comment lines. Unknown keys are rejected against the
schema of the experiment being run; parse problems carry line/column.
"""

import math
import re

from .errors import ConfigError

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_-]+)\]$")
_KEY_RE = re.compile(r"^[A-Za-z0-9_.()\[\],+-]+$")


class _Required:
    def __repr__(self):
        return "<required>"


REQUIRED = _Required()


class ExperimentConfig:
    """Parsed config: sections of raw string values plus source locations."""

    def __init__(self, sections, locations, path=None):
        self.sections = sections
        self.locations = locations
        self.path = path

    @classmethod
    def parse(cls, text, path=None):
        sections, locations = {}, {}
        current = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            m = _SECTION_RE.match(line)
            if m:
                current = m.group(1)
                sections.setdefault(current, {})
                locations.setdefault(current, {})
                locations[current]["__section__"] = (lineno, raw.index("[") + 1)
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}",
                                  line=lineno, col=1)
            if current is None:
                raise ConfigError("entry outside any [section]", line=lineno, col=1)
            key, _, value = line.partition("=")
            key = key.strip()
            # 1-based column of the value's first character
            col = raw.index("=") + 2 + len(value) - len(value.lstrip())
            value = value.strip()
            if not key or not _KEY_RE.match(key):
                raise ConfigError(f"malformed key {key!r}", line=lineno, col=1)
            if key in sections[current]:
                raise ConfigError(f"duplicate key {key!r} in [{current}]",
                                  line=lineno, col=1)
            sections[current][key] = value
            locations[current][key] = (lineno, col)
        return cls(sections, locations, path=path)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read(), path=str(path))

    def invalid(self, section, key, message):
        """A ``ConfigError`` located at ``key``, else at its section's header."""
        loc = self.locations.get(section, {}).get(key)
        if loc is None:
            loc = self.locations.get(section, {}).get("__section__", (None, None))
        return ConfigError(message, line=loc[0], col=loc[1])

    def has(self, section, key):
        return key in self.sections.get(section, {})

    def keys(self, section):
        return [k for k in self.sections.get(section, {})]

    def _fetch(self, section, key, default, conv, kind):
        if not self.has(section, key):
            if default is REQUIRED:
                raise self.invalid(section, key,
                                   f"missing required key {key!r} in [{section}]")
            return default
        raw = self.sections[section][key]
        try:
            return conv(raw)
        except (TypeError, ValueError):
            raise self.invalid(section, key, f"[{section}] {key} = {raw!r} "
                               f"is not a valid {kind}") from None

    def getstr(self, section, key, default=REQUIRED, choices=None):
        value = self._fetch(section, key, default, str, "string")
        if choices and self.has(section, key) and value not in choices:
            raise self.invalid(section, key, f"[{section}] {key} must be one of "
                               f"{sorted(choices)}, got {value!r}")
        return value

    def getint(self, section, key, default=REQUIRED):
        return self._fetch(section, key, default, int, "integer")

    def getfloat(self, section, key, default=REQUIRED):
        return self._fetch(section, key, default, float, "number")

    def gettolerance(self, section, key, default=REQUIRED):
        def conv(s):
            value = float(s)
            if not 0.0 <= value < math.inf:  # also false for NaN
                raise ValueError(s)
            return value

        return self._fetch(section, key, default, conv, "finite non-negative number")

    def getbool(self, section, key, default=REQUIRED):
        def conv(s):
            low = s.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(s)

        return self._fetch(section, key, default, conv, "boolean")

    def getcomplex(self, section, key, default=REQUIRED):
        return self._fetch(section, key, default,
                           lambda s: complex(s.replace(" ", "")), "complex number")

    def getfloats(self, section, key, default=REQUIRED):
        return self._fetch(
            section, key, default,
            lambda s: [float(p) for p in s.split(",") if p.strip() != ""],
            "comma-separated number list")

    def getints(self, section, key, default=REQUIRED):
        return self._fetch(
            section, key, default,
            lambda s: [int(p) for p in s.split(",") if p.strip() != ""],
            "comma-separated integer list")

    def validate_schema(self, schema):
        """Reject unknown sections/keys; ``schema`` maps section -> allowed keys.

        A key pattern ending in "*" matches any key with that prefix.
        """
        for section, entries in self.sections.items():
            if section not in schema:
                raise self.invalid(section, None, f"unknown section [{section}]")
            allowed = schema[section]
            prefixes = [p[:-1] for p in allowed if p.endswith("*")]
            for key in entries:
                if key in allowed or any(key.startswith(p) for p in prefixes):
                    continue
                raise self.invalid(section, key, f"unknown key {key!r} in [{section}]")

    def resolved(self):
        """Plain nested dict of every entry, for embedding in reports."""
        return {section: dict(entries) for section, entries in
                sorted(self.sections.items())}
