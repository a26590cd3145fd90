"""Package-wide exception types, and the valid values of config keys.

A config dataclass declares each key's valid values beside its field with
``knob``, and its ``__post_init__`` checks them with ``check_fields``.
``Valid.text`` words a rule once, for error messages and the README.
"""

from __future__ import annotations

import dataclasses


class ConfigError(ValueError):
    """A configuration value violates a documented contract."""


class NumericError(RuntimeError):
    """A computation produced NaN/Inf where finite values are required."""


@dataclasses.dataclass(frozen=True)
class Valid:
    """Closed (``ge``, ``le``) or open (``gt``, ``lt``) bounds, evenness and a
    choice set, which must all hold, or else a value in ``also``. For a list
    key they hold for each entry, and ``length`` rules the entry count."""
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    even: bool = False
    choices: tuple = ()
    also: tuple = ()
    length: Valid | None = None

    def text(self) -> str:
        """The rule in words: ``>= 0``, ``in (0, 1)``, ``even and >= 2``, ..."""
        words = ["even"] if self.even else []
        words += [f"one of {', '.join(self.choices)}"] if self.choices else []
        low = (self.ge, "[", ">=") if self.ge is not None else (self.gt, "(", ">")
        high = (self.le, "]", "<=") if self.le is not None else (self.lt, ")", "<")
        if low[0] is not None and high[0] is not None:
            words.append(f"in {low[1]}{low[0]}, {high[0]}{high[1]}")
        else:
            words += [f"{op} {bound}" for bound, _, op in (low, high) if bound is not None]
        text = " or ".join([" and ".join(words), *map(str, self.also)])
        if self.length is None:
            return text
        return f"length {self.length.text()}" + (f", each {text}" if text else "")

    def check(self, path: str, value) -> None:
        """Raise ``ConfigError("<path> must be <text>, got <value>")`` if
        ``value``, or an entry of it, breaks the rule; NaN breaks every bound."""
        if isinstance(value, (tuple, list)):
            if self.length is not None:
                self.length.check(f"{path} length", len(value))
            for i, entry in enumerate(value):
                self.check(f"{path}[{i}]", entry)
        elif value not in self.also and not (
                (self.ge is None or value >= self.ge) and (self.gt is None or value > self.gt)
                and (self.le is None or value <= self.le) and (self.lt is None or value < self.lt)
                and not (self.even and value % 2) and (not self.choices or value in self.choices)):
            rule = dataclasses.replace(self, length=None).text()
            raise ConfigError(f"{path} must be {rule}, got {value!r}")


def knob(default, key: str | None = None, **rule):
    """A config field: its default, the ``Valid`` values of its key, and the
    ``key`` where the JSON key is spelled differently from the field."""
    metadata = {"key": key} if key else {}
    if rule:
        metadata["valid"] = Valid(**rule)
    return dataclasses.field(default=default, metadata=metadata)


def check_fields(obj, section: str) -> None:
    """Check each field of a config dataclass against its ``knob`` rule,
    naming ``section.key`` in the error; a null value passes."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if "valid" in f.metadata and value is not None:
            f.metadata["valid"].check(f"{section}.{f.metadata.get('key', f.name)}", value)
