"""One field reader for every document confopt reads: the run config, the
service model, a dataset's sidecar and an external runner's reply. Each
keeps its own policy for a key no read asked for: the run config warns,
the model refuses it, the sidecar and the reply ignore it. This module
imports nothing else from confopt, so every module can use it.
"""

from __future__ import annotations

import logging
import math
import re

__all__ = ["ConfigError", "Fields"]

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A configuration file failed validation. A number of more than 30
    digits in the message is shortened to its first and last three digits
    and its digit count."""

    def __init__(self, message: str):
        super().__init__(_LONG_NUMBER.sub(_shortened, message))


_LONG_NUMBER = re.compile(r"\d{31,}")


def _shortened(match: re.Match) -> str:
    digits = match[0]
    return f"{digits[:3]}...{digits[-3:]} ({len(digits)} digits)"


class Fields:
    """One mapping of a document, read one field at a time.

    Each read names its field by dotted path, fails with a
    :class:`ConfigError` when a required key is absent or the value has the
    wrong kind (a bool is not a number, an int passes as a float, a float
    must be finite) and records the key, so :meth:`done` can report every
    key that no read asked for.
    """

    def __init__(self, value, path: str):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'document'}: expected a mapping")
        self.value, self.path, self.read = value, path, set()

    def at(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def __call__(self, key, kind: type, *default, nullable: bool = False):
        """The value at ``key`` checked as ``kind`` (a mapping comes back as
        ``Fields``), or the optional ``default`` when the key is absent, or
        null and ``nullable``."""
        self.read.add(key)
        value = self.value.get(key)
        if key not in self.value or (nullable and value is None):
            if not default:
                raise ConfigError(f"missing required key: {self.at(key)}")
            return default[0]
        return self.checked(value, kind, self.at(key))

    @staticmethod
    def checked(value, kind: type, path: str):
        """``value`` checked as ``kind``, named ``path`` in an error."""
        if kind is dict:
            return Fields(value, path)
        if kind is list:
            if not isinstance(value, list):
                raise ConfigError(f"{path}: expected a list")
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            expected = {int: "an integer", float: "a number", str: "a string"}[kind]
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        if kind is float:
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(
                    f"{path}: expected a finite number, got an integer beyond the float range"
                ) from None
            if not math.isfinite(value):
                raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return value

    def ignore(self, *keys: str) -> None:
        """Deployment-only keys: warned about when present, never read."""
        for key in keys:
            if key in self.value:
                logger.warning("ignoring deployment-only key: %s", self.at(key))
        self.read.update(keys)

    def done(self, strict: bool = False) -> None:
        """Warn about each key no read asked for, or with ``strict`` raise
        for the first one."""
        for key in self.value:
            if key not in self.read:
                if strict:
                    raise ConfigError(f"unknown key: {self.at(key)}")
                logger.warning("ignoring unknown key: %s", self.at(key))
