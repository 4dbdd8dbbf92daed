"""Line-oriented experiment configuration files.

Format: one ``key=value`` per line, ``#`` starts a comment, blank lines are
ignored. Keys:

    ns=400                      frame size in slots
    seed=7                      64-bit RNG seed (optional, default 0)
    users=302x(3,1)             user population, space-separated groups
    users=2x(4,2) 3x(2,1)       heterogeneous mixture, users in group order

Integers are ASCII digits, with an optional ``-`` for ``ns`` and ``seed``.
Each group becomes one ``(UserCode, count)`` pair of ``SystemConfig``,
which checks them; every diagnostic about a line carries its number.
"""
from __future__ import annotations

import re
import sys
from typing import Iterator

from .model import SystemConfig, UserCode

_GROUP_RE = re.compile(r"^(\d+)x\((\d+),(\d+)\)$", re.ASCII)
_INT_RE = re.compile(r"-?[0-9]+")
_KEYS = ("ns", "seed", "users")


class ConfigError(ValueError):
    """Malformed or inconsistent configuration text."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


def _parse_int(key: str, value: str, line: int) -> int:
    if _INT_RE.fullmatch(value) is None:
        raise ConfigError(f"non-numeric value for '{key}': {value!r}", line)
    return int(value)


def _parse_users(value: str) -> Iterator[tuple[UserCode, int]]:
    for token in value.split():
        match = _GROUP_RE.match(token)
        if match is None:
            raise ValueError(f"malformed user group {token!r} (expected COUNTx(n,k))")
        count, n, k = (int(x) for x in match.groups())
        yield UserCode(n, k), count


def parse_config(text: str) -> SystemConfig:
    """Parse configuration text into a validated SystemConfig."""
    ns: int | None = None
    seed = 0
    users: str | None = None
    users_line = 0
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        seen.add(key)
        if key == "ns":
            ns = _parse_int(key, value, lineno)
            if ns < 1:
                raise ConfigError(f"ns must be >= 1, got {ns}", lineno)
            if ns > sys.maxsize:
                raise ConfigError(f"ns must be <= {sys.maxsize}, got {ns}", lineno)
        elif key == "seed":
            seed = _parse_int(key, value, lineno)
            if not 0 <= seed < 2**64:
                raise ConfigError(
                    f"seed must be a 64-bit unsigned integer, got {seed}", lineno
                )
        elif key == "users":
            users = value
            users_line = lineno

    if ns is None:
        raise ConfigError("missing required key 'ns'")
    if users is None:
        raise ConfigError("missing required key 'users'")

    # ns and seed are valid here, so whatever is wrong now is on the users line
    try:
        return SystemConfig(ns, _parse_users(users), seed)
    except ValueError as exc:
        raise ConfigError(str(exc), users_line) from None


def render_config(config: SystemConfig) -> str:
    """Inverse of parse_config: one ``COUNTx(n,k)`` token per group, in order."""
    users = " ".join(f"{count}x({code.n},{code.k})" for code, count in config.groups)
    return f"ns={config.ns}\nseed={config.seed}\nusers={users}\n"
