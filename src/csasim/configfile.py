"""Line-oriented experiment configuration files.

Format: one ``key=value`` per line, ``#`` starts a comment, blank lines are
ignored. Keys:

    ns=400                      frame size in slots
    seed=7                      64-bit RNG seed (optional, default 0)
    users=302x(3,1)             user population, space-separated groups
    users=2x(4,2) 3x(2,1)       heterogeneous mixture, users in group order

The file is UTF-8 under any locale, a leading byte-order mark allowed; a
comment holds any text but a line end. Blanks around keys, values and
groups are ASCII space and tab only. Integers, as in the command line's
flags, are ``integer``: ASCII digits with an optional ``-``, at most 640
characters. Each group becomes one ``(UserCode, count)`` pair.
This module checks only the file's syntax; the model checks every value,
and its diagnostic is reported with the number of the value's line.
Errors are reported in this order: the first line with a syntax error, an
unknown key or a repeated key; a missing key; then the values of ``ns``,
``seed`` and ``users``.
"""
from __future__ import annotations

import re
from typing import Iterator

from .model import SystemConfig, UserCode

_INT_RE = re.compile(r"-?[0-9]+")
_GROUP_RE = re.compile(r"({0})x\(({0}),({0})\)".format(_INT_RE.pattern))
# each key with the SystemConfig field it sets, in the order they are set
_FIELDS = {"ns": "ns", "seed": "seed", "users": "groups"}
_BLANKS = " \t"
# sys.int_info.str_digits_check_threshold (absent before Python 3.10.7), the
# lowest digit limit int() can be set to: longer integer text is beyond every
# range, so it is refused before int() reads it, in any environment
_MAX_INT_CHARS = 640


class ConfigError(ValueError):
    """Malformed or inconsistent configuration text."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


def integer(text: str) -> int:
    """The one integer syntax of a config file and of the integer flags;
    raises ConfigError, unlike the ValueError of bad syntax, for text that
    is out of range for its length alone."""
    if _INT_RE.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    if len(text) > _MAX_INT_CHARS:
        raise ConfigError(f"integer of more than {_MAX_INT_CHARS} characters is out of range")
    return int(text)


def _parse_users(value: str) -> Iterator[tuple[UserCode, int]]:
    """The groups of a ``users`` value: each token's shape and integers are
    checked now, its code only as the groups are read."""
    groups = []
    for token in re.findall(f"[^{_BLANKS}]+", value):
        match = _GROUP_RE.fullmatch(token)
        if match is None:
            raise ConfigError(f"malformed user group {token!r} (expected COUNTx(n,k))")
        groups.append([integer(x) for x in match.groups()])
    return ((UserCode(n, k), count) for count, n, k in groups)


def parse_config(text: str) -> SystemConfig:
    """Parse configuration text into a validated SystemConfig."""
    found: dict[str, tuple[int, object]] = {}  # key -> (line, parsed value)
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.split("#", 1)[0].strip(_BLANKS)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip(_BLANKS)
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in found:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        value = value.strip(_BLANKS)
        try:
            parsed = _parse_users(value) if key == "users" else integer(value)
        except ConfigError as exc:
            raise ConfigError(str(exc), lineno) from None
        except ValueError:
            raise ConfigError(f"non-numeric value for '{key}': {value!r}", lineno) from None
        found[key] = lineno, parsed
    for key in ("ns", "users"):
        if key not in found:
            raise ConfigError(f"missing required key {key!r}")

    # One user of code (1,1) fits any frame, so each step sets one value on a
    # config that is already valid, and the model's ValueError is about it.
    config = SystemConfig(1, [(UserCode(1, 1), 1)])
    for key, field in _FIELDS.items():
        if key in found:
            lineno, parsed = found[key]
            try:
                config = config._replace(**{field: parsed})
            except ValueError as exc:
                raise ConfigError(str(exc), lineno) from None
    return config


def render_config(config: SystemConfig) -> str:
    """Inverse of parse_config: one ``COUNTx(n,k)`` token per group, in order."""
    users = " ".join(f"{count}x({code.n},{code.k})" for code, count in config.groups)
    return f"ns={config.ns}\nseed={config.seed}\nusers={users}\n"
