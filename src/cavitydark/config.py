"""Scalar config entries: one table of keys and one typed reader, on the
standard library only, so ``cli`` and ``states`` both import it.

A number is a JSON number, never a boolean or a string; an integer key takes
only integral values, a real key only finite ones, and a boolean key only
true or false.  Anything else is refused, naming the key, never coerced.
Arrays (``g``, ``V``, ``positions``) and state amplitudes take JSON numbers
by the same rule, through :func:`numbers` and :func:`is_number`.
"""

import sys
from typing import NamedTuple

__all__ = ["ConfigError", "Key", "KEYS", "check", "read", "is_number", "numbers"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class Key(NamedTuple):
    kind: str  # "integer", "real" or "boolean"
    default: object = None  # value of an absent key
    lo: int = None  # smallest value allowed
    needs: str = None  # set if the key must be present: what a config lacks without it


INTEGER, REAL, _AXIS = Key("integer"), Key("real"), "values or start/stop/num"
KEYS = {
    # run configs; n_max defaults to the smallest ladder holding the initial state
    "excitation": Key("integer", needs="an excitation number"), "n_max": INTEGER,
    "oracle_samples": Key("integer", 0, lo=0),
    "t_max": REAL, "dt": REAL,
    # params section (n_atoms defaults to len(g)); geometry configs' top level
    "n_atoms": INTEGER, "delta_a": REAL, "kappa": Key("real", 0.0),
    "omega_a": REAL, "omega_c": REAL,
    # scan grid axes; "values" is each entry of an axis's list
    "start": Key("real", needs=_AXIS), "stop": Key("real", needs=_AXIS),
    "num": Key("integer", lo=0, needs=_AXIS), "values": REAL,
    # geometry section
    "C3": Key("real", 1.0), "g0": Key("real", 1.0), "w0": Key("real", 1.0),
    "lambda": Key("real", needs="lambda"),
    # state specs; their excitation defaults to 1
    "dressed": INTEGER, "analytic_dark": INTEGER, "detected_dark": INTEGER,
    "bright": Key("boolean", False),
}
# each kind's name in messages, and the type a value of it is returned as
_KINDS = {"integer": ("an integer", int), "real": ("a finite number", float),
          "boolean": ("true or false", bool)}


def is_number(value):
    """True for a JSON number: an int or a float, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numbers(key, value):
    """``value``, a number or nested lists of numbers, as it is; a ConfigError
    naming ``key`` for any other entry.  Whether they are finite is left to
    the caller."""
    if isinstance(value, list):
        for entry in value:
            numbers(key, entry)
    elif not is_number(value):
        raise ConfigError(f"{key} must hold numbers only, got {value!r}")
    return value


def check(key, value):
    """``value`` as the kind ``KEYS[key]`` gives it, or a ConfigError."""
    kind, _, lo, _ = KEYS[key]
    number = is_number(value)
    if not {"integer": number and (isinstance(value, int) or value.is_integer()),
            "real": number and abs(value) <= sys.float_info.max,  # no NaN or inf
            "boolean": isinstance(value, bool)}[kind]:
        raise ConfigError(f"{key} must be {_KINDS[kind][0]}, got {value!r}")
    value = _KINDS[kind][1](value)
    if lo is not None and value < lo:
        raise ConfigError(f"{key} must be at least {lo}, got {value!r}")
    return value


def read(cfg, key, where="config", default=None):
    """``cfg[key]`` through :func:`check`.  If absent: ``default`` if given,
    else a ConfigError saying what ``where`` needs, else the table's default."""
    if key in cfg:
        return check(key, cfg[key])
    if default is None and KEYS[key].needs:
        raise ConfigError(f"{where} needs {KEYS[key].needs}")
    return KEYS[key].default if default is None else default
