"""Config entries: the keys each config object takes, the kind of each
scalar key, and one reader for each, on the standard library only, so
``cli``, ``states`` and ``geometry`` all import it.

An object (a command's top level, ``params``, the ``geometry`` section, a
watch entry, a grid axis, a state spec) is read through
:func:`check_object`: a value that is not a JSON object, or that holds a key
its entry in ``OBJECTS`` does not list, is refused, naming the object and the
key.  Each run config holds its system in one of two forms: a ``params``
section, or a ``geometry`` placement with ``axial_profile``, ``delta_a`` and
``kappa`` beside it.  A number is a JSON number, never a boolean or a string;
an integer key takes only integral values, a real key only finite ones, and a
boolean key only true or false.  Anything else is refused, naming the key,
never coerced.  Arrays (``g``, ``V``, ``positions``) and state amplitudes
take JSON numbers by the same rule, through :func:`numbers` and
:func:`is_number`.
"""

import sys
from typing import NamedTuple

__all__ = ["ConfigError", "Key", "KEYS", "OBJECTS", "check", "check_object", "read",
           "is_number", "numbers"]


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
    # params section (n_atoms defaults to len(g)); a geometry form's top level
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
    "bright": Key("boolean"),
}
# every command's top level takes these; --preset adds "preset"
_HEADER = ("schema_version", "units", "description", "preset")


def _run_config(*keys):
    """A command's two forms: a ``params`` section, or a ``geometry`` placement."""
    return [("params", *keys, *_HEADER),
            ("geometry", "axial_profile", "delta_a", "kappa", *keys, *_HEADER)]


#: the keys each config object may hold, as a list of forms.  An object of
#: several forms holds the first key of exactly one, and only that form's keys
OBJECTS = {
    "analyze config": _run_config("excitation"),
    "simulate config": _run_config("initial", "watch", "n_max", "t_max", "dt"),
    "scan config": _run_config("excitation", "grid", "oracle_samples"),
    "params": [("n_atoms", "delta_a", "g", "V", "kappa", "omega_a", "omega_c")],
    "geometry": [("positions", "C3", "g0", "w0", "lambda")],
    "watch entry": [("name", "state")],
    "grid axis": [("values", "key"), ("start", "stop", "num", "key")],
    "state spec": [("amplitudes",), ("dressed",), ("bright",), ("analytic_dark",),
                   ("detected_dark", "excitation")],
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


def check_object(what, value):
    """The first key of the form of ``OBJECTS[what]`` that ``value`` takes
    (a state spec's kind), or a ConfigError naming ``what`` and the keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    forms = OBJECTS[what]
    held = [form for form in forms if form[0] in value] if len(forms) > 1 else forms
    unknown = set(value).difference(*(held if len(held) == 1 else forms))
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)} in {what}")
    if len(held) != 1:
        raise ConfigError(f"{what} must hold exactly one of "
                          f"{[form[0] for form in forms]}, got {sorted(value)}")
    return held[0][0]


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
