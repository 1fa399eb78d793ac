"""Type checks of the config dataclasses, driven by their field annotations
(strings, under `from __future__ import annotations`). JSON numbers and sweep
values arrive as floats, so an integral float is accepted as an int."""
from __future__ import annotations

import math
import numbers
from dataclasses import fields


def _integral(v) -> bool:
    return (isinstance(v, numbers.Integral) and not isinstance(v, bool)
            or isinstance(v, float) and v.is_integer())


def _sequence(v, item, n=None) -> bool:
    return isinstance(v, (list, tuple)) and n in (None, len(v)) and all(map(item, v))


# annotation -> (accepts, canonical form, what the value must be)
_CHECKS = {
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v),
              float, "a finite number"),
    "int": (_integral, int, "an integer"),
    "str": (lambda v: isinstance(v, str), str, "a string"),
    "tuple[str, ...]": (lambda v: _sequence(v, lambda x: isinstance(x, str)), tuple,
                        "a list of names"),
    "tuple[int, int]": (lambda v: _sequence(v, _integral, 2), lambda v: tuple(map(int, v)),
                        "a pair of integers"),
}


def check(annotation: str, key: str, value):
    """`value` in the canonical form of `annotation`, or ValueError naming `key`."""
    accepts, canonical, what = _CHECKS[annotation]
    if not accepts(value):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return canonical(value)


def check_fields(obj, keys: dict[str, str] | None = None) -> None:
    """Store every field of the frozen dataclass `obj` whose annotation names
    a plain type in that type's canonical form; `keys` maps field names to
    the config keys the errors name. None passes where the annotation allows
    it; nested dataclasses check themselves."""
    keys = keys or {}
    for f in fields(obj):
        annotation, _, optional = f.type.partition(" | ")
        value = getattr(obj, f.name)
        if annotation in _CHECKS and not (value is None and optional == "None"):
            object.__setattr__(obj, f.name, check(annotation, keys.get(f.name, f.name), value))
