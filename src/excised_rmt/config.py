"""Experiment configuration: a flat, schema-validated record.

Configs serialize to JSON with only the explicitly set keys; unknown keys
and values of the wrong type are rejected on load so typos fail fast.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass
from typing import Optional

KINDS = ("sample", "onelevel", "paircorr", "excise", "discriminants", "neff", "compare")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    kind: str
    group: Optional[str] = None
    n: Optional[int] = None
    count: Optional[int] = None
    seed: Optional[int] = None
    bins: Optional[int] = None
    window: Optional[float] = None
    out: Optional[str] = None
    workers: Optional[int] = None
    # excision
    c: Optional[float] = None
    k: Optional[int] = None
    nstd: Optional[float] = None
    input: Optional[str] = None
    # family
    M: Optional[int] = None
    case: Optional[str] = None
    X: Optional[int] = None
    epsilon: Optional[int] = None
    delta: Optional[int] = None
    residue: Optional[int] = None
    # effective matrix size
    coeffs: Optional[str] = None
    e1: Optional[float] = None
    e2: Optional[float] = None
    R: Optional[float] = None
    # comparison
    zeros: Optional[str] = None
    samples: Optional[str] = None
    which: Optional[str] = None
    vanish_tol: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for name, (what, accepts) in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if value is not None and not accepts(value):
                raise ConfigError(f"config field {name!r} must be {what}, got {value!r}")

    def to_json(self) -> str:
        data = {k: v for k, v in dataclasses.asdict(self).items() if v is not None}
        return json.dumps(data, indent=2, sort_keys=True)


_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}

# bool is an int subclass, but true/false is never a count or a size
_TYPE_CHECKS = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
}
# annotations are strings here, and Optional[X] checks as X
_FIELD_CHECKS = {
    f.name: _TYPE_CHECKS[f.type.removeprefix("Optional[").removesuffix("]")]
    for f in dataclasses.fields(RunConfig)
}


def config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - _FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in data:
        raise ConfigError("config must declare an experiment kind")
    return RunConfig(**data)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(data)
