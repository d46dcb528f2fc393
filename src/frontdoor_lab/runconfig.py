"""Run configuration shared by every pipeline stage.

A run is fully described by one flat key-value text file (``key = value`` per
line, ``#`` comments).  The same resolved configuration is echoed into the
output directory, so any run can be reproduced from that file alone.
:class:`RunConfig` checks its own values; the command line passes them to
each stage as arguments, with a stage seed derived from the root seed.

The config keys are the fields of :class:`RunConfig` and of its
:class:`ScmConfig`, in declaration order.  Each key is parsed and written by
its declared type: ints with ``str``, floats with ``repr``, strings raw and
tuples as ``:``-separated parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import FrontdoorLabError, check_int, check_type, parse_file
from .scm_sim import ScmConfig
from .spline_smooth import DEFAULT_N_KNOTS


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    n: int = 20000
    m: int = 10
    grid: tuple[float, float, int] = (-3.0, 3.0, 41)
    out: str = "out"
    cycles: int = 10
    donors: int = 5
    n_knots: int = DEFAULT_N_KNOTS
    subsample: int = 500
    scm: ScmConfig = field(default_factory=ScmConfig)

    def __post_init__(self):
        # exact types, so config_to_text writes text that parse_config reads back
        for name, kind in _RUN_TYPES:
            check_type(name, kind, getattr(self, name))
        # rejected here, before any stage runs: no stage can use these values
        for name, minimum in (("m", 2), ("cycles", 1), ("donors", 1), ("n_knots", 4)):
            check_int(name, getattr(self, name), minimum)
        lo, hi, count = self.grid
        check_int("grid count", count, 1)
        # a width hi - lo that overflows would reach linspace as inf
        if not (lo <= hi and math.isfinite(hi - lo)):
            raise FrontdoorLabError(
                f"grid bounds must be finite with lo <= hi and a finite width, got {lo}:{hi}"
            )
        check_int("subsample", self.subsample, 1)
        if not self.out:  # Path("") is the working directory
            raise FrontdoorLabError("out must name a directory, got an empty value")

    def grid_values(self) -> np.ndarray:
        lo, hi, count = self.grid
        return np.linspace(lo, hi, count)


def _typed_fields(cls) -> list[tuple[str, type]]:
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


_RUN_TYPES = _typed_fields(RunConfig)
_RUN_FIELDS = [(name, kind) for name, kind in _RUN_TYPES if kind is not ScmConfig]
_SCM_FIELDS = _typed_fields(ScmConfig)


def _entries(cfg: RunConfig) -> list[tuple[str, type, object]]:
    """Every config key with its type and its value in ``cfg``, in file order."""
    return [(name, kind, getattr(cfg, name)) for name, kind in _RUN_FIELDS] + [
        (name, kind, getattr(cfg.scm, name)) for name, kind in _SCM_FIELDS
    ]


def _parse(kind, text: str):
    if get_origin(kind) is tuple:
        parts = text.split(":")
        return tuple(_parse(k, part) for k, part in zip(get_args(kind), parts, strict=True))
    return kind(text)


def _format(kind, value) -> str:
    if get_origin(kind) is tuple:
        return ":".join(_format(k, v) for k, v in zip(get_args(kind), value))
    return repr(value) if kind is float else str(value)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    entries = _entries(base or RunConfig())
    kinds = {key: kind for key, kind, _ in entries}
    values = {key: value for key, _, value in entries}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FrontdoorLabError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in kinds:
            raise FrontdoorLabError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _parse(kinds[key], value)
        except (ValueError, TypeError) as exc:
            raise FrontdoorLabError(f"line {lineno}: cannot parse {raw!r}") from exc
    scm = ScmConfig(**{name: values[name] for name, _ in _SCM_FIELDS})
    return RunConfig(**{name: values[name] for name, _ in _RUN_FIELDS}, scm=scm)


def config_to_text(cfg: RunConfig) -> str:
    return "".join(f"{key} = {_format(kind, value)}\n" for key, kind, value in _entries(cfg))


# the keys that the files ``simulate`` writes depend on: the seed, the sample
# size and every ScmConfig key
_SIMULATE_KEYS = {"seed", "n"} | {name for name, _ in _SCM_FIELDS}


def simulate_key_changes(cfg: RunConfig, recorded: RunConfig) -> list[str]:
    """``key = value (recorded: value)`` for each key that ``simulate`` fixed
    and on which ``cfg`` differs from ``recorded``."""
    kept = {key: value for key, _, value in _entries(recorded)}
    return [
        f"{key} = {_format(kind, value)} (recorded: {_format(kind, kept[key])})"
        for key, kind, value in _entries(cfg)
        if key in _SIMULATE_KEYS and value != kept[key]
    ]


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    """The config in the file ``path``; an error names the file
    (:func:`~frontdoor_lab.errors.parse_file`)."""
    return parse_file(path, lambda text: parse_config(text, base))
