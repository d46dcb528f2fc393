"""Run configuration shared by every pipeline stage.

A run is fully described by one flat key-value text file (``key = value`` per
line, ``#`` comments).  The same resolved configuration is echoed into the
output directory, so any run can be reproduced from that file alone; every
stage derives its random streams from the single root seed.

The config keys are the fields of :class:`RunConfig` and of its
:class:`ScmConfig`, in declaration order; a pair field of ``ScmConfig`` has
one key per half.  Each key is parsed and written by its declared type:
ints with ``str``, floats with ``repr``, strings raw and tuples as
``:``-separated parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from ._seeds import mix_seed
from .errors import ConfigError, read_utf8
from .frontdoor_estimator import EstimatorConfig
from .mi_engine import ImputationConfig
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
    mediator_draws: int = 1
    distribution_draws: int = 0  # 0: one pass over the dataset rows
    subsample: int = 500
    scm: ScmConfig = field(default_factory=ScmConfig)

    def __post_init__(self):
        # rejected here, before any stage runs: no stage can use these values;
        # building the stage configs runs their own checks
        self.imputation_config()
        self.estimator_config("check")
        lo, hi, count = self.grid
        if count < 1:
            raise ConfigError(f"grid count must be >= 1, got {count}")
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ConfigError(f"grid bounds must be finite with lo <= hi, got {lo}:{hi}")
        if self.subsample < 1:
            raise ConfigError(f"subsample must be >= 1, got {self.subsample}")

    def grid_values(self) -> np.ndarray:
        lo, hi, count = self.grid
        return np.linspace(lo, hi, count)

    def imputation_config(self) -> ImputationConfig:
        return ImputationConfig(
            m=self.m,
            cycles=self.cycles,
            donors=self.donors,
            seed=mix_seed(self.seed, "impute"),
            n_knots=self.n_knots,
        )

    def estimator_config(self, label: str) -> EstimatorConfig:
        return EstimatorConfig(
            n_knots=self.n_knots,
            mediator_draws_per_row=self.mediator_draws,
            distribution_draws=self.distribution_draws,
            seed=mix_seed(self.seed, "estimate", label),
        )


# the two config keys of each ScmConfig field that holds a pair
_PAIR_KEYS = {
    "x_prime_range": ("x_prime_low", "x_prime_high"),
    "miss_x_params": ("miss_x_a", "miss_x_b"),
    "miss_z_params": ("miss_z_a", "miss_z_b"),
}


def _typed_fields(cls) -> list[tuple[str, type]]:
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


_RUN_FIELDS = [(name, kind) for name, kind in _typed_fields(RunConfig) if kind is not ScmConfig]
_SCM_FIELDS = _typed_fields(ScmConfig)


def _entries(cfg: RunConfig) -> list[tuple[str, type, object]]:
    """Every config key with its type and its value in ``cfg``, in file order."""
    entries = [(name, kind, getattr(cfg, name)) for name, kind in _RUN_FIELDS]
    for name, kind in _SCM_FIELDS:
        value = getattr(cfg.scm, name)
        if name in _PAIR_KEYS:
            entries += zip(_PAIR_KEYS[name], get_args(kind), value)
        else:
            entries.append((name, kind, value))
    return entries


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
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _parse(kinds[key], value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: cannot parse {raw!r}") from exc
    scm = {
        name: tuple(values[k] for k in _PAIR_KEYS[name]) if name in _PAIR_KEYS else values[name]
        for name, _ in _SCM_FIELDS
    }
    return RunConfig(**{name: values[name] for name, _ in _RUN_FIELDS}, scm=ScmConfig(**scm))


def config_to_text(cfg: RunConfig) -> str:
    return "".join(f"{key} = {_format(kind, value)}\n" for key, kind, value in _entries(cfg))


# the keys that the files ``simulate`` writes depend on: the seed, the sample
# size and every ScmConfig key
_SIMULATE_KEYS = {"seed", "n"} | {
    key for name, _ in _SCM_FIELDS for key in _PAIR_KEYS.get(name, (name,))
}


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
    return parse_config(read_utf8(path, ConfigError), base)
