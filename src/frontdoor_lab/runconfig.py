"""Run configuration shared by every pipeline stage.

A run is fully described by one flat key-value text file (``key = value`` per
line, ``#`` comments).  The same resolved configuration is echoed into the
output directory, so any run can be reproduced from that file alone; every
stage derives its random streams from the single root seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._seeds import mix_seed
from .errors import ConfigError, read_utf8
from .frontdoor_estimator import EstimatorConfig
from .mi_engine import ImputationConfig
from .scm_sim import ScmConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    n: int = 20000
    m: int = 10
    grid: tuple[float, float, int] = (-3.0, 3.0, 41)
    out: str = "out"
    cycles: int = 10
    donors: int = 5
    n_knots: int = 20
    mediator_draws: int = 1
    distribution_draws: int = 0  # 0: one pass over the dataset rows
    subsample: int = 500
    scm: ScmConfig = field(default_factory=ScmConfig)

    def __post_init__(self):
        # rejected here, before any stage runs: no stage can use these values
        lo, hi, count = self.grid
        if self.n_knots < 4:
            raise ConfigError(f"n_knots must be >= 4, got {self.n_knots}")
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
            distribution_draws=self.distribution_draws or None,
            seed=mix_seed(self.seed, "estimate", label),
        )


_INT_KEYS = {
    "seed", "n", "m", "cycles", "donors", "n_knots",
    "mediator_draws", "distribution_draws", "subsample",
}
_SCM_FLOAT_KEYS = {
    "sigma_z", "z_amplitude", "y_shift", "y_linear", "u_coef",
    "x_prime_low", "x_prime_high",
    "miss_x_a", "miss_x_b", "miss_z_a", "miss_z_b",
}


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base or RunConfig()
    scm_kwargs: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            if key in _INT_KEYS:
                cfg = replace(cfg, **{key: int(value)})
            elif key == "out":
                cfg = replace(cfg, out=value)
            elif key == "grid":
                lo, hi, count = value.split(":")
                cfg = replace(cfg, grid=(float(lo), float(hi), int(count)))
            elif key in _SCM_FLOAT_KEYS:
                scm_kwargs[key] = float(value)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: cannot parse {raw!r}") from exc
    if scm_kwargs:
        cfg = replace(cfg, scm=_scm_with(cfg.scm, scm_kwargs))
    return cfg


def _scm_with(scm: ScmConfig, values: dict[str, float]) -> ScmConfig:
    kwargs = {
        "sigma_z": values.get("sigma_z", scm.sigma_z),
        "z_amplitude": values.get("z_amplitude", scm.z_amplitude),
        "y_shift": values.get("y_shift", scm.y_shift),
        "y_linear": values.get("y_linear", scm.y_linear),
        "u_coef": values.get("u_coef", scm.u_coef),
        "x_prime_range": (
            values.get("x_prime_low", scm.x_prime_range[0]),
            values.get("x_prime_high", scm.x_prime_range[1]),
        ),
        "miss_x_params": (
            values.get("miss_x_a", scm.miss_x_params[0]),
            values.get("miss_x_b", scm.miss_x_params[1]),
        ),
        "miss_z_params": (
            values.get("miss_z_a", scm.miss_z_params[0]),
            values.get("miss_z_b", scm.miss_z_params[1]),
        ),
    }
    return ScmConfig(**kwargs)


def config_to_text(cfg: RunConfig) -> str:
    lo, hi, count = cfg.grid
    lines = [
        f"seed = {cfg.seed}",
        f"n = {cfg.n}",
        f"m = {cfg.m}",
        f"grid = {lo!r}:{hi!r}:{count}",
        f"out = {cfg.out}",
        f"cycles = {cfg.cycles}",
        f"donors = {cfg.donors}",
        f"n_knots = {cfg.n_knots}",
        f"mediator_draws = {cfg.mediator_draws}",
        f"distribution_draws = {cfg.distribution_draws}",
        f"subsample = {cfg.subsample}",
        f"sigma_z = {cfg.scm.sigma_z!r}",
        f"z_amplitude = {cfg.scm.z_amplitude!r}",
        f"y_shift = {cfg.scm.y_shift!r}",
        f"y_linear = {cfg.scm.y_linear!r}",
        f"u_coef = {cfg.scm.u_coef!r}",
        f"x_prime_low = {cfg.scm.x_prime_range[0]!r}",
        f"x_prime_high = {cfg.scm.x_prime_range[1]!r}",
        f"miss_x_a = {cfg.scm.miss_x_params[0]!r}",
        f"miss_x_b = {cfg.scm.miss_x_params[1]!r}",
        f"miss_z_a = {cfg.scm.miss_z_params[0]!r}",
        f"miss_z_b = {cfg.scm.miss_z_params[1]!r}",
    ]
    return "\n".join(lines) + "\n"


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    return parse_config(read_utf8(path, ConfigError), base)
