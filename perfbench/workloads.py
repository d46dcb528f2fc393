"""The benchmark's workloads: pipeline sizes, stage split and why each exists.

A workload runs the real command-line stages in one process as a closed
loop: one client, one stage at a time, the next stage only after the last
one returned.  ``setup_stages`` run before the clock starts (their time is
part of ``setup_s``); ``timed_stages`` are the sequence a user waits for.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

STAGES = ("simulate", "identify", "impute", "estimate", "evaluate", "plot")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    m: int
    cycles: int
    grid_points: int
    setup_stages: tuple[str, ...]
    timed_stages: tuple[str, ...]
    # acceptance criterion 3 bounds the MI error of the paper's reference run
    max_mi_err: float | None = None

    def config_text(self, seed: int, out: Path) -> str:
        """The run configuration the program receives, as a ``--config`` file."""
        return (
            f"seed = {seed}\n"
            f"n = {self.n}\n"
            f"m = {self.m}\n"
            f"cycles = {self.cycles}\n"
            f"grid = -3.0:3.0:{self.grid_points}\n"
            f"out = {out}\n"
        )

    def expected_calls(self) -> dict[str, int]:
        """Exact call counts of the counted layer functions over the timed stages.

        Per chain and cycle, ``impute`` fits three additive models (sign,
        treatment magnitude, mediator) and predicts five times (one for the
        sign, two per matching step).  ``estimate`` fits one pair per
        completed copy plus the complete-case pair; per pair and grid point
        it predicts the mediator and the outcome once for the mean and once
        for the quantiles.  ``plot`` fits and predicts the conditional-mean
        smooth once.
        """
        m, cycles, grid = self.m, self.cycles, self.grid_points
        per_stage = {
            "impute": {"fit_additive": 3 * m * cycles, "predict": 5 * m * cycles},
            "estimate": {
                "fit_additive": m + 1,
                "select_lambda": m + 1,
                "predict": 4 * grid * (m + 1),
            },
            "plot": {"select_lambda": 1, "predict": 1},
        }
        totals = {"fit_additive": 0, "select_lambda": 0, "predict": 0}
        for stage in self.timed_stages:
            for function, count in per_stage.get(stage, {}).items():
                totals[function] += count
        return {f"spline_smooth.{name}": count for name, count in totals.items()}


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's reference run at the ROADMAP defaults.  Spline fitting
        # inside impute does about 70 % of the work, so any change to GCV
        # selection, design construction or the MICE loop shows here first.
        Workload(
            name="desk",
            why="the paper's reference run (n=20000, m=10, 41-point grid); "
            "spline fitting under multiple imputation does most of the work",
            n=20000,
            m=10,
            cycles=10,
            grid_points=41,
            setup_stages=(),
            timed_stages=STAGES,
            max_mi_err=0.05,
        ),
        # Imputation happens in set-up, so the clock sees only the consumers
        # of the completed copies.  Prediction and residual resampling over a
        # 161-point grid dominate: a fitting change should leave it unchanged,
        # a grid or predict change should show here.  plot is timed as well
        # because it draws the truth quantiles at every grid point.  m=5
        # keeps the three repeated set-ups and the run short.
        Workload(
            name="estimate_grid",
            why="imputation moved to set-up; estimate, evaluate and plot on a "
            "161-point grid, so prediction dominates and fitting barely shows",
            n=20000,
            m=5,
            cycles=1,
            grid_points=161,
            setup_stages=("simulate", "identify", "impute"),
            timed_stages=("estimate", "evaluate", "plot"),
        ),
        # The same fitting layer on a small working set, where per-fit fixed
        # costs (the 25-weight penalty grid, per-call overhead) dominate.  A
        # change proportional to n shows on desk far more than here; a per-
        # penalty-weight change shows on both.  Also the quick loop for a PR.
        # n=8000 rather than 4000: at 4000 the two-thread BLAS hand-offs of
        # many tiny solves spread ten runs by 22 % (quartiles over median) on
        # a 2-vCPU virtual machine, against 9 % at 8000.
        Workload(
            name="small_n",
            why="full pipeline at n=8000, m=5: the same fitting layer with a "
            "small working set, where per-fit fixed costs dominate",
            n=8000,
            m=5,
            cycles=10,
            grid_points=41,
            setup_stages=(),
            timed_stages=STAGES,
        ),
    )
}
