"""Batch command line: simulate, identify, impute, estimate, evaluate, plot.

Each command is one pipeline stage operating on files in the output
directory, so stages can be rerun or inspected independently:

* ``simulate``  writes ``population.csv`` (latent table, for evaluation
  only), ``observed.csv`` (masked table with NA tokens) and the resolved
  ``run_config.txt``, which the later stages read as their base settings.
* ``identify``  reports the identification and missing-at-random checks for
  a graph file (or the two bundled graphs).
* ``impute``    reads ``observed.csv``; writes ``completed_XX.csv``,
  ``imputation_diagnostics.csv`` and the chain trace ``imputation_trace.csv``.
* ``estimate``  reads the completed copies plus ``observed.csv``; writes
  ``effect_mi.csv`` and ``effect_cc.csv``.
* ``evaluate``  compares both curve files, and the imputed mediator mean in
  ``imputation_diagnostics.csv``, against the truth; writes ``evaluation.csv``.
* ``plot``      emits the three SVG figures.

Every CSV uses the table format of :mod:`frontdoor_lab.dataset`.  Exit codes:
0 success, 2 usage or malformed input (a file that is not UTF-8, a config value
no stage can use, a value that contradicts the recorded run), 3 missing input
file, 4 numeric failure.  Errors print a single machine-parsable line to
stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._seeds import mix_seed
from .causal_graph import (
    Dag,
    bidirected_path_exists,
    frontdoor_dag,
    frontdoor_design_dag,
    frontdoor_identifiable,
    load_graph,
    mar_holds,
)
from .dataset import _float_cells, _read_table, _write_table
from .dataset import dataset_from_csv, dataset_to_csv
from .errors import ConfigError, FrontdoorLabError, MissingInput, NumericError
from .figures import effect_curves_svg, scatter_matrix_svg, truth_vs_conditional_svg
from .frontdoor_estimator import (
    MethodTag,
    _fitted_pairs,
    _pooled_effect,
    complete_case_effect,
    effect_from_csv,
    effect_to_csv,
)
from .mi_engine import (
    DIAGNOSTICS_HEADER,
    CompletedDatasets,
    diagnostics_to_csv,
    imputation_diagnostics,
    run_mice,
    trace_to_csv,
)
from .runconfig import RunConfig, config_to_text, load_config, simulate_key_changes
from .scm_sim import (
    apply_missingness,
    generate_population,
    intervene_generate,
    oracle_ace,
    population_from_csv,
    population_to_csv,
)
from .spline_smooth import NoConvergenceWarning, additive_fit_to_text, spline_fit_to_text


def _resolve_config(args, recorded: bool = True) -> RunConfig:
    """The run settings: defaults < ``run_config.txt`` < ``--config`` < flags.

    The run record that ``simulate`` wrote into the output directory is read
    when ``recorded`` is set and the file exists, so a later stage keeps the
    settings of the run whose files it reads.  The output directory itself
    is never taken from the record.  A ``--config`` or flag value that
    contradicts a recorded key ``simulate`` fixed (the seed, the sample size,
    the mechanism) raises ConfigError; an equal value passes.
    """
    config = None
    if args.config:
        config = Path(args.config)
        if not config.exists():
            raise MissingInput(config)
    overrides = {
        name: getattr(args, name)
        for name in ("seed", "n", "m", "out")
        if getattr(args, name, None) is not None
    }

    def resolve(base: RunConfig) -> RunConfig:
        cfg = load_config(config, base) if config else base
        return replace(cfg, **overrides) if overrides else cfg

    cfg = resolve(RunConfig())
    record = Path(cfg.out) / "run_config.txt"
    if recorded and record.exists():
        kept = load_config(record)
        cfg = replace(resolve(kept), out=cfg.out)
        changed = simulate_key_changes(cfg, kept)
        if changed:
            raise ConfigError(f"contradicts the run recorded in {record}: {'; '.join(changed)}")
    return cfg


def _require(path: Path) -> Path:
    if not path.exists():
        raise MissingInput(path)
    return path


def _completed_paths(out: Path, m: int) -> list[Path]:
    return [out / f"completed_{i + 1:02d}.csv" for i in range(m)]


# ----------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args, recorded=False)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    population = generate_population(cfg.scm, cfg.n, mix_seed(cfg.seed, "population"))
    data = apply_missingness(cfg.scm, population, mix_seed(cfg.seed, "missingness"))
    population_to_csv(population, out / "population.csv")
    dataset_to_csv(data, out / "observed.csv")
    (out / "run_config.txt").write_text(config_to_text(cfg), encoding="utf-8")
    miss_x = 1.0 - float(np.mean(data.m_x))
    miss_z = 1.0 - float(np.mean(data.m_z))
    both = float(np.mean(~data.m_x & ~data.m_z))
    print(f"rows={data.n} x_missing={miss_x:.4f} z_missing={miss_z:.4f} both_missing={both:.4f}")
    print(f"wrote {out / 'population.csv'}")
    print(f"wrote {out / 'observed.csv'}")
    return 0


def _mar_report(graph: Dag) -> list[str]:
    lines = []
    names = graph.node_names
    value_nodes = sorted(
        name[2:] for name in names if name.startswith("M_") and name[2:] in names
    )
    if not value_nodes:
        return ["mar: no missingness indicators present"]
    fully_observed = sorted(
        name
        for name in names
        if f"{name}*" in names and f"M_{name}" not in names and not name.startswith("M_")
        and name not in ("m_1", "m_Omega")
    )
    lines.append(f"mar conditioning set: {{{', '.join(fully_observed)}}}")
    for value in value_nodes:
        indicator = f"M_{value}"
        given = [n for n in fully_observed if n != value]
        holds = mar_holds(graph, value, indicator, given)
        unconditional = mar_holds(graph, value, indicator, [])
        lines.append(
            f"mar value={value} indicator={indicator}: holds={str(holds).lower()} "
            f"unconditional={str(unconditional).lower()}"
        )
    return lines


def _identify_report(graph: Dag, label: str, treatment: str) -> list[str]:
    lines = [f"graph: {label}", f"treatment: {treatment}"]
    if treatment not in graph.node_names:
        lines.append("identifiable: n/a (treatment not in graph)")
    elif graph.is_latent(treatment):
        lines.append("identifiable: n/a (treatment is latent in this graph)")
    else:
        children = sorted(graph.children(treatment))
        lines.append(f"children: {', '.join(children) if children else '(none)'}")
        lines.append(f"identifiable: {str(frontdoor_identifiable(graph, treatment)).lower()}")
        for child in children:
            if graph.is_latent(child):
                lines.append(f"  child {child}: latent, blocks identification")
                continue
            has_path = bidirected_path_exists(graph, treatment, child)
            lines.append(
                f"  child {child}: bidirected path to {treatment}: {str(has_path).lower()}"
            )
    lines.extend(_mar_report(graph))
    return lines


def cmd_identify(args) -> int:
    treatment = args.treatment
    if args.graph:
        path = _require(Path(args.graph))
        graphs = [(load_graph(path), str(path))]
    else:
        graphs = [
            (frontdoor_dag(), "builtin frontdoor"),
            (frontdoor_design_dag(), "builtin frontdoor_design"),
        ]
    for graph, label in graphs:
        for line in _identify_report(graph, label, treatment):
            print(line)
        print()
    return 0


def cmd_impute(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    data = dataset_from_csv(_require(out / "observed.csv"))
    result = run_mice(data, cfg.imputation_config())
    for path, completed in zip(_completed_paths(out, cfg.m), result.completed):
        dataset_to_csv(completed, path)
    diagnostics_to_csv(imputation_diagnostics(result), out / "imputation_diagnostics.csv")
    trace_to_csv(result.trace, out / "imputation_trace.csv")
    print(f"wrote {cfg.m} completed datasets to {out}")
    print(f"wrote {out / 'imputation_diagnostics.csv'}")
    print(f"wrote {out / 'imputation_trace.csv'}")
    return 0


def _saving_models(pairs, models: Path):
    """Pass each (pair, label) on after writing its two fitted regressions."""
    models.mkdir(exist_ok=True)
    for i, (pair, label) in enumerate(pairs, start=1):
        (models / f"mediator_{i:02d}.txt").write_text(
            spline_fit_to_text(pair.mediator), encoding="utf-8"
        )
        (models / f"outcome_{i:02d}.txt").write_text(
            additive_fit_to_text(pair.outcome), encoding="utf-8"
        )
        yield pair, label


def cmd_estimate(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    data = dataset_from_csv(_require(out / "observed.csv"))
    completed = tuple(
        dataset_from_csv(_require(path)) for path in _completed_paths(out, cfg.m)
    )
    bundle = CompletedDatasets(source=data, completed=completed)
    grid = cfg.grid_values()
    oracle = oracle_ace(cfg.scm, grid)
    mi_config = cfg.estimator_config("mi")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoConvergenceWarning)
        pairs = _fitted_pairs(bundle.completed, mi_config)
        if args.save_models:
            pairs = _saving_models(pairs, out / "models")
        mi = _pooled_effect(pairs, grid, mi_config, MethodTag.MULTIPLE_IMPUTATION)
        cc = complete_case_effect(data, grid, cfg.estimator_config("cc"))
    effect_to_csv(mi, oracle, out / "effect_mi.csv")
    effect_to_csv(cc, oracle, out / "effect_cc.csv")
    print(f"wrote {out / 'effect_mi.csv'}")
    print(f"wrote {out / 'effect_cc.csv'}")
    return 0


def _error_stats(estimate, oracle, lo=-2.0, hi=2.0):
    errors = estimate.pooled_ace - oracle
    inner = (estimate.grid >= lo - 1e-9) & (estimate.grid <= hi + 1e-9)
    return {
        "max_abs": float(np.max(np.abs(errors))),
        "mean_abs": float(np.mean(np.abs(errors))),
        "mean_signed": float(np.mean(errors)),
        "inner_max_abs": float(np.max(np.abs(errors[inner]))) if inner.any() else float("nan"),
        "inner_mean_abs": float(np.mean(np.abs(errors[inner]))) if inner.any() else float("nan"),
        "inner_mean_signed": float(np.mean(errors[inner])) if inner.any() else float("nan"),
    }


def _imputed_z_means(path: Path, m: int) -> list[float]:
    """Mean of the imputed mediator cells of copies 1..m, as ``impute`` recorded them."""
    rows = _read_table(
        path,
        "imputation diagnostics",
        lambda h: h == DIAGNOSTICS_HEADER,
        lambda row: (row[0], int(row[1]), row[2], [float(v) for v in row[3:]]),
    )
    return [
        numbers[0]
        for variable, index, side, numbers in rows
        if variable == "z" and side == "imputed" and index <= m
    ]


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    mi, oracle_mi = effect_from_csv(_require(out / "effect_mi.csv"))
    cc, oracle_cc = effect_from_csv(_require(out / "effect_cc.csv"))
    if not np.array_equal(mi.grid, cc.grid):
        raise FrontdoorLabError("effect_mi.csv and effect_cc.csv hold different grids")
    if cfg.m != mi.m:
        raise FrontdoorLabError(f"m = {cfg.m}, but effect_mi.csv holds {mi.m} imputations")
    for label, estimate, oracle in (("mi", mi, oracle_mi), ("cc", cc, oracle_cc)):
        stats = _error_stats(estimate, oracle)
        print(
            f"method={label} max_abs_error={stats['max_abs']:.4f} "
            f"mean_abs_error={stats['mean_abs']:.4f} "
            f"mean_signed_error={stats['mean_signed']:+.4f}"
        )
        print(
            f"method={label} region=[-2,2] max_abs_error={stats['inner_max_abs']:.4f} "
            f"mean_abs_error={stats['inner_mean_abs']:.4f} "
            f"mean_signed_error={stats['inner_mean_signed']:+.4f}"
        )
    cc_stats = _error_stats(cc, oracle_cc)
    print(f"cc_overestimates={str(cc_stats['inner_mean_signed'] > 0).lower()}")

    names = ("population.csv", "observed.csv", "imputation_diagnostics.csv")
    population_path, observed_path, diagnostics_path = (out / name for name in names)
    if population_path.exists() and observed_path.exists() and diagnostics_path.exists():
        population = population_from_csv(population_path)
        observed = dataset_from_csv(observed_path)
        means = _imputed_z_means(diagnostics_path, cfg.m)
        if len(population) == observed.n and means and len(means) == cfg.m:
            true_mean = float(np.mean(population.z[~observed.m_z]))
            pooled = float(np.mean(means))
            print(
                f"imputed_z_pooled_mean={pooled:.4f} true_masked_z_mean={true_mean:.4f} "
                f"gap={pooled - true_mean:+.4f}"
            )

    columns = (
        mi.grid, oracle_mi, mi.pooled_ace, mi.pooled_ace - oracle_mi,
        cc.pooled_ace, cc.pooled_ace - oracle_cc,
    )
    _write_table(
        out / "evaluation.csv",
        ["x", "oracle", "mi_pooled", "mi_error", "cc_pooled", "cc_error"],
        [_float_cells(column) for column in columns],
    )
    print(f"wrote {out / 'evaluation.csv'}")
    return 0


def cmd_plot(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    data = dataset_from_csv(_require(out / "observed.csv"))
    mi, oracle = effect_from_csv(_require(out / "effect_mi.csv"))
    cc, _ = effect_from_csv(_require(out / "effect_cc.csv"))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoConvergenceWarning)
        scatter = scatter_matrix_svg(data, cfg.subsample, cfg.seed)
        truth_panel = truth_vs_conditional_svg(cfg.scm, data, cfg.subsample, cfg.seed)
    true_q05 = np.empty(len(mi.grid))
    true_q95 = np.empty(len(mi.grid))
    for j, x in enumerate(mi.grid):
        draws = intervene_generate(
            cfg.scm, float(x), 200000, mix_seed(cfg.seed, "plot-truth", j)
        )
        true_q05[j], true_q95[j] = np.quantile(draws, [0.05, 0.95])
    curves = effect_curves_svg(mi, cc, oracle, true_q05, true_q95)

    for name, text in (
        ("scatter_matrix.svg", scatter),
        ("true_vs_conditional.svg", truth_panel),
        ("estimated_effects.svg", curves),
    ):
        (out / name).write_text(text, encoding="utf-8")
        print(f"wrote {out / name}")
    return 0


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontdoor-lab",
        description="Nonlinear causal effect estimation from incomplete data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key-value run configuration file")
        p.add_argument("--seed", type=int, help="root random seed")
        p.add_argument("--n", type=int, help="sample size")
        p.add_argument("--m", type=int, help="number of imputations")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("simulate", help="draw the population and masked dataset")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="graph identification and MAR report")
    common(p)
    p.add_argument("--graph", help="graph file (defaults to both bundled graphs)")
    p.add_argument("--treatment", default="X", help="treatment node name")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("impute", help="multiple imputation of the observed table")
    common(p)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("estimate", help="effect curves for imputed and complete-case data")
    common(p)
    p.add_argument(
        "--save-models", action="store_true", help="serialize the fitted regressions"
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="compare estimates against the closed-form truth")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", help="emit the SVG figures")
    common(p)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MissingInput as exc:
        print(f"error: input-missing: {exc.path}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric-failure: {exc}", file=sys.stderr)
        return 4
    except FrontdoorLabError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
