"""Batch command line: simulate, identify, impute, estimate, evaluate, plot.

Each command is one pipeline stage operating on files in the output
directory, so stages can be rerun or inspected independently:

* ``simulate``  writes ``population.csv`` (latent table, for evaluation
  only), ``observed.csv`` (masked table with NA tokens) and the resolved
  ``run_config.txt``, which the later stages read as their base settings.
* ``identify``  reports the identification and missing-at-random checks for
  a graph file (or the two bundled graphs).
* ``impute``    reads ``observed.csv``; writes ``completed_XX.csv`` (replacing
  every copy of an earlier run), each built from ``observed.csv`` and one
  chain's imputed values as it is written, ``imputation_diagnostics.csv`` and
  the chain trace ``imputation_trace.csv``.
* ``estimate``  reads ``observed.csv`` and then the completed copies one at a
  time, and refuses, naming it, a copy that is not a completion of
  ``observed.csv``: another row count, a missing cell left, or an observed
  cell changed.  Of each copy it keeps only the imputed cells, so the fits
  rebuild copy k from ``observed.csv``, whose observed cells the check found
  equal, and hold one copy at a time.  Only after every check does it run
  ``complete_case_effect`` and ``estimate_effect``, and write both curves with
  the true mean to the one table ``effects.csv``, and with ``--save-models``
  the fitted regressions as JSON to ``models/mediator_XX.json`` and
  ``models/outcome_XX.json``, replacing every model of an earlier run.
* ``evaluate``  compares both curves of ``effects.csv``, and the imputed
  mediator mean in ``imputation_diagnostics.csv`` when the mediator had
  missing cells, against the truth, and reports how far the imputed copies'
  curves spread; writes ``evaluation.csv``.  ``population.csv`` is its one
  optional input: without it only the curves are compared, and with it
  ``observed.csv`` and ``imputation_diagnostics.csv`` must be there too.
* ``plot``      emits the three SVG figures.  The true 5 / 95 % bands of the
  effect figure are exact interventional quantiles from
  :func:`frontdoor_lab.scm_sim.oracle_quantiles` (quadrature over the
  mediator noise), computed once for the whole grid; the true mean is the
  ``oracle_ace`` column of ``effects.csv``.

Every CSV uses the table format of :mod:`frontdoor_lab.dataset`.  Exit codes:
0 success, 2 usage or malformed input (a file that is not UTF-8, a config value
no stage can use, a value that contradicts the recorded run, any operating-system
failure but an absent path: a directory where a file should be, a path through a
regular file, a permission denied), 3 absent input path, 4 numeric failure;
:func:`main` alone maps a failure to its code and prints one machine-parsable
line to stderr.
Each stage writes all its files before its report, so a reader that closes
standard output early (``| head``) cannot cut it short, and it exits 0.
``impute`` and ``estimate`` end their reports with ``nonconverged_fits=<K>``,
the number of their fits whose backfitting stopped at its cycle cap.
"""

from __future__ import annotations

import argparse
import os
import sys
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
from .dataset import Dataset, dataset_from_csv, dataset_to_csv, datasets_to_csv, write_table
from .errors import FrontdoorLabError, NumericError
from .figures import effect_curves_svg, scatter_matrix_svg, truth_vs_conditional_svg
from .frontdoor_estimator import (
    complete_case_effect,
    effect_from_csv,
    effect_to_csv,
    estimate_effect,
)
from .mi_engine import (
    CompletedDatasets,
    diagnostics_from_csv,
    diagnostics_to_csv,
    imputation_diagnostics,
    run_mice,
    trace_to_csv,
)
from .runconfig import RunConfig, config_to_text, load_config, simulate_key_changes
from .scm_sim import (
    apply_missingness,
    generate_population,
    oracle_ace,
    oracle_quantiles,
    population_from_csv,
    population_to_csv,
)
from .spline_smooth import fit_to_json


def _resolve_config(args) -> RunConfig:
    """The run settings: defaults < ``run_config.txt`` < ``--config`` < flags.

    The run record that ``simulate`` wrote into the output directory is read
    when the file exists, so every stage, ``simulate`` included, keeps the
    settings of the run whose files it reads or rewrites.  The output
    directory itself is never taken from the record.  A ``--config`` or flag
    value that contradicts a recorded key ``simulate`` fixed (the seed, the
    sample size, the mechanism) raises FrontdoorLabError; an equal value passes.
    """
    config = Path(args.config) if args.config else None
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
    if record.exists():
        kept = load_config(record)
        cfg = replace(resolve(kept), out=cfg.out)
        changed = simulate_key_changes(cfg, kept)
        if changed:
            raise FrontdoorLabError(
                f"contradicts the run recorded in {record}: {'; '.join(changed)}"
            )
    return cfg


def _completed_paths(out: Path, m: int) -> list[Path]:
    return [out / f"completed_{i + 1:02d}.csv" for i in range(m)]


# ----------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    # drawn first, so a mechanism that overflows leaves no directory behind
    population = generate_population(cfg.scm, cfg.n, mix_seed(cfg.seed, "population"))
    data = apply_missingness(cfg.scm, population, mix_seed(cfg.seed, "missingness"))
    out.mkdir(parents=True, exist_ok=True)
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
        path = Path(args.graph)
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
    data = dataset_from_csv(out / "observed.csv")
    result = run_mice(
        data, m=cfg.m, cycles=cfg.cycles, donors=cfg.donors,
        seed=mix_seed(cfg.seed, "impute"), n_knots=cfg.n_knots,
    )
    # a rerun with a smaller m leaves no copy of the earlier run behind
    for path in out.glob("completed_*.csv"):
        path.unlink()
    datasets_to_csv(result, _completed_paths(out, cfg.m))
    diagnostics_to_csv(imputation_diagnostics(result), out / "imputation_diagnostics.csv")
    trace_to_csv(result.trace, out / "imputation_trace.csv")
    print(f"wrote {cfg.m} completed datasets to {out}")
    print(f"wrote {out / 'imputation_diagnostics.csv'}")
    print(f"wrote {out / 'imputation_trace.csv'}")
    print(f"nonconverged_fits={result.nonconverged_fits}")
    return 0


def _save_models(pair, models: Path, i: int) -> None:
    """Write the two fitted regressions of imputed copy i (from 1) as JSON;
    copy 1 first replaces every model file of an earlier run, ``.txt`` files
    of older versions included."""
    if i == 1:
        models.mkdir(exist_ok=True)
        for path in [*models.glob("mediator_*"), *models.glob("outcome_*")]:
            path.unlink()
    for kind, fit in (("mediator", pair.mediator), ("outcome", pair.outcome)):
        (models / f"{kind}_{i:02d}.json").write_text(fit_to_json(fit), encoding="utf-8")


def _imputed_cells(data: Dataset, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The x and z cells of the completed copy at ``path`` that ``data`` is
    missing; raises, naming the file, if the copy is not a completion of
    ``data``.  The copy itself is dropped on return."""
    copy = dataset_from_csv(path)
    if copy.n != data.n:  # first: observed_cells_match needs equal lengths
        raise FrontdoorLabError(f"{path} holds {copy.n} rows, but observed.csv holds {data.n}")
    if not copy.is_complete():
        raise FrontdoorLabError(f"{path} still has missing cells")
    if not data.observed_cells_match(copy.x_star, copy.z_star, copy.y_star):
        raise FrontdoorLabError(f"{path}: an observed cell differs from observed.csv")
    return copy.x_star[~data.m_x], copy.z_star[~data.m_z]


def cmd_estimate(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    data = dataset_from_csv(out / "observed.csv")
    # only the imputed cells are kept, a row per copy; the fits rebuild the
    # copies from observed.csv one at a time
    imputed_x = np.empty((cfg.m, (~data.m_x).sum()))
    imputed_z = np.empty((cfg.m, (~data.m_z).sum()))
    for k, path in enumerate(_completed_paths(out, cfg.m)):
        imputed_x[k], imputed_z[k] = _imputed_cells(data, path)
    copies = CompletedDatasets(data, imputed_x, imputed_z)
    grid = cfg.grid_values()
    oracle = oracle_ace(cfg.scm, grid)
    converged = []  # one flag per outcome fit: the complete-case pair's, then copy 1..m's

    def on_pair(pair):
        converged.append(pair.outcome.converged)
        if args.save_models and len(converged) > 1:
            _save_models(pair, out / "models", len(converged) - 1)

    # first, so too few complete rows fail before any imputed copy is fitted
    settings = {"n_knots": cfg.n_knots, "on_pair": on_pair}
    cc = complete_case_effect(data, grid, seed=mix_seed(cfg.seed, "estimate", "cc"), **settings)
    mi = estimate_effect(copies, grid, seed=mix_seed(cfg.seed, "estimate", "mi"), **settings)
    effect_to_csv(mi, cc, oracle, out / "effects.csv")
    print(f"wrote {out / 'effects.csv'}")
    print(f"nonconverged_fits={converged.count(False)}")
    return 0


def _error_summary(errors: np.ndarray) -> tuple[float, float, float]:
    """Max and mean absolute error and mean signed error; nan for no error."""
    if len(errors) == 0:
        return (float("nan"),) * 3
    return float(np.max(np.abs(errors))), float(np.mean(np.abs(errors))), float(np.mean(errors))


def _report_number(value: float, sign: str = "") -> str:
    """``value`` as evaluate prints it: four decimals, in exponent form from a
    magnitude of 1e6 on so a huge error does not print hundreds of digits;
    ``sign="+"`` always shows the sign."""
    return format(value, f"{sign}.4{'e' if abs(value) >= 1e6 else 'f'}")


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    effects = out / "effects.csv"
    mi, cc, truth = effect_from_csv(effects)
    if cfg.m != mi.m:
        raise FrontdoorLabError(f"m = {cfg.m}, but {effects} holds {mi.m} imputations")
    inner = (mi.grid >= -2.0 - 1e-9) & (mi.grid <= 2.0 + 1e-9)
    report, summaries = [], {}
    for label, estimate in (("mi", mi), ("cc", cc)):
        errors = estimate.pooled_ace - truth
        for region, part in (("", errors), (" region=[-2,2]", errors[inner])):
            max_abs, mean_abs, signed = summaries[label, region] = _error_summary(part)
            report.append(
                f"method={label}{region} max_abs_error={_report_number(max_abs)} "
                f"mean_abs_error={_report_number(mean_abs)} "
                f"mean_signed_error={_report_number(signed, '+')}"
            )
    # the complete-case mean signed error on [-2, 2]: nan with no grid point there
    cc_signed = summaries["cc", " region=[-2,2]"][2]
    report.append(
        f"cc_overestimates={'nan' if np.isnan(cc_signed) else str(cc_signed > 0).lower()}"
    )

    names = ("population.csv", "observed.csv", "imputation_diagnostics.csv")
    population_path, observed_path, diagnostics_path = (out / name for name in names)
    if population_path.exists():  # the one optional input; the other two must be there
        population = population_from_csv(population_path)
        observed = dataset_from_csv(observed_path)
        if len(population) != observed.n:
            raise FrontdoorLabError(
                f"{population_path} holds {len(population)} rows, "
                f"but {observed_path} holds {observed.n}"
            )
        # every kept cell is a copy of its population cell: y always, x and z when observed
        if not observed.observed_cells_match(population.x, population.z, population.y):
            raise FrontdoorLabError(
                f"{population_path} is not the population of {observed_path}: "
                "an observed cell differs"
            )
        diagnostics = diagnostics_from_csv(diagnostics_path)
        masked = ~observed.m_z
        if masked.any():
            # the mean of the imputed mediator cells of copies 1..m, as impute recorded
            # it; a table of more copies (impute at a larger m) keeps its first m
            rows = [
                (k, mean)
                for variable, k, side, mean, *_ in diagnostics
                if variable == "z" and side == "imputed" and k <= mi.m
            ]
            copies, means = zip(*rows) if rows else ((), ())
            if copies != tuple(range(1, mi.m + 1)):
                raise FrontdoorLabError(
                    f"{diagnostics_path} holds imputed mediator means of copies "
                    f"{list(copies)}, but {effects} holds imputations 1..{mi.m}"
                )
            true_mean = float(np.mean(population.z[masked]))
            pooled = float(np.mean(means))
            report.append(
                f"imputed_z_pooled_mean={_report_number(pooled)} "
                f"true_masked_z_mean={_report_number(true_mean)} "
                f"gap={_report_number(pooled - true_mean, '+')}"
            )

    # how far the imputations move the estimate: the between-copy sd of the
    # ACE, and the standard error of the pooled mean it implies.  Each grid
    # column is scaled by a power of two that brings it below 1 in magnitude
    # and scaled back, which is exact and keeps huge curves from overflowing
    # the squares
    _, exponent = np.frexp(np.max(np.abs(mi.per_imputation_ace), axis=0))
    scaled = np.ldexp(mi.per_imputation_ace, -exponent)
    between_sd = np.ldexp(np.std(scaled, axis=0, ddof=1), exponent)
    sd_max = float(np.max(between_sd[inner])) if inner.any() else float("nan")
    report.append(
        f"mi_between_sd_max={_report_number(sd_max)} "
        f"mi_pooled_se_max={_report_number(sd_max / np.sqrt(mi.m))}"
    )

    columns = (
        mi.grid, truth, mi.pooled_ace, mi.pooled_ace - truth,
        cc.pooled_ace, cc.pooled_ace - truth, between_sd,
    )
    write_table(
        out / "evaluation.csv",
        ["x", "oracle", "mi_pooled", "mi_error", "cc_pooled", "cc_error", "mi_between_sd"],
        columns,
    )
    print("\n".join([*report, f"wrote {out / 'evaluation.csv'}"]))
    return 0


def cmd_plot(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.out)
    data = dataset_from_csv(out / "observed.csv")
    mi, cc, truth = effect_from_csv(out / "effects.csv")

    scatter = scatter_matrix_svg(data, cfg.subsample, cfg.seed)
    truth_panel = truth_vs_conditional_svg(cfg.scm, data, cfg.subsample, cfg.seed)
    true_q05, true_q95 = oracle_quantiles(cfg.scm, mi.grid, (0.05, 0.95)).T
    curves = effect_curves_svg(mi, cc, truth, true_q05, true_q95)
    figures = (
        ("scatter_matrix.svg", scatter),
        ("true_vs_conditional.svg", truth_panel),
        ("estimated_effects.svg", curves),
    )
    for name, text in figures:
        (out / name).write_text(text, encoding="utf-8")
    print("\n".join(f"wrote {out / name}" for name, _ in figures))
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout after the files were written; the rest goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FileNotFoundError as exc:  # the path is absent
        print(f"error: input-missing: {exc.filename}", file=sys.stderr)
        return 3
    except OSError as exc:  # any other: a directory, a path through a file, no permission
        print(f"error: invalid-input: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: numeric-failure: {exc}", file=sys.stderr)
        return 4
    except FrontdoorLabError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
