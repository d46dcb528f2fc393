"""frontdoor-lab benchmark: run one workload of the pipeline and print its metrics.

Run from the repository root; the program is imported from ``src``:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

The workload's stages run in this process through ``frontdoor_lab.cli.main``
with a generated ``--config`` file; each workload gets a fresh process, so
its peak memory is its own.  The program sees only that argv and config;
the seed becomes the program's ``seed`` key.

With ``--trace 0`` the timed stage sequence repeats while another repetition
is expected to end within ``--seconds`` (at least once), and the end-to-end
metrics in BENCHMARK.json are printed: medians over the repetitions, and
for set-up the median of three fresh interpreters' import of the program
plus the median of three set-ups.  With ``--trace 1`` the layer functions
are wrapped from outside (see ``tracer.py``), set-up and one timed sequence
run traced, and the per-layer metrics are printed.

Every stage invocation and every output check is one attempted operation;
the last line of standard output is the JSON result with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Intermediate files go to
``.perfbench_runs/`` and are removed after a correct run; digests of earlier
runs and a JSON record of each run stay there.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import (
    Ledger,
    check_against_earlier,
    check_imputations,
    csv_digests,
    environment,
    max_abs_errors,
    reported_errors,
)
from tracer import Tracer, wrapper_cost_s
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# run by a fresh interpreter: import the command line, print the seconds taken
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import frontdoor_lab.cli; print(time.perf_counter() - start)"
)
# the cli spans must account for the traced pipeline up to this much
SPAN_SLACK_S = 0.05


def import_program():
    """Import the command line from the checkout's source tree; exit if it is absent."""
    if not (SRC / "frontdoor_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}/frontdoor_lab")
    sys.path.insert(0, str(SRC))
    from frontdoor_lab import cli

    if Path(cli.__file__).resolve().parent != (SRC / "frontdoor_lab").resolve():
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's source")
    return cli


def import_seconds() -> list[float]:
    """Seconds each of several fresh interpreters takes to import the command line."""
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
        )
        for _ in range(IMPORT_REPEATS)
    ]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="program seed (1: acceptance seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.workload = WORKLOADS[args.workload]
    return args


def prepare(run_dir: Path, workload, seed: int) -> Path:
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / "bench.cfg"
    config.write_text(workload.config_text(seed, run_dir.resolve()), encoding="utf-8")
    return config


def run_stages(cli, stages, config: Path, ledger, tracer=None) -> tuple[dict, dict, bool]:
    """Run stages in order; returns wall seconds and captured stdout per stage."""
    walls, stdout = {}, {}
    for stage in stages:
        argv = [stage] if stage == "identify" else [stage, "--config", str(config)]
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"stage.{stage}", stage) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # any escape is a failed stage
                code = f"{type(exc).__name__}: {exc}"
        walls[stage] = time.perf_counter() - start
        stdout[stage] = out.getvalue()
        detail = f"returned {code}; stderr: {err.getvalue().strip()[-500:]}"
        if not ledger.record(f"stage {stage} exits 0", code == 0, detail):
            return walls, stdout, False
    return walls, stdout, True


def check_outputs(ledger, workload, run_dir: Path, stages, stdout) -> dict[str, float]:
    """Checks on one finished stage sequence; returns the accuracy if evaluated.

    Unreadable or malformed outputs count as one failed check.
    """
    try:
        return _check_outputs(ledger, workload, run_dir, stages, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ledger.record(f"outputs of {', '.join(stages)} readable", False, repr(exc))
        return {}


def _check_outputs(ledger, workload, run_dir, stages, stdout):
    if "impute" in stages:
        check_imputations(ledger, run_dir, workload.m)
    if "evaluate" not in stages:
        return {}
    errors = max_abs_errors(run_dir)
    printed = reported_errors(stdout["evaluate"])
    for method, value in errors.items():
        ledger.record(
            f"{method} error matches evaluate's report",
            printed.get(method) == f"{value:.4f}",
            f"computed {value!r}, printed {printed.get(method)}",
        )
    if workload.max_mi_err is not None:
        ledger.record(
            f"mi_max_abs_err < {workload.max_mi_err}",
            errors["mi"] < workload.max_mi_err,
            f"got {errors['mi']!r}",
        )
    return errors


def set_up(cli, workload, seed, run_root, ledger, tracer):
    """Run the set-up stages; untraced runs repeat them so their median is steady.

    Returns the config of the last set-up, the seconds of each and its CSV
    digests (empty when the workload has no set-up stages).
    """
    prep_s, digests = [], []
    for k in range(1 if tracer else SETUP_REPEATS):
        start = time.perf_counter()
        config = prepare(run_root / f"setup{k}", workload, seed)
        _, _, ok = run_stages(cli, workload.setup_stages, config, ledger, tracer)
        prep_s.append(time.perf_counter() - start)
        if not ok:
            return None, prep_s, {}
        if workload.setup_stages:
            digests.append(csv_digests(config.parent))
    if workload.setup_stages:
        check_outputs(ledger, workload, config.parent, workload.setup_stages, None)
        if len(digests) > 1:
            ledger.record(
                "set-up CSVs byte-identical across repeats",
                all(d == digests[0] for d in digests),
            )
    return config, prep_s, digests[0] if digests else {}


def timed_loop(cli, workload, config, ledger, tracer, seconds):
    """Repeat the timed stages while another repetition should end within ``seconds``.

    A closed loop with one client, in the last set-up's directory; traced
    runs make one repetition.  Returns per-repetition timings, the first
    repetition's CSV digests and its accuracy.
    """
    iterations, first_digests, errors = [], {}, {}
    measure_start = time.perf_counter()
    while True:
        cpu0 = os.times()
        start = time.perf_counter()
        walls, stdout, ok = run_stages(cli, workload.timed_stages, config, ledger, tracer)
        wall = time.perf_counter() - start
        cpu1 = os.times()
        if not ok:
            break
        iterations.append(
            {
                "pipeline_s": wall,
                "cpu_s": (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system),
                "stages_s": walls,
            }
        )
        digests = csv_digests(config.parent)
        if len(iterations) == 1:
            first_digests = digests
            errors = check_outputs(ledger, workload, config.parent, workload.timed_stages, stdout)
        else:
            ledger.record("CSVs byte-identical across repetitions", digests == first_digests)
        elapsed = time.perf_counter() - measure_start
        typical = statistics.median(i["pipeline_s"] for i in iterations)
        if tracer or elapsed + typical > seconds:
            break
    return iterations, first_digests, errors


def layer_values(tracer, workload, traced, ledger) -> dict[str, float]:
    """Per-layer metrics of the traced run, after its self-checks.

    The traced run covers set-up as well; the exact-count checks and the
    span accounting use the timed stages only.
    """
    timed = workload.timed_stages
    calls = tracer.calls_in(timed)
    for name, expected in workload.expected_calls().items():
        ledger.record(
            f"{name} calls match their formula",
            calls[name] == expected,
            f"counted {calls[name]}, expected {expected}",
        )
    spans = sum(tracer.stats[f"stage.{stage}"].total for stage in timed)
    ledger.record(
        "cli stage spans account for the traced pipeline",
        abs(traced["pipeline_s"] - spans) <= SPAN_SLACK_S,
        f"pipeline {traced['pipeline_s']!r} s, stage spans {spans!r} s",
    )
    values = {}
    for name, stats in tracer.stats.items():
        if name.startswith("stage."):
            values[f"cli.{name[len('stage.'):]}_s"] = stats.total
        else:
            values.update({f"{name}.{field}": v for field, v in stats.summary().items()})
    wrapped_calls = sum(n for name, n in calls.items() if not name.startswith("stage."))
    values["trace.pipeline_s"] = traced["pipeline_s"]
    values["trace.overhead_s"] = wrapper_cost_s() * wrapped_calls
    values["process.cpu_util"] = traced["cpu_s"] / traced["pipeline_s"]
    return values


def main(argv=None) -> int:
    cli = import_program()
    args = parse_args(argv)
    workload, seed = args.workload, args.seed
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]
    env = environment(ROOT)
    print("perfbench environment " + json.dumps(env, sort_keys=True))

    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    run_root = RUNS / f"{workload.name}-seed{seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_root, ignore_errors=True)

    import_s = [] if tracer else import_seconds()
    config, prep_s, setup_digests = set_up(cli, workload, seed, run_root, ledger, tracer)
    iterations, digests, errors = [], {}, {}
    if config is not None:
        iterations, digests, errors = timed_loop(
            cli, workload, config, ledger, tracer, args.seconds
        )
    if tracer:
        tracer.uninstall()

    digest_status = None
    if digests:
        identity = {
            "workload": workload.config_text(seed, Path("run")),
            "stages": [workload.setup_stages, workload.timed_stages],
            **{k: v for k, v in env.items() if k != "git_commit"},
        }
        digest_status = check_against_earlier(
            ledger, RUNS / "digests", identity, {**setup_digests, **digests}
        )

    values = {}
    if iterations:
        for stage in workload.timed_stages:
            values[f"cli.{stage}_s"] = statistics.median(i["stages_s"][stage] for i in iterations)
        values.update({f"accuracy.{k}_max_abs_err": v for k, v in errors.items()})
        if tracer:
            values.update(layer_values(tracer, workload, iterations[0], ledger))
        else:
            values["setup_s"] = statistics.median(import_s) + statistics.median(prep_s)
            values["pipeline_s"] = statistics.median(i["pipeline_s"] for i in iterations)
            values["cpu_s"] = statistics.median(i["cpu_s"] for i in iterations)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        missing = [m["name"] for m in declared if m["name"] not in values]
        ledger.record("every declared metric measured", not missing, ", ".join(missing))

    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "repetitions": len(iterations),
        "pipeline_s_each": [i["pipeline_s"] for i in iterations],
        "setup": {"import_s_each": import_s, "prepare_s_each": prep_s},
        "digests": digest_status,
        "failed_ops": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
        "values": values,
    }
    print("perfbench report " + json.dumps(report, sort_keys=True))
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    (RUNS / "results" / f"{run_root.name}.json").write_text(
        json.dumps({"environment": env, "report": report}, indent=1, sort_keys=True)
    )
    if not ledger.failed:
        shutil.rmtree(run_root, ignore_errors=True)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
