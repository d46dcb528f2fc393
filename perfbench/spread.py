"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload small_n --seeds 1-10

Each run is a fresh ``run.py`` process, run one after another.  For every
metric this prints the median, the quartiles and the quartile distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  Exits
non-zero if a run fails or is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        share = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:48s} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={share:.4f}" + (f" bound={bound} ({share / bound:.2f} of it)" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
