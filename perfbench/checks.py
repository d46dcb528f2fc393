"""Output checks, output digests and the environment record of a benchmark run.

The checks read the program's CSV files with their own parser, so a defect
in the program's readers cannot hide a defect in its writers.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

NA_TOKEN = "NA"


class Ledger:
    """Counts attempted and failed operations: stage invocations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
            print(f"perfbench: FAILED {self.failures[-1]}", file=sys.stderr)
        return ok


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """CSV columns as float arrays, with the ``NA`` token read as NaN."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], [row for row in rows[1:] if row]
    return {
        name: np.array([np.nan if row[j] == NA_TOKEN else float(row[j]) for row in body])
        for j, name in enumerate(header)
    }


def check_imputations(ledger: Ledger, run_dir: Path, m: int) -> None:
    """Observed cells are unchanged and imputed values come from the observed support.

    The treatment is imputed as sign times a matched magnitude, so its
    support check is on ``|x|``.
    """
    observed = read_columns(run_dir / "observed.csv")
    for i in range(1, m + 1):
        name = f"completed_{i:02d}.csv"
        completed = read_columns(run_dir / name)
        unchanged = bool(np.array_equal(completed["y"], observed["y"]))
        in_support = True
        for column, transform in (("x", np.abs), ("z", lambda v: v)):
            seen = ~np.isnan(observed[column])
            filled = completed[column]
            unchanged &= bool(np.array_equal(filled[seen], observed[column][seen]))
            imputed = transform(filled[~seen])
            in_support &= bool(
                np.all(np.isfinite(imputed))
                and np.all(np.isin(imputed, transform(observed[column][seen])))
            )
        ledger.record(f"{name}: observed cells unchanged", unchanged)
        ledger.record(f"{name}: imputed values from the observed support", in_support)


def max_abs_errors(run_dir: Path, lo: float = -2.0, hi: float = 2.0) -> dict[str, float]:
    """MI and complete-case max abs error against ``oracle_ace`` on [lo, hi]."""
    table = read_columns(run_dir / "evaluation.csv")
    inner = (table["x"] >= lo - 1e-9) & (table["x"] <= hi + 1e-9)
    return {
        "mi": float(np.max(np.abs(table["mi_error"][inner]))),
        "cc": float(np.max(np.abs(table["cc_error"][inner]))),
    }


def reported_errors(evaluate_stdout: str) -> dict[str, str]:
    """The [-2, 2] max abs errors as ``evaluate`` printed them."""
    out = {}
    for line in evaluate_stdout.splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if fields.get("region") == "[-2,2]" and "method" in fields:
            out[fields["method"]] = fields["max_abs_error"]
    return out


def csv_digests(run_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.glob("*.csv"))
    }


def source_digest(src: Path) -> str:
    """One SHA-256 over the program's source files, names and contents."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas_threads(package) -> dict[str, int]:
    """Threads of each OpenBLAS bundled with a wheel, asked through its C API."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    out = {}
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                out[lib.name] = int(function())
                break
    return out


def environment(root: Path) -> dict:
    """What the timings depend on.  Nothing is pinned: the program runs as users run it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {**_openblas_threads(np), **_openblas_threads(scipy)},
        "thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "frontdoor_lab"),
    }


def check_against_earlier(
    ledger: Ledger, directory: Path, identity: dict, digests: dict[str, str]
) -> str:
    """Compare output digests with an earlier run of the same identity, or record them.

    Runs with one workload, seed, program source and environment must write
    byte-identical CSVs.  The digests stay in ``directory`` between runs.
    """
    key = hashlib.sha256(json.dumps(identity, sort_keys=True).encode()).hexdigest()[:32]
    path = directory / f"{key}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())["digests"]
        differing = sorted(
            name for name in set(earlier) | set(digests) if earlier.get(name) != digests.get(name)
        )
        ledger.record(
            "CSVs byte-identical to an earlier run with the same seed",
            not differing,
            f"differ: {', '.join(differing)}",
        )
        return "compared"
    directory.mkdir(parents=True, exist_ok=True)
    staging = path.with_suffix(f".{os.getpid()}.tmp")
    staging.write_text(json.dumps({"identity": identity, "digests": digests}, indent=1))
    os.replace(staging, path)
    return "recorded"
