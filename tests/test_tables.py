"""The one table format: every table goes through ``dataset.write_table`` and
``dataset.read_table``, and no other module reaches into ``dataset``."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import frontdoor_lab
from frontdoor_lab.dataset import (
    Dataset,
    dataset_from_csv,
    dataset_to_csv,
    read_table,
    write_table,
)
from frontdoor_lab.errors import FrontdoorLabError
from frontdoor_lab.frontdoor_estimator import EffectEstimate, effect_from_csv, effect_to_csv
from frontdoor_lab.mi_engine import (
    DIAGNOSTICS_HEADER,
    TRACE_HEADER,
    diagnostics_from_csv,
    diagnostics_to_csv,
    trace_to_csv,
)
from frontdoor_lab.scm_sim import Population, population_from_csv, population_to_csv

PACKAGE = Path(frontdoor_lab.__file__).parent
DATASET_MODULE = ("dataset", "frontdoor_lab.dataset")  # as a relative or an absolute import

# values whose shortest round-trip text is easy to get wrong
EDGE = np.array([-0.0, 5e-324, 0.1 + 0.2, 1e16, -1.7976931348623157e308, 1 / 3])


def test_no_module_imports_a_private_name_of_dataset():
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "dataset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in DATASET_MODULE:
                leaks += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert leaks == []


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def dataset_trip(path):
    data = Dataset(
        x_star=np.where([True, False, True, True, False, True], EDGE, np.nan),
        z_star=np.where([False, True, True, False, True, True], EDGE[::-1], np.nan),
        y_star=EDGE,
    )
    dataset_to_csv(data, path)
    back = dataset_from_csv(path)
    return [(getattr(data, name), getattr(back, name)) for name in ("x_star", "z_star", "y_star")]


def population_trip(path):
    population = Population(u=EDGE, x=EDGE[::-1], z=-EDGE, y=EDGE / 7)
    population_to_csv(population, path)
    back = population_from_csv(path)
    return [(getattr(population, name), getattr(back, name)) for name in ("u", "x", "z", "y")]


def effects_trip(path):
    grid = np.sort(EDGE[:4])
    per = np.vstack([EDGE[:4], EDGE[2:]])
    mi = EffectEstimate(grid, per, per.mean(axis=0), grid - 1.0, grid + 1.0)
    cc = EffectEstimate(grid, EDGE[None, 1:5], EDGE[1:5], grid - 2.0, grid + 2.0)
    oracle = EDGE[:4] / 3
    effect_to_csv(mi, cc, oracle, path)
    mi_back, cc_back, oracle_back = effect_from_csv(path)
    pairs = [(oracle, oracle_back)]
    for estimate, back in ((mi, mi_back), (cc, cc_back)):
        pairs += [
            (getattr(estimate, name), getattr(back, name))
            for name in ("grid", "per_imputation_ace", "pooled_ace", "q05", "q95")
        ]
    return pairs


def diagnostics_trip(path):
    rows = [
        ("x", 1, "observed", EDGE[0], EDGE[1], *tuple(EDGE[:3]) * 3, 0.25),
        ("z", 12, "imputed", EDGE[2], EDGE[3], *tuple(EDGE[3:]) * 3, 1 / 3),
    ]
    diagnostics_to_csv(rows, path)
    back = diagnostics_from_csv(path)
    assert [row[:3] for row in back] == [row[:3] for row in rows]
    assert all(type(row[1]) is int for row in back)
    assert all(type(value) is float for row in back for value in row[3:])
    return [([row[3:] for row in rows], [row[3:] for row in back])]


def trace_trip(path):
    rows = [(1, 1, "x", EDGE[0], EDGE[1]), (10, 2, "z", EDGE[2], EDGE[5])]
    trace_to_csv(rows, path)
    chain, cycle, variable, mean, sd = read_table(
        path, "trace", lambda h: h == TRACE_HEADER, text=("variable",)
    )
    assert variable == ["x", "z"]
    return [([1, 10], chain), ([1, 2], cycle), (EDGE[[0, 2]], mean), (EDGE[[1, 5]], sd)]


def evaluation_trip(path):
    header = ["x", "oracle", "mi_pooled", "mi_error", "cc_pooled", "cc_error", "mi_between_sd"]
    columns = [np.roll(EDGE, shift) for shift in range(len(header))]
    write_table(path, header, columns)
    return list(zip(columns, read_table(path, "evaluation", lambda h: h == header)))


TRIPS = [dataset_trip, population_trip, effects_trip, diagnostics_trip, trace_trip,
         evaluation_trip]


@pytest.mark.parametrize("trip", TRIPS, ids=lambda trip: trip.__name__.removesuffix("_trip"))
def test_round_trip_is_bit_for_bit(trip, tmp_path):
    path = tmp_path / "table.csv"
    for written, read in trip(path):
        assert same_bits(written, read)
    raw = path.read_bytes()
    assert raw.count(b"\n") == raw.count(b"\r\n") > 1
    cells = raw.decode("utf-8").replace("\r\n", ",").split(",")
    assert not {"nan", "inf", "-inf"} & set(cells)


# a reader, its table's kind, a table whose third line holds an NA in a
# column that admits none, and that column
NA_WHERE_NONE_IS_ADMITTED = {
    "dataset_y": (dataset_from_csv, "dataset", "x,z,y\r\n1.0,NA,0.5\r\nNA,2.0,NA\r\n", "y"),
    "population_u": (
        population_from_csv, "population", "u,x,z,y\r\n0.1,0.2,0.3,0.4\r\nNA,0,1,2\r\n", "u"
    ),
    "population_z": (
        population_from_csv, "population", "u,x,z,y\r\n0.1,0.2,0.3,0.4\r\n1,0,NA,2\r\n", "z"
    ),
    "effects_q95": (
        effect_from_csv,
        "effect-curve",
        "x,oracle_ace,mi_pooled_ace,mi_ace_1,mi_ace_2,mi_q05,mi_q95,cc_ace,cc_q05,cc_q95\r\n"
        "-1.0,1.0,1.0,1.0,1.0,0.5,1.5,1.25,0.75,1.75\r\n"
        "1.0,2.0,2.0,2.0,2.0,1.5,NA,2.25,1.75,2.75\r\n",
        "mi_q95",
    ),
}


@pytest.mark.parametrize("case", list(NA_WHERE_NONE_IS_ADMITTED))
def test_na_where_the_column_admits_none(case, tmp_path):
    reader, kind, text, column = NA_WHERE_NONE_IS_ADMITTED[case]
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    message = f"malformed {kind} row in {path} line 3: column {column} admits no NA"
    with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
        reader(path)


def test_diagnostics_index_must_be_a_whole_number(tmp_path):
    path = tmp_path / "diagnostics.csv"
    row = ["z", "1.5", "imputed"] + ["0.5"] * 12
    path.write_text(",".join(DIAGNOSTICS_HEADER) + "\r\n" + ",".join(row) + "\r\n")
    message = f"{path}: dataset_index must hold whole numbers from 1"
    with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
        diagnostics_from_csv(path)


@pytest.mark.parametrize(
    "writer, header",
    [(diagnostics_to_csv, DIAGNOSTICS_HEADER), (trace_to_csv, TRACE_HEADER)],
    ids=["diagnostics", "trace"],
)
@pytest.mark.parametrize("cuts", [(0, 1), (1, 1)], ids=["second", "both"])
def test_writer_refuses_a_short_row(writer, header, cuts, tmp_path):
    full = tuple(range(len(header)))
    rows = [full[: len(full) - cut] for cut in cuts]
    path = tmp_path / "table.csv"
    message = f"{path}: each row must hold {len(header)} fields"
    with pytest.raises(FrontdoorLabError, match=f"^{re.escape(message)}$"):
        writer(rows, path)
    assert not path.exists()


def test_trace_without_rows(tmp_path):
    trace_to_csv([], tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (",".join(TRACE_HEADER) + "\r\n").encode()


def test_diagnostics_without_rows(tmp_path):
    diagnostics_to_csv([], tmp_path / "diagnostics.csv")
    assert (tmp_path / "diagnostics.csv").read_text() == ",".join(DIAGNOSTICS_HEADER) + "\n"
    assert diagnostics_from_csv(tmp_path / "diagnostics.csv") == []
