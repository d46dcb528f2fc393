"""Rectangular observed dataset whose NaN cells are its missingness record,
and the one table format of every CSV the package writes or reads.

A :class:`Dataset` holds the recorded columns ``x_star``, ``z_star`` and the
always-observed ``y_star``; a missing x or z cell is NaN.  The masks ``m_x`` /
``m_z`` (True where observed) are read off the columns, and no constructor
takes a mask: ``scm_sim.apply_missingness``, the only code that hides a value,
stores NaN in its place, so a masked value cannot leak to a consumer.

Every stage artifact is read by :func:`read_table` and written by
:func:`write_table`, or, for a dataset table, by :func:`datasets_to_csv`,
which formats its cells by the same rule: a header line, then one row per
line; a number cell is the shortest round-trip float text and a NaN the token
``NA``; lines end in CRLF, text is UTF-8.  The reader names the columns that admit ``NA``;
every other number cell must be a finite number.  Only ``x`` and ``z`` of a
dataset table (header ``x,z,y``) admit it, for a masked cell; no column of the
population, curve, evaluation, diagnostics or trace tables does.  The round
trip is lossless.  Several datasets that share most of their rows, such as
the completed copies of one imputation run, are written together
(:func:`datasets_to_csv`): the first one's row lines are held while the
copies are written, and a later dataset formats only the rows whose bits
differ from them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import isfinite, nan
from typing import Callable, Iterator

import numpy as np

from .errors import FrontdoorLabError, check_vector, read_utf8

NA_TOKEN = "NA"
DATASET_HEADER = ["x", "z", "y"]


@dataclass(frozen=True, eq=False)
class Dataset:
    x_star: np.ndarray
    z_star: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        n = len(check_vector("column y_star", self.y_star))
        for name in ("x_star", "z_star", "y_star"):
            # a copy, never a view: the stored arrays are frozen and must not
            # alias caller-owned data
            arr = np.array(check_vector(f"column {name}", getattr(self, name)))
            if len(arr) != n:
                raise FrontdoorLabError(f"column {name} must be of length {n}")
            if np.isinf(arr).any():
                raise FrontdoorLabError(f"column {name} must hold no infinite value")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.isnan(self.y_star).any():
            raise FrontdoorLabError("y column must be fully observed")

    @cached_property
    def m_x(self) -> np.ndarray:
        """True where the x cell is observed (read-only)."""
        return _observed(self.x_star)

    @cached_property
    def m_z(self) -> np.ndarray:
        """True where the z cell is observed (read-only)."""
        return _observed(self.z_star)

    @property
    def n(self) -> int:
        return len(self.y_star)

    def complete_mask(self) -> np.ndarray:
        """Rows with no missing cell."""
        return self.m_x & self.m_z

    def is_complete(self) -> bool:
        return bool(self.complete_mask().all())

    def observed_cells_match(self, x, z, y) -> bool:
        """Whether each observed cell equals the cell in its place in the
        columns ``x``, ``z`` and ``y`` of an equally long table."""
        return all(
            np.array_equal(cells, np.where(np.isnan(cells), np.nan, other), equal_nan=True)
            for cells, other in ((self.x_star, x), (self.z_star, z), (self.y_star, y))
        )


def _observed(column: np.ndarray) -> np.ndarray:
    mask = ~np.isnan(column)
    mask.setflags(write=False)
    return mask


def dataset_to_csv(data: Dataset, path) -> None:
    datasets_to_csv([data], [path])


def datasets_to_csv(datasets, paths) -> None:
    """Write each dataset to its path, formatting the first one's rows once.

    A later dataset reuses the first one's text for every row whose x, z and
    y bits all equal it; bits, not values, so -0.0 and 0.0 stay apart.
    """
    held_bits = held_lines = None
    for data, path in zip(datasets, paths, strict=True):
        columns = (data.x_star, data.z_star, data.y_star)
        bits = np.column_stack(columns).view(np.int64)
        if held_lines is None:
            held_bits, held_lines = bits, list(_lines(columns))
            lines = held_lines
        else:
            shared = min(len(bits), len(held_bits))
            lines = held_lines[:shared]
            changed = np.flatnonzero((bits[:shared] != held_bits[:shared]).any(axis=1))
            for row, line in zip(changed.tolist(), _lines([c[changed] for c in columns])):
                lines[row] = line
            lines += _lines([c[shared:] for c in columns])
        _write_lines(path, DATASET_HEADER, lines)


def dataset_from_csv(path) -> Dataset:
    x, z, y = read_table(path, "dataset", lambda h: h == DATASET_HEADER, na=("x", "z"))
    return Dataset(x_star=x, z_star=z, y_star=y)


def write_table(path, header: list[str], columns) -> None:
    """Write equal-length columns under ``header`` in the table format: a
    float column as shortest round-trip text with ``NA`` for NaN, any other
    (ints, text labels) as ``str``.  Cells go unquoted, so a label must hold
    no comma, quote or line break."""
    _write_lines(path, header, _lines(columns))


def _lines(columns) -> Iterator[str]:
    return (",".join(cells) + "\r\n" for cells in zip(*map(_cells, columns), strict=True))


def _cells(column) -> Iterator[str]:
    values = np.asarray(column)
    if values.dtype.kind != "f":
        return map(str, values.tolist())
    # one Python float at a time: a whole column as a list would sit in memory;
    # ``datasets_to_csv`` holds only the first dataset's row lines, while it
    # writes the others
    cells = map(repr, map(float, values))
    if not np.isnan(values).any():
        return cells
    return (NA_TOKEN if cell == "nan" else cell for cell in cells)


def _write_lines(path, header: list[str], lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(lines)


def read_table(path, kind: str, header_ok: Callable, na=(), text=(), empty_ok=False) -> list:
    """The columns of a table in the table format, in header order: a column
    named in ``text`` as the list of its cells, any other as a float64 array
    whose cells are finite numbers, or ``NA`` (NaN) in a column named in
    ``na``.  A header ``header_ok`` rejects, a row of another width or with a
    cell that breaks that rule, bytes that are not UTF-8 and, unless
    ``empty_ok``, a table without rows raise :class:`FrontdoorLabError`
    naming the file, and a row's line."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or not header_ok(header):
                raise FrontdoorLabError(f"unexpected {kind} header in {path}: {header}")
            labels = {j: [] for j, name in enumerate(header) if name in text}
            cells = chain.from_iterable(_number_cells(reader, header, na, labels))
            values = np.fromiter(map(_number, cells), dtype=float)
        except UnicodeDecodeError:
            read_utf8(path)  # raises, naming the line of the first bad byte
            raise
        except (ValueError, csv.Error) as exc:
            raise FrontdoorLabError(
                f"malformed {kind} row in {path} line {reader.line_num}: {exc}"
            ) from exc
    if not values.size and not empty_ok:
        raise FrontdoorLabError(f"no {kind} rows in {path}")
    # one contiguous array per column
    table = iter(np.ascontiguousarray(values.reshape(-1, len(header) - len(labels)).T))
    return [labels[j] if j in labels else next(table) for j in range(len(header))]


def _number_cells(reader, header: list[str], na, labels: dict) -> Iterator[list[str]]:
    """Each non-blank row's number cells, its cells in the text columns at the
    keys of ``labels`` appended to their lists; ``ValueError`` for a row of
    another width or an ``NA`` in a column not named in ``na``."""
    numbers = [j for j in range(len(header)) if j not in labels]
    no_na = [j for j in numbers if header[j] not in na]
    for row in filter(None, reader):
        if len(row) != len(header):
            raise ValueError(f"{len(row)} cells under {len(header)} columns")
        if NA_TOKEN in row:
            for j in no_na:
                if row[j] == NA_TOKEN:
                    raise ValueError(f"column {header[j]} admits no {NA_TOKEN}")
        if labels:
            for j, cells in labels.items():
                cells.append(row[j])
            row = [row[j] for j in numbers]
        yield row


def _number(cell: str) -> float:
    """A number cell as a float: NaN for ``NA``, else a finite number."""
    value = nan if cell == NA_TOKEN else float(cell)
    if not isfinite(value) and cell != NA_TOKEN:
        raise ValueError(f"not a finite number: {cell!r}")
    return value
