"""Rectangular observed dataset whose NaN cells are its missingness record.

A :class:`Dataset` holds the recorded columns ``x_star``, ``z_star`` and the
always-observed ``y_star``; a missing x or z cell is NaN.  The masks ``m_x`` /
``m_z`` (True where observed) are read off the columns, and no constructor
takes a mask: ``scm_sim.apply_missingness``, the only code that hides a value,
stores NaN in its place, so a masked value cannot leak to a consumer.

Serialization is CSV with header ``x,z,y`` and the literal token ``NA`` for a
missing cell; the round trip is lossless.  Every stage artifact uses this
table format (``_write_table`` / ``_read_table``): cells are the shortest
round-trip float text, lines end in CRLF, text is UTF-8.  Several datasets
that share most of their rows, such as the completed copies of one imputation
run, are written together (``_datasets_to_csv``): the first one's row lines
are held while the copies are written, and a later dataset formats only the
rows whose bits differ from them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import isfinite
from typing import Callable, Iterator

import numpy as np

from .errors import FrontdoorLabError, read_utf8

NA_TOKEN = "NA"
DATASET_HEADER = ["x", "z", "y"]


@dataclass(frozen=True, eq=False)
class Dataset:
    x_star: np.ndarray
    z_star: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        n = len(self.y_star)
        for name in ("x_star", "z_star", "y_star"):
            # a copy, never a view: the stored arrays are frozen and must not
            # alias caller-owned data
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or len(arr) != n:
                raise FrontdoorLabError(f"column {name} must be 1-d of length {n}")
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


def _observed(column: np.ndarray) -> np.ndarray:
    mask = ~np.isnan(column)
    mask.setflags(write=False)
    return mask


def _observed_cells_match(data: Dataset, columns) -> bool:
    """Whether each observed cell of ``data`` equals the cell in its place in
    ``columns``, the x, z and y columns of an equally long table."""
    return all(
        np.array_equal(cells, np.where(np.isnan(cells), np.nan, other), equal_nan=True)
        for cells, other in zip((data.x_star, data.z_star, data.y_star), columns, strict=True)
    )


def dataset_to_csv(data: Dataset, path) -> None:
    _datasets_to_csv([data], [path])


def _datasets_to_csv(datasets, paths) -> None:
    """Write each dataset to its path, formatting the first one's rows once.

    A later dataset reuses the first one's text for every row whose x, z and
    y bits all equal it; bits, not values, so -0.0 and 0.0 stay apart.
    """
    held_bits = held_lines = None
    for data, path in zip(datasets, paths, strict=True):
        bits = np.column_stack([data.x_star, data.z_star, data.y_star]).view(np.int64)
        if held_lines is None:
            held_bits, held_lines = bits, list(_dataset_lines(data, slice(None)))
            lines = held_lines
        else:
            shared = min(len(bits), len(held_bits))
            lines = held_lines[:shared]
            changed = np.flatnonzero((bits[:shared] != held_bits[:shared]).any(axis=1))
            for row, line in zip(changed.tolist(), _dataset_lines(data, changed)):
                lines[row] = line
            lines += _dataset_lines(data, slice(shared, None))
        _write_lines(path, DATASET_HEADER, lines)


def _dataset_lines(data: Dataset, rows) -> Iterator[str]:
    """Row lines of the dataset's ``rows`` (a slice or an index array)."""
    x = _float_cells(data.x_star[rows], data.m_x[rows])
    z = _float_cells(data.z_star[rows], data.m_z[rows])
    return _row_lines([x, z, _float_cells(data.y_star[rows])])


def dataset_from_csv(path) -> Dataset:
    rows = _read_table(path, "dataset", lambda h: h == DATASET_HEADER, _dataset_row)
    x, z, y = np.fromiter(chain.from_iterable(rows), dtype=float).reshape(-1, 3).T
    return Dataset(x_star=x, z_star=z, y_star=y)


def _dataset_row(row: list[str]) -> tuple[float, float, float]:
    x, z, y = row
    return _finite(x, NA_TOKEN), _finite(z, NA_TOKEN), _finite(y)


def _finite(cell: str, na: str | None = None) -> float:
    """``cell`` as a finite float, or NaN when it is the ``na`` token."""
    value = np.nan if cell == na else float(cell)
    if cell != na and not isfinite(value):
        raise ValueError(f"not a finite number: {cell!r}")
    return value


def _float_cells(values, mask=None) -> Iterator[str]:
    """Shortest round-trip text of each value; ``NA`` where ``mask`` is False."""
    # one Python float at a time: a whole column as a list would sit in memory;
    # ``_datasets_to_csv`` holds only the first dataset's row lines, while it
    # writes the others
    cells = map(repr, map(float, np.asarray(values, dtype=float)))
    if mask is None:
        return cells
    return (cell if seen else NA_TOKEN for cell, seen in zip(cells, mask.tolist()))


def _write_table(path, header: list[str], columns) -> None:
    """Write equal-length columns of cell text under ``header``.

    Cells go unquoted: callers pass only ``repr`` floats, ints and fixed
    tokens, which never hold a comma, a quote or a line break.
    """
    _write_lines(path, header, _row_lines(columns))


def _row_lines(columns) -> Iterator[str]:
    return (",".join(cells) + "\r\n" for cells in zip(*columns, strict=True))


def _write_lines(path, header: list[str], lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(lines)


def _read_table(path, kind: str, header_ok: Callable, parse: Callable, empty_ok=False) -> Iterator:
    """Yield ``parse(row)`` for each non-blank data row of a CSV table.

    A header ``header_ok`` rejects, a row as wide as the header that ``parse``
    rejects with ``ValueError``, any other row width, bytes that are not UTF-8
    and, unless ``empty_ok``, a table without rows raise
    :class:`FrontdoorLabError` naming the file.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = 0
        try:
            header = next(reader, None)
            if header is None or not header_ok(header):
                raise FrontdoorLabError(f"unexpected {kind} header in {path}: {header}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells under {len(header)} columns")
                yield parse(row)
                rows += 1
        except UnicodeDecodeError:
            read_utf8(path)  # raises, naming the line of the first bad byte
            raise
        except (ValueError, csv.Error) as exc:
            raise FrontdoorLabError(
                f"malformed {kind} row in {path} line {reader.line_num}: {exc}"
            ) from exc
    if not rows and not empty_ok:
        raise FrontdoorLabError(f"no {kind} rows in {path}")
