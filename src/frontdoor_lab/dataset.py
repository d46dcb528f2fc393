"""Rectangular observed dataset with an explicit per-cell missingness mask.

A :class:`Dataset` holds the recorded columns ``x_star``, ``z_star`` and the
always-observed ``y_star`` plus boolean masks ``m_x`` / ``m_z`` where True
means the cell is observed.  Masked cells are stored as NaN, so the underlying
value physically cannot leak to a downstream consumer: a consumer selects the
observed cells of a column with its mask.

Serialization is CSV with header ``x,z,y`` and the literal token ``NA`` for a
masked cell; the round trip is lossless including the mask.  Every stage
artifact uses this table format (``_write_table`` / ``_read_table``): cells
are the shortest round-trip float text, lines end in CRLF, text is UTF-8.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from math import isfinite
from typing import Callable, Iterator

import numpy as np

from .errors import FrontdoorLabError, read_utf8

NA_TOKEN = "NA"
DATASET_HEADER = ["x", "z", "y"]


@dataclass(frozen=True)
class Dataset:
    x_star: np.ndarray
    z_star: np.ndarray
    y_star: np.ndarray
    m_x: np.ndarray
    m_z: np.ndarray

    def __post_init__(self):
        n = len(self.y_star)
        arrays = {}
        # copies, never views: the stored arrays are frozen and must not
        # alias caller-owned data
        for name in ("x_star", "z_star", "y_star"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or len(arr) != n:
                raise FrontdoorLabError(f"column {name} must be 1-d of length {n}")
            arrays[name] = arr
        for name in ("m_x", "m_z"):
            mask = np.array(getattr(self, name), dtype=bool)
            if mask.shape != (n,):
                raise FrontdoorLabError(f"mask {name} must be 1-d of length {n}")
            arrays[name] = mask
        if not np.all(np.isfinite(arrays["y_star"])):
            raise FrontdoorLabError("y column must be fully observed and finite")
        for col, mask in (("x_star", "m_x"), ("z_star", "m_z")):
            values = arrays[col]
            if not np.all(np.isfinite(values[arrays[mask]])):
                raise FrontdoorLabError(f"observed cells of {col} must be finite")
            # overwrite masked cells with the NaN sentinel
            arrays[col] = np.where(arrays[mask], values, np.nan)
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.y_star)

    def complete_mask(self) -> np.ndarray:
        """Rows with no missing cell."""
        return self.m_x & self.m_z

    def is_complete(self) -> bool:
        return bool(self.complete_mask().all())


def dataset_to_csv(data: Dataset, path) -> None:
    x, z = _float_cells(data.x_star, data.m_x), _float_cells(data.z_star, data.m_z)
    _write_table(path, DATASET_HEADER, [x, z, _float_cells(data.y_star)])


def dataset_from_csv(path) -> Dataset:
    rows = _read_table(path, "dataset", lambda h: h == DATASET_HEADER, _dataset_row)
    x, z, y = np.fromiter(chain.from_iterable(rows), dtype=float).reshape(-1, 3).T
    # only the NA token parses to NaN, so the masks follow from the values
    return Dataset(x_star=x, z_star=z, y_star=y, m_x=~np.isnan(x), m_z=~np.isnan(z))


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
    # one Python float at a time: a whole column as a list would sit in memory
    cells = map(repr, map(float, np.asarray(values, dtype=float)))
    if mask is None:
        return cells
    return (cell if seen else NA_TOKEN for cell, seen in zip(cells, mask.tolist()))


def _write_table(path, header: list[str], columns) -> None:
    """Write equal-length columns of cell text under ``header``.

    Cells go unquoted: callers pass only ``repr`` floats, ints, fixed tokens
    and enum values, which never hold a comma, a quote or a line break.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join(cells) + "\r\n" for cells in zip(*columns, strict=True))


def _read_table(path, kind: str, header_ok: Callable, parse: Callable) -> Iterator:
    """Yield ``parse(row)`` for each non-blank data row of a CSV table.

    A header ``header_ok`` rejects, a row as wide as the header that ``parse``
    rejects with ``ValueError``, any other row width, bytes that are not UTF-8
    and a table without rows raise :class:`FrontdoorLabError` naming the file.
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
    if not rows:
        raise FrontdoorLabError(f"no {kind} rows in {path}")
