"""Rectangular observed dataset with an explicit per-cell missingness mask.

A :class:`Dataset` holds the recorded columns ``x_star``, ``z_star`` and the
always-observed ``y_star`` plus boolean masks ``m_x`` / ``m_z`` where True
means the cell is observed.  Masked cells are stored as NaN, so the underlying
value physically cannot leak to a downstream consumer; access is through
optional-returning accessors or the ``observed_*`` views.

Serialization is CSV with header ``x,z,y`` and the literal token ``NA`` for a
masked cell; the round trip is lossless including the mask.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import FrontdoorLabError

NA_TOKEN = "NA"


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

    def x_value(self, i: int) -> float | None:
        return float(self.x_star[i]) if self.m_x[i] else None

    def z_value(self, i: int) -> float | None:
        return float(self.z_star[i]) if self.m_z[i] else None

    def observed_x(self) -> np.ndarray:
        return self.x_star[self.m_x]

    def observed_z(self) -> np.ndarray:
        return self.z_star[self.m_z]

    def complete_mask(self) -> np.ndarray:
        """Rows with no missing cell."""
        return self.m_x & self.m_z

    def is_complete(self) -> bool:
        return bool(self.complete_mask().all())


def dataset_to_csv(data: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "z", "y"])
        for i in range(data.n):
            x = repr(float(data.x_star[i])) if data.m_x[i] else NA_TOKEN
            z = repr(float(data.z_star[i])) if data.m_z[i] else NA_TOKEN
            writer.writerow([x, z, repr(float(data.y_star[i]))])


def dataset_from_csv(path) -> Dataset:
    xs, zs, ys, mx, mz = [], [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["x", "z", "y"]:
            raise FrontdoorLabError(f"unexpected dataset header in {path}: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise FrontdoorLabError(
                    f"malformed dataset row in {path} line {reader.line_num}: {row}"
                )
            try:
                for value, values, mask in ((row[0], xs, mx), (row[1], zs, mz)):
                    if value == NA_TOKEN:
                        values.append(np.nan)
                        mask.append(False)
                    else:
                        values.append(float(value))
                        mask.append(True)
                ys.append(float(row[2]))
            except ValueError as exc:
                raise FrontdoorLabError(
                    f"malformed dataset row in {path} line {reader.line_num}: {exc}"
                ) from exc
    return Dataset(
        x_star=np.array(xs),
        z_star=np.array(zs),
        y_star=np.array(ys),
        m_x=np.array(mx, dtype=bool),
        m_z=np.array(mz, dtype=bool),
    )
