"""Unified, serializable sweep results.

Every study the engine executes — whatever its axes and measurements —
returns one :class:`SweepResult`: named axes, grid-shaped metric arrays,
the backend request and its per-point resolution, and enough metadata to
re-run the study.  The result round-trips losslessly through JSON
(``to_json`` / ``from_json``), exports long-format CSV, and renders
through :mod:`repro.reporting.tables` (``to_table`` / ``to_series``) so
the benchmark harness persists engine output directly instead of
hand-formatting text per sweep.

Retained simulation objects (``MeasurementPlan(retain="results")``) ride
in :attr:`SweepResult.details`; they are in-memory diagnostics and are
deliberately *not* serialized.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .._jsonio import (
    decode_json_value as _decode_json_value,
    dumps_strict,
    encode_float_array as _encode_float_array,
    encode_json_value as _encode_json_value,
    loads_strict,
)

if TYPE_CHECKING:
    from ..reporting.tables import Series, TextTable

__all__ = ["AxisResult", "PointFailure", "SweepResult", "measured_ber"]


def measured_ber(errors: np.ndarray, compared: np.ndarray) -> np.ndarray:
    """Element-wise measured BER with NaN where nothing was compared.

    The guard behind :attr:`SweepResult.ber` for every errors/compared
    grid pair.
    """
    errors = np.asarray(errors)
    compared = np.asarray(compared)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(compared > 0, errors / compared, np.nan)


# -- portable non-finite encoding --------------------------------------------
#
# ``json.dumps`` happily emits the bare tokens ``NaN`` / ``Infinity`` for
# non-finite floats (a tolerance search that never passed, an eye metric of a
# closed eye, a BER with zero compared bits).  Those tokens are not RFC 8259
# JSON — strict parsers (and every non-Python consumer) reject them — so the
# serialization layer encodes them portably and decodes them on load:
#
# * inside *float-typed metric/axis arrays* non-finite entries become the
#   strings ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"`` (unambiguous there —
#   the declared dtype says every entry is a float, and numpy parses the
#   tokens right back);
# * inside *metadata* (where strings are legitimate values) a non-finite
#   float becomes the tagged object ``{"__nonfinite__": "NaN"}``, so a
#   genuine ``"NaN"`` string survives the round-trip untouched.
#
# All ``to_json`` output is therefore strictly valid JSON
# (``allow_nan=False`` enforces it), and the round-trip stays lossless.
# The codec itself lives in :mod:`repro._jsonio` (imported above), shared
# with the resilient sweep runner's checkpoint files.


@dataclass(frozen=True)
class PointFailure:
    """One isolated grid-point failure carried by a :class:`SweepResult`.

    The engine-level view of :class:`repro.sweep.resilient.TaskFailure`:
    the same structured exception record, plus the axis coordinates of
    the grid point that failed.  Everything is deterministic — resuming
    an interrupted grid reproduces the identical records.

    Attributes
    ----------
    index:
        Flat (row-major) grid-point index.
    coordinates:
        The point's axis labels, outermost axis first.
    exception_type:
        ``type(exc).__name__`` of the worker's exception.
    message:
        ``str(exc)`` of that exception.
    traceback_tail:
        Last few lines of the formatted traceback (identical whether the
        point ran pooled or serially).
    seed_path:
        SeedSequence spawn key of the point's random stream.
    """

    index: int
    coordinates: tuple[str, ...]
    exception_type: str
    message: str
    traceback_tail: str
    seed_path: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coordinates", tuple(self.coordinates))
        object.__setattr__(self, "seed_path", tuple(self.seed_path))

    def to_dict(self) -> dict:
        """Strict-JSON-safe representation."""
        return {
            "index": self.index,
            "coordinates": list(self.coordinates),
            "exception_type": self.exception_type,
            "message": self.message,
            "traceback_tail": self.traceback_tail,
            "seed_path": list(self.seed_path),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PointFailure":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            index=int(payload["index"]),
            coordinates=tuple(payload["coordinates"]),
            exception_type=payload["exception_type"],
            message=payload["message"],
            traceback_tail=payload["traceback_tail"],
            seed_path=tuple(int(part) for part in payload["seed_path"]),
        )


@dataclass(frozen=True)
class AxisResult:
    """One resolved sweep dimension of a result grid.

    Attributes
    ----------
    name:
        The registered axis name the engine applied.
    labels:
        Per-point display / serialization labels.
    values:
        The axis points as floats, or ``None`` for structured axes
        (equalizer line-ups, receiver lanes) that have labels only.
    """

    name: str
    labels: tuple[str, ...]
    values: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.values is not None:
            values = np.asarray(self.values, dtype=float)
            if values.size != len(self.labels):
                raise ValueError(
                    f"axis {self.name!r} has {len(self.labels)} labels but "
                    f"{values.size} values"
                )
            object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.labels)

    def to_dict(self) -> dict:
        """JSON-safe representation (non-finite values sentinel-encoded)."""
        return {
            "name": self.name,
            "labels": list(self.labels),
            "values": None if self.values is None else _encode_float_array(self.values),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AxisResult":
        """Rebuild from :meth:`to_dict` output."""
        values = payload.get("values")
        return cls(
            name=payload["name"],
            labels=tuple(payload["labels"]),
            values=None if values is None else np.asarray(values, dtype=float),
        )


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Result of one engine study: axes, metric grids, backend resolution.

    Attributes
    ----------
    name:
        Study name (used as the serialization stem and table title).
    axes:
        One :class:`AxisResult` per swept dimension, outermost first; the
        metric arrays are shaped ``tuple(len(axis) for axis in axes)``.
    metrics:
        ``{metric name: grid-shaped array}`` — always ``"errors"`` and
        ``"compared"`` for BER studies, the searched axis's name (e.g.
        ``"sj_amplitude_ui_pp"``) for tolerance searches, plus eye metrics
        when the measurement plan asked for them.
    backend:
        The backend *request* of the scenario (possibly ``"auto"``).
    point_backends:
        The concrete backend resolved per grid point, in
        row-major order — the audit trail of ``backend="auto"``.
    n_bits:
        Transmitted bits per point.
    seed:
        Root seed of the deterministic runner.
    metadata:
        Extra JSON-safe scalars describing the study (fixed parameters,
        search settings).
    details:
        Retained per-point simulation results (``retain="results"``),
        row-major; ``None`` unless requested.  Not serialized.
    failures:
        Structured :class:`PointFailure` records of grid points whose
        worker raised (``failure_policy="collect"``),
        ordered by flat index; failed points carry zero errors/compared
        (BER ``NaN``) and ``NaN`` extra metrics.  Serialized.
    audit:
        Per-point :class:`repro.sweep.resilient.TaskAudit` execution
        records (mode, wall-clock duration), row-major.
        Wall-clock values are nondeterministic, so the audit trail is an
        in-memory diagnostic and — like ``details`` — not serialized.
    """

    name: str
    axes: tuple[AxisResult, ...]
    metrics: dict[str, np.ndarray]
    backend: str
    point_backends: tuple[str, ...]
    n_bits: int
    seed: int | None = 0
    metadata: dict = field(default_factory=dict)
    details: tuple | None = None
    failures: tuple[PointFailure, ...] = ()
    audit: tuple | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "point_backends", tuple(self.point_backends))
        object.__setattr__(self, "failures", tuple(self.failures))
        shape = self.shape
        grids = {}
        for name, values in self.metrics.items():
            grid = np.asarray(values)
            if grid.shape != shape:
                grid = grid.reshape(shape)
            grids[name] = grid
        object.__setattr__(self, "metrics", grids)
        if len(self.point_backends) != self.n_points:
            raise ValueError(
                f"{self.n_points} grid points but "
                f"{len(self.point_backends)} per-point backends"
            )

    # -- shape ----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        """Grid shape: one dimension per axis."""
        return tuple(len(axis) for axis in self.axes)

    @property
    def n_points(self) -> int:
        """Total grid-point count."""
        return int(np.prod(self.shape)) if self.axes else 1

    def metric(self, name: str) -> np.ndarray:
        """One metric grid by name (with a helpful error)."""
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"result {self.name!r} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}"
            ) from None

    @property
    def ber(self) -> np.ndarray:
        """Measured BER per grid point (NaN where nothing was compared)."""
        return measured_ber(self.metric("errors"), self.metric("compared"))

    # -- JSON -----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe representation (lossless for the metric arrays).

        Non-finite floats are encoded portably so the serialization is
        strict RFC 8259 JSON: metric grids and axis values use the
        sentinel strings ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"``
        (unambiguous inside float-typed arrays), metadata uses tagged
        ``{"__nonfinite__": ...}`` objects (so genuine metadata strings
        like ``"NaN"`` survive).  :meth:`from_dict` decodes both back to
        floats.
        """
        return {
            "name": self.name,
            "axes": [axis.to_dict() for axis in self.axes],
            "metrics": {
                name: {
                    "dtype": str(grid.dtype),
                    "values": (
                        _encode_float_array(grid)
                        if np.issubdtype(grid.dtype, np.floating)
                        else grid.tolist()
                    ),
                }
                for name, grid in self.metrics.items()
            },
            "backend": self.backend,
            "point_backends": list(self.point_backends),
            "n_bits": self.n_bits,
            "seed": self.seed,
            "metadata": _encode_json_value(dict(self.metadata)),
            "failures": [failure.to_dict() for failure in self.failures],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResult":
        """Rebuild from :meth:`to_dict` output (dtypes restored)."""
        metrics = {
            name: np.asarray(entry["values"], dtype=np.dtype(entry["dtype"]))
            for name, entry in payload["metrics"].items()
        }
        return cls(
            name=payload["name"],
            axes=tuple(AxisResult.from_dict(axis) for axis in payload["axes"]),
            metrics=metrics,
            backend=payload["backend"],
            point_backends=tuple(payload["point_backends"]),
            n_bits=int(payload["n_bits"]),
            seed=payload["seed"],
            metadata=_decode_json_value(dict(payload.get("metadata", {}))),
            failures=tuple(PointFailure.from_dict(entry) for entry in payload.get("failures", ())),
        )

    def to_json(self, indent: int | None = 1) -> str:
        """Serialize to strict RFC 8259 JSON text (floats survive exactly via repr).

        Non-finite values travel as sentinel strings (see :meth:`to_dict`);
        ``allow_nan=False`` guarantees no bare ``NaN`` / ``Infinity`` token
        can ever reach a non-Python consumer.
        """
        return dumps_strict(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Deserialize :meth:`to_json` output."""
        return cls.from_dict(loads_strict(text))

    def save(self, path: str | Path) -> Path:
        """Write the JSON serialization to *path* and return it."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SweepResult":
        """Read a result previously written with :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    def equals(self, other: "SweepResult") -> bool:
        """Exact equality, metric arrays compared element-wise."""
        if not isinstance(other, SweepResult):
            return False
        return self.to_dict() == other.to_dict()

    # -- tabular / reporting views -------------------------------------------

    def _point_rows(self) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
        """(axis labels, grid index) per point, row-major."""
        rows = []
        for flat in range(self.n_points):
            index = np.unravel_index(flat, self.shape) if self.axes else ()
            labels = tuple(axis.labels[position] for axis, position in zip(self.axes, index))
            rows.append((labels, index))
        return rows

    def to_csv(self) -> str:
        """Long-format CSV: one row per grid point, one column per metric."""
        metric_names = sorted(self.metrics)
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([axis.name for axis in self.axes] + metric_names + ["backend"])
        for position, (labels, index) in enumerate(self._point_rows()):
            cells = list(labels)
            for name in metric_names:
                value = self.metrics[name][index]
                cells.append(
                    f"{value:.9g}" if np.issubdtype(type(value), np.floating) else str(value)
                )
            cells.append(self.point_backends[position])
            writer.writerow(cells)
        return out.getvalue()

    def to_table(self, title: str | None = None) -> TextTable:
        """Long-format :class:`~repro.reporting.tables.TextTable` view."""
        from ..reporting.tables import TextTable

        metric_names = sorted(self.metrics)
        table = TextTable(
            headers=[axis.name for axis in self.axes] + metric_names,
            title=self.name if title is None else title,
        )
        for labels, index in self._point_rows():
            table.add_row(*labels, *(f"{self.metrics[name][index]:g}" for name in metric_names))
        return table

    def to_series(self, metric: str = "errors", name: str | None = None) -> Series:
        """1-D :class:`~repro.reporting.tables.Series` of one metric.

        Requires exactly one axis with more than one point (singleton axes
        are squeezed away) and numeric axis values.
        """
        grid = self.metric(metric)
        if not self.axes:
            raise ValueError(f"result {self.name!r} has no axes; a series needs one")
        long_axes = [axis for axis in self.axes if len(axis) > 1]
        axis = long_axes[0] if long_axes else self.axes[-1]
        if len(long_axes) > 1:
            raise ValueError(
                f"result {self.name!r} has {len(long_axes)} non-singleton "
                "axes; a series needs one"
            )
        if axis.values is None:
            raise ValueError(f"axis {axis.name!r} has no numeric values")
        from ..reporting.tables import Series

        series = Series(name or self.name, axis.name, metric)
        series.extend(axis.values, np.ravel(grid).astype(float))
        return series
