"""CSV emission and parsing for trajectory diagnostics.

Values are written with 17 significant digits so a parse of the emitted file
reproduces every float bit for bit; runs with the same configuration and
seeds therefore produce byte-identical files: the bytes ``np.savetxt`` writes
with that format. Rows are stacked from the columns and formatted
:data:`_BLOCK_ROWS` at a time, one ``%`` per block, so only one block's
values and text are held at a time.
"""

from __future__ import annotations

import contextlib
import io
import os
import warnings
from typing import Mapping

import numpy as np

from .errors import DimensionError, ValidationError
from .integrate import Trajectory

_FORMAT = "%.17g"
_BLOCK_ROWS = 64

# the columns every series file starts with, taken from the trajectory
BASE_COLUMNS = ("t", "drift", "diam_S")


def emit_series(traj: Trajectory, diag: Mapping[str, np.ndarray], path) -> None:
    """Write a trajectory and aligned diagnostic columns as CSV.

    Base columns are t, drift, diam_S; the ``diag`` mapping appends extra
    columns in its iteration order. Rows are in time order. Nothing is
    written unless all columns validate, finite as :func:`read_series`
    asks, and the rows go to a temporary file that replaces ``path`` once
    complete (:func:`_replacing`), so there are no partial files.
    """
    if len(traj) == 0:
        raise ValidationError("refusing to emit an empty trajectory")
    columns: dict[str, np.ndarray] = dict(
        zip(BASE_COLUMNS, (traj.times, traj.drift, traj.diameters))
    )
    for name, values in diag.items():
        if name in columns:
            raise ValidationError(f"duplicate column name {name!r}")
        values = np.asarray(values, dtype=float)
        if values.shape != traj.times.shape:
            raise DimensionError(
                f"column {name!r} has length {values.shape}, expected {traj.times.shape}"
            )
        columns[name] = values
    for name, values in columns.items():
        if not np.isfinite(values).all():
            k = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValidationError(f"column {name!r} holds {values[k]} at data row {k + 1}")

    row = ",".join([_FORMAT] * len(columns)) + "\n"
    with _replacing(path) as handle:
        handle.write(",".join(columns) + "\n")
        # each block's rows are stacked from the columns, so no table of
        # the whole run is formed
        for start in range(0, len(traj), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            block = np.column_stack([values[rows] for values in columns.values()])
            handle.write(row * len(block) % tuple(block.ravel().tolist()))


@contextlib.contextmanager
def _replacing(path):
    """A text handle on ``<path>.tmp``, which replaces ``path`` when the
    block ends. If anything fails first, the temporary file is removed and
    ``path`` is left as it was, so a failed write leaves no partial file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        # a temporary file that was never created needs no removal
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_series(path) -> dict[str, np.ndarray]:
    """Parse a CSV written by :func:`emit_series` back into named columns.

    Raises :class:`ValidationError` on a file that is not text, names a
    column twice, does not parse as a rectangular table of numbers, has no
    data rows or does not end in a newline (a truncated file, say) and on
    any non-finite value, naming its column and data row.

    The file is opened and read once; both the parse and the newline test
    see those bytes, decoded as opening the file as text would.
    """
    with open(path, "rb") as raw:
        content = raw.read()
    with io.TextIOWrapper(io.BytesIO(content)) as handle:
        try:
            # bytes that do not decode raise UnicodeDecodeError, a ValueError
            header = handle.readline().strip()
            with warnings.catch_warnings():
                # a header with no rows is rejected below, by name
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed series file: {exc}") from exc
    if not header:
        raise ValidationError(f"{path}: empty series file")
    names = header.split(",")
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValidationError(f"{path}: column {name!r} is named twice")
    if not len(data):
        raise ValidationError(f"{path}: no data rows")
    # every row emit_series writes ends in a newline; a file cut inside the
    # last field of a row would otherwise parse as a shorter valid one
    if not content.endswith(b"\n"):
        raise ValidationError(f"{path}: truncated series file: no newline after the last row")
    if data.shape[1] != len(names):
        raise DimensionError(
            f"{path}: {data.shape[1]} columns of data under {len(names)} headers"
        )
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValidationError(
            f"{path}: non-finite value {data[row, col]} in column {names[col]!r}"
            f" at data row {row + 1}"
        )
    return {name: data[:, k] for k, name in enumerate(names)}
