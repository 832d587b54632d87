"""Artifacts on disk: the one atomic writer, and the one CSV row formatter.

Every artifact, CSV or JSON, reaches disk through ``_atomic_write``: UTF-8
text with LF line ends in a fresh, exclusively created temporary file,
renamed over the target once complete.  A CSV artifact is a header line,
then one line per row.  A column is either an array of numbers, printed per
row with '%.12g' (12 significant digits; NaN of either sign prints as
'nan'), or ``Cells``: a table of strings and a per-row index into it.  Axis
values, tags, statuses and repeated numbers go through ``Cells``, so each is
formatted once per artifact, not once per row.  Rows are formatted and
written in blocks of ``MODE_BLOCK_ELEMENTS`` cells (one row at least), so
neither a list of row tuples nor a whole-artifact string is built.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Sequence

import numpy as np

from . import model
from .model import CRITICALITY_TAGS, Criticality

# The number format of every artifact: 12 significant digits.
_NUMBER_FORMAT = "%.12g"

# Tag and status text of each code of classify_criticality_arrays.
TAGS = tuple(tag.value for tag in CRITICALITY_TAGS)
STATUS = tuple("ok" if tag is Criticality.NON_CRITICAL else "critical" for tag in CRITICALITY_TAGS)


class Cells(NamedTuple):
    """A column whose row r reads ``table[index[r]]``."""

    table: Sequence[str]
    index: np.ndarray


def _numbers(values) -> list[str]:
    """Each value in ``_NUMBER_FORMAT``."""
    return [_NUMBER_FORMAT % x for x in np.asarray(values, dtype=float).tolist()]


def grid_cells(lam_values, gamma_values) -> tuple[Cells, Cells]:
    """The lambda and gamma columns of a row-major grid (lambda outer), each axis value
    formatted once, by position, so repeated and signed-zero values print as given."""
    n_lam, n_gamma = len(lam_values), len(gamma_values)
    return (
        Cells(_numbers(lam_values), np.repeat(np.arange(n_lam), n_gamma)),
        Cells(_numbers(gamma_values), np.tile(np.arange(n_gamma), n_lam)),
    )


def distinct_cells(values) -> Cells:
    """A number column with each distinct value formatted once.

    Values are told apart by their bits, so -0.0 and 0.0 each print as
    themselves.
    """
    bits, index = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    return Cells(_numbers(bits.view(np.float64)), index)


def _atomic_write(path: str, write) -> None:
    """Create ``path`` atomically: ``write(fh)`` fills a fresh temporary file.

    The temporary file takes a new random name in the target directory and
    is created exclusively, so concurrent runs never share it, and opened
    once, as UTF-8 text with LF line ends.  It is created with mode 0o666
    and the process umask alone trims that, so the artifact gets the usual
    mode without the umask ever being changed.  It is removed if anything
    fails, so a failed run leaves neither a partial artifact nor a stray file.
    An ``OSError`` that names the temporary file is raised again, of the same
    type and errno, naming ``path`` instead.
    """
    stem = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.")
    tmp = None
    try:
        for _ in range(100):
            tmp = f"{stem}{os.urandom(6).hex()}.tmp"
            try:
                fh = open(tmp, "x", encoding="utf-8", newline="\n")
                break
            except FileExistsError:
                continue
        else:
            raise FileExistsError(f"no free temporary name beside {path}")
        try:
            with fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # Name the artifact, not its random temporary file, so reruns print alike.
        raise type(exc)(exc.errno, exc.strerror, path) from exc


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and the rows of equal-length ``columns`` to ``path``, atomically.

    Each block of rows becomes one %-format: a template of the block's
    cells, with ``_NUMBER_FORMAT`` where a number goes, applied to the block's numbers.
    """
    last = len(columns) - 1
    pieces, numeric = [], []
    for k, col in enumerate(columns):
        end = "\n" if k == last else ","
        if isinstance(col, Cells):
            table = np.array([s.replace("%", "%%") + end for s in col.table], dtype=object)
            pieces.append((table, col.index))
        else:
            pieces.append((_NUMBER_FORMAT + end, None))
            numeric.append(np.asarray(col, dtype=float))
    first = columns[0]
    n_rows = len(first.index if isinstance(first, Cells) else first)
    step = max(1, model.MODE_BLOCK_ELEMENTS // len(columns))

    def write(fh):
        fh.write(header + "\n")
        for start in range(0, n_rows, step):
            fh.write(_format_rows(pieces, numeric, slice(start, min(start + step, n_rows))))

    _atomic_write(path, write)


def _format_rows(pieces, numeric, rows: slice) -> str:
    """The text of ``rows`` from ``write_csv``'s prepared columns."""
    template = np.empty((rows.stop - rows.start, len(pieces)), dtype=object)
    for k, (cells, index) in enumerate(pieces):
        template[:, k] = cells if index is None else cells[index[rows]]
    values = np.column_stack([col[rows] for col in numeric]).ravel().tolist() if numeric else []
    return "".join(template.ravel().tolist()) % tuple(values)
