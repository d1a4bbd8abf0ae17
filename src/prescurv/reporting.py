"""Run artifacts: JSON reports, CSV tables, and the run manifest.

Payload files (CSV/OBJ/JSON) never contain timestamps, so identical config
and seed reproduce them byte for byte; wall-clock data lives only in the
manifest.  Every CSV and OBJ row is formatted here (format_rows), floats
at 17 significant digits, by one '%' per block of up to _BLOCK rows; the
writers hand each block to the file whole.  JSON floats use Python's
shortest round-trip representation, which is equally bit-faithful on
reload.
"""

import hashlib
import json
import os
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from . import __version__


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_BLOCK = 256       # rows of a table formatted, and held as Python objects, at once


def _code(t):
    """'%' code of a cell of type t: 0/1 for bool, 17 significant digits for float, else str()."""
    return "%d" if issubclass(t, bool) else "%.17g" if issubclass(t, float) else "%s"


def format_rows(columns, sep=","):
    """The rows, newline-ended, of a table of equal-length columns (numpy
    arrays, read flat, or sequences of scalars), lazily, as strings of up
    to _BLOCK whole rows; ValueError on a short column, raised by the call
    itself, before any row.  A block is one '%' of the table's row template
    repeated over its rows, on the block's cells laid out row-major; a
    column of cells of several codes goes cell by cell.  Only one block's
    cells are ever Python objects, however long the table."""
    cols, codes = [], []
    for col in columns:
        if isinstance(col, np.ndarray):     # an array's cells share one type
            col = col.reshape(-1)           # read flat: a view where the strides allow
            if col.dtype == bool:
                col = col.view(np.uint8)    # the same 0/1, from a cheaper %d of an int
            kinds = {_code(type(v)) for v in col[:1].tolist()}
        else:
            kinds = {_code(t) for t in set(map(type, col))}
        cols.append(col)
        codes.append(kinds.pop() if len(kinds) == 1 else None)     # None: cell by cell
    if len({len(col) for col in cols}) > 1:
        raise ValueError(f"columns of unequal length {[len(col) for col in cols]}")
    width, count = len(cols), len(cols[0]) if cols else 0
    template = sep.join(code or "%s" for code in codes) + "\n"

    def block(col, code, lo):
        cells = col[lo:lo + _BLOCK]
        cells = cells.tolist() if isinstance(cells, np.ndarray) else cells
        return cells if code else [_code(type(v)) % v for v in cells]

    def blocks():
        for lo in range(0, count, _BLOCK):
            rows = min(_BLOCK, count - lo)
            cells = [None] * (rows * width)
            for j, (col, code) in enumerate(zip(cols, codes)):
                cells[j::width] = block(col, code, lo)
            yield template * rows % tuple(cells)

    return blocks()


def write_csv(path, header, tables):
    """The header, then the rows of each table (see format_rows) in turn,
    each block of rows written whole."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        # a table is let go once written, not held while the next is built
        fh.writelines(chain.from_iterable(map(format_rows, tables)))


def write_manifest(out_dir, config_echo, input_hashes, started):
    """List every file in the output directory with its checksum.

    Built from the directory contents after the run, so the completeness
    invariant holds by construction.
    """
    finished = datetime.now(timezone.utc).isoformat()
    files = []
    for name in sorted(os.listdir(out_dir)):
        full = os.path.join(out_dir, name)
        if name == "manifest.json" or not os.path.isfile(full):
            continue
        files.append({"name": name, "sha256": sha256_file(full),
                      "bytes": os.path.getsize(full)})
    manifest = {
        "tool_version": __version__,
        "config_echo": config_echo,
        "input_hashes": input_hashes,
        "started_utc": started,
        "finished_utc": finished,
        "files": files,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def utc_now():
    return datetime.now(timezone.utc).isoformat()
