"""Run artifacts: JSON reports, CSV tables, and the run manifest.

Payload files (CSV/OBJ/JSON) never contain timestamps, so identical config
and seed reproduce them byte for byte; wall-clock data lives only in the
manifest.  Every CSV and OBJ line is formatted here (format_rows), floats
at 17 significant digits; JSON floats use Python's shortest round-trip
representation, which is equally bit-faithful on reload.
"""

import hashlib
import json
import os
from datetime import datetime, timezone

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


def _code(t):
    """'%' code of a cell of type t: 0/1 for bool, 17 significant digits for float, else str()."""
    return "%d" if issubclass(t, bool) else "%.17g" if issubclass(t, float) else "%s"


def format_rows(columns, sep=","):
    """The lines, newline-ended, of a table of equal-length columns (numpy
    arrays, read flat, or sequences of scalars), lazily; ValueError on a
    short column.  One '%' template serves the table; a column of cells of
    several codes goes cell by cell."""
    cells, codes = [], []
    for col in columns:
        flat = isinstance(col, np.ndarray)      # an array's cells share one type
        col = col.ravel().tolist() if flat else col
        kinds = {_code(t) for t in set(map(type, col[:1] if flat else col))}
        if len(kinds) != 1:
            col, kinds = [_code(type(v)) % v for v in col], {"%s"}
        cells.append(col)
        codes.append(kinds.pop())
    return map((sep.join(codes) + "\n").__mod__, zip(*cells, strict=True))


def write_csv(path, header, tables):
    """The header, then the rows of each table (see format_rows) in turn."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for columns in tables:
            fh.writelines(format_rows(columns))


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
