"""Run artifacts: JSON reports, CSV tables, and the run manifest.

Payload files (CSV/OBJ/JSON) never contain timestamps, so identical config
and seed reproduce them byte for byte; wall-clock data lives only in the
manifest.  CSV and OBJ floats are printed with 17 significant digits; JSON
floats use Python's shortest round-trip representation, which is equally
bit-faithful on reload.
"""

import functools
import hashlib
import json
import os
from datetime import datetime, timezone

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


@functools.lru_cache(maxsize=256)
def _cells_template(types):
    """'%' template of one CSV row from its cell types: bool as 0/1, floats
    (numpy's included) at 17 significant digits, anything else by str()."""
    return ",".join("%d" if issubclass(t, bool) else "%.17g" if issubclass(t, float)
                    else "%s" for t in types)


def write_csv(path, header, rows):
    """Rows of mixed scalars; floats formatted at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_cells_template(tuple(map(type, row))) % tuple(row) + "\n"
                      for row in rows)


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
