import math

import numpy as np

from prescurv.reporting import write_csv


def per_cell_row(row):
    """The per-cell formatter write_csv used before its row templates."""
    cells = []
    for v in row:
        if isinstance(v, bool):
            cells.append(str(int(v)))
        elif isinstance(v, float):
            cells.append(f"{v:.17g}")
        else:
            cells.append(str(v))
    return ",".join(cells) + "\n"


def test_write_csv_matches_per_cell_formatter(tmp_path):
    rows = [
        (True, False, 7, np.int64(-3), np.float64(0.1), math.nan, -0.0, "", "gll",
         1.0 / 3.0, math.inf, np.float64(-math.inf), 1e-300, np.bool_(True), 2.5),
        ("krylov", 0, 1e22, np.float64(-0.0), np.int64(0), "", False, 12345678901234567),
    ]
    rows.append(rows[0])           # a repeated type tuple reuses its template
    path = tmp_path / "mixed.csv"
    write_csv(path, ["a", "b"], rows)
    assert path.read_text() == "a,b\n" + "".join(per_cell_row(r) for r in rows)
