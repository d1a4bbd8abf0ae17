import math
import pathlib

import numpy as np
import pytest

from prescurv import inequality_lab, reporting
from prescurv.inequality_lab import SampleConfig, run_campaign, write_campaign_csv
from prescurv.reporting import format_rows, write_csv


def per_cell_row(row, sep=","):
    """The per-cell formatter the CSV writers used before their templates."""
    cells = []
    for v in row:
        if isinstance(v, bool):
            cells.append(str(int(v)))
        elif isinstance(v, float):
            cells.append(f"{v:.17g}")
        else:
            cells.append(str(v))
    return sep.join(cells) + "\n"


def per_cell_table(columns, sep=","):
    rows = zip(*(c.ravel().tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return "".join(per_cell_row(r, sep) for r in rows)


def test_write_csv_matches_per_cell_formatter(tmp_path):
    # list columns holding numpy scalars: np.float64 is a float, so 17
    # digits; np.bool_ and np.int64 are not bool or float, so str()
    columns = [
        [True, False, np.bool_(True)],
        [np.float64(0.1), np.float64(-math.inf), np.float64(-0.0)],
        [np.int64(-3), np.int64(0), 12345678901234567],
        [math.nan, -0.0, math.inf],
        [1.0 / 3.0, 1e-300, 1e22],
        ["", "gll", "krylov"],
        [7, 0, -1],
    ]
    path = tmp_path / "mixed.csv"
    write_csv(path, ["a", "b"], [columns])
    assert path.read_text() == "a,b\n" + per_cell_table(columns)
    assert [line.split(",")[:3] for line in format_rows(columns)] == [
        ["1", "0.10000000000000001", "-3"], ["0", "-inf", "0"], ["True", "-0", "12345678901234567"]]


def test_mixed_column_is_formatted_cell_by_cell():
    # the convergence study's difference column opens with "n/a"
    columns = [[8, 16, 32], ["n/a", 0.015, 0.0037], [True, 1, 2.0]]
    assert list(format_rows(columns)) == ["8,n/a,1\n", "16,0.014999999999999999,1\n",
                                          "32,0.0037000000000000002,2\n"]
    assert "".join(format_rows(columns)) == per_cell_table(columns)


def test_array_columns_are_read_flat_in_their_types():
    columns = [np.array([[0.5, -0.0], [math.nan, 2.0]]), np.array([[True, False], [False, True]]),
               np.arange(4).reshape(2, 2)]
    lines = list(format_rows(columns, sep=" "))
    assert lines == ["0.5 1 0\n", "-0 0 1\n", "nan 0 2\n", "2 1 3\n"]
    assert "".join(lines) == per_cell_table(columns, sep=" ")


def test_empty_tables_write_the_header_alone(tmp_path):
    assert list(format_rows([])) == []
    assert list(format_rows([[], np.zeros(0)])) == []
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [[[], []], []])
    assert path.read_text() == "a,b\n"


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError):
        list(format_rows([[1, 2], np.zeros(1)]))


def test_write_csv_streams_tables_in_turn(tmp_path):
    tables = [[["x", "y"], np.array([0.1, 2.0])], [[1], [np.float64(1e-5)]]]
    path = tmp_path / "two.csv"
    write_csv(path, ["a", "b"], iter(tables))
    assert path.read_text() == "a,b\n" + "".join(per_cell_table(t) for t in tables)


def test_campaign_csv_writes_through_the_module_writer(tmp_path, monkeypatch):
    # the traced benchmark times CSV writing by rebinding write_csv in every
    # module that imported it, the lab included
    calls = []

    def spy(*args):
        calls.append(args[0])
        return reporting.write_csv(*args)

    monkeypatch.setattr(inequality_lab, "write_csv", spy)
    cfg = SampleConfig(n=3, k=2, alpha_list=(1.0,), sample_count=4, seed=3)
    path = tmp_path / "campaign.csv"
    write_campaign_csv([run_campaign(cfg)], cfg, path)
    assert calls == [path]
    assert path.read_text().count("\n") == 1 + 3 * 4


def test_17_digit_format_lives_in_reporting_alone():
    src = pathlib.Path(reporting.__file__).parent
    holders = sorted(p.name for p in src.glob("*.py") if "17g" in p.read_text())
    assert holders == ["reporting.py"]
