import io
import math
import pathlib
import tracemalloc
import weakref
from collections import deque

import numpy as np
import pytest

from prescurv import inequality_lab, reporting
from prescurv.inequality_lab import SampleConfig, run_campaign, write_campaign_csv
from prescurv.reporting import _BLOCK, format_rows, write_csv


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


def rows_of(columns, sep=","):
    """format_rows' output as its rows, newline-ended."""
    return "".join(format_rows(columns, sep)).splitlines(keepends=True)


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
    assert [line.split(",")[:3] for line in rows_of(columns)] == [
        ["1", "0.10000000000000001", "-3"], ["0", "-inf", "0"], ["True", "-0", "12345678901234567"]]


def test_mixed_column_is_formatted_cell_by_cell():
    # the convergence study's difference column opens with "n/a"
    columns = [[8, 16, 32], ["n/a", 0.015, 0.0037], [True, 1, 2.0]]
    assert rows_of(columns) == ["8,n/a,1\n", "16,0.014999999999999999,1\n",
                                "32,0.0037000000000000002,2\n"]
    assert "".join(format_rows(columns)) == per_cell_table(columns)


def test_array_columns_are_read_flat_in_their_types():
    columns = [np.array([[0.5, -0.0], [math.nan, 2.0]]), np.array([[True, False], [False, True]]),
               np.arange(4).reshape(2, 2)]
    lines = rows_of(columns, sep=" ")
    assert lines == ["0.5 1 0\n", "-0 0 1\n", "nan 0 2\n", "2 1 3\n"]
    assert "".join(lines) == per_cell_table(columns, sep=" ")


def test_empty_tables_write_the_header_alone(tmp_path):
    assert list(format_rows([])) == []
    assert list(format_rows([[], np.zeros(0)])) == []
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [[[], []], []])
    assert path.read_text() == "a,b\n"


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError):
        list(format_rows([[1, 2], np.zeros(1)]))
    # the lengths are checked by the call, so no part of the table is written
    columns = [np.arange(2 * _BLOCK), np.zeros(2 * _BLOCK - 1)]
    with pytest.raises(ValueError, match="unequal length"):
        format_rows(columns)
    path = tmp_path / "short.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [[[1], [2]], columns])
    assert path.read_text() == "a,b\n1,2\n"


@pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_blocks_of_rows_match_the_per_cell_formatter(rows):
    # the mixed column's one string sits in the second block when there is one
    rng = np.random.default_rng(rows)
    mixed = rng.standard_normal(rows).tolist()
    mixed[min(_BLOCK + 1, rows - 1)] = "n/a"
    columns = [np.arange(rows), rng.standard_normal((rows, 1)) * 1e3, rng.random(rows) < 0.5,
               [f"r{i}" for i in range(rows)], mixed, rng.standard_normal(2 * rows)[::2]]
    lines = rows_of(columns)
    assert len(lines) == rows
    assert "".join(lines) == per_cell_table(columns)


@pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 3])
def test_each_block_is_whole_rows(rows):
    # every string is whole newline-ended rows, _BLOCK of them but the last
    columns = [np.arange(rows), np.linspace(-1.0, 1.0, rows), [f"r{i}" for i in range(rows)]]
    blocks = list(format_rows(columns))
    assert [b.count("\n") for b in blocks] == [_BLOCK] * (rows // _BLOCK) + (
        [rows % _BLOCK] if rows % _BLOCK else [])
    assert all(b.endswith("\n") and b.splitlines(keepends=True) == rows_of(
        [c[lo:lo + _BLOCK] for c in columns]) for b, lo in zip(blocks, range(0, rows, _BLOCK)))
    assert "".join(blocks) == per_cell_table(columns)


def test_bool_array_columns_write_0_and_1(tmp_path):
    # contiguous, strided and two-dimensional numpy bool columns
    flags = np.array([True, False, False, True, True, False])
    columns = [flags, flags[::-1], flags.reshape(3, 2)[:, ::-1], np.arange(6)]
    assert rows_of(columns) == ["1,0,0,0\n", "0,1,1,1\n", "0,1,1,2\n",
                                "1,0,0,3\n", "1,0,0,4\n", "0,1,1,5\n"]
    path = tmp_path / "flags.csv"
    write_csv(path, ["p", "q", "r", "i"], [columns])
    assert path.read_text() == "p,q,r,i\n" + per_cell_table(columns)


def test_write_csv_writes_each_block_whole(tmp_path, monkeypatch):
    # one write for the header and one per block: blocks are never split
    # into lines on their way to the file
    writes = []

    class Recorder(io.StringIO):
        def write(self, s):
            writes.append(s)
            return super().write(s)

    monkeypatch.setattr(reporting, "open", lambda path, mode: Recorder(), raising=False)
    columns = [np.arange(2 * _BLOCK + 3), np.ones(2 * _BLOCK + 3)]
    write_csv(tmp_path / "blocks.csv", ["a", "b"], [columns])
    assert writes == ["a,b\n", *format_rows(columns)]
    assert len(writes) == 4


def test_formatting_holds_one_block_of_cells():
    # 10^5 rows of 3 float columns are 3e5 Python floats, about 10 MB, if
    # made at once; a block of rows takes some kilobytes
    columns = [np.random.default_rng(i).standard_normal(100_000) for i in range(3)]
    tracemalloc.start()
    try:
        deque(format_rows(columns), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_write_csv_streams_tables_in_turn(tmp_path):
    tables = [[["x", "y"], np.array([0.1, 2.0])], [[1], [np.float64(1e-5)]]]
    path = tmp_path / "two.csv"
    write_csv(path, ["a", "b"], iter(tables))
    assert path.read_text() == "a,b\n" + "".join(per_cell_table(t) for t in tables)


def test_write_csv_lets_each_table_go_before_the_next(tmp_path):
    # a campaign's tables are built one by one, so two never coexist
    written = []

    def tables():
        for i in range(3):
            assert all(ref() is None for ref in written)
            column = np.full(2, float(i))
            written.append(weakref.ref(column))
            yield [column]
            del column

    path = tmp_path / "three.csv"
    write_csv(path, ["a"], tables())
    assert path.read_text() == "a\n0\n0\n1\n1\n2\n2\n"


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
