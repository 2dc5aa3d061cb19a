import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phasekit as pk
from phasekit import series

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def test_series_shape_and_names():
    ts = pk.TimeSeries([[1.0, 2.0], [3.0, 4.0]], dt=0.5, names=("a", "b"))
    assert ts.n_samples == 2
    assert ts.n_channels == 2
    assert ts.names == ("a", "b")
    assert ts.dt == 0.5
    np.testing.assert_allclose(ts.times(), [0.0, 0.5])


def test_series_1d_promoted_to_column():
    ts = pk.TimeSeries([1.0, 2.0, 3.0])
    assert ts.values.shape == (3, 1)
    assert ts.names == ("ch0",)


def test_series_rejects_nan():
    with pytest.raises(pk.FormatError):
        pk.TimeSeries([1.0, np.nan, 3.0])


def test_series_rejects_single_sample():
    with pytest.raises(pk.InsufficientDataError):
        pk.TimeSeries([1.0])


@pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
def test_series_rejects_bad_step(dt):
    with pytest.raises(pk.FormatError, match="dt must be positive and finite"):
        pk.TimeSeries([1.0, 2.0, 3.0], dt=dt)


def test_channel_view():
    ts = pk.TimeSeries([[1.0, 2.0], [3.0, 4.0]], names=("a", "b"))
    ch = ts.channel(1)
    assert ch.n_channels == 1
    assert ch.names == ("b",)
    np.testing.assert_array_equal(ch.values[:, 0], [2.0, 4.0])


def test_load_csv_plain(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1\n2\n3\n")
    ts = pk.load_csv(p)
    assert ts.n_samples == 3
    assert ts.n_channels == 1
    assert ts.dt == 1.0


def test_load_csv_header_and_scientific(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1e-3,2\n-2.5E2,4\n")
    ts = pk.load_csv(p)
    assert ts.names == ("x", "y")
    np.testing.assert_allclose(ts.values[:, 0], [1e-3, -250.0])


def test_load_csv_whitespace_delimited(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("1  2\n3\t4\n 5 6 \n")
    ts = pk.load_csv(p)
    assert ts.values.shape == (3, 2)
    np.testing.assert_array_equal(ts.values[:, 1], [2.0, 4.0, 6.0])


def test_load_csv_time_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t,x\n0,1\n0.1,2\n0.2,3\n")
    ts = pk.load_csv(p, time_column=True)
    assert ts.dt == pytest.approx(0.1)
    assert ts.n_channels == 1
    assert ts.names == ("x",)
    np.testing.assert_array_equal(ts.values[:, 0], [1.0, 2.0, 3.0])


def test_load_csv_nonuniform_time_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("0,1\n0.1,2\n0.25,3\n")
    with pytest.raises(pk.FormatError):
        pk.load_csv(p, time_column=True)


def test_load_csv_time_column_conflicts_with_dt(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("0,1\n1,2\n2,3\n")
    # a caller's error, not a fault of the file
    with pytest.raises(ValueError, match="dt is read from the time column") as err:
        pk.load_csv(p, dt=0.5, time_column=True)
    assert not isinstance(err.value, pk.PhasekitError)


def test_load_csv_ragged_rows_name_the_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(pk.FormatError, match="line 2"):
        pk.load_csv(p, dt=1.0)


def test_load_csv_non_numeric_cell(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,oops\n4,5\n")
    with pytest.raises(pk.FormatError, match="line 2"):
        pk.load_csv(p)


def test_non_numeric_cell_names_line_and_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n\n3,4e\n")
    with pytest.raises(pk.FormatError, match="line 4, column 2"):
        pk.read_numeric_table(p)


def test_write_numeric_table_writes_float_reprs(tmp_path):
    p = tmp_path / "t.csv"
    pk.write_numeric_table(p, ("a", "b"), np.array([[0, 1], [-0.0, 0.1]]))
    assert p.read_text() == "a,b\n0.0,1.0\n-0.0,0.1\n"
    data, names = pk.read_numeric_table(p)
    assert names == ("a", "b")
    np.testing.assert_array_equal(np.signbit(data), [[False, False], [True, False]])


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("\n\n")
    with pytest.raises(pk.InsufficientDataError):
        pk.load_csv(p)


def test_header_flag_override(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,4\n5,6\n")
    data, names = pk.read_numeric_table(p, header=True)
    assert names == ("1", "2")
    assert data.shape == (2, 2)


@given(arrays(np.float64, st.tuples(st.integers(2, 20), st.integers(1, 3)),
              elements=finite_floats))
def test_csv_round_trip_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "series.csv"
    ts = pk.TimeSeries(values, dt=0.25)
    pk.save_csv(ts, path)
    back = pk.load_csv(path, dt=0.25)
    np.testing.assert_array_equal(back.values, ts.values)
    assert back.names == ts.names


# Cells that both parsers read, cells only float() reads (digit underscores,
# Arabic-Indic digits) and cells neither reads.
_table_cells = st.one_of(
    st.floats(width=64).map(repr),
    st.floats(-1e6, 1e6, width=32).map(str),
    st.sampled_from(["1_0", "\u0661\u0662", "\u0663.\u0665", "0x10", "+.5", "-0", "5.",
                     "Infinity", "-nan", "1d3", " 2 ", "\t3", "1 2", '"4"', "e", "",
                     "1e", "\xa07\xa0", "1e400", "-1E-400"]),
    st.text(alphabet="0123456789.eE+-_ \t\xa0\u0660\u0661x", max_size=6),
)


@settings(max_examples=300)
@given(st.lists(st.lists(_table_cells, min_size=1, max_size=3), min_size=1, max_size=4),
       st.sampled_from([",", None]))
def test_loadtxt_fast_path_is_bit_equal_or_defers(table, delim):
    lines = [(delim or " ").join(cells) for cells in table]
    lines = [line for line in lines if line.strip() != ""]
    if not lines:
        return
    n_cols = len(series._cells(lines[0], delim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = series._loadtxt(lines, delim, n_cols)
    try:
        slow = series._parse_cells("t.csv", list(enumerate(lines, 1)), delim, n_cols)
    except pk.FormatError:
        assert fast is None
    else:
        assert fast is None or fast.tobytes() == slow.tobytes()


def test_load_csv_defers_tokens_loadtxt_rejects(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1_0,2\n\u0663,4.5\n")
    data, names = pk.read_numeric_table(p)
    assert names == ("a", "b")
    np.testing.assert_array_equal(data, [[10.0, 2.0], [3.0, 4.5]])


# Blank and whitespace-only lines are skipped wherever they stand; errors
# still name the 1-based line of the file, counting the skipped lines.
@pytest.mark.parametrize("text", [
    "\n  \nx,y\n1,2\n3,4\n",
    "x,y\n1,2\n\n \t \n3,4\n",
    "x,y\n1,2\n3,4\n\n   \n\t\n",
    "\t\n x,y \n\n1,2\n  \n3,4\n\n",
], ids=["start", "middle", "end", "everywhere"])
def test_blank_lines_are_skipped(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_text(text)
    data, names = pk.read_numeric_table(p)
    assert names == ("x", "y")
    np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])


def test_crlf_line_endings(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"x,y\r\n1,2\r\n\r\n3,4.5\r\n")
    data, names = pk.read_numeric_table(p)
    assert names == ("x", "y")
    np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.5]])
    p.write_bytes(b"1 2\r\n3 4\r\n")
    data, names = pk.read_numeric_table(p)
    assert names == ()
    np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("text", ["x,y\n", "\nx,y\n\n  \n"], ids=["bare", "blanks"])
def test_header_only_file_has_too_few_rows(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(pk.InsufficientDataError, match="fewer than 2 data rows"):
        pk.read_numeric_table(p)
    with pytest.raises(pk.InsufficientDataError, match="fewer than 1 data rows"):
        pk.read_numeric_table(p, min_rows=1)


@pytest.mark.parametrize("text, message", [
    ("\n\nx,y\n1,2\n\n\n3\n", "line 7 has 1 columns, expected 2"),
    ("  \n1,2\n\t\n3,4,5\n", "line 4 has 3 columns, expected 2"),
    ("\nx,y\n\n1,2\n \n3,4\n\n5,oops\n", "non-numeric cell at line 8, column 2"),
    ("\n\n1 2\n\n3 4\nfoo 6\n", "non-numeric cell at line 6, column 1"),
    ("x,y\r\n\r\n1,2\r\n\r\n3,\r\n", "non-numeric cell at line 5, column 2"),
], ids=["ragged-short", "ragged-long", "comma-cell", "whitespace-cell", "crlf-cell"])
def test_errors_after_blank_lines_name_the_file_line(tmp_path, text, message):
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(pk.FormatError) as err:
        pk.read_numeric_table(p)
    assert str(err.value) == f"{p}: {message}"
