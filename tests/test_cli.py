import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fusiongain
from fusiongain.cli import _cell_ok, main, parse_csv
from fusiongain.errors import EmptyData, IoError, ParseError
from fusiongain.mean_utility import assess_mean
from fusiongain.nuisance import MIN_SPLIT_N, Dataset
from fusiongain.quantile_utility import assess_quantile
from fusiongain.simulation import MIN_LINREG_N, CellResult, DgpConfig, generate_dgp

# --folds is gone (cross-fitting always uses nuisance.N_FOLDS folds), so
# argparse rejects it as an unknown flag.
_REMOVED_FLAG = ["--folds", "5"]
# (1 + alpha)/2 rounds to 1, so no normal quantile exists for the interval.
_ALPHA_EDGE = ["--alpha", "0.9999999999999999"]


def _usage_prefix(flag):
    """How the UsageError message for a bad ``flag`` starts."""
    return "unrecognized arguments: " + " ".join(flag) if flag == _REMOVED_FLAG else flag[0]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _dgp_csv(tmp_path, cfg, name="data.csv"):
    data = generate_dgp(cfg)
    lines = ["y,S,W"]
    for yi, xi in zip(data.y, data.x):
        lines.append(f"{float(yi)!r},{float(xi[0])!r},{float(xi[1])!r}")
    return _write(tmp_path, name, "\n".join(lines) + "\n"), data


class TestParseCsv:
    def test_three_row_file(self, tmp_path):
        path = _write(tmp_path, "a.csv", "y,x1\n1,2\n3,4\n5,6\n")
        data = parse_csv(path, response="y")
        assert data.n == 3 and data.p == 1
        assert list(data.y) == [1.0, 3.0, 5.0]
        assert data.column_names == ("x1",)

    def test_default_response_is_first_column(self, tmp_path):
        path = _write(tmp_path, "a.csv", "resp,a,b\n1,2,3\n4,5,6\n")
        data = parse_csv(path)
        assert list(data.y) == [1.0, 4.0]
        assert data.column_names == ("a", "b")

    def test_na_cell_names_row(self, tmp_path):
        path = _write(tmp_path, "a.csv", "y,x1\n1,2\n3,NA\n5,6\n")
        with pytest.raises(ParseError) as exc:
            parse_csv(path)
        assert "row 3" in str(exc.value)
        assert exc.value.locations == [(3, "x1")]

    @pytest.mark.filterwarnings("error")
    def test_header_only_file(self, tmp_path):
        path = _write(tmp_path, "a.csv", "y,x1\n")
        with pytest.raises(EmptyData):
            parse_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            parse_csv(str(tmp_path / "absent.csv"))

    def test_nonfinite_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "a.csv", "y,x1\n1,2\ninf,4\n")
        with pytest.raises(ParseError):
            parse_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = _write(tmp_path, "a.csv", "y\n1\n2\n")
        with pytest.raises(EmptyData):
            parse_csv(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["y,x1\n\n\n", "\ny,x1", "", "\n\n"])
    def test_header_and_blank_lines_only(self, tmp_path, text):
        path = _write(tmp_path, "a.csv", text)
        with pytest.raises(EmptyData):
            parse_csv(path)

    def test_unknown_response_rejected(self, tmp_path):
        path = _write(tmp_path, "a.csv", "y,x1\n1,2\n")
        with pytest.raises(ParseError, match="response column 'z' not in header"):
            parse_csv(path, response="z")

    def test_locations_are_file_lines(self, tmp_path):
        # blank lines and a quoted cell spanning two lines still count as lines
        path = _write(tmp_path, "a.csv", 'y,x\n1,2\n\n"3\n",4\n5,NA\n')
        with pytest.raises(ParseError) as exc:
            parse_csv(path)
        assert exc.value.locations == [(6, "x")]
        path = _write(tmp_path, "b.csv", 'y,x\n\n"bad\n",4\n')
        with pytest.raises(ParseError) as exc:
            parse_csv(path)
        assert exc.value.locations == [(3, "y")]

    def test_many_bad_cells_listed(self, tmp_path):
        lines = ["y,a,b"] + [f"{i},NA,x" if i % 2 else f"{i},1,2" for i in range(30)]
        lines[5] = "1,2"
        path = _write(tmp_path, "a.csv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_csv(path)
        expected = [(6, "<row>")] + [
            (i + 2, col) for i in range(1, 30, 2) for col in ("a", "b")
        ]
        expected.sort()
        assert exc.value.locations == expected
        message = str(exc.value)
        assert message.startswith(
            "missing or non-numeric cells: row 3 (column a), row 3 (column b), "
            "row 5 (column a), row 5 (column b), row 6 (column <row>), "
        )
        assert message.count("row ") == 20
        assert message.endswith(f" and {len(expected) - 20} more")

    def test_every_row_too_short(self, tmp_path):
        path = _write(tmp_path, "a.csv", "y,a,b\n1,2\n3,4\n")
        with pytest.raises(ParseError) as exc:
            parse_csv(path)
        assert exc.value.locations == [(2, "<row>"), (3, "<row>")]

    @pytest.mark.parametrize("header", ["y,s,s", "y,x,y", "y,,x", "y, x ,x"])
    def test_duplicate_or_empty_header_rejected(self, tmp_path, header):
        path = _write(tmp_path, "a.csv", header + "\n1,2,3\n")
        with pytest.raises(ParseError):
            parse_csv(path)

    @pytest.mark.parametrize("tail_rows", [0, 2000])
    def test_invalid_utf8_names_offset(self, tmp_path, tail_rows):
        # with 2000 rows ahead, the bad byte is decoded inside the numeric read
        head = b"y,x\n" + b"1.5,2.5\n" * tail_rows
        path = tmp_path / "a.csv"
        path.write_bytes(head + b"3,\xff4\n")
        with pytest.raises(ParseError) as exc:
            parse_csv(str(path))
        assert f"byte offset {len(head) + 2} (line {tail_rows + 2})" in str(exc.value)

    def test_line_ending_styles(self, tmp_path):
        for end in ("\n", "\r\n", "\r"):
            path = _write(tmp_path, "a.csv", end.join(["y,x", "1,2", "", "3,4", ""]))
            data = parse_csv(path)
            assert data.y.tolist() == [1.0, 3.0] and data.x.tolist() == [[2.0], [4.0]]

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
        plain, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=60, seed=2))
        text = Path(plain).read_text(encoding="utf-8")
        marked = _write(tmp_path, "bom.csv", "\ufeff" + text)
        outputs = []
        for path in (plain, marked):
            assert main(["assess", "--method", "mean-linear", "--input", path, "--response", "y",
                         "--nu", "0.5"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_response_column_is_sliced_out(self, tmp_path):
        path = _write(tmp_path, "a.csv", "a,y,b\n1,2,3\n4,5,6\n")
        data = parse_csv(path, response="y")
        assert data.y.tolist() == [2.0, 5.0]
        assert data.x.tolist() == [[1.0, 3.0], [4.0, 6.0]]
        assert data.column_names == ("a", "b")
        assert data.y.flags.c_contiguous and data.x.flags.c_contiguous


# Cells the numeric reader must accept or reject; the locate pass that names
# rejected cells has to judge each one exactly as np.loadtxt does.
CELL_BATTERY = [
    "1", "-0", "+.5", "5.", ".5e-3", "1E+5", "00012", "-1.25e-310", " 1 ",
    "\t-2.5e3\t", "\u00a01\u2009", "1\x1c", "1\n", "1e999", "-1e999", "1e-999",
    "inf", "-Infinity", "nan", "NaN", "1_0", "1_000.5", "\u0661", "\uff11",
    "1\u0662", "", " ", "NA", "0x10", "1d5", "1.5.2", "1 2", "--1", "+-1", "e5",
    "1e", "1e+", "1,5", "1\u00a02", '1"',
]


def _loadtxt_accepts(cell: str) -> bool:
    quoted = '"' + cell.replace('"', '""') + '"'
    try:
        value = np.loadtxt(io.StringIO(quoted + ",0\n"), delimiter=",", comments=None,
                           quotechar='"', ndmin=2, dtype=float)
    except ValueError:
        return False
    return bool(np.isfinite(value).all())


@pytest.mark.parametrize("cell", CELL_BATTERY)
def test_cell_predicate_matches_loadtxt(cell):
    assert _cell_ok(cell) == _loadtxt_accepts(cell)


def test_cell_grammar_narrower_than_float():
    for cell in ("1_0", "\u0661", "\uff11"):
        float(cell)
        assert not _cell_ok(cell)


def _number_text():
    exponent = st.builds(
        lambda m, e, mark, sign: f"{m}{mark}{sign}{e}",
        st.sampled_from(["1", "2.5", "0.125", "9.99", "123456789", ".5", "7."]),
        st.integers(0, 300), st.sampled_from(["e", "E"]), st.sampled_from(["", "+", "-"]),
    )
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(10 ** 20), 10 ** 20).map(str),
        st.builds(lambda sign, body: sign + body, st.sampled_from(["", "+", "-"]), exponent),
    )


@st.composite
def _cell(draw):
    text = draw(_number_text())
    pad = st.sampled_from(["", " ", "  ", "\t"])
    padded = draw(pad) + text + draw(pad)
    quoted = draw(st.booleans())
    return text, f'"{padded}"' if quoted else padded


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda p: st.lists(st.lists(_cell(), min_size=p, max_size=p), min_size=1, max_size=8)
    ),
    st.sampled_from(["\n", "\r\n"]),
    st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_parsed_values_bitwise_equal_float(tmp_path_factory, rows, newline, blank_after):
    width = len(rows[0])
    lines = [",".join(f"c{j}" for j in range(width))]
    for row, blank in zip(rows, blank_after):
        lines.append(",".join(cell for _, cell in row))
        if blank:
            lines.append("")
    path = tmp_path_factory.mktemp("fidelity") / "a.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    data = parse_csv(str(path))
    expected = np.array([[float(text) for text, _ in row] for row in rows])
    assert data.y.view(np.uint64).tolist() == expected[:, 0].view(np.uint64).tolist()
    assert (data.x.view(np.uint64) == expected[:, 1:].view(np.uint64)).all()


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.one_of(_number_text(), st.sampled_from(CELL_BATTERY)), st.booleans()
            ),
            min_size=2, max_size=2,
        ),
        min_size=1, max_size=6,
    )
)
def test_rejected_files_name_every_bad_cell(tmp_path_factory, rows):
    lines = ["y,x"] + [
        ",".join(_quote(cell) if quoted or any(c in cell for c in ',"\n') else cell
                 for cell, quoted in row)
        for row in rows
    ]
    path = tmp_path_factory.mktemp("locate") / "a.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bad, line = [], 2
    for row in rows:
        bad.extend((line, name) for name, (cell, _) in zip(("y", "x"), row)
                   if not _loadtxt_accepts(cell))
        line += 1 + sum(cell.count("\n") for cell, _ in row)
    if not bad:
        assert parse_csv(str(path)).n == len(rows)
        return
    with pytest.raises(ParseError) as exc:
        parse_csv(str(path))
    assert exc.value.locations == bad


class TestAssessCommand:
    def test_perfect_fit_mean_linear(self, tmp_path, capsys):
        rows = ["y,x"]
        rng = np.random.default_rng(0)
        xs = rng.normal(size=30)
        for x in xs:
            x = float(x)
            rows.append(f"{2.0 + 3.0 * x!r},{x!r}")
        path = _write(tmp_path, "fit.csv", "\n".join(rows) + "\n")
        code = main(
            ["assess", "--method", "mean-linear", "--input", path,
             "--nu", "0.5", "--format", "json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["theta_hat"] == pytest.approx(0.5, abs=1e-10)

    def test_bad_tau_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, "a.csv", "y,x\n1,2\n3,4\n")
        code = main(
            ["assess", "--method", "quantile", "--input", path,
             "--nu", "0.5", "--tau", "1.5"]
        )
        captured = capsys.readouterr()
        assert code != 0
        err_lines = captured.err.strip().split("\n")
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload["error"] == "UsageError"

    @pytest.mark.parametrize("flag", [["--nu", "1.0"], ["--alpha", "0"], _REMOVED_FLAG,
                                      _ALPHA_EDGE])
    def test_bad_setting_usage_error(self, tmp_path, capsys, monkeypatch, flag):
        import fusiongain.cli as cli

        def no_read(*args, **kwargs):
            raise AssertionError("data was read")

        path, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=50, seed=2))
        monkeypatch.setattr(cli, "parse_csv", no_read)
        code = main(["assess", "--method", "linreg", "--input", path, "--nu", "0.5"] + flag)
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "UsageError"
        assert payload["message"].startswith(_usage_prefix(flag))

    def test_json_matches_library_exactly(self, tmp_path, capsys):
        cfg = DgpConfig(b=0.5, n=2000, seed=11)
        path, data = _dgp_csv(tmp_path, cfg)
        code = main(
            ["assess", "--method", "mean-conditional", "--input", path,
             "--nu", "0.5", "--seed", "11", "--format", "json", "--relative"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        est = assess_mean(data, nu=0.5, regressor="local-linear", seed=11)
        assert out["theta_hat_raw"] == est.theta_hat_raw
        assert out["theta_tilde_raw"] == est.theta_tilde_raw
        assert out["gamma_hat"] == est.gamma_hat
        assert out["ci"]["lo"] == est.ci.lo
        assert out["ci"]["hi"] == est.ci.hi
        assert out["relative"]["point"] == (1 - est.theta_hat) / 0.5

    def test_json_output_roundtrips(self, tmp_path, capsys):
        path, _ = _dgp_csv(tmp_path, DgpConfig(b=1.0, n=100, seed=3))
        code = main(
            ["assess", "--method", "linreg", "--input", path,
             "--nu", "0.25", "--format", "json"]
        )
        assert code == 0
        text = capsys.readouterr().out
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2, sort_keys=True) == text.rstrip("\n")

    def test_linreg_s_column_and_center(self, tmp_path, capsys):
        path, data = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=150, seed=4))
        code = main(
            ["assess", "--method", "linreg", "--input", path, "--nu", "0.5",
             "--s-column", "W", "--center", "--format", "json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        from fusiongain.linreg_utility import assess_linreg
        from fusiongain.nuisance import Dataset

        centered = Dataset(data.y, data.x - data.x.mean(axis=0), data.column_names)
        est = assess_linreg(centered, nu=0.5, s_index=1)
        assert out["theta_hat_raw"] == est.theta_hat_raw

    def test_unknown_s_column_fails(self, tmp_path, capsys):
        path, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=100, seed=5))
        code = main(
            ["assess", "--method", "linreg", "--input", path, "--nu", "0.5",
             "--s-column", "Z"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"

    def test_non_utf8_input_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("y,x\n1,2\n3,caf\u00e9\n".encode("latin-1"))
        code = main(["assess", "--method", "mean-linear", "--input", str(path),
                     "--nu", "0.5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "ParseError"
        assert "byte offset 13 (line 3)" in payload["message"]

    def test_missing_input_io_error(self, tmp_path, capsys):
        code = main(
            ["assess", "--method", "mean-linear", "--input",
             str(tmp_path / "nope.csv"), "--nu", "0.5"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IoError"

    def test_text_and_csv_formats(self, tmp_path, capsys):
        path, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=100, seed=6))
        assert main(["assess", "--method", "mean-linear", "--input", path,
                     "--nu", "0.5", "--format", "text"]) == 0
        text_out = capsys.readouterr().out
        assert "theta_hat" in text_out
        assert main(["assess", "--method", "mean-linear", "--input", path,
                     "--nu", "0.5", "--format", "csv"]) == 0
        csv_out = capsys.readouterr().out.strip().split("\n")
        assert len(csv_out) == 2
        header = csv_out[0].split(",")
        values = csv_out[1].split(",")
        assert "theta_hat" in header
        assert len(header) == len(values)


GOLDEN_ASSESS = {
    "mean-linear": ["--method", "mean-linear", "--format", "json"],
    "mean-conditional-local-linear": ["--method", "mean-conditional",
                                      "--regressor", "local-linear", "--format", "json"],
    "mean-conditional-k-nn": ["--method", "mean-conditional", "--regressor", "k-nn",
                              "--format", "json"],
    "quantile": ["--method", "quantile", "--format", "json"],
    "linreg-relative-json": ["--method", "linreg", "--relative", "--format", "json"],
    "linreg-relative-csv": ["--method", "linreg", "--relative", "--format", "csv"],
    "linreg-relative-text": ["--method", "linreg", "--relative", "--format", "text"],
}


def test_assess_output_bytes_pinned(tmp_path, capsys):
    # exact stdout of every method on one fixed input; a refactor must not move a byte
    expected = json.loads((Path(__file__).parent / "golden" / "assess_stdout.json").read_text())
    assert set(expected) == set(GOLDEN_ASSESS)
    path, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=300, seed=4))
    for name, args in GOLDEN_ASSESS.items():
        code = main(["assess", "--input", path, "--nu", "0.5", "--seed", "4"] + args)
        assert code == 0
        assert capsys.readouterr().out == expected[name], name


@pytest.mark.parametrize("method, line", [
    ("linreg",
     "linreg,12000,0.5,0.95,4,0.8068980790097646,0.8068980790097646,,0.47366935292078766,"
     "0.798423214686723,0.8153729433328063,0.798423214686723,0.8153729433328063,"
     "0.38620384198047075,0.3692541133343874,0.4031535706265541"),
    ("mean-linear",
     "mean-linear,12000,0.5,0.95,4,0.8161105886024529,0.8161105886024529,"
     "0.8158860548967436,0.9018211218874347,0.7997507241971292,0.832021385596358,"
     "0.7997507241971292,0.832021385596358,0.3677788227950942,0.33595722880728407,"
     "0.40049855160574155"),
], ids=["linreg", "mean-linear"])
def test_least_squares_output_bytes_pinned_above_threaded_dot(tmp_path, capsys, method, line):
    # at n = 12000, BLAS splits a product over the rows across threads: a
    # linreg slope from two dots of the S column, or an OLS fold fit's X'X
    # and X'y, would move their last bits with the thread count
    path, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=12000, seed=4))
    code = main(["assess", "--input", path, "--nu", "0.5", "--seed", "4", "--method", method,
                 "--relative", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1] == line


def test_assess_loads_no_scipy(tmp_path):
    # assess needs only numpy: a fresh interpreter that imports the package
    # and assesses with every method has no scipy module afterwards, and
    # none of the process-pool machinery that only simulate --workers opens
    path, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=200, seed=3))
    runs = [["--method", "mean-linear"], ["--method", "mean-conditional"],
            ["--method", "quantile", "--tau", "0.3"],
            ["--method", "linreg", "--s-column", "S", "--relative"]]
    script = (
        "import json, sys\n"
        "import fusiongain, fusiongain.cli as cli\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    assert cli.main(['assess', '--input', sys.argv[2], '--nu', '0.5'] + args) == 0\n"
        "forbidden = {'scipy', 'multiprocessing', 'logging', 'socket', 'subprocess'}\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.split('.')[0] in forbidden or m == 'concurrent.futures.process']\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fusiongain.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", script, json.dumps(runs), path], env=env, check=True,
                   timeout=120)


@pytest.mark.parametrize("command", ["assess", "simulate"])
def test_closed_stdout_is_one_io_error(tmp_path, command):
    # the reader of stdout is gone before the run starts, so every write
    # fails whatever the timing: one IoError line, and no traceback from the
    # write or from the flush at exit
    path, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=40, seed=3))
    args = {
        "assess": ["assess", "--method", "mean-linear", "--input", path, "--nu", "0.5"],
        "simulate": ["simulate", "--method", "mean-linear", "--b", "0.5", "--n", "40",
                     "--reps", "2", "--seed", "1", "--out", str(tmp_path / "out")],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(fusiongain.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "fusiongain.cli"] + args, stdout=write_end,
                             stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert run.stderr.count(b"\n") == 1
    payload = json.loads(run.stderr)
    assert payload["error"] == "IoError"
    assert payload["message"].startswith("cannot write to stdout")


ASSESS_FLAG_MISUSES = [
    (flag, method)
    for flag, methods in (
        (["--s-column", "W"], ("mean-linear", "mean-conditional", "quantile")),
        (["--center"], ("mean-linear", "mean-conditional", "quantile")),
        (["--regressor", "k-nn"], ("mean-linear", "linreg")),
        (["--tau", "0.5"], ("mean-linear", "mean-conditional", "linreg")),
        # a least-squares g under mean-conditional is the method mean-linear
        (["--regressor", "ols-linear"], ("mean-conditional",)),
    )
    for method in methods
]


@pytest.mark.parametrize("flag, method", ASSESS_FLAG_MISUSES)
def test_assess_rejects_flag_the_method_ignores(tmp_path, capsys, flag, method):
    # the input does not exist, so exit 2 (not an IoError) shows nothing was read
    code = main(["assess", "--method", method, "--input", str(tmp_path / "absent.csv"),
                 "--nu", "0.5"] + flag)
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "UsageError"
    assert payload["message"].startswith(flag[0])


def test_explicit_defaults_give_default_bytes(tmp_path, capsys):
    expected = json.loads((Path(__file__).parent / "golden" / "assess_stdout.json").read_text())
    path, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=300, seed=4))
    code = main(["assess", "--input", path, "--nu", "0.5", "--seed", "4", "--method", "quantile",
                 "--tau", "0.5", "--regressor", "local-linear", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == expected["quantile"]


def test_negative_zero_flags_give_the_zero_bytes(tmp_path, capsys):
    # float("-0") keeps its sign bit, which the payload would print and
    # cell_seed would hash into a different seed
    path, _ = _dgp_csv(tmp_path, DgpConfig(b=0.5, n=100, seed=3))
    runs = {}
    for zero in ("0", "-0"):
        assert main(["assess", "--method", "mean-linear", "--input", path, f"--nu={zero}",
                     "--format", "json"]) == 0
        out_dir = tmp_path / f"sim{zero}"
        assert main(["simulate", "--method", "mean-linear", f"--b={zero}", f"--rho={zero}",
                     "--n", "60", "--reps", "3", "--seed", "1", "--out", str(out_dir)]) == 0
        runs[zero] = (capsys.readouterr().out, (out_dir / "simulation.csv").read_bytes())
    assert runs["-0"] == runs["0"]
    assert "-0.0" not in runs["-0"][0]


@pytest.mark.parametrize("method", ["mean-linear", "mean-conditional", "linreg"])
def test_simulate_rejects_tau_outside_quantile(tmp_path, capsys, monkeypatch, method):
    import fusiongain.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(cli, "run_monte_carlo", no_run)
    code = main(["simulate", "--method", method, "--b", "0", "--n", "100", "--reps", "1",
                 "--seed", "1", "--tau", "0.5", "--out", str(tmp_path / "x")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "UsageError"
    assert payload["message"].startswith("--tau")
    assert not (tmp_path / "x").exists()


def _rows_csv(tmp_path, y, x, name="a.csv"):
    rows = ["y,S,W"] + [f"{yi!r},{xi[0]!r},{xi[1]!r}" for yi, xi in zip(y.tolist(), x.tolist())]
    return _write(tmp_path, name, "\n".join(rows) + "\n")


def _stage_case(kind: str) -> tuple[np.ndarray, np.ndarray]:
    data = generate_dgp(DgpConfig(b=0.5, n=40, seed=8))
    y, x = data.y.copy(), data.x.copy()
    if kind == "constant":
        y[:] = 1.5
    elif kind == "half-constant":
        y[:20] = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
        y[20:] = 0.0
    elif kind == "far":  # one covariate row far past the others' spread
        x[17, 0] = 1e31
    else:  # collinear
        x[:, 1] = 2.0 * x[:, 0]
    return y, x


@pytest.mark.parametrize(
    "kind, method, error, stage",
    [
        ("constant", "mean-linear", "DegenerateDenominator", "point"),
        ("half-constant", "mean-linear", "DegenerateDenominator", "split"),
        ("collinear", "linreg", "SingularDesign", "components"),
        ("far", "mean-linear", "OutOfRange", "data"),
        ("far", "mean-conditional", "OutOfRange", "data"),
        ("far", "linreg", "OutOfRange", "data"),
    ],
)
def test_error_names_its_stage(tmp_path, capsys, kind, method, error, stage):
    path = _rows_csv(tmp_path, *_stage_case(kind))
    code = main(["assess", "--method", method, "--input", path, "--nu", "0.5"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == error
    assert payload["stage"] == stage
    assert payload["message"].startswith(f"{stage}: ")


@pytest.mark.parametrize("method", ["mean-linear", "mean-conditional", "quantile"])
def test_split_methods_name_their_row_minimum(tmp_path, capsys, method):
    # the quantile's first half-sample must hold two rows per fold, n >=
    # MIN_SPLIT_N; the mean keeps the same minimum, so both accept one n
    data = generate_dgp(DgpConfig(b=0.5, n=MIN_SPLIT_N, seed=4))
    for n in (9, 12, MIN_SPLIT_N - 1):
        code, got = _assess_probe(tmp_path, capsys, data.y[:n], data.x[:n], ["--method", method])
        assert (code, got[:2]) == (1, ("TooFewObservations", "data")), n
        assert f"n >= {MIN_SPLIT_N}" in got[2] and f"n={n}" in got[2], got[2]
    code, _ = _assess_probe(tmp_path, capsys, data.y, data.x, ["--method", method])
    assert code == 0


def test_linreg_names_its_row_minimum(tmp_path, capsys):
    # two covariates: at n = 2 the fit is exact and read ci_raw [1, 1]
    data = generate_dgp(DgpConfig(b=0.5, n=3, seed=4))
    for n in (1, 2):
        code, got = _assess_probe(tmp_path, capsys, data.y[:n], data.x[:n], ["--method", "linreg"])
        assert (code, got[:2]) == (1, ("TooFewObservations", "data")), n
        assert f"n={n}, p=2" in got[2], got[2]
    code, _ = _assess_probe(tmp_path, capsys, data.y, data.x, ["--method", "linreg"])
    assert code == 0


_KEYS = ("theta_hat_raw", "theta_tilde_raw", "gamma_hat")


def _assess_probe(tmp_path, capsys, y, x, argv, name="a.csv"):
    """Exit code and stdout JSON, or the one stderr line's (error, stage,
    message), of ``assess`` on (y, x) with ``argv``."""
    path = _rows_csv(tmp_path, y, x, name)
    code = main(["assess", "--input", path, "--nu", "0.5", "--format", "json"] + argv)
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
        return code, json.loads(captured.out)
    assert captured.err.count("\n") == 1
    payload = json.loads(captured.err)
    return code, (payload["error"], payload["stage"], payload["message"])


def _numbers(out):
    return [out[k] for k in _KEYS if out[k] is not None] + [out["ci_raw"]["lo"],
                                                             out["ci_raw"]["hi"]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column, scale, method, code, error, stage", [
    # S * 1e200 made the Gram products and the sd overflow; at the door it
    # is a column like any other, but under linreg's common covariate scale
    # W is too small next to it
    pytest.param("S", 1e200, "mean-linear", 0, None, None, id="mean-linear-0-None"),
    pytest.param("S", 1e200, "linreg", 1, "OutOfRange", "data", id="linreg-1-OutOfRange"),
    pytest.param("S", 1e200, "mean-conditional", 0, None, None, id="mean-conditional-0-None"),
    pytest.param("S", 1e200, "quantile", 0, None, None, id="quantile-0-None"),
    # S * 1e-156 made Sigma^-1 overflow; now only the common scale of linreg
    # refuses it, as small next to W
    ("S", 1e-156, "mean-linear", 0, None, None),
    ("S", 1e-156, "linreg", 1, "OutOfRange", "data"),
    ("S", 1e-156, "mean-conditional", 0, None, None),
    ("S", 1e-156, "quantile", 0, None, None),
    # y * 1e306 and 1e307 made the squared residuals and the products with y
    # overflow; the door scales y first
    ("y", 1e306, "mean-linear", 0, None, None),
    ("y", 1e306, "linreg", 0, None, None),
    ("y", 1e306, "mean-conditional", 0, None, None),
    ("y", 1e306, "quantile", 0, None, None),
    ("y", 1e307, "mean-linear", 0, None, None),
    ("y", 1e307, "linreg", 0, None, None),
    ("y", 1e307, "mean-conditional", 0, None, None),
    ("y", 1e307, "quantile", 0, None, None),
])
def test_overflowing_covariate_warns_nothing(tmp_path, capsys, column, scale, method, code,
                                             error, stage):
    # one column scaled to the edge of the double range: the unscaled answer
    # to 1e-8, or the door's one JSON error line
    data = generate_dgp(DgpConfig(b=0.5, n=50, seed=1))
    y_scale, s_scale = (scale, 1.0) if column == "y" else (1.0, scale)
    x = data.x * np.array([s_scale, 1.0])
    argv = ["--method", method]
    got = _assess_probe(tmp_path, capsys, data.y * y_scale, x, argv)
    assert got[0] == code
    if error is None:
        ref = _assess_probe(tmp_path, capsys, data.y, data.x, argv, "ref.csv")[1]
        assert _numbers(got[1]) == pytest.approx(_numbers(ref), rel=1e-8)
    else:
        assert got[1][:2] == (error, stage)
        assert "small next to the largest covariate column" in got[1][2]


_PROBE_VARIANTS = [("mean-linear", None), ("mean-conditional", "local-linear"),
                   ("mean-conditional", "k-nn"), ("quantile", "local-linear"),
                   ("quantile", "ols-linear"), ("linreg", None)]
_PROBE_IDS = [f"{m}-{r}" for m, r in _PROBE_VARIANTS]


def _variant_argv(method, regressor):
    return ["--method", method] + ([] if regressor is None else ["--regressor", regressor])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", _PROBE_VARIANTS, ids=_PROBE_IDS)
def test_power_of_two_scales_give_identical_bytes(tmp_path, capsys, variant):
    # y * 2^-k, S * 2^k and W * 2^-k (W * 2^k under the common covariate
    # scale of k-NN and linreg): the door maps every one to the same data
    data = generate_dgp(DgpConfig(b=0.5, n=300, seed=4))
    argv = _variant_argv(*variant) + ["--seed", "4"]
    common = variant[0] == "linreg" or variant[1] == "k-nn"
    code, expected = _assess_probe(tmp_path, capsys, data.y, data.x, argv)
    assert code == 0
    for k in (100, -100, 500, -500, 900, -900):
        x = data.x * np.ldexp(1.0, [k, k if common else -k])
        assert _assess_probe(tmp_path, capsys, np.ldexp(data.y, -k), x, argv) == (0, expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", _PROBE_VARIANTS, ids=_PROBE_IDS)
def test_tiny_and_huge_columns_give_the_unscaled_answer(tmp_path, capsys, variant):
    # y or S scaled by powers of ten down to 1e-300 and up to 1e300: the
    # unscaled answer to 1e-8, except where the common covariate scale of
    # k-NN and linreg refuses S, or W, as too small next to the other
    data = generate_dgp(DgpConfig(b=0.5, n=50, seed=1))
    argv = _variant_argv(*variant)
    common = variant[0] == "linreg" or variant[1] == "k-nn"
    code, ref = _assess_probe(tmp_path, capsys, data.y, data.x, argv, "ref.csv")
    assert code == 0
    for column, scale in [("y", 1e-170), ("y", 1e-300), ("y", 1e300), ("S", 1e-155),
                          ("S", 1e-170), ("S", 1e-300), ("S", 1e300)]:
        y = data.y * scale if column == "y" else data.y
        x = data.x * np.array([scale, 1.0]) if column == "S" else data.x
        code, got = _assess_probe(tmp_path, capsys, y, x, argv)
        if common and column == "S":
            assert (code, got[:2]) == (1, ("OutOfRange", "data")), (column, scale)
        else:
            assert code == 0, (column, scale, got)
            assert _numbers(got) == pytest.approx(_numbers(ref), rel=1e-8), (column, scale)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", _PROBE_VARIANTS, ids=_PROBE_IDS)
def test_far_row_limit(tmp_path, capsys, variant):
    # S in row 17 at 1e30 leaves the column's robust spread just above
    # 2^-100 of its largest magnitude; at 1e31 the door refuses the row
    data = generate_dgp(DgpConfig(b=0.5, n=50, seed=1))
    argv = _variant_argv(*variant)
    x = data.x.copy()
    x[17, 0] = 1e30
    assert _assess_probe(tmp_path, capsys, data.y, x, argv)[0] == 0
    x[17, 0] = 1e31
    code, (error, stage, message) = _assess_probe(tmp_path, capsys, data.y, x, argv)
    assert (code, error, stage) == (1, "OutOfRange", "data")
    assert message.startswith("data: covariate S: row 18 ")


def _far_data(kind: str) -> tuple[np.ndarray, np.ndarray]:
    # "far-<v>": S in row 17 set to v; "<col>-spread": that column is 1 except
    # for rows 0-3, whose spread would overflow while the IQR is zero
    data = generate_dgp(DgpConfig(b=0.5, n=50, seed=1))
    y, x = data.y.copy(), data.x.copy()
    if kind.startswith("far-"):
        x[17, 0] = float(kind[4:])
    else:
        column = y if kind == "y-spread" else x[:, 0]
        column[:] = 1.0
        column[:4] = [1.5e308, -1.5e308, 2.0, 0.5]
    return y, x


_FAR_METHODS = [("mean-linear", None), ("mean-conditional", "local-linear"),
                ("mean-conditional", "k-nn"), ("quantile", "local-linear"),
                ("quantile", "k-nn"), ("linreg", None)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["S-spread", "far-1e200", "far-1e300", "y-spread"])
@pytest.mark.parametrize("index", range(len(_FAR_METHODS)),
                         ids=[f"{m}-{r}" for m, r in _FAR_METHODS])
def test_far_row_and_overflowing_spread_fail_typed(tmp_path, capsys, kind, index):
    # every method refuses the far row at the door, and names it
    argv = _variant_argv(*_FAR_METHODS[index])
    code, (error, stage, message) = _assess_probe(tmp_path, capsys, *_far_data(kind), argv)
    assert (code, error, stage) == (1, "OutOfRange", "data")
    column, row = ("the response", 1) if kind == "y-spread" else (
        ("covariate S", 1) if kind == "S-spread" else ("covariate S", 18))
    assert message.startswith(f"data: {column}: row {row} ")


@pytest.mark.filterwarnings("error")
def test_overflowing_plug_in_blames_no_response(tmp_path, capsys):
    # S = 1e150 in one row overflowed the mean-linear variance plug-in; y is
    # of order 1, so the message must name the covariate, not the response
    code, (error, stage, message) = _assess_probe(tmp_path, capsys, *_far_data("far-1e150"),
                                                  ["--method", "mean-linear"])
    assert (code, error, stage) == (1, "OutOfRange", "data")
    assert "covariate S" in message and "response" not in message


def _no_y_below_the_quantile():
    """(y, x, tau) samples in which no y lies below the empirical tau-quantile."""
    base = generate_dgp(DgpConfig(b=0.5, n=200, seed=7))
    probe = generate_dgp(DgpConfig(b=0.5, n=1000, seed=3))
    small = generate_dgp(DgpConfig(b=0.5, n=50, seed=1))
    return [
        (np.random.default_rng(1).integers(0, 2, 200).astype(float), base.x, "0.25"),
        (np.maximum(probe.y + 0.3, 0.0), probe.x, "0.25"),
        (small.y, small.x, "0.01"),
        (small.y, small.x, "1e-300"),
        (-probe.y, probe.x, "0.0005"),
    ]


@pytest.mark.filterwarnings("error")
def test_quantile_without_observations_below_it_is_refused(tmp_path, capsys):
    # no y lies below the empirical quantile, so 1(Y < mu_hat) is 0 in every
    # row: the point core would be 0 by construction, not a measured gain
    for y, x, tau in _no_y_below_the_quantile():
        code, got = _assess_probe(tmp_path, capsys, y, x, ["--method", "quantile", "--tau", tau])
        assert (code, got[:2]) == (1, ("TooFewObservations", "point")), tau


@pytest.mark.filterwarnings("error")
def test_quantile_without_observations_above_it_is_refused(tmp_path, capsys):
    # each case above mirrored as (-y, 1 - tau): the empirical quantile is the
    # sample maximum, and the answer would rest on the top row (at 0.9995 the
    # probe printed theta_hat_raw 1.517 with ci [1, 1]); 1 - 1e-300 rounds to
    # 1, so that case mirrors to 0.9999999
    mirrored = {"0.25": "0.75", "0.01": "0.99", "1e-300": "0.9999999", "0.0005": "0.9995"}
    for y, x, tau in _no_y_below_the_quantile():
        code, got = _assess_probe(tmp_path, capsys, -y, x,
                                  ["--method", "quantile", "--tau", mirrored[tau]])
        assert (code, got[:2]) == (1, ("TooFewObservations", "point")), mirrored[tau]


def test_quantile_unmoved_by_response_scale(tmp_path, capsys):
    # the density floor compares f_Y(mu) in bandwidth units, so a response
    # scaled by 1e12 or 1e15 gives the unscaled answer
    data = generate_dgp(DgpConfig(b=0.5, n=40, seed=8))
    keys = ("theta_hat_raw", "theta_tilde_raw", "gamma_hat")
    outputs = []
    for scale in (1.0, 1e12, 1e15):
        rows = ["y,S,W"] + [f"{yi!r},{xi[0]!r},{xi[1]!r}"
                            for yi, xi in zip((data.y * scale).tolist(), data.x.tolist())]
        path = _write(tmp_path, f"scaled-{scale:g}.csv", "\n".join(rows) + "\n")
        code = main(["assess", "--method", "quantile", "--input", path, "--nu", "0.5",
                     "--format", "json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        outputs.append([out[k] for k in keys] + [out["ci_raw"]["lo"], out["ci_raw"]["hi"]])
    for scaled in outputs[1:]:
        assert scaled == pytest.approx(outputs[0], rel=1e-9)


def test_estimates_unmoved_by_covariate_offset():
    # the kernel centres the covariates before expanding |a - b|^2, so an
    # offset of 1e6 on a 1e-3 scale cannot cancel the distances away
    data = generate_dgp(DgpConfig(b=0.5, n=1000, seed=3))
    shifted = Dataset(data.y, data.x * 1e-3 + 1e6, data.column_names)
    for assess in (
        lambda d: assess_mean(d, nu=0.5, regressor="local-linear"),
        lambda d: assess_quantile(d, nu=0.5),
    ):
        base, moved = assess(data), assess(shifted)
        for key in ("theta_hat", "theta_tilde_raw", "gamma_hat"):
            assert getattr(moved, key) == pytest.approx(getattr(base, key), rel=1e-6), key


def _rescaled_columns(data):
    return Dataset(data.y, data.x * np.array([1000.0, 0.001]), data.column_names)


def test_kernel_estimates_unmoved_by_column_units(monkeypatch):
    # the local-linear gate works in bandwidth units, so columns at scales
    # 1000 and 0.001 give the unscaled answer with every local solve trusted
    from fusiongain.nuisance import LocalLinearRegressor

    fallbacks, queries = [], []
    predict_block = LocalLinearRegressor._predict_block

    def counted(self, xq):
        out, ok = predict_block(self, xq)
        fallbacks.append(int(np.count_nonzero(~ok)))
        queries.append(ok.size)
        return out, ok

    monkeypatch.setattr(LocalLinearRegressor, "_predict_block", counted)
    data = generate_dgp(DgpConfig(b=0.5, n=1000, seed=3))
    for assess in (
        lambda d: assess_mean(d, nu=0.5, regressor="local-linear"),
        lambda d: assess_quantile(d, nu=0.5),
    ):
        base, scaled = assess(data), assess(_rescaled_columns(data))
        for key in ("theta_hat", "theta_tilde_raw", "gamma_hat"):
            assert getattr(scaled, key) == pytest.approx(getattr(base, key), rel=1e-8), key
    # the mean and the quantile each cross-fit the full sample once
    assert sum(queries) == 2 * (1000 + 1000) and sum(fallbacks) == 0


def test_linear_methods_accept_column_units():
    # OLS and linreg gate on the equilibrated Gram matrix: columns at scales
    # 1000 and 0.001 (raw condition number about 1e12) no longer raise
    from fusiongain.linreg_utility import assess_linreg

    data = generate_dgp(DgpConfig(b=0.5, n=1000, seed=3))
    scaled = _rescaled_columns(data)
    base, moved = assess_mean(data, nu=0.5, regressor="ols-linear"), assess_mean(
        scaled, nu=0.5, regressor="ols-linear")
    for key in ("theta_hat", "theta_tilde_raw", "gamma_hat"):
        assert getattr(moved, key) == pytest.approx(getattr(base, key), rel=1e-8), key
    # the trace aggregate depends on units by definition, so only that it is computed
    assert np.isfinite(assess_linreg(scaled, nu=0.5).theta_hat)


def _table_text(rows):
    """A CSV whose first column is the response, with one row per entry of ``rows``."""
    header = ["y"] + [f"x{j}" for j in range(1, len(rows[0]))]
    return "\n".join([",".join(header)] + [",".join(map(repr, row)) for row in rows]) + "\n"


# On this table linreg's alpha kappa is 4.9e-239: its square, the variance's
# denominator, underflowed to 0, and the division escaped as a bare
# ZeroDivisionError traceback with no JSON line.
_ALPHA_KAPPA_UNDERFLOW = [
    [-1.989019121670802e-65, -480108.4783007891, 3.0],
    [8.673617379884035e-19, 0.0, -29928.848458550754],
    [8.673617379884035e-19, -1.0, -1.0],
    [-1e300, -1.9726277694824304e-115, 3.0],
]

# 38 tiny rows beside one distant row, which the door admits: the distant
# row pulls the kernel's centre 1e16 bandwidths away from the tiny rows, and
# the expanded bilinear form can round their conditional-KDE log-weights,
# their own included, to -1.2e18 (under some BLAS kernels), so every weight
# of those queries underflows and the quantile's variance stage refuses it.
# Each pair of digits picks the row's two covariates from _TINY.
_TINY = (0.0, 1e-300, 2.0**-61, 2.0**-60, 3 * 2.0**-60)
_EMPTY_NEIGHBORHOOD = [[1.0, 0.5, -1.0]] + [
    [float((i + 2) % 7), _TINY[int(a)], _TINY[int(b)]] for i, (a, b) in enumerate(
        "41 31 34 41 22 42 44 32 21 43 33 03 30 02 22 10 20 11 14 01 24 21 13 43 30 30 "
        "44 20 42 24 14 44 41 00 02 31 12 10".split())]


def test_linreg_refuses_an_alpha_kappa_whose_square_underflows(tmp_path, capsys):
    path = _write(tmp_path, "a.csv", _table_text(_ALPHA_KAPPA_UNDERFLOW))
    code = main(["assess", "--method", "linreg", "--input", path, "--nu", "0.5"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err.count("\n")) == (1, "", 1)
    payload = json.loads(captured.err)
    assert (payload["error"], payload["stage"]) == ("DegenerateResidualVariance", "point")


_SPECIAL_CELLS = (0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, 1e300, -1e300, 1e150, 5e-324, 2.0**-60)
_CONTRACT_VARIANTS = [("mean-linear", None), ("mean-conditional", "local-linear"),
                      ("mean-conditional", "k-nn"), ("quantile", None), ("linreg", None)]


@st.composite
def _numeric_tables(draw):
    """Rows of 1 + p finite cells, p from 1 to 4, for n from 1 to 60 rows,
    sometimes stacked twice.  A cell is a float in [-1e6, 1e6] or one of the
    special values the table draws, none to all of them, so that some tables
    pass the door and reach the estimators."""
    n, p = draw(st.integers(1, 60)), draw(st.integers(1, 4))
    specials = draw(st.lists(st.sampled_from(_SPECIAL_CELLS), unique=True))
    cell = st.floats(-1e6, 1e6)
    if specials:
        cell |= st.sampled_from(specials)
    rows = draw(st.lists(st.lists(cell, min_size=p + 1, max_size=p + 1), min_size=n,
                         max_size=n))
    return rows + rows if draw(st.booleans()) else rows


@pytest.fixture(scope="session")
def contract_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "table.csv"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", _CONTRACT_VARIANTS,
                         ids=[f"{m}-{r}" for m, r in _CONTRACT_VARIANTS])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(rows=_numeric_tables())
@example(rows=_ALPHA_KAPPA_UNDERFLOW)
@example(rows=_EMPTY_NEIGHBORHOOD)
def test_every_numeric_csv_gives_finite_numbers_or_one_json_error(contract_csv, variant, rows):
    # the contract where users meet it: exit 0 with finite numbers, or exit
    # 1 or 2 with one JSON line on stderr, and never a numpy warning
    contract_csv.write_text(_table_text(rows), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["assess", "--input", str(contract_csv), "--nu", "0.5", "--format", "json"]
                    + _variant_argv(*variant))
    if code == 0:
        assert err.getvalue() == ""
        # json writes a non-finite float as NaN or Infinity, which only
        # parse_constant sees
        constants = []
        json.loads(out.getvalue(), parse_constant=constants.append)
        assert constants == []
    else:
        assert code in (1, 2) and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])


class TestSimulateCommand:
    def test_single_cell_single_rep(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            ["simulate", "--method", "mean-linear", "--b", "0", "--n", "500",
             "--reps", "1", "--seed", "7", "--out", str(out_dir)]
        )
        assert code == 0
        csv_text = (out_dir / "simulation.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "method,b,n,extra,reps,seed,MAE,SDAE,AL,CR"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[9]) in (0.0, 1.0)  # CR with one replication

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--method", "linreg", "--b", "0,0.5", "--n", "200",
                "--reps", "5", "--seed", "21"]
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / "simulation.csv").read_bytes() == (
            out2 / "simulation.csv"
        ).read_bytes()
        assert (out1 / "simulation.txt").read_bytes() == (
            out2 / "simulation.txt"
        ).read_bytes()

    def test_quantile_grid_has_tau_column(self, tmp_path):
        out_dir = tmp_path / "q"
        code = main(
            ["simulate", "--method", "quantile", "--b", "0", "--n", "100",
             "--tau", "0.25,0.5", "--reps", "1", "--seed", "3",
             "--out", str(out_dir)]
        )
        assert code == 0
        lines = (out_dir / "simulation.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        extras = {line.split(",")[3] for line in lines[1:]}
        assert extras == {"0.25", "0.5"}

    @pytest.mark.slow
    def test_full_linreg_grid_within_bands(self, tmp_path):
        # 3x3 grid at 300 replications; the band cells must hold through the CLI
        out_dir = tmp_path / "grid"
        code = main(
            ["simulate", "--method", "linreg", "--b", "0,0.5,1.0",
             "--n", "500,1000,2000", "--reps", "300", "--seed", "202",
             "--out", str(out_dir)]
        )
        assert code == 0
        lines = (out_dir / "simulation.csv").read_text().strip().split("\n")
        assert len(lines) == 10  # header + 3x3 grid
        cells = {}
        for line in lines[1:]:
            fields = line.split(",")
            cells[(float(fields[1]), int(fields[2]))] = {
                "mae": float(fields[6]),
                "cr": float(fields[9]),
            }
        assert 0.005 <= cells[(0.0, 2000)]["mae"] <= 0.015
        assert 0.905 <= cells[(0.0, 2000)]["cr"] <= 0.965
        assert 0.915 <= cells[(1.0, 500)]["cr"] <= 0.975

    def test_no_signal_quantile_truth_is_coverable(self, tmp_path):
        # at b = 0 the truth is exactly 1, so intervals clamped to [0, 1] can hold it
        out_dir = tmp_path / "q"
        code = main(
            ["simulate", "--method", "quantile", "--b", "0", "--n", "100", "--tau", "0.84",
             "--reps", "10", "--seed", "1", "--out", str(out_dir)]
        )
        assert code == 0
        row = (out_dir / "simulation.csv").read_text().strip().split("\n")[1].split(",")
        assert float(row[9]) > 0.0

    def test_invalid_reps(self, tmp_path, capsys):
        code = main(
            ["simulate", "--method", "linreg", "--b", "0", "--n", "100",
             "--reps", "0", "--seed", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"

    @pytest.mark.parametrize(
        "flag", [["--nu", "1.2"], ["--alpha", "1.5"], _ALPHA_EDGE, ["--tau", "0.5,1.0"],
                 _REMOVED_FLAG, ["--rho", "1.5"], ["--n", "0"], ["--workers", "-3"],
                 ["--b", ","], ["--n", ","], ["--tau", ","], ["--b", "nan"], ["--b", "0,inf"],
                 # the quantile's first half-sample must hold two rows per
                 # fold, and the mean shares its minimum
                 ["--n", str(MIN_SPLIT_N - 1)], ["--n", f"100,{MIN_SPLIT_N - 1}"],
                 ["--n", str(MIN_SPLIT_N - 1), "--method", "mean-linear"],
                 ["--n", str(MIN_SPLIT_N - 1), "--method", "mean-conditional"],
                 # at n <= 2 every linreg fit to the two covariates is exact
                 ["--n", "1", "--method", "linreg"],
                 ["--n", str(MIN_LINREG_N - 1), "--method", "linreg"],
                 ["--n", f"100,{MIN_LINREG_N - 1}", "--method", "linreg"],
                 # a repeated grid value, compared as a number
                 ["--b", "0.5,0.5"], ["--b", "0.5,1,0.50"], ["--n", "100,200,100"],
                 ["--tau", "0.5,0.50"], ["--tau", "0.25,0.5,0.25"]]
    )
    def test_bad_setting_rejected_before_any_replication(self, tmp_path, capsys, monkeypatch,
                                                         flag):
        import fusiongain.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("replications ran")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run)
        code = main(
            ["simulate", "--method", "quantile", "--b", "0", "--n", "100", "--reps", "3",
             "--seed", "1", "--out", str(tmp_path / "x")] + flag
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "UsageError"
        assert payload["message"].startswith(_usage_prefix(flag))
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("method", ["mean-linear", "mean-conditional", "quantile", "linreg"])
    def test_smallest_cross_fittable_n_runs(self, tmp_path, method):
        # the quantile's first half-sample holds exactly two rows per fold
        # (the mean shares its minimum); linreg has one row more than the
        # process has covariates
        n = MIN_LINREG_N if method == "linreg" else MIN_SPLIT_N
        code = main(
            ["simulate", "--method", method, "--b", "0.5", "--n", str(n), "--reps", "2",
             "--seed", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 0

    @pytest.mark.filterwarnings("error")
    def test_large_b_replications_give_answers(self, tmp_path, capsys):
        # a response of order 1e80 is scaled at the door, so no replication fails
        code = main(
            ["simulate", "--method", "mean-linear", "--b", "1e80", "--n", "100", "--reps", "2",
             "--seed", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_unwritable_out_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        code = main(
            ["simulate", "--method", "linreg", "--b", "0", "--n", "20", "--reps", "1",
             "--seed", "1", "--out", str(blocker / "out")]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IoError"

    def test_flagged_cell_warns(self, tmp_path, capsys, monkeypatch):
        import fusiongain.cli as cli

        def one_failure(table, reps, workers):
            return [CellResult(method="linreg", b=0.0, n=20, extra="", reps=reps, seed=1,
                               mae=0.1, sdae=0.0, al=0.2, cr=1.0, n_failed=1)]

        monkeypatch.setattr(cli, "run_monte_carlo", one_failure)
        code = main(
            ["simulate", "--method", "linreg", "--b", "0", "--n", "20", "--reps", "2",
             "--seed", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: cell linreg b=0.0 n=20 extra= had 1/2 failed replications\n"
        )

    def test_missing_required_flag(self, capsys):
        code = main(["simulate", "--method", "linreg"])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "UsageError"
