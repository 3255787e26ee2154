"""Command-line surface: table formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volterra_alpha
from volterra_alpha import errors, gram
from volterra_alpha.cli import _error_json, build_parser, emit_table, main, parse_alpha_spec
from volterra_alpha.errors import IterationLimitError, SearchHorizonError


def _refuse(constant):
    raise AssertionError(f"{constant} is not JSON")


class TestAlphaSpec:
    def test_single_value(self):
        assert parse_alpha_spec("0.5") == [0.5]

    def test_linear_sweep(self):
        vals = parse_alpha_spec("0.1:1:4")
        assert vals == pytest.approx([0.1, 0.4, 0.7, 1.0])

    def test_log_sweep(self):
        vals = parse_alpha_spec("log:0.01:100:5")
        assert vals == pytest.approx([0.01, 0.1, 1.0, 10.0, 100.0], rel=1e-12)

    def test_infinity(self):
        assert parse_alpha_spec("inf") == [math.inf]

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_alpha_spec("log:0:1:3")


class TestEmitTable:
    def test_seventeen_digit_round_trip(self):
        rows = [{"x": 2.0 / math.pi, "label": "a"}]
        buf = io.StringIO()
        emit_table(rows, ["x", "label"], "json", buf)
        parsed = json.loads(buf.getvalue())
        assert parsed[0]["x"] == 2.0 / math.pi  # exact round trip
        assert parsed[0]["label"] == "a"

    def test_csv_header_and_nulls(self):
        rows = [{"x": 1.5, "y": None}]
        buf = io.StringIO()
        emit_table(rows, ["x", "y"], "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1.5,"

    def test_non_finite_floats(self):
        rows = [{"a": math.inf, "b": -math.inf, "c": math.nan}]
        buf = io.StringIO()
        emit_table(rows, ["a", "b", "c"], "json", buf)
        assert buf.getvalue() == '[\n{"a": 1e999, "b": -1e999, "c": null}\n]\n'
        parsed = json.loads(buf.getvalue(), parse_constant=_refuse)[0]
        assert parsed == {"a": math.inf, "b": -math.inf, "c": None}
        buf = io.StringIO()
        emit_table(rows, ["a", "b", "c"], "csv", buf)
        assert buf.getvalue() == "a,b,c\ninf,-inf,nan\n"


class TestCommands:
    def test_norm_json(self, capsys):
        assert main(["norm", "--alpha", "1", "--format", "json"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out)
        assert rows[0]["alpha"] == 1.0
        assert rows[0]["norm22"] == pytest.approx(2.0 / math.pi, abs=1e-8)
        assert rows[0]["lower"] <= rows[0]["norm22"] <= rows[0]["upper"]

    def test_hzeros(self, capsys):
        assert main(["hzeros", "--alpha", "1", "--count", "2", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        zeros = [r["zero"] for r in rows]
        assert zeros == pytest.approx([0.61685, 5.55165], abs=1e-4)

    def test_sandwich_sweep_ordering(self, capsys):
        assert (
            main(
                [
                    "sandwich",
                    "--alpha",
                    "0.25:1:4",
                    "--p",
                    "3",
                    "--q",
                    "4",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert [r["alpha"] for r in rows] == pytest.approx([0.25, 0.5, 0.75, 1.0])
        assert all(r["preferred"] == "holder" for r in rows)

    def test_spectrum_subunit(self, capsys):
        assert (
            main(
                ["spectrum", "--alpha", "0.5", "--count", "3", "--grid-n", "512", "--format", "json"]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert [r["eigenvalue"] for r in rows] == pytest.approx([0.5, 0.25, 0.125])
        assert all(r["abs_err"] <= 2e-3 for r in rows)

    def test_spectrum_non_normal_near_unit_alpha(self, capsys):
        # a dense eigensolver reports |lambda| = 0.0208 here, above the
        # Gelfand bound 0.0119, as part of a spurious complex pair
        argv = ["spectrum", "--alpha", "0.99", "--grid-n", "512", "--count", "5"]
        assert main([*argv, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 5
        assert all(r["abs_err"] <= 2e-3 for r in rows)

    def test_spectrum_quasinilpotent(self, capsys):
        assert (
            main(["spectrum", "--alpha", "1.5", "--grid-n", "256", "--format", "json"]) == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["index"] == -1
        assert rows[0]["oracle"] <= 5e-3

    def test_kernel_table(self, capsys):
        assert (
            main(["kernel", "--alpha", "1", "--n", "2", "--format", "json"]) == 0
        )
        rows = json.loads(capsys.readouterr().out)
        by_xy = {(r["x"], r["y"]): r["value"] for r in rows}
        assert by_xy[(1.0, 0.5)] == pytest.approx(0.5)  # K_2(x,y) = x - y on y <= x
        assert by_xy[(0.25, 0.75)] == 0.0

    def test_gram_command(self, capsys):
        assert (
            main(["gram", "--alpha", "1", "--count", "2", "--grid-n", "1024", "--format", "json"])
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["eigenvalue"] == pytest.approx(4.0 / math.pi**2, rel=1e-9)
        assert all(r["residual"] <= 5e-3 for r in rows)

    def test_gram_command_scans_once(self, capsys, monkeypatch):
        calls = []
        scan = gram.find_zeros

        def counted(alpha, count):
            calls.append(count)
            return scan(alpha, count)

        monkeypatch.setattr(gram, "find_zeros", counted)
        assert main(["gram", "--alpha", "0.7", "--count", "4"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 4
        assert calls == [4]

    def test_iterates_command(self, capsys):
        assert (
            main(
                ["iterates", "--alpha", "2", "--n", "12", "--grid-n", "256", "--format", "json"]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["n"] == 2
        for r in rows:
            assert r["log_lower"] <= r["log_upper"]
            assert r["target"] == pytest.approx(-math.log(2.0) / 2.0)
            if r["n"] <= 6:
                assert r["oracle_log"] is not None
            else:
                assert r["oracle_log"] is None

    def test_unresolved_iterate_is_refused(self, capsys):
        # the 2048-point grid does not resolve alpha^6 = 46656: the oracle
        # read log ||M^6|| = -42.02 against the lower bound -37.12
        assert main(["iterates", "--alpha", "6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["type"] == "NumericsError"

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        assert main(["norm", "--alpha", "1", "--format", "csv", "--out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("alpha,norm22,lower,upper")
        assert capsys.readouterr().out == ""

    def test_computation_error_exit_code(self, capsys):
        # norm at alpha = 0 is a domain error: exit 1, JSON error on stderr
        assert main(["norm", "--alpha", "0"]) == 1
        err = capsys.readouterr().err
        assert json.loads(err)["type"] == "DomainError"

    def test_infinite_alpha_kernel_is_domain_error(self, capsys):
        assert main(["kernel", "--alpha", "inf"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err)["type"] == "DomainError"
        assert captured.out == ""

    def test_error_json_carries_partial_result(self):
        err = IterationLimitError('no "settle"', estimate=0.25)
        assert json.loads(_error_json(err)) == {
            "error": 'no "settle"',
            "type": "IterationLimitError",
            "estimate": 0.25,
        }
        err = SearchHorizonError("horizon", partial=[1.5, math.nan])
        assert json.loads(_error_json(err))["partial"] == [1.5, None]

    @pytest.mark.parametrize(
        "argv",
        [
            "kernel --alpha 1e300 --n 3",
            "kernel --alpha 1e308 --n 3",
            "gram --alpha 1e300 --count 1",
            "iterates --alpha 1e300 --n 12",
            "norm --alpha 1e-300",
            "hzeros --alpha 1e-300",
            "gram --alpha 1e-300",
        ],
    )
    def test_extreme_alpha_is_a_table_or_a_library_error(self, argv, capsys):
        code = main(argv.split())
        captured = capsys.readouterr()
        if code == 0:
            for row in json.loads(captured.out):
                for value in row.values():
                    assert value is None or math.isfinite(value)
        else:
            assert code == 1 and captured.out == ""
            error_type = getattr(errors, json.loads(captured.err)["type"])
            assert issubclass(error_type, (errors.DomainError, errors.NumericsError))

    @pytest.mark.parametrize("command", ["sandwich", "norm"])
    def test_largest_alpha_bounds_are_finite(self, command, capsys):
        # lgamma(alpha + 1) overflowed here, and alpha q overflows the Holder bound
        assert main([command, "--alpha", "1e308"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert 0.0 < row["lower"] <= row.get("norm22", row["lower"]) <= row["upper"] < 1e-150

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("norm --alpha 1e-300", 0),
            ("gram --alpha 1e-300 --count 1", 0),
            ("hzeros --alpha 1e-305 --count 1", 0),
            ("hzeros --alpha 1e-300 --count 2", 0),
            ("hzeros --alpha 5e-309 --count 1", 1),  # 1/c overflows
        ],
    )
    def test_tiny_alpha_exit_code(self, argv, code, capsys):
        assert main(argv.split()) == code
        captured = capsys.readouterr()
        if code:
            assert json.loads(captured.err)["type"] == "DomainError"
        elif argv.startswith("hzeros"):
            # h_0 = c (1 + c/2 + ...) is c to rounding
            row = json.loads(captured.out)[0]
            c = row["alpha"] / (1.0 + row["alpha"])
            assert row["zero"] == pytest.approx(c, rel=2.0**-52)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["nonsense"])
        assert exc.value.code == 2

    def test_jobs_option_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--alpha", "0.5", "--jobs", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["hzeros", "spectrum", "sandwich"])
    def test_infinite_alpha_table_is_json(self, command, capsys):
        assert main([command, "--alpha", "inf"]) == (1 if command == "sandwich" else 0)
        captured = capsys.readouterr()
        if command == "sandwich":  # the Beta bound is NaN at alpha = inf
            assert json.loads(captured.err)["type"] == "DomainError"
        else:
            rows = json.loads(captured.out, parse_constant=_refuse)
            assert all(row["alpha"] == math.inf for row in rows)


# the flags each command reads; every command also takes --format and --out
FLAGS = {
    "norm": {"--alpha"},
    "sandwich": {"--alpha", "--p", "--q"},
    "spectrum": {"--alpha", "--count", "--grid-n"},
    "gram": {"--alpha", "--count", "--grid-n"},
    "kernel": {"--alpha", "--n"},
    "hzeros": {"--alpha", "--count"},
    "iterates": {"--alpha", "--p", "--n", "--grid-n"},
    "verify": {"--grid-n", "--seed"},
}


class TestFlags:
    def test_each_command_declares_only_its_flags(self):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        assert set(sub.choices) == set(FLAGS)
        total = 0
        for name, parser in sub.choices.items():
            options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            assert options == FLAGS[name] | {"--format", "--out"}
            total += len(options)
        assert total == 36

    def test_grid_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["verify"]).grid_n == 1024
        assert parser.parse_args(["spectrum"]).grid_n == 2048

    @pytest.mark.parametrize(
        "argv",
        [
            "norm --p 3",
            "verify --alpha 0.3",
            "hzeros --grid-n 8",
            "gram --tol 1e-3",
            "iterates --q 4",
            # no command takes a tolerance: each route runs to its own
            "spectrum --tol 1e-8",
            "iterates --tol 1e-8",
        ],
    )
    def test_unread_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --count 0",
            "gram --count 0",
            "gram --grid-n 8",
            "iterates --n 0",
        ],
    )
    def test_bad_read_flag_value_is_domain_error(self, argv, capsys):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["type"] == "DomainError"


# the seven commands that take --alpha, at sizes that run in milliseconds
ALPHA_COMMANDS = [
    "norm",
    "sandwich",
    "spectrum --count 1 --grid-n 64",
    "gram --count 1 --grid-n 64",
    "kernel --n 10",
    "hzeros --count 2",
    "iterates --n 10 --grid-n 64",
]
EXTREME_ALPHAS = [math.inf, -math.inf, math.nan, 0.0, -1.0, 5e-324, 1e-320]


@pytest.mark.parametrize("command", ALPHA_COMMANDS)
@given(
    alpha=st.sampled_from(EXTREME_ALPHAS)
    | st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
)
@settings(max_examples=25, deadline=None)
def test_any_alpha_gives_a_json_table_or_a_library_error(command, alpha):
    """Exit 0 with strict JSON on stdout and nothing on stderr, or exit 1
    with one library-error object on stderr; nothing else escapes."""
    name, *rest = command.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([name, f"--alpha={alpha!r}", *rest])
    assert caught == []
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_refuse)
    else:
        assert code == 1 and out.getvalue() == ""
        error_type = getattr(errors, json.loads(err.getvalue())["type"])
        assert issubclass(error_type, (errors.DomainError, errors.NumericsError))


class TestDeterminism:
    def test_byte_identical_sweep(self, capsys):
        args = ["sandwich", "--alpha", "log:0.1:10:7", "--p", "2.5", "--q", "1.5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(volterra_alpha.__file__))
    code = "import sys, volterra_alpha.cli; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
