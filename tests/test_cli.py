"""End-to-end tests of the command line interface."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribary.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exact_bound_triple(fmt: str, out: str, keep_undefined: bool = False):
    """(lower, middle, upper) of a `cos` or `bounds` output as exact rationals,
    or None when the classification is undefined, unless keep_undefined.  The
    outer bounds are floats, printed so that they read back exactly."""
    if fmt == "json":
        data = json.loads(out)
        fields, classification = data["bounds"], data["classification"]
    elif fmt == "csv":
        header, row = list(csv.reader(io.StringIO(out)))
        data = dict(zip(header, row))
        fields = {key: data["bounds." + key] for key in ("lower", "middle", "upper")}
        classification = data["classification"]
    else:
        fields = dict(re.findall(r"\b(lower|middle|upper)(?:=|: )(\S+)", out))
        classification = re.search(r"classification: (\S+)", out).group(1)
    if classification == "undefined" and not keep_undefined:
        return None
    return (Fraction(float(fields["lower"])), Fraction(fields["middle"]),
            Fraction(float(fields["upper"])))


class TestDerive:
    def test_right_triangle_elements(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--sides", "3,4,5")
        assert code == 0
        assert "circumradius: 2.5" in out
        assert "inradius: 1" in out
        assert "equilateral: false" in out

    def test_equilateral_flag(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--sides", "1,1,1")
        assert code == 0
        assert "equilateral: true" in out

    def test_json_values(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--sides", "3,4,5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["semiperimeter"] == 6.0
        assert data["area"] == 6.0
        assert data["circumradius"] == 2.5
        assert data["inradius"] == 1.0
        assert [data["exradius_a"], data["exradius_b"], data["exradius_c"]] == [2.0, 3.0, 6.0]
        assert data["equilateral"] is False

    def test_exact_block(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--sides", "3,4,5",
                               "--exact", "--format", "json")
        assert code == 0
        exact = json.loads(out)["exact"]
        assert exact["circumradius_sq"] == "25/4"
        assert exact["area_sq"] == "36"
        assert exact["inradius_sq"] == "1"

    def test_csv_round_trips_values(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "--sides", "3,4,5", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["circumradius"]) == 2.5
        assert cells["equilateral"] == "false"

    def test_degenerate_sides_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "derive", "--sides", "1,1,2")
        assert code == 1
        assert "error:" in err

    def test_malformed_sides_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "derive", "--sides", "3,4")
        assert code == 2
        assert "error:" in err

    def test_non_finite_side_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "derive", "--sides", "3,4,inf")
        assert code == 2


class TestCenter:
    def test_incenter_weights(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--sides", "3,4,5",
                               "--spec", "incenter", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["weights"] == [3.0, 4.0, 5.0]
        assert data["weight_sum"] == 12.0
        assert data["normalized"] == pytest.approx([0.25, 1 / 3, 5 / 12])

    def test_excenter_vertex(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--sides", "3,4,5",
                               "--spec", "excenter:A", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "excenter"
        assert data["vertex"] == "A"
        assert data["weights"] == [-3.0, 4.0, 5.0]

    def test_cevian_exact_weights_are_strings(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--sides", "3,4,5", "--exact",
                               "--spec", "cevian:1,1,0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["weights"] == ["9", "8", "5"]

    def test_large_exact_cevian_rank_still_prints(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--sides", "3,4,5", "--exact",
                               "--spec", "cevian:1e3,0,0", "--format", "json")
        assert code == 0
        assert json.loads(out)["weights"] == [str(3**1000), str(4**1000), str(5**1000)]

    def test_raw_round_trip_preserves_normalized(self, capsys):
        _, out, _ = run_cli(capsys, "center", "--sides", "3,4,5",
                            "--spec", "nagel", "--format", "json")
        first = json.loads(out)
        raw = "raw:" + ",".join(repr(w) for w in first["weights"])
        _, out, _ = run_cli(capsys, "center", "--sides", "3,4,5",
                            "--spec", raw, "--format", "json")
        second = json.loads(out)
        assert second["normalized"] == first["normalized"]

    def test_unknown_spec_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "center", "--sides", "3,4,5", "--spec", "orthocenter")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("spec", ["\tNagel\r", " Nagel\r", "nagel\n", "\x0bnagel\x0b"])
    def test_spec_text_round_trips_through_csv_and_json(self, capsys, spec):
        argv = ("center", "--sides", "3,4,5", "--spec", spec, "--format")
        code, out, _ = run_cli(capsys, *argv, "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out, newline=""))
        assert row[header.index("spec")] == spec
        code, out, _ = run_cli(capsys, *argv, "json")
        assert code == 0
        assert json.loads(out)["spec"] == spec


class TestSubnormalText:
    """Float text whose value is a nonzero subnormal has lost digits: refused."""

    @pytest.mark.parametrize("argv", [
        ("center", "--sides", "3,4,5", "--spec", "raw:5e-324,7e-324,1e-323"),
        ("cos", "--sides", "3,4,5", "--p", "raw:5e-324,7e-324,1e-323", "--q", "incenter"),
        ("derive", "--sides", "3e-320,4e-320,5e-320"),
        ("center", "--sides", "3,4,5", "--spec", "cevian:-1e-310,0,0"),
        ("verify", "--count", "5", "--tolerance-scale", "1e-310"),
    ])
    def test_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error:" in err

    def test_corpus_cell_exit_two(self, capsys, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("a,b,c\n3,4,5\n3e-320,4e-320,5e-320\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", "--count", "2", "--corpus", str(path))
        assert code == 2
        assert "subnormal number '3e-320'" in err

    def test_exact_mode_reads_the_same_text(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--exact", "--sides", "3,4,5",
                               "--spec", "raw:5e-324,7e-324,1e-323", "--format", "json")
        assert code == 0
        assert json.loads(out)["normalized"] == ["5/22", "7/22", "5/11"]


class TestCos:
    def test_reference_angle(self, capsys):
        code, out, _ = run_cli(capsys, "cos", "--sides", "3,4,5",
                               "--p", "incenter", "--q", "nagel", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["cos"] == pytest.approx(0.4472135954999579, rel=1e-12)
        assert data["op_sq"] == pytest.approx(1.25, rel=1e-12)
        assert data["oq_sq"] == pytest.approx(0.25, rel=1e-9)
        assert data["pq_sq"] == pytest.approx(1.0, rel=1e-9)
        assert data["classification"] == "generic"
        assert abs(data["oracle_residual"]) < 1e-9

    def test_json_key_set(self, capsys):
        _, out, _ = run_cli(capsys, "cos", "--sides", "3,4,5",
                            "--p", "incenter", "--q", "nagel", "--format", "json")
        assert list(json.loads(out).keys()) == [
            "cos", "op_sq", "oq_sq", "pq_sq", "bounds",
            "classification", "oracle_residual",
        ]

    def test_exact_fields(self, capsys):
        code, out, _ = run_cli(capsys, "cos", "--sides", "3,4,5", "--exact",
                               "--p", "incenter", "--q", "nagel", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["op_sq"] == "5/4"
        assert data["oq_sq"] == "1/4"
        assert data["pq_sq"] == "1"
        assert data["bounds"]["middle"] == "1/2"

    def test_undefined_angle_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "cos", "--sides", "1,1,1",
                               "--p", "incenter", "--q", "centroid", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["cos"] is None
        assert data["classification"] == "undefined"

    def test_overflowing_raw_weights_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "cos", "--sides", "3,4,5",
                                 "--p", "raw:1e308,1e308,1e308", "--q", "incenter")
        assert code == 1
        assert out == ""
        assert "error:" in err and "not finite" in err

    def test_underflowing_cevian_weights_exit_one(self, capsys):
        for argv in [
            # 3^-700, 4^-700 and 5^-700 each underflow to 0.0: no weights the user typed
            ("cos", "--sides", "3,4,5", "--p", "cevian:-700,0,0", "--q", "incenter"),
            # 3^-675 and 3.0001^-675 are subnormal: normalized 0.514 0.486, not 0.506 0.494
            ("center", "--sides", "3,3.0001,5", "--spec", "cevian:-675,0,0"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == "error: cevian weights leave the float range\n"

    @pytest.mark.parametrize("argv", [
        ("cos", "--sides", "1e200,1e200,1e200", "--p", "incenter", "--q", "nagel"),
        ("cos", "--sides", "1e60,1e60,1.5e60", "--p", "incenter", "--q", "nagel"),
        ("cos", "--sides", "1e-200,1e-200,1.5e-200", "--p", "incenter", "--q", "nagel"),
        ("derive", "--exact", "--sides", "1e400,1e400,1e400"),
        ("cos", "--sides", "3,4,5", "--p", "cevian:700,0,0", "--q", "incenter"),
        ("center", "--sides", "3,4,5", "--spec", "cevian:1e6,0,0"),
        # exact powers past the int-string digit limit
        ("center", "--exact", "--sides", "3,4,5", "--spec", "cevian:1e4,0,0"),
        ("center", "--exact", "--sides", "3,4,5", "--spec", "cevian:1e9,0,0"),
        ("center", "--exact", "--sides", "3,4,5", "--spec", "cevian:3000,3000,3000"),
        # an exact weight times a float one past the float range
        ("center", "--exact", "--sides", "3,4,5", "--spec", "cevian:2,1e3,0.5"),
        ("cos", "--exact", "--sides", "3,4,5", "--p", "cevian:0,1e3,0.5", "--q", "incenter"),
        # a rank too long to print in the error message
        ("bounds", "--exact", "--sides", "3,4,5", "--p", "incenter", "--q", "cevian:0,0,1e4300"),
    ])
    def test_extreme_side_magnitudes_exit_one(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("cos", "--sides", "3,4,5", "--p", "raw:1e200,-1e200,1", "--q", "incenter"),
        ("bounds", "--sides", "3,4,5", "--p", "raw:1e308,-1e308,1", "--q", "incenter"),
        ("triple", "--sides", "3,4,5", "--p1", "raw:1e200,-1e200,1", "--p2", "incenter",
         "--p3", "centroid"),
        ("triple", "--exact", "--sides", "3,4,5", "--p1", "raw:1e200,-1e200,1",
         "--p2", "incenter", "--p3", "centroid"),
        ("cos", "--exact", "--sides", "3,4,5", "--p", "raw:1e200,-1e200,1", "--q", "cevian:0,0,0.5"),
        # the weights are finite, their normalized values are not
        ("center", "--sides", "3,4,5", "--spec", "raw:1e308,-1e308,1e-300"),
    ])
    def test_cancelling_weights_past_the_float_range_exit_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "float range" in err

    def test_collinear_same_side(self, capsys):
        code, out, _ = run_cli(capsys, "cos", "--sides", "5,5,6",
                               "--p", "incenter", "--q", "nagel", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["classification"] == "collinear_same_side"
        assert data["cos"] == 1.0

    @pytest.mark.parametrize("command", ["cos", "bounds"])
    def test_exact_only_spec_accepted(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--exact", "--sides", "3,4,5", "--p",
                                 "raw:1/3,1,1", "--q", "incenter", "--format", "json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["bounds"]["middle"] == "43/14"
        if command == "cos":
            assert abs(data["oracle_residual"]) < 1e-12

    @pytest.mark.parametrize("spec", ["raw:1e400,1,1", "raw:1e-400,1e-400,1e-400",
                                      "cevian:700,0,0"])
    def test_exact_point_without_float_image_has_no_residual(self, capsys, spec):
        code, out, err = run_cli(capsys, "cos", "--exact", "--sides", "3,4,5", "--p", spec,
                                 "--q", "incenter", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["oracle_residual"] is None

    @pytest.mark.parametrize("exact, classification", [
        (True, "generic"), (False, "collinear_same_side")])
    def test_near_collinear_classified_exactly_in_exact_mode(self, capsys, exact, classification):
        argv = ["cos", "--sides", "3,4,5", "--p", "raw:1,0,0", "--q", "raw:3,1,0.00001",
                "--format", "json"] + (["--exact"] if exact else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["classification"] == classification

    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    def test_exact_bounds_enclose_a_collinear_middle(self, capsys, fmt):
        # Q is the reflection of the incenter through O, so middle = -2 OI^2 = -upper
        # exactly; an upper rounded to nearest fell below |middle|.
        code, out, _ = run_cli(capsys, "cos", "--exact", "--sides", "30,40,24",
                               "--p", "incenter",
                               "--q", "raw:102495/128639,-79540/128639,105684/128639",
                               "--format", fmt)
        assert code == 0
        lower, middle, upper = exact_bound_triple(fmt, out)
        assert middle == Fraction(-24854400, 128639)
        assert lower <= middle <= upper

    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    @pytest.mark.parametrize("points", [
        ("cos", "--p", "cevian:{},0,0", "--q", "incenter"),
        ("triple", "--p1", "cevian:{},0,0", "--p2", "incenter", "--p3", "centroid"),
    ], ids=["cos", "triple"])
    def test_exact_call_with_a_float_point_runs_in_float_mode(self, capsys, points, fmt):
        # a rank of 1/2 gives float weights, so the exact call is the float call
        command, *flags = points
        exact = run_cli(capsys, command, "--exact", "--sides", "3,4,5", "--format", fmt,
                        *(flag.format("1/2") for flag in flags))
        floats = run_cli(capsys, command, "--sides", "3,4,5", "--format", fmt,
                         *(flag.format("0.5") for flag in flags))
        assert exact == floats
        assert exact[0] == 0

    def test_exact_weight_without_float_image_in_float_mode_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "cos", "--exact", "--sides", "3,4,5",
                                 "--p", "raw:1e400,1,1", "--q", "cevian:1/2,0,0")
        assert (code, out) == (1, "")
        assert err.startswith("error: weights (") and err.endswith("have no float image\n")

    def test_raw_vertices_give_side_square(self, capsys):
        _, out, _ = run_cli(capsys, "cos", "--sides", "3,4,5",
                            "--p", "raw:1,0,0", "--q", "raw:0,1,0", "--format", "json")
        assert json.loads(out)["pq_sq"] == pytest.approx(25.0, rel=1e-12)


class TestExactExponent:
    """Exact numbers with an exponent past the int-string digit limit are
    refused before Fraction expands them, so they fail fast."""

    @pytest.mark.parametrize("argv", [
        ("center", "--exact", "--sides", "3,4,5", "--spec", "raw:1e10000000,1,1"),
        ("derive", "--exact", "--sides", "1e10000000,1,1"),
        ("cos", "--exact", "--sides", "3,4,5", "--p", "raw:1e-300000,1,1", "--q", "incenter"),
        ("bounds", "--exact", "--sides", "3,4,0e99999", "--p", "incenter", "--q", "nagel"),
    ])
    def test_refused_fast_with_exit_one(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert "exponent past the" in err

    def test_corpus_cell_refused_fast(self, capsys, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("a,b,c\n1e-10000000,1,1\n", encoding="utf-8")
        started = time.perf_counter()
        code, _, err = run_cli(capsys, "verify", "--count", "2", "--corpus", str(path))
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert "exponent past the" in err

    def test_float_mode_reads_the_same_text(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--sides", "3,4,5",
                               "--spec", "raw:1e-300000,1,1", "--format", "json")
        assert code == 0
        assert json.loads(out)["weights"] == [0.0, 1.0, 1.0]


class TestBounds:
    def test_reference_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--sides", "3,4,5",
                               "--p", "incenter", "--q", "nagel", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["bounds"]["middle"] == pytest.approx(0.5, rel=1e-9)
        assert data["bounds"]["upper"] == pytest.approx(1.118033988749895, rel=1e-9)
        assert data["bounds"]["lower"] == pytest.approx(-1.118033988749895, rel=1e-9)
        assert data["classification"] == "generic"

    def test_undefined_still_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--sides", "1,1,1",
                               "--p", "incenter", "--q", "centroid", "--format", "json")
        assert code == 0
        assert json.loads(out)["classification"] == "undefined"


class TestTriple:
    def test_nagel_line_is_straight(self, capsys):
        code, out, _ = run_cli(capsys, "triple", "--sides", "3,4,5",
                               "--p1", "incenter", "--p2", "centroid",
                               "--p3", "nagel", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["cos"] == pytest.approx(-1.0, abs=1e-12)
        assert data["d23_sq"] == pytest.approx(4.0 * data["d12_sq"], rel=1e-9)

    def test_coincident_points_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "triple", "--sides", "3,4,5",
                               "--p1", "incenter", "--p2", "incenter", "--p3", "nagel")
        assert code == 1
        assert "error:" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--count", "20", "--seed", "3")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("result: pass")

    def test_json_report_structure(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--count", "20", "--seed", "3",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["config"]["count"] == 20
        assert data["config"]["seed"] == 3
        assert data["summary"]["pass"] is True
        assert len(data["checks"]) == data["summary"]["checks"]

    def test_repeat_runs_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--count", "30", "--format", "json")
        _, second, _ = run_cli(capsys, "verify", "--count", "30", "--format", "json")
        assert first == second

    def test_suite_filter(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--count", "20",
                               "--suite", "dual", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["config"]["suites"] == ["dual"]
        assert all(check["suite"] == "dual" for check in data["checks"])

    def test_strata_filter(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--count", "15",
                               "--strata", "uniform,integer_sides", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["config"]["strata"] == ["uniform", "integer_sides"]
        assert data["summary"]["contexts"] == 30

    def test_csv_rows_match_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--count", "15",
                               "--suite", "kernel", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("name,suite,tolerance")
        assert len(lines) == 1 + 14

    def test_failing_run_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--count", "20",
                               "--tolerance-scale", "1e-18")
        assert code == 3
        assert out.strip().splitlines()[-1].startswith("result: fail")

    def test_corpus_stratum(self, capsys, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("a,b,c\n3,4,5\n5,5,6\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--count", "10",
                               "--corpus", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["config"]["corpus_rows"] == 2

    def test_bad_corpus_header_exit_two(self, capsys, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("x,y,z\n3,4,5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", "--count", "10", "--corpus", str(path))
        assert code == 2
        assert "error:" in err

    def test_degenerate_corpus_row_exit_one(self, capsys, tmp_path):
        path = tmp_path / "corpus.csv"
        for row in ("1,1,2", "1e-5000,1,1", "1e-4000,1,1"):
            path.write_text(f"a,b,c\n{row}\n", encoding="utf-8")
            code, _, err = run_cli(capsys, "verify", "--count", "10", "--corpus", str(path))
            assert code == 1, row
            assert err.startswith("error:")

    def test_unreadable_corpus_exit_two(self, capsys, tmp_path):
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe")
        for path in (tmp_path / "missing.csv", tmp_path, binary):
            code, _, err = run_cli(capsys, "verify", "--count", "10", "--corpus", str(path))
            assert code == 2
            assert "cannot read" in err

    def test_non_finite_tolerance_scale_exit_two(self, capsys):
        for value in ("inf", "nan", "x"):
            assert run_cli(capsys, "verify", "--count", "5", "--tolerance-scale", value)[0] == 2

    def test_bad_count_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--count", "-5")
        assert code == 2
        assert "error:" in err


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_verify_output_does_not_depend_on_the_cpus(tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("a,b,c\n3,4,5\n1,1,2\n5,5,6\n1,2,4\n", encoding="utf-8")
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "tribary.cli", "verify", "--count", "20", "--seed", "3"]
    for extra in (["--format", "human"], ["--format", "json"], ["--format", "csv"],
                  ["--corpus", str(corpus)]):
        runs = [subprocess.run(command + extra, env=env, capture_output=True, preexec_fn=pin)
                for pin in (None, lambda: os.sched_setaffinity(0, {cpu}))]
        normal, pinned = ((run.returncode, run.stdout, run.stderr) for run in runs)
        assert normal == pinned, extra
    # the last run reads the corpus, whose first bad row is 1,1,2
    assert normal == (1, b"", b"error: triangle inequality fails for (1.0, 1.0, 2.0)\n")


class TestUsage:
    def test_no_arguments_exit_two(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command_exit_two(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 2

    def test_bad_suite_choice_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "everything")
        assert code == 2
        assert "unknown suite" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "derive" in out


_NUMBERS = st.one_of(
    st.sampled_from(["3", "4", "5", "1/3", "0", "-1", "nan", "inf", "-inf", "1e308", "1e-320",
                     "1e400", "1e-5000", "1e4300", "1e10000000", "0e99999", "", "x", " 2 "]),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.fractions(max_denominator=10**6).map(str),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-20000, 20000)),
)
_SIDES = st.one_of(
    st.sampled_from(["3,4,5", "5,5,6", "1,1,1", "2.5,3,4", "1,1,2", "3,4", "1/3,1/2,2/3"]),
    st.lists(_NUMBERS, min_size=3, max_size=3).map(",".join),
)
_POINTS = st.one_of(
    st.sampled_from(["incenter", "centroid", "nagel", "lemoine", " Nagel ", "orthocenter", ""]),
    # finite weights whose normalized values or squared legs pass the float range
    st.sampled_from(["raw:1e308,-1e308,1", "raw:1e200,-1e200,1", "raw:1e308,-1e308,1e-300"]),
    st.builds("{}:{}".format, st.sampled_from(["excenter", "adjnagel", "incenter"]),
              st.sampled_from(["A", "B", "c", "D", ""])),
    st.builds("raw:{}".format, st.lists(_NUMBERS, min_size=2, max_size=4).map(",".join)),
    st.builds("cevian:{}".format, st.lists(
        st.one_of(st.sampled_from(["0", "1", "2", "-3", "0.5", "1e3", "700", "1e4"]), _NUMBERS),
        min_size=3, max_size=3).map(",".join)),
)
_FLAGS = {"derive": (), "center": ("spec",), "cos": ("p", "q"), "bounds": ("p", "q"),
          "triple": ("p1", "p2", "p3")}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, f"--sides={draw(_SIDES)}",
            "--format", draw(st.sampled_from(["human", "json", "csv"]))]
    if draw(st.booleans()):
        argv.append("--exact")
    return argv + [f"--{flag}={draw(_POINTS)}" for flag in _FLAGS[command]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argvs())
def test_any_geometry_input_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert code == 0 or out.getvalue() or "error:" in err.getvalue()
    if code == 0 and argv[0] in ("cos", "bounds") and "--exact" in argv:
        triple = exact_bound_triple(argv[argv.index("--format") + 1], out.getvalue())
        assert triple is None or triple[0] <= triple[1] <= triple[2]


_RANKS = st.integers(-3, 3).map(str)
_WEIGHTS = st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str)
_GRAMMAR_POINTS = st.one_of(
    st.sampled_from(["incenter", "centroid", "nagel", "lemoine"]),
    st.builds("{}:{}".format, st.sampled_from(["excenter", "adjnagel"]), st.sampled_from("ABC")),
    st.builds("cevian:{},{},{}".format, _RANKS, _RANKS, _RANKS),
    st.builds("raw:{},{},{}".format, _WEIGHTS, _WEIGHTS, _WEIGHTS),
)


@st.composite
def _integer_triangles(draw):
    a, b = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    return f"{a},{b},{draw(st.integers(abs(a - b) + 1, min(a + b - 1, 60)))}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["cos", "bounds"]), _integer_triangles(), _GRAMMAR_POINTS, _GRAMMAR_POINTS,
       st.sampled_from(["human", "json", "csv"]))
def test_exact_bound_triple_holds_on_valid_triangles(command, sides, p, q, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--exact", "--sides", sides, "--p", p, "--q", q, "--format", fmt])
    assert code in (0, 1), err.getvalue()
    if code == 0:
        lower, middle, upper = exact_bound_triple(fmt, out.getvalue(), keep_undefined=True)
        assert lower <= middle <= upper
