"""Tests for the seeded fuzz verification harness."""

import hashlib
import os
import random
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from tribary import blundon, centers, kernel, verify
from tribary.errors import GeometryError
from tribary.kernel import BaryPoint, TriangleSides
from tribary.verify import (
    VALID_STRATA,
    VALID_SUITES,
    CorpusFormatError,
    FuzzConfig,
    _exact_decade,
    _integer_sides,
    _isosceles_sides,
    _near_degenerate_sides,
    _near_equilateral_sides,
    _run_fuzz,
    _uniform_sides,
    load_corpus,
    run_fuzz,
)

SMALL = FuzzConfig(count=40, seed=7)


class TestFuzzConfig:
    def test_defaults_cover_all_strata(self):
        config = FuzzConfig()
        assert config.strata == VALID_STRATA
        assert config.enabled_suites() == VALID_SUITES

    def test_suite_subset_keeps_canonical_order(self):
        config = FuzzConfig(suites=("cevian", "kernel"))
        assert config.enabled_suites() == ("kernel", "cevian")

    def test_all_wins_over_subset(self):
        assert FuzzConfig(suites=("dual", "all")).enabled_suites() == VALID_SUITES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"count": 0},
            {"count": -3},
            {"strata": ()},
            {"strata": ("uniform", "volcanic")},
            {"strata": ("uniform", "uniform")},
            {"suites": ()},
            {"suites": ("kernel", "everything")},
            {"tolerance_scale": 0.0},
            {"tolerance_scale": -1.0},
            {"exact_stride": 0},
            {"corpus": (("3", "4"),)},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            FuzzConfig(**kwargs)

    def test_corpus_rows_coerced_to_tuples(self):
        config = FuzzConfig(corpus=[["3", "4", "5"]])
        assert config.corpus == (("3", "4", "5"),)


class TestSamplers:
    def test_decade_range_and_exactness(self):
        rng = random.Random("decade-check")
        for _ in range(200):
            value = _exact_decade(rng)
            assert isinstance(value, Fraction)
            assert Fraction(1, 10 ** 8) <= value < Fraction(1, 100)

    @pytest.mark.parametrize(
        "sampler",
        [_uniform_sides, _near_degenerate_sides, _near_equilateral_sides, _isosceles_sides],
    )
    def test_rescaled_strata_have_exact_perimeter_two(self, sampler):
        rng = random.Random("perimeter-check")
        for _ in range(50):
            sides = sampler(rng)
            assert isinstance(sides.a, Fraction)
            assert sides.a + sides.b + sides.c == 2

    def test_near_degenerate_gap_is_the_drawn_decade(self):
        rng = random.Random("gap-check")
        for _ in range(50):
            sides = _near_degenerate_sides(rng)
            gap = sides.a + sides.b - sides.c
            assert Fraction(1, 10 ** 8) <= gap < Fraction(1, 100)

    def test_integer_sides_are_integral_and_valid(self):
        rng = random.Random("integer-check")
        for _ in range(50):
            sides = _integer_sides(rng)
            assert all(v.denominator == 1 for v in sides.as_tuple())
            assert isinstance(sides, TriangleSides)

    def test_same_seed_reproduces_sides(self):
        one = _uniform_sides(random.Random("7:uniform:3"))
        two = _uniform_sides(random.Random("7:uniform:3"))
        assert one == two


class TestLoadCorpus:
    def write(self, tmp_path, text):
        path = tmp_path / "corpus.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_reads_rows_as_strings(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n3,4,5\n1.5, 1.5 ,2.4\n")
        assert load_corpus(path) == (("3", "4", "5"), ("1.5", "1.5", "2.4"))
        path.write_bytes(b"\xef\xbb\xbfa,b,c\r\n3,4,5\r\n")  # "CSV UTF-8": a byte-order mark
        assert load_corpus(path) == (("3", "4", "5"),)

    def test_skips_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n\n3,4,5\n\n")
        assert load_corpus(path) == (("3", "4", "5"),)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x,y,z\n3,4,5\n",
            "a,b\n3,4\n",
            "a,b,c\n",
            "a,b,c\n3,4\n",
            "a,b,c\n3,4,banana\n",
            "a,b,c\n3,4,inf\n",
        ],
    )
    def test_rejects_malformed_files(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(CorpusFormatError):
            load_corpus(path)

    def test_format_error_is_a_value_error(self):
        assert issubclass(CorpusFormatError, ValueError)


class TestRunFuzz:
    def test_small_run_passes(self):
        report = run_fuzz(SMALL)
        assert report.passed
        assert report.failed_names == ()
        assert report.contexts == SMALL.count * len(VALID_STRATA)

    def test_repeat_runs_are_byte_identical(self):
        config = FuzzConfig(count=50, seed=11)
        assert run_fuzz(config).to_json() == run_fuzz(config).to_json()

    def test_report_bytes_are_pinned(self):
        """Refactors keep the report byte for byte; a change that alters it on
        purpose updates this digest and says why."""
        report = run_fuzz(FuzzConfig(count=200, seed=7)).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "24efc073bc7ff482ca86cdb453de87a79543741ed63e1085d469945b9134581c")

    def test_seed_changes_output(self):
        base = run_fuzz(FuzzConfig(count=30, seed=1)).to_json()
        other = run_fuzz(FuzzConfig(count=30, seed=2)).to_json()
        assert base != other

    def test_suite_results_do_not_depend_on_selection(self):
        full = run_fuzz(FuzzConfig(count=30, seed=5))
        only_dual = run_fuzz(FuzzConfig(count=30, seed=5, suites=("dual",)))
        full_dual = [c.to_data() for c in full.checks if c.suite == "dual"]
        assert [c.to_data() for c in only_dual.checks] == full_dual

    def test_suite_subset_restricts_checks(self):
        report = run_fuzz(FuzzConfig(count=20, suites=("kernel",)))
        assert {c.suite for c in report.checks} == {"kernel"}

    def test_corpus_rows_form_extra_stratum(self):
        config = FuzzConfig(count=20, corpus=(("3", "4", "5"), ("5", "5", "6")))
        report = run_fuzz(config)
        assert report.contexts == 20 * len(VALID_STRATA) + 2
        assert report.passed

    def test_degenerate_corpus_row_raises_domain_error(self):
        config = FuzzConfig(count=5, corpus=(("1", "1", "2"),))
        with pytest.raises(GeometryError):
            run_fuzz(config)

    def test_exact_checks_follow_stride(self):
        config = FuzzConfig(count=20, exact_stride=8)
        report = run_fuzz(config)
        per_stratum = len(range(0, config.count, config.exact_stride))
        exact = {c.name: c for c in report.checks if c.tolerance == 0.0 and not c.advisory}
        for check in exact.values():
            assert check.samples == per_stratum * len(VALID_STRATA)

    def test_diagnostics_are_advisory_and_never_fail(self):
        report = run_fuzz(SMALL)
        diagnostics = [c for c in report.checks if c.name.startswith("diag_")]
        assert len(diagnostics) == 3
        for check in diagnostics:
            data = check.to_data()
            assert data["advisory"] is True
            assert data["pass"] is True
            assert data["note"]

    def test_radicand_diagnostic_counts_every_context(self):
        report = run_fuzz(SMALL)
        check = next(c for c in report.checks if c.name == "diag_centroid_lemoine_radicand")
        total = sum(check.counters.values())
        assert total == report.contexts

    def test_every_check_runs_once_per_context_it_applies_to(self):
        config = FuzzConfig(count=32, seed=7)
        report = run_fuzz(config)
        stride_contexts = len(range(0, config.count, config.exact_stride)) * len(VALID_STRATA)
        for check in report.checks:
            exact = check.tolerance == 0.0 and not check.advisory
            expected = stride_contexts if exact else report.contexts
            assert check.samples + check.skipped == expected, check.name
            if not check.advisory:
                assert check.samples > 0, check.name

    def test_triple_diagnostic_sees_large_disagreement(self):
        report = run_fuzz(SMALL)
        check = next(c for c in report.checks if c.name == "diag_triple_expansion_sign")
        assert check.max_abs_residual > 1.0

    def test_report_echoes_config(self):
        config = FuzzConfig(count=25, seed=3, suites=("classical",), corpus=(("3", "4", "5"),))
        data = run_fuzz(config).to_data()
        assert data["config"]["count"] == 25
        assert data["config"]["seed"] == 3
        assert data["config"]["suites"] == ["classical"]
        assert data["config"]["corpus_rows"] == 1
        assert data["summary"]["pass"] is True

    def test_crushed_tolerance_scale_fails_float_checks(self):
        report = run_fuzz(FuzzConfig(count=30, tolerance_scale=1e-18))
        assert not report.passed
        assert len(report.failed_names) > 0
        for name in report.failed_names:
            assert not name.startswith("diag_")


class SliceError(ArithmeticError):
    """Raised by the test checks below in some processes and not in others."""


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers need os.fork")
class TestWorkers:
    # 7 samples per stratum and 2 corpus rows: no worker count below divides both.
    CONFIG = FuzzConfig(count=7, seed=13, exact_stride=3,
                        corpus=(("3", "4", "5"), ("5", "5", "6")))

    def test_report_does_not_depend_on_the_worker_count(self):
        serial = _run_fuzz(self.CONFIG, 1).to_json()
        for workers in (2, 3, 9):
            assert _run_fuzz(self.CONFIG, workers).to_json() == serial, workers
        assert run_fuzz(self.CONFIG).to_json() == serial

    def test_first_degenerate_corpus_row_is_named_whatever_the_workers(self):
        rows = (("3", "4", "5"), ("1", "1", "2"), ("3", "4", "5"), ("1", "2", "4"))
        config = FuzzConfig(count=3, seed=2, corpus=rows)
        raised = []
        for workers in (1, 2, 3):
            with pytest.raises(GeometryError) as info:
                _run_fuzz(config, workers)
            raised.append((type(info.value), str(info.value)))
        assert raised == [raised[0]] * 3
        assert "(1.0, 1.0, 2.0)" in raised[0][1]

    def test_error_in_a_child_slice_reaches_the_parent(self, monkeypatch):
        parent = os.getpid()

        def raise_in_child(ctx):
            if os.getpid() != parent:
                raise SliceError(f"child {ctx.stratum}")
            return None

        monkeypatch.setattr(verify, "_CHECKS", [(raise_in_child, "kernel", 1e-9, None)])
        with pytest.raises(SliceError, match="child uniform"):
            _run_fuzz(FuzzConfig(count=4, seed=1), 2)
        _assert_no_child_left()

    def test_first_error_in_stratum_order_wins(self, monkeypatch):
        parent = os.getpid()

        def raise_late_in_parent(ctx):
            # The parent's share fails in a later stratum than the child's.
            if os.getpid() == parent and ctx.stratum == "isosceles":
                raise SliceError("parent isosceles")
            if os.getpid() != parent and ctx.stratum == "near_degenerate":
                raise SliceError("child near_degenerate")
            return None

        monkeypatch.setattr(verify, "_CHECKS", [(raise_late_in_parent, "kernel", 1e-9, None)])
        with pytest.raises(SliceError, match="child near_degenerate"):
            _run_fuzz(FuzzConfig(count=4, seed=1), 2)

    def test_one_worker_per_cpu_and_none_beside_another_thread(self):
        assert verify._worker_count(1) == 1
        assert 1 <= verify._worker_count(10 ** 6) <= os.cpu_count()
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert verify._worker_count(10 ** 6) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_every_child_is_reaped(self):
        assert _run_fuzz(FuzzConfig(count=6, seed=3), 3).passed
        _assert_no_child_left()
        with pytest.raises(GeometryError):
            _run_fuzz(FuzzConfig(count=6, seed=3, corpus=(("1", "1", "2"),) * 3), 3)
        _assert_no_child_left()


def test_pow_keep_exact_calls_per_thousand_contexts(monkeypatch):
    """Float cevian weights take no pow_keep_exact call, so 1000 contexts make at
    most 71,074 (116,074 while each float weight took three).  Counts repeat
    exactly where timings do not."""
    calls = [0]
    original = kernel.pow_keep_exact

    def counted(base, exponent):
        calls[0] += 1
        return original(base, exponent)

    monkeypatch.setattr(kernel, "pow_keep_exact", counted)
    monkeypatch.setattr(centers, "pow_keep_exact", counted)
    report = _run_fuzz(FuzzConfig(count=200, seed=7), 1)
    assert report.contexts == 1000
    assert 0 < calls[0] <= 71_074


def test_no_mode_conversion_in_the_harness_or_the_angle_rounds(monkeypatch):
    """The harness and one float and one exact angle round of perfbench never put
    an exact object and a float one in one call, so kernel.float_mode, which gives
    the exact ones their float images, never converts one."""
    calls = [0]
    original = kernel.float_mode

    def counted(*points, sides):
        calls[0] += any(x.ints is not None for x in (*points, sides))
        return original(*points, sides=sides)

    monkeypatch.setattr(kernel, "float_mode", counted)
    assert _run_fuzz(FuzzConfig(count=200, seed=7), 1).contexts == 1000
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    cases = workloads.angle_round(1, 0)
    for exact in (False, True):
        reports = workloads.evaluate_angles(workloads.library_cases(cases, exact))
        assert reports and not any(isinstance(r, Exception) for r in reports)
    assert calls[0] == 0
    sides = TriangleSides(3, 4, 5)
    blundon.cos_angle_at_circumcenter(BaryPoint(3, 4, 5), centers.incenter(sides), sides)
    assert calls[0] == 0  # int weights and sides are exact
    blundon.cos_angle_at_circumcenter(BaryPoint(3.0, 4, 5), centers.incenter(sides), sides)
    assert calls[0] == 1  # a float point on exact sides is converted once
