"""Trace ingestion, enthalpy integration, rate fitting, Arrhenius regression."""

import dataclasses
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transient_kinetics import dscfit
from transient_kinetics.dscfit import (
    DscTrace,
    conversion_profile,
    estimate_baseline,
    fit_arrhenius,
    fit_rate_constant,
    read_trace_csv,
    synthesize_trace,
    total_enthalpy,
    write_trace_csv,
)
from transient_kinetics.errors import DomainError, InsufficientDataError, LineError
from transient_kinetics.kinetics import ArrheniusParams, arrhenius_rate, dsc_heat_flow

ECOFLEX = ArrheniusParams.from_kj_per_mol(0.1703, 18.09)


def make_trace(k, dh, n=1500, noise=0.0, seed=None, temperature_k=298.15):
    t_end = 20.0 / k
    return synthesize_trace(k, dh, (t_end / n, t_end), noise_fraction=noise, seed=seed, temperature_k=temperature_k)


class TestDscTrace:
    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            DscTrace(np.array([0.0]), np.array([1.0]), 300.0, True)

    def test_times_strictly_increasing(self):
        with pytest.raises(DomainError):
            DscTrace(np.array([0.0, 1.0, 1.0]), np.zeros(3), 300.0, True)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            DscTrace(np.array([0.0, 1.0]), np.zeros(3), 300.0, True)

    @pytest.mark.parametrize("label", ["a\nb", "a\r\nb", "a\rb", "a\x0bb", "a\u2028b", "a\n"])
    def test_label_with_a_line_break_refused(self, label):
        # write_trace_csv put the break into the '# label=' line, and the
        # file it wrote was refused on reading
        with pytest.raises(DomainError, match="label must not hold a line break"):
            DscTrace(np.array([0.0, 1.0]), np.zeros(2), 300.0, True, label=label)

    @pytest.mark.parametrize("label", [" a ", "a\t", " ", "\u3000a", "a\x1f"])
    def test_label_with_edge_whitespace_refused(self, label):
        # the trace file read " a " and "a\t" back as "a", and " " as ""
        with pytest.raises(DomainError, match="label must not begin or end with whitespace"):
            DscTrace(np.array([0.0, 1.0]), np.zeros(2), 300.0, True, label=label)


class TestTotalEnthalpy:
    def test_synthetic_closed_form(self):
        trace = make_trace(1e-3, 10.0, n=2000)
        assert total_enthalpy(trace) == pytest.approx(10.0, rel=1e-3)

    def test_flat_zero_raises(self):
        trace = DscTrace(np.linspace(0, 10, 16), np.zeros(16), 300.0, True)
        with pytest.raises(DomainError, match="trace released no net heat"):
            total_enthalpy(trace)

    def test_two_point_rectangle(self):
        trace = DscTrace(np.array([0.0, 10.0]), np.array([1.0, 1.0]), 300.0, True)
        assert total_enthalpy(trace) == 10.0

    def test_baseline_offset_shifts_by_offset_times_duration(self):
        trace = make_trace(1e-3, 10.0, n=500)
        offset = 1e-4  # small enough that the corrected integral stays positive
        shifted = total_enthalpy(trace, baseline=0.0) - total_enthalpy(trace, baseline=offset)
        assert shifted == pytest.approx(offset * trace.duration, rel=1e-12)

    def test_estimate_baseline_tail_median(self):
        t = np.linspace(0, 100, 101)
        q = np.full(101, 0.25)
        q[:80] += 1.0
        trace = DscTrace(t, q, 300.0, True)
        assert estimate_baseline(trace) == 0.25


class TestConversionProfile:
    def test_matches_analytic_everywhere(self):
        k = 1e-3
        trace = make_trace(k, 10.0, n=3000)
        t, alpha = conversion_profile(trace)
        expected = 1.0 - np.exp(-k * t)
        assert np.max(np.abs(alpha - expected)) < 1e-3

    def test_endpoints(self):
        trace = make_trace(5e-4, 4.0)
        _, alpha = conversion_profile(trace)
        assert alpha[0] == 0.0
        assert alpha[-1] == 1.0

    def test_nondecreasing_even_with_noise(self):
        trace = make_trace(1e-3, 10.0, noise=0.05, seed=3)
        _, alpha = conversion_profile(trace)
        assert np.all(np.diff(alpha) >= 0.0)
        assert alpha[-1] == 1.0

    def test_propagates_zero_enthalpy(self):
        trace = DscTrace(np.linspace(0, 10, 16), np.zeros(16), 300.0, True)
        with pytest.raises(DomainError, match="trace released no net heat"):
            conversion_profile(trace)


class TestFitRateConstant:
    def test_noiseless_round_trip(self):
        k_true = 6.73e-4
        result = fit_rate_constant(make_trace(k_true, 12.0))
        assert result.converged
        assert result.k == pytest.approx(k_true, rel=1e-6)
        assert result.total_enthalpy == pytest.approx(12.0, rel=1e-4)

    def test_seeded_noisy_round_trip(self):
        rng = np.random.default_rng(20240601)
        hits = 0
        for _ in range(12):
            k_true = 10.0 ** rng.uniform(-5, -2)
            trace = make_trace(k_true, 8.0, noise=0.02, seed=int(rng.integers(2**31)))
            result = fit_rate_constant(trace)
            if result.converged and abs(result.k - k_true) / k_true < 0.05:
                hits += 1
        assert hits >= 11

    def test_a_step_to_a_non_positive_parameter_is_refused(self):
        # a peak late in the trace is no first-order decay; Gauss-Newton steps
        # to k <= 0 from it, which the fit must refuse and damp, not take
        t = np.linspace(0.0, 1000.0, 200)
        trace = DscTrace(t, np.exp(-(((t - 700.0) / 50.0) ** 2)) + 1e-3, 300.0, True)
        result = fit_rate_constant(trace)
        assert result.k > 0
        assert result.total_enthalpy > 0

    def test_an_overflowing_fit_returns_non_finite_fields_without_a_warning(self):
        # the fit sets its own numpy error state; the test suite turns any warning into an error
        t = np.linspace(0, 100, 50)
        result = fit_rate_constant(DscTrace(t, 1e200 * np.exp(-0.05 * t), 300.0, True))
        assert result.residual_rms == math.inf
        assert result.converged is False

    def test_flat_zero_trace(self):
        t = np.linspace(0, 10, 32)
        trace = DscTrace(t, np.zeros(32), 300.0, True)
        with pytest.raises(DomainError, match="trace released no net heat"):
            fit_rate_constant(trace)

    def test_untriggered_trace_rejected(self):
        trace = dataclasses.replace(make_trace(1e-3, 10.0), uv_on=False)
        with pytest.raises(DomainError, match="trace was recorded without UV"):
            fit_rate_constant(trace)

    def test_too_few_samples(self):
        trace = DscTrace(np.linspace(0, 10, 4), np.ones(4), 300.0, True)
        with pytest.raises(DomainError):
            fit_rate_constant(trace)

    def test_log_uniform_noiseless_property(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            k_true = 10.0 ** rng.uniform(-5, -2)
            result = fit_rate_constant(make_trace(k_true, 10.0))
            assert result.converged
            assert result.k == pytest.approx(k_true, rel=1e-6)

    def test_constant_offset_removed_by_default_baseline(self):
        # instrument drift shows up as a constant plateau; the default
        # tail-median baseline recovers the underlying rate
        k_true = 6.73e-4
        clean = make_trace(k_true, 12.0)
        offset = DscTrace(
            clean.time_s, clean.heat_flow_w + 0.004, clean.temperature_k, True
        )
        result = fit_rate_constant(offset)
        assert result.converged
        assert result.k == pytest.approx(k_true, rel=0.01)
        explicit = fit_rate_constant(offset, baseline=0.004)
        assert explicit.k == pytest.approx(k_true, rel=1e-6)


class TestFitArrhenius:
    def test_exact_four_point_recovery(self):
        temps = (353.15, 373.15, 393.15, 413.15)
        points = [(T, arrhenius_rate(ECOFLEX, T)) for T in temps]
        fit = fit_arrhenius(points)
        assert fit.params.pre_exponential == pytest.approx(0.1703, rel=1e-9)
        assert fit.params.activation_energy == pytest.approx(18090.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_two_points_exact_line(self):
        points = [(300.0, arrhenius_rate(ECOFLEX, 300.0)), (400.0, arrhenius_rate(ECOFLEX, 400.0))]
        fit = fit_arrhenius(points)
        assert fit.params.activation_energy == pytest.approx(18090.0, rel=1e-9)
        assert fit.r_squared == 1.0

    def test_noisy_recovery_within_ten_percent(self):
        rng = np.random.default_rng(42)
        temps = (353.15, 373.15, 393.15, 413.15)
        points = [
            (T, arrhenius_rate(ECOFLEX, T) * (1.0 + 0.05 * rng.standard_normal()))
            for T in temps
        ]
        fit = fit_arrhenius(points)
        assert fit.params.activation_energy == pytest.approx(18090.0, rel=0.10)

    def test_scale_equivariance(self):
        temps = (330.0, 360.0, 390.0, 420.0)
        points = [(T, arrhenius_rate(ECOFLEX, T)) for T in temps]
        scaled = [(T, 7.5 * k) for T, k in points]
        base = fit_arrhenius(points)
        shifted = fit_arrhenius(scaled)
        assert shifted.params.activation_energy == pytest.approx(
            base.params.activation_energy, rel=1e-12
        )
        assert shifted.params.pre_exponential == pytest.approx(
            7.5 * base.params.pre_exponential, rel=1e-12
        )

    def test_duplicate_temperatures_rejected(self):
        with pytest.raises(InsufficientDataError, match=r"distinct temperatures, found 1 among 2 point\(s\)"):
            fit_arrhenius([(300.0, 1e-3), (300.0, 2e-3)])

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(DomainError, match="all rate constants must be > 0"):
            fit_arrhenius([(300.0, 1e-3), (350.0, 0.0)])

    def test_single_point_rejected(self):
        with pytest.raises(InsufficientDataError, match=r"distinct temperatures, found 1 among 1 point\(s\)"):
            fit_arrhenius([(300.0, 1e-3)])

    def test_two_temperatures_are_checked_before_their_signs(self):
        # a fit table of one temperature is too little data (exit 3), whatever its values
        with pytest.raises(InsufficientDataError, match="found 1 among 2"):
            fit_arrhenius([(-5.0, 0.0), (-5.0, 1e-3)])
        with pytest.raises(InsufficientDataError, match="found 0 among 0"):
            fit_arrhenius([])
        assert issubclass(InsufficientDataError, DomainError)

    def test_overflowing_pre_exponential_rejected(self):
        # ln A is about 6.9e4, far past the largest finite float
        with pytest.raises(DomainError, match=r"ln A = 69077\.55\d*, too large"):
            fit_arrhenius([(1.0, 1e-300), (1.01, 1.0)])

    def test_underflowing_inverse_temperature_spread_rejected(self):
        with pytest.raises(DomainError, match="spread of 1/T underflows to 0"):
            fit_arrhenius([(1e300, 1.0), (2e300, 2.0)])


class TestSynthesizeTrace:
    def test_noiseless_equals_closed_form(self):
        k, dh = 1e-3, 10.0
        trace = synthesize_trace(k, dh, (10.0, 20000.0))
        expected = k * dh * np.exp(-k * trace.time_s)
        assert np.array_equal(trace.heat_flow_w, expected)
        # the trace samples the one heat-flow law, bit for bit
        assert np.array_equal(trace.heat_flow_w, dsc_heat_flow(k, dh, trace.time_s))

    def test_same_seed_identical(self):
        a = synthesize_trace(1e-3, 10.0, (10.0, 20000.0), noise_fraction=0.02, seed=5)
        b = synthesize_trace(1e-3, 10.0, (10.0, 20000.0), noise_fraction=0.02, seed=5)
        assert np.array_equal(a.heat_flow_w, b.heat_flow_w)
        assert np.array_equal(a.time_s, b.time_s)

    def test_noise_amplitude_statistics(self):
        k, dh, noise = 1e-3, 10.0, 0.02
        trace = synthesize_trace(k, dh, (10.0, 20000.0), noise_fraction=noise, seed=9)
        clean = dsc_heat_flow(k, dh, trace.time_s)
        residual_rms = float(np.sqrt(np.mean((trace.heat_flow_w - clean) ** 2)))
        assert residual_rms == pytest.approx(noise * k * dh, rel=0.3)

    def test_samples_over_max_steps_refused_at_once(self, deadline):
        # 2e13 samples: numpy refused the 146 TiB with a MemoryError
        with deadline(1.0), pytest.raises(DomainError, match=r"20000 s at a step of 1e-09 s is over 1e\+08 steps"):
            synthesize_trace(1e-3, 10.0, (1e-9, 2e4))

    def test_sampling_validation(self):
        with pytest.raises(DomainError):
            synthesize_trace(1e-3, 10.0, (10.0, 50.0))
        with pytest.raises(DomainError):
            synthesize_trace(0.0, 10.0, (10.0, 20000.0))


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = synthesize_trace(
            1e-3, 10.0, (10.0, 20000.0), noise_fraction=0.02, seed=5,
            temperature_k=393.15, label="hot-hold",
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert np.array_equal(back.time_s, trace.time_s)
        assert np.array_equal(back.heat_flow_w, trace.heat_flow_w)
        assert back.temperature_k == trace.temperature_k
        assert back.uv_on is True
        assert back.label == "hot-hold"

    @pytest.mark.parametrize("rows_per_write", [1, 7, 256, 4096])
    def test_bytes_do_not_depend_on_the_slice(self, tmp_path, monkeypatch, rows_per_write):
        monkeypatch.setattr(dscfit, "TRACE_ROWS_PER_WRITE", rows_per_write)
        trace = synthesize_trace(1e-3, 10.0, (20000.0 / 1500, 20000.0), noise_fraction=0.02, seed=3, label="x")
        assert len(trace.time_s) % 7 and len(trace.time_s) % 256  # a short last slice
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        rows = "".join(f"{float(t)!r},{float(q)!r}\n" for t, q in zip(trace.time_s, trace.heat_flow_w))
        head = f"# temperature_K={trace.temperature_k!r}\n# uv_on=true\n# label=x\ntime_s,heat_flow_W\n"
        assert path.read_text() == head + rows

    @pytest.mark.parametrize("label", ["", "hot-hold", "run 1, 120 C", "# 5 = a", "dpi 20 wt% \u00e9"])
    def test_label_round_trip(self, tmp_path, label):
        trace = DscTrace(np.array([0.0, 1.0]), np.array([2.0, 1.0]), 300.0, True, label=label)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path).label == label

    @settings(max_examples=100, deadline=None)
    @given(label=st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
    def test_any_accepted_label_round_trips(self, label):
        try:
            trace = DscTrace(np.array([0.0, 1.0]), np.array([2.0, 1.0]), 300.0, True, label=label)
        except DomainError:
            # refused only for an edge space or a line break
            assert label.strip() != label or "".join(label.splitlines()) != label
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace_csv(trace, path)
            assert read_trace_csv(path).label == label

    def test_missing_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# temperature_K=300\n1.0,2.0\n")
        with pytest.raises(LineError) as err:
            read_trace_csv(path)
        assert str(err.value) == f"{path}:2: expected header 'time_s,heat_flow_W', got '1.0,2.0'"

    def test_non_numeric_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# temperature_K=300\n# uv_on=true\ntime_s,heat_flow_W\n0,1\nfoo,bar\n")
        with pytest.raises(LineError) as err:
            read_trace_csv(path)
        assert err.value.line_number == 5

    def test_bad_uv_on_word_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# temperature_K=300\n# uv_on=maybe\ntime_s,heat_flow_W\n0,1\n1,0.5\n")
        with pytest.raises(LineError) as err:
            read_trace_csv(path)
        assert err.value.line_number == 2
        assert "expected a boolean, got 'maybe'" in str(err.value)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "expected a finite number, got 'abc'"),
            ("nan", "expected a finite number, got 'nan'"),
            ("inf", "expected a finite number, got 'inf'"),
            ("-5", "temperature_K must be finite and > 0 K, got -5.0"),
            ("0", "temperature_K must be finite and > 0 K, got 0.0"),
        ],
        ids=["abc", "nan", "inf", "-5", "0"],
    )
    def test_bad_temperature_reports_its_line(self, tmp_path, value, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"# uv_on=true\n# temperature_K={value}\ntime_s,heat_flow_W\n0,1\n1,0.5\n")
        with pytest.raises(LineError) as err:
            read_trace_csv(path)
        assert str(err.value) == f"{path}:2: {message}"

    def test_failed_rename_keeps_old_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"old contents\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_trace_csv(make_trace(1e-3, 10.0, n=20), path)
        assert path.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(LineError):
            read_trace_csv(path)

    def test_missing_temperature_metadata(self, tmp_path):
        path = tmp_path / "nometa.csv"
        path.write_text("time_s,heat_flow_W\n0,1\n1,0.5\n")
        with pytest.raises(LineError) as err:
            read_trace_csv(path)
        assert err.value.line_number == 1


# data lines of a trace, each made from its index and a heat flow
REGULAR_LINES = {
    "plain": lambda i, q: f"{i * 0.5!r},{q!r}",
    "spaced": lambda i, q: f" {i * 0.5}\t, {q!r} ",
}
# every kind of line the bulk reader must hand to the line reader
DOUBTFUL_LINES = {
    "blank": lambda i, q: "",
    "spaces": lambda i, q: "   ",
    "comment": lambda i, q: "# note, with a comma",
    "metadata": lambda i, q: "# temperature_K = 350.5",
    "uv-metadata": lambda i, q: "#uv_on=off",
    "non-numeric": lambda i, q: f"{i},abc",
    "empty-cell": lambda i, q: f"{i},",
    "nan": lambda i, q: f"{i},nan",
    "inf": lambda i, q: f"-inf,{q!r}",
    "three-cells": lambda i, q: f"{i},{q!r},1",
    "one-cell": lambda i, q: f"{i}",
    "lone-cr": lambda i, q: f"{i},{q!r}\r{i + 0.25},1",
    "cr-in-cell": lambda i, q: f"{i}\r,{q!r}",
    "form-feed": lambda i, q: f"{i},{q!r}\x0c",
    "line-separator": lambda i, q: f"{i},1\u2028{i + 0.25},2",
    "next-line": lambda i, q: f"{i},1\x85",
    "decreasing": lambda i, q: f"{-i},{q!r}",
    # float reads these, numpy's parser does not
    "underscore": lambda i, q: f"{i}_0,{q!r}",
    "arabic-indic": lambda i, q: "".join(chr(0x660 + int(d)) for d in str(i)) + f",{q!r}",
}
METADATA_LINES = (
    "# temperature_K=300", "#temperature_K = 350.5 ", "# uv_on=true", "# uv_on = yes", "# label=a b", "", "# comment",
)
DOUBTFUL_PREFIX_LINES = ("# temperature_K=0", "# uv_on=maybe", "junk", "1,2", "\x0c", "# label=a\rtime_s,heat_flow_W")
HEADERS = ("time_s,heat_flow_W", " time_s , heat_flow_W ", "time_s,heat_flow_w", "time_s;heat_flow_W")


@st.composite
def trace_texts(draw):
    """Trace text, mostly regular, with up to two doubtful lines mixed in."""
    # the metadata may repeat a key: the last one wins
    prefix = draw(st.lists(st.sampled_from(METADATA_LINES), max_size=6))
    if draw(st.integers(0, 4)) == 0:
        prefix.insert(draw(st.integers(0, len(prefix))), draw(st.sampled_from(DOUBTFUL_PREFIX_LINES)))
    header = HEADERS[0] if draw(st.integers(0, 4)) else draw(st.sampled_from(HEADERS))
    kinds = draw(st.lists(st.sampled_from(sorted(REGULAR_LINES)), max_size=12))
    makers = [REGULAR_LINES[kind] for kind in kinds]
    for doubtful in draw(st.lists(st.sampled_from(sorted(DOUBTFUL_LINES)), max_size=2)):
        makers.insert(draw(st.integers(0, len(makers))), DOUBTFUL_LINES[doubtful])
    heats = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(makers), max_size=len(makers)))
    rows = [make(i, q) for i, (make, q) in enumerate(zip(makers, heats))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from([end, ""]))
    return end.join([*prefix, header, *rows]) + final


def parse_outcome(path):
    """What ``read_trace_csv`` makes of a file: its trace's fields, or its error."""
    try:
        trace = read_trace_csv(path)
    except LineError as exc:
        return str(exc), exc.line_number
    return trace.time_s.tobytes(), trace.heat_flow_w.tobytes(), trace.temperature_k, trace.uv_on, trace.label


class TestBulkTraceReader:
    """The bulk reader gives what the line reader gives, or hands the file over."""

    REGULAR = "# temperature_K=300\n# uv_on=true\ntime_s,heat_flow_W\n0.0,1.5\n0.5,1.25\n1.0,1e-3\n"

    def assert_same_as_line_reader(self, text, tmp_path):
        path = tmp_path / "trace.csv"
        block = dscfit._parse_trace_block(text, path)
        if block is not None:
            meta, time_s, heat_flow_w, lines = dscfit._parse_trace_lines(text, path)
            assert block[0] == meta
            assert block[1].tobytes() == time_s.tobytes() and block[2].tobytes() == heat_flow_w.tobytes()
            assert list(block[3]) == lines
        path.write_bytes(text.encode())
        bulk = parse_outcome(path)
        with mock.patch.object(dscfit, "_parse_trace_block", return_value=None):
            assert bulk == parse_outcome(path)
        return block

    @settings(max_examples=300, deadline=None)
    @given(text=trace_texts())
    # where numpy's reader and the line reader part ways: float reads 1_0 and
    # non-ASCII digits, numpy skips a blank line and warns of an all-blank block
    @example(text=REGULAR.replace("1.0,", "1_0,"))
    @example(text=REGULAR.replace("1.0,", "\u0661\u0662,"))
    @example(text=REGULAR.replace("0.5,", "   \n0.5,"))
    @example(text=REGULAR.split("0.0,")[0] + "\n\n")
    @example(text=REGULAR.replace("0.5,", "# uv_on=maybe\n0.5,"))
    @example(text=REGULAR.split("0.5,")[0])
    @example(text=REGULAR.replace("0.5,1.25", "0.5,1.25,2"))
    def test_any_trace_text_reads_as_line_by_line(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_same_as_line_reader(text, Path(tmp))

    def test_regular_trace_is_read_in_bulk(self, tmp_path):
        crlf = self.REGULAR.replace("\n", "\r\n").replace("0.5,", " 0.5 ,\t")
        # any break str.splitlines knows, as the line reader splits
        others = [self.REGULAR.replace("\n", brk) for brk in ("\r", "\r\n", "\u2028")]
        for text in (self.REGULAR, self.REGULAR[:-1], crlf, crlf[:-2], *others):
            assert self.assert_same_as_line_reader(text, tmp_path) is not None, repr(text)

    @pytest.mark.parametrize(
        "rows, error",
        [
            # the right total cell count, but not per line
            ("0,1,2\n3\n", "4: expected 2 columns, got 3"),
            ("0\n1,2,3\n", "4: expected 2 columns, got 1"),
            ("0,1\n1,2\n# uv_on=maybe\n2,3\n", "6: expected a boolean, got 'maybe'"),
            ("0,1\n\n1,2\n2,x\n", "7: expected a finite number, got 'x'"),
            ("0,1\n1,inf\n", "5: expected a finite number, got 'inf'"),
            ("0,1\n", "4: trace needs at least 2 data rows"),
            ("0,1\n1,2\n0.5,3", "6: sample times must be strictly increasing"),
            # the row where the times stop rising, not the last one
            ("0,1\n1,2\n0.5,3\n2,4\n3,5\n4,6\n", "6: sample times must be strictly increasing"),
            ("0,1\n1,2\n\n0.5,3\n2,4\n3,5\n", "7: sample times must be strictly increasing"),
        ],
        ids=[
            "three-then-one", "one-then-three", "metadata-in-block", "blank-then-bad", "inf", "one-row",
            "no-final-newline", "fall-mid-trace", "fall-after-a-blank",
        ],
    )
    def test_irregular_trace_gets_the_line_readers_error(self, tmp_path, rows, error):
        text = "# temperature_K=300\n# uv_on=true\ntime_s,heat_flow_W\n" + rows
        self.assert_same_as_line_reader(text, tmp_path)
        path = tmp_path / "trace.csv"
        with pytest.raises(LineError) as err:
            read_trace_csv(path)
        assert str(err.value) == f"{path}:{error}"

    @pytest.mark.parametrize(
        "text",
        [
            "# temperature_K=300\ntime_s,heat_flow_W\n0\r,1\n2,3\n",
            "# temperature_K=300\ntime_s,heat_flow_W\n0,1\x0c\n2,3\n",
            "# label=a\rtime_s,heat_flow_W\ntime_s,heat_flow_W\n0,1\n2,3\n",
        ],
        ids=["in-a-cell", "form-feed", "before-the-header"],
    )
    def test_a_break_that_only_splitlines_knows_is_left_to_the_line_reader(self, tmp_path, text):
        # a file read from disk has universal newlines, so a lone CR shows only in text
        assert dscfit._parse_trace_block(text, tmp_path / "trace.csv") is None
        self.assert_same_as_line_reader(text, tmp_path)
