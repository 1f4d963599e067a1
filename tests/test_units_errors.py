"""Tests for unit conversions and the error hierarchy."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import errors
from repro.units import (
    CACHE_LINE_BYTES,
    bytes_per_ns_to_gbps,
    cycles_to_ns,
    ddr_rate_to_gbps,
    gbps_to_bytes_per_ns,
    gbps_to_lines_per_ns,
    lines_per_ns_to_gbps,
    ns_to_cycles,
    scaled,
)


class TestUnits:
    def test_gbps_is_bytes_per_ns(self):
        assert gbps_to_bytes_per_ns(5.0) == pytest.approx(5.0)
        assert bytes_per_ns_to_gbps(5.0) == pytest.approx(5.0)

    def test_line_rate_roundtrip(self):
        assert lines_per_ns_to_gbps(gbps_to_lines_per_ns(128.0)) == (
            pytest.approx(128.0)
        )

    def test_one_line_per_ns(self):
        assert lines_per_ns_to_gbps(1.0) == pytest.approx(CACHE_LINE_BYTES)

    def test_cycles_conversion(self):
        assert cycles_to_ns(20, 2.0) == pytest.approx(10.0)
        assert ns_to_cycles(10.0, 2.0) == pytest.approx(20.0)

    def test_invalid_frequency(self):
        with pytest.raises(errors.ConfigurationError):
            cycles_to_ns(10, 0.0)
        with pytest.raises(errors.ConfigurationError):
            ns_to_cycles(10, -1.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_invalid_scale(self, scale):
        with pytest.raises(errors.ConfigurationError):
            scaled(1000, scale)

    def test_ddr_rate(self):
        assert ddr_rate_to_gbps(2666) == pytest.approx(21.328)
        assert ddr_rate_to_gbps(4800) == pytest.approx(38.4)

    def test_invalid_ddr_rate(self):
        with pytest.raises(errors.ConfigurationError):
            ddr_rate_to_gbps(0)


#: Physically sensible magnitudes: femto-scale to tera-scale, no
#: signed zeros or subnormals to fight with.
_MAGNITUDES = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)
_FREQUENCIES_GHZ = st.floats(
    min_value=1e-3, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestUnitsRoundTripProperties:
    """The converter pairs must invert each other everywhere, not just
    at the hand-picked values above — this is what lets RPR001 insist
    all unit mixing funnels through :mod:`repro.units`."""

    @given(_MAGNITUDES)
    def test_gbps_bytes_per_ns_roundtrip(self, gbps):
        assert gbps_to_bytes_per_ns(gbps) == pytest.approx(gbps, rel=1e-12)
        assert bytes_per_ns_to_gbps(
            gbps_to_bytes_per_ns(gbps)
        ) == pytest.approx(gbps, rel=1e-12)

    @given(_MAGNITUDES)
    def test_gbps_lines_per_ns_roundtrip(self, gbps):
        lines = gbps_to_lines_per_ns(gbps)
        assert lines_per_ns_to_gbps(lines) == pytest.approx(gbps, rel=1e-12)
        # one line per ns is exactly one cache line of bytes per ns
        assert gbps_to_bytes_per_ns(lines_per_ns_to_gbps(lines)) == (
            pytest.approx(lines * CACHE_LINE_BYTES, rel=1e-12)
        )

    @given(_MAGNITUDES, _FREQUENCIES_GHZ)
    def test_cycles_ns_roundtrip(self, cycles, freq_ghz):
        ns = cycles_to_ns(cycles, freq_ghz)
        assert ns_to_cycles(ns, freq_ghz) == pytest.approx(cycles, rel=1e-9)

    @given(_MAGNITUDES, _FREQUENCIES_GHZ)
    def test_ns_cycles_roundtrip(self, ns, freq_ghz):
        cycles = ns_to_cycles(ns, freq_ghz)
        assert cycles_to_ns(cycles, freq_ghz) == pytest.approx(ns, rel=1e-9)

    @given(st.floats(max_value=0.0, allow_nan=False))
    def test_non_positive_frequency_always_rejected(self, freq_ghz):
        with pytest.raises(errors.ConfigurationError):
            cycles_to_ns(1.0, freq_ghz)
        with pytest.raises(errors.ConfigurationError):
            ns_to_cycles(1.0, freq_ghz)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.CurveError,
            errors.ConfigurationError,
            errors.SimulationError,
            errors.BenchmarkError,
            errors.TraceError,
            errors.ProfilingError,
        ],
    )
    def test_all_derive_from_mess_error(self, exc):
        assert issubclass(exc, errors.MessError)
        with pytest.raises(errors.MessError):
            raise exc("boom")


class TestPublicApi:
    def test_package_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.1.0"
