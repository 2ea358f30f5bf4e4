"""Tests for unit conversions and physical constants."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestBitPeriod:
    def test_default_bit_rate_is_2p5_gbps(self):
        assert units.DEFAULT_BIT_RATE == pytest.approx(2.5e9)

    def test_default_unit_interval_is_400_ps(self):
        assert units.DEFAULT_UNIT_INTERVAL == pytest.approx(400.0e-12)

    def test_bit_period_inverse_of_rate(self):
        assert units.bit_period(1.0e9) == pytest.approx(1.0e-9)

    def test_bit_period_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            units.bit_period(0.0)
        with pytest.raises(ValueError):
            units.bit_period(-1.0)


class TestUiConversions:
    def test_one_ui_is_one_bit_period(self):
        assert units.ui_to_seconds(1.0) == pytest.approx(400.0e-12)

    def test_round_trip_ui_seconds(self):
        assert units.seconds_to_ui(units.ui_to_seconds(0.37)) == pytest.approx(0.37)

    def test_custom_bit_rate(self):
        assert units.ui_to_seconds(2.0, bit_rate_hz=10.0e9) == pytest.approx(200.0e-12)

    def test_ui_to_radians(self):
        assert units.ui_to_radians(0.5) == pytest.approx(math.pi)

    def test_radians_round_trip(self):
        assert units.radians_to_ui(units.ui_to_radians(0.123)) == pytest.approx(0.123)

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_ui_seconds_round_trip_property(self, value):
        assert units.seconds_to_ui(units.ui_to_seconds(value)) == pytest.approx(value, abs=1e-12)


class TestPpmAndDb:
    def test_ppm_to_fraction(self):
        assert units.ppm_to_fraction(100.0) == pytest.approx(1.0e-4)

    def test_fraction_to_ppm(self):
        assert units.fraction_to_ppm(0.01) == pytest.approx(10_000.0)

    def test_db_round_trip(self):
        assert units.linear_to_db(units.db_to_linear(-12.5)) == pytest.approx(-12.5)

    def test_db_rejects_non_positive(self):
        with pytest.raises(ValueError):
            units.linear_to_db(0.0)

    def test_dbm_zero_is_one_milliwatt(self):
        assert units.dbm_to_watts(0.0) == pytest.approx(1.0e-3)

    def test_watts_to_dbm_round_trip(self):
        assert units.watts_to_dbm(units.dbm_to_watts(7.3)) == pytest.approx(7.3)

    def test_watts_to_dbm_rejects_non_positive(self):
        with pytest.raises(ValueError):
            units.watts_to_dbm(0.0)


class TestJitterShapeConversions:
    def test_table1_rj_relationship(self):
        # Table 1 quotes RJ as 0.021 UIrms (0.3 UIpp at the 1e-12 Q scale),
        # i.e. the pp value is about 14.1 times the rms value.
        assert 0.3 / 0.021 == pytest.approx(14.3, rel=0.05)


class TestPowerPerGbps:
    def test_paper_headline_number(self):
        # 12.5 mW at 2.5 Gbit/s is exactly 5 mW/Gbit/s.
        assert units.power_per_gbps(12.5e-3, 2.5e9) == pytest.approx(5.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            units.power_per_gbps(1.0e-3, 0.0)
