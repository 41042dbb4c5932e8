"""Tests for the virtual clock, meters and the Table 1 cost model."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import Meter, VirtualClock
from repro.sim.costmodel import SIMPLE_UPDATE_PATH, CostModel


class TestMeter:
    def test_accumulates(self):
        meter = Meter()
        meter.add("x", 1e-6)
        meter.add("x", 1e-6, 2)
        assert meter.total == pytest.approx(2e-6)
        assert meter.ops["x"] == 3

    def test_merge(self):
        a, b = Meter(), Meter()
        a.add("x", 1e-6)
        b.add("y", 2e-6)
        a.merge(b)
        assert a.total == pytest.approx(3e-6)
        assert a.ops == {"x": 1, "y": 1}


class TestVirtualClock:
    def test_base_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_no_backwards(self):
        clock = VirtualClock(5.0)
        with pytest.raises(ValueError):
            clock.set_base(1.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_active_meter_moves_time(self):
        clock = VirtualClock()
        meter = Meter()
        clock.activate(meter, start=10.0)
        assert clock.now() == 10.0
        meter.add("op", 0.5)
        assert clock.now() == 10.5
        end = clock.deactivate()
        assert end == 10.5
        assert clock.now() == 10.5

    def test_activate_with_preexisting_charges(self):
        clock = VirtualClock()
        meter = Meter()
        meter.add("earlier", 3.0)  # charged before this task started
        clock.activate(meter, start=1.0)
        assert clock.now() == 1.0  # old charges do not shift time
        meter.add("op", 0.25)
        assert clock.now() == 1.25
        clock.deactivate()

    def test_double_activate_rejected(self):
        clock = VirtualClock()
        clock.activate(Meter(), 0.0)
        with pytest.raises(SimulationError):
            clock.activate(Meter(), 0.0)

    def test_deactivate_without_activate(self):
        with pytest.raises(SimulationError):
            VirtualClock().deactivate()


class TestCostModel:
    def test_simple_update_path_is_172us(self):
        """The paper's Table 1: the simple one-tuple update path sums to
        exactly 172 microseconds."""
        assert CostModel().simple_update_us() == pytest.approx(172.0)

    def test_tps_close_to_paper(self):
        """172us per transaction = 5 814 TPS (paper section 4.4)."""
        assert CostModel().simple_update_tps() == pytest.approx(5814, rel=0.001)

    def test_seconds_conversion(self):
        model = CostModel()
        assert model.seconds("begin_task") == pytest.approx(model.begin_task * 1e-6)

    def test_unknown_op(self):
        with pytest.raises(SimulationError, match="unknown cost-model operation 'frobnicate'"):
            CostModel().seconds("frobnicate")

    def test_scaled(self):
        doubled = CostModel().scaled(2.0)
        assert doubled.simple_update_us() == pytest.approx(344.0)
        assert doubled.seconds("row_scan") == pytest.approx(4.0e-6)

    def test_with_overrides(self):
        model = CostModel().with_overrides(f_bs=200.0)
        assert model.f_bs == 200.0
        assert model.seconds("f_bs") == pytest.approx(200e-6)
        # untouched ops stay calibrated
        assert model.simple_update_us() == pytest.approx(172.0)

    def test_grouping_asymmetry(self):
        """Section 5.2: rule-system partitioning is cheaper than grouping
        the same rows in user code."""
        model = CostModel()
        assert model.partition_row < model.user_group_row

    def test_path_ops_exist(self):
        model = CostModel()
        for op in SIMPLE_UPDATE_PATH:
            assert model.seconds(op) > 0
