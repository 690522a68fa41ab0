"""Instrumentation sites: fault trips, DSE runner counters, kernel hooks."""

import numpy as np
import pytest

from repro import faults, obs
from repro.dse.runner import _bump
from repro.obs import kernels


@pytest.fixture()
def registry():
    with obs.scoped_registry() as reg:
        yield reg


class TestFaultTripCounter:
    def test_trip_mirrors_into_registry(self, registry):
        spec = faults.FaultSpec(site="unit.site", action="raise", hits=(2,))
        with faults.armed(spec):
            faults.fire("unit.site")  # occurrence 1: no trip
            with pytest.raises(faults.ComputeFault):
                faults.fire("unit.site")
        fam = registry.counter("repro_fault_trips_total",
                               labelnames=("action", "site"))
        assert fam.labels(site="unit.site", action="raise").value == 1

    def test_no_trip_no_series(self, registry):
        with faults.armed(faults.FaultSpec(site="quiet", hits=(99,))):
            faults.fire("quiet")
        assert "repro_fault_trips_total" not in registry.snapshot()


class TestDseCounters:
    def test_bump_mirrors_stats_key(self, registry):
        stats = {"retries": 0, "points": 0}
        _bump(stats, "retries", 3)
        _bump(stats, "points")
        assert stats == {"retries": 3, "points": 1}
        assert registry.counter("repro_dse_retries_total").value == 3
        assert registry.counter("repro_dse_points_total").value == 1

    def test_zero_bump_creates_no_series(self, registry):
        stats = {"timeouts": 0}
        _bump(stats, "timeouts", 0)
        assert stats["timeouts"] == 0
        assert "repro_dse_timeouts_total" not in registry.snapshot()


class TestKernelProfiling:
    @pytest.fixture()
    def profiled(self, registry):
        kernels.arm(True)
        try:
            yield registry
        finally:
            kernels.arm(False)

    def test_disarmed_tick_is_none_and_tock_noops(self, registry):
        assert not kernels.armed()
        assert kernels.tick() is None
        kernels.tock(None, "popcount", "native")
        assert "repro_kernel_calls_total" not in registry.snapshot()

    def test_ops_attribute_time_by_kernel_and_tier(self, profiled):
        from repro.sc import ops
        bank = np.random.default_rng(0).integers(
            0, 256, size=(8, 16), dtype=np.uint8)
        ops.popcount(bank, 128)
        ops.transpose_pack(bank, 128)
        rows = {r["kernel"]: r for r in kernels.summary()}
        assert rows["popcount"]["calls"] >= 1
        assert rows["popcount"]["seconds"] >= 0
        assert rows["transpose_pack"]["calls"] >= 1
        tiers = {r["tier"] for r in rows.values()}
        assert tiers <= {"native", "numpy"}

    def test_summary_sorted_by_descending_seconds(self, profiled):
        kernels.tock(0.0, "slow", "native")   # elapsed = now - 0 (huge)
        t0 = kernels.tick()
        kernels.tock(t0, "fast", "native")
        rows = kernels.summary()
        assert [r["kernel"] for r in rows[:2]] == ["slow", "fast"]

    def test_maybe_enable_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        try:
            assert kernels.maybe_enable_from_env()
        finally:
            kernels.arm(False)
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not kernels.maybe_enable_from_env()
        assert not kernels.armed()
