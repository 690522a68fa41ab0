"""Instrumentation sites: fault trips, DSE runner counters, engine layers."""

import numpy as np
import pytest

import repro.native as native
from repro import faults, obs
from repro.core.config import NetworkConfig, PoolKind
from repro.dse.runner import _bump
from repro.engine import Engine
from repro.nn.lenet import build_lenet5
from repro.obs.registry import set_armed


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


class TestEngineLayerMetric:
    """``repro_engine_layer_seconds``: one observation per engine layer
    per batch, labelled with the tier fixed at backend construction."""

    LENGTH = 16

    @staticmethod
    def _counts(registry):
        family = registry.snapshot()["repro_engine_layer_seconds"]
        names = family["labelnames"]
        return {tuple(zip(names, key)): sample["count"]
                for key, sample in family["samples"].items()}

    def _forward(self, tier):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, self.LENGTH,
                                       ("APC", "MUX", "APC"))
        with native.override(tier == "native"):
            engine = Engine(build_lenet5("max", seed=0), cfg,
                            backend="exact", seed=0)
        images = np.random.default_rng(0).uniform(-1, 1, size=(2, 784))
        engine.backend.forward_independent(images)
        return engine.backend.plan.layers

    def _expected(self, layers, tier):
        return {(("kind", lp.kind.value), ("layer", str(i)), ("op", lp.op),
                 ("tier", tier)): 1
                for i, lp in enumerate(layers)}

    @pytest.mark.skipif(not native.available(),
                        reason="native tier not built")
    def test_one_count_per_layer_native(self, registry):
        layers = self._forward("native")
        assert self._counts(registry) == self._expected(layers, "native")

    def test_one_count_per_layer_numpy(self, registry):
        layers = self._forward("numpy")
        assert self._counts(registry) == self._expected(layers, "numpy")

    def test_disarmed_records_no_series(self, registry):
        set_armed(False)
        try:
            self._forward("numpy")
        finally:
            set_armed(True)
        assert "repro_engine_layer_seconds" not in registry.snapshot()
