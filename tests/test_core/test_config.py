"""Tests for the configuration objects and Table 6 data."""

import pytest

from repro.core.config import (
    FEBKind,
    LayerConfig,
    NetworkConfig,
    PoolKind,
    TABLE6_CONFIGS,
    config_digest,
)


class TestLayerConfig:
    def test_feb_key(self):
        layer = LayerConfig(FEBKind.MUX)
        assert layer.feb_key(PoolKind.AVG) == "mux-avg"
        assert layer.feb_key(PoolKind.MAX) == "mux-max"


class TestNetworkConfig:
    def test_from_kinds(self):
        cfg = NetworkConfig.from_kinds(PoolKind.MAX, 512,
                                       ("MUX", "APC", "APC"), name="t")
        assert cfg.layers[0].ip_kind is FEBKind.MUX
        assert cfg.layers[2].ip_kind is FEBKind.APC

    def test_describe(self):
        cfg = NetworkConfig.from_kinds(PoolKind.AVG, 256,
                                       ("MUX", "APC", "APC"), name="No.11")
        assert "No.11" in cfg.describe()
        assert "MUX-APC-APC" in cfg.describe()

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            NetworkConfig(PoolKind.MAX, 256, ())

    def test_arbitrary_depth_accepted(self):
        """Non-LeNet depths are legal; the graph builder validates the
        count against the model it lowers."""
        for depth in (1, 2, 4, 6):
            cfg = NetworkConfig(PoolKind.MAX, 256,
                                (LayerConfig(FEBKind.APC),) * depth)
            assert len(cfg.layers) == depth

    def test_non_layerconfig_rejected(self):
        with pytest.raises(ValueError, match="LayerConfig"):
            NetworkConfig(PoolKind.MAX, 256, ("APC", "APC", "APC"))


class TestConfigDigest:
    def test_values_are_stable(self):
        """Serving plan keys and DSE store keys are built on these
        digests; a changed value orphans every stored search."""
        assert config_digest(NetworkConfig.from_kinds(
            PoolKind.MAX, 64, ("APC", "APC", "APC"))) == "69877a4a81246eb8"
        assert config_digest(NetworkConfig.from_kinds(
            PoolKind.AVG, 1024, ("MUX", "APC"))) == "da8fb7169b8c616c"


class TestTable6Data:
    def test_twelve_rows(self):
        assert len(TABLE6_CONFIGS) == 12

    def test_max_and_avg_halves(self):
        poolings = [cfg.pooling for cfg, _ in TABLE6_CONFIGS]
        assert poolings[:6] == [PoolKind.MAX] * 6
        assert poolings[6:] == [PoolKind.AVG] * 6

    def test_delay_consistent_with_length(self):
        """Table 6's delay column is always L × 5 ns."""
        for cfg, paper in TABLE6_CONFIGS:
            assert paper.delay_ns == cfg.length * 5

    def test_layer2_always_apc(self):
        for cfg, _ in TABLE6_CONFIGS:
            assert cfg.layers[2].ip_kind is FEBKind.APC

    def test_apc_rows_more_accurate(self):
        """Within each (pooling, L) pair, the all-APC row has lower
        reported inaccuracy."""
        for i in range(0, 12, 2):
            lighter, heavier = TABLE6_CONFIGS[i], TABLE6_CONFIGS[i + 1]
            assert (heavier[1].inaccuracy_pct < lighter[1].inaccuracy_pct)
