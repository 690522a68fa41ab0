"""Tests for the explicit search space."""

import pytest

from repro.dse.space import Candidate, Scenario, SearchSpace, halving_lengths


class TestHalvingLengths:
    def test_paper_schedule(self):
        assert halving_lengths(1024, 64) == (1024, 512, 256, 128, 64)

    def test_single_round(self):
        assert halving_lengths(128, 128) == (128,)

    def test_floor_not_crossed(self):
        assert halving_lengths(256, 100) == (256, 128)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="min_length"):
            halving_lengths(64, 128)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            halving_lengths(0, 0)


class TestSearchSpace:
    def test_depth_derived_from_lowered_graph(self, tiny_trained_lenet,
                                              zoo_trained):
        lenet = SearchSpace(tiny_trained_lenet)
        assert lenet.hidden_layers == 3
        assert lenet.n_weight_layers == 4
        mlp = SearchSpace(zoo_trained["mlp"])
        assert mlp.hidden_layers == 2
        assert mlp.combos() == [("MUX", "APC"), ("APC", "APC")]
        conv3 = SearchSpace(zoo_trained["conv3"])
        assert conv3.hidden_layers == 4

    def test_combos_match_legacy_enumeration(self, tiny_trained_lenet):
        """MUX/APC product order, the last layer pinned to APC."""
        space = SearchSpace(tiny_trained_lenet)
        combos = space.combos()
        assert len(combos) == 4
        assert combos[0] == ("MUX", "MUX", "APC")
        assert all(c[-1] == "APC" for c in combos)

    def test_unrestricted_last_layer(self, tiny_trained_lenet):
        space = SearchSpace(tiny_trained_lenet,
                            restrict_last_to_apc=False)
        assert len(space.combos()) == 8

    def test_scenarios_cross_pooling_and_bits(self, tiny_trained_lenet):
        space = SearchSpace(tiny_trained_lenet, poolings=("max", "avg"),
                            weight_bits=(6, 8))
        scenarios = space.scenarios()
        assert len(scenarios) == 4
        assert scenarios[0] == Scenario("max", (6, 6, 6, 6))
        assert {s.pooling for s in scenarios} == {"max", "avg"}

    def test_weight_bits_normalized_and_deduped(self, tiny_trained_lenet):
        space = SearchSpace(tiny_trained_lenet,
                            weight_bits=(8, (8, 8, 8), (6, 7, 8)))
        assert space.weight_bits == ((8, 8, 8, 8), (6, 7, 8, 8))

    def test_float_storage_rejected(self, tiny_trained_lenet):
        with pytest.raises(ValueError, match="float storage"):
            SearchSpace(tiny_trained_lenet, weight_bits=(None,))

    @pytest.mark.parametrize("bits", [0, -3, (8, 0, 8)])
    def test_non_positive_bits_rejected(self, tiny_trained_lenet, bits):
        """Bits < 1 used to pass here and then fail every point inside
        the evaluator, each one retried and quarantined."""
        with pytest.raises(ValueError, match="weight bits must be >= 1"):
            SearchSpace(tiny_trained_lenet, weight_bits=(8, bits))

    def test_size_upper_bound(self, tiny_trained_lenet):
        space = SearchSpace(tiny_trained_lenet, max_length=256,
                            min_length=64)
        assert space.size == 4 * 1 * 3
        assert "4 combos" in space.describe()

    def test_from_trained_pins_model_pooling(self, trained_lenet):
        space = SearchSpace.from_trained(trained_lenet)
        assert space.poolings == ("max",)
        assert space.lengths() == (1024, 512, 256, 128, 64)


class TestCandidate:
    def test_config_matches_legacy_naming(self):
        cand = Candidate(("MUX", "APC", "APC"), "max", (8, 8, 8, 8),
                         1024, 0)
        config = cand.config()
        assert config.name == "MUX-APC-APC@1024"
        assert config.length == 1024
        assert cand.combo_label == "MUX-APC-APC"
        assert cand.scenario == Scenario("max", (8, 8, 8, 8))
