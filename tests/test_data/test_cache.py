"""Tests for the dataset/model cache."""

import numpy as np
import pytest

from repro.data import cache as cache_mod
from repro.data.cache import TrainedModel, cache_dir, get_dataset


@pytest.fixture()
def temp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


class TestCacheDir:
    def test_env_override(self, temp_cache):
        assert cache_dir() == temp_cache

    def test_order_repro_then_xdg_then_home(self, tmp_path, monkeypatch):
        """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-scdcnn``
        (as the native build cache honours it), else the home cache."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "own"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cache_dir() == tmp_path / "own"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert cache_dir() == tmp_path / "xdg" / "repro-scdcnn"
        assert cache_dir().is_dir()
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert cache_dir() == tmp_path / "home" / ".cache" / "repro-scdcnn"


class TestGetDataset:
    def test_generates_and_caches(self, temp_cache):
        a = get_dataset(12, 6, seed=3)
        files = list(temp_cache.glob("dataset_*.npz"))
        assert len(files) == 1
        b = get_dataset(12, 6, seed=3)
        np.testing.assert_array_equal(a[0], b[0])

    def test_different_seed_different_file(self, temp_cache):
        get_dataset(12, 6, seed=1)
        get_dataset(12, 6, seed=2)
        assert len(list(temp_cache.glob("dataset_*.npz"))) == 2


class TestGetTrainedLenet:
    def test_trains_and_reloads(self, temp_cache):
        tm = cache_mod.get_trained_lenet(
            pooling="max", seed=0, n_train=120, n_test=60, epochs=1
        )
        assert isinstance(tm, TrainedModel)
        assert 0.0 <= tm.software_error_pct <= 100.0
        # Second call loads from cache and yields identical weights.
        tm2 = cache_mod.get_trained_lenet(
            pooling="max", seed=0, n_train=120, n_test=60, epochs=1
        )
        np.testing.assert_array_equal(tm.model.params[0].value,
                                      tm2.model.params[0].value)

    def test_bipolar_images_range(self, temp_cache):
        tm = cache_mod.get_trained_lenet(
            pooling="max", seed=0, n_train=120, n_test=60, epochs=1
        )
        imgs = tm.bipolar_test_images()
        assert imgs.min() >= -1.0 and imgs.max() <= 1.0

    def test_bad_pooling_rejected(self, temp_cache):
        with pytest.raises(ValueError, match="pooling"):
            cache_mod.get_trained_lenet(pooling="median")
