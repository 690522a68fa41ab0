"""Scene-mode serving: fan-out, bit-identity, pool reuse, HTTP, procs.

The acceptance claims under test:

* one scene request fans out into a coalesced window batch whose exact
  replies are bit-identical, window for window, to a dedicated
  single-window engine run — at any worker count;
* a scene run compiles exactly one plan per (model, config, bits)
  through the pool (hit-rate asserted);
* malformed scene payloads are the HTTP layer's 400 class, end to end.

The service and HTTP modes run over both executors (``procs0``/``procs2``).
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import NetworkConfig, PoolKind
from repro.data.scenes import SceneGenerator
from repro.data.synthetic_mnist import to_bipolar
from repro.engine import Engine, TiledInference
from repro.serve import InferenceService, create_server
from repro.serve.procpool import ProcServeFacade

LENGTH = 32
CFG = NetworkConfig.from_kinds(PoolKind.MAX, LENGTH, ("APC", "APC", "APC"))


@pytest.fixture(scope="module")
def service(make_service, tiny_trained_lenet):
    svc = make_service(tiny_trained_lenet, backend="exact",
                       length=LENGTH, max_batch=8, max_wait_ms=10,
                       workers=2, warm=False)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def grid_scene():
    return SceneGenerator(seed=0).grid(index=0, rows=2, cols=2)


class TestServiceSceneMode:
    def test_scene_matches_dedicated_tiler_bitwise(
            self, service, tiny_trained_lenet, grid_scene):
        """Served scene logits == a dedicated single-engine tiled run,
        window for window, bit for bit."""
        served = service.predict_scene(grid_scene)
        oracle = TiledInference(
            Engine(tiny_trained_lenet, CFG, backend="exact",
                   seed=0)).infer(grid_scene)
        assert served.boxes == oracle.boxes
        np.testing.assert_array_equal(served.window_logits,
                                      oracle.window_logits)
        np.testing.assert_array_equal(served.cell_preds,
                                      oracle.cell_preds)

    def test_each_window_matches_fresh_single_window_engine(
            self, service, tiny_trained_lenet):
        scene = SceneGenerator(seed=6).translated(index=0,
                                                  canvas_hw=(42, 42))
        served = service.predict_scene(scene, stride=14)
        for i, (t, l, h, w) in enumerate(served.boxes):
            window = to_bipolar(scene.canvas[t:t + h, l:l + w])
            fresh = Engine(tiny_trained_lenet, CFG, backend="exact",
                           seed=0)
            np.testing.assert_array_equal(
                fresh.forward(window)[0], served.window_logits[i])

    def test_payload_form_equals_scene_form(self, service, grid_scene):
        from_obj = service.predict_scene(grid_scene)
        from_payload = service.predict_scene(
            json.loads(json.dumps(grid_scene.to_payload())))
        np.testing.assert_array_equal(from_obj.window_logits,
                                      from_payload.window_logits)

    def test_one_plan_compile_per_scene_run(self, make_service,
                                            tiny_trained_lenet):
        """N scenes through one service: exactly one plan compiled,
        every later lookup a hit."""
        with make_service(tiny_trained_lenet, backend="exact",
                          length=LENGTH, max_batch=8, max_wait_ms=5,
                          warm=False) as svc:
            scenes = SceneGenerator(seed=1).scenes("grid", 3)
            for scene in scenes:
                svc.predict_scene(scene)
            stats = svc.stats()["pool"]
            assert stats["plans_compiled"] == 1
            assert stats["plans_rederived"] == 0
            assert stats["engines"] == 1
            assert stats["misses"] == 1
            assert stats["hits"] / (stats["hits"] + stats["misses"]) > 0.5

    def test_scene_and_predict_traffic_coexist(self, service,
                                               grid_scene):
        """Plain predicts interleaved with scene requests: the 5-tuple
        and 6-tuple group keys never mix, and both reply correctly."""
        cell = grid_scene.cells[0]
        top, left, h, w = cell.box
        tile = to_bipolar(grid_scene.canvas[top:top + h, left:left + w])
        results = {}

        def scene_client():
            results["scene"] = service.predict_scene(grid_scene)

        def predict_client():
            results["pred"] = service.predict_one(tile)

        threads = [threading.Thread(target=scene_client),
                   threading.Thread(target=predict_client)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # the grid cell's served prediction must agree across modes:
        # window 0 of the scene IS the tile the plain predict saw
        assert results["pred"] == int(results["scene"].cell_preds[0])

    def test_malformed_scene_is_value_error(self, service):
        with pytest.raises(ValueError, match="scene"):
            service.predict_scene({"kind": "grid"})

    def test_canvas_smaller_than_tile_rejected(self, service):
        with pytest.raises(ValueError, match="span"):
            service.predict_scene({
                "kind": "grid",
                "canvas": np.zeros((10, 10)).tolist(),
                "cells": [{"label": 1, "box": [0, 0, 5, 5]}]})

    def test_bad_stride_rejected(self, service, grid_scene):
        with pytest.raises(ValueError, match="stride"):
            service.predict_scene(grid_scene, stride="dense")


class TestHTTPSceneMode:
    @pytest.fixture(scope="class")
    def http(self, make_service, tiny_trained_lenet):
        service = make_service(tiny_trained_lenet, backend="exact",
                               length=LENGTH, max_batch=8,
                               max_wait_ms=10, warm=False)
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        yield base, service
        server.shutdown()
        server.server_close()
        service.close()

    @staticmethod
    def _call(base, payload):
        data = json.dumps(payload).encode("utf8")
        request = urllib.request.Request(
            base + "/predict", data=data, method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=60) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_scene_roundtrip_matches_service(self, http, grid_scene):
        base, service = http
        status, reply = self._call(
            base, {"scene": grid_scene.to_payload()})
        assert status == 200
        direct = service.predict_scene(grid_scene)
        assert reply["kind"] == "grid"
        assert reply["cell_predictions"] == [int(p)
                                             for p in direct.cell_preds]
        assert reply["window_boxes"] == [list(b) for b in direct.boxes]
        assert reply["window_predictions"] == [
            int(p) for p in direct.window_preds]

    def test_scene_with_image_is_400(self, http, grid_scene):
        base, _ = http
        status, reply = self._call(
            base, {"scene": grid_scene.to_payload(),
                   "image": [0.0] * 784})
        assert status == 400
        assert "exactly one" in reply["error"]

    def test_malformed_scene_is_400(self, http):
        base, _ = http
        status, reply = self._call(base, {"scene": {"kind": "grid"}})
        assert status == 400
        assert "scene" in reply["error"]

    def test_unknown_scene_field_is_400(self, http, grid_scene):
        base, _ = http
        status, _ = self._call(base, {"scene": grid_scene.to_payload(),
                                      "windowing": "dense"})
        assert status == 400


class TestProcSceneMode:
    def test_facade_bit_identical_to_inprocess(self, tiny_trained_lenet,
                                               grid_scene):
        """Scene replies through 2 worker processes == the in-process
        service, bit for bit (any worker count, same answer)."""
        with InferenceService(tiny_trained_lenet, backend="exact",
                              length=LENGTH, max_batch=8, max_wait_ms=5,
                              warm=False) as svc:
            expected = svc.predict_scene(grid_scene)
        with ProcServeFacade(tiny_trained_lenet, procs=2,
                             backend="exact", length=LENGTH,
                             max_batch=8, max_wait_ms=5,
                             warm=False) as facade:
            served = facade.predict_scene(grid_scene, timeout=120)
            np.testing.assert_array_equal(served.window_logits,
                                          expected.window_logits)
            np.testing.assert_array_equal(served.cell_preds,
                                          expected.cell_preds)
            assert served.boxes == expected.boxes
            # frontend validation rejects junk without crossing a
            # process boundary
            with pytest.raises(ValueError, match="scene"):
                facade.predict_scene({"kind": "grid"})
