"""Regenerate ``digests.json``, the benchmark's correctness gate.

    PYTHONPATH=src python3 perfbench/oracle.py

Every digest comes from a dedicated oracle, not from the code paths the
benchmark times: each image's logits from a freshly built ``Engine``
whose first ``forward`` sees only that image, and each scene reply from
``TiledInference`` over a fresh engine with the request's seed.  The
exact backend's contract (logits are a pure function of model, config,
seed and input) makes these equal to what the batched forward and the
servers must return.  Regenerate only when that contract is meant to
change.
"""

from __future__ import annotations

import json

import numpy as np

from common import (DIGESTS, LENGTH, MODEL, SCENE_SEEDS, SPECS, BATCH,
                    image_pool, logits_digest, reply_digest, scene_pool)


def _plan(spec: str):
    from repro.core.config import NetworkConfig, resolve_pooling
    from repro.engine import build_graph, compile_plan
    from repro.nn.zoo import build_zoo_model
    pooling = SPECS[spec]["pooling"]
    config = NetworkConfig.from_kinds(resolve_pooling(pooling), LENGTH,
                                      SPECS[spec]["kinds"])
    return compile_plan(build_graph(build_zoo_model(MODEL, pooling, seed=0),
                                    config))


def image_logits(spec: str) -> np.ndarray:
    from repro.engine import Engine
    plan = _plan(spec)
    return np.concatenate([Engine(plan=plan, seed=0).forward(image[None])
                           for image in image_pool()])


def scene_replies(seed: int) -> list:
    from repro.data.scenes import Scene
    from repro.engine import Engine, TiledInference
    plan = _plan("apc-max")
    replies = []
    for payload in scene_pool():
        result = TiledInference(Engine(plan=plan, seed=seed)).infer(
            Scene.from_payload(payload))
        replies.append({
            "backend": "exact",
            "kind": result.kind,
            "cell_predictions": [int(p) for p in result.cell_preds],
            "cell_windows": [int(i) for i in result.cell_windows],
            "window_boxes": [list(b) for b in result.boxes],
            "window_predictions": [int(p) for p in result.window_preds],
        })
    return replies


def main() -> None:
    digests = {}
    for spec in SPECS:
        logits = image_logits(spec)
        digests[f"fwd-{spec}"] = [logits_digest(logits[i:i + BATCH])
                                  for i in range(0, len(logits), BATCH)]
    digests["serve-procs-scenes"] = {
        str(seed): [reply_digest(r) for r in scene_replies(seed)]
        for seed in SCENE_SEEDS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()
