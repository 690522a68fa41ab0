"""Import-layering contracts: a process loads only what it runs.

Forward and serving processes import the engine, the serving stack and
the model zoo; scipy (used only by the synthetic-digit generator) and
the generator itself must stay out of them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.data.synthetic_mnist import SyntheticMNIST

_PROBE = """
import hashlib, json, sys
import repro.engine, repro.serve, repro.nn.zoo
before = sorted(m for m in sys.modules
                if m == "scipy" or m.startswith(("scipy.",
                                                 "repro.data.synthetic")))
from repro.data.synthetic_mnist import SyntheticMNIST
sample = SyntheticMNIST(seed=0).sample(3)
print(json.dumps({"before": before, "scipy_after": "scipy" in sys.modules,
                  "sample": hashlib.sha256(sample.tobytes()).hexdigest()}))
"""


def _run(code: str) -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    return json.loads(out)


def test_forward_and_serve_imports_load_no_scipy():
    probe = _run(_PROBE)
    assert probe["before"] == []
    # the generator still works, importing scipy on first use, and draws
    # the same digit as in a process that had loaded it already
    assert probe["scipy_after"]
    expected = SyntheticMNIST(seed=0).sample(3)
    assert probe["sample"] == hashlib.sha256(expected.tobytes()).hexdigest()
