"""One frontend, two executors: fixtures that run a test over both.

A test (or fixture) that asks for ``make_service`` runs once per
executor — ``procs0`` builds an in-process :class:`InferenceService`,
``procs2`` a two-worker :class:`ProcServeFacade` from the same
arguments — so the serving contract is pinned for both.
"""

import pytest

from repro.serve import InferenceService, ProcServeFacade


@pytest.fixture(scope="module", params=(0, 2), ids=("procs0", "procs2"))
def procs(request):
    return request.param


@pytest.fixture(scope="module")
def make_service(procs):
    def make(model, **kwargs):
        if procs:
            return ProcServeFacade(model, procs=procs, **kwargs)
        return InferenceService(model, **kwargs)
    return make

