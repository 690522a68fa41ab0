"""Property test of the halving search over stubbed evaluations.

``_EvalContext.evaluate`` is replaced by a lookup into a drawn error
table, so hypothesis can explore thresholds, screen margins, scenarios,
schedules and ties (equal errors, errors exactly on the threshold)
without running an engine.  The properties are the Section 6.3 rules
the runner implements; ``golden_search.json`` pins the real numbers.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.cache import TrainedModel
from repro.dse import ParallelRunner, ScreenPolicy, SearchSpace
from repro.dse import runner as runner_mod
from repro.nn.zoo import build_zoo_model

MODEL = build_zoo_model("mlp", "max", seed=0)
#: Few distinct values, all exact in binary, so ties and
#: exactly-on-the-threshold degradations come up often.
ERRORS = (0.0, 6.25, 12.5, 50.0, 100.0)


@st.composite
def searches(draw):
    max_length = draw(st.sampled_from((16, 32, 64, 128)))
    rounds = draw(st.integers(1, 4))
    space = SearchSpace(
        MODEL,
        poolings=draw(st.sampled_from([("max",), ("avg",),
                                       ("max", "avg")])),
        weight_bits=draw(st.sampled_from([(8,), (6,), (6, 8)])),
        max_length=max_length, min_length=max(max_length >> (rounds - 1), 1),
        restrict_last_to_apc=draw(st.booleans()))
    software = draw(st.sampled_from((0.0, 6.25)))
    threshold = draw(st.sampled_from((-1.0, 0.0, 6.25, 12.5, 50.0)))
    margin = draw(st.sampled_from((None, 0.0, 6.25, 50.0)))
    return space, software, threshold, margin


def _key(stage, cand):
    return (stage, cand.kinds, cand.pooling, cand.weight_bits, cand.length)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(search=searches(), data=st.data())
def test_halving_search_properties(search, data):
    space, software, threshold, margin = search
    trained = TrainedModel(model=MODEL, pooling="max",
                           x_test=np.zeros((4, 784)),
                           y_test=np.zeros(4, dtype=int),
                           software_error_pct=software, model_name="mlp")
    table, calls = {}, []

    def evaluate(ctx, task):
        key = _key(task.stage, task.candidate)
        calls.append(key)
        if key not in table:
            table[key] = data.draw(st.sampled_from(ERRORS), label=str(key))
        return table[key]

    screen = None if margin is None else ScreenPolicy(margin_pct=margin)
    runner = ParallelRunner(trained, space, threshold_pct=threshold,
                            eval_images=4, seed=5, workers=1,
                            screen=screen)
    with mock.patch.object(runner_mod._EvalContext, "evaluate", evaluate):
        result = runner.run()

    records = result.records
    keys = [(r.stage, r.kinds, r.pooling, r.weight_bits, r.length)
            for r in records]
    # One record per evaluated point, in (round, scenario, combo) order
    # with a round's screens ahead of its full evaluations.
    assert keys == calls
    assert len(set(keys)) == len(keys)
    scenarios = [(s.pooling, s.weight_bits) for s in space.scenarios()]
    combos = space.combos()
    assert keys == sorted(keys, key=lambda k: (
        -k[4], k[0] != "screen", scenarios.index((k[2], k[3])),
        combos.index(k[1])))

    passed = {key: r.passed for key, r in zip(keys, records)}
    for key, r in zip(keys, records):
        stage = key[0]
        assert r.error_pct == table[key]
        assert r.degradation_pct == table[key] - software
        if stage == "full":
            # a combo passes iff its degradation is within the budget
            assert r.passed == (r.degradation_pct <= threshold)
            assert r.point.config.name == \
                f"{'-'.join(r.kinds)}@{r.length}"
            assert r.point.error_pct == r.error_pct
        else:
            # the screen promotes iff within the budget plus the margin
            assert r.passed == (r.degradation_pct <= threshold + margin)
            assert r.point is None

    # A combo is evaluated at L iff it passed at every longer L (and,
    # when screening, the full evaluation runs iff the screen promoted).
    lengths = space.lengths()
    for pooling, bits in scenarios:
        for kinds in combos:
            alive = True
            for length in lengths:
                full = ("full", kinds, pooling, bits, length)
                if screen is not None:
                    probe = ("screen", kinds, pooling, bits, length)
                    assert (probe in passed) == alive
                    alive = alive and passed[probe]
                assert (full in passed) == alive
                alive = alive and passed[full]

    # passing: every passing full point, sorted by energy, ties kept
    # in record order
    expected = sorted((r.point for r in records
                       if r.stage == "full" and r.passed),
                      key=lambda p: p.cost.energy_uj)
    assert [id(p) for p in result.passing] == [id(p) for p in expected]
    energies = [p.cost.energy_uj for p in result.passing]
    assert energies == sorted(energies)
    assert result.stats["full_evals"] == sum(k[0] == "full" for k in keys)
    assert result.stats["screen_evals"] == sum(k[0] == "screen"
                                               for k in keys)
