"""Section 6.3: the holistic optimization procedure.

Runs the paper's iterative design-space exploration (evaluate every
layer-kind combination, keep configurations within the accuracy
threshold, halve the stream length, repeat) and reports the surviving
design points with their hardware costs.  Expected shape: APC-heavy
configurations survive to shorter stream lengths; MUX-heavy ones drop
out first; the energy-optimal survivors use the shortest passing L.
The search runs through ``repro.dse.ParallelRunner``; the frontier
ranks on error, area, power and energy.
"""

from repro.analysis.tables import format_table
from repro.dse import ParallelRunner, SearchSpace

from bench_utils import scaled


def test_holistic_optimization(benchmark, trained_max, record_table):
    space = SearchSpace.from_trained(trained_max, max_length=1024,
                                     min_length=128)
    runner = ParallelRunner(trained_max, space, threshold_pct=8.0,
                            eval_images=scaled(300), seed=13)

    result = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    points = result.passing
    assert points, "at least one configuration must meet the threshold"

    rows = [[p.config.describe(), f"{p.error_pct:.2f}%",
             f"{p.degradation_pct:+.2f}%", f"{p.cost.area_mm2:.1f}",
             f"{p.cost.energy_uj:.2f}"] for p in points]
    front = result.frontier
    record_table("sec63_optimizer", format_table(
        ["Design point", "Error", "Degradation", "Area mm²", "Energy µJ"],
        rows,
        title=(f"Section 6.3 — surviving design points "
               f"(threshold 8.0%, {len(front)} Pareto-optimal on "
               f"error/area/power/energy)"),
    ))

    # All-APC must survive at the longest length.
    assert any(p.config.length == 1024
               and all(l.ip_kind.value == "APC" for l in p.config.layers)
               for p in points)
    # Survivors meet the threshold by construction.
    assert all(p.degradation_pct <= 8.0 for p in points)
