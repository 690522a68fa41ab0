"""Section 6.3's holistic optimization, reproduced end to end.

Enumerates layer-wise feature-extraction-block assignments, evaluates
each configuration's network accuracy with the paper's noise-injection
methodology, prunes those violating the accuracy threshold, halves the
bit-stream length and iterates — then prints the surviving design points
with their hardware costs and marks the Pareto frontier on error, area,
power and energy (the paper's Table 6 emerges from exactly this loop).
The search runs through ``repro.dse.ParallelRunner``, the same runner
behind ``python -m repro dse``.

Run:  python examples/design_space_exploration.py
"""

from repro.analysis.tables import format_table
from repro.data.cache import get_trained_lenet
from repro.dse import ParallelRunner, SearchSpace


def main():
    trained = get_trained_lenet(pooling="max")
    print(f"software baseline error: {trained.software_error_pct:.2f}%")

    space = SearchSpace.from_trained(trained, max_length=1024,
                                     min_length=128)
    result = ParallelRunner(trained, space, threshold_pct=8.0,
                            eval_images=300, seed=5).run()
    points = result.passing
    front = set(id(p) for p in result.frontier)

    rows = []
    for p in points:
        rows.append([
            "*" if id(p) in front else "",
            p.config.describe(),
            f"{p.error_pct:.2f}%",
            f"{p.degradation_pct:+.2f}%",
            f"{p.cost.area_mm2:.1f}",
            f"{p.cost.power_w:.2f}",
            f"{p.cost.energy_uj:.2f}",
        ])
    print(format_table(
        ["", "Design point", "Error", "Degradation", "Area mm²",
         "Power W", "Energy µJ"],
        rows,
        title="Surviving design points (* = Pareto-optimal on "
              "error/area/power/energy)",
    ))
    if points:
        best = points[0]
        print(f"\nmost energy-efficient survivor: {best.config.describe()} "
              f"at {best.cost.energy_uj:.2f} µJ/image")


if __name__ == "__main__":
    main()
