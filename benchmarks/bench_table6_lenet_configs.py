"""Table 6: the twelve LeNet-5 SC-DCNN configurations.

For every configuration this bench reports:

* **inaccuracy** under the paper's evaluation methodology (measured block
  inaccuracy injected as zero-mean noise — the ``noise`` engine backend)
  and under the calibrated transfer-curve surrogate that also carries
  systematic block distortion (the ``surrogate`` backend);
* **area / power / delay / energy** from the hardware cost model
  (calibration anchored at configuration No.11, see DESIGN.md).

Expected shapes: APC-heavier configurations are more accurate and more
expensive; energy scales with the stream length; max pooling beats
average pooling on accuracy at matched configurations.

The bit-exact simulator spot-checks anchor configuration No.4 on 12
images; set ``REPRO_TABLE6_EXACT=1`` to run it on 60.
"""

import os

from repro.analysis.tables import format_table
from repro.core.config import TABLE6_CONFIGS, PoolKind
from repro.engine import Engine
from repro.hw.network_cost import lenet_network_cost

from bench_utils import scaled


def _evaluate_all(trained_max, trained_avg, n_images):
    rows = []
    for config, paper in TABLE6_CONFIGS:
        trained = (trained_max if config.pooling is PoolKind.MAX
                   else trained_avg)
        x = trained.bipolar_test_images()[:n_images]
        y = trained.y_test[:n_images]
        noise_err = Engine(trained.model, config, backend="noise", seed=11,
                           samples=96).error_rate(x, y, batch_size=256)
        surr_err = Engine(trained.model, config, backend="surrogate",
                          seed=11, samples=240, noisy=True).error_rate(
                              x, y, batch_size=256)
        cost = lenet_network_cost(config)
        rows.append((config, paper, noise_err, surr_err, cost))
    return rows


def test_table6_configurations(benchmark, trained_max, trained_avg,
                               record_table):
    n_images = scaled(400)
    rows = benchmark.pedantic(
        lambda: _evaluate_all(trained_max, trained_avg, n_images),
        rounds=1, iterations=1,
    )
    table = []
    for config, paper, noise_err, surr_err, cost in rows:
        table.append([
            config.name,
            config.describe().split(" ", 1)[1],
            f"{noise_err:.2f} / {surr_err:.2f} ({paper.inaccuracy_pct})",
            f"{cost.area_mm2:.1f} ({paper.area_mm2})",
            f"{cost.power_w:.2f} ({paper.power_w})",
            f"{cost.delay_ns:.0f} ({paper.delay_ns:.0f})",
            f"{cost.energy_uj:.2f} ({paper.energy_uj})",
        ])
    header = ["No.", "Config",
              "Inaccuracy % noise/surrogate (paper)",
              "Area mm² (paper)", "Power W (paper)",
              "Delay ns (paper)", "Energy µJ (paper)"]
    sw = (f"software baselines: max {trained_max.software_error_pct:.2f}%, "
          f"avg {trained_avg.software_error_pct:.2f}% "
          f"(paper: 1.53% / 2.24%)")
    record_table("table6", format_table(
        header, table, title=f"Table 6 — LeNet-5 configurations ({sw})"
    ))

    by_name = {c.name: (c, p, ne, se, cost)
               for c, p, ne, se, cost in rows}
    # APC-heavy configs are more accurate under the paper methodology.
    assert by_name["No.2"][2] <= by_name["No.1"][2] + 1.0
    # ...and cost more area.
    assert by_name["No.2"][4].area_mm2 > by_name["No.1"][4].area_mm2
    # Energy scales with stream length at fixed config.
    assert (by_name["No.8"][4].energy_uj
            > 1.8 * by_name["No.10"][4].energy_uj)
    # Delay column is exactly L × 5 ns.
    for config, paper, *_rest in rows:
        assert _rest[-1].delay_ns == paper.delay_ns


def test_table6_exact_simulation_anchor(benchmark, trained_max,
                                         record_table):
    """Bit-exact spot check of one APC configuration (No.4, L=512)."""
    config, paper = TABLE6_CONFIGS[3]
    n_images = 60 if os.environ.get("REPRO_TABLE6_EXACT") else 12
    engine = Engine(trained_max.model, config, backend="exact", seed=11)
    x = trained_max.bipolar_test_images()
    err = benchmark.pedantic(
        lambda: engine.error_rate(x, trained_max.y_test,
                                  max_images=n_images),
        rounds=1, iterations=1,
    )
    record_table("table6_exact", format_table(
        ["Config", "Exact bit-level inaccuracy", "Paper", "Images"],
        [[config.describe(), f"{err:.1f}%",
          f"{paper.inaccuracy_pct}%", str(n_images)]],
        title="Table 6 — exact simulation anchor",
    ))
    assert err < 50.0
