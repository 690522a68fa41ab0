"""Command-line entry point: ``python -m repro <experiment>``.

Regenerates individual paper experiments from the shell without writing
any Python — handy for quick paper-vs-measured checks:

    python -m repro table2          # MUX inner-product error grid
    python -m repro table7          # platform comparison
    python -m repro list            # everything available

runs batched inference through the unified engine:

    python -m repro infer --backend exact --batch 16
    python -m repro infer --backend surrogate --images 256 --length 512

starts the micro-batching HTTP inference service:

    python -m repro serve --port 8100 --backend exact --length 64

runs composite-scene workloads through tiled inference (``generate``
emits deterministic scene JSON, ``roundtrip`` holds the serve tier to
a dedicated local engine run, bit for bit):

    python -m repro scenes infer --kind grid --count 4
    python -m repro scenes roundtrip --kind translated --train 200

and runs the parallel, resumable design-space exploration (Section 6.3):

    python -m repro dse --model lenet5 --workers 4 --screen \
        --store search.jsonl --resume
"""

from __future__ import annotations

import argparse
import sys
import time


def _table1():
    from repro.analysis.block_error import or_inner_product_error
    from repro.analysis.tables import PAPER, format_table
    from repro.sc.encoding import Encoding
    rows = []
    for label, enc in (("Unipolar", Encoding.UNIPOLAR),
                       ("Bipolar", Encoding.BIPOLAR)):
        rows.append([label] + [
            f"{or_inner_product_error(n, 1024, enc, trials=48):.2f} "
            f"(paper {PAPER['table1'][(label.lower(), n)]})"
            for n in (16, 32, 64)
        ])
    print(format_table(["Format", "n=16", "n=32", "n=64"], rows,
                       title="Table 1 — OR-gate inner product error"))


def _table2():
    from repro.analysis.block_error import mux_inner_product_error
    from repro.analysis.tables import PAPER, format_table
    lengths = (512, 1024, 2048, 4096)
    rows = []
    for n in (16, 32, 64):
        rows.append([f"n={n}"] + [
            f"{mux_inner_product_error(n, L, trials=48):.2f} "
            f"(paper {PAPER['table2'][(n, L)]})"
            for L in lengths
        ])
    print(format_table(["Input size"] + [f"L={L}" for L in lengths], rows,
                       title="Table 2 — MUX inner product error"))


def _table5():
    from repro.analysis.block_error import stanh_inaccuracy
    from repro.analysis.tables import PAPER, format_table
    rows = [[f"K={k}", f"{100 * stanh_inaccuracy(k, trials=200):.2f}%",
             f"{PAPER['table5'][k]}%"]
            for k in (8, 10, 12, 14, 16, 18, 20)]
    print(format_table(["States", "Measured", "Paper"], rows,
                       title="Table 5 — Stanh relative inaccuracy"))


def _fig14():
    from repro.analysis.block_error import feb_inaccuracy
    from repro.analysis.tables import format_table
    sizes = (16, 64, 256)
    rows = []
    for kind in ("mux-avg", "mux-max", "apc-avg", "apc-max"):
        rows.append([kind] + [f"{feb_inaccuracy(kind, n, 1024, trials=24):.3f}"
                              for n in sizes])
    print(format_table(["FEB"] + [f"n={n}" for n in sizes], rows,
                       title="Figure 14 — FEB inaccuracy (L=1024)"))


def _fig15():
    from repro.analysis.tables import format_table
    from repro.hw.blocks_cost import feb_metrics
    sizes = (16, 64, 256)
    rows = []
    for kind in ("mux-avg", "mux-max", "apc-avg", "apc-max"):
        m = [feb_metrics(kind, n, 1024) for n in sizes]
        rows.append([kind] + [f"{x['area_um2']:.0f}µm²/{x['energy_pj']:.0f}pJ"
                              for x in m])
    print(format_table(["FEB"] + [f"n={n}" for n in sizes], rows,
                       title="Figure 15 — FEB area/energy (L=1024)"))


def _table6():
    from repro.analysis.tables import format_table
    from repro.core.config import TABLE6_CONFIGS
    from repro.hw.network_cost import lenet_network_cost
    rows = []
    for config, paper in TABLE6_CONFIGS:
        cost = lenet_network_cost(config)
        rows.append([config.name, config.describe().split(" ", 1)[1],
                     f"{cost.area_mm2:.1f} ({paper.area_mm2})",
                     f"{cost.power_w:.2f} ({paper.power_w})",
                     f"{cost.energy_uj:.2f} ({paper.energy_uj})"])
    print(format_table(
        ["No.", "Config", "Area mm²", "Power W", "Energy µJ"], rows,
        title="Table 6 — hardware costs (accuracy: run the benchmark)",
    ))


def _table7():
    from repro.analysis.tables import format_table
    from repro.core.config import TABLE6_CONFIGS
    from repro.hw.network_cost import lenet_network_cost
    from repro.hw.platforms import PLATFORMS
    rows = []
    for name, idx in (("SC-DCNN (No.6)", 5), ("SC-DCNN (No.11)", 10)):
        c = lenet_network_cost(TABLE6_CONFIGS[idx][0])
        rows.append([name, f"{c.area_mm2:.1f}", f"{c.power_w:.2f}",
                     f"{c.throughput_ips:.0f}", f"{c.area_efficiency:.0f}",
                     f"{c.energy_efficiency:.0f}"])
    for p in PLATFORMS:
        rows.append([p.name,
                     "N/A" if p.area_mm2 is None else f"{p.area_mm2:.0f}",
                     "N/A" if p.power_w is None else f"{p.power_w:.2f}",
                     f"{p.throughput_ips:.0f}",
                     "N/A" if p.area_efficiency is None
                     else f"{p.area_efficiency:.1f}",
                     "N/A" if p.energy_efficiency is None
                     else f"{p.energy_efficiency:.1f}"])
    print(format_table(
        ["Platform", "Area mm²", "Power W", "Images/s", "Img/s/mm²",
         "Images/J"], rows, title="Table 7 — platform comparison",
    ))


EXPERIMENTS = {
    "table1": _table1,
    "table2": _table2,
    "table5": _table5,
    "fig14": _fig14,
    "fig15": _fig15,
    "table6": _table6,
    "table7": _table7,
}


def _add_model_args(parser: argparse.ArgumentParser,
                    default_length: int) -> None:
    """Flags shared by ``infer`` and ``serve`` (design point + model)."""
    from repro.nn.zoo import zoo_names
    parser.add_argument("--model", default="lenet5", choices=zoo_names(),
                        help="zoo architecture to train and run "
                             "(default: lenet5)")
    parser.add_argument("--backend", default="exact",
                        help="engine backend (default: exact; see "
                             "'python -m repro list' for registered names)")
    parser.add_argument("--length", type=int, default=default_length,
                        help=f"bit-stream length L "
                             f"(default: {default_length})")
    parser.add_argument("--pooling", default="max", choices=("max", "avg"),
                        help="network-wide pooling (default: max)")
    parser.add_argument("--kinds", default=None,
                        help="layer FEB kinds, e.g. MUX,APC,APC (one per "
                             "hidden layer; default: all APC at the "
                             "model's depth)")
    parser.add_argument("--weight-bits", type=int, default=None,
                        help="weight storage precision (default: float)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train", type=int, default=600,
                        help="training images for the quick model "
                             "(default: 600)")
    parser.add_argument("--epochs", type=int, default=2,
                        help="training epochs for the quick model "
                             "(default: 2)")


def _check_backend(parser: argparse.ArgumentParser, name: str) -> None:
    """Exit 2 with a clear message when ``name`` is not registered."""
    from repro.engine import list_backends
    if name not in list_backends():
        parser.error(f"unknown backend {name!r}; registered backends: "
                     f"{', '.join(list_backends())}")


def _quick_model(train: int, epochs: int, n_test: int,
                 pooling: str = "max", model_name: str = "lenet5"):
    """A briefly-trained zoo model + bipolar test split for CLI entry
    points."""
    from repro.data.synthetic_mnist import generate_dataset, to_bipolar
    from repro.nn.trainer import Trainer
    from repro.nn.zoo import build_zoo_model, get_spec

    print(f"training quick {model_name} ({train} images, "
          f"{epochs} epochs)...")
    x_train, y_train, x_test, y_test = generate_dataset(
        n_train=train, n_test=n_test, seed=123)
    model = build_zoo_model(model_name, pooling, seed=0)
    Trainer(model, lr=get_spec(model_name).lr, batch_size=64, seed=0).fit(
        to_bipolar(x_train), y_train, epochs=epochs)
    return model, to_bipolar(x_test), y_test


def _resolve_kinds_arg(parser: argparse.ArgumentParser, kinds: str,
                       model_name: str) -> tuple:
    """Parse and validate ``--kinds`` (``None`` = all-APC at the model's
    depth).  Bad values and depth mismatches exit cleanly *before* any
    training runs, through the same validator the serving layer uses."""
    from repro.core.config import resolve_kinds
    from repro.nn.zoo import default_kinds, get_spec
    if kinds is None:
        return default_kinds(model_name)
    try:
        return resolve_kinds(
            kinds, n_layers=get_spec(model_name).hidden_layers)
    except ValueError as exc:
        parser.error(f"--kinds for model {model_name!r}: {exc}")


def _infer_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro infer",
        description="Batched inference on synthetic MNIST through the "
                    "unified layer-graph engine.",
    )
    _add_model_args(parser, default_length=128)
    parser.add_argument("--batch", type=int, default=16,
                        help="images per engine call (default: 16)")
    parser.add_argument("--images", type=int, default=None,
                        help="test images to run (default: one batch)")
    return parser


def _infer(argv) -> int:
    """``python -m repro infer``: batched engine inference + throughput."""
    parser = _infer_parser()
    args = parser.parse_args(argv)
    import numpy as np

    from repro.core.config import NetworkConfig, resolve_pooling

    _check_backend(parser, args.backend)
    from repro.engine import Engine

    n_images = args.images if args.images is not None else args.batch
    kinds = _resolve_kinds_arg(parser, args.kinds, args.model)
    config = NetworkConfig.from_kinds(resolve_pooling(args.pooling),
                                      args.length, kinds, name="infer")

    model, x_test, y_test = _quick_model(args.train, args.epochs,
                                         n_test=max(n_images, 16),
                                         pooling=args.pooling,
                                         model_name=args.model)
    engine = Engine(model, config, backend=args.backend, seed=args.seed,
                    weight_bits=args.weight_bits)
    images = x_test[:n_images]
    labels = y_test[:n_images]
    print(f"model={args.model} backend={args.backend} "
          f"config={config.describe()} "
          f"batch={args.batch} images={n_images}")
    start = time.perf_counter()
    preds = engine.predict(images, batch_size=args.batch)
    elapsed = time.perf_counter() - start
    errors = int((preds != np.asarray(labels)).sum())
    print(f"throughput: {n_images / max(elapsed, 1e-9):.2f} images/s "
          f"({elapsed:.3f}s total)")
    print(f"error rate: {100.0 * errors / max(n_images, 1):.2f}% "
          f"({errors}/{n_images} wrong)")
    return 0


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Micro-batching HTTP inference service over the "
                    "unified engine (POST /predict, GET /healthz, "
                    "GET /stats).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8100,
                        help="bind port; 0 picks an ephemeral port "
                             "(default: 8100)")
    _add_model_args(parser, default_length=64)
    parser.add_argument("--max-batch", type=int, default=16,
                        help="largest coalesced micro-batch (default: 16)")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="longest a queued request waits for "
                             "co-batchable traffic (default: 2.0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="batcher worker threads (default: 1)")
    parser.add_argument("--max-queue", type=int, default=1024,
                        help="pending-request bound; beyond it requests "
                             "get 503 (default: 1024)")
    parser.add_argument("--max-engines", type=int, default=8,
                        help="engine-pool LRU capacity (default: 8)")
    parser.add_argument("--procs", type=int, default=1,
                        help="worker processes; >1 serves through the "
                             "multi-process tier with compiled plans in "
                             "shared memory (default: 1, in-process)")
    parser.add_argument("--no-warm", action="store_true",
                        help="skip preloading the default spec's engine")
    parser.add_argument("--drain-grace", type=float, default=10.0,
                        help="seconds SIGTERM-triggered drain waits for "
                             "in-flight requests before exiting "
                             "(default: 10)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request")
    return parser


def _serve(argv) -> int:
    """``python -m repro serve``: run the micro-batching HTTP service."""
    parser = _serve_parser()
    args = parser.parse_args(argv)
    _check_backend(parser, args.backend)
    if args.procs < 1:
        parser.error("--procs must be >= 1")
    from repro.serve import InferenceService, ProcServeFacade, run_server

    kinds = _resolve_kinds_arg(parser, args.kinds, args.model)
    model, _, _ = _quick_model(args.train, args.epochs, n_test=16,
                               pooling=args.pooling,
                               model_name=args.model)
    service_kwargs = dict(
        backend=args.backend, length=args.length, kinds=kinds,
        pooling=args.pooling, weight_bits=args.weight_bits, seed=args.seed,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        workers=args.workers, max_queue=args.max_queue,
        max_engines=args.max_engines, warm=not args.no_warm)
    if args.procs > 1:
        service = ProcServeFacade({args.model: model}, procs=args.procs,
                                  **service_kwargs)
    else:
        service = InferenceService({args.model: model}, **service_kwargs)
    print(f"service ready: model={args.model} backend={args.backend} "
          f"L={args.length} kinds={','.join(kinds)} "
          f"max_batch={args.max_batch} "
          f"max_wait_ms={args.max_wait_ms} procs={args.procs}")
    run_server(service, host=args.host, port=args.port,
               verbose=args.verbose, drain_grace=args.drain_grace)
    return 0


def _dse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro dse",
        description="Parallel, resumable design-space exploration "
                    "(Section 6.3): co-optimize layer FEB kinds, stream "
                    "length and weight precision under an accuracy "
                    "budget; report the passing points and their Pareto "
                    "frontier on (error, area, power, energy).",
    )
    from repro.nn.zoo import zoo_names
    parser.add_argument("--model", default="lenet5", choices=zoo_names(),
                        help="zoo architecture to search (default: lenet5)")
    parser.add_argument("--pooling", default="max", choices=("max", "avg"),
                        help="pooling the model trains with — the search "
                             "explores this pooling (default: max)")
    parser.add_argument("--workers", type=int, default=1,
                        help="evaluation worker processes (default: 1)")
    parser.add_argument("--evaluator", default="noise",
                        choices=("noise", "surrogate", "exact"),
                        help="full-fidelity evaluator (default: noise, "
                             "the paper's methodology; exact runs the "
                             "bit-level simulator)")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="accuracy budget: max error-rate degradation "
                             "in %% over the software baseline "
                             "(default: 1.5, the paper's)")
    parser.add_argument("--eval-images", type=int, default=400,
                        help="test images per full evaluation "
                             "(default: 400)")
    parser.add_argument("--max-length", type=int, default=1024,
                        help="halving schedule start (default: 1024)")
    parser.add_argument("--min-length", type=int, default=64,
                        help="halving schedule floor (default: 64)")
    parser.add_argument("--weight-bits", default="8",
                        help="weight precisions to search: comma list of "
                             "ints, e.g. '6,8' (default: 8)")
    parser.add_argument("--seed", type=int, default=0,
                        help="search seed (every point's evaluation seed "
                             "derives from it; default: 0)")
    parser.add_argument("--screen", action="store_true", default=False,
                        help="pre-screen candidates with the cheap "
                             "deterministic surrogate")
    parser.add_argument("--no-screen", dest="screen", action="store_false",
                        help="disable pre-screening (the default)")
    parser.add_argument("--margin", type=float, default=None,
                        help="screening promotion margin in %% over the "
                             "threshold (default: the policy's "
                             "conservative 20.0)")
    parser.add_argument("--screen-images", type=int, default=None,
                        help="images per screen evaluation (default: a "
                             "quarter of --eval-images, floored at 32)")
    parser.add_argument("--retries", type=int, default=2,
                        help="re-dispatch attempts per evaluation before "
                             "quarantining the point (default: 2)")
    parser.add_argument("--eval-timeout", type=float, default=None,
                        help="seconds one evaluation may run before it "
                             "counts as failed and is retried "
                             "(default: unbounded)")
    parser.add_argument("--store", default=None,
                        help="append-only JSONL result store; makes the "
                             "search resumable")
    parser.add_argument("--resume", action="store_true",
                        help="reuse results already in --store (skips "
                             "every recorded point)")
    parser.add_argument("--export", default=None,
                        help="write the frontier to this .csv or .json "
                             "path (JSON includes halving trajectories)")
    parser.add_argument("--cached-model", action="store_true",
                        help="use the fully-trained disk-cached model "
                             "(repro.data.cache) instead of the quick "
                             "--train/--epochs recipe")
    parser.add_argument("--train", type=int, default=600,
                        help="training images for the quick model "
                             "(default: 600)")
    parser.add_argument("--epochs", type=int, default=2,
                        help="training epochs for the quick model "
                             "(default: 2)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every evaluated point")
    return parser


def _dse_trained(args):
    """The TrainedModel a ``dse`` invocation searches."""
    from repro.data.cache import TrainedModel, get_trained_model
    if args.cached_model:
        return get_trained_model(args.model, pooling=args.pooling)
    from repro.nn.trainer import evaluate_error_rate
    model, x_test, y_test = _quick_model(
        args.train, args.epochs, n_test=max(args.eval_images, 16),
        pooling=args.pooling, model_name=args.model)
    # x_test is already bipolar; TrainedModel stores the [0, 1] images.
    x_unit = (x_test + 1.0) / 2.0
    return TrainedModel(
        model=model, pooling=args.pooling, x_test=x_unit, y_test=y_test,
        software_error_pct=evaluate_error_rate(model, x_test, y_test),
        model_name=args.model)


def _dse(argv) -> int:
    """``python -m repro dse``: run the design-space exploration."""
    parser = _dse_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.store:
        parser.error("--resume needs --store (there is nothing to "
                     "resume without a result store)")
    if args.store and not args.resume:
        from pathlib import Path
        existing = Path(args.store)
        if existing.exists() and existing.stat().st_size > 0:
            # Fail before any training runs — clobbering a finished
            # search silently would defeat the store's whole point.
            parser.error(f"result store {args.store} already exists; "
                         "pass --resume to continue it or remove the "
                         "file to start over")
    try:
        weight_bits = tuple(int(b) for b in
                            str(args.weight_bits).split(","))
    except ValueError:
        parser.error(f"--weight-bits must be a comma list of ints, got "
                     f"{args.weight_bits!r}")
    from repro.analysis.tables import format_table
    from repro.dse import (
        ParallelRunner,
        ResultStore,
        ScreenPolicy,
        SearchSpace,
        export_frontier,
    )
    from repro.nn.zoo import model_digest

    screen = None
    if args.screen:
        overrides = {}
        if args.margin is not None:
            overrides["margin_pct"] = args.margin
        if args.screen_images is not None:
            overrides["images"] = args.screen_images
        try:
            screen = ScreenPolicy(**overrides)
        except ValueError as exc:
            parser.error(str(exc))
    trained = _dse_trained(args)
    store = None
    try:
        space = SearchSpace.from_trained(
            trained, weight_bits=weight_bits,
            max_length=args.max_length, min_length=args.min_length)
        if args.store:
            store = ResultStore(
                args.store, model=args.model,
                model_digest=model_digest(trained.model),
                evaluator=args.evaluator, eval_images=args.eval_images,
                seed=args.seed, threshold_pct=args.threshold,
                resume=args.resume)
        runner = ParallelRunner(
            trained, space, threshold_pct=args.threshold,
            eval_images=args.eval_images, seed=args.seed,
            evaluator=args.evaluator, workers=args.workers, screen=screen,
            store=store, verbose=args.verbose, retries=args.retries,
            eval_timeout_s=args.eval_timeout)
    except ValueError as exc:
        if store is not None and not args.resume:
            store.path.unlink()  # a header-only store would block a rerun
        parser.error(str(exc))
    print(f"search space: model={args.model} {space.describe()}")
    result = runner.run()
    stats = result.stats

    front = {id(p) for p in result.frontier}
    rows = [[("*" if id(p) in front else ""), p.config.describe(),
             f"{p.error_pct:.2f}%", f"{p.degradation_pct:+.2f}%",
             f"{p.cost.area_mm2:.1f}", f"{p.cost.power_w:.2f}",
             f"{p.cost.energy_uj:.2f}"] for p in result.passing]
    print(format_table(
        ["", "Design point", "Error", "Degradation", "Area mm²",
         "Power W", "Energy µJ"], rows,
        title=(f"Passing design points (threshold "
               f"{args.threshold}%, * = Pareto-optimal on "
               f"error/area/power/energy)"),
    ))
    print(f"evaluations: {stats['full_evals']} full + "
          f"{stats['screen_evals']} screen; "
          f"screened out {stats['screened_out']}; "
          f"reused from store {stats['reused']}; "
          f"poisoned {stats['poisoned']}; retries {stats['retries']}; "
          f"wall {stats['wall_s']}s with {stats['workers']} worker(s)")
    if args.store:
        print(f"result store: {args.store} ({len(store)} records)")
    if args.export:
        path = export_frontier(result.passing, args.export,
                               trajectories=result.trajectories())
        print(f"frontier exported: {path}")
    return 0


def _scenes_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenes",
        description="Composite-scene workloads: generate deterministic "
                    "scenes, run tiled inference over them, or check the "
                    "serve tier end to end (HTTP scene replies must be "
                    "bit-identical to a dedicated local engine).",
    )
    parser.add_argument("action",
                        choices=("generate", "infer", "roundtrip"),
                        help="generate: print/write scene JSON; infer: "
                             "tiled inference through one engine; "
                             "roundtrip: serve scenes over HTTP and "
                             "verify bit-identity against a local run "
                             "(exit 1 on mismatch)")
    parser.add_argument("--kind", default="grid",
                        choices=("grid", "translated", "cluttered"),
                        help="scene kind (default: grid)")
    parser.add_argument("--count", type=int, default=2,
                        help="scenes to generate (default: 2)")
    parser.add_argument("--rows", type=int, default=2,
                        help="grid rows (default: 2)")
    parser.add_argument("--cols", type=int, default=2,
                        help="grid cols (default: 2)")
    parser.add_argument("--canvas", default="56x56",
                        help="translated/cluttered canvas HxW "
                             "(default: 56x56)")
    parser.add_argument("--stride", type=int, default=None,
                        help="window stride in pixels (default: the "
                             "model tile height — non-overlapping)")
    parser.add_argument("--scene-seed", type=int, default=0,
                        help="scene-stream seed (default: 0)")
    parser.add_argument("--out", default=None,
                        help="write generated scene JSON to this path "
                             "(default: stdout)")
    _add_model_args(parser, default_length=64)
    return parser


def _scene_batch(args):
    """The deterministic scene list an invocation works on."""
    from repro.data.scenes import SceneGenerator
    gen = SceneGenerator(seed=args.scene_seed)
    if args.kind == "grid":
        kwargs = {"rows": args.rows, "cols": args.cols}
    else:
        try:
            h, w = (int(v) for v in args.canvas.lower().split("x"))
        except ValueError:
            raise SystemExit(f"--canvas must be HxW, got {args.canvas!r}")
        kwargs = {"canvas_hw": (h, w)}
    return gen.scenes(args.kind, args.count, **kwargs)


def _scenes(argv) -> int:
    """``python -m repro scenes``: generate / infer / serve round-trip."""
    import json

    parser = _scenes_parser()
    args = parser.parse_args(argv)
    scenes = _scene_batch(args)

    if args.action == "generate":
        payloads = [s.to_payload() for s in scenes]
        body = json.dumps(payloads if len(payloads) > 1 else payloads[0])
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(body)
            print(f"wrote {len(scenes)} {args.kind} scene(s) to "
                  f"{args.out}")
        else:
            print(body)
        for i, scene in enumerate(scenes):
            print(f"scene {i}: {scene.shape[0]}x{scene.shape[1]} "
                  f"labels={[c.label for c in scene.cells]}",
                  file=sys.stderr)
        return 0

    import numpy as np

    from repro.core.config import NetworkConfig, resolve_pooling
    _check_backend(parser, args.backend)
    from repro.engine import Engine, TiledInference

    kinds = _resolve_kinds_arg(parser, args.kinds, args.model)
    config = NetworkConfig.from_kinds(resolve_pooling(args.pooling),
                                      args.length, kinds, name="scenes")
    model, _, _ = _quick_model(args.train, args.epochs, n_test=16,
                               pooling=args.pooling,
                               model_name=args.model)
    engine = Engine(model, config, backend=args.backend, seed=args.seed,
                    weight_bits=args.weight_bits)
    tiler = TiledInference(engine, stride=args.stride)

    if args.action == "infer":
        correct = cells = 0
        start = time.perf_counter()
        for i, scene in enumerate(scenes):
            result = tiler.infer(scene)
            hits = int((result.cell_preds == scene.labels).sum())
            correct += hits
            cells += len(scene.cells)
            print(f"scene {i}: {len(result.boxes)} windows, "
                  f"{hits}/{len(scene.cells)} cells correct, "
                  f"preds={[int(p) for p in result.cell_preds]}")
        elapsed = time.perf_counter() - start
        print(f"cell accuracy: {correct}/{cells} "
              f"({100.0 * correct / max(cells, 1):.1f}%); "
              f"{len(scenes) / max(elapsed, 1e-9):.2f} scenes/s")
        return 0

    # roundtrip: serve the scenes over HTTP and hold the serve tier to
    # the local tiled run, window for window
    import threading
    import urllib.request

    from repro.serve import InferenceService, create_server
    service = InferenceService(
        {args.model: model}, backend=args.backend, length=args.length,
        kinds=kinds, pooling=args.pooling, weight_bits=args.weight_bits,
        seed=args.seed, warm=False)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    failures = 0
    try:
        for i, scene in enumerate(scenes):
            body = json.dumps({"scene": scene.to_payload(),
                               "stride": args.stride,
                               "model": args.model}
                              if args.stride is not None else
                              {"scene": scene.to_payload(),
                               "model": args.model}).encode("utf8")
            request = urllib.request.Request(
                base + "/predict", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=300) as reply:
                served = json.loads(reply.read())
            local = tiler.infer(scene)
            ok = (served["window_boxes"] == [list(b)
                                             for b in local.boxes]
                  and served["window_predictions"] == [
                      int(p) for p in local.window_preds]
                  and served["cell_predictions"] == [
                      int(p) for p in local.cell_preds])
            direct = service.predict_scene(scene, stride=args.stride,
                                           model=args.model)
            bitwise = bool(np.array_equal(direct.window_logits,
                                          local.window_logits))
            status = "OK" if ok and bitwise else "MISMATCH"
            failures += 0 if ok and bitwise else 1
            print(f"scene {i}: {status} "
                  f"(http preds match={ok}, logits bitwise={bitwise}, "
                  f"cells={[int(p) for p in local.cell_preds]})")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    if failures:
        print(f"roundtrip FAILED for {failures}/{len(scenes)} scene(s)",
              file=sys.stderr)
        return 1
    print(f"roundtrip OK: {len(scenes)} scene(s) bit-identical through "
          "the serve tier")
    return 0


def _stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description="Scrape a running repro-serve instance and print "
                    "its telemetry (/stats JSON or /metrics text).")
    parser.add_argument("--url", default="http://127.0.0.1:8100",
                        help="server base URL (default %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="print the raw /stats JSON instead of the "
                             "summary table")
    parser.add_argument("--metrics", action="store_true",
                        help="print the Prometheus /metrics exposition "
                             "verbatim")
    parser.add_argument("--timeout", type=float, default=5.0,
                        help="HTTP timeout in seconds "
                             "(default %(default)s)")
    return parser


def _stats(argv) -> int:
    """Scrape /stats (or /metrics) from a running server and print it."""
    import json
    import urllib.error
    import urllib.request

    args = _stats_parser().parse_args(argv)
    base = args.url.rstrip("/")
    path = "/metrics" if args.metrics else "/stats"
    try:
        with urllib.request.urlopen(base + path,
                                    timeout=args.timeout) as resp:
            body = resp.read().decode("utf8")
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach {base + path}: {exc}",
              file=sys.stderr)
        return 1
    if args.metrics:
        print(body, end="")
        return 0
    stats = json.loads(body)
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    service = stats.get("service", {})
    batcher = stats.get("batcher", {})
    pool = stats.get("pool", {})
    print(f"server:                {base}")
    print(f"draining:              {stats.get('draining')}")
    print(f"requests:              {service.get('requests')} "
          f"(errors={service.get('errors')}, "
          f"sheds={service.get('sheds')})")
    print(f"throughput (lifetime): {service.get('throughput_rps')} rps")
    print(f"throughput (window):   "
          f"{service.get('throughput_rps_window')} rps over "
          f"{service.get('throughput_window_s')}s")
    lat = service.get("latency_ms")
    if lat:
        print(f"latency ms:            p50={lat['p50']} p95={lat['p95']} "
              f"mean={lat['mean']} max={lat['max']}")
    print(f"queue depth:           {batcher.get('queued')} "
          f"(inflight batches={batcher.get('inflight_batches')})")
    print(f"batches:               {batcher.get('batches')} "
          f"(mean size={batcher.get('mean_batch_size')})")
    print(f"pool:                  engines={pool.get('engines')} "
          f"plans={pool.get('plans')} hit_rate={pool.get('hit_rate')}")
    return 0


def _kernel_tier_line(status: dict) -> str:
    """One-line native-tier summary for ``python -m repro list``."""
    if status["available"]:
        line = "native (compiled, bit-identical to the NumPy oracle)"
        if not status["enabled"]:
            line += " [dispatch off]"
    else:
        line = f"numpy fallback ({status['reason'] or 'not built'})"
    if status["override"] is not None:
        line += f" [REPRO_NATIVE={status['override']}]"
    return line


def _observability_line() -> str:
    """One-line tracing/profiling arming status for ``repro list``."""
    from repro import obs
    rec = obs.trace.recorder()
    trace = f"trace -> {rec.path}" if rec is not None else \
        "trace off (REPRO_TRACE=path to arm)"
    profile = "kernel profiling on" if obs.kernels.armed() else \
        "kernel profiling off (REPRO_PROFILE=1 to arm)"
    return f"{trace}; {profile}"


def _maybe_print_kernel_profile() -> None:
    """With REPRO_PROFILE=1, exercise each kernel once and print the
    per-kernel per-tier attribution table."""
    from repro import obs
    if not obs.kernels.armed():
        return
    import numpy as np

    from repro.sc import activation, ops
    rng = np.random.default_rng(0)
    bank = rng.integers(0, 256, size=(64, 128), dtype=np.uint8)
    bank[:, -1] &= ops.pad_mask(1024)[-1]
    ops.popcount(bank, 1024)
    xT = ops.transpose_pack(bank[None], 1024)
    ops.popcount_sum(xT)
    ops.mux_select(bank[None], rng.integers(0, 64, size=1024), 1024)
    activation.stanh_packed(bank, 1024, 16)
    rows = obs.kernels.summary()
    print("kernel profile (one exercise pass per kernel):")
    print(f"  {'kernel':16s} {'tier':12s} {'calls':>6s} {'ms':>10s}")
    for row in rows:
        print(f"  {row['kernel']:16s} {row['tier']:12s} "
              f"{row['calls']:6d} {1e3 * row['seconds']:10.3f}")


SUBCOMMANDS = {"infer": _infer, "serve": _serve, "dse": _dse,
               "scenes": _scenes, "stats": _stats}


def main(argv=None) -> int:
    if argv is None:  # pragma: no cover - console entry
        argv = sys.argv[1:]
    # Deterministic fault injection for chaos tests / CI smoke runs:
    # REPRO_FAULTS="seed=1;site=dse.evaluate,action=kill,hits=3" etc.
    from repro import faults, obs
    faults.maybe_install_from_env()
    # Observability arming: REPRO_TRACE=path writes a JSONL span trace,
    # REPRO_PROFILE=1 attributes kernel wall time per dispatch tier.
    obs.maybe_enable_from_env()
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate SC-DCNN paper experiments, run 'infer' "
                    "for batched engine inference, or 'serve' for the "
                    "micro-batching HTTP service.",
    )
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["list"]
                        + sorted(SUBCOMMANDS),
                        help="experiment to run, 'infer', 'serve', or "
                             "'list'")
    args = parser.parse_args(argv)
    if args.experiment in SUBCOMMANDS:
        # reached via e.g. `python -m repro -- infer`, which bypasses the
        # argv[0] intercept above
        return SUBCOMMANDS[args.experiment](
            [a for a in argv if a not in ("--", args.experiment)])
    if args.experiment == "list":
        import repro.native as native
        from repro.engine import list_backends
        from repro.nn.zoo import ZOO, zoo_names
        print("available experiments:", ", ".join(sorted(EXPERIMENTS)))
        print("registered backends:  ", ", ".join(list_backends()))
        print("kernel tier:          ", _kernel_tier_line(native.status()))
        print("observability:        ", _observability_line())
        print("model zoo:")
        for name in zoo_names():
            print(f"  {name:10s} {ZOO[name].description}")
        _maybe_print_kernel_profile()
        print("engine inference:      python -m repro infer --help")
        print("inference service:     python -m repro serve --help")
        print("design-space search:   python -m repro dse --help")
        print("composite scenes:      python -m repro scenes --help")
        print("server telemetry:      python -m repro stats --help")
        print("full suite: pytest benchmarks/ --benchmark-only")
        return 0
    EXPERIMENTS[args.experiment]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
