"""Command-line interface: dataset tooling and the serving layer.

Dataset verbs mirror how the paper's datasets were released: a
directory per dataset with ``rel_triples_*``, ``attr_triples_*``,
``ent_links`` and the ``721_5fold`` splits.  Serving verbs turn a
trained run into a queryable deployment (see ``docs/serving.md``).

Usage::

    python -m repro.cli generate --family EN-FR --size 1500 --version V1 \
        --out datasets/EN_FR_15K_V1
    python -m repro.cli stats datasets/EN_FR_15K_V1
    python -m repro.cli serve-build --store store/ --family EN-FR --size 200
    python -m repro.cli serve-query --store store/ --index ivf --sample 5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .datagen import FAMILIES, benchmark_pair
from .kg import dataset_summary, load_pair, save_pair, save_splits, validate_pair

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro", description="OpenEA-reproduction dataset tooling"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a benchmark dataset (world -> views -> IDS)"
    )
    generate.add_argument("--family", choices=sorted(FAMILIES), required=True)
    generate.add_argument("--size", type=int, default=1500,
                          help="target number of aligned entities")
    generate.add_argument("--version", choices=["V1", "V2"], default="V1")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--method", choices=["ids", "ras", "prs", "direct"],
                          default="ids")
    generate.add_argument("--dangling-rate", type=float, default=0.0,
                          help="fraction of aligned entities made dangling "
                               "(counterpart removed; docs/robustness.md)")
    generate.add_argument("--link-noise-rate", type=float, default=0.0,
                          help="fraction of alignment links rewired to a "
                               "wrong target")
    generate.add_argument("--attr-missing-rate", type=float, default=0.0,
                          help="fraction of attribute triples dropped")
    generate.add_argument("--out", type=Path, required=True,
                          help="output directory (OpenEA layout)")

    stats = commands.add_parser("stats", help="print statistics of a dataset")
    stats.add_argument("directory", type=Path)

    validate = commands.add_parser(
        "validate", help="check a dataset's benchmark invariants"
    )
    validate.add_argument("directory", type=Path)

    train = commands.add_parser(
        "train",
        help="train one approach crash-safely (checkpoint + resume)",
    )
    train.add_argument("--family", choices=sorted(FAMILIES), default="EN-FR")
    train.add_argument("--size", type=int, default=150)
    train.add_argument("--method", choices=["ids", "ras", "prs", "direct"],
                       default="direct")
    train.add_argument("--approach", default="MTransE")
    train.add_argument("--dim", type=int, default=16)
    train.add_argument("--epochs", type=int, default=8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--valid-every", type=int, default=0)
    train.add_argument("--checkpoint-dir", type=Path, default=None,
                       help="checkpoint directory (enables crash safety)")
    train.add_argument("--checkpoint-every", type=int, default=1,
                       help="checkpoint every N epochs (default 1)")
    train.add_argument("--resume", action="store_true",
                       help="resume from --checkpoint-dir if a "
                            "checkpoint exists")
    train.add_argument("--probe-every", type=int, default=0,
                       help="streaming quality probe every N epochs "
                            "(0 disables)")
    train.add_argument("--probe-sample", type=int, default=64,
                       help="validation pairs per probe (default 64)")
    train.add_argument("--sentinel", action="store_true",
                       help="enable divergence sentinels (abort with "
                            "status 'diverged', exit code 4)")
    train.add_argument("--quality-out", type=Path, default=None,
                       help="write probe curves to this quality.jsonl "
                            "(default: checkpoint-dir/quality.jsonl)")

    build = commands.add_parser(
        "serve-build",
        help="train (or import) embeddings and persist a store version",
    )
    build.add_argument("--store", type=Path, required=True,
                       help="embedding store directory")
    build.add_argument("--snapshot", type=Path,
                       help="import an existing EmbeddingSnapshot .npz "
                            "instead of training")
    build.add_argument("--family", choices=sorted(FAMILIES), default="EN-FR")
    build.add_argument("--size", type=int, default=200)
    build.add_argument("--dataset-version", choices=["V1", "V2"],
                       default="V1")
    build.add_argument("--method", choices=["ids", "ras", "prs", "direct"],
                       default="direct")
    build.add_argument("--approach", default="MTransE")
    build.add_argument("--dim", type=int, default=32)
    build.add_argument("--epochs", type=int, default=20)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--note", default="",
                       help="free-text note recorded in the manifest")
    build.add_argument("--save-index", choices=["ivf"], default=None,
                       help="also build and persist an ANN index for "
                            "the new version")

    query = commands.add_parser(
        "serve-query", help="answer alignment queries from a store version"
    )
    query.add_argument("--store", type=Path, required=True)
    query.add_argument("--store-version", default=None,
                       help="version id (default: latest)")
    query.add_argument("--index", choices=["exact", "lsh", "ivf", "saved"],
                       default="exact",
                       help="'saved' loads the version's persisted index, "
                            "degrading to exact search if it is corrupt")
    query.add_argument("--no-verify", action="store_true",
                       help="with --index saved: skip the store checksum "
                            "verification at load")
    query.add_argument("--k", type=int, default=5)
    query.add_argument("--entity", action="append", default=[],
                       help="source entity to align (repeatable)")
    query.add_argument("--sample", type=int, default=0,
                       help="additionally query N random source entities")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--batch-size", type=int, default=256)
    query.add_argument("--cache-size", type=int, default=1024)
    query.add_argument("--recall-sample", type=int, default=0,
                       help="estimate recall@k vs exact on N sampled queries")
    query.add_argument("--abstain-threshold", type=float, default=None,
                       help="abstain when the top-1 score falls below this "
                            "(default: the store's calibrated threshold, "
                            "if persisted)")
    query.add_argument("--abstain-margin", type=float, default=None,
                       help="abstain when the top-1/top-2 margin falls "
                            "below this")

    sweep = commands.add_parser(
        "sweep",
        help="run a budget-aware parallel hyperparameter sweep from a "
             "TOML/JSON spec (see docs/orchestration.md)",
    )
    sweep.add_argument("--spec", type=Path, required=True,
                       help="sweep spec file (.toml or .json)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = inline serial)")
    sweep.add_argument("--workdir", type=Path, default=None,
                       help="crash-safe state: sweep progress + training "
                            "checkpoints; rerun with the same dir to resume")
    sweep.add_argument("--out", type=Path, default=None,
                       help="also write the result table to this file")
    sweep.add_argument("--no-record", action="store_true",
                       help="do not append ledger records for this sweep")
    sweep.add_argument("--compare-serial", action="store_true",
                       help="rerun the sweep with jobs=1 and report the "
                            "speedup + verify bit-identical metrics")

    obs_report = commands.add_parser(
        "obs-report",
        help="render a telemetry events.jsonl into a per-phase breakdown",
    )
    obs_report.add_argument("events", type=Path,
                            help="events.jsonl written by repro.obs, a "
                                 "directory of per-process *.jsonl files, "
                                 "or a glob (quote it)")
    obs_report.add_argument("--chrome", type=Path, default=None,
                            help="also write a chrome://tracing file here")

    obs_top = commands.add_parser(
        "obs-top",
        help="live dashboard for a running sweep (reads the telemetry "
             "files under its --workdir)",
    )
    obs_top.add_argument("workdir", type=Path,
                         help="the sweep's --workdir (or its telemetry/ "
                              "subdirectory)")
    obs_top.add_argument("--once", action="store_true",
                         help="render one frame and exit")
    obs_top.add_argument("--json", action="store_true",
                         help="print the machine-readable sweep state "
                              "(implies --once)")
    obs_top.add_argument("--interval", type=float, default=1.0,
                         help="refresh interval in seconds (default 1.0)")

    obs_smoke = commands.add_parser(
        "obs-smoke",
        help="run a small fully-instrumented training and report it",
    )
    obs_smoke.add_argument("--out", type=Path, default=Path("obs_smoke"),
                           help="directory for events.jsonl + trace.json")
    obs_smoke.add_argument("--family", choices=sorted(FAMILIES),
                           default="EN-FR")
    obs_smoke.add_argument("--size", type=int, default=150)
    obs_smoke.add_argument("--epochs", type=int, default=2)
    obs_smoke.add_argument("--dim", type=int, default=32)
    obs_smoke.add_argument("--seed", type=int, default=0)

    obs_ledger = commands.add_parser(
        "obs-ledger",
        help="inspect the run ledger (list / show / tail / compact)",
    )
    obs_ledger.add_argument("action",
                            choices=["list", "show", "tail", "compact"])
    obs_ledger.add_argument("run_id", nargs="?", default=None,
                            help="run id (required for `show`)")
    obs_ledger.add_argument("--ledger", type=Path, default=None,
                            help="ledger path (default: REPRO_LEDGER_PATH "
                                 "or reports/ledger.jsonl)")
    obs_ledger.add_argument("-n", type=int, default=10,
                            help="rows for `tail` / runs kept per "
                                 "fingerprint by `compact`")
    obs_ledger.add_argument("--sweep", default=None,
                            help="restrict to records of one sweep "
                                 "(full `name@fingerprint` id or just "
                                 "the sweep name)")

    obs_conformance = commands.add_parser(
        "obs-conformance",
        help="compare ledger CV/sweep records against the paper's "
             "reference tables; exit 1 on drift, 2 when nothing joins",
    )
    obs_conformance.add_argument("--ledger", type=Path, default=None)
    obs_conformance.add_argument("--reference", type=Path, default=None,
                                 help="paper_tables.json (default: "
                                      "benchmarks/reference/"
                                      "paper_tables.json)")
    obs_conformance.add_argument("--rel-tolerance", type=float, default=None,
                                 help="override the reference file's "
                                      "relative tolerance")
    obs_conformance.add_argument("--sweep", default=None,
                                 help="join one sweep's records only")
    obs_conformance.add_argument("--json", action="store_true",
                                 help="print the machine-readable report")

    obs_quality = commands.add_parser(
        "obs-quality",
        help="render a quality.jsonl probe stream as a learning-curve "
             "table",
    )
    obs_quality.add_argument("quality_file", type=Path)

    robustness = commands.add_parser(
        "robustness",
        help="dangling-entity robustness check: corrupt a smoke pair, "
             "train, calibrate abstention and report NIL-aware metrics",
    )
    robustness.add_argument("--size", type=int, default=400,
                            help="entities in the smoke pair (default 400)")
    robustness.add_argument("--seed", type=int, default=0)
    robustness.add_argument("--dangling-rate", type=float, default=0.2)
    robustness.add_argument("--link-noise-rate", type=float, default=0.0)
    robustness.add_argument("--attr-missing-rate", type=float, default=0.0)
    robustness.add_argument("--approach", default="IMUSE",
                            help="literal-based approaches separate "
                                 "dangling entities best (default IMUSE)")
    robustness.add_argument("--dim", type=int, default=48)
    robustness.add_argument("--epochs", type=int, default=30)
    robustness.add_argument("--method", choices=["threshold", "margin"],
                            default="threshold",
                            help="abstention signal: top-1 score or "
                                 "top1-top2 margin")
    robustness.add_argument("--curve", type=int, default=0,
                            help="also print an N-point abstention "
                                 "threshold sweep")
    robustness.add_argument("--check", action="store_true",
                            help="exit 1 unless dangling F1 >= 0.5 and "
                                 "matchable Hits@1 stays within 5%% of "
                                 "the no-abstention baseline")

    obs_export = commands.add_parser(
        "obs-export",
        help="export recorded metrics in a standard format",
    )
    obs_export.add_argument("--prometheus", action="store_true",
                            help="Prometheus text exposition format")
    obs_export.add_argument("--events", type=Path, default=None,
                            help="take the snapshot from this events.jsonl")
    obs_export.add_argument("--ledger", type=Path, default=None,
                            help="take the snapshot from this run ledger")
    obs_export.add_argument("--run", default=None,
                            help="ledger run id (default: latest)")
    obs_export.add_argument("--out", type=Path, default=None,
                            help="write here instead of stdout")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    pair = benchmark_pair(
        args.family, size=args.size, version=args.version,
        seed=args.seed, method=args.method,
        dangling_rate=args.dangling_rate,
        link_noise_rate=args.link_noise_rate,
        attr_missing_rate=args.attr_missing_rate,
    )
    save_pair(pair, args.out)
    save_splits(pair.five_fold_splits(seed=args.seed), args.out)
    print(f"wrote {pair} to {args.out}")
    corruption = pair.metadata.get("corruption")
    if corruption:
        print(f"  corruption: {len(corruption.get('dangling1', []))} "
              f"dangling in KG1, {len(corruption.get('dangling2', []))} "
              f"in KG2, {len(corruption.get('noisy_links', []))} noisy "
              f"links (manifest in corruption.json)")
    report = validate_pair(pair)
    if not report.ok or report.warnings:
        print(report)
    for side, kg in (("KG1", pair.kg1), ("KG2", pair.kg2)):
        summary = dataset_summary(kg)
        print(f"  {side}: {summary['rel_triples']:.0f} rel triples, "
              f"{summary['attr_triples']:.0f} attr triples, "
              f"avg degree {summary['avg_degree']:.2f}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if not args.directory.is_dir():
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return 2
    pair = load_pair(args.directory)
    print(pair)
    for side, kg in (("KG1", pair.kg1), ("KG2", pair.kg2)):
        summary = dataset_summary(kg)
        cells = " ".join(f"{key}={value:.6g}" for key, value in summary.items())
        print(f"  {side}: {cells}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if not args.directory.is_dir():
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return 2
    report = validate_pair(load_pair(args.directory))
    print(report)
    return 0 if report.ok else 1


def _cmd_train(args: argparse.Namespace) -> int:
    """Crash-safe single-fold training.

    Prints a sha256 over the final parameter matrices so the
    crash-replay suite can compare a killed-and-resumed run against an
    uninterrupted one bit for bit.  Exit code 3 means "interrupted at a
    checkpoint; rerun with --resume to continue".
    """
    import hashlib

    import numpy as np

    from .approaches import ApproachConfig, get_approach

    pair = benchmark_pair(args.family, size=args.size, method=args.method,
                          seed=args.seed)
    split = pair.five_fold_splits(seed=args.seed)[0]
    approach = get_approach(
        args.approach,
        ApproachConfig(dim=args.dim, epochs=args.epochs, seed=args.seed,
                       valid_every=args.valid_every,
                       probe_every=args.probe_every,
                       probe_sample=args.probe_sample,
                       sentinel=args.sentinel),
    )
    log = approach.fit(
        pair, split,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume,
        quality_path=args.quality_out,
    )
    digest = hashlib.sha256()
    for parameter in approach._parameters():
        digest.update(np.ascontiguousarray(parameter.data).tobytes())
    print(f"status={log.status} epochs={log.epochs_run} "
          f"resumed_from={log.resumed_from_epoch}")
    print(f"params_sha256={digest.hexdigest()}")
    if log.probes:
        from .obs import format_quality_table

        print(format_quality_table(log.probes))
    if log.status == "interrupted":
        print(f"interrupted; resume with --resume --checkpoint-dir "
              f"{args.checkpoint_dir}")
        return 3
    metrics = approach.evaluate(split.test)
    print(f"hits@1={metrics.hits_at(1):.6f} mrr={metrics.mrr:.6f}")
    if log.status == "diverged":
        print(f"diverged: {log.diverged_reason}")
        return 4
    return 0


def _cmd_serve_build(args: argparse.Namespace) -> int:
    from .pipeline.checkpoint import EmbeddingSnapshot, load_snapshot
    from .serve import EmbeddingStore

    metadata = {"note": args.note} if args.note else {}
    if args.snapshot is not None:
        if not args.snapshot.is_file():
            print(f"error: {args.snapshot} is not a file", file=sys.stderr)
            return 2
        snapshot = load_snapshot(args.snapshot)
        metadata["imported_from"] = str(args.snapshot)
    else:
        from .approaches import ApproachConfig, get_approach

        pair = benchmark_pair(
            args.family, size=args.size, version=args.dataset_version,
            seed=args.seed, method=args.method,
        )
        split = pair.five_fold_splits(seed=args.seed)[0]
        approach = get_approach(
            args.approach,
            ApproachConfig(dim=args.dim, epochs=args.epochs, valid_every=0),
        )
        approach.fit(pair, split)
        snapshot = EmbeddingSnapshot.from_approach(approach, pair.alignment)
        metadata.update({
            "dataset": pair.name, "approach": args.approach,
            "dim": args.dim, "epochs": args.epochs, "seed": args.seed,
        })
    store = EmbeddingStore(args.store)
    version = store.save(snapshot, metadata=metadata)
    print(f"stored {version} in {args.store}: "
          f"{len(snapshot.sources)} sources x {len(snapshot.targets)} "
          f"targets, dim {snapshot.source_matrix.shape[1]} "
          f"({snapshot.name})")
    if args.save_index:
        import numpy as np

        from .serve import make_index

        index = make_index(args.save_index, seed=args.seed)
        index.build(np.asarray(snapshot.target_matrix))
        path = store.save_index(index, version)
        print(f"persisted {args.save_index} index at {path}")
    return 0


def _cmd_serve_query(args: argparse.Namespace) -> int:
    import numpy as np

    from .serve import EmbeddingStore, QueryEngine, StoreCorruption, \
        recall_vs_exact

    if not args.store.is_dir():
        print(f"error: {args.store} is not a directory", file=sys.stderr)
        return 2
    store = EmbeddingStore(args.store)
    abstain = {}
    if args.abstain_threshold is not None:
        abstain["abstain_threshold"] = args.abstain_threshold
    if args.abstain_margin is not None:
        abstain["abstain_margin"] = args.abstain_margin
    try:
        if args.index == "saved":
            # from_store also picks up a threshold calibrated into the
            # store's metadata; explicit flags win
            engine = QueryEngine.from_store(
                store, version=args.store_version,
                verify=not args.no_verify, k=args.k,
                batch_size=args.batch_size, cache_size=args.cache_size,
                **abstain,
            )
            stored = engine.stored
        else:
            stored = store.load(version=args.store_version)
            engine = QueryEngine(stored, index=args.index, k=args.k,
                                 batch_size=args.batch_size,
                                 cache_size=args.cache_size, **abstain)
    except StoreCorruption as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (FileNotFoundError, KeyError) as error:
        # KeyError's str() wraps the message in repr quotes
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    entities = list(args.entity)
    unknown = [e for e in entities if e not in stored.sources]
    if unknown:
        print(f"error: unknown source entities {unknown[:5]}",
              file=sys.stderr)
        return 2
    if args.sample > 0:
        rng = np.random.default_rng(args.seed)
        picks = rng.choice(len(stored.sources),
                           size=min(args.sample, len(stored.sources)),
                           replace=False)
        entities.extend(stored.sources[int(i)] for i in picks)
    if not entities:
        print("error: nothing to query (use --entity and/or --sample)",
              file=sys.stderr)
        return 2
    kind = engine.index.kind if args.index == "saved" else args.index
    print(f"serving {stored.version} ({stored.name}) via {kind} index"
          + (" [DEGRADED to exact]" if engine.degraded else ""))
    for result in engine.query_batch(entities):
        ranked = ", ".join(f"{name}:{score:.3f}"
                           for name, score in result.neighbors[:args.k])
        answer = "NIL (abstained)" if result.abstained else result.best
        print(f"  {result.query} -> {answer} "
              f"(confidence {result.confidence:.3f}) [{ranked}]")
    if args.recall_sample > 0:
        recall = recall_vs_exact(
            engine.index, np.asarray(stored.source_matrix),
            np.asarray(stored.target_matrix), k=args.k,
            sample=args.recall_sample, seed=args.seed,
        )
        print(f"recall@{args.k} vs exact (n={args.recall_sample}): "
              f"{recall:.3f}")
    print(engine.metrics.format())
    # ledger the serving session (no-op unless REPRO_LEDGER_PATH is set)
    from .obs import record_run

    summary = engine.metrics.summary()
    record_run(
        "serve", f"serve-query/{stored.name}",
        config={"dataset": stored.name, "index": args.index, "k": args.k,
                "batch_size": args.batch_size,
                "cache_size": args.cache_size},
        scalars={key: summary[key]
                 for key in ("qps", "p50_ms", "p95_ms", "p99_ms",
                             "cache_hit_rate", "degraded", "abstained")},
        registry=engine.metrics.registry,
    )
    return 0


def _resolve_event_files(spec: Path) -> list[Path]:
    """Expand an obs-report events argument into concrete JSONL files.

    Accepts a single file, a directory (every ``*.jsonl`` inside,
    recursing one level into ``telemetry/``-style layouts via ``**``)
    or a glob pattern relative to the current directory.
    """
    if spec.is_file():
        return [spec]
    if spec.is_dir():
        return sorted(p for p in spec.glob("**/*.jsonl") if p.is_file())
    text = str(spec)
    if any(ch in text for ch in "*?["):
        import glob as _glob

        return sorted(Path(p) for p in _glob.glob(text, recursive=True)
                      if Path(p).is_file())
    return []


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    from .obs import (events_to_chrome, format_op_table, format_phase_table,
                      load_events_merged)

    files = _resolve_event_files(args.events)
    if not files:
        print(f"error: {args.events} matched no event files (record one "
              f"with REPRO_BENCH_TRACE=1 or `repro obs-smoke`)",
              file=sys.stderr)
        return 2
    events, skipped = load_events_merged(files)
    if skipped:
        print(f"warning: skipped {skipped} unreadable line(s) in "
              f"{args.events} (interrupted run?)", file=sys.stderr)
    if not events:
        print(f"error: no readable telemetry events in {args.events}",
              file=sys.stderr)
        return 1
    label = (str(args.events) if len(files) == 1
             else f"{args.events} ({len(files)} files)")
    print(f"== telemetry report: {label} ==")
    print(format_phase_table(events))
    op_table = format_op_table(events)
    if op_table:
        print()
        print("== autodiff op profile ==")
        print(op_table)
    for event in events:
        if event.get("type") == "metrics":
            gauges = event.get("snapshot", {}).get("gauges", {})
            if gauges:
                print()
                print("== gauges ==")
                for name, value in sorted(gauges.items()):
                    print(f"  {name} = {value:.6g}")
            break
    if args.chrome is not None:
        args.chrome.parent.mkdir(parents=True, exist_ok=True)
        args.chrome.write_text(
            json.dumps(events_to_chrome(events), sort_keys=True),
            encoding="utf-8",
        )
        print(f"\nwrote Chrome trace to {args.chrome} "
              f"(open via chrome://tracing)")
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from .obs import format_top, read_state
    from .obs.live import TELEMETRY_DIR

    directory = args.workdir
    if directory.name != TELEMETRY_DIR and \
            (directory / TELEMETRY_DIR).is_dir():
        directory = directory / TELEMETRY_DIR
    if not directory.is_dir():
        print(f"error: {args.workdir} has no telemetry directory (is it "
              f"a sweep --workdir with telemetry enabled?)", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(read_state(directory), sort_keys=True, indent=2))
        return 0
    if args.once:
        print(format_top(read_state(directory)))
        return 0
    try:
        while True:
            state = read_state(directory)
            # clear screen + home, then one full frame
            sys.stdout.write("\x1b[2J\x1b[H" + format_top(state) + "\n")
            sys.stdout.flush()
            if state.get("finished"):
                return 0
            _time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def _cmd_obs_smoke(args: argparse.Namespace) -> int:
    from . import obs
    from .approaches import ApproachConfig, get_approach

    pair = benchmark_pair(args.family, size=args.size, method="direct",
                          seed=args.seed)
    split = pair.five_fold_splits(seed=args.seed)[0]
    approach = get_approach(
        "MTransE",
        ApproachConfig(dim=args.dim, epochs=args.epochs, valid_every=0,
                       seed=args.seed),
    )
    approach.negative_sampling = True  # exercise the neg_sampling span
    with obs.capture(profile_ops=True) as cap:
        log = approach.fit(pair, split)
    args.out.mkdir(parents=True, exist_ok=True)
    events_path = args.out / "events.jsonl"
    trace_path = args.out / "trace.json"
    cap.write(events_path)
    cap.tracer.write_chrome_trace(trace_path)
    print(f"trained {approach.info.name} for {log.epochs_run} epochs "
          f"({sum(log.epoch_seconds):.2f}s training, "
          f"peak RSS {log.peak_rss_bytes / 1024 / 1024:.0f} MB)")
    print(f"wrote {events_path} and {trace_path}\n")
    print(obs.format_phase_table(cap.events))
    print()
    print("== autodiff op profile ==")
    print(cap.profiler.format())
    # ledger the run (no-op unless REPRO_LEDGER_PATH is set)
    obs.record_run(
        "train", f"obs-smoke/{approach.info.name}",
        config={"approach": approach.info.name, "family": args.family,
                "size": args.size, "epochs": args.epochs, "dim": args.dim,
                "seed": args.seed},
        scalars={
            "train_seconds": sum(log.epoch_seconds),
            "steps_per_second": log.steps_per_second,
            "peak_rss_bytes": float(log.peak_rss_bytes),
        },
        registry=cap.registry,
    )
    return 0


def _ledger_line(record: dict) -> str:
    scalars = record.get("scalars", {})
    headline = " ".join(f"{key}={value:.6g}"
                        for key, value in sorted(scalars.items())[:4])
    return (f"{record['ts_utc']}  {record['run_id']}  "
            f"{record['kind']:<5s} {record['name']:<28s} "
            f"fp={record['fingerprint'][:8]}  {headline}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .orchestrate import load_spec, payload_metrics, run_sweep

    if not args.spec.is_file():
        print(f"error: no sweep spec at {args.spec}", file=sys.stderr)
        return 2
    try:
        spec = load_spec(args.spec)
    except (ValueError, KeyError) as error:
        print(f"error: bad sweep spec {args.spec}: {error}", file=sys.stderr)
        return 2
    result = run_sweep(spec, jobs=args.jobs, workdir=args.workdir,
                       record=not args.no_record)
    text = result.format()
    if args.compare_serial:
        serial = run_sweep(spec, jobs=1, record=False)
        mismatched = [
            job_id for job_id in serial.job_payloads
            if payload_metrics(serial.job_payloads[job_id])
            != payload_metrics(result.job_payloads.get(job_id, {}))
        ]
        speedup = serial.seconds / result.seconds if result.seconds else 0.0
        text += (f"\nserial comparison: jobs={args.jobs} took "
                 f"{result.seconds:.1f}s vs {serial.seconds:.1f}s serial "
                 f"({speedup:.2f}x speedup"
                 f"{', restored jobs skew the timing' if result.stats.restored else ''}); "
                 f"metrics {'bit-identical' if not mismatched else 'DIFFER'}")
        if mismatched:
            print(text)
            print(f"error: {len(mismatched)} job(s) differ between serial "
                  f"and parallel runs: {mismatched}", file=sys.stderr)
            return 1
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _cmd_obs_ledger(args: argparse.Namespace) -> int:
    import json

    from .obs import RunLedger, sweep_where

    where = sweep_where(args.sweep) if args.sweep else None
    ledger = RunLedger(args.ledger)
    records, skipped = ledger.read()
    if skipped:
        print(f"warning: skipped {skipped} unreadable ledger line(s) in "
              f"{ledger.path}", file=sys.stderr)
    if where is not None:
        records = [record for record in records if where(record)]
    if args.action == "compact":
        if not ledger.path.is_file():
            print(f"error: no ledger at {ledger.path}", file=sys.stderr)
            return 2
        kept, dropped = ledger.compact(keep_last=args.n, where=where)
        scope = f" (sweep {args.sweep})" if args.sweep else ""
        print(f"compacted {ledger.path}{scope}: kept {kept}, "
              f"dropped {dropped}")
        return 0
    if args.action == "show":
        if not args.run_id:
            print("error: `show` needs a run id (see obs-ledger list)",
                  file=sys.stderr)
            return 2
        record = ledger.last(run_id=args.run_id, where=where)
        if record is None:
            print(f"error: no run {args.run_id!r} in {ledger.path}",
                  file=sys.stderr)
            return 2
        print(json.dumps(record, sort_keys=True, indent=2))
        return 0
    if not records:
        scope = f" for sweep {args.sweep}" if args.sweep else ""
        print(f"error: no runs recorded{scope} in {ledger.path} (set "
              f"REPRO_LEDGER_PATH or run a bench with REPRO_BENCH_TRACE=1)",
              file=sys.stderr)
        return 1
    shown = records if args.action == "list" else records[-args.n:]
    for record in shown:
        print(_ledger_line(record))
    print(f"{len(shown)} of {len(records)} run(s) in {ledger.path}")
    return 0


def _cmd_obs_conformance(args: argparse.Namespace) -> int:
    import json as json_module

    from .obs import RunLedger, conformance_report, load_reference, sweep_where

    ledger = RunLedger(args.ledger)
    records = ledger.records() if ledger.path.is_file() else []
    if args.sweep:
        where = sweep_where(args.sweep)
        records = [r for r in records if where(r)]
    try:
        reference = load_reference(args.reference)
    except (OSError, ValueError) as error:
        print(f"error: could not load reference tables: {error}",
              file=sys.stderr)
        return 2
    report = conformance_report(records, reference,
                                rel_tolerance=args.rel_tolerance)
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return report.exit_code


def _cmd_obs_quality(args: argparse.Namespace) -> int:
    from .obs import format_quality_table, load_events_tolerant

    if not args.quality_file.is_file():
        print(f"error: {args.quality_file} is not a file", file=sys.stderr)
        return 2
    records, skipped = load_events_tolerant(args.quality_file)
    print(format_quality_table(records))
    if skipped:
        print(f"(skipped {skipped} torn/unreadable line(s))")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    """Data-level robustness check (docs/robustness.md).

    Corrupts the low-heterogeneity smoke pair with the requested rates,
    trains one approach, calibrates an abstention threshold on half the
    dangling entities + the validation pairs, and reports NIL-aware
    metrics on the held-out half + the test pairs.  ``--check`` turns
    the report into a gate: dangling-detection F1 must reach 0.5 and
    abstention must cost at most 5% of the matchable Hits@1.
    """
    from .alignment.evaluate import abstention_curve
    from .approaches import ApproachConfig, get_approach
    from .datagen import smoke_pair
    from .datagen.corruption import dangling_sources

    pair = smoke_pair(
        n_entities=args.size, seed=args.seed,
        dangling_rate=args.dangling_rate,
        link_noise_rate=args.link_noise_rate,
        attr_missing_rate=args.attr_missing_rate,
    )
    split = pair.split(train_ratio=0.3, seed=args.seed)
    approach = get_approach(
        args.approach,
        ApproachConfig(dim=args.dim, epochs=args.epochs, seed=args.seed,
                       valid_every=0),
    )
    approach.fit(pair, split)
    clean_hits1 = approach.evaluate(split.test, hits_at=(1,)).hits_at(1)
    dangling = sorted(dangling_sources(pair))
    print(f"{pair.name}: {len(pair.alignment)} matchable, "
          f"{len(dangling)} dangling "
          f"(rates d={args.dangling_rate:g} l={args.link_noise_rate:g} "
          f"a={args.attr_missing_rate:g})")
    print(f"clean hits@1 (no abstention): {clean_hits1:.3f}")
    if not dangling:
        print("no dangling entities (dangling rate 0); nothing to "
              "calibrate against")
        return 0
    half = len(dangling) // 2
    threshold = approach.calibrate_abstention(
        split.valid, dangling[:half], method=args.method)
    nil = approach.evaluate_dangling(
        split.test, dangling[half:], method=args.method, threshold=threshold)
    print(nil)
    if args.curve > 0:
        similarity, gold = approach.nil_similarity(split.test,
                                                   dangling[half:])
        print(f"{'threshold':>10s} {'P':>6s} {'R':>6s} {'F1':>6s} "
              f"{'H@1m':>6s} {'abst':>5s}")
        for point in abstention_curve(similarity, gold, method=args.method,
                                      n_points=args.curve):
            print(f"{point.threshold:10.4f} {point.precision:6.3f} "
                  f"{point.recall:6.3f} {point.f1:6.3f} "
                  f"{point.hits1_matchable:6.3f} {point.abstained:5d}")
    # ledger the check (no-op unless REPRO_LEDGER_PATH is set), so
    # `repro obs-ledger` shows dangling_f1 next to the other runs
    from .obs import record_run

    record_run(
        "robustness", f"robustness/{pair.name}",
        config={"size": args.size, "seed": args.seed,
                "approach": args.approach, "dim": args.dim,
                "epochs": args.epochs, "method": args.method,
                "dangling_rate": args.dangling_rate,
                "link_noise_rate": args.link_noise_rate,
                "attr_missing_rate": args.attr_missing_rate},
        scalars={"hits_at_1": clean_hits1, "dangling_f1": nil.f1,
                 "dangling_precision": nil.precision,
                 "dangling_recall": nil.recall,
                 "hits_at_1_matchable": nil.hits1_matchable,
                 "mrr_matchable": nil.mrr_matchable},
    )
    if args.check:
        floor = 0.95 * clean_hits1
        failures = []
        if nil.f1 < 0.5:
            failures.append(f"dangling F1 {nil.f1:.3f} < 0.5")
        if nil.hits1_matchable < floor:
            failures.append(f"matchable hits@1 {nil.hits1_matchable:.3f} "
                            f"< 0.95 x clean ({floor:.3f})")
        if failures:
            print("check FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print(f"check passed: F1={nil.f1:.3f} >= 0.5, matchable "
              f"hits@1={nil.hits1_matchable:.3f} >= {floor:.3f}")
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from .obs import RunLedger, load_events_tolerant, render_prometheus

    if not args.prometheus:
        print("error: pick an export format (--prometheus)", file=sys.stderr)
        return 2
    if args.events is not None:
        if not args.events.is_file():
            print(f"error: {args.events} is not a file", file=sys.stderr)
            return 2
        events, _ = load_events_tolerant(args.events)
        snapshots = [e["snapshot"] for e in events
                     if e.get("type") == "metrics" and "snapshot" in e]
        if not snapshots:
            print(f"error: no metrics snapshot in {args.events}",
                  file=sys.stderr)
            return 1
        snapshot = snapshots[-1]
        source = str(args.events)
    else:
        ledger = RunLedger(args.ledger)
        record = ledger.last(run_id=args.run)
        if record is None:
            print(f"error: no runs in {ledger.path}", file=sys.stderr)
            return 1
        snapshot = record["metrics"]
        source = f"{ledger.path} run {record['run_id']}"
    text = render_prometheus(snapshot)
    if not text:
        print(f"error: empty metrics snapshot in {source}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
        print(f"wrote {args.out} ({len(text.splitlines())} lines from "
              f"{source})")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "serve-build":
        return _cmd_serve_build(args)
    if args.command == "serve-query":
        return _cmd_serve_query(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "obs-report":
        return _cmd_obs_report(args)
    if args.command == "obs-top":
        return _cmd_obs_top(args)
    if args.command == "obs-smoke":
        return _cmd_obs_smoke(args)
    if args.command == "obs-ledger":
        return _cmd_obs_ledger(args)
    if args.command == "obs-conformance":
        return _cmd_obs_conformance(args)
    if args.command == "obs-quality":
        return _cmd_obs_quality(args)
    if args.command == "robustness":
        return _cmd_robustness(args)
    if args.command == "obs-export":
        return _cmd_obs_export(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    import os

    try:
        code = main()
    except BrokenPipeError:  # e.g. `python -m repro.cli ... | head`
        # redirect stdout to devnull so interpreter shutdown does not
        # raise a second BrokenPipeError while flushing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13  # the shell convention for SIGPIPE
    raise SystemExit(code)
