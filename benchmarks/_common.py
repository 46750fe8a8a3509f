"""Shared infrastructure for the benchmark harness.

Every bench regenerates one table or figure of the paper at a reduced
scale (see DESIGN.md's per-experiment index).  Datasets and trained
approaches are cached per session so benches share work.

Scale knobs (environment variables):

* ``REPRO_BENCH_SIZE``   — entities per dataset (default 300)
* ``REPRO_BENCH_EPOCHS`` — training epochs (default 40)
* ``REPRO_BENCH_DIM``    — embedding dimension (default 32)
* ``REPRO_BENCH_TRACE``  — non-empty: record repro.obs spans for every
  bench in the process and write ``reports/events.jsonl`` (readable via
  ``repro obs-report``) plus ``reports/trace.json`` (chrome://tracing)
  at exit, and append one RunRecord per bench artifact to the run
  ledger (``reports/ledger.jsonl``; see ``repro obs-ledger``)
* ``REPRO_LEDGER_PATH``  — override the ledger destination
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from repro import benchmark_pair
from repro.approaches import ApproachConfig, EmbeddingApproach, get_approach
from repro.kg import AlignmentSplit, KGPair

BENCH_SIZE = int(os.environ.get("REPRO_BENCH_SIZE", "300"))
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "40"))
BENCH_DIM = int(os.environ.get("REPRO_BENCH_DIM", "32"))

REPORT_DIR = Path(__file__).parent / "reports"
ROOT_DIR = Path(__file__).resolve().parent.parent


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def report_path(filename: str) -> Path:
    """The one place benchmark reports live: ``benchmarks/reports/``.

    Every bench routes its artifacts through here so the ledger and
    readers of the reports have a single directory to look at.
    """
    try:
        REPORT_DIR.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        _warn(f"could not create report directory {REPORT_DIR}: {error}")
    return REPORT_DIR / filename


if os.environ.get("REPRO_BENCH_TRACE"):
    from repro import obs as _obs

    _tracer = _obs.Tracer()
    _obs.set_tracer(_tracer)
    # nested recorders (cross_validate, obs-smoke) land in the same ledger
    os.environ.setdefault("REPRO_LEDGER_PATH",
                          str(REPORT_DIR / "ledger.jsonl"))

    @atexit.register
    def _write_trace_reports() -> None:
        # Runs during interpreter shutdown: an unwritable/missing
        # reports/ directory must cost a warning, never a traceback.
        if not _tracer.events:
            return
        try:
            REPORT_DIR.mkdir(parents=True, exist_ok=True)
            _tracer.write_jsonl(REPORT_DIR / "events.jsonl")
            _tracer.write_chrome_trace(REPORT_DIR / "trace.json")
        except OSError as error:
            _warn(f"could not write telemetry reports under {REPORT_DIR}: "
                  f"{error}")
            return
        sys.__stdout__.write(
            f"wrote {len(_tracer.events)} telemetry events to "
            f"{REPORT_DIR / 'events.jsonl'} (+ trace.json)\n"
        )


# ---------------------------------------------------------------------------
# run ledger integration: one RunRecord per bench artifact
# ---------------------------------------------------------------------------
_RECORDED_BENCHES: set[str] = set()


def bench_config(**extra) -> dict:
    """The knobs that make two bench runs comparable (fingerprinted)."""
    config = {"size": BENCH_SIZE, "epochs": BENCH_EPOCHS, "dim": BENCH_DIM}
    config.update(extra)
    return config


def record_bench(name: str, scalars: dict | None = None) -> dict | None:
    """Append one ledger RunRecord for the named bench artifact.

    Active when ``REPRO_BENCH_TRACE`` or ``REPRO_LEDGER_PATH`` is set;
    at most one record per artifact name per process (re-renders of the
    same table don't inflate the history).  Failures warn and continue —
    this shares the guarded-path policy of the atexit trace writer.
    """
    path = os.environ.get("REPRO_LEDGER_PATH")
    if not path and os.environ.get("REPRO_BENCH_TRACE"):
        path = str(REPORT_DIR / "ledger.jsonl")
    if not path or name in _RECORDED_BENCHES:
        return None
    from repro.obs.ledger import record_run

    record = record_run("bench", name, config=bench_config(bench=name),
                        scalars=scalars, path=path)
    if record is not None:
        _RECORDED_BENCHES.add(name)
    return record


def _bench_scalars(payload) -> dict:
    """Headline numbers a bench's ledger record carries, fished out of
    a JSON report payload (defensive: absent keys mean fewer scalars)."""
    scalars: dict = {}
    if not isinstance(payload, dict):
        return scalars
    scales = payload.get("scales")
    if isinstance(scales, list) and scales:
        last = scales[-1]
        try:
            scalars["steps_per_second"] = float(last["sparse"]["steps_per_sec"])
            scalars["median_step_ms"] = float(last["sparse"]["median_step_ms"])
            scalars["speedup"] = float(last["speedup"])
        except (KeyError, TypeError, ValueError):
            pass
    return scalars

APPROACH_ORDER = [
    "MTransE", "IPTransE", "JAPE", "KDCoE", "BootEA", "GCNAlign",
    "AttrE", "IMUSE", "SEA", "RSN4EA", "MultiKE", "RDGCN",
]

FAMILY_ORDER = ["EN-FR", "EN-DE", "D-W", "D-Y"]


def report(title: str, lines: list[str], filename: str) -> None:
    """Print a table to the real stdout (visible under pytest capture)
    and persist it under ``benchmarks/reports/``."""
    text = "\n".join([f"== {title} ==", *lines, ""])
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()
    report_path(filename).write_text(text, encoding="utf-8")
    record_bench(Path(filename).stem)


def write_json_report(target: str | Path, payload) -> Path:
    """Persist a machine-readable report: a bare filename lands under
    ``benchmarks/reports/``, a path with directories is used as-is.

    Keys are sorted so report diffs are stable run to run regardless of
    dict construction order.  ``BENCH_*.json`` reports additionally get
    a repo-root symlink (copy when symlinks are unavailable) so paths
    that predate the unified ``benchmarks/reports/`` location keep
    resolving.
    """
    path = Path(target)
    if path.parent == Path("."):
        path = report_path(path.name)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    if path.name.startswith("BENCH_") and path.parent == REPORT_DIR:
        _mirror_to_root(path)
    record_bench(path.stem, scalars=_bench_scalars(payload))
    return path


def _mirror_to_root(path: Path) -> None:
    """Refresh the root-level ``BENCH_*.json`` back-compat alias."""
    link = ROOT_DIR / path.name
    try:
        if link.is_symlink() or link.exists():
            link.unlink()
        link.symlink_to(os.path.relpath(path, ROOT_DIR))
    except OSError:
        try:
            link.write_bytes(path.read_bytes())
        except OSError as error:
            _warn(f"could not mirror {path.name} to {ROOT_DIR}: {error}")


def make_config(**overrides) -> ApproachConfig:
    """The Table 4-style common hyper-parameters at bench scale."""
    defaults = dict(dim=BENCH_DIM, epochs=BENCH_EPOCHS, lr=0.05,
                    batch_size=1024, n_negatives=5, valid_every=10)
    defaults.update(overrides)
    return ApproachConfig(**defaults)


@lru_cache(maxsize=None)
def dataset(family: str, version: str = "V1", size: int | None = None) -> KGPair:
    """One benchmark dataset per (family, version), via the full pipeline."""
    return benchmark_pair(
        family, size=size or BENCH_SIZE, version=version, seed=0,
        method="ids",
    )


@lru_cache(maxsize=None)
def fold(family: str, version: str = "V1") -> AlignmentSplit:
    """First of the five folds (benches default to one fold for speed)."""
    return dataset(family, version).five_fold_splits(seed=0)[0]


@lru_cache(maxsize=None)
def trained(name: str, family: str, version: str = "V1") -> EmbeddingApproach:
    """A trained approach, cached so benches share the heavy lifting."""
    approach = get_approach(name, make_config())
    approach.fit(dataset(family, version), fold(family, version))
    return approach


def hits1(approach: EmbeddingApproach, family: str, version: str = "V1",
          **kwargs) -> float:
    return approach.evaluate(
        fold(family, version).test, hits_at=(1,), **kwargs
    ).hits_at(1)
