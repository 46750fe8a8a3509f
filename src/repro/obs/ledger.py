"""Run ledger: an append-only, schema-versioned history of every run.

The paper's contribution is *comparable measurement*: Table 5 and
Figure 8 only mean something because every approach was timed and
scored under one harness.  PR 3's telemetry dies with the process;
this module gives it a memory.  Each training / benchmark / CV /
serving run appends one :class:`RunRecord` — a JSON object carrying a
run id, UTC timestamp, git provenance, a *config fingerprint* (the
hash under which runs are comparable), host info, the full
``MetricsRegistry.snapshot()`` and a flat dict of key scalars
(``steps_per_second``, ``hits_at_1``, serve percentiles, …) — to a
JSON-lines ledger (``reports/ledger.jsonl`` by default, overridable
via ``REPRO_LEDGER_PATH`` or an explicit path).

Its readers are ``repro obs-ledger`` (list / show / tail / compact),
``repro obs-conformance`` and ``repro obs-export --ledger``.
:meth:`RunLedger.compact` bounds per-fingerprint retention with an
atomic rewrite.

Corrupt trailing lines — the normal aftermath of an interrupted bench —
are skipped, counted and reported, never fatal.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from ..faults import fault_point
from ..fingerprint import config_fingerprint, env_fingerprint
from .registry import MetricsRegistry, get_registry

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_LEDGER_PATH",
    "RunRecord",
    "RunLedger",
    "config_fingerprint",
    "env_fingerprint",
    "git_info",
    "host_info",
    "record_run",
    "record_sweep_id",
    "sweep_where",
    "validate_record",
    "default_ledger",
]

SCHEMA_VERSION = 1

DEFAULT_LEDGER_PATH = "reports/ledger.jsonl"

_REQUIRED_FIELDS = {
    "schema_version": int,
    "run_id": str,
    "kind": str,
    "name": str,
    "ts_utc": str,
    "git": dict,
    "host": dict,
    "config": dict,
    "fingerprint": str,
    "scalars": dict,
    "metrics": dict,
}


# config_fingerprint / env_fingerprint live in repro.fingerprint (one
# digest shared by the ledger, cv_progress.json and sweep progress);
# they are re-exported here for their historical home.

def git_info(cwd: str | Path | None = None) -> dict:
    """``{"sha": ..., "dirty": ...}`` for the enclosing git repo.

    Never raises: outside a repo (or without git) both fields degrade
    to ``None`` so ledgers still work in exported tarballs.
    """
    try:
        base = Path(cwd) if cwd is not None else Path(__file__).resolve()
        directory = base if base.is_dir() else base.parent
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=directory,
            capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=directory,
            capture_output=True, text=True, timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"sha": sha.stdout.strip(), "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def host_info() -> dict:
    """Hardware/interpreter context a timing number is meaningless without."""
    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _utc_now_iso() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunRecord:
    """One run, as the ledger stores it (all plain JSON-friendly data)."""

    kind: str
    name: str
    config: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    ts_utc: str = field(default_factory=_utc_now_iso)
    git: dict = field(default_factory=git_info)
    host: dict = field(default_factory=host_info)
    fingerprint: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not self.fingerprint:
            self.fingerprint = config_fingerprint(self.config)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "ts_utc": self.ts_utc,
            "git": self.git,
            "host": self.host,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "scalars": self.scalars,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        validate_record(data)
        return cls(
            kind=data["kind"], name=data["name"], config=data["config"],
            scalars=data["scalars"], metrics=data["metrics"],
            run_id=data["run_id"], ts_utc=data["ts_utc"], git=data["git"],
            host=data["host"], fingerprint=data["fingerprint"],
            schema_version=data["schema_version"],
        )


def validate_record(data: dict) -> dict:
    """Check ``data`` against the ledger schema; returns it on success.

    Raises :class:`ValueError` naming the first offending field, so a
    truncated or hand-edited line is diagnosable.
    """
    if not isinstance(data, dict):
        raise ValueError(f"record must be an object, got {type(data).__name__}")
    for key, expected in _REQUIRED_FIELDS.items():
        if key not in data:
            raise ValueError(f"record missing field {key!r}")
        if not isinstance(data[key], expected):
            raise ValueError(
                f"record field {key!r} must be {expected.__name__}, "
                f"got {type(data[key]).__name__}"
            )
    if data["schema_version"] > SCHEMA_VERSION:
        raise ValueError(
            f"record schema_version {data['schema_version']} is newer than "
            f"this reader ({SCHEMA_VERSION})"
        )
    scalars = data["scalars"]
    for key, value in scalars.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"scalar {key!r} must be numeric, got {value!r}")
    return data


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------
class RunLedger:
    """Append-only JSON-lines run history with query helpers."""

    def __init__(self, path: str | Path | None = None):
        if path is None:
            path = os.environ.get("REPRO_LEDGER_PATH") or DEFAULT_LEDGER_PATH
        self.path = Path(path)

    # -- writing -------------------------------------------------------
    def append(self, record: RunRecord | dict) -> dict:
        """Append one record (validated) and return its dict form.

        Raises :class:`OSError` when the ledger location is unwritable;
        callers on shutdown paths should use :meth:`try_append`.
        """
        data = record.to_dict() if isinstance(record, RunRecord) else record
        validate_record(data)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(data, sort_keys=True, default=str)
        # A crash mid-append leaves at most one torn trailing line,
        # which read() skips and compact() garbage-collects; the
        # crash-replay suite injects here to prove it.
        fault_point("ledger.append", path=self.path, data=(line + "\n").encode())
        with open(self.path, "a+b") as handle:
            # self-heal after a torn append: if the last byte is not a
            # newline, start a fresh line so this record stays readable
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write((line + "\n").encode("utf-8"))
        return data

    def try_append(self, record: RunRecord | dict) -> dict | None:
        """Best-effort :meth:`append`: warn on stderr instead of raising."""
        try:
            return self.append(record)
        except (OSError, ValueError) as error:
            print(f"warning: could not append to run ledger {self.path}: "
                  f"{error}", file=sys.stderr)
            return None

    # -- reading -------------------------------------------------------
    def read(self) -> tuple[list[dict], int]:
        """All schema-valid records plus the count of skipped bad lines."""
        if not self.path.is_file():
            return [], 0
        records: list[dict] = []
        skipped = 0
        text = self.path.read_text(encoding="utf-8", errors="replace")
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(validate_record(json.loads(line)))
            except (json.JSONDecodeError, ValueError):
                skipped += 1
        return records, skipped

    def records(self) -> list[dict]:
        return self.read()[0]

    def __len__(self) -> int:
        return len(self.records())

    def __iter__(self):
        return iter(self.records())

    def last(self, *, kind: str | None = None,
             run_id: str | None = None, where=None) -> dict | None:
        """The most recent record (optionally of one kind / exact id /
        matching a ``where`` predicate)."""
        for record in reversed(self.records()):
            if kind is not None and record["kind"] != kind:
                continue
            if run_id is not None and record["run_id"] != run_id:
                continue
            if where is not None and not where(record):
                continue
            return record
        return None

    # -- maintenance ---------------------------------------------------
    def compact(self, keep_last: int = 20, *, where=None) -> tuple[int, int]:
        """Atomically rewrite the ledger keeping the trailing
        ``keep_last`` runs per ``(fingerprint, kind, name)`` group.

        With ``where`` (a ``record -> bool`` predicate) only matching
        records are subject to retention — everything else is rewritten
        untouched, so one sweep can be compacted without disturbing
        unrelated bench history.  Returns ``(kept, dropped)``; bad
        lines are dropped too.
        """
        if keep_last <= 0:
            raise ValueError("keep_last must be positive")
        records, skipped = self.read()
        kept: list[dict] = []
        seen_per_group: dict[tuple, int] = {}
        for record in reversed(records):
            if where is not None and not where(record):
                kept.append(record)
                continue
            group = (record["fingerprint"], record["kind"], record["name"])
            if seen_per_group.get(group, 0) < keep_last:
                seen_per_group[group] = seen_per_group.get(group, 0) + 1
                kept.append(record)
        kept.reverse()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in kept:
                handle.write(json.dumps(record, sort_keys=True, default=str)
                             + "\n")
        tmp.replace(self.path)
        return len(kept), len(records) - len(kept) + skipped


def record_sweep_id(record: dict) -> str | None:
    """The sweep id a record was produced under, if any."""
    sweep_id = record.get("config", {}).get("sweep_id")
    return sweep_id if isinstance(sweep_id, str) else None


def sweep_where(sweep: str):
    """A ``where`` predicate selecting one sweep's ledger records.

    Matches the full sweep id (``tables@1a2b3c4d``) or just the sweep
    spec name (``tables``), which selects every run of that spec.
    """
    def _match(record: dict) -> bool:
        sweep_id = record_sweep_id(record)
        if sweep_id is None:
            return False
        return sweep_id == sweep or sweep_id.partition("@")[0] == sweep
    return _match


def default_ledger() -> RunLedger | None:
    """The environment-configured ledger, or ``None`` when recording is
    off.

    Library call sites (``cross_validate``, ``serve-query``) record
    through this so plain test runs never write files: recording only
    activates when ``REPRO_LEDGER_PATH`` names a destination.
    """
    path = os.environ.get("REPRO_LEDGER_PATH")
    return RunLedger(path) if path else None


def record_run(
    kind: str,
    name: str,
    *,
    config: dict | None = None,
    scalars: dict | None = None,
    registry: MetricsRegistry | None = None,
    ledger: RunLedger | None = None,
    path: str | Path | None = None,
    strict: bool = False,
    fingerprint: str | None = None,
) -> dict | None:
    """Build a :class:`RunRecord` from the current process state and
    append it.

    ``registry`` defaults to the process-wide one; its snapshot rides
    along so the ledger holds the full metric state, while ``scalars``
    carries the handful of headline numbers ``obs-ledger`` prints and
    ``obs-conformance`` joins.
    Without an explicit ``ledger``/``path`` the environment decides via
    :func:`default_ledger` — and when that is unset, this is a no-op.
    ``fingerprint`` overrides the config-derived digest — sweep jobs
    use it to keep run-identity tags (``sweep_id``) out of the
    comparability pool.
    """
    if ledger is None:
        ledger = RunLedger(path) if path is not None else default_ledger()
        if ledger is None:
            return None
    registry = registry if registry is not None else get_registry()
    clean_scalars = {
        key: float(value) for key, value in (scalars or {}).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
        and value == value  # drop NaNs: strict JSON readers reject them
    }
    record = RunRecord(
        kind=kind, name=name, config=dict(config or {}),
        scalars=clean_scalars, metrics=registry.snapshot(),
        fingerprint=fingerprint or "",
    )
    if strict:
        return ledger.append(record)
    return ledger.try_append(record)
