"""Live telemetry primitives: progress hook, JSONL tailing, stall
detection and the ``obs-top`` dashboard state.

This module is the generic half of the sweep telemetry stack (the
sweep-specific writers live in :mod:`repro.orchestrate.telemetry`):

* :func:`report_progress` — a zero-cost-when-off progress hook the
  training loop calls once per epoch.  Like :func:`repro.obs.span`,
  the disabled path is one global read and one ``None`` check, so the
  untelemetered hot path pays nothing.
* :func:`tail_jsonl` — incremental tolerant reader for append-only
  JSONL event buses: resumes from a byte offset, never consumes a torn
  trailing line (a writer may still be mid-append), and skips
  malformed lines the same way the run-ledger reader does.
* :class:`StallDetector` — heartbeat bookkeeping with an injectable
  clock: a key whose beats stop arriving for longer than ``timeout``
  transitions to *stalled*; a later beat transitions it back.
* :func:`read_state` / :func:`format_top` — reconstruct the live state
  of a sweep from its telemetry directory (any process can do this
  while the sweep runs; everything is plain files) and render it as
  the refreshing terminal dashboard ``repro obs-top`` shows.

On-disk layout of a sweep telemetry directory (all files are
append-only JSONL except the atomically-replaced JSON documents)::

    <workdir>/telemetry/
        meta.json              # sweep id, trace id, pids, intervals
        parent.jsonl           # job-state transitions + worker events
        worker_0.jsonl         # heartbeats of worker 0
        worker_0.trace.jsonl   # span events of worker 0 (stamped)
        ...
        summary.json           # written at the end: coverage, peaks
        trace.json             # stitched Chrome trace (parent+workers)
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = [
    "report_progress",
    "set_progress_sink",
    "ProgressSink",
    "tail_jsonl",
    "append_jsonl",
    "open_bus",
    "StallDetector",
    "read_state",
    "format_top",
]

TELEMETRY_DIR = "telemetry"


# ---------------------------------------------------------------------------
# the progress hook (training loop -> heartbeat thread)
# ---------------------------------------------------------------------------
class ProgressSink:
    """Latest-value mailbox between the training loop and a sampler.

    ``update`` overwrites fields; ``sample`` returns a copy.  Writes are
    a dict update under the GIL (single writer: the training loop), so
    no lock is needed on the hot path.
    """

    __slots__ = ("_fields",)

    def __init__(self):
        self._fields: dict = {}

    def update(self, fields: dict) -> None:
        self._fields.update(fields)

    def sample(self) -> dict:
        return dict(self._fields)


_PROGRESS_SINK: ProgressSink | None = None


def report_progress(**fields) -> None:
    """Publish training progress (stage, epoch, steps …) if anyone is
    listening.  Zero-cost when no sink is installed — safe to call once
    per epoch from every training loop."""
    sink = _PROGRESS_SINK
    if sink is None:
        return
    sink.update(fields)


def set_progress_sink(sink: ProgressSink | None) -> ProgressSink | None:
    """Install (or clear) the progress sink; returns the previous one."""
    global _PROGRESS_SINK
    previous = _PROGRESS_SINK
    _PROGRESS_SINK = sink
    return previous


# ---------------------------------------------------------------------------
# append-only JSONL buses
# ---------------------------------------------------------------------------
def append_jsonl(handle, record: dict) -> None:
    """Append one event to an open binary bus handle and flush it.

    The line is a single ``write`` call of a complete ``...\\n`` payload,
    so concurrent readers either see the whole line or (after a crash
    mid-write) a torn tail that :func:`tail_jsonl` refuses to consume.
    """
    handle.write(json.dumps(record, sort_keys=True, default=str)
                 .encode("utf-8") + b"\n")
    handle.flush()


def open_bus(path: Path | str):
    """Open an append-only JSONL bus, self-healing a torn trailing line.

    Mirrors the run-ledger appender: if a previous writer died mid-line,
    terminate the partial line first so this writer's records stay
    parseable (readers skip the torn fragment).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "ab")
    if handle.tell() > 0:
        with open(path, "rb") as probe:
            probe.seek(-1, 2)
            torn = probe.read(1) != b"\n"
        if torn:
            handle.write(b"\n")
            handle.flush()
    return handle


def tail_jsonl(path: Path | str, offset: int = 0) -> tuple[list[dict], int, int]:
    """Read complete JSONL records appended since ``offset``.

    Returns ``(records, new_offset, skipped)``.  A trailing line without
    its newline is left unconsumed (the writer may still be appending
    it); malformed complete lines are counted in ``skipped`` and passed
    over, matching the ledger reader's tolerance for torn writes.
    """
    path = Path(path)
    records: list[dict] = []
    skipped = 0
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            blob = handle.read()
    except (FileNotFoundError, OSError):
        return records, offset, skipped
    end = blob.rfind(b"\n")
    if end < 0:
        return records, offset, skipped
    for line in blob[:end].split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(record, dict):
            skipped += 1
            continue
        records.append(record)
    return records, offset + end + 1, skipped


# ---------------------------------------------------------------------------
# stall detection
# ---------------------------------------------------------------------------
class StallDetector:
    """Track heartbeat recency per key; flag gaps longer than ``timeout``.

    The clock is injectable so tests drive it deterministically::

        clock = lambda: now[0]
        detector = StallDetector(timeout=5.0, clock=clock)
        detector.beat("w0"); now[0] += 6
        assert detector.check() == (["w0"], [])   # newly stalled
        detector.beat("w0")
        assert detector.check() == ([], ["w0"])   # recovered
    """

    def __init__(self, timeout: float, clock=time.monotonic):
        if timeout <= 0:
            raise ValueError("stall timeout must be positive")
        self.timeout = float(timeout)
        self._clock = clock
        self._last_beat: dict = {}
        self._stalled: set = set()

    def beat(self, key, now: float | None = None) -> None:
        self._last_beat[key] = self._clock() if now is None else now

    def forget(self, key) -> None:
        """Stop watching a key (its worker exited); never counts as a
        stall afterwards."""
        self._last_beat.pop(key, None)
        self._stalled.discard(key)

    @property
    def stalled(self) -> set:
        return set(self._stalled)

    def check(self, now: float | None = None) -> tuple[list, list]:
        """Returns ``(newly_stalled, recovered)`` keys since last check."""
        now = self._clock() if now is None else now
        newly_stalled = []
        recovered = []
        for key, last in self._last_beat.items():
            if now - last > self.timeout:
                if key not in self._stalled:
                    self._stalled.add(key)
                    newly_stalled.append(key)
            elif key in self._stalled:
                self._stalled.discard(key)
                recovered.append(key)
        return newly_stalled, recovered


# ---------------------------------------------------------------------------
# dashboard state (files -> plain dict)
# ---------------------------------------------------------------------------
_OPEN_STATES = ("pending", "running")


def _job_counts(jobs: dict) -> dict:
    counts = {state: 0 for state in
              ("pending", "running", "done", "failed", "restored")}
    for info in jobs.values():
        counts[info["state"]] = counts.get(info["state"], 0) + 1
    return counts


def read_state(telemetry_dir: Path | str, now_unix: float | None = None) -> dict:
    """Reconstruct the live sweep state from a telemetry directory.

    Pure file reads (tolerant of torn tails), so any process — the
    ``obs-top`` dashboard, a test, a CI check — can call this while the
    sweep is still running.  Returns a plain JSON-friendly dict.
    """
    directory = Path(telemetry_dir)
    if directory.name != TELEMETRY_DIR and (directory / TELEMETRY_DIR).is_dir():
        directory = directory / TELEMETRY_DIR
    now_unix = time.time() if now_unix is None else now_unix
    state: dict = {
        "telemetry_dir": str(directory),
        "now_unix": now_unix,
        "sweep": {},
        "jobs": {},
        "counts": {},
        "requeues": 0,
        "stalls": 0,
        "workers": {},
        "rungs": {},
        "eta_seconds": None,
        "best_hits1": None,
        "diverged_jobs": [],
        "finished": False,
        "skipped_lines": 0,
    }
    meta_path = directory / "meta.json"
    if meta_path.is_file():
        try:
            state["sweep"] = json.loads(meta_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            pass
    interval = float(state["sweep"].get("heartbeat_interval", 1.0) or 1.0)
    stall_after = interval * float(state["sweep"].get("stall_intervals", 5))

    jobs = state["jobs"]
    workers = state["workers"]
    durations: list[float] = []
    events, _, skipped = tail_jsonl(directory / "parent.jsonl")
    state["skipped_lines"] += skipped
    for event in events:
        kind = event.get("type")
        if kind == "job_state":
            job_id = event.get("job_id", "?")
            job = jobs.setdefault(job_id, {
                "state": "pending", "worker": None, "attempts": 0,
                "describe": "", "stage": "", "rung": -1,
                "started_unix": None, "finished_unix": None,
                "score": None, "hits1": None, "diverged": False,
            })
            new = event.get("state")
            ts = event.get("ts_unix")
            for field in ("describe", "stage", "rung"):
                if field in event:
                    job[field] = event[field]
            if new == "enqueued":
                job["state"] = "pending"
            elif new == "running":
                job["state"] = "running"
                job["worker"] = event.get("worker")
                job["started_unix"] = ts
                job["attempts"] += 1
            elif new in ("done", "failed", "restored"):
                job["state"] = new
                job["finished_unix"] = ts
                if isinstance(event.get("score"), (int, float)):
                    job["score"] = float(event["score"])
                if event.get("status") == "diverged":
                    job["diverged"] = True
                if new == "done" and job["started_unix"] is not None \
                        and ts is not None:
                    durations.append(max(0.0, ts - job["started_unix"]))
            elif new == "requeued":
                job["state"] = "pending"
                job["worker"] = None
                state["requeues"] += 1
        elif kind == "worker":
            idx = event.get("worker")
            worker = workers.setdefault(idx, {
                "pid": event.get("pid"), "alive": False, "stalled": False,
                "last_beat_unix": None, "beat_age_s": None, "status": "-",
                "rss_bytes": 0, "peak_rss_bytes": 0, "steps_per_s": 0.0,
                "epoch": None, "epochs": None, "job_id": None,
                "jobs_done": 0, "heartbeats": 0,
                "hits1": None, "diverged": False,
            })
            what = event.get("event")
            if what == "spawned":
                worker.update(pid=event.get("pid"), alive=True,
                              stalled=False, status="ok")
            elif what == "died":
                worker.update(alive=False, stalled=False, status="dead")
            elif what == "exited":
                worker.update(alive=False, stalled=False, status="exited")
            elif what == "stalled":
                worker.update(stalled=True, status="stalled")
            elif what == "recovered":
                worker.update(stalled=False, status="ok")
        elif kind == "sweep" and event.get("event") == "finished":
            state["finished"] = True
        elif kind == "stall":
            state["stalls"] += 1

    for path in sorted(directory.glob("worker_*.jsonl")):
        if path.name.endswith(".trace.jsonl"):
            continue
        beats, _, skipped = tail_jsonl(path)
        state["skipped_lines"] += skipped
        for beat in beats:
            if beat.get("type") != "heartbeat":
                continue
            idx = beat.get("worker")
            worker = workers.setdefault(idx, {
                "pid": beat.get("pid"), "alive": True, "stalled": False,
                "last_beat_unix": None, "beat_age_s": None, "status": "ok",
                "rss_bytes": 0, "peak_rss_bytes": 0, "steps_per_s": 0.0,
                "epoch": None, "epochs": None, "job_id": None,
                "jobs_done": 0, "heartbeats": 0,
                "hits1": None, "diverged": False,
            })
            worker["heartbeats"] += 1
            worker["last_beat_unix"] = beat.get("ts_unix")
            rss = int(beat.get("rss_bytes", 0))
            worker["rss_bytes"] = rss
            worker["peak_rss_bytes"] = max(worker["peak_rss_bytes"], rss)
            worker["steps_per_s"] = float(beat.get("steps_per_s", 0.0))
            worker["epoch"] = beat.get("epoch")
            worker["epochs"] = beat.get("epochs")
            worker["job_id"] = beat.get("job_id")
            worker["jobs_done"] = int(beat.get("jobs_done", 0))
            # quality payload: live probe Hits@1 + sentinel flag, per
            # worker and attributed to the job it was beating on
            hits1 = beat.get("hits1")
            if isinstance(hits1, (int, float)):
                worker["hits1"] = float(hits1)
            diverged = bool(beat.get("diverged"))
            worker["diverged"] = diverged
            job = jobs.get(beat.get("job_id"))
            if job is not None:
                if isinstance(hits1, (int, float)):
                    job["hits1"] = float(hits1)
                if diverged:
                    job["diverged"] = True
            if beat.get("final") and worker["status"] != "dead":
                # a clean goodbye beat: the worker drained its queue and
                # exited — unlike a kill, which just stops beating
                worker["alive"] = False
                worker["status"] = "exited"

    for worker in workers.values():
        last = worker.get("last_beat_unix")
        if last is not None:
            age = max(0.0, now_unix - last)
            worker["beat_age_s"] = age
            if worker["status"] == "ok" and not state["finished"] \
                    and age > stall_after:
                # a gap visible to the dashboard even before the parent
                # notices (e.g. the parent itself was kill -9'd)
                worker["status"] = "late"

    state["counts"] = _job_counts(jobs)
    for job in jobs.values():
        stage, rung = job.get("stage", ""), job.get("rung", -1)
        key = f"{stage}@rung{rung}" if stage == "tune" else (stage or "?")
        bucket = state["rungs"].setdefault(key, {"total": 0, "done": 0})
        bucket["total"] += 1
        if job["state"] in ("done", "restored"):
            bucket["done"] += 1

    open_jobs = sum(state["counts"].get(s, 0) for s in _OPEN_STATES)
    alive = sum(1 for w in workers.values() if w["alive"] and not w["stalled"])
    if durations and open_jobs:
        trailing = durations[-5:]
        mean = sum(trailing) / len(trailing)
        state["eta_seconds"] = open_jobs * mean / max(1, alive)
    elif not open_jobs and jobs:
        state["eta_seconds"] = 0.0

    # sweep-level best Hits@1 so far: completed-job validation scores and
    # any fresher in-flight probe values, whichever is ahead
    candidates = [job["score"] for job in jobs.values()
                  if isinstance(job.get("score"), (int, float))]
    candidates += [job["hits1"] for job in jobs.values()
                   if isinstance(job.get("hits1"), (int, float))]
    candidates += [w["hits1"] for w in workers.values()
                   if isinstance(w.get("hits1"), (int, float))]
    if candidates:
        state["best_hits1"] = max(candidates)
    state["diverged_jobs"] = sorted(
        job_id for job_id, job in jobs.items() if job.get("diverged"))
    return state


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def _fmt_bytes(n: int) -> str:
    if n >= 1 << 30:
        return f"{n / (1 << 30):.1f}G"
    if n >= 1 << 20:
        return f"{n / (1 << 20):.0f}M"
    if n > 0:
        return f"{n / 1024:.0f}K"
    return "-"


def _fmt_age(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 60:
        return f"{seconds:.1f}s"
    return f"{seconds / 60:.1f}m"


def format_top(state: dict) -> str:
    """Render a :func:`read_state` dict as the ``obs-top`` dashboard."""
    meta = state.get("sweep", {})
    counts = state.get("counts", {})
    lines = []
    title = meta.get("sweep_id") or meta.get("sweep") or "sweep"
    phase = "finished" if state.get("finished") else "running"
    started = meta.get("started_unix")
    elapsed = ""
    if started is not None:
        elapsed = f" — {_fmt_age(max(0.0, state['now_unix'] - started))} elapsed"
    lines.append(f"== {title} [{phase}]{elapsed} — "
                 f"jobs={meta.get('jobs', '?')} "
                 f"trace={meta.get('trace_id', '-')} ==")
    lines.append(
        f"jobs: {counts.get('done', 0)} done / "
        f"{counts.get('running', 0)} running / "
        f"{counts.get('pending', 0)} pending / "
        f"{counts.get('failed', 0)} failed "
        f"({state.get('requeues', 0)} requeued, "
        f"{counts.get('restored', 0)} restored, "
        f"{len(state.get('diverged_jobs', []))} diverged, "
        f"{state.get('stalls', 0)} stalls)"
    )
    rungs = state.get("rungs", {})
    if rungs:
        cells = " · ".join(f"{key} {bucket['done']}/{bucket['total']}"
                           for key, bucket in sorted(rungs.items()))
        lines.append(f"rungs: {cells}")
    eta = state.get("eta_seconds")
    best_hits1 = state.get("best_hits1")
    status_bits = []
    if eta is not None:
        status_bits.append(f"eta: ~{_fmt_age(eta)}")
    if isinstance(best_hits1, (int, float)):
        status_bits.append(f"best H@1: {best_hits1:.3f}")
    if status_bits:
        lines.append(" — ".join(status_bits))
    workers = state.get("workers", {})
    if workers:
        lines.append("")
        lines.append(f"{'worker':>6s} {'pid':>7s} {'status':<8s} "
                     f"{'job':<18s} {'epoch':>7s} {'hits@1':>7s} "
                     f"{'steps/s':>9s} {'rss':>7s} {'beat':>8s} "
                     f"{'done':>5s}")
        for idx in sorted(workers, key=lambda k: (str(k))):
            worker = workers[idx]
            job_id = worker.get("job_id") or ""
            describe = ""
            job = state.get("jobs", {}).get(job_id)
            if job is not None and job.get("describe"):
                describe = job["describe"]
            epoch = worker.get("epoch")
            epochs = worker.get("epochs")
            epoch_cell = (f"{epoch}/{epochs}" if epoch is not None
                          and epochs else (str(epoch) if epoch else "-"))
            hits1 = worker.get("hits1")
            hits_cell = (f"{hits1:.3f}"
                         if isinstance(hits1, (int, float)) else "-")
            status = worker.get("status", "-")
            if worker.get("diverged"):
                status = "DIVERGED"
            lines.append(
                f"{str(idx):>6s} {str(worker.get('pid') or '-'):>7s} "
                f"{status:<8s} "
                f"{(describe or job_id or '-')[:18]:<18s} "
                f"{epoch_cell:>7s} {hits_cell:>7s} "
                f"{worker.get('steps_per_s', 0.0):>9.1f} "
                f"{_fmt_bytes(int(worker.get('rss_bytes', 0))):>7s} "
                f"{_fmt_age(worker.get('beat_age_s')):>8s} "
                f"{worker.get('jobs_done', 0):>5d}"
            )
    diverged_jobs = state.get("diverged_jobs", [])
    if diverged_jobs:
        jobs = state.get("jobs", {})
        names = []
        for job_id in diverged_jobs:
            job = jobs.get(job_id, {})
            names.append((job.get("describe") or job_id)[:24])
        lines.append("diverged: " + ", ".join(names))
    if state.get("skipped_lines"):
        lines.append(f"(skipped {state['skipped_lines']} torn/unreadable "
                     f"telemetry line(s))")
    return "\n".join(lines)
