"""Crash-safe training checkpoints: save/resume a ``fit`` mid-run.

A SIGTERM or OOM at epoch 49/50 must not cost 49 epochs.  The
:class:`TrainingCheckpointer` persists everything ``fit`` needs to
continue *exactly* where it stopped:

* every trainable parameter matrix,
* the optimizer ``state_dict`` (Adam moments, momentum ``last_step``
  counters, Adagrad accumulators — see :mod:`repro.autodiff.optim`),
* the numpy bit-generator state, so the resumed run draws the same
  batch permutations and negative samples the uninterrupted run would,
* the :class:`~repro.approaches.base.TrainingLog` so far and the
  early-stopping bookkeeping (best snapshot, patience counter),
* an approach-specific ``extra`` dict (semi-supervised augmentation
  state).

Layout (one directory per run)::

    ckpt/
      MANIFEST.json          # epoch, rng state, log, sha256 of the state file
      state_ep000012.npz     # parameters + optimizer + best-snapshot arrays

The state file is written atomically first; the manifest — also
atomic — is promoted only after the state file is complete and hashed,
and always references a file that was fully written.  A crash at any
byte therefore leaves either the previous complete checkpoint or the
new one, never a torn readable mix; silent corruption (bit rot, a
partially-synced disk) fails the sha256 check cleanly at resume time
instead of training on garbage.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from ..faults import atomic_write_json, atomic_write_with, fault_point, sha256_file

__all__ = [
    "CheckpointCorruption",
    "TrainingCheckpointer",
    "CheckpointSignalHandler",
]

_MANIFEST = "MANIFEST.json"
_SCHEMA = 1


class CheckpointCorruption(RuntimeError):
    """A checkpoint exists but fails validation (torn file, bad hash)."""


class TrainingCheckpointer:
    """Reads and writes resumable training checkpoints in one directory."""

    def __init__(self, directory: Path | str, keep: int = 2):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = keep

    # -- writing -------------------------------------------------------
    def save(
        self,
        *,
        epoch: int,
        parameters,
        optimizer=None,
        rng: np.random.Generator | None = None,
        log=None,
        best_state: list[np.ndarray] | None = None,
        best_hits: float = -1.0,
        best_epoch: int = 0,
        bad_checks: int = 0,
        approach: str = "",
        extra: dict | None = None,
    ) -> Path:
        """Write one complete checkpoint for the end of ``epoch``."""
        parameters = list(parameters)
        arrays: dict[str, np.ndarray] = {
            f"param_{index}": parameter.data
            for index, parameter in enumerate(parameters)
        }
        if best_state is not None:
            for index, saved in enumerate(best_state):
                arrays[f"best_{index}"] = saved
        if optimizer is not None:
            state = optimizer.state_dict()
            arrays["optimizer_lr"] = np.array(state["lr"])
            for index, slot in state["state"].items():
                for key, value in slot.items():
                    arrays[f"opt_{index}_{key}"] = np.asarray(value)
        state_path = self.directory / f"state_ep{epoch:06d}.npz"
        atomic_write_with(
            state_path,
            lambda handle: np.savez_compressed(handle, **arrays),
            site="checkpoint.write",
        )
        manifest = {
            "schema": _SCHEMA,
            "approach": approach,
            "epoch": int(epoch),
            "state_file": state_path.name,
            "sha256": sha256_file(state_path),
            "n_parameters": len(parameters),
            "has_best_state": best_state is not None,
            "best_hits": float(best_hits),
            "best_epoch": int(best_epoch),
            "bad_checks": int(bad_checks),
            "rng": rng.bit_generator.state if rng is not None else None,
            "log": _log_to_dict(log) if log is not None else None,
            "extra": dict(extra or {}),
        }
        atomic_write_json(self.directory / _MANIFEST, manifest,
                          site="checkpoint.manifest")
        self._prune(state_path.name)
        return state_path

    def _prune(self, current: str) -> None:
        """Drop state files beyond the ``keep`` most recent epochs."""
        states = sorted(self.directory.glob("state_ep*.npz"))
        for stale in states[:-self.keep]:
            if stale.name != current:
                stale.unlink(missing_ok=True)

    # -- reading -------------------------------------------------------
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    def exists(self) -> bool:
        return self.manifest_path().is_file()

    def manifest(self) -> dict:
        """The verified manifest.

        Raises :class:`FileNotFoundError` when no checkpoint was ever
        completed, :class:`CheckpointCorruption` when one exists but its
        manifest is unreadable or its state file fails the sha256 check.
        """
        path = self.manifest_path()
        if not path.is_file():
            raise FileNotFoundError(f"no checkpoint manifest at {path}")
        fault_point("checkpoint.read", path=path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CheckpointCorruption(
                f"unreadable checkpoint manifest {path}: {error}"
            ) from error
        for key in ("epoch", "state_file", "sha256", "n_parameters"):
            if key not in data:
                raise CheckpointCorruption(
                    f"checkpoint manifest {path} is missing {key!r}"
                )
        state_path = self.directory / data["state_file"]
        if not state_path.is_file():
            raise CheckpointCorruption(
                f"checkpoint state file {state_path} is missing"
            )
        if sha256_file(state_path) != data["sha256"]:
            raise CheckpointCorruption(
                f"checkpoint state file {state_path} fails its sha256 "
                f"check (torn write or corruption); refusing to resume "
                f"from it"
            )
        return data

    def latest_epoch(self) -> int | None:
        """Epoch of the newest valid checkpoint, ``None`` when absent."""
        if not self.exists():
            return None
        return int(self.manifest()["epoch"])

    def restore(
        self,
        parameters,
        optimizer=None,
        rng: np.random.Generator | None = None,
    ) -> dict:
        """Load the checkpoint into ``parameters``/``optimizer``/``rng``
        (all in place) and return the manifest augmented with the
        ``best_state`` arrays (``None`` when the checkpoint holds none).
        """
        data = self.manifest()
        parameters = list(parameters)
        if data["n_parameters"] != len(parameters):
            raise CheckpointCorruption(
                f"checkpoint holds {data['n_parameters']} parameters, "
                f"the approach has {len(parameters)}"
            )
        state_path = self.directory / data["state_file"]
        best_state: list[np.ndarray] | None = None
        with np.load(state_path, allow_pickle=False) as npz:
            for index, parameter in enumerate(parameters):
                saved = npz[f"param_{index}"]
                if saved.shape != parameter.data.shape:
                    raise CheckpointCorruption(
                        f"parameter {index} shape mismatch: checkpoint "
                        f"{saved.shape} != model {parameter.data.shape}"
                    )
                parameter.data[...] = saved
            if data.get("has_best_state"):
                best_state = []
                index = 0
                while f"best_{index}" in npz.files:
                    best_state.append(np.array(npz[f"best_{index}"]))
                    index += 1
            if optimizer is not None and "optimizer_lr" in npz.files:
                state: dict = {"lr": float(npz["optimizer_lr"]), "state": {}}
                for key in npz.files:
                    if not key.startswith("opt_"):
                        continue
                    index_str, slot_key = key[len("opt_"):].split("_", 1)
                    state["state"].setdefault(int(index_str), {})[slot_key] = \
                        npz[key]
                optimizer.load_state_dict(state)
        if rng is not None and data.get("rng") is not None:
            rng.bit_generator.state = data["rng"]
        result = dict(data)
        result["best_state"] = best_state
        return result

    def try_restore(self, parameters, optimizer=None, rng=None) -> dict | None:
        """:meth:`restore`, but ``None`` when no checkpoint exists yet.

        Corruption still raises: resuming silently from scratch when the
        operator pointed at a damaged checkpoint would hide data loss.
        """
        if not self.exists():
            return None
        return self.restore(parameters, optimizer=optimizer, rng=rng)


def _log_to_dict(log) -> dict:
    return {
        "losses": [float(x) for x in log.losses],
        "valid_history": [[int(e), float(h)] for e, h in log.valid_history],
        "epochs_run": int(log.epochs_run),
        "steps_run": int(log.steps_run),
        "epoch_seconds": [float(x) for x in log.epoch_seconds],
        "augmentation": [
            [rec.iteration, rec.n_proposed, rec.precision, rec.recall, rec.f1]
            for rec in log.augmentation
        ],
        # probe curves are deterministic (probe RNG is keyed by
        # (seed, epoch)), so resumed histories replay bit-identically;
        # status stays out — the *resumed* run decides its own status
        "probes": [dict(p) for p in log.probes],
        "diverged_reason": str(log.diverged_reason),
    }


def restore_log_fields(log, data: dict | None) -> None:
    """Copy checkpointed log fields back onto a fresh ``TrainingLog``."""
    if not data:
        return
    from .base import AugmentationRecord

    log.losses = [float(x) for x in data.get("losses", [])]
    log.valid_history = [(int(e), float(h))
                         for e, h in data.get("valid_history", [])]
    log.epochs_run = int(data.get("epochs_run", 0))
    log.steps_run = int(data.get("steps_run", 0))
    log.epoch_seconds = [float(x) for x in data.get("epoch_seconds", [])]
    log.augmentation = [
        AugmentationRecord(iteration=int(i), n_proposed=int(n),
                           precision=float(p), recall=float(r), f1=float(f))
        for i, n, p, r, f in data.get("augmentation", [])
    ]
    log.probes = [dict(p) for p in data.get("probes", [])]
    log.diverged_reason = str(data.get("diverged_reason", ""))


class CheckpointSignalHandler:
    """Turns SIGTERM/SIGINT into a checkpoint request at the next safe
    epoch boundary.

    Installed only around a checkpointing ``fit`` and only in the main
    thread (signal handlers cannot be set elsewhere).  The first signal
    sets :attr:`requested`; a second one falls through to the previous
    handler, so a double Ctrl-C still interrupts immediately.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, enabled: bool = True):
        self.enabled = enabled and \
            threading.current_thread() is threading.main_thread()
        self.requested = False
        self._previous: dict[int, object] = {}

    def __enter__(self) -> "CheckpointSignalHandler":
        if self.enabled:
            for signum in self.SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc):
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
        return False

    def _handle(self, signum, frame):
        if self.requested:  # second signal: defer to the original handler
            previous = self._previous.get(signum)
            if callable(previous):
                previous(signum, frame)
                return
            raise KeyboardInterrupt
        self.requested = True
        print(f"[repro] received signal {signum}; will checkpoint and "
              f"stop at the next epoch boundary", file=sys.stderr)
