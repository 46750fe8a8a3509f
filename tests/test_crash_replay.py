"""Crash-replay suite: injected crashes, then resume, then equivalence.

The contract under test (docs/robustness.md): for every injected kill
site, (a) no torn or corrupt *readable* artifact survives the crash,
and (b) a resumed run finishes with exactly the embeddings and metrics
the uninterrupted run would have produced.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.approaches import (
    ApproachConfig,
    BootEA,
    CheckpointCorruption,
    GCNAlign,
    IPTransE,
    KDCoE,
    MTransE,
    TrainingCheckpointer,
    compose_approach,
)
from repro.autodiff import SGD, Adam, Parameter
from repro.datagen import benchmark_pair
from repro.faults import InjectedFault
from repro.obs.ledger import RunLedger
from repro.pipeline.checkpoint import (
    EmbeddingSnapshot,
    load_snapshot,
    save_snapshot,
)
from repro.pipeline.runner import cross_validate

REPO = Path(__file__).resolve().parents[1]
EPOCHS = 5


@pytest.fixture(scope="module")
def tiny():
    pair = benchmark_pair("EN-FR", size=120, method="direct", seed=0)
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    return pair, split


def _factory():
    return MTransE(ApproachConfig(epochs=EPOCHS, dim=8, seed=1,
                                  valid_every=0))


def _fit_checkpointed(pair, split, directory, resume=False):
    approach = _factory()
    log = approach.fit(pair, split, checkpoint_dir=directory,
                       checkpoint_every=1, resume_from=resume)
    return approach, log


@pytest.fixture(scope="module")
def uninterrupted(tiny):
    pair, split = tiny
    approach = _factory()
    approach.fit(pair, split)
    return ([p.data.copy() for p in approach._parameters()],
            approach.evaluate(split.test))


def _assert_equivalent(approach, uninterrupted, split):
    reference_params, reference_metrics = uninterrupted
    for got, expected in zip(approach._parameters(), reference_params):
        # stronger than the required allclose(atol=1e-12): bit-for-bit
        np.testing.assert_array_equal(got.data, expected)
    metrics = approach.evaluate(split.test)
    assert metrics.hits_at(1) == reference_metrics.hits_at(1)
    assert metrics.mrr == reference_metrics.mrr


# ------------------------------------------------------------------ site 1
def test_crash_at_epoch_boundary_then_resume(tiny, uninterrupted, tmp_path):
    pair, split = tiny
    with faults.inject("epoch.end:nth=2:mode=raise"):
        with pytest.raises(InjectedFault):
            _fit_checkpointed(pair, split, tmp_path)
    approach, log = _fit_checkpointed(pair, split, tmp_path, resume=True)
    assert log.status == "resumed"
    assert log.resumed_from_epoch >= 1
    assert log.epochs_run == EPOCHS
    _assert_equivalent(approach, uninterrupted, split)


# ------------------------------------------------------------------ site 2
def test_crash_mid_checkpoint_write_then_resume(tiny, uninterrupted,
                                                tmp_path):
    """Tear the epoch-2 state file mid-write: the manifest must still
    reference the complete epoch-1 checkpoint, and resuming from it must
    reproduce the uninterrupted run exactly."""
    pair, split = tiny
    with faults.inject("checkpoint.write:nth=2:mode=partial"):
        with pytest.raises(InjectedFault):
            _fit_checkpointed(pair, split, tmp_path)
    # the surviving checkpoint is complete and verifies
    checkpointer = TrainingCheckpointer(tmp_path)
    manifest = checkpointer.manifest()  # raises on any torn artifact
    assert manifest["epoch"] == 1
    # the torn write only ever touched a *.tmp sibling
    assert (tmp_path / "state_ep000002.npz.tmp").exists()
    assert not (tmp_path / "state_ep000002.npz").exists()
    approach, log = _fit_checkpointed(pair, split, tmp_path, resume=True)
    assert log.status == "resumed"
    _assert_equivalent(approach, uninterrupted, split)


def test_crash_mid_manifest_write_then_resume(tiny, uninterrupted, tmp_path):
    pair, split = tiny
    with faults.inject("checkpoint.manifest:nth=2:mode=partial"):
        with pytest.raises(InjectedFault):
            _fit_checkpointed(pair, split, tmp_path)
    manifest = TrainingCheckpointer(tmp_path).manifest()
    assert manifest["epoch"] == 1  # previous complete manifest survives
    approach, log = _fit_checkpointed(pair, split, tmp_path, resume=True)
    assert log.status == "resumed"
    _assert_equivalent(approach, uninterrupted, split)


def test_corrupt_checkpoint_refuses_to_resume(tiny, tmp_path):
    pair, split = tiny
    with faults.inject("epoch.end:nth=2:mode=raise"):
        with pytest.raises(InjectedFault):
            _fit_checkpointed(pair, split, tmp_path)
    state = sorted(tmp_path.glob("state_ep*.npz"))[-1]
    raw = bytearray(state.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    state.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorruption):
        _fit_checkpointed(pair, split, tmp_path, resume=True)


# ------------------------------------------------------------------ site 3
def test_crash_mid_ledger_append_leaves_skippable_line(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    record = {"schema_version": 1, "run_id": "r1", "ts_utc": "t",
              "kind": "train", "name": "a", "fingerprint": "f" * 16,
              "git": {}, "host": {}, "config": {}, "scalars": {},
              "metrics": {}}
    ledger.append(dict(record, run_id="r0"))
    with faults.inject("ledger.append:nth=1:mode=partial"):
        with pytest.raises(InjectedFault):
            ledger.append(record)
    # the torn trailing line is skipped, never fatal, and appends recover
    records, skipped = ledger.read()
    assert [r["run_id"] for r in records] == ["r0"]
    assert skipped == 1
    ledger.append(dict(record, run_id="r2"))
    records, skipped = ledger.read()
    assert [r["run_id"] for r in records] == ["r0", "r2"]


# ------------------------------------------------------------------ site 4
def test_crash_mid_snapshot_save_preserves_old_file(tmp_path):
    rng = np.random.default_rng(0)
    snapshot = EmbeddingSnapshot(
        ["a", "b"], rng.normal(size=(2, 4)),
        ["x", "y"], rng.normal(size=(2, 4)), name="v1",
    )
    path = tmp_path / "snap.npz"
    save_snapshot(snapshot, path)
    replacement = EmbeddingSnapshot(
        ["a", "b"], rng.normal(size=(2, 4)),
        ["x", "y"], rng.normal(size=(2, 4)), name="v2",
    )
    with faults.inject("snapshot.save:nth=1:mode=partial"):
        with pytest.raises(InjectedFault):
            save_snapshot(replacement, path)
    # the reader still sees the old complete snapshot, never a torn one
    loaded = load_snapshot(path)
    assert loaded.name == "v1"
    np.testing.assert_array_equal(loaded.source_matrix,
                                  snapshot.source_matrix)


# ------------------------------------------------- real SIGKILL, subprocess
def test_real_kill_and_resume_is_bit_identical(tmp_path):
    """An os._exit(137) at epoch 3 (a genuine dead process, not an
    exception) resumed from its checkpoint must reach the same final
    parameter hash and metrics as a never-interrupted run."""
    def run(*extra, env_faults=None):
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_FAULTS", None)
        if env_faults:
            env["REPRO_FAULTS"] = env_faults
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "train", "--size", "100",
             "--dim", "8", "--epochs", "4", *extra],
            env=env, cwd=REPO, capture_output=True, text=True,
        )

    killed = run("--checkpoint-dir", str(tmp_path / "ck"),
                 env_faults="epoch.end:nth=2:mode=kill")
    assert killed.returncode == 137, killed.stderr
    resumed = run("--checkpoint-dir", str(tmp_path / "ck"), "--resume")
    assert resumed.returncode == 0, resumed.stderr
    reference = run()
    assert reference.returncode == 0, reference.stderr

    def digest(output):
        return re.search(r"params_sha256=(\w+)", output).group(1)

    def scores(output):
        return re.search(r"hits@1=\S+ mrr=\S+", output).group(0)

    assert digest(resumed.stdout) == digest(reference.stdout)
    assert scores(resumed.stdout) == scores(reference.stdout)
    assert "status=resumed" in resumed.stdout


# ------------------------------------------------------------- cv + no-op
def test_cross_validate_resumes_completed_folds(tiny, tmp_path):
    pair, _ = tiny
    baseline = cross_validate(_factory, pair, n_folds=2, seed=0)
    with faults.inject(f"epoch.end:nth={EPOCHS + 2}:mode=raise"):
        with pytest.raises(InjectedFault):  # dies inside fold 2
            cross_validate(_factory, pair, n_folds=2, seed=0,
                           checkpoint_dir=tmp_path)
    resumed = cross_validate(_factory, pair, n_folds=2, seed=0,
                             checkpoint_dir=tmp_path)
    assert resumed.status == "resumed"
    assert len(resumed.folds) == 2
    assert resumed.folds[0].approach is None  # restored, not retrained
    for metric in ("hits@1", "mrr"):
        assert resumed.mean_std(metric) == baseline.mean_std(metric)


def test_checkpointing_changes_nothing_about_training(tiny, uninterrupted,
                                                      tmp_path):
    """With no faults armed, a checkpointed fit is bit-identical to a
    plain one — crash safety must not perturb training."""
    pair, split = tiny
    approach, log = _fit_checkpointed(pair, split, tmp_path)
    assert log.status == "completed"
    _assert_equivalent(approach, uninterrupted, split)


# ------------------------------------- epoch-end state: self-training, ES
@pytest.fixture(scope="module")
def enfr300():
    pair = benchmark_pair("EN-FR", size=300, method="direct", seed=0)
    split = pair.split(train_ratio=0.3, valid_ratio=0.1, seed=0)
    return pair, split


def _config(**overrides):
    return ApproachConfig(**{"dim": 16, "epochs": 8, "batch_size": 256,
                             "n_negatives": 3, "seed": 0, "valid_every": 0,
                             **overrides})


SELF_TRAINING = {
    "KDCoE": lambda: KDCoE(_config(), cotrain_every=2, threshold=0.5),
    "IPTransE": lambda: IPTransE(_config(), augment_every=2),
    "BootEA": lambda: BootEA(_config(), bootstrap_every=2),
    "composed": lambda: compose_approach(
        "transe", combination="swapping", negative_sampling="truncated",
        self_training=True, self_training_every=2)(_config()),
}


def _kill_and_resume(factory, pair, split, directory, nth=5):
    """Crash at the ``nth`` epoch boundary (after the checkpoint of epoch
    ``nth - 1``), then resume from the checkpoint directory."""
    with faults.inject(f"epoch.end:nth={nth}:mode=raise"):
        with pytest.raises(InjectedFault):
            factory().fit(pair, split, checkpoint_dir=directory)
    approach = factory()
    log = approach.fit(pair, split, checkpoint_dir=directory,
                       resume_from=True)
    assert log.status == "resumed" and log.resumed_from_epoch == nth - 1
    return approach, log


def _assert_same_parameters(approach, reference):
    for got, expected in zip(approach._parameters(),
                             reference._parameters()):
        np.testing.assert_array_equal(got.data, expected.data)


@pytest.mark.parametrize("name", sorted(SELF_TRAINING))
def test_resume_keeps_augmentation_records(name, enfr300, tmp_path):
    """The proposed alignment rides in the checkpoint, so a resumed run
    scores its later rounds (Figure 7) exactly as the uninterrupted run.
    The epoch-4 checkpoint falls on BootEA's last sampler refresh and
    precedes the composed model's first, so truncated negatives resume
    exactly too."""
    pair, split = enfr300
    factory = SELF_TRAINING[name]
    reference = factory()
    reference.fit(pair, split)
    approach, log = _kill_and_resume(factory, pair, split, tmp_path)
    assert len(reference.log.augmentation) == 4
    assert log.augmentation == reference.log.augmentation
    _assert_same_parameters(approach, reference)


def test_resume_rebuilds_composed_sampler(enfr300, tmp_path):
    """Resumed from the checkpoint of its refresh epoch (5), a composed
    model rebuilds its truncated sampler from the restored embeddings and
    continues bit-identically."""
    pair, split = enfr300

    def factory():
        return compose_approach("transe", combination="swapping",
                                negative_sampling="truncated")(_config())

    reference = factory()
    reference.fit(pair, split)
    approach, _ = _kill_and_resume(factory, pair, split, tmp_path, nth=6)
    _assert_same_parameters(approach, reference)


def test_resume_keeps_early_stopping_state(enfr300, tmp_path):
    """The best snapshot, best Hits@1 and patience counter ride in the
    checkpoint: the resumed run stops at the same check and restores the
    same snapshot as the uninterrupted one (epoch 8 and epoch 2 here)."""
    pair, split = enfr300

    def factory():
        return GCNAlign(_config(epochs=20, valid_every=2, patience=3))

    reference = factory()
    reference.fit(pair, split)
    assert (reference.log.epochs_run, reference.log.best_epoch) == (8, 2)
    approach, log = _kill_and_resume(factory, pair, split, tmp_path)
    assert log.valid_history == reference.log.valid_history
    assert log.best_epoch == reference.log.best_epoch
    assert log.epochs_run == reference.log.epochs_run
    _assert_same_parameters(approach, reference)


# ------------------------------------------ optimizer state in checkpoints
def _train_steps(parameters, optimizer, steps, seed):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        optimizer.zero_grad()
        for parameter in parameters:
            parameter.grad = rng.normal(size=parameter.shape)
        optimizer.step()


def test_checkpoint_keeps_sgd_momentum_state_bit_for_bit(tmp_path):
    """The ``last_step`` key survives the ``opt_{i}_{key}`` npz encoding:
    its underscore must not be read as the index separator."""
    params = [Parameter(np.ones((4, 2)))]
    optimizer = SGD(params, lr=0.1, momentum=0.9)
    _train_steps(params, optimizer, steps=2, seed=3)
    TrainingCheckpointer(tmp_path).save(epoch=2, parameters=params,
                                        optimizer=optimizer)

    fresh = [Parameter(np.zeros((4, 2)))]
    fresh_optimizer = SGD(fresh, lr=0.1, momentum=0.9)
    TrainingCheckpointer(tmp_path).restore(fresh, optimizer=fresh_optimizer)
    original = optimizer.state_dict()["state"][0]
    restored = fresh_optimizer.state_dict()["state"][0]
    assert set(restored) == set(original) == {"velocity", "last_step", "step"}
    for key in original:
        np.testing.assert_array_equal(restored[key], original[key])
    np.testing.assert_array_equal(fresh[0].data, params[0].data)


def test_checkpoint_resumes_adam_exactly(tmp_path):
    rng = np.random.default_rng(5)
    params = [Parameter(rng.normal(size=(6, 4)), name="entities"),
              Parameter(rng.normal(size=(3, 4)), name="relations")]
    optimizer = Adam(params, lr=0.05)
    _train_steps(params, optimizer, steps=4, seed=1)
    TrainingCheckpointer(tmp_path).save(epoch=4, parameters=params,
                                        optimizer=optimizer)
    _train_steps(params, optimizer, steps=3, seed=2)

    fresh = [Parameter(np.zeros((6, 4))), Parameter(np.zeros((3, 4)))]
    fresh_optimizer = Adam(fresh, lr=0.9)  # wrong on purpose: restored
    TrainingCheckpointer(tmp_path).restore(fresh, optimizer=fresh_optimizer)
    assert fresh_optimizer.lr == 0.05
    _train_steps(fresh, fresh_optimizer, steps=3, seed=2)
    for got, expected in zip(fresh, params):
        np.testing.assert_array_equal(got.data, expected.data)
