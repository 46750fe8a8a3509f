"""End-to-end + per-layer benchmark of the paper pipeline.

Timed run (end-to-end metrics, tracing off; each repeat in a fresh
process, one at a time)::

    python3 benchmarks/e2e/run.py --workload rows-1.5k --seed 0 --trace 0

Traced run (per-layer metrics from pairs of untraced and traced
repeats; writes ``events.jsonl`` + ``trace.json`` under
``benchmarks/e2e/reports/``)::

    python3 benchmarks/e2e/run.py --workload rows-1.5k --trace 1

Record runs into a results file, and compare two of them under the
bounds of ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --workload boot-2.5k --out new.json
    python3 benchmarks/e2e/run.py --compare benchmarks/e2e/baseline.json new.json

``--smoke`` runs the same code paths and checks at tiny sizes.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
REPORTS = HERE / "reports"
QUALITY_FILE = HERE / "quality.json"
# a whole run, all of its repeats, must end within this
RUN_TIMEOUT_S = 170
# Fewest timed repeats in a run with a --seconds budget; with the passes
# inside each repeat, every unit of work gets at least four tries.
MIN_REPEATS = 2
# Quality is deterministic at a fixed seed, so it is held to an absolute
# bound: a drop of more than this against the same seed is a regression.
QUALITY_TOLERANCE = 0.005


def _threads() -> dict[str, str]:
    """BLAS/OpenMP thread caps for every repeat.

    One thread (within the ``nproc`` cap): the matrices here are small,
    and on a 2-core box a second BLAS thread made training slower and
    its timings noisier.
    """
    return {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS")}


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _dump(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# child side: one repeat in this process
# ---------------------------------------------------------------------------
def _child(spec: dict) -> dict:
    from e2e_workloads import SMOKE, WORKLOADS, run_workload

    workload = (SMOKE if spec["smoke"] else WORKLOADS)[spec["workload"]]
    tag = f"{workload.name}-seed{spec['seed']}" + ("-smoke" if spec["smoke"]
                                                  else "")
    workdir = REPORTS / tag
    if not spec["trace"]:
        return run_workload(workload, spec["seed"], workdir, spec["floor"])
    from e2e_layers import layer_metrics, traced

    with traced() as capture:
        measured = run_workload(workload, spec["seed"], workdir,
                                spec["floor"])
    capture.write(workdir / "events.jsonl")
    capture.tracer.write_chrome_trace(workdir / "trace.json")
    measured["per_layer"] = layer_metrics(capture, measured)
    measured["trace_dir"] = str(workdir.relative_to(ROOT))
    return measured


# ---------------------------------------------------------------------------
# parent side: repeats in fresh processes, statistics, output
# ---------------------------------------------------------------------------
def _spawn(spec: dict, deadline: float) -> dict:
    """One repeat in a fresh process; waits for it (killing it at the
    deadline) and returns its measurements."""
    env = {**os.environ, **_threads(),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--child", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"repeat of {spec['workload']} exited with "
                           f"code {proc.returncode}")
    return json.loads(lines[-1])


def _repeat(run_one, count: int) -> list:
    """``run_one()`` ``count`` times, or fewer (at least once) if the next
    call, judged by the last one, would not end within the run's
    timeout."""
    started = time.monotonic()
    results = []
    while len(results) < count:
        began = time.monotonic()
        results.append(run_one())
        last = time.monotonic() - began
        if time.monotonic() - started + last > RUN_TIMEOUT_S:
            break
    return results


def _count(args, workload, per: int) -> int:
    """Repeats in a run (``per`` processes each): ``--repeats``, or with a
    ``--seconds`` budget as many as fit it at the workload's usual speed
    (at least :data:`MIN_REPEATS`, or one traced pair).  It does not
    depend on how fast the host happens to run, so every run of a
    workload gets the same number."""
    if not args.seconds:
        return args.repeats
    fit = int(args.seconds // (per * workload.repeat_s))
    return max(fit, MIN_REPEATS if per == 1 else 1)


def _floor(workload: str) -> float:
    """The Hits@1 floor stated in BENCHMARK.json's ``why`` of a workload."""
    for entry in _load(ROOT / "BENCHMARK.json")["workloads"]:
        if entry["name"] == workload:
            match = re.search(r"Hits@1 floor ([0-9.]+)", entry["why"])
            if match:
                return float(match.group(1))
    raise SystemExit(f"error: BENCHMARK.json states no Hits@1 floor "
                     f"for {workload}")


def _summary(values: list[float]) -> dict:
    """Median and quartiles (within the data, so also for n = 2 or 3)."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _check_quality(results: list[dict], pinned: dict | None,
                   failures: list[str]) -> tuple[int, int]:
    """Quality is deterministic at a fixed seed: repeats must agree, and
    must not fall short of the values pinned for this seed by more than
    :data:`QUALITY_TOLERANCE`.  Returns (checks attempted, failed)."""
    from e2e_workloads import QUALITY

    failed = 0
    for name in QUALITY:
        values = [r[name] for r in results]
        if len(set(values)) > 1:
            failures.append(f"{name} differs between repeats: {values}")
            failed += 1
        elif pinned and values[0] < pinned[name] - QUALITY_TOLERANCE:
            failures.append(f"{name} {values[0]:.4f} is below "
                            f"{pinned[name]:.4f} pinned for this seed")
            failed += 1
    return len(QUALITY) * (2 if pinned else 1), failed


def _pinned(args) -> dict | None:
    """The quality pinned in quality.json for this workload and seed."""
    if args.smoke or not QUALITY_FILE.is_file():
        return None
    return _load(QUALITY_FILE).get(args.workload, {}).get(str(args.seed))


def _measure(args, floor: float) -> tuple[dict, dict]:
    from e2e_layers import PER_LAYER
    from e2e_workloads import END_TO_END, QUALITY, SMOKE, WORKLOADS, combine

    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    spec = {"workload": args.workload, "seed": args.seed, "floor": floor,
            "smoke": args.smoke, "trace": False}
    deadline = time.monotonic() + RUN_TIMEOUT_S
    traced = None
    if args.trace:
        pairs = _repeat(lambda: (_spawn(spec, deadline),
                                 _spawn({**spec, "trace": True}, deadline)),
                        _count(args, workload, per=2))
        results = [result for pair in pairs for result in pair]
        traced = pairs[0][1]
        layers = dict(traced["per_layer"])
        # the same units of work, traced against untraced
        layers["trace.overhead"] = (
            combine([t for _, t in pairs])["fixed_work_s"]
            / combine([u for u, _ in pairs])["fixed_work_s"] - 1)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        results = _repeat(lambda: _spawn(spec, deadline),
                          _count(args, workload, per=1))
        combined = combine(results)
        metrics = {name: {"value": combined[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    failures = [f for r in results for f in r["failures"]]
    attempted, failed = _check_quality(results, _pinned(args), failures)
    failed += sum(r["failed"] for r in results)
    report = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results) + attempted,
        "failed": failed,
        "metrics": metrics,
    }
    quality = {name: results[0][name] for name in QUALITY}
    return report, {"failures": failures, "results": results,
                    "traced": traced, "quality": quality}


def _print_human(args, report: dict, detail: dict) -> None:
    mode = "traced" if args.trace else "timed"
    results = detail["results"]
    walls = ", ".join(f"{r['wall_s']:.1f}" for r in results)
    print(f"== {args.workload} seed={args.seed} ({mode}, "
          f"{len(results)} repeat(s) of {walls} s, "
          f"dataset {results[0]['dataset']})")
    for name, entry in report["metrics"].items():
        print(f"  {name:<34s} {entry['value']:>14.6g} {entry['unit']}")
    print("  quality (checked, not a metric): " + ", ".join(
        f"{name} {value:.4f}" for name, value in detail["quality"].items()))
    if args.trace:
        traced = detail["traced"]
        print(f"  trace: {traced['trace_dir']}/events.jsonl + trace.json; "
              f"overhead {report['metrics']['trace.overhead']['value']:+.1%}"
              f" on every timed unit but the setup, unattributed share of "
              f"train + evaluation {traced['per_layer']['trace.unattributed']:.1%}")
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  ops attempted {report['attempted']}, failed {report['failed']}")


def _host() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": _threads(), "git_sha": sha}


def _record(path: Path, args, report: dict, quality: dict) -> None:
    """Merge this run into a results file: a timed run is appended to its
    workload's runs, whose median and quartiles are recomputed; a traced
    run replaces the workload's per-layer table.  Either records the
    run's quality."""
    data = _load(path) if path.is_file() else {"seed": args.seed,
                                                "workloads": {}}
    if data["seed"] != args.seed:
        raise SystemExit(f"error: {path} holds seed {data['seed']}, "
                         f"not {args.seed}")
    data["host"] = _host()
    entry = data["workloads"].setdefault(args.workload, {})
    entry["quality"] = quality
    if args.trace:
        entry["per_layer"] = report
    else:
        runs = entry.setdefault("runs", [])
        runs.append(report)
        entry["end_to_end"] = {
            name: _summary([run["metrics"][name]["value"] for run in runs])
            for name in report["metrics"]}
    _dump(path, data)


def _pin_quality(args, results: list[dict]) -> None:
    """Record this run's quality as the reference for its workload and
    seed in quality.json."""
    from e2e_workloads import QUALITY

    data = _load(QUALITY_FILE) if QUALITY_FILE.is_file() else {}
    data.setdefault(args.workload, {})[str(args.seed)] = {
        name: results[0][name] for name in QUALITY}
    _dump(QUALITY_FILE, data)


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def _verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """ok / regressed / improved / unresolved, with the median's change.

    The bound is a share of the base median.  When either side's spread
    across runs (quartile distance over median) is wider than the
    bound, the change is unresolved unless every new run beats every
    base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = (new["median"] - base["median"]) / abs(base["median"])
    worse = sign * change

    def spread(entry):
        return (entry["q3"] - entry["q1"]) / abs(entry["median"])

    if max(spread(base), spread(new)) > bound:
        beats = max(sign * v for v in new["values"]) < min(
            sign * v for v in base["values"])
        verdict = "improved" if beats else "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif worse < -bound:
        verdict = "improved"
    else:
        verdict = "ok"
    return f"{verdict}({change:+.1%})"


def _quality_verdict(base: float, new: float) -> str:
    """Quality is deterministic at a seed, so a change of more than
    :data:`QUALITY_TOLERANCE` either way is real."""
    change = new - base
    verdict = ("regressed" if change < -QUALITY_TOLERANCE
               else "improved" if change > QUALITY_TOLERANCE else "ok")
    return f"{verdict}({change:+.4f})"


def compare(base_path: Path, new_path: Path) -> int:
    """One row per workload, one verdict per end-to-end metric and per
    quality value; exit code 1 when anything regressed."""
    from e2e_workloads import QUALITY

    config = _load(ROOT / "BENCHMARK.json")
    base, new = _load(base_path), _load(new_path)
    if base["seed"] != new["seed"]:
        print(f"warning: seeds differ ({base['seed']} vs {new['seed']}); "
              f"quality is only comparable at one seed", file=sys.stderr)
    regressed = False
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        old, fresh = base["workloads"][workload], new["workloads"][workload]
        before, after = old.get("end_to_end"), fresh.get("end_to_end")
        if before is None or after is None:
            continue
        cells = []
        for metric in config["end_to_end"]:
            name = metric["name"]
            if name in before and name in after:
                cells.append(f"{name}=" + _verdict(
                    before[name], after[name], metric["better"],
                    metric["bound"]))
            else:
                cells.append(f"{name}=missing")
        cells += [f"{name}=" + _quality_verdict(old["quality"][name],
                                                fresh["quality"][name])
                  for name in QUALITY]
        regressed |= any("=regressed" in cell for cell in cells)
        print(f"{workload:<14s} " + " ".join(cells))
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time budget: as many repeats as fit it at the "
                             "workload's usual speed (at least two, or one "
                             "traced pair); overrides --repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats (traced: untraced/traced pairs) "
                             "without a --seconds budget")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path,
                        help="merge this run into a results file")
    parser.add_argument("--pin-quality", action="store_true",
                        help="record this run's quality as the reference "
                             "for its workload and seed in quality.json")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        print(json.dumps(_child(json.loads(args.child))))
        return 0
    if args.compare:
        return compare(*args.compare)

    from e2e_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.smoke:
        args.repeats, args.seconds = 1, 0.0
    # floors are stated for the full sizes; tiny smoke models sit near chance
    floor = 0.0 if args.smoke else _floor(args.workload)
    try:
        report, detail = _measure(args, floor)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_human(args, report, detail)
    if args.out:
        _record(args.out, args, report, detail["quality"])
    if args.pin_quality and not args.smoke:
        _pin_quality(args, detail["results"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
