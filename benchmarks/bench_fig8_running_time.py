"""Figure 8: training time comparison of the 12 approaches (V1).

Timing comes from the telemetry each ``fit`` records (``TrainingLog.
epoch_seconds``, ``train_seconds`` and ``peak_rss_bytes``, populated by
the ``repro.obs`` spans) rather than re-timing the runs externally, so
the numbers match what ``repro obs-report`` shows for a traced run.
"train s" sums the epochs; "fit s" is the whole ``fit``, which adds the
set-up (literal preprocessing included) and validation.
"""

from _common import APPROACH_ORDER, report, trained


def bench_fig8_running_time(benchmark):
    def run():
        return {
            name: trained(name, "EN-FR", "V1").log
            for name in APPROACH_ORDER
        }

    logs = benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = {name: sum(log.epoch_seconds) or log.train_seconds
               for name, log in logs.items()}

    rows = [f"{'approach':9s} {'train s':>8s} {'s/epoch':>8s} "
            f"{'fit s':>8s} {'peak MB':>8s}  bar"]
    peak = max(seconds.values())
    for name in APPROACH_ORDER:
        log = logs[name]
        per_epoch = (seconds[name] / len(log.epoch_seconds)
                     if log.epoch_seconds else 0.0)
        rss_mb = log.peak_rss_bytes / 1024 / 1024
        bar = "#" * max(1, int(40 * seconds[name] / peak))
        rows.append(f"{name:9s} {seconds[name]:8.2f} {per_epoch:8.3f} "
                    f"{log.train_seconds:8.2f} {rss_mb:8.0f}  {bar}")
    rows.append("")
    rows.append("paper: BootEA and RSN4EA are the slowest (truncated sampling +")
    rows.append("bootstrapping; multi-hop paths); MTransE and GCNAlign the fastest")
    report("Figure 8 - running time (EN-FR V1)", rows, "fig8.txt")

    for name, log in logs.items():
        assert len(log.epoch_seconds) == log.epochs_run, \
            f"{name}: epoch_seconds not populated by fit()"
    cheap = min(seconds["MTransE"], seconds["GCNAlign"])
    assert seconds["RSN4EA"] > cheap, "path-based training should cost more"
    assert seconds["BootEA"] > seconds["MTransE"]
