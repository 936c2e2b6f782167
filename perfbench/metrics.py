"""Names, units and directions of every metric, and the per-layer arithmetic.

BENCHMARK.json lists the same metrics; the self-test checks that it does.
"""

from __future__ import annotations

from tracing import COUNTED, SPANNED

# (name, unit, better)
END_TO_END = (
    ("op_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PROPAGATE = "dynamics.propagate_ensemble"
RESIDUAL = "guidance.continuity_residual"
KS = "analysis.ks_statistic"

# (name, unit, better, reason it is missing when nothing was measured)
DERIVED = (
    (f"{PROPAGATE}.traj_steps_per_s", "1/s", "higher", "no fixed-step (rk4) propagation"),
    (f"{PROPAGATE}.traj_per_s", "1/s", "higher", "no propagate_ensemble call"),
    (f"{PROPAGATE}.peak_alloc_mb", "MB", "lower", "no propagate_ensemble call"),
    (f"{PROPAGATE}.speedup_w2", "x", "higher", "taken on equilibrium's input only"),
    (f"{RESIDUAL}.points_per_s", "1/s", "higher", "no continuity_residual call"),
    (f"{RESIDUAL}.peak_alloc_mb", "MB", "lower", "no continuity_residual call"),
    (f"{KS}.samples_per_s", "1/s", "higher", "no ks_statistic call"),
    ("cli.write_csv.bytes", "bytes", "lower", "no CSV written"),
    ("trace.overhead_frac", "frac", "lower", "no untraced operation"),
)

PER_LAYER = tuple(
    metric
    for name in SPANNED
    for metric in (
        (f"{name}.busy_s", "s", "lower"),
        (f"{name}.self_s", "s", "lower"),
        (f"{name}.calls", "count", "lower"),
    )
) + tuple((f"{name}.calls", "count", "lower") for name in COUNTED) + tuple(
    (name, unit, better) for name, unit, better, _ in DERIVED
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def counts(trace: dict) -> dict:
    """Everything in a trace summary that must repeat exactly between runs."""
    return {"calls": trace["calls"], "work": trace["work"]}


def layer_metrics(timed: dict, memory: dict, overhead_frac: float, speedup_w2: float | None):
    """Per-layer metrics from two traced operations of one workload.

    `timed` and `memory` are trace summaries; times come from `timed`, whose
    process ran without tracemalloc, and allocation peaks from `memory`.
    Returns (metrics, missing): a metric with nothing to measure on this
    workload is reported as 0 and named in `missing` with the reason.
    """
    times = timed["times"]
    metrics = {}
    for name in SPANNED:
        busy, self_time = times.get(name, (0.0, 0.0))
        metrics[f"{name}.busy_s"] = busy
        metrics[f"{name}.self_s"] = self_time
    for name in SPANNED + COUNTED:
        metrics[f"{name}.calls"] = timed["calls"].get(name, 0)

    def rate(name, key):
        work = timed["work"].get(name, {}).get(key)
        busy = times.get(name, (0.0, 0.0))[0]
        return work / busy if work and busy > 0.0 else None

    def peak_mb(name):
        return memory["alloc_peak"][name] / 2**20 if name in memory["alloc_peak"] else None

    values = {
        f"{PROPAGATE}.traj_steps_per_s": rate(PROPAGATE, "traj_steps"),
        f"{PROPAGATE}.traj_per_s": rate(PROPAGATE, "traj"),
        f"{PROPAGATE}.peak_alloc_mb": peak_mb(PROPAGATE),
        f"{PROPAGATE}.speedup_w2": speedup_w2,
        f"{RESIDUAL}.points_per_s": rate(RESIDUAL, "points"),
        f"{RESIDUAL}.peak_alloc_mb": peak_mb(RESIDUAL),
        f"{KS}.samples_per_s": rate(KS, "samples"),
        "cli.write_csv.bytes": timed["work"].get("cli.write_csv", {}).get("bytes"),
        "trace.overhead_frac": overhead_frac,
    }
    missing = {}
    for name, _, _, reason in DERIVED:
        if values[name] is None:
            missing[name] = reason
        metrics[name] = 0 if values[name] is None else values[name]
    return metrics, missing
