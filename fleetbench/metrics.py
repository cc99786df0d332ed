"""The benchmark's metric catalogue — the single source ``BENCHMARK.json``
is checked against.

End-to-end metrics are measured with tracing off and printed for every
workload (see README.md for what each one means on each workload).
Per-layer metrics come from the separate traced run; a layer a workload
never enters reports 0 there.
"""

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: (name, unit, better, bound)
END_TO_END = (
    ("throughput_mb_s", "MB/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit)
PER_LAYER = (
    # serve.server: admission and window scheduling on the submit thread
    ("serve.submit.calls", "count"),
    ("serve.submit.self_ms", "ms"),
    ("serve.submit.p99_us", "us"),
    ("serve.window_wait_p50_ms", "ms"),
    ("serve.window_wait_p99_ms", "ms"),
    # serve.cost / serve.scheduler / serve.packing
    ("serve.cost.predict.ms", "ms"),
    ("serve.scheduler.order.ms", "ms"),
    ("serve.packing.pack.ms", "ms"),
    ("serve.packing.fill_ratio", "ratio"),
    ("serve.sim_makespan_vcycles", "vcycles"),
    # serve.cache
    ("serve.cache.entry.calls", "count"),
    ("serve.cache.entry.ms", "ms"),
    ("serve.cache.entry.device_share", "ratio"),
    # serve.device
    ("serve.device.batches", "count"),
    ("serve.device.execute.self_ms", "ms"),
    ("serve.device.busy_share", "ratio"),
    ("serve.device.queue_wait_p50_ms", "ms"),
    ("serve.device.queue_wait_p99_ms", "ms"),
    # interp.batch
    ("interp.batch.run.calls", "count"),
    ("interp.batch.run.ms", "ms"),
    ("interp.batch.lanes_mean", "count"),
    ("interp.batch.tokens", "count"),
    ("interp.batch.tokens_per_s", "1/s"),
    ("interp.batch.waste_fraction", "ratio"),
    # interp.cc / interp.compile per-stream engines
    ("interp.cc.run.calls", "count"),
    ("interp.cc.run.ms", "ms"),
    ("interp.compiled.run.calls", "count"),
    ("interp.compiled.run.ms", "ms"),
    # setup builders
    ("setup.fast_engine_for.ms", "ms"),
    ("setup.cc_engine_for.ms", "ms"),
    ("setup.batch_engine_for.ms", "ms"),
    ("setup.certificate_for.ms", "ms"),
    ("setup.cost_calibrate.ms", "ms"),
    # system / memory / compiler
    ("system.evaluate_fleet_app.self_ms", "ms"),
    ("system.profile.ms", "ms"),
    ("memory.simulate_channels.calls", "count"),
    ("memory.simulate_channels.ms", "ms"),
    ("memory.sim_cycles_per_s", "1/s"),
    ("compiler.compile_unit.ms", "ms"),
    # baselines.cpu / isa.scalar
    ("baselines.cpu.self_ms", "ms"),
    ("isa.scalar.run.ms", "ms"),
    ("isa.scalar.steps", "count"),
    ("isa.scalar.steps_per_s", "1/s"),
    # baselines.gpu / isa.simt
    ("baselines.gpu.self_ms", "ms"),
    ("isa.simt.run.calls", "count"),
    ("isa.simt.run.ms", "ms"),
    ("isa.simt.warp_issues", "count"),
    ("isa.simt.lane_steps", "count"),
    ("isa.simt.lane_steps_per_s", "1/s"),
    # the benchmark itself
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

WORKLOADS = (
    ("serve_small_jobs",
     "4-app mix of 16-1500 B streams, open loop then burst: per-job and "
     "per-batch fixed costs (cache lookup, windowing) dominate"),
    ("serve_large_streams",
     "5 apps, 32-256 KiB streams back to back: per-byte cost of the batch "
     "kernel and its marshalling dominates"),
    ("paper_figures",
     "in-process `python -m repro.figures all --fast`: no serve code; the "
     "GPU SIMT baseline dominates"),
)


def percentile(values, pct):
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def benchmark_json():
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "fleetbench/run.py"],
        "paths": ["fleetbench"],
        "run_seconds": 16,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": _better(n)}
            for n, u in PER_LAYER
        ],
    }


def _better(name):
    higher = ("_per_s", "fill_ratio", "busy_share", "lanes_mean")
    return "higher" if name.endswith(higher) else "lower"
