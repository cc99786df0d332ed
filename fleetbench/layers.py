"""Per-layer metrics from a traced run's spans.

Every metric of :data:`metrics.PER_LAYER` is computed for every
workload; a layer the workload never calls reports 0. Names ending in
``.ms`` are inclusive times, ``.self_ms`` exclude the time covered by
child spans (see :func:`tracing.self_times`).
"""

from metrics import PER_LAYER, percentile
from tracing import Summary


def _per_s(count, ms):
    return count / (ms / 1e3) if ms else 0.0


def common_layers(summary):
    """The metrics every workload computes the same way."""
    s = summary
    batch_ms = s.ms("interp.batch.run")
    batch_calls = s.count("interp.batch.run")
    tokens = s.arg_sum("interp.batch.run", "tokens")
    sim_ms = s.ms("memory.simulate_channels")
    scalar_ms = s.ms("isa.scalar.run")
    scalar_steps = s.arg_sum("isa.scalar.run", "steps")
    simt_ms = s.ms("isa.simt.run")
    lane_steps = s.arg_sum("isa.simt.run", "lane_steps")
    submit_us = [span.duration / 1e3 for span in s.named("serve.submit")]
    return {
        "serve.submit.calls": s.count("serve.submit"),
        "serve.submit.self_ms": s.self_ms("serve.submit"),
        "serve.submit.p99_us": percentile(submit_us, 99),
        "serve.cost.predict.ms": s.ms("serve.cost.predict"),
        "serve.scheduler.order.ms": s.ms("serve.scheduler.order"),
        "serve.packing.pack.ms": s.ms("serve.packing.pack"),
        "serve.cache.entry.calls": s.count("serve.cache.entry"),
        "serve.cache.entry.ms": s.ms("serve.cache.entry"),
        "serve.device.batches": s.count("serve.device.execute"),
        "serve.device.execute.self_ms": s.self_ms("serve.device.execute"),
        "interp.batch.run.calls": batch_calls,
        "interp.batch.run.ms": batch_ms,
        "interp.batch.lanes_mean": (
            s.arg_sum("interp.batch.run", "lanes") / batch_calls
            if batch_calls else 0.0
        ),
        "interp.batch.tokens": tokens,
        "interp.batch.tokens_per_s": _per_s(tokens, batch_ms),
        "interp.cc.run.calls": s.count("interp.cc.run"),
        "interp.cc.run.ms": s.ms("interp.cc.run"),
        "interp.compiled.run.calls": s.count("interp.compiled.run"),
        "interp.compiled.run.ms": s.ms("interp.compiled.run"),
        "setup.fast_engine_for.ms": s.ms("setup.fast_engine_for"),
        "setup.cc_engine_for.ms": s.ms("setup.cc_engine_for"),
        "setup.batch_engine_for.ms": s.ms("setup.batch_engine_for"),
        "setup.certificate_for.ms": s.ms("setup.certificate_for"),
        "setup.cost_calibrate.ms": s.ms("setup.cost_calibrate"),
        "system.evaluate_fleet_app.self_ms":
            s.self_ms("system.evaluate_fleet_app"),
        "system.profile.ms": s.ms("system.profile"),
        "memory.simulate_channels.calls":
            s.count("memory.simulate_channels"),
        "memory.simulate_channels.ms": sim_ms,
        "memory.sim_cycles_per_s": _per_s(
            s.arg_sum("memory.simulate_channels", "cycles"), sim_ms
        ),
        "compiler.compile_unit.ms": s.ms("compiler.compile_unit"),
        "baselines.cpu.self_ms": s.self_ms("baselines.cpu"),
        "isa.scalar.run.ms": scalar_ms,
        "isa.scalar.steps": scalar_steps,
        "isa.scalar.steps_per_s": _per_s(scalar_steps, scalar_ms),
        "baselines.gpu.self_ms": s.self_ms("baselines.gpu"),
        "isa.simt.run.calls": s.count("isa.simt.run"),
        "isa.simt.run.ms": simt_ms,
        "isa.simt.warp_issues": s.arg_sum("isa.simt.run", "warp_issues"),
        "isa.simt.lane_steps": lane_steps,
        "isa.simt.lane_steps_per_s": _per_s(lane_steps, simt_ms),
    }


def complete(values):
    """Every per-layer metric, zero-filled, in catalogue order."""
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


def serve_layers(tracer, report, dues, window_ns, devices, record):
    """Per-layer metrics of a traced serve run.

    ``dues`` maps server job ids to the due time (``perf_counter_ns``)
    of the phase that times latency; ``window_ns`` is the wall time from
    the end of setup to the final drain."""
    summary = Summary(tracer.spans)
    values = common_layers(summary)

    executes = summary.named("serve.device.execute")
    execute_ns = sum(span.duration for span in executes)
    entry_in_device = sum(
        span.duration for span in summary.named("serve.cache.entry")
        if span.parent is not None
        and span.parent.name == "serve.device.execute"
    )
    enqueued = {}
    first_enqueue = {}
    for span in summary.named("serve.device.enqueue"):
        args = span.args or {}
        enqueued[args.get("batch")] = span.start
        for job in args.get("jobs", ()):
            if job not in first_enqueue or span.start < first_enqueue[job]:
                first_enqueue[job] = span.start
    queue_ms = [
        (span.start - enqueued[span.args["batch"]]) / 1e6
        for span in executes
        if span.args and span.args.get("batch") in enqueued
    ]
    window_ms = [
        (first_enqueue[job] - due) / 1e6
        for job, due in dues.items() if job in first_enqueue
    ]
    batches = report["batches"]
    slots = sum(row["slots"] for row in batches)
    lane_cycles = sum(
        row["batch_engine"]["lanes"] * row["batch_engine"]["cycles"]
        for row in batches if "batch_engine" in row
    )
    busy_lane_cycles = sum(
        row["batch_engine"]["busy_lane_cycles"]
        for row in batches if "batch_engine" in row
    )
    values.update({
        "serve.window_wait_p50_ms": percentile(window_ms, 50),
        "serve.window_wait_p99_ms": percentile(window_ms, 99),
        "serve.packing.fill_ratio": (
            sum(row["streams"] for row in batches) / slots if slots else 0.0
        ),
        "serve.sim_makespan_vcycles": report["totals"]["makespan"],
        "serve.cache.entry.device_share": (
            entry_in_device / execute_ns if execute_ns else 0.0
        ),
        "serve.device.busy_share": (
            execute_ns / (devices * window_ns) if window_ns else 0.0
        ),
        "serve.device.queue_wait_p50_ms": percentile(queue_ms, 50),
        "serve.device.queue_wait_p99_ms": percentile(queue_ms, 99),
        "interp.batch.waste_fraction": (
            1.0 - busy_lane_cycles / lane_cycles if lane_cycles else 0.0
        ),
    })
    lateness = record.get("lateness_ms", {})
    values["loadgen.late_p99_ms"] = lateness.get("p99", 0.0)
    values["loadgen.late_max_ms"] = lateness.get("max", 0.0)
    return complete(values)


def figures_layers(tracer):
    return complete(common_layers(Summary(tracer.spans)))
