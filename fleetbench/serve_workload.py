"""The two serve workloads, run inside one worker process.

One long-lived ``FleetServer`` with the default ``ServeConfig()``; one
load-generator thread (this one). Phases, in order:

1. setup — build every app's cache entry and calibrate its cost model;
2. warm-up — the first jobs of the list, then ``drain()``;
3. the phases of :func:`workloads.phases`, each replaying the seeded
   job list:

   * open-loop segment (``serve_small_jobs`` only) — the list at a fixed
     rate in reference-host time (below); each job is timed from its
     *due* send time to the first poll that sees ``JobFuture.done()``
     true;
   * burst round — the list submitted back to back, then ``drain()``;
     throughput is bytes over first ``submit`` to ``drain()`` returning.
     ``serve_large_streams`` also polls ``done()`` during the burst,
     timing each job from the round's start (all jobs are due at once).

A :class:`hostspeed.HostSpeed` probe runs from the warm-up on. Each
burst round's wall time (and, on ``serve_large_streams``, each of its
job latencies) is divided by the host's slowdown during that round;
``wall_s`` is the median normalised round and ``throughput_mb_s`` the
list's bytes over it. An open-loop segment is dilated instead: with
``s`` the slowdown over the 2 s before it, it sends at
``SMALL_RATE / s`` and its latencies are divided by ``s``. On a host
``s`` times slower a server sent ``s`` times fewer jobs per second
passes through the same states ``s`` times slower, so the result reads
as the segment would at ``SMALL_RATE`` on the reference host — the wait
for the 64-stream window to fill included, which a fixed rate would
leave undivided. Latency is the mean over segments of each segment's
p50 and p99: a segment's p99 is either clean or set by a pause (the
server keeps every job, so its full garbage collections grow with the
run), and the mean moves smoothly with how often pauses land where a
median would jump between the two.

Outputs are checked after the server stops, against a sequential
per-stream reference on the scalar native engine (``cc``; the compiled
Python engine when no toolchain exists) built from fresh units — a
different tier from the batch kernel the server runs.
"""

import contextlib
import functools
import hashlib
import statistics
import time
from array import array

from repro.interp import (
    CcSimulator,
    CompiledSimulator,
    cc_engine_for,
    fast_engine_for,
    native_enabled,
)
from repro.serve import FleetServer, ServeConfig, ServerOverloaded
from repro.serve.apps import catalog_apps

from hostspeed import HostSpeed
from layers import serve_layers
from metrics import percentile
from workloads import (
    LARGE_APPS,
    LARGE_ROUND_BYTES,
    SMALL_APPS,
    SMALL_JOBS,
    SMALL_RATE,
    job_bytes,
    large_jobs,
    phases,
    small_jobs,
)

#: Polling period of the load generator while it waits (seconds). The
#: achieved resolution (longest gap between two polls) is reported.
POLL_S = 0.0005
#: Jobs of the list submitted (and drained) before any timing.
WARMUP_JOBS = {"serve_small_jobs": 200, "serve_large_streams": 5}


def digest(stream_outputs):
    """One sha256 over a job's per-stream outputs. A single string per
    job keeps what the benchmark holds out of the garbage collector's
    scans, which the server's own retained jobs already lengthen."""
    job = hashlib.sha256()
    for outputs in stream_outputs:
        try:
            data = array("Q", outputs).tobytes()
        except OverflowError:
            data = repr(list(outputs)).encode()
        job.update(len(data).to_bytes(8, "little") + data)
    return job.hexdigest()


class Outcomes:
    """Per-submission results, reduced to digests right after each
    phase so large outputs are not held."""

    def __init__(self):
        self.submissions = []  # (job index, digest or None, vcycles)
        self.errors = []

    def collect(self, pending):
        for index, future in pending:
            try:
                result = future.result()
            except Exception as error:  # raised jobs are failures
                self.errors.append(f"job {index}: {error!r}")
                self.submissions.append((index, None, None))
                continue
            self.submissions.append((
                index, digest(result.outputs),
                result.report["device_vcycles"],
            ))

    def refused(self, index, error):
        self.errors.append(f"job {index} refused: {error!r}")
        self.submissions.append((index, None, None))


class Poller:
    """Completion observer over public ``JobFuture.done()`` only."""

    def __init__(self):
        self.pending = []  # (index, future, due)
        self.latencies = []
        self.last = None
        self.max_gap = 0.0

    def add(self, index, future, due):
        self.pending.append((index, future, due))

    def poll(self):
        now = time.perf_counter()
        if self.last is not None:
            self.max_gap = max(self.max_gap, now - self.last)
        self.last = now
        still = []
        for item in self.pending:
            if item[1].done():
                self.latencies.append(now - item[2])
            else:
                still.append(item)
        self.pending = still

    def wait_all(self):
        while self.pending:
            self.poll()
            time.sleep(POLL_S)


def _submit(server, outcomes, index, app, streams):
    try:
        return server.submit(app, streams)
    except ServerOverloaded as error:
        outcomes.refused(index, error)
        return None


def _no_span(name):
    return contextlib.nullcontext()


def build_server(workload, span=_no_span):
    """The workload's server with every app's cache entry built and its
    cost model calibrated — what ``setup_s`` times."""
    names = SMALL_APPS if workload == "serve_small_jobs" else LARGE_APPS
    apps = {k: v for k, v in catalog_apps().items() if k in names}
    server = FleetServer(apps, ServeConfig())
    for app in names:
        server.cache.entry(app)
        with span("setup.cost_calibrate"):
            server.cost_model.coefficients(app)
    return server


def run(workload, seed, seconds, tracer=None, size=None, setup_clock=None):
    """Run ``workload`` once. ``size`` overrides the job list size (jobs
    for small jobs, bytes for large streams — the tests shrink it);
    ``setup_clock`` (a ``hostspeed.SetupClock`` started with the
    process) is stopped once set up, for a ``setup_s`` sample."""
    small = workload == "serve_small_jobs"
    span = tracer.span if tracer is not None else _no_span
    outcomes = Outcomes()
    schedule = phases(workload, seconds)
    dues = {}  # server job id -> due perf_counter_ns (latency phases)
    lateness = []
    rounds = []  # (start, wall) of every burst round
    dilations = []  # slowdown each open-loop segment is dilated by
    latency_polls = []  # one Poller per latency phase

    if tracer is not None:
        tracer.install()
    try:
        with span("bench.setup"):
            server = build_server(workload, span)
        setup_s = None if setup_clock is None else setup_clock.stop()
        server.start()
        if small:
            jobs = small_jobs(seed, size or SMALL_JOBS)
        else:
            jobs = large_jobs(seed, size or LARGE_ROUND_BYTES)
        record = {"jobs": len(jobs), "job_bytes": job_bytes(jobs),
                  "phases": schedule}
        window_start = time.perf_counter_ns()
        with HostSpeed() as host:
            with span("bench.warmup"):
                pending = []
                for index, (app, streams) in enumerate(
                    jobs[:WARMUP_JOBS[workload]]
                ):
                    future = _submit(server, outcomes, index, app, streams)
                    if future is not None:
                        pending.append((index, future))
                server.drain()
            outcomes.collect(pending)
            for name in schedule:
                with span(f"bench.{name}"):
                    if name == "open_loop":
                        now = time.perf_counter()
                        dilations.append(host.slowdown(now - 2.0, now))
                        pending, late, poller = _open_loop(
                            server, jobs, outcomes, dues,
                            SMALL_RATE / dilations[-1],
                        )
                        lateness.extend(late)
                    else:
                        start, wall, pending, poller = _burst(
                            server, jobs, outcomes, dues, poll=not small,
                        )
                        rounds.append((start, wall))
                outcomes.collect(pending)
                # Small jobs time latency in the open loop, large
                # streams in the bursts.
                if (name == "open_loop") == small:
                    latency_polls.append(poller)
        server.drain()
        window_end = time.perf_counter_ns()
        report = server.report()
        server.stop()
    finally:
        if tracer is not None:
            tracer.restore()

    apps = {name: server.cache.app(name) for name in server.cache.app_names()}
    reference, engine = _reference(apps, jobs)
    attempted = len(outcomes.submissions)
    failed = 0
    for index, job_digest, vcycles in outcomes.submissions:
        if (job_digest, vcycles) != reference[index]:
            failed += 1
            if job_digest is not None:
                outcomes.errors.append(f"job {index}: output mismatch")
    slowdowns = [host.slowdown(start, start + wall)
                 for start, wall in rounds]
    walls = [wall / factor for (_, wall), factor in zip(rounds, slowdowns)]
    factors = dilations if small else slowdowns
    p50s = [percentile(p.latencies, 50) / f
            for p, f in zip(latency_polls, factors)]
    p99s = [percentile(p.latencies, 99) / f
            for p, f in zip(latency_polls, factors)]
    statuses = report["totals"]["statuses"]
    if statuses.get("done", 0) != attempted:
        outcomes.errors.append(f"report statuses {statuses}")
    record.update({
        "burst_walls_raw_s": [wall for _, wall in rounds],
        "burst_slowdowns": slowdowns,
        "host_speed": host.summary(),
        "latency_p50s_ms": [v * 1e3 for v in p50s],
        "latency_p99s_ms": [v * 1e3 for v in p99s],
        "latency_samples": sum(len(p.latencies) for p in latency_polls),
        "poll_gap_max_ms": max(p.max_gap for p in latency_polls) * 1e3,
        "reference_engine": engine,
        "sim_makespan_vcycles": report["totals"]["makespan"],
        "errors": outcomes.errors[:20],
    })
    if small:
        record["open_loop_rate_jobs_s"] = SMALL_RATE
        record["open_loop_dilations"] = dilations
        record["lateness_ms"] = {
            "p99": percentile(lateness, 99) * 1e3,
            "max": max(lateness) * 1e3,
        }
    wall = statistics.median(walls)
    # Segment latencies are averaged (see the module docstring); burst
    # latencies are normalised per round like the walls, so their
    # median is taken like the walls'.
    latency = statistics.mean if small else statistics.median
    result = {
        "e2e": {
            "throughput_mb_s": record["job_bytes"] / wall / 1e6,
            "wall_s": wall,
            "latency_p50_ms": latency(p50s) * 1e3,
            "latency_p99_ms": latency(p99s) * 1e3,
        },
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not outcomes.errors,
        "record": record,
        "setup_s": setup_s,
    }
    if tracer is not None:
        result["layers"] = serve_layers(
            tracer, report, dues, window_end - window_start,
            len(server.devices), record,
        )
    return result


def _open_loop(server, jobs, outcomes, dues, rate):
    """Submit every job at ``rate`` jobs/s on a fixed schedule; returns
    the submissions, each send's lateness (s) and the poller."""
    poller = Poller()
    pending, lateness = [], []
    start = time.perf_counter() + 0.01
    for index, (app, streams) in enumerate(jobs):
        due = start + index / rate
        while True:
            poller.poll()
            now = time.perf_counter()
            if now >= due:
                break
            time.sleep(min(POLL_S, due - now))
        lateness.append(time.perf_counter() - due)
        future = _submit(server, outcomes, index, app, streams)
        if future is not None:
            dues[future.job_id] = int(due * 1e9)
            poller.add(index, future, due)
            pending.append((index, future))
    server.flush()
    poller.wait_all()
    return pending, lateness, poller


def _burst(server, jobs, outcomes, dues, poll):
    """One burst round: every job back to back, then ``drain()``.
    Returns (start, wall seconds, submissions, poller)."""
    poller = Poller()
    pending = []
    start = time.perf_counter()
    for index, (app, streams) in enumerate(jobs):
        future = _submit(server, outcomes, index, app, streams)
        if future is not None:
            pending.append((index, future))
            if poll:
                dues[future.job_id] = int(start * 1e9)
                poller.add(index, future, start)
    if poll:
        server.flush()
        poller.wait_all()
    server.drain()
    wall = time.perf_counter() - start
    return start, wall, pending, poller


def _reference(apps, jobs):
    """``{job index: (output digest, total vcycles)}`` from fresh units
    run one stream at a time on the scalar native engine."""
    makers, engines = {}, {}
    reference = {}
    for index, (app, streams) in enumerate(jobs):
        served = apps[app]
        if app not in makers:
            program = served.unit_factory()
            unit = cc_engine_for(program) if native_enabled() else None
            if unit is not None:
                engines[app] = "cc"
                makers[app] = functools.partial(CcSimulator, program,
                                                unit=unit)
            else:
                engines[app] = "compiled"
                makers[app] = functools.partial(
                    CompiledSimulator, program, unit=fast_engine_for(program)
                )
        outputs, vcycles = [], 0
        for stream in streams:
            sim = makers[app]()
            outputs.append(sim.run(list(served.header) + list(stream)))
            vcycles += sim.trace.total_vcycles
        reference[index] = (digest(outputs), vcycles)
    engine = "/".join(sorted(set(engines.values())))
    return reference, engine
