"""The ``paper_figures`` workload: ``python -m repro.figures all --fast``
in-process, checked byte for byte against the committed transcript.

Each repetition clears ``repro.bench.harness._PROFILE_CACHE`` first, so
it pays Fleet profiling as a fresh CLI process does. Repetitions run
until ``--seconds`` have elapsed (at least one; a repetition takes far
longer than the default run length, so runs hold one).

Per-command latency is the wall time of one figure command. The
sub-second commands run :data:`SHORT_REPEATS` extra times per repetition
(checked like the rest), half before the regeneration and half after, so
their samples lie a minute apart; each command reports its median, so a
host stall during one sample does not decide the result.

Every command's time is divided by the host's slowdown while it ran,
as seen on the core running the commands (:class:`hostspeed.HostSpeed`
following this thread); ``wall_s`` is the sum of a regeneration's
normalised command times.
"""

import contextlib
import io
import os
import statistics
import threading
import time

from repro.bench import harness
from repro.bench.catalog import catalog
from repro.figures import main

from hostspeed import HostSpeed
from layers import figures_layers

#: The order ``python -m repro.figures all`` regenerates in.
COMMANDS = ("figure9", "sec73", "sec74", "figure8", "figure7")
#: Extra runs of every command but figure7 per repetition.
SHORT_REPEATS = 2
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "paper_figures_fast.txt")


def golden_sections():
    """The committed transcript split into ``{command: text}``, each
    section including its ``=== name ===`` header."""
    with open(GOLDEN, encoding="utf-8") as handle:
        text = handle.read()
    sections = {}
    for chunk in text.split("\n=== ")[1:]:
        name = chunk.split(" ===", 1)[0]
        sections[name] = "\n=== " + chunk
    return sections


def regenerate(commands=COMMANDS):
    """Run each figure command as ``all --fast`` does; returns
    ``(transcript, {command: (start, seconds)})``."""
    harness._PROFILE_CACHE.clear()
    out = io.StringIO()
    times = {}
    for name in commands:
        out.write(f"\n=== {name} ===\n")
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            main([name, "--fast"])
        times[name] = (start, time.perf_counter() - start)
    return out.getvalue(), times


def check(transcript, commands=COMMANDS):
    """``(rows attempted, rows differing)`` against the golden
    transcript, line by line."""
    sections = golden_sections()
    expected = "".join(sections[name] for name in commands)
    want = expected.splitlines()
    got = transcript.splitlines()
    differing = sum(1 for a, b in zip(want, got) if a != b)
    differing += abs(len(want) - len(got))
    return len(want), differing


def input_bytes():
    """Bytes of catalog input the Figure-7 harness evaluates per
    repetition: Fleet profiling pairs, the same pairs on the CPU
    baseline, and the GPU warp streams (``--fast`` uses 8 lanes)."""
    total = 0
    for spec in catalog().values():
        pairs = sum(len(s) + len(lg) for s, lg in spec.stream_pairs())
        warps = sum(
            sum(len(x) for x in small) + sum(len(x) for x in large)
            for small, large in spec.gpu_warp_pairs(lanes=8)
        )
        total += 2 * pairs + warps
    return total


def setup():
    """Build the catalog: with this module's imports, what ``setup_s``
    times for this workload."""
    catalog()


def run(seconds, tracer=None, commands=COMMANDS,
        short_repeats=SHORT_REPEATS, setup_clock=None):
    """Regenerate the figures; ``setup_clock`` (a
    ``hostspeed.SetupClock`` started with the process) is stopped once
    set up, for a ``setup_s`` sample."""
    setup()
    setup_s = None if setup_clock is None else setup_clock.stop()
    nbytes = input_bytes()
    regenerations = []  # {command: (start, seconds)} per repetition
    samples = {name: [] for name in commands}
    attempted = failed = 0
    short = [name for name in commands if name != "figure7"]

    def checked(names):
        nonlocal attempted, failed
        transcript, times = regenerate(names)
        rows, bad = check(transcript, names)
        attempted += rows
        failed += bad
        for name, value in times.items():
            samples[name].append(value)
        return times

    if tracer is not None:
        tracer.install()
    try:
        with HostSpeed(follow=threading.get_native_id()) as host:
            start = time.perf_counter()
            while (not regenerations
                   or time.perf_counter() - start < seconds):
                for _ in range(short_repeats // 2):
                    checked(short)
                if tracer is not None:
                    with tracer.span("bench.regenerate"):
                        regenerations.append(checked(commands))
                else:
                    regenerations.append(checked(commands))
                for _ in range(short_repeats - short_repeats // 2):
                    checked(short)
    finally:
        if tracer is not None:
            tracer.restore()

    def slowdown(sample):
        begin, duration = sample
        return host.slowdown(begin, begin + duration)

    def normalised(sample):
        return sample[1] / slowdown(sample)

    latencies = [statistics.median(normalised(x) for x in v)
                 for v in samples.values()]
    walls = [sum(normalised(x) for x in times.values())
             for times in regenerations]
    wall = statistics.median(walls)
    result = {
        "e2e": {
            "throughput_mb_s": nbytes / wall / 1e6,
            "wall_s": wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p99_ms": max(latencies) * 1e3,
        },
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "record": {
            "repetitions": len(walls),
            "walls_raw_s": [sum(d for _, d in times.values())
                            for times in regenerations],
            "input_bytes": nbytes,
            "command_seconds_raw": {
                name: [d for _, d in v] for name, v in samples.items()
            },
            "command_slowdowns": {
                name: [slowdown(x) for x in v]
                for name, v in samples.items()
            },
            "host_speed": host.summary(),
        },
        "setup_s": setup_s,
    }
    if tracer is not None:
        result["layers"] = figures_layers(tracer)
    return result
