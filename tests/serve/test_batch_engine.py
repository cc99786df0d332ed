"""The serving runtime's SIMD batch path: identical results to the
per-stream loop, occupancy stats in the report, and the config switch."""

import pytest

from repro.interp import numpy_available
from repro.serve import (
    FleetServer,
    ServeConfig,
    format_serve_report,
    validate_serve_report,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy unavailable"
)


def _streams(lengths, fill=0x41):
    return [bytes([fill + i % 7]) * length
            for i, length in enumerate(lengths)]


def _run(batch_engine):
    server = FleetServer(config=ServeConfig(
        devices=1, pu_slots=4, window_streams=8,
        batch_engine=batch_engine,
    ))
    server.start()
    future = server.submit("identity", _streams((64, 8, 0, 200, 16)))
    server.drain()
    result = future.result(timeout=30)
    report = validate_serve_report(server.report())
    server.stop()
    return result, report


@requires_numpy
def test_simd_path_matches_per_stream_loop():
    simd_result, simd_report = _run(batch_engine=True)
    loop_result, loop_report = _run(batch_engine=False)
    assert simd_result.outputs == loop_result.outputs
    assert [j["device_vcycles"] for j in simd_report["jobs"]] == \
        [j["device_vcycles"] for j in loop_report["jobs"]]
    assert simd_report["totals"]["makespan"] == \
        loop_report["totals"]["makespan"]


@requires_numpy
def test_simd_batches_carry_occupancy_stats():
    _, report = _run(batch_engine=True)
    assert report["config"]["batch_engine"] is True
    simd = [b for b in report["batches"] if "batch_engine" in b]
    assert simd, "no batch ran on the SIMD path"
    for row in simd:
        stats = row["batch_engine"]
        assert 0 < stats["lanes"] <= row["streams"]
        assert 0.0 <= stats["waste_fraction"] <= 1.0
    assert "identity" in report["cache"]["batched"]
    assert "batch engine:" in format_serve_report(report)


@requires_numpy
def test_batch_engine_off_runs_per_stream():
    _, report = _run(batch_engine=False)
    assert report["config"]["batch_engine"] is False
    assert not any("batch_engine" in b for b in report["batches"])


# ---------------------------------------------------------------------------
# Hot path: no per-lookup fingerprinting, no per-token traces
# ---------------------------------------------------------------------------

MIX = ("regex", "bloom_filter", "json_parsing", "integer_coding")


def _mix_jobs(count, seed=7):
    import random

    rng = random.Random(seed)
    return [
        (MIX[i % len(MIX)],
         [bytes(rng.randrange(256) for _ in range(rng.randrange(16, 400)))
          for _ in range(rng.randrange(1, 4))])
        for i in range(count)
    ]


def _serve_mix(server, jobs):
    futures = [server.submit(app, streams) for app, streams in jobs]
    server.drain()
    return [f.result(timeout=60) for f in futures]


def _mix_server():
    from repro.serve import catalog_apps

    apps = {name: app for name, app in catalog_apps().items()
            if name in MIX}
    return FleetServer(apps, config=ServeConfig())


@requires_numpy
def test_serve_fingerprints_each_program_once(monkeypatch):
    import repro.lint.certificate as certificate

    calls = []
    original = certificate.program_fingerprint

    def counting(program):
        calls.append(program.name)
        return original(program)

    monkeypatch.setattr(certificate, "program_fingerprint", counting)
    with _mix_server() as server:
        results = _serve_mix(server, _mix_jobs(200))
        report = server.report()
    assert len(results) == 200
    stats = report["cache"]
    assert stats["misses"] == len(MIX)
    # Every batch looks its app up at least once.
    assert stats["hits"] >= report["totals"]["batches"] > len(MIX)
    assert len(calls) <= len(MIX)
    assert len(set(calls)) == len(calls)


@requires_numpy
def test_batched_serve_builds_no_stream_traces(monkeypatch):
    from repro.interp.trace import StreamTrace

    with _mix_server() as server:
        # Warm up: compile every app and calibrate its cost model (the
        # calibration runs per-stream simulators, which do keep traces).
        _serve_mix(server, [(app, [b"warm"]) for app in MIX])
        built = []
        original = StreamTrace.__init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(StreamTrace, "__init__", counting)
        results = _serve_mix(server, _mix_jobs(40, seed=8))
        report = validate_serve_report(server.report())
    assert len(results) == 40
    assert all(b.get("batch_engine") for b in report["batches"])
    assert built == []


def _count_fingerprints(monkeypatch):
    import repro.lint.certificate as certificate

    calls = []
    original = certificate.program_fingerprint

    def counting(program):
        calls.append(program.name)
        return original(program)

    monkeypatch.setattr(certificate, "program_fingerprint", counting)
    return calls


def test_memory_sim_reuses_the_cached_program(monkeypatch):
    # Memory attribution runs each batch on the cache entry's sealed
    # program, whose fingerprint is memoized: one call for six batches.
    calls = _count_fingerprints(monkeypatch)
    config = ServeConfig(devices=1, pu_slots=2, window_streams=2,
                         memory_sim=True)
    with FleetServer(config=config) as server:
        futures = [server.submit("identity", _streams((24, 8)))
                   for _ in range(6)]
        server.drain()
        outputs = [f.result(timeout=60).outputs for f in futures]
        report = validate_serve_report(server.report())
    assert [[bytes(o) for o in out] for out in outputs] == \
        [_streams((24, 8))] * 6
    assert report["totals"]["batches"] == 6
    assert all(b["attribution"] for b in report["batches"])
    assert calls == ["identity"]


@requires_numpy
def test_warm_serve_builds_one_native_module_per_app(monkeypatch):
    # The per-stream cc engine and the batch tier's lanes share one
    # kernel build per program.
    import sys

    from repro.interp import cc_available, native

    if not cc_available():
        pytest.skip("no C toolchain")
    loads = []
    original = native._cc_load

    def counting(cdef, source, tag):
        loads.append(tag)
        return original(cdef, source, tag)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and \
                getattr(module, "_cc_load", None) is original:
            monkeypatch.setattr(module, "_cc_load", counting)
    with _mix_server() as server:
        results = _serve_mix(server, _mix_jobs(40, seed=9))
        report = validate_serve_report(server.report())
    assert len(results) == 40
    assert sorted(report["cache"]["native"]) == sorted(MIX)
    assert sorted(report["cache"]["batched"]) == sorted(MIX)
    assert len(loads) == len(set(loads)) == len(MIX)
