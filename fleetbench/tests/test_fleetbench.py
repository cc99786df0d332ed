"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest fleetbench/tests -q
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import figures_workload  # noqa: E402
import hostspeed  # noqa: E402
import serve_workload  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, NAME_RE, PER_LAYER, WORKLOADS  # noqa: E402
from metrics import benchmark_json  # noqa: E402


def _fingerprint(jobs):
    digest = hashlib.sha256()
    for app, streams in jobs:
        digest.update(app.encode() + b"\0")
        for stream in streams:
            digest.update(len(stream).to_bytes(4, "little") + stream)
    return digest.hexdigest()


def _shapes(jobs):
    """What every seed shares: apps, stream counts and lengths."""
    return [(app, [len(s) for s in streams]) for app, streams in jobs]


# -- seeded generation ---------------------------------------------------------


def test_small_jobs_repeat_per_seed_and_differ_across_seeds():
    first = workloads.small_jobs(7)
    assert _fingerprint(first) == _fingerprint(workloads.small_jobs(7))
    assert _fingerprint(first) != _fingerprint(workloads.small_jobs(8))
    assert len(first) == workloads.SMALL_JOBS
    assert _shapes(first) == _shapes(workloads.small_jobs(8))
    assert [app for app, _ in first[:4]] == list(workloads.SMALL_APPS)
    for _, streams in first:
        assert 1 <= len(streams) <= 4
        assert all(12 <= len(s) <= workloads.SMALL_HI for s in streams)


def test_large_jobs_repeat_per_seed_and_differ_across_seeds():
    first = workloads.large_jobs(7, 1_000_000)
    again = workloads.large_jobs(7, 1_000_000)
    assert _fingerprint(first) == _fingerprint(again)
    other = workloads.large_jobs(8, 1_000_000)
    assert _fingerprint(first) != _fingerprint(other)
    assert _shapes(first) == _shapes(other)
    per_app = dict.fromkeys(workloads.LARGE_APPS, 0)
    for app, streams in first:
        assert 1 <= len(streams) <= 4
        assert all(0 < len(s) <= workloads.LARGE_HI for s in streams)
        per_app[app] += sum(len(s) for s in streams)
    assert set(per_app.values()) == {200_000}


# -- tracing -------------------------------------------------------------------


def _bindings():
    """Every (owner, attribute) -> object the tracer would patch."""
    import importlib

    found = {}
    for _, module_name, qualname, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            found[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(module, qualname)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.split(".")[0] == "repro":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        found[(mod, attr)] = original
    return found


def test_every_target_is_wrapped_then_restored():
    import repro.bench.harness  # noqa: F401  (binds evaluate_* names)
    import repro.serve  # noqa: F401

    before = _bindings()
    tracer = tracing.Tracer().install()
    try:
        patched = set(tracer.bindings())
        assert patched == set(before)
        for (owner, attr), original in before.items():
            wrapper = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            assert wrapper is not original
            assert wrapper.__wrapped__ is original
        names = {name for name, *_ in tracing.TARGETS}
        assert len(names) == len(tracing.TARGETS)
    finally:
        tracer.restore()
    for (owner, attr), original in before.items():
        current = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        assert current is original
    assert tracer.bindings() == []


def test_failed_install_restores_what_it_patched():
    before = _bindings()
    bogus = tracing.TARGETS[:3] + (
        ("bogus", "repro.serve.server", "FleetServer.no_such_method", None),
    )
    with pytest.raises(KeyError):
        tracing.Tracer().install(bogus)
    assert _bindings() == before


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40
    assert tracing.covered(0, 100, [(-5, 5), (200, 300)]) == 5
    assert tracing.covered(0, 100, []) == 0


def test_self_time_of_synthetic_nested_calls():
    tracer = tracing.Tracer()
    outer = tracing.Span("outer", 0, None, 0)
    outer.end = 100
    inner_a = tracing.Span("inner", 10, outer, 0)
    inner_a.end = 30
    inner_b = tracing.Span("inner", 50, outer, 0)
    inner_b.end = 80
    leaf = tracing.Span("leaf", 55, inner_b, 0)
    leaf.end = 60
    tracer.spans = [outer, inner_a, inner_b, leaf]
    summary = tracing.Summary(tracer.spans)
    assert summary.self_ns["outer"] == 100 - 20 - 30
    assert summary.self_ns["inner"] == 20 + 30 - 5
    assert summary.self_ns["leaf"] == 5
    assert summary.incl["inner"] == 50
    assert summary.count("inner") == 2


def test_wrapped_calls_record_parents_and_self_time():
    tracer = tracing.Tracer()

    def inner(n):
        return sum(range(n))

    wrapped_inner = tracer.wrap("inner", inner)

    def outer(n):
        return wrapped_inner(n) + wrapped_inner(n)

    wrapped_outer = tracer.wrap("outer", outer)
    assert wrapped_outer(10_000) == 2 * sum(range(10_000))
    spans = {s.name: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert all(s.parent is spans["outer"] for s in inners)
    summary = tracing.Summary(tracer.spans)
    assert summary.self_ns["outer"] == (
        spans["outer"].duration - sum(s.duration for s in inners)
    )


def test_perfetto_export_is_a_chrome_trace(tmp_path):
    tracer = tracing.Tracer()
    with tracer.span("phase", job=3):
        with tracer.span("step"):
            pass
    path = tracer.write_perfetto(str(tmp_path / "trace.json"))
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["phase", "step"]
    assert spans[0]["args"]["job"] == 3
    assert spans[1]["args"]["parent"] == "phase"


# -- host-speed normalisation ------------------------------------------------------


def test_slowdown_is_the_mean_of_per_core_medians():
    probe = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    # core 0 at the reference speed, core 1 twice as slow; one outlier
    for i in range(40):
        probe.starts.append(float(i))
        probe.durations.append((i % 2, ref * (1 + i % 2)))
    probe.durations[4] = (0, ref * 50)
    assert probe.slowdown() == pytest.approx(1.5)
    # an interval holding too few samples is widened around its middle
    assert len(probe.samples(20.0, 21.0)) == hostspeed.MIN_SAMPLES
    assert probe.slowdown(20.0, 21.0) == pytest.approx(1.5)


def test_a_following_probe_takes_the_plain_median():
    probe = hostspeed.HostSpeed(follow=1)
    ref = hostspeed.REFERENCE_S
    for i in range(30):
        probe.starts.append(float(i))
        probe.durations.append((i % 3, ref * (2 if i < 20 else 1)))
    assert probe.slowdown() == pytest.approx(2.0)


def test_a_following_probe_samples_the_followed_thread_s_core():
    me = threading.get_native_id()
    assert hostspeed.last_cpu(me) in hostspeed._cpus()
    with hostspeed.HostSpeed(follow=me, period=0.001) as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass  # keep this thread on a core
    assert probe.samples() and probe.slowdown() > 0


def test_probe_samples_every_core_and_stops():
    with hostspeed.HostSpeed(period=0.001) as probe:
        deadline = time.perf_counter() + 5
        while (len(probe.starts) < 4 * len(probe.cpus)
               and time.perf_counter() < deadline):
            time.sleep(0.01)
    assert not probe._thread.is_alive()
    assert {cpu for cpu, _ in probe.durations} == set(probe.cpus)
    assert probe.slowdown() > 0


# -- metric names and BENCHMARK.json -------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = [n for n, *_ in END_TO_END] + [n for n, _ in PER_LAYER] + [
        n for n, _ in WORKLOADS
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    assert "setup_s" in [n for n, *_ in END_TO_END]
    setup_bound = dict((n, b) for n, _, _, b in END_TO_END)["setup_s"]
    assert all(b <= setup_bound <= 0.25 for *_, b in END_TO_END)


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == benchmark_json()


# -- smoke runs through the correctness gate ------------------------------------


def test_small_jobs_smoke_is_correct_and_repeats_makespan():
    first = serve_workload.run("serve_small_jobs", 5, 1, size=40)
    assert first["correct"], first["record"]["errors"]
    assert first["failed"] == 0 and first["attempted"] > 0
    again = serve_workload.run("serve_small_jobs", 5, 1, size=40)
    assert (again["record"]["sim_makespan_vcycles"]
            == first["record"]["sim_makespan_vcycles"])
    assert all(v > 0 for v in first["e2e"].values())


def test_small_jobs_traced_smoke_reports_every_layer_metric():
    tracer = tracing.Tracer()
    result = serve_workload.run("serve_small_jobs", 5, 1, tracer, size=40)
    assert result["correct"]
    assert list(result["layers"]) == [n for n, _ in PER_LAYER]
    assert result["layers"]["serve.submit.calls"] == result["attempted"]
    assert result["layers"]["interp.batch.run.calls"] > 0
    assert tracer.bindings() == []


def test_large_streams_smoke_is_correct():
    result = serve_workload.run("serve_large_streams", 5, 1, size=500_000)
    assert result["correct"], result["record"]["errors"]
    jobs = result["record"]["jobs"]
    warmup = min(serve_workload.WARMUP_JOBS["serve_large_streams"], jobs)
    assert result["attempted"] == warmup + jobs


def test_a_wrong_output_fails_the_gate(monkeypatch):
    real = serve_workload.digest
    calls = {"n": 0}

    def corrupt(outputs):
        calls["n"] += 1
        return "bad" if calls["n"] == 1 else real(outputs)

    monkeypatch.setattr(serve_workload, "digest", corrupt)
    result = serve_workload.run("serve_small_jobs", 5, 1, size=40)
    assert not result["correct"] and result["failed"] == 1


def test_figures_smoke_matches_the_golden_sections():
    commands = ("sec74", "figure8")
    result = figures_workload.run(0, commands=commands, short_repeats=1)
    assert result["correct"] and result["failed"] == 0
    transcript, _ = figures_workload.regenerate(commands)
    assert figures_workload.check(transcript + "extra\n", commands)[1] == 1


# -- the command itself ----------------------------------------------------------


def _run(cwd, extra_env=None):
    env = dict(os.environ)
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "fleetbench/run.py", "--workload",
         "serve_small_jobs", "--seed", "1", "--seconds", "1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_refuses_to_time_with_fleet_variables_set():
    proc = _run(ROOT, {"FLEET_ENGINE": "interp"})
    assert proc.returncode != 0 and "FLEET_ENGINE" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "fleetbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
