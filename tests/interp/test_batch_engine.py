"""The SIMD batch engine must be indistinguishable from N independent
compiled-engine runs: identical output tokens, identical per-token
virtual-cycle and emit traces, identical final architectural state —
across ragged batches, empty streams, batch-of-1, and both the NumPy and
native-kernel backends."""

import random

import pytest

from repro.apps import (
    block_frequencies_unit,
    bloom_filter_unit,
    identity_unit,
    int_coding_unit,
    regex_match_unit,
    smith_waterman_unit,
)
from repro.interp import (
    BatchStreamSimulator,
    CompiledSimulator,
    batch_engine_for,
    batch_support,
    cc_available,
    compile_batch,
    env_engine,
    make_simulator,
    numpy_available,
    run_batch_streams,
)
from repro.lang import FleetConfigError, FleetSimulationError, UnitBuilder

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy unavailable"
)

APPS = {
    "identity": (identity_unit, lambda rng: rng.randrange(256)),
    "block_frequencies": (block_frequencies_unit,
                          lambda rng: rng.randrange(256)),
    "bloom_filter": (bloom_filter_unit, lambda rng: rng.randrange(256)),
    "int_coding": (int_coding_unit, lambda rng: rng.randrange(256)),
    "regex_match": (regex_match_unit,
                    lambda rng: rng.choice(b"ab.@x \nuser@host.com")),
    "smith_waterman": (smith_waterman_unit, lambda rng: rng.randrange(4)),
}


def _ragged_streams(sample, *, lanes=7, tokens=60, seed=0):
    rng = random.Random(seed)
    streams = [
        [sample(rng) for _ in range(rng.randrange(tokens))]
        for _ in range(lanes)
    ]
    streams[1] = []  # always cover an empty lane
    return streams


def _reference(program, stream):
    sim = CompiledSimulator(program, unit=None)
    outputs = sim.run(stream)
    regs = {r.name: sim.peek_reg(r.name) for r in program.regs}
    brams = {b.name: sim.peek_bram(b.name) for b in program.brams}
    return (outputs, sim.trace.vcycles_per_token,
            sim.trace.emits_per_token, regs, brams)


def _check_batch(program, streams, unit=None):
    result = run_batch_streams(program, streams, unit=unit)
    for lane, stream in enumerate(streams):
        outputs, vcycles, emits, regs, brams = _reference(program, stream)
        assert result.outputs[lane] == outputs, lane
        assert result.traces[lane].vcycles_per_token == vcycles, lane
        assert result.traces[lane].emits_per_token == emits, lane
        assert result.reg_state(lane) == regs, lane
        for name, contents in brams.items():
            assert result.peek_bram(lane, name) == contents, (lane, name)
    return result


@requires_numpy
@pytest.mark.parametrize("key", sorted(APPS))
def test_apps_ragged_batch_trace_exact(key):
    make, sample = APPS[key]
    program = make()
    _check_batch(program, _ragged_streams(sample, seed=hash(key) & 0xFF))


@requires_numpy
@pytest.mark.parametrize("key", ["block_frequencies", "int_coding"])
def test_batch_of_one_matches_compiled(key):
    make, sample = APPS[key]
    program = make()
    rng = random.Random(3)
    _check_batch(program, [[sample(rng) for _ in range(120)]])


@requires_numpy
def test_all_empty_batch():
    program = block_frequencies_unit()
    result = _check_batch(program, [[], [], []])
    assert result.stats.lanes == 3
    # Every lane still runs its cleanup cycle.
    assert all(t.vcycles_per_token == [1] for t in result.traces)


@requires_numpy
@pytest.mark.parametrize(
    "backend",
    ["numpy"] + (["cc"] if cc_available() else []),
)
def test_backends_agree(backend):
    program = bloom_filter_unit()
    unit = compile_batch(program, backend=backend)
    assert (unit.cc is not None) == (backend == "cc")
    _check_batch(program, _ragged_streams(APPS["bloom_filter"][1]),
                 unit=unit)


@requires_numpy
def test_batch_stats_occupancy():
    program = identity_unit()
    result = run_batch_streams(program, [[1, 2, 3], [7], []])
    stats = result.stats
    # identity: 1 vcycle per token + 1 cleanup cycle per lane.
    assert stats.lane_vcycles == [4, 2, 1]
    assert stats.lanes == 3 and stats.cycles == 4
    assert stats.busy_lane_cycles == 7
    assert stats.active_lanes_at(1) == 3
    assert stats.active_lanes_at(4) == 1
    assert stats.waste_fraction == pytest.approx(1 - 7 / 12)
    d = stats.as_dict()
    assert d["lanes"] == 3 and d["busy_lane_cycles"] == 7


@requires_numpy
def test_batch_stream_simulator_is_drop_in():
    program = block_frequencies_unit()
    stream = [(i * 31) % 256 for i in range(300)]
    batch = make_simulator(program, engine="batch")
    assert isinstance(batch, BatchStreamSimulator)
    compiled = make_simulator(program, engine="compiled")
    assert batch.run(stream) == compiled.run(stream)
    assert batch.trace.vcycles_per_token == \
        compiled.trace.vcycles_per_token
    for reg in program.regs:
        assert batch.peek_reg(reg.name) == compiled.peek_reg(reg.name)


def test_fleet_engine_typo_raises(monkeypatch):
    monkeypatch.setenv("FLEET_ENGINE", "bacth")
    with pytest.raises(FleetConfigError, match="FLEET_ENGINE"):
        env_engine()


def test_fleet_batch_backend_typo_raises(monkeypatch):
    from repro.interp.batch import batch_backend_env

    monkeypatch.setenv("FLEET_BATCH_BACKEND", "native")
    with pytest.raises(FleetConfigError, match="FLEET_BATCH_BACKEND"):
        batch_backend_env()


@requires_numpy
def test_fleet_engine_batch_upgrades_auto(monkeypatch):
    monkeypatch.setenv("FLEET_ENGINE", "batch")
    program = identity_unit()
    sim = make_simulator(program, engine="auto")
    assert isinstance(sim, BatchStreamSimulator)
    assert sim.run([5, 6, 7]) == [5, 6, 7]


def test_unsupported_program_falls_back():
    # A 100-element BRAM fails the power-of-two state-shape gate shared
    # with the compiled engine's totality condition.
    b = UnitBuilder("odd_bram", input_width=8, output_width=8)
    table = b.bram("table", elements=100, width=8)
    b.emit(b.input)
    table[b.input & 63] = b.input
    program = b.finish()
    ok, reason = batch_support(program)
    assert not ok and reason
    assert batch_engine_for(program) is None
    with pytest.raises(Exception):
        compile_batch(program)


@requires_numpy
def test_loop_limit_message_matches_compiled():
    b = UnitBuilder("spin", input_width=8, output_width=8)
    r = b.reg("r", width=8, init=0)
    with b.while_(r < 200):
        r.set(r & 0)  # r stays 0: never terminates
    program = b.finish()
    with pytest.raises(Exception) as batch_err:
        run_batch_streams(program, [[1]], max_vcycles_per_token=50)
    with pytest.raises(Exception) as compiled_err:
        CompiledSimulator(program, max_vcycles_per_token=50).run([1])
    assert str(batch_err.value) == str(compiled_err.value)


@requires_numpy
def test_predicted_occupancy_identity_is_exact():
    # identity certifies exactly 1 vcycle/token + 1 cleanup cycle, so
    # the static prediction pins every lane's total exactly.
    program = identity_unit()
    result = run_batch_streams(program, [[1, 2, 3], [7], []])
    predicted = result.predicted_stats
    assert predicted is not None
    assert predicted.lane_bounds == [(4, 4), (2, 2), (1, 1)]
    assert (predicted.cycles_lo, predicted.cycles_hi) == (4, 4)
    assert predicted.check(result.stats) == []
    report = result.occupancy_report()
    assert report["sound"] is True
    assert report["actual_cycles"] == 4
    assert report["predicted_cycles"] == [4, 4]
    # Worst-case waste bound dominates the measured waste.
    assert result.stats.waste_fraction <= report["predicted_waste_bound"]


@requires_numpy
def test_predicted_occupancy_bounds_data_dependent_app():
    # block_frequencies' flush loop makes per-token cost data-dependent:
    # the prediction is an interval, and the measured run lands in it.
    make, sample = APPS["block_frequencies"]
    program = make()
    result = run_batch_streams(
        program, _ragged_streams(sample, lanes=5, seed=11)
    )
    predicted = result.predicted_stats
    assert predicted is not None
    assert predicted.check(result.stats) == []
    assert result.occupancy_report()["sound"] is True
    for (lo, hi), measured in zip(
            predicted.lane_bounds, result.stats.lane_vcycles):
        assert lo <= measured <= hi


@requires_numpy
def test_predicted_occupancy_check_flags_violations():
    from repro.interp import BatchStats, predict_batch_stats

    program = identity_unit()
    predicted = predict_batch_stats(program, [3, 1, 0])
    # A fabricated measurement outside the certified interval trips it.
    violations = predicted.check(BatchStats([9, 2, 1]))
    assert violations and "lane 0" in violations[0]


@requires_numpy
def test_predicted_waste_bound_unbounded_app_is_none():
    from repro.apps import decision_tree_unit
    from repro.interp import predict_batch_stats

    predicted = predict_batch_stats(
        decision_tree_unit(max_features=8, max_trees=4, max_nodes=64),
        [4, 2],
    )
    assert predicted is not None
    assert predicted.cycles_hi is None
    assert predicted.waste_bound is None
    # Lower bounds survive; no finite upper to violate.
    assert predicted.lane_bounds[0][0] >= 1


# ---------------------------------------------------------------------------
# Batch I/O: bytes in, totals out
# ---------------------------------------------------------------------------

BACKENDS = ["numpy"] + (["cc"] if cc_available() else [])


def _serve_lanes(app, seed):
    """Ragged lanes of one served app as bytes: header + payload lanes,
    a header-only lane and an empty lane."""
    rng = random.Random(seed)
    payloads = [bytes(rng.randrange(256) for _ in range(rng.randrange(300)))
                for _ in range(5)]
    return [app.header + p for p in payloads] + [app.header, b""]


@requires_numpy
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "name", ["bloom_filter", "integer_coding", "json_parsing", "regex",
             "smith_waterman"],
)
def test_bytes_and_token_lists_agree(backend, name):
    from repro.interp import predict_batch_stats
    from repro.serve import catalog_apps

    app = catalog_apps()[name]
    program = app.unit_factory()
    unit = compile_batch(program, backend=backend)
    lanes = _serve_lanes(app, seed=len(name))
    got = run_batch_streams(program, lanes, unit=unit)
    want = run_batch_streams(program, [list(s) for s in lanes], unit=unit)
    assert got.outputs == want.outputs
    assert got.stats.lane_vcycles == want.stats.lane_vcycles
    assert got.cycles == want.cycles == max(got.stats.lane_vcycles)
    # Lazily built traces equal per-lane compiled-engine runs, and their
    # totals are the lane totals the batch reported without them.
    for lane, stream in enumerate(lanes):
        outputs, vcycles, emits, _, _ = _reference(program, list(stream))
        assert got.outputs[lane] == outputs, lane
        assert got.traces[lane].vcycles_per_token == vcycles, lane
        assert got.traces[lane].emits_per_token == emits, lane
        assert got.stats.lane_vcycles[lane] == sum(vcycles), lane
    # predicted_stats still sees each lane's token count.
    assert got.predicted_stats.as_dict() == predict_batch_stats(
        program, [len(s) for s in lanes]).as_dict()


@requires_numpy
@pytest.mark.parametrize("backend", BACKENDS)
def test_all_ones_fast_path_totals(backend):
    # identity has no while loop: with equal lane lengths the NumPy
    # driver never fills its vcycle matrix, every count being 1.
    program = identity_unit()
    unit = compile_batch(program, backend=backend)
    result = run_batch_streams(program, [b"abc", b"xyz"], unit=unit)
    assert result.stats.lane_vcycles == [4, 4]
    assert result.cycles == 4
    assert [t.vcycles_per_token for t in result.traces] == [[1] * 4] * 2
    assert [t.emits_per_token for t in result.traces] == \
        [[1, 1, 1, 0]] * 2


@requires_numpy
@pytest.mark.parametrize("backend", BACKENDS)
def test_narrow_input_width_rejects_same_token_for_bytes_and_lists(backend):
    b = UnitBuilder("narrow", input_width=4, output_width=4)
    b.emit(b.input)
    program = b.finish()
    unit = compile_batch(program, backend=backend)
    ok = run_batch_streams(program, [b"\x01\x0f", b""], unit=unit)
    # The ungated emit also fires on the cleanup cycle (token 0).
    assert ok.outputs == [[1, 15, 0], [0]]
    messages = []
    for lanes in ([b"\x03", b"\x02\x20\x40"], [[3], [2, 0x20, 0x40]]):
        with pytest.raises(FleetSimulationError) as err:
            run_batch_streams(program, lanes, unit=unit)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "32" in messages[0] and "4-bit" in messages[0]


# ---------------------------------------------------------------------------
# Native lanes shared across threads
# ---------------------------------------------------------------------------

requires_cc = pytest.mark.skipif(not cc_available(),
                                 reason="no C toolchain")


def _share_lanes(monkeypatch, threads, split_tokens=0):
    """Run native batches of ``split_tokens`` or more tokens on
    ``threads`` threads; returns the thread counts of the batches that
    shared their lanes."""
    from repro.interp import batch

    monkeypatch.setattr(batch, "_SPLIT_TOKENS", split_tokens)
    monkeypatch.setattr(batch, "_lane_threads", lambda: threads)
    calls = []
    run_shared = batch._CcBatch.run_shared

    def counted(self, threads):
        calls.append(threads)
        return run_shared(self, threads)

    monkeypatch.setattr(batch._CcBatch, "run_shared", counted)
    return calls


def _fanout_unit():
    """Emits every token eight times: more outputs than the native
    driver's first output buffer holds for a long lane."""
    b = UnitBuilder("fanout", input_width=8, output_width=8)
    ctr = b.reg("ctr", width=4, init=0)
    with b.while_(ctr < 8):
        ctr.set(ctr + 1)
        b.emit(b.input)
    ctr.set(0)
    return b.finish()


@requires_numpy
@requires_cc
@pytest.mark.parametrize("key", sorted(APPS))
def test_shared_lanes_trace_exact(key, monkeypatch):
    calls = _share_lanes(monkeypatch, threads=3)
    make, sample = APPS[key]
    program = make()
    unit = compile_batch(program, backend="cc")
    _check_batch(program, _ragged_streams(sample, seed=len(key)),
                 unit=unit)
    assert calls == [3]


@requires_numpy
@requires_cc
@pytest.mark.parametrize("threads", [1, 3])
def test_native_output_buffer_regrows(threads, monkeypatch):
    calls = _share_lanes(monkeypatch, threads=threads)
    program = _fanout_unit()
    unit = compile_batch(program, backend="cc")
    rng = random.Random(5)
    streams = [[rng.randrange(256) for _ in range(n)]
               for n in (1500, 0, 700, 1200)]
    result = _check_batch(program, streams, unit=unit)
    # Eight outputs per token, the cleanup cycle's included.
    assert [len(o) for o in result.outputs] == [12008, 8, 5608, 9608]
    assert calls == ([3] if threads > 1 else [])


@requires_numpy
@requires_cc
def test_shared_lanes_loop_limit_message_matches_compiled(monkeypatch):
    _share_lanes(monkeypatch, threads=3)
    b = UnitBuilder("spin", input_width=8, output_width=8)
    r = b.reg("r", width=8, init=0)
    with b.while_(r < 200):
        r.set(r & 0)  # r stays 0: never terminates
    program = b.finish()
    unit = compile_batch(program, backend="cc")
    with pytest.raises(Exception) as batch_err:
        run_batch_streams(program, [[1], [], [2, 3]], unit=unit,
                          max_vcycles_per_token=50)
    with pytest.raises(Exception) as compiled_err:
        CompiledSimulator(program, max_vcycles_per_token=50).run([1])
    assert str(batch_err.value) == str(compiled_err.value)


@requires_numpy
@requires_cc
def test_only_large_native_batches_share_lanes(monkeypatch):
    from repro.interp import batch

    calls = _share_lanes(monkeypatch, threads=2,
                         split_tokens=batch._SPLIT_TOKENS)
    program = identity_unit()
    unit = compile_batch(program, backend="cc")
    half = batch._SPLIT_TOKENS // 2
    small = run_batch_streams(program, [b"a" * half, b"b" * (half - 1)],
                              unit=unit)
    assert calls == []
    large = run_batch_streams(program, [b"a" * half, b"b" * half],
                              unit=unit)
    assert calls == [2]
    assert small.outputs[0] == large.outputs[0] == [97] * half
    assert large.stats.lane_vcycles == [half + 1] * 2


@requires_numpy
@requires_cc
def test_shared_lanes_under_thread_contention(monkeypatch):
    # More lane threads than cores, switching as often as the
    # interpreter allows: a lost lane, output or state write-back
    # shows up as a mismatch against per-lane compiled runs.
    import sys
    import threading

    calls = _share_lanes(monkeypatch, threads=8)
    make, sample = APPS["bloom_filter"]
    program = make()
    unit = compile_batch(program, backend="cc")
    streams = _ragged_streams(sample, lanes=40, tokens=200, seed=11)
    got = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: got.update(
            result=run_batch_streams(program, streams, unit=unit)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not worker.is_alive()
    assert calls == [8]
    result = got["result"]
    for lane, stream in enumerate(streams):
        outputs, vcycles, _, regs, brams = _reference(program, stream)
        assert result.outputs[lane] == outputs, lane
        assert result.stats.lane_vcycles[lane] == sum(vcycles), lane
        assert result.reg_state(lane) == regs, lane
        for name, contents in brams.items():
            assert result.peek_bram(lane, name) == contents, (lane, name)
