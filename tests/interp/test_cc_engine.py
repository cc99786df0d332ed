"""The native C engine (``FLEET_ENGINE=cc``).

Certified-only: the C kernel is generated from the same specialized IR
as the certified compiled-Python lowering, so every test here is a
byte-identity claim against that engine and the interpreter oracle —
outputs, virtual-cycle and emit traces, final register/BRAM state, and
the exact error behavior on faults. Toolchain-dependent tests skip
cleanly when no C compiler is available (or ``FLEET_NATIVE=off``).
"""

import random

import pytest

from repro.apps import (
    bloom_filter_unit,
    decision_tree_unit,
    int_coding_unit,
    json_field_unit,
)
from repro.interp import (
    CcSimulator,
    CompiledSimulator,
    UnitSimulator,
    cc_available,
    cc_engine_for,
    cc_support,
    compile_cc,
    try_compile_cc,
)
from repro.lang import FleetConfigError, UnitBuilder
from repro.lang.errors import FleetSimulationError
from repro.lint import certificate_for

needs_cc = pytest.mark.skipif(
    not cc_available(), reason="no C toolchain (or FLEET_NATIVE=off)"
)


def _signature(sim):
    return (
        tuple(sim.outputs),
        tuple(sim.trace.vcycles_per_token),
        tuple(sim.trace.emits_per_token),
        tuple(sim.peek_reg(r.name) for r in sim.program.regs),
        tuple(tuple(sim.peek_bram(b.name)) for b in sim.program.brams),
    )


def _stream(n, width=256, seed=11):
    rng = random.Random(seed)
    return [rng.randrange(width) for _ in range(n)]


# ---------------------------------------------------------------------------
# Support and gating (no toolchain required)
# ---------------------------------------------------------------------------


def test_cc_support_accepts_machine_word_apps():
    for build in (int_coding_unit, bloom_filter_unit, json_field_unit):
        ok, reason = cc_support(build())
        assert ok, reason


def test_cc_support_rejects_wide_expressions():
    # Decision tree concatenates past the 64-bit machine word.
    ok, reason = cc_support(decision_tree_unit())
    assert not ok
    assert "64" in reason


def test_cc_requires_a_certificate():
    b = UnitBuilder("uncert", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2  # definite conflict: never certifies
    program = b.finish()
    certificate = certificate_for(program)
    assert not certificate.ok
    with pytest.raises(FleetSimulationError, match="refusing native"):
        compile_cc(program, certificate=certificate)
    assert cc_engine_for(program) is None


def test_stale_certificate_refuses_native_build():
    from repro.lang.ast import BramWrite, Const

    def build(conflict):
        b = UnitBuilder("cc-stale", input_width=8, output_width=8)
        m = b.bram("m", elements=8, width=8)
        m[0] = b.input
        b.emit(b.input)
        if conflict:
            m[1] = 2
        return b.finish()

    program = build(conflict=False)
    certificate = certificate_for(program)
    assert certificate.ok
    with pytest.raises(AttributeError, match="sealed"):
        program.body = tuple(program.body) + (
            BramWrite(program.brams[0], Const(1, 3), Const(2, 8)),
        )
    other = build(conflict=True)
    assert not certificate.covers(other)
    with pytest.raises(FleetSimulationError, match="refusing native"):
        compile_cc(other, certificate=certificate)


def test_fleet_native_off_disables_the_engine(monkeypatch):
    monkeypatch.setenv("FLEET_NATIVE", "off")
    assert not cc_available()
    assert cc_engine_for(int_coding_unit()) is None


@needs_cc
def test_fleet_native_off_wins_over_a_warm_cache(monkeypatch):
    # Build (and cache) the native unit first, then flip the lever:
    # the cached unit must not be handed out.
    program = int_coding_unit()
    assert cc_engine_for(program) is not None
    monkeypatch.setenv("FLEET_NATIVE", "off")
    assert cc_engine_for(program) is None
    monkeypatch.delenv("FLEET_NATIVE")
    assert cc_engine_for(program) is not None


def test_fleet_native_typo_fails_loudly(monkeypatch):
    monkeypatch.setenv("FLEET_NATIVE", "offf")
    with pytest.raises(FleetConfigError, match="FLEET_NATIVE"):
        cc_available()


# ---------------------------------------------------------------------------
# Byte identity (toolchain required)
# ---------------------------------------------------------------------------


@needs_cc
def test_cc_matches_oracle_on_apps():
    for build in (int_coding_unit, bloom_filter_unit, json_field_unit):
        program = build()
        stream = _stream(400)
        oracle = UnitSimulator(program)
        oracle.run(stream)
        native = CcSimulator(program)
        native.run(stream)
        assert _signature(native) == _signature(oracle)
        assert native.engine == "cc"


@needs_cc
def test_cc_incremental_api_matches_run():
    program = int_coding_unit()
    stream = _stream(120, seed=3)
    whole = CcSimulator(program)
    whole.run(stream)
    incremental = CcSimulator(program)
    for token in stream:
        incremental.process_token(token)
    incremental.finish_stream()
    assert _signature(incremental) == _signature(whole)


@needs_cc
def test_cc_reset_reuses_the_kernel():
    program = bloom_filter_unit()
    sim = CcSimulator(program)
    stream = _stream(64, seed=5)
    sim.run(stream)
    first = _signature(sim)
    sim.reset()
    sim.run(stream)
    assert _signature(sim) == first


@needs_cc
def test_cc_source_is_c_and_cached_on_program():
    program = int_coding_unit()
    unit = try_compile_cc(program)
    assert unit is not None
    assert try_compile_cc(program) is unit  # program-object cache
    assert "#include <stdint.h>" in unit.source
    assert "fleet_tokens" in unit.source and "fleet_finish" in unit.source


# ---------------------------------------------------------------------------
# Error parity with the compiled engine (toolchain required)
# ---------------------------------------------------------------------------


@needs_cc
def test_cc_token_validation_message_is_exact():
    program = int_coding_unit()
    for bad in (-1, 256, 1.5, "x"):
        native, compiled = CcSimulator(program), CompiledSimulator(program)
        with pytest.raises(FleetSimulationError) as n_info:
            native.run([bad])
        with pytest.raises(FleetSimulationError) as c_info:
            compiled.run([bad])
        assert str(n_info.value) == str(c_info.value)


@needs_cc
def test_cc_loop_limit_fault_parity():
    program = int_coding_unit()
    stream = _stream(40, seed=9)
    compiled = CompiledSimulator(program, max_vcycles_per_token=2)
    native = CcSimulator(program, max_vcycles_per_token=2)
    with pytest.raises(FleetSimulationError) as c_info:
        compiled.run(stream)
    with pytest.raises(FleetSimulationError) as n_info:
        native.run(stream)
    assert str(n_info.value) == str(c_info.value)
    # Partial outputs, traces, and state agree at the fault point.
    assert _signature(native) == _signature(compiled)


@needs_cc
def test_cc_finished_stream_guards():
    program = int_coding_unit()
    sim = CcSimulator(program)
    sim.run(_stream(8))
    with pytest.raises(FleetSimulationError, match="already finished"):
        sim.process_token(0)
    with pytest.raises(FleetSimulationError, match="already finished"):
        sim.finish_stream()
