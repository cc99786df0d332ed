"""Certified specialization of the compiled engine.

The certificate-driven codegen path must be byte-identical to both the
guarded compiled lowering and the checking interpreter — outputs,
per-token virtual-cycle counts, emit traces, and final state — and a
certificate that no longer covers its program must *refuse* to
specialize rather than silently elide checks.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import int_coding_unit, regex_match_unit
from repro.interp import (
    CompiledSimulator,
    UnitSimulator,
    compile_program,
    fast_engine_for,
    try_specialize,
)
from repro.lang import FleetRestrictionError, UnitBuilder
from repro.lang.errors import FleetSimulationError
from repro.lint import certificate_for
from repro.testing import generator as gen_mod
from repro.testing import spec as spec_mod

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _signature(sim):
    return (
        tuple(sim.outputs),
        tuple(sim.trace.vcycles_per_token),
        tuple(sim.trace.emits_per_token),
        tuple(sim.peek_reg(r.name) for r in sim.program.regs),
        tuple(tuple(sim.peek_bram(b.name)) for b in sim.program.brams),
    )


def _run(sim_factory, streams):
    signatures = []
    for stream in streams:
        sim = sim_factory()
        sim.run(stream)
        signatures.append(_signature(sim))
    return signatures


# ---------------------------------------------------------------------------
# The hypothesis property: specialized == guarded == interp, always
# ---------------------------------------------------------------------------


@slow
@given(st.integers(min_value=0, max_value=2_000))
def test_specialized_codegen_byte_identical(seed):
    rng = random.Random(f"specialized:{seed}")
    spec = gen_mod.generate_spec(rng)
    streams = gen_mod.generate_streams(rng, spec)
    program = spec_mod.build_unit(spec)
    certificate = certificate_for(program)
    if not (certificate.ok and certificate.facts is not None):
        return  # uncertified programs have no specialized lowering
    specialized = compile_program(program, certificate=certificate)
    assert specialized.specialized
    guarded = compile_program(program)
    oracle = _run(lambda: UnitSimulator(program), streams)
    assert _run(
        lambda: CompiledSimulator(program, unit=guarded), streams
    ) == oracle
    assert _run(
        lambda: CompiledSimulator(program, unit=specialized), streams
    ) == oracle


def test_app_units_specialize_and_match():
    for build in (int_coding_unit, regex_match_unit):
        program = build()
        certificate = certificate_for(program)
        assert certificate.ok and certificate.facts is not None
        specialized = compile_program(program, certificate=certificate)
        assert specialized.specialized
        stream = [random.Random(7).randrange(256) for _ in range(300)]
        oracle = _run(lambda: UnitSimulator(program), [stream])
        assert _run(
            lambda: CompiledSimulator(program, unit=specialized), [stream]
        ) == oracle


# ---------------------------------------------------------------------------
# Mask elision actually happens
# ---------------------------------------------------------------------------


def test_specialization_elides_masks_and_records_counts():
    program = int_coding_unit()
    certificate = certificate_for(program)
    specialized = compile_program(program, certificate=certificate)
    guarded = compile_program(program)
    assert sum(specialized.elisions.values()) > 0
    # Fewer literal mask applications survive in the specialized source.
    assert specialized.source.count(" & 0x") < guarded.source.count(" & 0x")


def test_guarded_unit_reports_no_elisions():
    program = int_coding_unit()
    guarded = compile_program(program)
    assert not guarded.specialized
    assert not guarded.elisions


# ---------------------------------------------------------------------------
# Certificate binding: sealed programs, mismatched certificates never elide
# ---------------------------------------------------------------------------


def _conflict_free_unit():
    b = UnitBuilder("inv", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = b.input
    b.emit(b.input)
    return b.finish()


def _conflicting_unit():
    """``_conflict_free_unit`` plus a second unconditional write to the
    same BRAM — a dynamic two-writes restriction violation on every
    token. Same name, different structure: built separately, because a
    sealed program cannot be turned into it."""
    b = UnitBuilder("inv", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = b.input
    b.emit(b.input)
    m[1] = 2
    return b.finish()


def _append_conflict(program):
    from repro.lang.ast import BramWrite, Const

    program.body = tuple(program.body) + (
        BramWrite(program.brams[0], Const(1, 3), Const(2, 8)),
    )


def test_stale_certificate_refuses_specialization():
    program = _conflict_free_unit()
    certificate = certificate_for(program)
    assert certificate.ok
    # The certified program cannot be changed under its certificate ...
    with pytest.raises(AttributeError, match="sealed"):
        _append_conflict(program)
    assert certificate.covers(program)
    # ... and a certificate handed a different program of the same name
    # is refused, never used to elide.
    other = _conflicting_unit()
    assert not certificate.covers(other)
    with pytest.raises(FleetSimulationError, match="refusing"):
        compile_program(other, certificate=certificate)
    assert try_specialize(other, certificate=certificate) is None


def test_mutated_program_is_still_dynamically_checked():
    program = _conflict_free_unit()
    certificate = certificate_for(program)
    write = program.body[0]
    with pytest.raises(AttributeError, match="sealed"):
        write.addr = write.value
    with pytest.raises(AttributeError, match="sealed"):
        program.brams[0].elements = 4
    other = _conflicting_unit()
    # The mismatched certificate is rejected outright — it can never
    # elide.
    with pytest.raises(FleetSimulationError, match="does not cover"):
        UnitSimulator(other, certificate=certificate)
    # And the unassisted interpreter still catches the violation.
    with pytest.raises(FleetRestrictionError, match="written twice"):
        UnitSimulator(other).process_token(0)


def test_rejected_certificate_refuses_specialization():
    b = UnitBuilder("rej", input_width=8, output_width=8)
    m = b.bram("m", elements=8, width=8)
    m[0] = 1
    m[1] = 2  # definite two-writes conflict: certification fails
    program = b.finish()
    certificate = certificate_for(program)
    assert not certificate.ok
    with pytest.raises(FleetSimulationError, match="rejected"):
        compile_program(program, certificate=certificate)
    assert try_specialize(program) is None


# ---------------------------------------------------------------------------
# certificate_for is memoized per fingerprint
# ---------------------------------------------------------------------------


def test_lint_runs_once_per_program_fingerprint(monkeypatch):
    from repro.lint import certificate as cert_mod

    calls = []
    real = cert_mod.certify_program

    def counting(program, report=None):
        calls.append(program.name)
        return real(program, report)

    monkeypatch.setattr(cert_mod, "certify_program", counting)
    # Structurally unique (fresh constant), so the process-wide
    # fingerprint cache can't already hold this program's certificate.
    b = UnitBuilder("memo-count", input_width=8, output_width=8)
    b.emit((b.input + 113).bits(7, 0))
    program = b.finish()
    # Repeated engine selection must certify once, not once per call.
    for _ in range(5):
        fast_engine_for(program)
        certificate_for(program)
    assert len(calls) == 1
