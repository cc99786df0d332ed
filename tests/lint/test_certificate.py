"""Restriction certificates: fingerprint binding, simulator wiring, and
checks-off differential equivalence."""

import pytest

from repro.interp import UnitSimulator, make_simulator
from repro.lang.errors import (
    FleetEmitConflictError,
    FleetRestrictionError,
    FleetSimulationError,
)
from repro.lint import (
    certificate_for,
    certify_program,
    fingerprint_for,
    program_fingerprint,
)
from repro.lint.selftest import _unproven_conflict
from repro.lint.units import APP_UNIT_BUILDERS, build_app_unit


def test_fingerprint_is_reproducible_and_distinguishes_programs():
    a1 = program_fingerprint(build_app_unit("regex_match"))
    a2 = program_fingerprint(build_app_unit("regex_match"))
    b = program_fingerprint(build_app_unit("string_search"))
    assert a1 == a2
    assert a1 != b
    assert len(a1) == 64 and int(a1, 16) >= 0


#: ``program_fingerprint`` of every app unit, pinned so that no change
#: to how programs are built or stored moves a fingerprint (and with it
#: a certificate binding or a native-kernel cache tag).
PINNED_FINGERPRINTS = {
    "identity":
        "495cff50e733452f0ff90098e5060422625877bcbbb587c79c3c3abc61bd6127",
    "sink":
        "cf8a1412b47b2875af046264e2ec0f143d509487ecb768614f7c895ab1323744",
    "block_frequencies":
        "74dbbf21412f0ef2de4c1936c84b3097a42d141faf5de126754a6666b3b9888a",
    "csv_extract":
        "fccaa27f061805aade510ec68b34d4c3c90cbd41044f409deecf615f217ee33b",
    "int_coding":
        "5d497af53e7c84b897b4618ed050170eaf0eb50a95c8150b7cc7a3ea01e24d65",
    "bloom_filter":
        "b946070ea7ac82f7846a9ec7dedfe7182448673a54f0eed05de9cc359af1ea96",
    "decision_tree":
        "64d4375a84c8ff97cd05afcedaff23e87eb9a592717cc01ae92cf7e2cb98f6b3",
    "json_field":
        "43140587495ae225b7a6829acc0a59502edb979aa504242d11fdfb362b9c0af4",
    "regex_match":
        "58035b7e201b4207f191a1fcd95d259f6bef3411392e8d413a6fa50a68ffdf5c",
    "smith_waterman":
        "596fb2e2fc7d9c8f2dc4a0c169fbc7e8442645241bb3fd6fbeac35c6a28544bf",
    "string_search":
        "04f24cb6103683042931e3844e52283bc3e43527bd135a9ec7ce232bc498435a",
}


def test_app_unit_fingerprints_are_pinned():
    assert sorted(PINNED_FINGERPRINTS) == sorted(APP_UNIT_BUILDERS)
    for name, expected in PINNED_FINGERPRINTS.items():
        program = build_app_unit(name)
        assert program_fingerprint(program) == expected, name
        assert fingerprint_for(program) == expected, name


def test_certificate_covers_only_its_own_program():
    regex = build_app_unit("regex_match")
    other = build_app_unit("string_search")
    certificate = certificate_for(regex)
    assert certificate.ok
    assert certificate.covers(regex)
    assert not certificate.covers(other)


def test_certificate_for_is_cached():
    program = build_app_unit("identity")
    assert certificate_for(program) is certificate_for(program)


def test_simulator_rejects_foreign_certificate():
    regex = build_app_unit("regex_match")
    other_cert = certificate_for(build_app_unit("string_search"))
    with pytest.raises(FleetSimulationError, match="does not cover"):
        UnitSimulator(regex, certificate=other_cert)


def test_certified_run_is_byte_identical_with_checks_off(rnd):
    for name, alphabet in (("regex_match", b"abcdx"),
                           ("string_search", b"abrakadabra"),
                           ("identity", bytes(range(256)))):
        program = build_app_unit(name)
        certificate = certificate_for(program)
        assert certificate.ok
        for _ in range(5):
            stream = bytes(rnd.choice(alphabet)
                           for _ in range(rnd.randrange(0, 60)))
            checked = UnitSimulator(program, engine="interp")
            want = list(checked.run(stream))
            certified = UnitSimulator(program, engine="interp",
                                      certificate=certificate)
            assert not certified.check_restrictions
            got = list(certified.run(stream))
            assert got == want


def test_failed_certificate_keeps_dynamic_checks_on():
    program = _unproven_conflict()
    certificate = certificate_for(program)
    assert not certificate.ok
    sim = UnitSimulator(program, engine="interp", certificate=certificate)
    assert sim.check_restrictions
    # Input 0b11 satisfies both emit guards: the dynamic check must
    # still fire despite a certificate being presented.
    with pytest.raises(FleetEmitConflictError):
        list(sim.run(bytes([0b11])))
    # And input 0b01 takes only the first arm: no error.
    ok = UnitSimulator(program, engine="interp", certificate=certificate)
    assert list(ok.run(bytes([0b01]))) == [1]


def test_make_simulator_accepts_certificate():
    program = build_app_unit("identity")
    certificate = certificate_for(program)
    sim = make_simulator(program, engine="interp",
                         certificate=certificate)
    assert list(sim.run(b"\x07\x20")) == [0x07, 0x20]


def test_certify_program_reasons_name_the_failures():
    program = _unproven_conflict()
    certificate = certify_program(program)
    assert not certificate.ok
    assert any("unproven conflict" in reason
               for reason in certificate.reasons)
    assert "NOT certified" in certificate.render()
    payload = certificate.to_json()
    assert payload["certified"] is False
    assert payload["fingerprint"] == program_fingerprint(program)


def test_restriction_error_hierarchy_matches_certificate_claim():
    # The certificate only claims FleetRestrictionError cannot fire;
    # the emit-conflict class used above must be in that family.
    assert issubclass(FleetEmitConflictError, FleetRestrictionError)
