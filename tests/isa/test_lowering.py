"""The block-lowered executors against the per-instruction oracle.

Every field the baselines read — outputs, ``steps``, ``warp_issues``,
``lane_steps`` and ``op_counts`` including its key order — must match
:mod:`tests.isa.reference` on random well-formed programs and on the six
catalog apps; errors must match too.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.catalog import catalog
from repro.isa import (
    Instr,
    Program,
    ProgramBuilder,
    ScalarExecutor,
    SimtExecutor,
)
from repro.lang import FleetSimulationError

from .reference import ReferenceScalarExecutor, ReferenceSimtExecutor

REGS = ("a", "b", "c", "d")
LOCAL_WORDS = 16
MAX_RUN = 200_000

property_settings = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

immediates = st.one_of(
    st.integers(0, 70),
    st.integers(-4, -1),
    st.integers(0, (1 << 64) - 1),
)
tokens = st.one_of(st.integers(0, 3), st.integers(0, (1 << 64) - 1))
streams = st.lists(tokens, max_size=10)


@st.composite
def programs(draw):
    """A random well-formed program: straight-line ALU/memory/stream ops,
    forward branches (including to the end label), mid-program halts,
    counted backward loops nested up to two deep, and top-level stream
    loops that consume a token per iteration. Every loop terminates."""
    p = ProgramBuilder("prop", local_words=LOCAL_WORDS)
    names = itertools.count()

    def operand():
        return draw(st.one_of(st.sampled_from(REGS), immediates))

    def target(pending):
        if pending and draw(st.booleans()):
            return draw(st.sampled_from(pending))
        if draw(st.integers(0, 3)) == 0:
            return "end"
        label = f"L{next(names)}"
        pending.append(label)
        return label

    def sequence(depth, stream_loop_ok):
        pending = []
        kinds = ["alu", "alu", "li", "mov", "load", "store", "out", "in",
                 "branch", "place", "halt"]
        if depth < 2:
            kinds += ["loop", "loop"]
        if stream_loop_ok:
            kinds += ["stream", "stream"]
        for _ in range(draw(st.integers(0, 12 if depth == 0 else 6))):
            kind = draw(st.sampled_from(kinds))
            reg = draw(st.sampled_from(REGS))
            if kind == "alu":
                alu = draw(st.sampled_from(sorted(
                    ("add", "sub", "mul", "and", "or", "xor", "shl", "shr",
                     "eq", "ne", "lt", "le", "gt", "ge", "blen")
                )))
                p.bin(alu, reg, operand(), operand())
            elif kind == "li":
                p.li(reg, draw(st.integers(0, 1 << 66)))
            elif kind == "mov":
                p.mov(reg, draw(st.sampled_from(REGS)))
            elif kind in ("load", "store"):
                p.and_("addr", draw(st.sampled_from(REGS)), 7)
                offset = draw(st.integers(0, LOCAL_WORDS - 8))
                if kind == "load":
                    p.load(reg, "addr", offset)
                else:
                    p.store(operand(), "addr", offset)
            elif kind == "out":
                p.outtok(operand())
            elif kind == "in":
                p.intok(reg, target(pending))
            elif kind == "branch":
                how = draw(st.sampled_from(("br", "brnz", "brz")))
                if how == "br":
                    p.br(target(pending))
                else:
                    condition = draw(st.sampled_from(REGS + (0, 1)))
                    getattr(p, how)(condition, target(pending))
            elif kind == "place":
                if pending:
                    p.label(pending.pop(draw(st.integers(0, len(pending) - 1))))
            elif kind == "halt":
                p.halt()
            elif kind == "loop":
                counter = f"k{depth}"
                top = f"L{next(names)}"
                p.li(counter, draw(st.integers(1, 4)))
                p.label(top)
                sequence(depth + 1, False)
                p.sub(counter, counter, 1)
                p.brnz(counter, top)
            else:  # a stream loop: one token per iteration
                top, done = f"L{next(names)}", f"L{next(names)}"
                p.label(top)
                p.intok(reg, done)
                sequence(1, False)
                p.br(top)
                p.label(done)
        for label in pending:
            p.label(label)

    sequence(0, True)
    p.label("end")
    return p.assemble()


@st.composite
def warps(draw):
    """1-32 streams: ragged, empty, or all identical."""
    if draw(st.booleans()):
        return [draw(streams)] * draw(st.integers(1, 32))
    return draw(st.lists(streams, min_size=1, max_size=32))


def outcome(run):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", run())
    except (FleetSimulationError, IndexError) as exc:
        return ("error", type(exc), str(exc))


def assert_same_scalar(program, stream):
    got = outcome(
        lambda: ScalarExecutor(program, max_steps=MAX_RUN).run(stream)
    )
    want = outcome(
        lambda: ReferenceScalarExecutor(program, max_steps=MAX_RUN)
        .run(stream)
    )
    if want[0] == "error":
        assert got[0] == "error" and got[1] is want[1]
        if want[1] is FleetSimulationError:
            assert got[2] == want[2]
        return
    assert got[0] == "ok", got
    got, want = got[1], want[1]
    assert got.outputs == want.outputs
    assert got.steps == want.steps
    assert list(got.op_counts.items()) == list(want.op_counts.items())


def assert_same_simt(program, warp):
    got = outcome(
        lambda: SimtExecutor(program, max_issues=MAX_RUN).run(warp)
    )
    want = outcome(
        lambda: ReferenceSimtExecutor(program, max_issues=MAX_RUN).run(warp)
    )
    if want[0] == "error":
        assert got[0] == "error" and got[1] is want[1]
        if want[1] is FleetSimulationError:
            assert got[2] == want[2]
        return
    assert got[0] == "ok", got
    got, want = got[1], want[1]
    assert got.outputs == want.outputs
    assert got.warp_issues == want.warp_issues
    assert got.lane_steps == want.lane_steps
    assert list(got.op_counts.items()) == list(want.op_counts.items())


@property_settings
@given(programs(), streams)
def test_scalar_matches_oracle(program, stream):
    assert_same_scalar(program, stream)


@property_settings
@given(programs(), warps())
def test_simt_matches_oracle(program, warp):
    assert_same_simt(program, warp)


def test_empty_program():
    program = ProgramBuilder("empty").assemble()
    assert len(program) == 0
    assert_same_scalar(program, [1, 2])
    assert_same_simt(program, [[1], [], [2, 3]])
    assert SimtExecutor(program).run([[1]]).warp_issues == 0


def test_op_counts_keyed_in_first_issue_order():
    """A loop whose first pass skips a load: the load's category enters
    the histogram after later blocks' categories, as the oracle counts."""
    p = ProgramBuilder("order", local_words=4)
    p.li("k", 2)
    p.label("top")
    p.brz("seen", "skip")
    p.load("x", 0)
    p.label("skip")
    p.store(1, 0)
    p.li("seen", 1)
    p.sub("k", "k", 1)
    p.brnz("k", "top")
    p.halt()
    program = p.assemble()
    keys = list(ScalarExecutor(program).run([]).op_counts)
    assert keys.index("store") < keys.index("load")
    assert_same_scalar(program, [])
    assert_same_simt(program, [[]])


@pytest.mark.parametrize("key", list(catalog()))
def test_catalog_apps_match_oracle(key):
    spec = catalog()[key]
    program = spec.program()
    for small, large in spec.stream_pairs():
        assert_same_scalar(program, small)
        assert_same_scalar(program, large)
    for warp_small, warp_large in spec.gpu_warp_pairs(lanes=8):
        assert_same_simt(program, warp_small)
        assert_same_simt(program, warp_large)


# -- error parity ------------------------------------------------------------

def spin_program():
    p = ProgramBuilder("spin")
    p.li("a", 1)
    p.label("loop")
    p.add("a", "a", 1)
    p.br("loop")
    return p.assemble()


def test_runaway_scalar_message():
    program = spin_program()
    for executor in (ScalarExecutor, ReferenceScalarExecutor):
        with pytest.raises(
            FleetSimulationError,
            match=r"^program 'spin' exceeded 1000 steps$",
        ):
            executor(program, max_steps=1000).run([])


def test_runaway_simt_message():
    program = spin_program()
    for executor in (SimtExecutor, ReferenceSimtExecutor):
        with pytest.raises(
            FleetSimulationError, match=r"^warp exceeded 1000 issues$"
        ):
            executor(program, max_issues=1000).run([[1], [2]])


def test_budget_exactly_met_is_not_runaway():
    p = ProgramBuilder("three")
    p.li("a", 1)
    p.outtok("a")
    p.halt()
    program = p.assemble()
    assert ScalarExecutor(program, max_steps=3).run([]).steps == 3
    assert SimtExecutor(program, max_issues=3).run([[]]).warp_issues == 3


def bad_opcode_program():
    return Program("bad", [Instr("frob", ())], 0, 4, 1)


@pytest.mark.parametrize("lanes", [0, 33])
def test_warp_size_refused_before_lowering(lanes):
    program = bad_opcode_program()
    with pytest.raises(FleetSimulationError, match="a warp runs 1..32"):
        SimtExecutor(program).run([[1]] * lanes)
    assert program._lowered is None


def test_unknown_opcode_rejected_at_lowering():
    with pytest.raises(FleetSimulationError, match="unknown opcode 'frob'"):
        bad_opcode_program().lowered
    with pytest.raises(FleetSimulationError, match="unknown opcode 'frob'"):
        ScalarExecutor(bad_opcode_program()).run([])
    with pytest.raises(FleetSimulationError, match="unknown opcode 'frob'"):
        SimtExecutor(bad_opcode_program()).run([[]])


@pytest.mark.parametrize("op", ["load", "store"])
def test_out_of_range_memory_same_exception(op):
    p = ProgramBuilder("oob", local_words=4)
    p.intok("x", "eof")
    if op == "load":
        p.load("y", "x", 1)
    else:
        p.store(7, "x", 1)
    p.label("eof")
    p.halt()
    program = p.assemble()
    for run in (
        lambda: ReferenceScalarExecutor(program).run([3]),
        lambda: ScalarExecutor(program).run([3]),
        lambda: ReferenceSimtExecutor(program).run([[0], [3]]),
        lambda: SimtExecutor(program).run([[0], [3]]),
    ):
        with pytest.raises(IndexError):
            run()


def test_lowering_memoized_and_instrs_frozen():
    p = ProgramBuilder("echo", local_words=4)
    p.label("loop")
    p.intok("x", "eof")
    p.outtok("x")
    p.br("loop")
    p.label("eof")
    program = p.assemble()
    assert isinstance(program.instrs, tuple)
    assert program._lowered is None  # assembly does not lower
    assert ScalarExecutor(program).run([1, 2]).outputs == [1, 2]
    lowered = program._lowered
    assert lowered is not None
    assert SimtExecutor(program).run([[3], []]).outputs == [[3], []]
    assert program.lowered is lowered
