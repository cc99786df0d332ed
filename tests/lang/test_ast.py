"""AST traversal utilities and program sealing."""

import pytest

from repro.lang import FleetSyntaxError, UnitBuilder
from repro.lang import ast


def build_sample():
    b = UnitBuilder("s", input_width=8, output_width=8)
    r = b.reg("r", width=8)
    m = b.bram("m", elements=16, width=8)
    with b.when(r == 0):
        with b.while_(r != 5):
            r.set(r + 1)
    b.emit(m[b.input.bits(3, 0)])
    return b.finish()


def test_walk_statements_covers_nesting():
    unit = build_sample()
    statements = list(ast.walk_statements(unit.body))
    kinds = [type(s).__name__ for s in statements]
    assert "If" in kinds and "While" in kinds
    assert "RegAssign" in kinds and "Emit" in kinds


def test_statement_exprs_for_each_kind():
    unit = build_sample()
    for stmt in ast.walk_statements(unit.body):
        exprs = ast.statement_exprs(stmt)
        assert isinstance(exprs, tuple)
        for expr in exprs:
            assert isinstance(expr, ast.Node)


def test_contains_bram_read_through_wires():
    b = UnitBuilder("w", input_width=8, output_width=8)
    m = b.bram("m", elements=4, width=8)
    wired = b.wire(m[0] + 1)
    assert ast.contains_bram_read(wired.node)
    plain = b.wire(b.input + 1)
    assert not ast.contains_bram_read(plain.node)


def test_walk_expr_visits_shared_nodes_once():
    b = UnitBuilder("d", input_width=8, output_width=8)
    shared = b.wire(b.input + 1)
    expr = (shared + shared).node
    visited = list(ast.walk_expr(expr))
    wire_reads = [n for n in visited if isinstance(n, ast.WireRead)]
    assert len(wire_reads) == 1  # DAG-aware: each node once


def test_concat_of_nothing_rejected():
    with pytest.raises(FleetSyntaxError):
        ast.Concat([])


def test_decl_reprs_are_informative():
    unit = build_sample()
    assert "r" in repr(unit.regs[0])
    assert "m" in repr(unit.brams[0])
    assert "elements=16" in repr(unit.brams[0])


def test_sealed_program_refuses_mutation():
    unit = build_sample()
    when, emit = unit.body[0], unit.body[-1]
    loop = when.arms[0][1][0]
    # Nested bodies are tuples, so they cannot grow or shrink in place.
    assert isinstance(unit.body, tuple)
    assert isinstance(when.arms, tuple)
    assert all(isinstance(arm, tuple) and isinstance(arm[1], tuple)
               for arm in when.arms)
    assert isinstance(loop.body, tuple)
    assign = loop.body[0]
    targets = [
        (unit, "body"), (unit, "name"), (unit, "regs"),
        (unit, "input_width"), (unit, "source_lines"),
        (when, "arms"), (loop, "body"), (loop, "cond"),
        (assign, "value"), (emit, "value"),
        (emit.value, "addr"), (emit.value, "width"),
        (unit.regs[0], "init"), (unit.brams[0], "elements"),
    ]
    for obj, attr in targets:
        with pytest.raises(AttributeError, match="sealed"):
            setattr(obj, attr, getattr(obj, attr))
        with pytest.raises(AttributeError, match="sealed"):
            delattr(obj, attr)
    with pytest.raises(AttributeError):
        unit.extra = 1


def test_sealed_program_keeps_memo_attributes_settable():
    unit = build_sample()
    unit._fleet_probe = 1
    assert unit._fleet_probe == 1


def test_sealing_covers_directly_constructed_programs():
    m = ast.BramDecl("m", elements=4, width=8)
    inner = ast.While(ast.Const(0, 1), [ast.Emit(ast.InputToken(8))])
    arms = [(ast.StreamFinished(), [inner]), (None, [])]
    program = ast.UnitProgram("direct", 8, 8, (), (), (m,),
                              [ast.If(arms)])
    stmt = program.body[0]
    assert stmt.arms == ((arms[0][0], (inner,)), (None, ()))
    assert inner.body == (inner.body[0],)
    with pytest.raises(AttributeError, match="sealed"):
        inner.body = ()
    with pytest.raises(AttributeError, match="sealed"):
        m.width = 16
