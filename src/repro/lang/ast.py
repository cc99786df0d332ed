"""Abstract syntax tree for Fleet processing-unit programs.

A :class:`UnitProgram` is the immutable result of building a processing unit
with :class:`repro.lang.builder.UnitBuilder`. It holds the declared state
elements (registers, vector registers, BRAMs) and a body of statements with
the paper's concurrent per-virtual-cycle semantics:

* every statement is (conceptually) evaluated every virtual cycle against the
  *current* state, gated by the conjunction of its enclosing conditions;
* statements inside a ``while`` execute on loop virtual cycles; statements
  outside every ``while`` execute only on the final (``while_done``) virtual
  cycle for the current input token;
* all state writes commit together at the end of the virtual cycle.

The AST is deliberately small — the paper lists the full feature set in its
Figure 2 and this module implements exactly that set.

Programs are *sealed*: declarations, expression nodes and statements
refuse attribute assignment once constructed, and constructing a
:class:`UnitProgram` turns every nested ``If`` arm body and ``While`` body
into a tuple. A program therefore cannot change after it is built, which
is what lets analyses (the structural fingerprint, restriction
certificates, compiled engines) memoize on the program object. Only the
``_fleet_*`` memo attributes those caches keep on a program stay settable.
"""

from . import types
from .errors import FleetSyntaxError, FleetWidthError

#: Constructors bypass the sealed ``__setattr__`` with this.
_set = object.__setattr__


class _Sealed:
    """Base of the declaration, expression and statement classes:
    instances refuse attribute assignment and deletion after
    construction."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is sealed; cannot set {name!r}"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is sealed; cannot delete {name!r}"
        )


# ---------------------------------------------------------------------------
# State element declarations
# ---------------------------------------------------------------------------


class RegDecl(_Sealed):
    """A register with a declared width and reset/init value."""

    __slots__ = ("name", "width", "init")

    def __init__(self, name, width, init=0):
        _set(self, "name", name)
        _set(self, "width", types.check_width(width))
        if not types.fits(init, width):
            raise FleetWidthError(
                f"register {name!r}: init {init} does not fit in {width} bits"
            )
        _set(self, "init", init)

    def __repr__(self):
        return f"RegDecl({self.name!r}, width={self.width}, init={self.init})"


class VectorRegDecl(_Sealed):
    """A bank of registers with dynamic (random-access) indexing.

    Unlike a BRAM, a vector register is built from flip-flops and mux trees,
    so reads have no latency and are not restricted; the area model charges
    accordingly.
    """

    __slots__ = ("name", "elements", "width", "init")

    def __init__(self, name, elements, width, init=0):
        if elements < 1:
            raise FleetSyntaxError(
                f"vector register {name!r}: needs >= 1 element"
            )
        _set(self, "name", name)
        _set(self, "elements", elements)
        _set(self, "width", types.check_width(width))
        if not types.fits(init, width):
            raise FleetWidthError(
                f"vector register {name!r}: init {init} does not fit in "
                f"{width} bits"
            )
        _set(self, "init", init)

    @property
    def index_width(self):
        return max(1, (self.elements - 1).bit_length())

    def __repr__(self):
        return (
            f"VectorRegDecl({self.name!r}, elements={self.elements}, "
            f"width={self.width})"
        )


class WireDecl(_Sealed):
    """A named combinational temporary (the paper's ``wire`` type).

    Wires make expression sharing explicit: a wire's defining expression is
    evaluated once per virtual cycle no matter how many places read it,
    which is also how the generated RTL behaves. Without them, deep
    compare-select chains (e.g. a Smith-Waterman row update) would blow up
    exponentially when treated as trees.
    """

    __slots__ = ("name", "value", "width")

    def __init__(self, name, value):
        _set(self, "name", name)
        _set(self, "value", value)
        _set(self, "width", value.width)

    def __repr__(self):
        return f"WireDecl({self.name!r}, width={self.width})"


class BramDecl(_Sealed):
    """A block RAM: one read and one write per virtual cycle, one-cycle
    read latency in hardware, zero-initialized (as on most FPGAs)."""

    __slots__ = ("name", "elements", "width")

    def __init__(self, name, elements, width):
        if elements < 1:
            raise FleetSyntaxError(f"BRAM {name!r}: needs >= 1 element")
        _set(self, "name", name)
        _set(self, "elements", elements)
        _set(self, "width", types.check_width(width))

    @property
    def addr_width(self):
        return max(1, (self.elements - 1).bit_length())

    def __repr__(self):
        return (
            f"BramDecl({self.name!r}, elements={self.elements}, "
            f"width={self.width})"
        )


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Node(_Sealed):
    """Base class for expression nodes. Every node has a ``width``."""

    __slots__ = ("width",)

    def children(self):
        """Child expression nodes, for generic traversals."""
        return ()


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value, width=None):
        if value < 0:
            raise FleetWidthError(
                f"Fleet constants are unsigned, got {value}"
            )
        if width is None:
            width = types.bits_for(value)
        if not types.fits(value, width):
            raise FleetWidthError(
                f"constant {value} does not fit in {width} bits"
            )
        _set(self, "value", value)
        _set(self, "width", types.check_width(width))

    def __repr__(self):
        return f"Const({self.value}, w={self.width})"


class InputToken(Node):
    """The current input token (the paper's ``input`` expression)."""

    __slots__ = ()

    def __init__(self, width):
        _set(self, "width", types.check_width(width))

    def __repr__(self):
        return f"InputToken(w={self.width})"


class StreamFinished(Node):
    """1-bit flag: true during the post-stream cleanup virtual cycles."""

    __slots__ = ()

    def __init__(self):
        _set(self, "width", 1)

    def __repr__(self):
        return "StreamFinished()"


class RegRead(Node):
    __slots__ = ("reg",)

    def __init__(self, reg):
        _set(self, "reg", reg)
        _set(self, "width", reg.width)

    def __repr__(self):
        return f"RegRead({self.reg.name})"


class VectorRegRead(Node):
    __slots__ = ("vreg", "index")

    def __init__(self, vreg, index):
        _set(self, "vreg", vreg)
        _set(self, "index", index)
        _set(self, "width", vreg.width)

    def children(self):
        return (self.index,)

    def __repr__(self):
        return f"VectorRegRead({self.vreg.name}, {self.index!r})"


class BramRead(Node):
    __slots__ = ("bram", "addr")

    def __init__(self, bram, addr):
        _set(self, "bram", bram)
        _set(self, "addr", addr)
        _set(self, "width", bram.width)

    def children(self):
        return (self.addr,)

    def __repr__(self):
        return f"BramRead({self.bram.name}, {self.addr!r})"


class WireRead(Node):
    __slots__ = ("wire",)

    def __init__(self, wire):
        _set(self, "wire", wire)
        _set(self, "width", wire.width)

    def children(self):
        return (self.wire.value,)

    def __repr__(self):
        return f"WireRead({self.wire.name})"


class BinOp(Node):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op, lhs, rhs):
        from .. import ops

        if op not in ops.BINOPS:
            raise FleetSyntaxError(f"unknown binary operator {op!r}")
        _set(self, "op", op)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "width", ops.binop_width(op, lhs.width, rhs.width))

    def children(self):
        return (self.lhs, self.rhs)

    def __repr__(self):
        return f"BinOp({self.op}, {self.lhs!r}, {self.rhs!r})"


class UnOp(Node):
    __slots__ = ("op", "operand")

    def __init__(self, op, operand):
        from .. import ops

        if op not in ops.UNOPS:
            raise FleetSyntaxError(f"unknown unary operator {op!r}")
        _set(self, "op", op)
        _set(self, "operand", operand)
        _set(self, "width", ops.unop_width(op, operand.width))

    def children(self):
        return (self.operand,)

    def __repr__(self):
        return f"UnOp({self.op}, {self.operand!r})"


class Mux(Node):
    """``cond ? then : els`` with a 1-bit-checked condition."""

    __slots__ = ("cond", "then", "els")

    def __init__(self, cond, then, els):
        if cond.width != 1:
            raise FleetWidthError(
                f"mux condition must be 1 bit, got {cond.width}"
            )
        _set(self, "cond", cond)
        _set(self, "then", then)
        _set(self, "els", els)
        _set(self, "width", max(then.width, els.width))

    def children(self):
        return (self.cond, self.then, self.els)

    def __repr__(self):
        return f"Mux({self.cond!r}, {self.then!r}, {self.els!r})"


class Slice(Node):
    """Bit slice ``operand[hi:lo]``, both bounds inclusive, lo <= hi."""

    __slots__ = ("operand", "hi", "lo")

    def __init__(self, operand, hi, lo):
        if not (0 <= lo <= hi):
            raise FleetWidthError(f"bad slice bounds [{hi}:{lo}]")
        if hi >= operand.width:
            raise FleetWidthError(
                f"slice [{hi}:{lo}] out of range for width {operand.width}"
            )
        _set(self, "operand", operand)
        _set(self, "hi", hi)
        _set(self, "lo", lo)
        _set(self, "width", hi - lo + 1)

    def children(self):
        return (self.operand,)

    def __repr__(self):
        return f"Slice({self.operand!r}, {self.hi}, {self.lo})"


class Concat(Node):
    """Bit concatenation; ``parts[0]`` is the most significant."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise FleetSyntaxError("concat of zero parts")
        _set(self, "parts", parts)
        _set(self, "width", types.check_width(sum(p.width for p in parts)))

    def children(self):
        return self.parts

    def __repr__(self):
        return f"Concat({list(self.parts)!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(_Sealed):
    __slots__ = ()


class RegAssign(Statement):
    __slots__ = ("reg", "value")

    def __init__(self, reg, value):
        _set(self, "reg", reg)
        _set(self, "value", value)

    def __repr__(self):
        return f"RegAssign({self.reg.name}, {self.value!r})"


class VectorRegAssign(Statement):
    __slots__ = ("vreg", "index", "value")

    def __init__(self, vreg, index, value):
        _set(self, "vreg", vreg)
        _set(self, "index", index)
        _set(self, "value", value)

    def __repr__(self):
        return (
            f"VectorRegAssign({self.vreg.name}, {self.index!r}, "
            f"{self.value!r})"
        )


class BramWrite(Statement):
    __slots__ = ("bram", "addr", "value")

    def __init__(self, bram, addr, value):
        _set(self, "bram", bram)
        _set(self, "addr", addr)
        _set(self, "value", value)

    def __repr__(self):
        return f"BramWrite({self.bram.name}, {self.addr!r}, {self.value!r})"


class Emit(Statement):
    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", value)

    def __repr__(self):
        return f"Emit({self.value!r})"


class If(Statement):
    """A chain of (condition, body) arms; a final arm with condition ``None``
    is the ``else`` block."""

    __slots__ = ("arms",)

    def __init__(self, arms):
        # (cond Node or None, body) pairs; lists while a builder is
        # appending, tuples once the owning UnitProgram seals them
        _set(self, "arms", arms)

    def __repr__(self):
        return f"If({len(self.arms)} arms)"


class While(Statement):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        _set(self, "cond", cond)
        _set(self, "body", body)

    def __repr__(self):
        return f"While({self.cond!r}, {len(self.body)} stmts)"


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------


class UnitProgram:
    """An immutable, validated Fleet processing-unit program.

    Construction seals the whole program (see the module docstring);
    afterwards only ``_fleet_*`` memo attributes may be set.
    """

    def __init__(self, name, input_width, output_width, regs, vregs, brams,
                 body, source_lines=None):
        _set(self, "name", name)
        _set(self, "input_width", types.check_width(input_width))
        _set(self, "output_width", types.check_width(output_width))
        _set(self, "regs", tuple(regs))
        _set(self, "vregs", tuple(vregs))
        _set(self, "brams", tuple(brams))
        _set(self, "body", _seal_block(body))
        #: Number of builder-API lines used to express the unit; feeds the
        #: Figure 8 lines-of-code comparison.
        _set(self, "source_lines", source_lines)

    def __setattr__(self, name, value):
        if not name.startswith("_fleet_"):
            raise AttributeError(
                f"UnitProgram is sealed; cannot set {name!r}"
            )
        _set(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"UnitProgram is sealed; cannot delete {name!r}")

    def __repr__(self):
        return (
            f"UnitProgram({self.name!r}, in={self.input_width}b, "
            f"out={self.output_width}b, regs={len(self.regs)}, "
            f"vregs={len(self.vregs)}, brams={len(self.brams)})"
        )


def _seal_block(body):
    """``body`` as a tuple, with every nested ``If`` arm body and
    ``While`` body turned into a tuple as well."""
    body = tuple(body)
    for stmt in body:
        if isinstance(stmt, If):
            _set(stmt, "arms", tuple(
                (cond, _seal_block(arm_body)) for cond, arm_body in stmt.arms
            ))
        elif isinstance(stmt, While):
            _set(stmt, "body", _seal_block(stmt.body))
    return body


# ---------------------------------------------------------------------------
# Generic traversals
# ---------------------------------------------------------------------------


def walk_expr(node):
    """Yield ``node`` and every expression node beneath it.

    Expressions are DAGs (wires and reused sub-expressions are shared), so
    each distinct node is yielded exactly once.
    """
    stack = [node]
    seen = set()
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        yield n
        stack.extend(n.children())


def contains_bram_read(node):
    """Whether any :class:`BramRead` appears in the expression tree."""
    return any(isinstance(n, BramRead) for n in walk_expr(node))


def walk_statements(body):
    """Yield every statement in ``body``, recursing into ifs and whiles."""
    stack = list(reversed(body))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, If):
            for _, arm_body in reversed(stmt.arms):
                stack.extend(reversed(arm_body))
        elif isinstance(stmt, While):
            stack.extend(reversed(stmt.body))


def statement_exprs(stmt):
    """The expression trees directly referenced by ``stmt`` (not recursing
    into nested statements)."""
    if isinstance(stmt, RegAssign):
        return (stmt.value,)
    if isinstance(stmt, VectorRegAssign):
        return (stmt.index, stmt.value)
    if isinstance(stmt, BramWrite):
        return (stmt.addr, stmt.value)
    if isinstance(stmt, Emit):
        return (stmt.value,)
    if isinstance(stmt, If):
        return tuple(c for c, _ in stmt.arms if c is not None)
    if isinstance(stmt, While):
        return (stmt.cond,)
    raise FleetSyntaxError(f"unknown statement {stmt!r}")
