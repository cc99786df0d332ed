"""Lowering of ISA programs into basic blocks — the engine under both the
scalar and the SIMT executor.

:func:`lower` runs once per :class:`~repro.isa.program.Program` (it is
memoized as :attr:`Program.lowered`). It splits the program into basic
blocks whose leaders are pc 0, every ``br``/``brnz``/``brz``/``intok``
target, and every instruction after a ``br``/``brnz``/``brz``/``intok``/
``halt``. Block ids follow program order, so comparing block ids
compares the blocks' start pcs; :attr:`LoweredProgram.end` (the block
count) stands for "past the last instruction" — a halt, a fall off the
end, or a branch to the end label.

The blocks are rendered, in the :mod:`repro.interp.compile` idiom, as one
generated Python generator per lane: registers live in locals, ALU ops
are inline expressions with exactly the masking of
:data:`~repro.isa.instructions.ALU_OPS`, and a binary ``if b < k`` tree
dispatches on the current block id. Each resume runs one whole block and
yields the id of the next one. The executors (:mod:`repro.isa.scalar`,
:mod:`repro.isa.simt`) count block executions and turn them into
instruction counts through the per-block lengths and opcode histograms
kept here.
"""

from collections import Counter

from ..lang.errors import FleetSimulationError
from .instructions import MASK64, OPCODES

#: Instructions that end a basic block.
_TERMINATORS = frozenset(("br", "brnz", "brz", "intok", "halt"))

#: ``bin`` renderings; ``{a}``/``{b}`` are rendered operands.
_ALU_SOURCE = {
    "add": "({a} + {b}) & _M",
    "sub": "({a} - {b}) & _M",
    "mul": "({a} * {b}) & _M",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << {b}) & _M",
    "shr": "{a} >> {b}",
    "eq": "1 if {a} == {b} else 0",
    "ne": "1 if {a} != {b} else 0",
    "lt": "1 if {a} < {b} else 0",
    "le": "1 if {a} <= {b} else 0",
    "gt": "1 if {a} > {b} else 0",
    "ge": "1 if {a} >= {b} else 0",
    "blen": "({a}).bit_length()",
}


class LoweredProgram:
    """A program split into basic blocks plus its generated lane code.

    ``lane(tokens, out)`` returns a generator for one lane: each resume
    runs one block (appending outputs to ``out``) and yields the next
    block id. Block 0 is the entry; ``end`` means the lane is done.
    ``lengths[b]`` is block ``b``'s instruction count; ``simt_ops[b]``
    and ``scalar_ops[b]`` are its ``(category, count)`` histograms in
    first-appearance order under each executor's op categories.
    """

    __slots__ = ("end", "lengths", "simt_ops", "scalar_ops", "lane")

    def __init__(self, end, lengths, simt_ops, scalar_ops, lane):
        self.end = end
        self.lengths = lengths
        self.simt_ops = simt_ops
        self.scalar_ops = scalar_ops
        self.lane = lane


def op_histogram(block_ops, hits, order):
    """The dynamic opcode :class:`~collections.Counter` of a run that
    executed block ``b`` ``hits[b]`` times, first in ``order``.

    Visiting blocks in first-execution order and each block's categories
    in program order inserts every category at its first dynamic
    occurrence, so the key order equals per-instruction counting's.
    """
    counts = Counter()
    for block in order:
        times = hits[block]
        for category, count in block_ops[block]:
            counts[category] += times * count
    return counts


def _simt_category(instr):
    if instr.op == "bin":
        return "mul_alu" if instr.args[0] == "mul" else "bin"
    return instr.op


def _scalar_category(instr):
    if instr.op == "bin":
        return "mul_alu" if instr.args[0] == "mul" else "bin"
    if instr.op in ("brnz", "brz"):
        return "br"
    if instr.op == "halt":
        return None
    return instr.op


def _histogram(instrs, category):
    counts = Counter()
    for instr in instrs:
        name = category(instr)
        if name is not None:
            counts[name] += 1
    return tuple(counts.items())


def _leaders(instrs):
    n = len(instrs)
    leaders = {0} if n else set()
    for pc, instr in enumerate(instrs):
        op = instr.op
        if op not in OPCODES:
            raise FleetSimulationError(f"unknown opcode {op!r}")
        if op in _TERMINATORS:
            if pc + 1 < n:
                leaders.add(pc + 1)
            if op != "halt" and instr.args[-1] < n:
                leaders.add(instr.args[-1])
    return sorted(leaders)


class _Render:
    """Source renderer for one program's lane generator."""

    def __init__(self, program, bounds):
        self.program = program
        self.bounds = bounds
        self.block_of = {start: block for block, (start, _) in
                         enumerate(bounds)}
        self.end = len(bounds)
        self.lines = []

    def target(self, pc):
        return self.block_of.get(pc, self.end)

    def val(self, operand):
        if operand.is_reg:
            return f"r{operand.value}"
        value = operand.value
        return repr(value) if value >= 0 else f"({value!r})"

    def shift(self, operand):
        if operand.is_reg:
            return f"(r{operand.value} & 63)"
        return repr(operand.value & 63)

    def emit(self, indent, text):
        self.lines.append("    " * indent + text)

    def instr(self, instr, indent, fall):
        op, args, emit, val = instr.op, instr.args, self.emit, self.val
        if op == "bin":
            alu, rd, a, b = args
            rb = self.shift(b) if alu in ("shl", "shr") else val(b)
            expr = _ALU_SOURCE[alu].format(a=val(a), b=rb)
            emit(indent, f"r{rd} = {expr}")
        elif op == "li":
            emit(indent, f"r{args[0]} = {args[1] & MASK64!r}")
        elif op == "mov":
            emit(indent, f"r{args[0]} = r{args[1]}")
        elif op in ("load", "store"):
            base, off = val(args[1]), val(args[2])
            addr = base if off == "0" else f"{base} + {off}"
            if op == "load":
                emit(indent, f"r{args[0]} = mem[{addr}]")
            else:
                emit(indent, f"mem[{addr}] = {val(args[0])}")
        elif op == "outtok":
            emit(indent, f"emit({val(args[0])})")
        elif op == "br":
            emit(indent, f"b = {self.target(args[0])}")
        elif op == "brnz":
            taken = self.target(args[1])
            emit(indent, f"b = {taken} if {val(args[0])} else {fall}")
        elif op == "brz":
            taken = self.target(args[1])
            emit(indent, f"b = {fall} if {val(args[0])} else {taken}")
        elif op == "intok":
            emit(indent, "if pos < ntok:")
            emit(indent + 1, f"r{args[0]} = tokens[pos]")
            emit(indent + 1, "pos += 1")
            emit(indent + 1, f"b = {fall}")
            emit(indent, "else:")
            emit(indent + 1, f"b = {self.target(args[1])}")
        else:  # halt
            emit(indent, f"b = {self.end}")

    def block(self, block, indent):
        instrs = self.program.instrs
        start, stop = self.bounds[block]
        fall = block + 1
        for pc in range(start, stop):
            self.instr(instrs[pc], indent, fall)
        if instrs[stop - 1].op not in _TERMINATORS:
            self.emit(indent, f"b = {fall}")

    def tree(self, lo, hi, indent):
        if hi - lo == 1:
            self.block(lo, indent)
            return
        mid = (lo + hi) // 2
        self.emit(indent, f"if b < {mid}:")
        self.tree(lo, mid, indent + 1)
        self.emit(indent, "else:")
        self.tree(mid, hi, indent + 1)

    def source(self):
        program = self.program
        emit = self.emit
        emit(0, "def lane(tokens, out):")
        if program.n_regs:
            names = " = ".join(f"r{i}" for i in range(program.n_regs))
            emit(1, f"{names} = 0")
        emit(1, f"mem = [0] * {program.local_words}")
        emit(1, "emit = out.append")
        emit(1, "ntok = len(tokens)")
        emit(1, "pos = 0")
        emit(1, "b = 0")
        emit(1, "while True:")
        if self.end:
            self.tree(0, self.end, 2)
        else:
            emit(2, "pass")
        emit(2, "yield b")
        return "\n".join(self.lines) + "\n"


def lower(program):
    """Lower ``program`` into a :class:`LoweredProgram`; raises
    :class:`FleetSimulationError` for an unknown opcode."""
    instrs = program.instrs
    starts = _leaders(instrs)
    bounds = list(zip(starts, starts[1:] + [len(instrs)]))
    source = _Render(program, bounds).source()
    namespace = {"_M": MASK64}
    exec(compile(source, f"<isa-lowered:{program.name}>", "exec"),
         namespace)
    return LoweredProgram(
        len(bounds),
        tuple(stop - start for start, stop in bounds),
        tuple(_histogram(instrs[a:b], _simt_category) for a, b in bounds),
        tuple(_histogram(instrs[a:b], _scalar_category) for a, b in bounds),
        namespace["lane"],
    )
