"""Per-instruction ISA interpreters: the test oracle for the
block-lowered executors in :mod:`repro.isa.scalar` and :mod:`repro.isa.simt`.

These are the straightforward loops the block-lowered executors
replaced: the scalar one interprets one instruction per iteration, the
SIMT one issues the instruction at the minimum pc among active lanes and
runs it on every lane at that pc. They return the same result classes,
so tests compare every field directly.
"""

from collections import Counter

from repro.isa import WARP_SIZE, ScalarResult, SimtResult
from repro.isa.instructions import ALU_OPS, MASK64
from repro.lang import FleetSimulationError


class ReferenceScalarExecutor:
    """Executes one stream to completion, one instruction per iteration."""

    def __init__(self, program, *, max_steps=500_000_000):
        self.program = program
        self.max_steps = max_steps

    def run(self, tokens):
        program = self.program
        instrs = program.instrs
        regs = [0] * program.n_regs
        memory = [0] * program.local_words
        outputs = []
        counts = Counter()
        pos = 0
        pc = 0
        steps = 0
        n = len(instrs)
        alu_ops = ALU_OPS

        def value(operand):
            return regs[operand.value] if operand.is_reg else operand.value

        while pc < n:
            instr = instrs[pc]
            op = instr.op
            args = instr.args
            steps += 1
            if steps > self.max_steps:
                raise FleetSimulationError(
                    f"program {program.name!r} exceeded "
                    f"{self.max_steps} steps"
                )
            pc += 1
            if op == "bin":
                alu, rd, a, b = args
                regs[rd] = alu_ops[alu](value(a), value(b))
                counts["mul_alu" if alu == "mul" else "bin"] += 1
            elif op == "li":
                regs[args[0]] = args[1] & MASK64
                counts["li"] += 1
            elif op == "mov":
                regs[args[0]] = regs[args[1]]
                counts["mov"] += 1
            elif op == "load":
                addr = value(args[1]) + value(args[2])
                regs[args[0]] = memory[addr]
                counts["load"] += 1
            elif op == "store":
                addr = value(args[1]) + value(args[2])
                memory[addr] = value(args[0])
                counts["store"] += 1
            elif op == "br":
                pc = args[0]
                counts["br"] += 1
            elif op == "brnz":
                if value(args[0]):
                    pc = args[1]
                counts["br"] += 1
            elif op == "brz":
                if not value(args[0]):
                    pc = args[1]
                counts["br"] += 1
            elif op == "intok":
                if pos < len(tokens):
                    regs[args[0]] = tokens[pos]
                    pos += 1
                else:
                    pc = args[1]
                counts["intok"] += 1
            elif op == "outtok":
                outputs.append(value(args[0]))
                counts["outtok"] += 1
            elif op == "halt":
                break
            else:  # pragma: no cover
                raise FleetSimulationError(f"unknown opcode {op!r}")
        return ScalarResult(outputs, counts, steps)


class _Lane:
    __slots__ = ("regs", "memory", "pos", "pc", "active", "outputs",
                 "steps", "tokens")

    def __init__(self, program, tokens):
        self.regs = [0] * program.n_regs
        self.memory = [0] * program.local_words
        self.tokens = tokens
        self.pos = 0
        self.pc = 0
        self.active = True
        self.outputs = []
        self.steps = 0


class ReferenceSimtExecutor:
    """Executes up to 32 streams in lockstep, one instruction per warp
    issue, taking the minimum pc over all active lanes each time."""

    def __init__(self, program, *, max_issues=500_000_000):
        self.program = program
        self.max_issues = max_issues

    def run(self, streams):
        if not 1 <= len(streams) <= WARP_SIZE:
            raise FleetSimulationError(
                f"a warp runs 1..{WARP_SIZE} streams, got {len(streams)}"
            )
        program = self.program
        instrs = program.instrs
        n = len(instrs)
        lanes = [_Lane(program, tokens) for tokens in streams]
        warp_issues = 0
        counts = Counter()
        alu_ops = ALU_OPS

        while True:
            current = [lane for lane in lanes if lane.active]
            if not current:
                break
            pc = min(lane.pc for lane in current)
            if pc >= n:
                for lane in current:
                    if lane.pc >= n:
                        lane.active = False
                continue
            instr = instrs[pc]
            op = instr.op
            args = instr.args
            warp_issues += 1
            if op == "bin" and args[0] == "mul":
                counts["mul_alu"] += 1
            else:
                counts["bin" if op == "bin" else op] += 1
            if warp_issues > self.max_issues:
                raise FleetSimulationError(
                    f"warp exceeded {self.max_issues} issues"
                )
            for lane in current:
                if lane.pc != pc:
                    continue
                lane.steps += 1
                lane.pc += 1
                regs = lane.regs

                def value(operand, regs=regs):
                    return (
                        regs[operand.value] if operand.is_reg
                        else operand.value
                    )

                if op == "bin":
                    alu, rd, a, b = args
                    regs[rd] = alu_ops[alu](value(a), value(b))
                elif op == "li":
                    regs[args[0]] = args[1] & MASK64
                elif op == "mov":
                    regs[args[0]] = regs[args[1]]
                elif op == "load":
                    regs[args[0]] = lane.memory[
                        value(args[1]) + value(args[2])
                    ]
                elif op == "store":
                    lane.memory[value(args[1]) + value(args[2])] = value(
                        args[0]
                    )
                elif op == "br":
                    lane.pc = args[0]
                elif op == "brnz":
                    if value(args[0]):
                        lane.pc = args[1]
                elif op == "brz":
                    if not value(args[0]):
                        lane.pc = args[1]
                elif op == "intok":
                    if lane.pos < len(lane.tokens):
                        regs[args[0]] = lane.tokens[lane.pos]
                        lane.pos += 1
                    else:
                        lane.pc = args[1]
                elif op == "outtok":
                    lane.outputs.append(value(args[0]))
                elif op == "halt":
                    lane.active = False
                else:  # pragma: no cover
                    raise FleetSimulationError(f"unknown opcode {op!r}")
        return SimtResult(
            [lane.outputs for lane in lanes],
            warp_issues,
            [lane.steps for lane in lanes],
            counts,
        )
