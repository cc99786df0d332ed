"""Scalar execution of ISA programs — the CPU baseline's engine.

Runs one program over one token stream, producing the output stream and a
dynamic-instruction histogram. The CPU performance model
(:mod:`repro.baselines.cpu`) converts the histogram into cycles; the
*outputs* are cross-checked against the golden models and the Fleet units
by the test suite, so the baselines demonstrably compute the same thing.

The run drives the program's block-lowered lane generator
(:mod:`repro.isa.lower`) for a single lane: each resume executes one
basic block, and the step count and histogram follow from how often each
block ran. Op categories are the CPU model's: ``brnz``/``brz`` count as
``br``, and ``halt`` counts as a step but not as an op.
"""

from ..lang.errors import FleetSimulationError
from .lower import op_histogram


class ScalarResult:
    def __init__(self, outputs, op_counts, steps):
        self.outputs = outputs
        self.op_counts = op_counts
        self.steps = steps

    def __repr__(self):
        return f"ScalarResult({len(self.outputs)} out, {self.steps} instrs)"


class ScalarExecutor:
    """Executes one stream to completion."""

    def __init__(self, program, *, max_steps=500_000_000):
        self.program = program
        self.max_steps = max_steps

    def run(self, tokens):
        program = self.program
        lowered = program.lowered
        end = lowered.end
        lengths = lowered.lengths
        max_steps = self.max_steps
        outputs = []
        step = lowered.lane(tokens, outputs).__next__
        hits = [0] * end
        order = []  # blocks in first-run order
        steps = 0
        block = 0
        while block != end:
            steps += lengths[block]
            if steps > max_steps:
                raise FleetSimulationError(
                    f"program {program.name!r} exceeded "
                    f"{max_steps} steps"
                )
            if not hits[block]:
                order.append(block)
            hits[block] += 1
            block = step()
        return ScalarResult(
            outputs, op_histogram(lowered.scalar_ops, hits, order), steps
        )
