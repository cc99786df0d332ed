"""SIMT (lockstep warp) execution of ISA programs — the GPU baseline.

A warp of 32 lanes runs the same program over 32 different streams. Each
step, the scheduler issues the instruction at the minimum program counter
among active lanes; only lanes at that PC execute (the active mask). This
is the standard stackless-reconvergence model, and it charges exactly the
cost the paper attributes to GPUs on multi-stream workloads: when lanes
diverge (different stream contents take different branches), the warp
issues the union of all lanes' paths serially.

The key output is the **divergence factor**:

    warp_issues / mean(per-lane instructions)

1.0 means perfectly converged (identical streams); the paper measures the
effect at 2.33x for JSON parsing and 1.25x for integer coding by feeding
identical data to every stream, an experiment reproduced in
``benchmarks/bench_sec72_divergence.py``.

**Block-granular scheduling.** The warp does not interpret one
instruction at a time. Each lane is the program's block-lowered
generator (:mod:`repro.isa.lower`), and the scheduler works on basic
blocks: it resumes every lane whose next block has the minimum block id
(block ids follow start pcs), charges that block's length once as warp
issues and once per resumed lane as lane steps, and derives the opcode
histogram from per-block issue counts. This is exactly the
per-instruction min-PC rule:

* lanes never communicate, so a lane's path depends only on its own
  stream, whatever the schedule;
* every lane not running sits at a block leader (initially pc 0, and a
  lane stops only after a block's last instruction, whose successor is a
  branch target, a fall-through leader, or the end);
* a block's interior pcs are never leaders, so while the lanes at the
  minimum leader ``p`` run its block, every other lane is at a leader at
  or beyond the block's end; the running lanes' pc stays the strict
  minimum until they leave the block, and the per-instruction rule would
  issue the block's instructions back to back to exactly those lanes.

So ``outputs``, ``warp_issues``, ``lane_steps`` and ``op_counts`` (key
order included: blocks are replayed in first-issue order) equal the
per-instruction executor's.
"""

from ..lang.errors import FleetSimulationError
from .lower import op_histogram

WARP_SIZE = 32


class SimtResult:
    def __init__(self, outputs, warp_issues, lane_steps, op_counts):
        self.outputs = outputs  # list per lane
        self.warp_issues = warp_issues
        self.lane_steps = lane_steps
        self.op_counts = op_counts  # warp-level opcode histogram

    @property
    def divergence_factor(self):
        active = [s for s in self.lane_steps if s]
        if not active:
            return 1.0
        return self.warp_issues / (sum(active) / len(active))

    def __repr__(self):
        return (
            f"SimtResult(warp_issues={self.warp_issues}, "
            f"divergence={self.divergence_factor:.2f}x)"
        )


class SimtExecutor:
    """Executes up to 32 streams in lockstep."""

    def __init__(self, program, *, max_issues=500_000_000):
        self.program = program
        self.max_issues = max_issues

    def run(self, streams):
        if not 1 <= len(streams) <= WARP_SIZE:
            raise FleetSimulationError(
                f"a warp runs 1..{WARP_SIZE} streams, got {len(streams)}"
            )
        lowered = self.program.lowered
        end = lowered.end
        lengths = lowered.lengths
        max_issues = self.max_issues
        outputs = [[] for _ in streams]
        resume = [
            lowered.lane(tokens, out).__next__
            for tokens, out in zip(streams, outputs)
        ]
        lane_steps = [0] * len(streams)
        hits = [0] * end
        order = []  # blocks in first-run order
        warp_issues = 0
        # block id -> lanes whose next block it is (finished lanes drop out)
        waiting = {0: list(range(len(streams)))} if end else {}
        while waiting:
            block = min(waiting)
            lanes = waiting.pop(block)
            size = lengths[block]
            warp_issues += size
            if warp_issues > max_issues:
                raise FleetSimulationError(
                    f"warp exceeded {max_issues} issues"
                )
            if not hits[block]:
                order.append(block)
            hits[block] += 1
            for lane in lanes:
                lane_steps[lane] += size
                successor = resume[lane]()
                if successor != end:
                    group = waiting.get(successor)
                    if group is None:
                        waiting[successor] = [lane]
                    else:
                        group.append(lane)
        return SimtResult(
            outputs, warp_issues, lane_steps,
            op_histogram(lowered.simt_ops, hits, order),
        )
