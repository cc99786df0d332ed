"""Host-time spans recorded from outside the program.

The tracer wraps public functions of the layers under test — it never
edits the program. Each call becomes a :class:`Span` with its name,
``perf_counter_ns`` start and end, parent span (per thread), thread,
optional job/batch ids, and a few counts read off the arguments or the
return value. Spans stay in memory; :meth:`Tracer.write_perfetto`
exports them once, at the end, through the program's own
``repro.obs.tracer.TraceRecorder``. :meth:`Tracer.restore` puts every
wrapped binding back.
"""

import contextlib
import functools
import importlib
import sys
import threading
import time

from repro.obs.tracer import TraceRecorder


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "job", "args")

    def __init__(self, name, start, parent, tid, job=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.job = job
        self.args = None

    @property
    def duration(self):
        return self.end - self.start


def _lanes_tokens(args, kwargs, result):
    streams = args[1]
    return {"lanes": len(streams), "tokens": sum(len(s) for s in streams)}


def _batch_jobs(args, kwargs, result):
    batch = args[1]
    return {"batch": batch.batch_id,
            "jobs": sorted({e.job.job_id for e in batch.entries})}


def _batch_id(args, kwargs, result):
    return {"batch": args[1].batch_id}


def _channel_cycles(args, kwargs, result):
    return {"cycles": result.cycles}


def _scalar_steps(args, kwargs, result):
    return {"steps": result.steps}


def _simt_counts(args, kwargs, result):
    return {"warp_issues": result.warp_issues,
            "lane_steps": sum(result.lane_steps)}


def _job_id(args, kwargs, result):
    return {"job": result.job_id}


#: Every traced public function: (span name, module, qualified name,
#: argument/result extractor or None). Dotted qualified names are
#: methods, patched on their class; bare names are module functions,
#: patched wherever a ``repro`` module binds them.
TARGETS = (
    ("serve.submit", "repro.serve.server", "FleetServer.submit", _job_id),
    ("serve.cost.predict", "repro.serve.cost", "CostModel.predict", None),
    ("serve.scheduler.order", "repro.serve.scheduler",
     "WeightedFairQueue.order", None),
    ("serve.packing.pack", "repro.serve.packing", "SkewAwarePacker.pack",
     None),
    ("serve.cache.entry", "repro.serve.cache", "CompiledAppCache.entry",
     None),
    ("serve.device.enqueue", "repro.serve.device", "DeviceWorker.enqueue",
     _batch_jobs),
    ("serve.device.execute", "repro.serve.device", "DeviceWorker.execute",
     _batch_id),
    ("interp.batch.run", "repro.interp.batch", "run_batch_streams",
     _lanes_tokens),
    ("interp.cc.run", "repro.interp.cc", "CcSimulator.run", None),
    ("interp.compiled.run", "repro.interp.compile", "CompiledSimulator.run",
     None),
    ("setup.fast_engine_for", "repro.interp.compile", "fast_engine_for",
     None),
    ("setup.cc_engine_for", "repro.interp.cc", "cc_engine_for", None),
    ("setup.batch_engine_for", "repro.interp.batch", "batch_engine_for",
     None),
    ("setup.certificate_for", "repro.lint.certificate", "certificate_for",
     None),
    ("system.evaluate_fleet_app", "repro.system.system_sim",
     "evaluate_fleet_app", None),
    ("system.profile", "repro.system.system_sim", "profile_unit_marginal",
     None),
    ("memory.simulate_channels", "repro.memory.channel",
     "simulate_channels", _channel_cycles),
    ("compiler.compile_unit", "repro.compiler.unit_compiler",
     "compile_unit", None),
    ("baselines.cpu", "repro.baselines.cpu", "evaluate_cpu_app", None),
    ("baselines.gpu", "repro.baselines.gpu", "evaluate_gpu_app", None),
    ("isa.scalar.run", "repro.isa.scalar", "ScalarExecutor.run",
     _scalar_steps),
    ("isa.simt.run", "repro.isa.simt", "SimtExecutor.run", _simt_counts),
)


class Tracer:
    """Span recorder plus the wrap/restore bookkeeping."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._tids = {}
        self._patches = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self):
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def begin(self, name, job=None):
        stack = self._stack()
        span = Span(name, time.perf_counter_ns(),
                    stack[-1] if stack else None, self._tid(), job)
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter_ns()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name, job=None):
        """A span opened by the benchmark itself."""
        span = self.begin(name, job)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, name, fn, extract=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if extract is not None:
                span.args = extract(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------
    def install(self, targets=TARGETS):
        """Wrap every target; returns ``self``. On any failure the
        bindings patched so far are restored before re-raising."""
        try:
            for name, module_name, qualname, extract in targets:
                self._install_one(name, module_name, qualname, extract)
        except BaseException:
            self.restore()
            raise
        return self

    def _install_one(self, name, module_name, qualname, extract):
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original,
                        self.wrap(name, original, extract))
            return
        original = getattr(module, qualname)
        wrapper = self.wrap(name, original, extract)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every patched binding back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bindings(self):
        """``(owner, attribute)`` pairs currently patched."""
        return [(owner, attr) for owner, attr, _ in self._patches]

    # -- export --------------------------------------------------------------
    def write_perfetto(self, path):
        """Write the spans as a Chrome trace (microsecond timestamps
        relative to the first span) via ``TraceRecorder``."""
        recorder = TraceRecorder()
        recorder.process_name(1, "fleetbench host time")
        for tid in sorted(self._tids.values()):
            recorder.thread_name(1, tid, f"thread {tid}")
        origin = min((s.start for s in self.spans), default=0)
        for span in self.spans:
            args = dict(span.args or {})
            if span.job is not None:
                args["job"] = span.job
            if span.parent is not None:
                args["parent"] = span.parent.name
            recorder.complete(
                span.name, (span.start - origin) / 1000.0,
                (span.end - origin) / 1000.0, pid=1, tid=span.tid,
                args=args,
            )
        return recorder.write(path)


# ---------------------------------------------------------------------------
# Self time and per-name aggregation
# ---------------------------------------------------------------------------


def covered(start, end, intervals):
    """Length of ``[start, end)`` covered by the union of
    ``intervals`` (each clipped to the window)."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals
        if hi > start and lo < end
    )
    total, cursor = 0, start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans):
    """``{id(span): self_ns}``: each span's duration minus the part of
    its interval its child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(
                (span.start, span.end)
            )
    return {
        id(span): span.duration - covered(
            span.start, span.end, children.get(id(span), ())
        )
        for span in spans
    }


class Summary:
    """Per-name call counts, inclusive and self nanoseconds."""

    def __init__(self, spans):
        self.spans = spans
        selfs = self_times(spans)
        self.calls, self.incl, self.self_ns = {}, {}, {}
        for span in spans:
            name = span.name
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0) + span.duration
            self.self_ns[name] = self.self_ns.get(name, 0) + selfs[id(span)]

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def ms(self, name):
        return self.incl.get(name, 0) / 1e6

    def self_ms(self, name):
        return self.self_ns.get(name, 0) / 1e6

    def count(self, name):
        return self.calls.get(name, 0)

    def arg_sum(self, name, key):
        return sum((s.args or {}).get(key, 0) for s in self.named(name))

    def table(self, wall_ns):
        """Rows ``(name, calls, incl_ms, self_ms, share)`` by self time;
        ``share`` is self time over the traced window's wall time."""
        rows = [
            (name, self.calls[name], self.incl[name] / 1e6,
             self.self_ns[name] / 1e6,
             self.self_ns[name] / wall_ns if wall_ns else 0.0)
            for name in self.calls
        ]
        rows.sort(key=lambda row: -row[3])
        return rows


def format_table(rows):
    lines = [f"{'layer':34} {'calls':>8} {'incl ms':>11} {'self ms':>11} "
             f"{'share':>7}"]
    for name, calls, incl, own, share in rows:
        lines.append(f"{name:34} {calls:8d} {incl:11.1f} {own:11.1f} "
                     f"{100 * share:6.1f}%")
    return "\n".join(lines)
