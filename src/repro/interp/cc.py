"""Native (C) per-unit engine: certified specialization compiled to C.

The compiled engine (:mod:`repro.interp.compile`) lowers a program to
specialized Python; with a clean certificate its codegen additionally
deletes every guard the interval domain proves redundant. This module
takes the same certified IR one tier further: the *specialized* cycle —
dead arms gone, masks elided, registers written in place under the
snapshot-read scheme, temporaries sunk to their branch regions — is
rendered as C instead of Python and compiled through cffi (the shared
:mod:`repro.interp.native` machinery, with its content-addressed
on-disk build cache).

The cc engine is **certified-only** by design: it inherits the
specialized renderer, whose soundness rests on the certificate, and a
certificate also proves the dynamic restriction checks unnecessary — so
the native kernel performs none. An uncertified program never gets a
native kernel (:func:`cc_engine_for` returns ``None``; the forced
``engine="cc"`` path raises).

Two kernel entry points mirror the compiled engine's incremental API:
``fleet_tokens`` runs a batch of input tokens (phase 0: ``sf`` folded to
0) and ``fleet_finish`` runs the post-stream cleanup cycle (phase 1:
``sf`` folded to 1, the input token folded to 0). State crosses the FFI
boundary as two flat ``uint64_t`` buffers (registers, then every vector
register and BRAM concatenated), packed from — and on success unpacked
back into — the simulator's Python-list state, so
:class:`CcSimulator` stays a drop-in
:class:`~repro.interp.compile.CompiledSimulator` replacement (same
outputs, trace, peeks, and error surface). A third entry point,
``fleet_lanes``, runs one stream per lane through the other two over
flat lane buffers; it is the native tier of the batch engine
(:mod:`repro.interp.batch`), so both share one kernel build.

Error protocol (``err[0]``): ``1`` loop limit at token ``err[1]``; ``2``
output capacity exhausted (the driver grows the buffer and reruns from
the unchanged Python-side state — invisible to callers); ``3`` a token
wider than the declared input width at index ``err[1]``. ``err[2]``
always carries the output count produced before the fault, so partial
outputs and per-token trace entries match the compiled engine exactly.
``fleet_lanes`` passes its callee's code through with ``err[1]`` set
to the failing lane.

Everything degrades gracefully: no toolchain, ``FLEET_NATIVE=off``, an
uncertified or unsupported program — each makes :func:`cc_engine_for`
decline (counted in telemetry), and ``make_simulator`` falls back to the
compiled tiers.
"""

import re
import time

from ..lang import ast
from ..lang.errors import FleetLoopLimitError, FleetSimulationError
from ..lang.types import MACHINE_WIDTH, machine_bits, mask
from ..telemetry.metrics import counter as _tm_counter
from ..telemetry.metrics import enabled as _tm_enabled
from ..telemetry.metrics import histogram as _tm_histogram
from . import native as _native
from .compile import (
    _LEAF_NODES,
    _Codegen,
    _state_shape_ok,
    _Unsupported,
)
from .native import _cc_load, cc_available
from .trace import StreamTrace

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_CC_COMPILES = _tm_counter(
    "fleet_cc_compiles_total",
    "Unit programs lowered to the native cc engine",
)
_CC_FALLBACKS = _tm_counter(
    "fleet_cc_fallbacks_total",
    "cc_engine_for() declined and callers fell back to the compiled "
    "tiers",
    ("reason",),
)
_CC_BUILD_SECONDS = _tm_histogram(
    "fleet_cc_build_seconds",
    "Wall-clock seconds per native (cffi) cc-kernel build or load",
)

_BIN_OPS = frozenset((
    "add", "sub", "mul", "and", "or", "xor", "shl", "shr",
    "eq", "ne", "lt", "le", "gt", "ge",
))
_CMP_OPS = frozenset(("eq", "ne", "lt", "le", "gt", "ge"))
_UN_OPS = frozenset(("not", "lnot", "orr", "andr", "xorr"))


def cc_support(program):
    """Whether ``program``'s *shape* fits the native cc engine.

    Returns ``(True, "")`` or ``(False, reason)``. The conditions are
    the compiled engine's totality gate (power-of-two state) plus the
    machine-word gate shared with the batch engine: every expression
    must fit a 64-bit word so C arithmetic is exact. Certification and
    toolchain availability are separate gates (see
    :func:`compile_cc` / :func:`cc_engine_for`).
    """
    if not _state_shape_ok(program):
        return False, (
            "every BRAM and vector register needs a power-of-two "
            "element count"
        )
    if machine_bits(program.input_width) is None:
        return False, f"input width {program.input_width} exceeds 64 bits"
    if machine_bits(program.output_width) is None:
        return False, f"output width {program.output_width} exceeds 64 bits"
    roots = []
    for stmt in ast.walk_statements(program.body):
        roots.extend(ast.statement_exprs(stmt))
    seen = set()
    for root in roots:
        for node in ast.walk_expr(root):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.Const):
                if node.value > mask(MACHINE_WIDTH):
                    return False, (
                        f"constant {node.value} exceeds a 64-bit machine "
                        "word"
                    )
                continue
            if machine_bits(node.width) is None:
                return False, (
                    f"expression width {node.width} exceeds a 64-bit "
                    "machine word"
                )
            if isinstance(node, ast.BinOp):
                if node.op not in _BIN_OPS:
                    return False, f"unsupported operator {node.op!r}"
            elif isinstance(node, ast.UnOp):
                if node.op not in _UN_OPS:
                    return False, f"unsupported operator {node.op!r}"
            elif not isinstance(node, (
                ast.InputToken, ast.StreamFinished, ast.RegRead,
                ast.WireRead, ast.VectorRegRead, ast.BramRead, ast.Mux,
                ast.Slice, ast.Concat,
            )):
                return False, f"unsupported node {node!r}"
    return True, ""


# ---------------------------------------------------------------------------
# Code generation (C surface over the specialized IR)
# ---------------------------------------------------------------------------


class _UnitCCodegen(_Codegen):
    """Renders the certified-specialized cycle of one program as C.

    Subclasses the compiled engine's codegen *with facts*, so the entire
    specialization pipeline — dead-arm elimination, phase splitting,
    mask/guard elision, constant folding, snapshot-read registers,
    region-sunk temporaries, direct emits — is inherited; only the
    surface syntax changes. The virtual-cycle semantics (reads see
    start-of-cycle state, pending vreg/BRAM writes commit last-wins at
    end of cycle, leaves outside whiles fire only on the ``while_done``
    cycle) are therefore identical to the specialized Python engine by
    construction.
    """

    def __init__(self, program, facts):
        if facts is None:
            raise _Unsupported("the cc engine is certified-only")
        super().__init__(program, facts=facts)

    # -- expression rendering (C) -------------------------------------------
    def _shift(self, node, cop, helper):
        """Render a shift: plain C ``<<``/``>>`` when the amount is
        provably below 64 (a constant, a narrow operand, or an interval
        fact), else through the saturating helper — C shifts by >= 64
        are undefined where Python's are total."""
        lhs, rhs = self._render(node.lhs), self._render(node.rhs)
        amount = node.rhs
        safe = False
        if isinstance(amount, ast.Const):
            safe = amount.value <= 63
        elif mask(amount.width) <= 63:
            safe = True
        else:
            bound = self.facts.interval(self._key(amount))
            safe = bound is not None and bound[1] <= 63
        if safe:
            return f"({lhs} {cop} {rhs})"
        return f"{helper}({lhs}, {rhs})"

    def _render_body(self, node):
        if isinstance(node, ast.Const):
            return f"{node.value}ULL"
        if not isinstance(node, _LEAF_NODES):
            folded = self.facts.constant(self._key(node))
            if folded is not None:
                self._elide("const_folds")
                return f"{folded}ULL"
        if isinstance(node, ast.InputToken):
            return "0ULL" if self._phase == 1 else "_tok"
        if isinstance(node, ast.StreamFinished):
            # cc renders are always phase-split (0 or 1).
            return f"{self._phase}ULL"
        if isinstance(node, ast.RegRead):
            return self._reg_read_name[node.reg]
        if isinstance(node, ast.WireRead):
            return self._render(node.wire.value)
        if isinstance(node, ast.VectorRegRead):
            index = self._trunc(node.index, node.vreg.index_width,
                                kind="addr_masks")
            return f"{self.vreg_name[node.vreg]}[{index}]"
        if isinstance(node, ast.BramRead):
            addr = self._trunc(node.addr, node.bram.addr_width,
                               kind="addr_masks")
            return f"{self.bram_name[node.bram]}[{addr}]"
        if isinstance(node, ast.BinOp):
            op = node.op
            if op == "shl":
                return self._shift(node, "<<", "_shl64")
            if op == "shr":
                return self._shift(node, ">>", "_shr64")
            lhs, rhs = self._render(node.lhs), self._render(node.rhs)
            if op in ("add", "mul", "and", "or", "xor"):
                c = {"add": "+", "mul": "*", "and": "&",
                     "or": "|", "xor": "^"}[op]
                return f"({lhs} {c} {rhs})"
            if op in _CMP_OPS:
                c = {"eq": "==", "ne": "!=", "lt": "<",
                     "le": "<=", "gt": ">", "ge": ">="}[op]
                return f"((uint64_t)({lhs} {c} {rhs}))"
            if op == "sub":
                if self.facts.sub_exact(self._key(node.lhs),
                                        self._key(node.rhs)):
                    self._elide("sub_masks")
                    return f"({lhs} - {rhs})"
                return f"(({lhs} - {rhs}) & {hex(mask(node.width))}ULL)"
            raise _Unsupported(node)
        if isinstance(node, ast.UnOp):
            a = self._render(node.operand)
            w = node.operand.width
            if node.op == "not":
                return f"((~{a}) & {hex(mask(w))}ULL)"
            if node.op == "lnot":
                return f"((uint64_t)({a} == 0))"
            if node.op == "orr":
                return f"((uint64_t)({a} != 0))"
            if node.op == "andr":
                return f"((uint64_t)({a} == {hex(mask(w))}ULL))"
            if node.op == "xorr":
                return f"((uint64_t)(__builtin_popcountll({a}) & 1))"
            raise _Unsupported(node)
        if isinstance(node, ast.Mux):
            cond = self._render(node.cond)
            then = self._render(node.then)
            els = self._render(node.els)
            return f"({cond} ? ({then}) : ({els}))"
        if isinstance(node, ast.Slice):
            a = self._render(node.operand)
            if node.lo == 0 and node.width == node.operand.width:
                return a
            shifted = a if node.lo == 0 else f"({a} >> {node.lo})"
            if self._fits(node.operand, node.hi + 1):
                self._elide("slice_masks")
                return shifted
            return f"({shifted} & {hex(mask(node.width))}ULL)"
        if isinstance(node, ast.Concat):
            # Concat width fits 64 bits (cc_support), so every
            # constant part-shift is < 64: plain C << is defined.
            out = self._render(node.parts[0])
            for part in node.parts[1:]:
                out = f"(({out} << {part.width}) | {self._render(part)})"
            return out
        raise _Unsupported(node)

    def _trunc(self, node, width, kind="value_masks"):
        rendered = self._render(node)
        if node.width > width:
            if self._fits(node, width):
                self._elide(kind)
                return rendered
            return f"({rendered} & {hex(mask(width))}ULL)"
        return rendered

    def _trunc_at(self, node, width, location, role, kind):
        rendered = self._render(node)
        if node.width > width:
            if self._site_fits(node, width, location, role):
                self._elide(kind)
                return rendered
            return f"({rendered} & {hex(mask(width))}ULL)"
        return rendered

    # -- statement rendering (C) --------------------------------------------
    def _emit_pass1(self, lines, body, indent):
        pad = "    " * indent
        wrote = False
        for stmt in body:
            if isinstance(stmt, ast.While):
                if not self._live_while(stmt):
                    continue
                cond = self._render(stmt.cond)
                lines.append(f"{pad}if (_wd && {cond}) _wd = 0;")
                wrote = True
            elif isinstance(stmt, ast.If) and \
                    self._contains_live_while(stmt):
                lines.append(f"{pad}if (_wd) {{")
                first = True
                for cond, arm_body, _j in self._live_arms(stmt):
                    if cond is not None:
                        kw = "if" if first else "} else if"
                        rendered = self._render(cond)
                        lines.append(f"{pad}    {kw} ({rendered}) {{")
                    else:
                        lines.append(
                            f"{pad}    "
                            + ("if (1) {" if first else "} else {")
                        )
                    first = False
                    self._emit_pass1(lines, arm_body, indent + 2)
                lines.append(f"{pad}    }}")
                lines.append(f"{pad}}}")
                wrote = True
        return wrote

    def _leaf_code(self, stmt, location):
        if isinstance(stmt, ast.RegAssign):
            index = self.program.regs.index(stmt.reg)
            value = self._trunc_at(stmt.value, stmt.reg.width,
                                   location, "value", "value_masks")
            # Snapshot-read scheme (inherited): reads render as the
            # `_o{i}` snapshot, so the write lands in place.
            self._elide("reg_sentinels")
            return f"_r{index} = {value};"
        if isinstance(stmt, ast.VectorRegAssign):
            index = self.program.vregs.index(stmt.vreg)
            idx = self._trunc_at(stmt.index, stmt.vreg.index_width,
                                 location, "addr", "addr_masks")
            value = self._trunc_at(stmt.value, stmt.vreg.width,
                                   location, "value", "value_masks")
            if self.vreg_sites[stmt.vreg] == 1:
                if stmt.vreg in self._uncond_vregs:
                    return f"_pvi{index} = {idx}; _pvv{index} = {value};"
                return (f"_pvi{index} = {idx}; _pvv{index} = {value}; "
                        f"_pvs{index} = 1;")
            # Each syntactic site runs at most once per virtual cycle,
            # so the fixed-size queue can never overflow.
            return (f"_pqi{index}[_pqn{index}] = {idx}; "
                    f"_pqv{index}[_pqn{index}] = {value}; _pqn{index}++;")
        if isinstance(stmt, ast.BramWrite):
            index = self.program.brams.index(stmt.bram)
            addr = self._trunc_at(stmt.addr, stmt.bram.addr_width,
                                  location, "addr", "addr_masks")
            value = self._trunc_at(stmt.value, stmt.bram.width,
                                   location, "value", "value_masks")
            if stmt.bram in self._uncond_brams:
                return f"_pbi{index} = {addr}; _pbv{index} = {value};"
            return (f"_pbi{index} = {addr}; _pbv{index} = {value}; "
                    f"_pbs{index} = 1;")
        if isinstance(stmt, ast.Emit):
            value = self._trunc_at(stmt.value, self.program.output_width,
                                   location, "value", "value_masks")
            # Certified emit exclusivity (inherited direct-emit): append
            # straight to the output buffer, growing via err=2 retries.
            self._elide("direct_emits")
            return ("if (_outn >= out_cap) { err[0] = 2; return -1; } "
                    f"out_vals[_outn++] = {value}; _emits++;")
        raise _Unsupported(stmt)

    def _emit_pass2(self, lines, body, indent, in_loop, path="body",
                    region=()):
        pad = "    " * indent
        wrote = False
        pending = []
        # Temps sunk to this branch region: declared at region entry,
        # before any condition or leaf referencing them.
        for code in self._region_temps.get(region, ()) if region else ():
            name, expr = code.split(" = ", 1)
            lines.append(f"{pad}uint64_t {name} = {expr};")
            wrote = True

        def flush():
            nonlocal wrote
            if not pending:
                return
            if in_loop or self._straightline:
                for code in pending:
                    lines.append(pad + code)
            else:
                lines.append(f"{pad}if (_wd) {{")
                for code in pending:
                    lines.append(f"{pad}    {code}")
                lines.append(f"{pad}}}")
            pending.clear()
            wrote = True

        for i, stmt in enumerate(body):
            loc = f"{path}[{i}]"
            if isinstance(stmt, ast.If):
                live = self._live_arms(stmt)
                if not live:
                    continue
                flush()
                first = True
                for cond, arm_body, j in live:
                    if cond is not None:
                        kw = "if" if first else "} else if"
                        rendered = self._render(cond)
                        lines.append(f"{pad}{kw} ({rendered}) {{")
                    else:
                        lines.append(
                            pad + ("if (1) {" if first else "} else {")
                        )
                    first = False
                    self._emit_pass2(
                        lines, arm_body, indent + 1, in_loop,
                        f"{loc}.arm[{j}].body",
                        region + ((id(stmt), j),),
                    )
                lines.append(f"{pad}}}")
                wrote = True
            elif isinstance(stmt, ast.While):
                if not self._live_while(stmt):
                    continue
                flush()
                cond = self._render(stmt.cond)
                lines.append(f"{pad}if ({cond}) {{")
                self._emit_pass2(
                    lines, stmt.body, indent + 1, True, f"{loc}.body",
                    region + ((id(stmt), -1),),
                )
                lines.append(f"{pad}}}")
                wrote = True
            else:
                if indent == 0 and self._straightline and not in_loop:
                    self._mark_unconditional(stmt)
                pending.append(self._leaf_code(stmt, loc))
        flush()
        return wrote

    # -- assembly -----------------------------------------------------------
    def _cycle_lines(self):
        roots = self._collect_roots()
        lines = []
        for i, reg in enumerate(self.program.regs):
            if reg in self._snap_regs:
                lines.append(f"uint64_t _o{i} = _r{i};")
        for hoist in self._hoist_lines(roots):
            name, body = hoist.split(" = ", 1)
            lines.append(f"uint64_t {name} = {body};")
        if not self._straightline:
            lines.append("int _wd = 1;")
            self._emit_pass1(lines, self.program.body, 0)
        # Pass 2 renders first: rendering discovers which pending writes
        # provably land every cycle (their sentinel test is dropped).
        body_lines = []
        self._emit_pass2(body_lines, self.program.body, 0, False)
        for i, vreg in enumerate(self.program.vregs):
            sites = self.vreg_sites.get(vreg, 0)
            if sites == 1:
                if vreg in self._uncond_vregs:
                    lines.append(f"uint64_t _pvi{i} = 0, _pvv{i} = 0;")
                else:
                    lines.append(
                        f"uint64_t _pvi{i} = 0, _pvv{i} = 0; "
                        f"int _pvs{i} = 0;"
                    )
            elif sites > 1:
                lines.append(
                    f"uint64_t _pqi{i}[{sites}], _pqv{i}[{sites}]; "
                    f"int _pqn{i} = 0;"
                )
        for i, bram in enumerate(self.program.brams):
            if bram not in self.written_brams:
                continue
            if bram in self._uncond_brams:
                lines.append(f"uint64_t _pbi{i} = 0, _pbv{i} = 0;")
            else:
                lines.append(f"uint64_t _pbi{i} = 0, _pbv{i} = 0; "
                             f"int _pbs{i} = 0;")
        lines.extend(body_lines)
        # Commit: pending vreg/BRAM writes land together at end of cycle
        # (registers landed in place; emits appended directly).
        for i, vreg in enumerate(self.program.vregs):
            sites = self.vreg_sites.get(vreg, 0)
            if vreg in self._uncond_vregs:
                self._elide("uncond_commits")
                lines.append(f"_v{i}[_pvi{i}] = _pvv{i};")
            elif sites == 1:
                lines.append(f"if (_pvs{i}) _v{i}[_pvi{i}] = _pvv{i};")
            elif sites > 1:
                lines.append(
                    f"for (int _q = 0; _q < _pqn{i}; _q++) "
                    f"_v{i}[_pqi{i}[_q]] = _pqv{i}[_q];"
                )
        for i, bram in enumerate(self.program.brams):
            if bram in self._uncond_brams:
                self._elide("uncond_commits")
                lines.append(f"_b{i}[_pbi{i}] = _pbv{i};")
            elif bram in self.written_brams:
                lines.append(f"if (_pbs{i}) _b{i}[_pbi{i}] = _pbv{i};")
        return lines

    def _emit_state_locals(self, out, pad):
        program = self.program
        for i in range(len(program.regs)):
            out(f"{pad}uint64_t _r{i} = regs[{i}];")
        off = 0
        for i, vreg in enumerate(program.vregs):
            out(f"{pad}uint64_t *_v{i} = state + {off};")
            off += vreg.elements
        for i, bram in enumerate(program.brams):
            out(f"{pad}uint64_t *_b{i} = state + {off};")
            off += bram.elements
        return off

    def _emit_reg_repack(self, out, pad):
        for i in range(len(self.program.regs)):
            out(f"{pad}regs[{i}] = _r{i};")

    def _emit_cycle_at(self, out, cycle, straightline, pad, err_ti):
        """Emit one virtual-cycle execution (loop or collapsed
        straight-line) writing ``_lvc`` with the cycle count. Error
        returns repack registers first so faulting streams leave state
        behind exactly like the compiled engine's ``finally``."""
        if straightline:
            for line in cycle:
                out(pad + line)
            out(f"{pad}_lvc = 1;")
            return
        out(f"{pad}_lvc = 0;")
        out(f"{pad}for (;;) {{")
        out(f"{pad}    _lvc++;")
        for line in cycle:
            out(f"{pad}    " + line)
        out(f"{pad}    if (_wd) break;")
        out(f"{pad}    if (_lvc >= max_vc) {{")
        out(f"{pad}        err[0] = 1; err[1] = {err_ti}; "
            "err[2] = _outn;")
        self._emit_reg_repack(out, pad + "        ")
        out(f"{pad}        return -1;")
        out(f"{pad}    }}")
        out(f"{pad}}}")

    def generate(self):
        program = self.program
        tok_cycle, tok_straight = self._render_cycle(0)
        fin_cycle, fin_straight = self._render_cycle(1)
        in_mask = mask(program.input_width)
        lines = []
        out = lines.append
        out("#include <stdint.h>")
        out("")
        out("static inline uint64_t _shl64(uint64_t a, uint64_t b)")
        out("{ return b > 63 ? 0 : a << b; }")
        out("static inline uint64_t _shr64(uint64_t a, uint64_t b)")
        out("{ return b > 63 ? 0 : a >> b; }")
        out("")
        out("int fleet_tokens(const uint64_t *toks, int64_t n,")
        out("                 uint64_t *regs, uint64_t *state,")
        out("                 int64_t max_vc,")
        out("                 uint64_t *out_vals, int64_t out_cap,")
        out("                 int32_t *vcs, int32_t *ems, int64_t *err)")
        out("{")
        self._emit_state_locals(out, "    ")
        out("    int64_t _outn = 0;")
        out("    int32_t _lvc = 0;")
        out("    for (int64_t _ti = 0; _ti < n; _ti++) {")
        out("        uint64_t _tok = toks[_ti];")
        if in_mask < mask(MACHINE_WIDTH):
            # Tokens already fitting 64 bits can still exceed the
            # declared input width; validated in-kernel for the exact
            # failing index (width == 64 needs no check).
            out(f"        if (_tok > {hex(in_mask)}ULL) {{")
            out("            err[0] = 3; err[1] = _ti; err[2] = _outn;")
            self._emit_reg_repack(out, "            ")
            out("            return -1;")
            out("        }")
        out("        int32_t _emits = 0;")
        self._emit_cycle_at(out, tok_cycle, tok_straight, "        ",
                            "_ti")
        out("        vcs[_ti] = _lvc;")
        out("        ems[_ti] = _emits;")
        out("    }")
        self._emit_reg_repack(out, "    ")
        out("    err[0] = 0; err[2] = _outn;")
        out("    return 0;")
        out("}")
        out("")
        out("int fleet_finish(uint64_t *regs, uint64_t *state,")
        out("                 int64_t max_vc,")
        out("                 uint64_t *out_vals, int64_t out_cap,")
        out("                 int32_t *vcs, int32_t *ems, int64_t *err)")
        out("{")
        self._emit_state_locals(out, "    ")
        out("    int64_t _outn = 0;")
        out("    int32_t _lvc = 0;")
        out("    int32_t _emits = 0;")
        self._emit_cycle_at(out, fin_cycle, fin_straight, "    ", "0")
        out("    vcs[0] = _lvc;")
        out("    ems[0] = _emits;")
        self._emit_reg_repack(out, "    ")
        out("    err[0] = 0; err[2] = _outn;")
        out("    return 0;")
        out("}")
        out("")
        lines.extend(_LANES_SOURCE)
        return "\n".join(lines) + "\n"


#: The batch engine's lane driver (program-independent): one stream per
#: lane, run through ``fleet_tokens`` then ``fleet_finish`` on that
#: lane's slice of one flat token buffer (``offs`` has ``N + 1``
#: entries), its row of ``(N, R)`` registers and ``(N, S)`` state, and
#: its ``len + 1`` per-token counts at ``offs[lane] + lane``. Outputs
#: append lane after lane; a fault stops the batch with ``err[1]`` set
#: to the failing lane.
_LANES_SOURCE = (
    "int fleet_lanes(const uint64_t *toks, const int64_t *offs, int64_t N,",
    "                uint64_t *regs, int64_t R, uint64_t *state, int64_t S,",
    "                int64_t max_vc,",
    "                uint64_t *out_vals, int64_t out_cap, int64_t *out_cnt,",
    "                int32_t *vcs, int32_t *ems, int64_t *err)",
    "{",
    "    int64_t _outn = 0;",
    "    for (int64_t _lane = 0; _lane < N; _lane++) {",
    "        int64_t _at = offs[_lane], _n = offs[_lane + 1] - _at;",
    "        uint64_t *_regs = regs + _lane * R, *_state = state + _lane * S;",
    "        int32_t *_vcs = vcs + _at + _lane, *_ems = ems + _at + _lane;",
    "        int64_t _start = _outn;",
    "        if (fleet_tokens(toks + _at, _n, _regs, _state, max_vc,",
    "                         out_vals + _outn, out_cap - _outn,",
    "                         _vcs, _ems, err)) {",
    "            err[1] = _lane;",
    "            return -1;",
    "        }",
    "        _outn += err[2];",
    "        if (fleet_finish(_regs, _state, max_vc,",
    "                         out_vals + _outn, out_cap - _outn,",
    "                         _vcs + _n, _ems + _n, err)) {",
    "            err[1] = _lane;",
    "            return -1;",
    "        }",
    "        _outn += err[2];",
    "        out_cnt[_lane] = _outn - _start;",
    "    }",
    "    err[0] = 0;",
    "    return 0;",
    "}",
)


_CDEF = (
    "int fleet_tokens(const uint64_t *toks, int64_t n, uint64_t *regs, "
    "uint64_t *state, int64_t max_vc, uint64_t *out_vals, "
    "int64_t out_cap, int32_t *vcs, int32_t *ems, int64_t *err);\n"
    "int fleet_finish(uint64_t *regs, uint64_t *state, int64_t max_vc, "
    "uint64_t *out_vals, int64_t out_cap, int32_t *vcs, int32_t *ems, "
    "int64_t *err);\n"
    "int fleet_lanes(const uint64_t *toks, const int64_t *offs, int64_t N, "
    "uint64_t *regs, int64_t R, uint64_t *state, int64_t S, "
    "int64_t max_vc, uint64_t *out_vals, int64_t out_cap, "
    "int64_t *out_cnt, int32_t *vcs, int32_t *ems, int64_t *err);"
)


class CcUnit:
    """A Fleet program lowered to a native (C) kernel.

    ``lib``/``ffi`` expose the kernel entry points; ``source`` is
    the generated C (debugging and golden-snapshot hook); ``elisions``
    counts what certified specialization deleted during the lowering
    (the same taxonomy as the specialized Python engine).
    """

    __slots__ = ("program", "lib", "ffi", "source", "elisions",
                 "state_size", "specialized")

    def __init__(self, program, lib, ffi, source, elisions, state_size):
        self.program = program
        self.lib = lib
        self.ffi = ffi
        self.source = source
        self.elisions = elisions
        self.state_size = state_size
        self.specialized = True


def compile_cc(program, certificate=None):
    """Lower ``program`` to a :class:`CcUnit` (native kernel).

    Certified-only: with ``certificate=None`` the (memoized)
    certificate is fetched via
    :func:`repro.lint.certificate.certificate_for`; a rejected, stale,
    or fact-less certificate is **refused** with a hard error, exactly
    like :func:`repro.interp.compile.compile_program`'s specialization
    path. Raises :class:`FleetSimulationError` when the program shape
    is unsupported or no C toolchain is available; use
    :func:`try_compile_cc` / :func:`cc_engine_for` for the optional
    variants.
    """
    from ..lint.certificate import certificate_for

    if certificate is None:
        certificate = certificate_for(program)
    if not certificate.ok:
        raise FleetSimulationError(
            f"program {program.name!r}: refusing native specialization — "
            "certificate is rejected"
        )
    if not certificate.covers(program):
        raise FleetSimulationError(
            f"program {program.name!r}: refusing native specialization — "
            "certificate fingerprint does not match (stale or mismatched "
            "certificate)"
        )
    if certificate.facts is None:
        raise FleetSimulationError(
            f"program {program.name!r}: refusing native specialization — "
            "certificate carries no specialization facts"
        )
    ok, reason = cc_support(program)
    if not ok:
        raise FleetSimulationError(
            f"program {program.name!r} cannot take the native cc engine: "
            f"{reason}"
        )
    if not cc_available():
        raise FleetSimulationError(
            "no working C toolchain for the native cc engine "
            f"(FLEET_NATIVE={'off' if not _native.native_enabled() else 'auto'},"
            f" last error: {_native.last_error()!r})"
        )
    started = time.perf_counter() if _tm_enabled() else None
    try:
        codegen = _UnitCCodegen(program, certificate.facts)
        source = codegen.generate()
    except _Unsupported as exc:
        raise FleetSimulationError(
            f"program {program.name!r} cannot take the native cc engine: "
            f"unsupported node {exc.args[0]!r}"
        ) from None
    state_size = sum(v.elements for v in program.vregs) + \
        sum(b.elements for b in program.brams)
    tag = re.sub(r"\W+", "_", program.name)[:24] or "prog"
    try:
        lib, ffi = _cc_load(_CDEF, source, tag)
    except Exception as exc:
        _native.set_last_error(exc)
        raise FleetSimulationError(
            f"native cc kernel build failed for {program.name!r}: {exc}"
        ) from exc
    if started is not None:
        _CC_COMPILES.inc()
        _CC_BUILD_SECONDS.observe(time.perf_counter() - started)
    return CcUnit(program, lib, ffi, source, dict(codegen.elisions),
                  state_size)


def try_compile_cc(program, certificate=None):
    """:func:`compile_cc`, returning ``None`` on any failure.

    The result (including failure) is cached on the program object —
    programs are immutable once built. An explicitly supplied
    certificate bypasses the failure cache (it may newly apply) but
    shares the success cache (facts derive deterministically from the
    program, so any applicable certificate builds the same kernel).
    """
    cached = getattr(program, "_fleet_cc", False)
    if cached is not False and (cached is not None
                                or certificate is None):
        return cached
    try:
        unit = compile_cc(program, certificate=certificate)
    except FleetSimulationError:
        unit = None
    program._fleet_cc = unit
    return unit


def cc_engine_for(program):
    """The :class:`CcUnit` for ``program``, or ``None`` when the native
    engine must not run: uncertified program, unsupported shape, no
    C toolchain (or ``FLEET_NATIVE=off``), or a failed build. Each
    decline is counted so fallbacks are observable."""
    from ..lint.certificate import certificate_for

    # The FLEET_NATIVE=off lever must win over a warm per-program cache:
    # flipping it mid-process (tests do) disables an already-built unit.
    if not _native.native_enabled():
        _CC_FALLBACKS.inc(reason="native_off")
        return None
    cached = getattr(program, "_fleet_cc", False)
    if cached is not False:
        return cached
    ok, reason = cc_support(program)
    if not ok:
        _CC_FALLBACKS.inc(reason="unsupported")
        program._fleet_cc = None
        return None
    if not certificate_for(program).ok:
        _CC_FALLBACKS.inc(reason="uncertified")
        program._fleet_cc = None
        return None
    if not cc_available():
        _CC_FALLBACKS.inc(reason="no_toolchain")
        program._fleet_cc = None
        return None
    unit = try_compile_cc(program)
    if unit is None:
        _CC_FALLBACKS.inc(reason="build_failed")
    return unit


# ---------------------------------------------------------------------------
# Simulator-compatible driver
# ---------------------------------------------------------------------------


class CcSimulator:
    """Drop-in :class:`~repro.interp.simulator.UnitSimulator` replacement
    driving a :class:`CcUnit` (same incremental API, outputs, trace, and
    peek hooks as :class:`~repro.interp.compile.CompiledSimulator`).

    State lives in Python lists between calls (reset/peek parity); each
    kernel call packs it into flat ffi buffers and unpacks on return.
    Output-capacity exhaustion (``err=2``) retries transparently with a
    larger buffer from the unchanged Python-side state.
    """

    engine = "cc"

    def __init__(self, program, *, check_restrictions=True,
                 max_vcycles_per_token=1_000_000, unit=None,
                 certificate=None):
        self.program = program
        self.check_restrictions = check_restrictions
        self.max_vcycles_per_token = max_vcycles_per_token
        self._unit = unit if unit is not None else compile_cc(
            program, certificate=certificate
        )
        self._in_mask = mask(program.input_width)
        self.reset()

    def reset(self):
        self._reg_values = [r.init for r in self.program.regs]
        self._vregs = [[v.init] * v.elements for v in self.program.vregs]
        self._brams = [[0] * b.elements for b in self.program.brams]
        self._outputs = []
        self._finished = False
        self.trace = StreamTrace()

    @property
    def source(self):
        """The generated C source (debugging hook)."""
        return self._unit.source

    # -- state marshalling ---------------------------------------------------
    def _pack(self, ffi):
        regs_buf = ffi.new("uint64_t[]", self._reg_values or [0])
        flat = []
        for data in self._vregs:
            flat.extend(data)
        for data in self._brams:
            flat.extend(data)
        state_buf = ffi.new("uint64_t[]", flat or [0])
        return regs_buf, state_buf

    def _unpack(self, regs_buf, state_buf):
        ffi = self._unit.ffi
        self._reg_values[:] = ffi.unpack(regs_buf, len(self._reg_values))
        flat = ffi.unpack(state_buf, self._unit.state_size)
        off = 0
        for data in self._vregs:
            k = len(data)
            data[:] = flat[off:off + k]
            off += k
        for data in self._brams:
            k = len(data)
            data[:] = flat[off:off + k]
            off += k

    def _tokens_buf(self, tokens, ffi):
        """Pack tokens, raising the compiled engine's exact
        out-of-width message for tokens the buffer cannot hold
        (negative, non-int, or beyond 64 bits); in-range-but-too-wide
        tokens are caught in-kernel instead."""
        try:
            if tokens:
                return ffi.new("uint64_t[]", tokens)
            return ffi.new("uint64_t[]", 1)
        except (TypeError, OverflowError):
            for token in tokens:
                if not isinstance(token, int) or not (
                    0 <= token <= self._in_mask
                ):
                    raise self._token_error(token) from None
            raise

    def _token_error(self, token):
        return FleetSimulationError(
            f"token {token!r} does not fit the declared "
            f"{self.program.input_width}-bit input width"
        )

    def _loop_error(self):
        return FleetLoopLimitError(
            "while loop did not terminate within "
            f"{self.max_vcycles_per_token} virtual cycles"
        )

    # -- streaming API -------------------------------------------------------
    def run(self, tokens):
        tokens = list(tokens)
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        ffi, lib = self._unit.ffi, self._unit.lib
        n = len(tokens)
        toks_buf = self._tokens_buf(tokens, ffi)
        cap = max(4 * n + 1024, 4096)
        while True:
            regs_buf, state_buf = self._pack(ffi)
            out_buf = ffi.new("uint64_t[]", cap)
            vcs = ffi.new("int32_t[]", n + 1)
            ems = ffi.new("int32_t[]", n + 1)
            err = ffi.new("int64_t[]", 4)
            rc = lib.fleet_tokens(
                toks_buf, n, regs_buf, state_buf,
                self.max_vcycles_per_token, out_buf, cap, vcs, ems, err,
            )
            if rc != 0 and err[0] == 2:
                cap *= 4
                continue
            if rc != 0:
                # Fault mid-stream: state, partial outputs, and the
                # completed tokens' trace entries all land, matching the
                # compiled engine's ``finally`` semantics.
                self._unpack(regs_buf, state_buf)
                self._outputs.extend(out_buf[0:err[2]])
                for i in range(err[1]):
                    self.trace.record_token(vcs[i], ems[i], False)
                if err[0] == 3:
                    raise self._token_error(tokens[err[1]])
                raise self._loop_error()
            base = err[2]
            err2 = ffi.new("int64_t[]", 4)
            rc = lib.fleet_finish(
                regs_buf, state_buf, self.max_vcycles_per_token,
                out_buf + base, cap - base, vcs + n, ems + n, err2,
            )
            if rc != 0 and err2[0] == 2:
                cap *= 4
                continue
            self._unpack(regs_buf, state_buf)
            if rc != 0:
                self._outputs.extend(out_buf[0:base + err2[2]])
                for i in range(n):
                    self.trace.record_token(vcs[i], ems[i], False)
                raise self._loop_error()
            self._outputs.extend(ffi.unpack(out_buf, base + err2[2]))
            trace = self.trace
            trace.vcycles_per_token.extend(ffi.unpack(vcs, n + 1))
            trace.emits_per_token.extend(ffi.unpack(ems, n + 1))
            trace._cleanup_recorded = True
            self._finished = True
            return self.outputs

    def process_token(self, token):
        if self._finished:
            raise FleetSimulationError(
                "stream already finished; reset() to reuse the simulator"
            )
        if not isinstance(token, int) or not (
            0 <= token <= self._in_mask
        ):
            raise self._token_error(token)
        ffi, lib = self._unit.ffi, self._unit.lib
        toks_buf = ffi.new("uint64_t[]", [token])
        cap = 4096
        while True:
            regs_buf, state_buf = self._pack(ffi)
            out_buf = ffi.new("uint64_t[]", cap)
            vcs = ffi.new("int32_t[]", 1)
            ems = ffi.new("int32_t[]", 1)
            err = ffi.new("int64_t[]", 4)
            rc = lib.fleet_tokens(
                toks_buf, 1, regs_buf, state_buf,
                self.max_vcycles_per_token, out_buf, cap, vcs, ems, err,
            )
            if rc != 0 and err[0] == 2:
                cap *= 4
                continue
            self._unpack(regs_buf, state_buf)
            before = len(self._outputs)
            self._outputs.extend(out_buf[0:err[2]])
            if rc != 0:
                raise self._loop_error()
            self.trace.record_token(vcs[0], ems[0], False)
            return self._outputs[before:]

    def finish_stream(self):
        if self._finished:
            raise FleetSimulationError("stream already finished")
        ffi, lib = self._unit.ffi, self._unit.lib
        cap = 4096
        while True:
            regs_buf, state_buf = self._pack(ffi)
            out_buf = ffi.new("uint64_t[]", cap)
            vcs = ffi.new("int32_t[]", 1)
            ems = ffi.new("int32_t[]", 1)
            err = ffi.new("int64_t[]", 4)
            rc = lib.fleet_finish(
                regs_buf, state_buf, self.max_vcycles_per_token,
                out_buf, cap, vcs, ems, err,
            )
            if rc != 0 and err[0] == 2:
                cap *= 4
                continue
            self._unpack(regs_buf, state_buf)
            before = len(self._outputs)
            self._outputs.extend(out_buf[0:err[2]])
            if rc != 0:
                raise self._loop_error()
            self.trace.record_token(vcs[0], ems[0], True)
            self._finished = True
            return self._outputs[before:]

    @property
    def outputs(self):
        return list(self._outputs)

    def peek_reg(self, name):
        for reg, value in zip(self.program.regs, self._reg_values):
            if reg.name == name:
                return value
        raise FleetSimulationError(f"no register named {name!r}")

    def peek_bram(self, name):
        for bram, data in zip(self.program.brams, self._brams):
            if bram.name == name:
                return list(data)
        raise FleetSimulationError(f"no BRAM named {name!r}")


__all__ = [
    "CcSimulator",
    "CcUnit",
    "cc_available",
    "cc_engine_for",
    "cc_support",
    "compile_cc",
    "try_compile_cc",
]
