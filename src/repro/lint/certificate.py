"""Machine-checkable restriction certificates.

A :class:`RestrictionCertificate` merges the restriction prover's
:class:`~repro.lang.prover.ProofReport` with the lint pipeline's
findings into one portable verdict: *this exact program can never raise
a* :class:`~repro.lang.errors.FleetRestrictionError` *at runtime, so the
dynamic restriction checks may be disabled*.

The certificate is bound to a structural fingerprint of the program —
a SHA-256 over a canonical, name-based serialization of the declarations
and statement body — and :meth:`RestrictionCertificate.covers` checks
that binding, so a certificate can never silently authorize a different
(mixed-up) program. The simulators refuse a certificate whose
fingerprint does not match. Programs are sealed at construction
(:mod:`repro.lang.ast`), so no program can change under its certificate
and the fingerprint is computed once per program object
(:func:`fingerprint_for`).

``ok`` requires all of:

* the restriction prover proves every conflicting access pair mutually
  exclusive (``proof.ok``),
* every vector-register assignment pair is likewise proven exclusive
  (the prover proper does not cover vregs),
* the lint pipeline reports no error-severity findings (definite
  out-of-bounds addresses, dependent reads).

For compilable (power-of-two) programs this is exactly the fast
engine's historical elision condition, so certification never loses a
previously-available fast path.
"""

import hashlib

from ..lang import ast
from ..lang.errors import FleetError
from ..telemetry.metrics import counter as _tm_counter

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_CERTIFICATES = _tm_counter(
    "fleet_lint_certificates_total",
    "Restriction certificates issued, by verdict",
    ("verdict",),
)
_CERT_LOOKUPS = _tm_counter(
    "fleet_lint_certificate_lookups_total",
    "certificate_for() lookups, by cache outcome",
    ("result",),
)


class RestrictionCertificate:
    """The verdict of :func:`certify_program` for one program.

    A clean certificate additionally carries
    :class:`~repro.lint.facts.SpecializationFacts` — the per-site
    interval evidence (which reads, writes, and truncations are proven
    safe, keyed by content-addressed expression keys and stable
    statement locations) that the compiled engines' certified
    specialization paths consume to delete guards at codegen time.
    ``facts`` is ``None`` on rejected certificates: an uncertified
    program never specializes.
    """

    __slots__ = ("program_name", "fingerprint", "ok", "reasons",
                 "finding_counts", "proof_ok", "vreg_exclusive", "facts",
                 "cost")

    def __init__(self, program_name, fingerprint, ok, reasons,
                 finding_counts, proof_ok, vreg_exclusive, facts=None,
                 cost=None):
        self.program_name = program_name
        self.fingerprint = fingerprint
        self.ok = ok
        self.reasons = tuple(reasons)
        self.finding_counts = dict(finding_counts)
        self.proof_ok = proof_ok
        self.vreg_exclusive = vreg_exclusive
        self.facts = facts if ok else None
        # Cost bounds are sound regardless of the restriction verdict
        # (unproven conflicts don't change vcycle counting), so unlike
        # ``facts`` they survive on rejected certificates too.
        self.cost = cost

    def covers(self, program):
        """Whether this certificate was issued for exactly ``program``
        (same name and structural fingerprint). Uses the memoized
        :func:`fingerprint_for`: a sealed program cannot drift from it.
        """
        return (self.program_name == program.name
                and self.fingerprint == fingerprint_for(program))

    def to_json(self):
        return {
            "program": self.program_name,
            "fingerprint": self.fingerprint,
            "certified": self.ok,
            "proof_ok": self.proof_ok,
            "vreg_exclusive": self.vreg_exclusive,
            "finding_counts": self.finding_counts,
            "reasons": list(self.reasons),
            "facts": None if self.facts is None else self.facts.to_json(),
            "cost": None if self.cost is None else self.cost.to_json(),
        }

    def render(self):
        if self.ok:
            lines = [f"certificate {self.program_name}: OK "
                     f"(fingerprint {self.fingerprint[:12]}…) — dynamic "
                     "restriction checks may be disabled"]
        else:
            lines = [f"certificate {self.program_name}: NOT certified — "
                     "dynamic restriction checks stay on"]
            for reason in self.reasons:
                lines.append(f"  - {reason}")
        if self.cost is not None:
            lines.append("  " + self.cost.render().splitlines()[0])
        return "\n".join(lines)

    def __repr__(self):
        return (f"RestrictionCertificate({self.program_name!r}, "
                f"ok={self.ok})")


# ---------------------------------------------------------------------------
# Structural fingerprint
# ---------------------------------------------------------------------------


def program_fingerprint(program):
    """SHA-256 hex digest of a canonical serialization of ``program``.

    Name-based (declarations are referenced by name, never by object
    identity) and sharing-aware: expression nodes are emitted once into
    a descriptor table and referenced by index, so DAG-shaped programs
    (deep shared wires) serialize in linear size.
    """
    descriptors = []
    index = {}

    def expr(node):
        cached = index.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, ast.Const):
            d = ("const", node.value, node.width)
        elif isinstance(node, ast.InputToken):
            d = ("input", node.width)
        elif isinstance(node, ast.StreamFinished):
            d = ("sf",)
        elif isinstance(node, ast.RegRead):
            d = ("reg", node.reg.name)
        elif isinstance(node, ast.VectorRegRead):
            d = ("vreg", node.vreg.name, expr(node.index))
        elif isinstance(node, ast.BramRead):
            d = ("bram", node.bram.name, expr(node.addr))
        elif isinstance(node, ast.WireRead):
            d = ("wire", node.wire.name, expr(node.wire.value))
        elif isinstance(node, ast.BinOp):
            d = ("bin", node.op, expr(node.lhs), expr(node.rhs))
        elif isinstance(node, ast.UnOp):
            d = ("un", node.op, expr(node.operand))
        elif isinstance(node, ast.Mux):
            d = ("mux", expr(node.cond), expr(node.then), expr(node.els))
        elif isinstance(node, ast.Slice):
            d = ("slice", node.hi, node.lo, expr(node.operand))
        elif isinstance(node, ast.Concat):
            d = ("cat",) + tuple(expr(p) for p in node.parts)
        else:
            raise TypeError(f"unfingerprintable node {node!r}")
        descriptors.append(d)
        position = len(descriptors) - 1
        index[id(node)] = position
        return position

    def stmt(node):
        if isinstance(node, ast.RegAssign):
            return ("set", node.reg.name, expr(node.value))
        if isinstance(node, ast.VectorRegAssign):
            return ("vset", node.vreg.name, expr(node.index),
                    expr(node.value))
        if isinstance(node, ast.BramWrite):
            return ("store", node.bram.name, expr(node.addr),
                    expr(node.value))
        if isinstance(node, ast.Emit):
            return ("emit", expr(node.value))
        if isinstance(node, ast.If):
            return ("if",) + tuple(
                (None if cond is None else expr(cond), block(arm_body))
                for cond, arm_body in node.arms
            )
        if isinstance(node, ast.While):
            return ("while", expr(node.cond), block(node.body))
        raise TypeError(f"unfingerprintable statement {node!r}")

    def block(body):
        return tuple(stmt(s) for s in body)

    body = block(program.body)
    canonical = (
        "fleet-unit-v1",
        program.name,
        program.input_width,
        program.output_width,
        tuple((r.name, r.width, r.init) for r in program.regs),
        tuple((v.name, v.elements, v.width, v.init)
              for v in program.vregs),
        tuple((b.name, b.elements, b.width) for b in program.brams),
        tuple(descriptors),
        body,
    )
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def certify_program(program, report=None):
    """Produce a :class:`RestrictionCertificate` for ``program``.

    ``report`` may pass in an existing
    :class:`~repro.lint.passes.LintReport` to avoid re-linting. A clean
    certificate carries :class:`~repro.lint.facts.SpecializationFacts`
    built from the report's interval analysis.
    """
    from .facts import build_facts
    from .passes import lint_program

    if report is None:
        report = lint_program(program)
    reasons = []
    if not report.proof.ok:
        reasons.append(
            f"restriction proof failed: {len(report.proof.conflicts)} "
            "unproven conflict pair(s)"
        )
    if report.vreg_conflicts:
        reasons.append(
            f"{len(report.vreg_conflicts)} vector-register assignment "
            "pair(s) not proven mutually exclusive"
        )
    for finding in report.errors:
        reasons.append(f"error finding: {finding.render()}")
    _CERTIFICATES.inc(verdict="clean" if not reasons else "rejected")
    facts = None if reasons else build_facts(report.analysis)
    return RestrictionCertificate(
        program_name=program.name,
        fingerprint=fingerprint_for(program),
        ok=not reasons,
        reasons=reasons,
        finding_counts=report.counts(),
        proof_ok=report.proof.ok,
        vreg_exclusive=not report.vreg_conflicts,
        facts=facts,
        cost=report.cost,
    )


def fingerprint_for(program):
    """:func:`program_fingerprint`, memoized on the (sealed) program
    object — serialization is linear but not free, and hot callers
    fingerprint the same object repeatedly."""
    cached = getattr(program, "_fleet_fingerprint", None)
    if cached is None:
        cached = program_fingerprint(program)
        program._fleet_fingerprint = cached
    return cached


#: Process-wide certificate store keyed by structural fingerprint, so
#: *structurally identical* program objects — e.g. a factory called once
#: per ``make_simulator`` — share one lint pass instead of re-running
#: the full pipeline per object. Bounded only by distinct program
#: structures seen, which is small in practice (apps + fuzz shrinks).
_CERT_BY_FINGERPRINT = {}


def certificate_for(program):
    """Cached certificate for ``program``.

    Two cache levels: the program object itself (sealed at
    construction), then the process-wide fingerprint store — a fresh but
    structurally identical object costs one fingerprint serialization,
    not a full lint pass. The returned certificate always ``covers``
    ``program`` by construction (the fingerprint *is* the cache key).
    """
    cached = getattr(program, "_fleet_certificate", None)
    if cached is not None:
        _CERT_LOOKUPS.inc(result="hit")
        return cached
    fingerprint = fingerprint_for(program)
    cached = _CERT_BY_FINGERPRINT.get(fingerprint)
    if cached is not None and cached.program_name == program.name:
        _CERT_LOOKUPS.inc(result="fingerprint_hit")
        program._fleet_certificate = cached
        return cached
    _CERT_LOOKUPS.inc(result="miss")
    try:
        certificate = certify_program(program)
    except FleetError as exc:
        certificate = RestrictionCertificate(
            program_name=program.name,
            fingerprint=fingerprint,
            ok=False,
            reasons=[f"lint failed: {exc}"],
            finding_counts={"info": 0, "warning": 0, "error": 0},
            proof_ok=False,
            vreg_exclusive=False,
        )
    program._fleet_certificate = certificate
    _CERT_BY_FINGERPRINT[fingerprint] = certificate
    return certificate
