"""Proof synthesis: from model-checking evidence to kernel certificates.

The paper's central observation is that some compositional steps are
mechanical while others ("constructing the universal property") require
creativity.  On *finite* instances, that creative gap closes: whenever the
fair-SCC model checker validates ``p ↝ q``, this module reconstructs a
proof object that the kernel re-checks using **only the paper's proof
system** (Transient, Implication, Disjunction, Transitivity, PSP — via the
derived ``Ensures`` and ``MetricInduction`` constructions; §2 of the
paper, and §4.6 for the metric-induction closing step).

Construction.  Work in the ``¬q`` transition graph restricted to the
*safe* region (states from which ``q`` is inevitable) and to the forward
closure ``R`` of ``p ∧ ¬q``:

- every SCC ``H`` of this region is **unfair** — some ``d ∈ D`` has no edge
  staying inside ``H`` — hence ``transient H`` holds with witness ``d``;
- all other edges of ``H`` stay in ``H`` or exit to lower SCCs or ``q``
  (canonical sinks-first emission order), hence ``H next (H ∨ exit)``;
- together: ``H ensures exit(H)`` — one :class:`~repro.core.rules.Ensures`
  step per SCC;
- the SCC emission order is a well-founded variant, closing the argument
  with one :class:`~repro.core.rules.MetricInduction`.

The synthesized certificate is linear in the number of SCCs, and checking
it is independent of the model checker's verdict — the kernel re-discharges
every ``transient``/``next``/validity obligation from scratch.

Certificates are **columnar records**.  Every step of the ladder has
the same shape — level ``n`` and the premise ``Ensures(level[n], q ∨
levels below n)`` — so the level table determines the proof.  The
synthesizer returns a :class:`~repro.core.rules.ColumnarInduction`:
``p``, ``q``, the fairness notion, one
:class:`~repro.core.predicates.SupportTable` (level-major + globally
sorted column pairs) and the SCC id of each level, with no per-level
object built.  Its ``levels``/``subs`` are lazy views that build the
level predicates and ``Ensures`` steps on access, and ``.tree()``
builds the eager :class:`~repro.core.rules.MetricInduction`.
:func:`check_certificate_batched` reads the table's columns directly
and re-checks the whole certificate with one vectorized pass per
command over all levels — the kernel that makes 10⁴–10⁵-level
certificates checkable in seconds.  The per-level walk
(``proof.check``, over the views or ``.tree()``) is the differential
oracle (``tests/test_batched_check.py``).

Canonical-order invariant.  The variant metric *is* the SCC emission
order of :mod:`repro.semantics.scc`: components arrive sinks-first
(reverse topological, ties by smallest member state), so "every exit goes
to ``q`` or an earlier level" holds by construction.  That order is
canonical — any correct SCC partition of the same subgraph re-emits
identically — and it is preserved verbatim on the sparse tier: a
:class:`~repro.semantics.sparse.explorer.ReachableSubspace` keeps
``global_ids`` sorted, local ids preserve global order, so the local-id
sub-CSR condensation equals the dense condensation restricted to
reachable states *component for component*.  Dense and sparse synthesis
therefore produce certificates with identical level structure wherever
both tiers can run (pinned by ``tests/test_sparse_synthesis.py``).

Tier routing.  Synthesis runs once, on the state view the router picks
(:func:`repro.semantics.sparse.routed_subspace`).  Spaces above the
sparse threshold synthesize on the reachable subspace: levels are
:class:`~repro.core.predicates.SupportPredicate` sets of reachable global
indices, obligations are discharged over the same subspace through the
frontier kernels (``Command.succ_of`` / ``Predicate.mask_at``), and
nothing of length ``space.size`` is ever allocated — certificates for
2⁴⁰-state compositions in working memory proportional to the *reachable*
set.  The resulting proof certifies the **reachable-restricted** judgment
(the one the routed checkers decide; see the :mod:`repro.semantics.sparse`
package docstring).

Fairness.  ``fairness="strong"`` certifies the strong-fairness judgment
instead, swapping the per-level basis for
:class:`~repro.core.rules.StrongTransientBasis` (each safe-region SCC has
an *enabled-exiting* fair command rather than an unconditionally exiting
one) — this is what certifies the pipeline∘allocator delivery property,
which fails under weak fairness.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.predicates import Predicate, SupportTable
from repro.core.program import Program
from repro.core.proofs import ProofCheckResult, ProofFailure
from repro.core.rules import ColumnarInduction, Implication, LeadsToProof
from repro.errors import ProofError
from repro.semantics.budget import PartialResult
from repro.semantics.checker import check_obligations_batched, judged_view, recording
from repro.semantics.leadsto import fair_analysis
from repro.semantics.sparse import routed_subspace

__all__ = ["synthesize_leadsto_proof", "check_certificate_batched"]


def synthesize_leadsto_proof(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    fairness: str = "weak",
    budget=None,
    subspace=None,
    recorder=None,
    checkpoint=None,
) -> LeadsToProof:
    """Build a kernel-checkable certificate for ``p ↝ q``.

    ``budget`` / ``subspace`` / ``recorder`` form the normalized keyword
    set shared by every public checker (see ``docs/composition.md``).

    Raises :class:`ProofError` if the property does not hold (no proof
    exists), quoting the model checker's counterexample.

    ``fairness`` selects the scheduler assumption: ``"weak"`` (the
    paper's model — certificates use only the paper's proof system) or
    ``"strong"`` (certificates additionally use
    :class:`~repro.core.rules.StrongTransientBasis`).

    ``subspace`` forces synthesis on an explicit
    :class:`~repro.semantics.sparse.explorer.ReachableSubspace`; by
    default spaces above the sparse threshold use the cached reachable
    subspace and smaller spaces synthesize densely, mirroring the
    checkers' tier routing.

    ``budget`` / ``checkpoint`` bound the sparse exploration feeding the
    synthesis; on exhaustion this returns a resumable
    ``status="unknown"`` :class:`~repro.semantics.budget.PartialResult`
    instead of a proof (callers must check for it — it is not a
    :class:`LeadsToProof` and refuses ``bool()``).
    """
    with recording(recorder):
        if fairness not in ("weak", "strong"):
            raise ProofError(f"unknown fairness notion {fairness!r}")
        rec = obs.get_recorder()
        with rec.span("synthesis.leadsto", program=program.name, fairness=fairness):
            arrow = "~>[strong]" if fairness == "strong" else "~>"
            view = judged_view(
                program,
                "proof synthesis",
                kind="proof-synthesis",
                subject=f"{p.describe()} {arrow} {q.describe()}",
                budget=budget,
                subspace=subspace,
                checkpoint=checkpoint,
            )
            if isinstance(view, PartialResult):
                return view
            return _synthesize(view, p, q, fairness)


def _synthesize(view, p: Predicate, q: Predicate, fairness: str) -> LeadsToProof:
    """Synthesis over a state view: the fair analysis of its ``¬q``
    subgraph, then one induction level per SCC of the region the
    obligation touches.  On a reachable subspace the levels are sets of
    reachable global indices and the certificate concludes the
    reachable-restricted judgment."""
    analysis = fair_analysis(view, q, strong=fairness == "strong")
    pm = view.pred_mask(p)

    bad = pm & analysis.avoid_mask
    if bad.any():
        state = view.state_at_local(int(np.flatnonzero(bad)[0]))
        raise ProofError(
            f"cannot synthesize a proof of {p.describe()} ~> {q.describe()}: "
            f"the property fails under {fairness} fairness (scheduler can "
            f"avoid q from {view.scope}{state!r}){view.extent}"
        )

    # Restrict to the part of the safe region the obligation actually
    # touches: the forward closure of p ∧ ¬q (successors leaving ¬q are
    # dropped — exits to q end the obligation).
    seeds = pm & analysis.notq_mask
    region = view.graph().forward_closure(seeds, allowed=analysis.notq_mask)

    if not region.any():
        # p ⇒ q: a single Implication suffices.
        return Implication(p, q)

    # Levels: SCCs intersecting the region, in canonical emission
    # (sinks-first) order.  An SCC intersecting the region is contained in
    # it (regions are closed and SCC members are mutually reachable).
    comps = [
        (k, view.global_of(members))
        for k, members in enumerate(analysis.cond.components)
        if region[members[0]]
    ]
    return _columnar_induction(
        view.space, p, q, comps, fairness, member_word=f"{view.scope}states"
    )


def _columnar_induction(
    space, p: Predicate, q: Predicate, comps, fairness: str, *, member_word: str
) -> ColumnarInduction:
    """Assemble the metric induction from SCC components, as columns.

    ``comps`` is the list of ``(scc_id, sorted global member indices)``
    in canonical emission order.  All levels are stacked into **one**
    :class:`~repro.core.predicates.SupportTable`, and the certificate is
    the :class:`~repro.core.rules.ColumnarInduction` record over it: no
    per-level predicate or rule object is built here (the record derives
    them on access), so synthesis stays linear in total member count
    with a small constant.
    """
    rec = obs.get_recorder()
    if rec.enabled:
        rec.add("synthesis.levels", len(comps))
        rec.add(
            "synthesis.level_members",
            int(sum(members.shape[0] for _, members in comps)),
        )
    table = SupportTable(space, [members for _, members in comps])
    return ColumnarInduction(
        p,
        q,
        table,
        [k for k, _ in comps],
        fairness=fairness,
        member_word=member_word,
    )


# ---------------------------------------------------------------------------
# Batched certificate checking
# ---------------------------------------------------------------------------


def check_certificate_batched(proof: LeadsToProof, program: Program, *, subspace=None):
    """Kernel-check ``proof`` with the batched columnar kernel.

    The drop-in fast path for :meth:`~repro.core.proofs.ProofNode.check`
    on synthesized certificates: instead of one
    ``check_next``/``check_transient``/validity call per induction level
    (ten obligations per level — the entire cost of checking 10⁴–10⁵-level
    certificates), each obligation family runs as **one vectorized pass
    per command over all levels** through
    :mod:`repro.semantics.obligations`, routed by tier exactly like the
    per-level leaf checkers (reachable subspace above the sparse
    threshold, full space otherwise; ``subspace`` forces an explicit
    :class:`~repro.semantics.sparse.explorer.ReachableSubspace`, matching
    :func:`synthesize_leadsto_proof`).

    The kernel reads the columns of a
    :class:`~repro.core.rules.ColumnarInduction` record straight from its
    :class:`~repro.core.predicates.SupportTable`; the record's format
    fixes the proof's structure, so only the table's contents need
    checking (a malformed table is refused).  Verdict, node count and
    obligation count equal the per-level walk's; the result's ``mode``
    reports ``"batched"``.  Anything else (hand-built trees,
    ``Implication`` shortcuts) goes to ``proof.check(program)``, the
    per-level oracle.
    """
    from repro.semantics.obligations import CertificateLayout

    space = program.space
    rec = obs.get_recorder()
    if (
        not isinstance(proof, ColumnarInduction)
        or proof.support_table.space is not space
    ):
        with rec.span("proof.check", program=program.name, mode="per-level"):
            return proof.check(program)
    layout = CertificateLayout.of(proof)
    with rec.span(
        "proof.batched_check",
        program=program.name,
        levels=layout.n_levels,
    ):
        defect = layout.defect(space.size)
        if defect is not None:
            failure = ProofFailure(
                "metric-induction", f"malformed support table: {defect}"
            )
            return ProofCheckResult([failure], mode="batched")
        view = subspace
        if view is None:
            view = routed_subspace(program, "the batched certificate check")
        # int64 headroom for the kernel's (level, member) search keys over the
        # view's ids (never binding under the default sparse node limit).
        if view.size and layout.n_levels > (2**62) // view.size:
            return proof.check(program)
        return check_obligations_batched(view, layout)
