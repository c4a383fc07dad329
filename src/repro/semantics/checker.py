"""Semantic checkers for the safety fragment of the property language.

All checkers follow the paper's **inductive** semantics (§2): properties
quantify over *all* states of the space::

    init p        ≡  initially ⇒ p
    p next q      ≡  ⟨∀c : c ∈ C : p ⇒ wp.c.q⟩
    stable p      ≡  p next p
    transient p   ≡  ⟨∃c : c ∈ D : p ⇒ wp.c.¬p⟩
    invariant p   ≡  (init p) ∧ (stable p)

Because commands are total deterministic functions, ``p ⇒ wp.c.q`` over a
set of states is the single vectorized test ``¬p_mask ∨ q_mask[table_c]``.

Checkers return a :class:`CheckResult` carrying a decoded counterexample
when the property fails — the failing state, the command, and its successor
— which the test suite and examples surface directly.

State views.  Each judgment is written once, against the state view that
:func:`repro.semantics.sparse.routed_subspace` picks for the program: a
:class:`~repro.semantics.transition.DenseView` of the whole space, or —
above the sparse threshold — the
:class:`~repro.semantics.sparse.explorer.ReachableSubspace`, over which
the same code decides the reachable-restricted judgment through the
frontier kernels (results carry ``witness["tier"] == "sparse"``).  The
view also supplies the wording of the verdict, so no judgment branches on
the tier.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import obs
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.errors import BudgetExhausted
from repro.semantics.budget import PartialResult
from repro.semantics.sparse import routed_subspace

__all__ = [
    "CheckResult",
    "check_validity",
    "check_init",
    "check_next",
    "check_stable",
    "check_transient",
    "check_invariant",
    "check_reachable_invariant",
    "check_obligations_batched",
]


@dataclass
class CheckResult:
    """Outcome of a semantic property check.

    ``witness`` holds structured diagnostic data (decoded states, command
    names); its keys vary by ``kind`` and are documented per checker.
    """

    holds: bool
    kind: str
    subject: str
    message: str = ""
    witness: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds

    def explain(self) -> str:
        """One-line human-readable summary."""
        status = "HOLDS" if self.holds else "FAILS"
        tail = f" — {self.message}" if self.message else ""
        return f"[{status}] {self.kind}: {self.subject}{tail}"


def recording(recorder):
    """Install ``recorder`` for a ``with`` block (no-op for ``None``) —
    the ``recorder=`` keyword of the public checkers."""
    return obs.use_recorder(recorder) if recorder is not None else nullcontext()


def judged_view(
    program: Program,
    dense_op: str,
    *,
    kind: str,
    subject: str,
    budget=None,
    subspace=None,
    checkpoint=None,
):
    """The state view a budgeted judgment ranges over: ``subspace`` when
    given, else the routed view — or, when the budget runs out before the
    reachable closure is complete, the resumable ``status="unknown"``
    :class:`~repro.semantics.budget.PartialResult` standing in for the
    verdict (no verdict over a partial closure would be sound)."""
    if subspace is not None:
        return subspace
    try:
        return routed_subspace(program, dense_op, budget=budget, checkpoint=checkpoint)
    except BudgetExhausted as exc:
        return PartialResult.from_exhaustion(exc, kind=kind, subject=subject)


def metered(witness: dict, view) -> dict:
    """Attach the view's exploration stats to a verdict witness.

    Only when a recorder is installed — with the null recorder the
    witness is byte-identical to the uninstrumented engine's, which the
    differential neutrality suite pins.  The dense view has no stats.
    """
    if obs.get_recorder().enabled and view.stats:
        witness["metrics"] = dict(view.stats)
    return witness


def check_validity(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """Predicate-calculus validity ``p ⇒ q`` over the routed view's states.

    This is the side condition of the paper's *Implication* rule for
    leads-to and of ``init``-weakening steps.
    """
    view = routed_subspace(program, "check_validity")
    subject = f"{p.describe()} => {q.describe()}"
    idx = np.flatnonzero(view.pred_mask(p) & ~view.pred_mask(q))
    if idx.size == 0:
        return CheckResult(
            True,
            "validity",
            subject,
            message=f"valid on every {view.scope}state{view.extent}",
            witness={**view.tag, **view.census()},
        )
    state = view.state_at_local(int(idx[0]))
    return CheckResult(
        False,
        "validity",
        subject,
        message=f"violated at {view.scope}{state!r} (+{idx.size - 1} more)",
        witness={**view.tag, "state": state, "violations": int(idx.size)},
    )


def check_init(program: Program, p: Predicate) -> CheckResult:
    """``init p``: every state satisfying ``initially`` satisfies ``p``."""
    view = routed_subspace(program, "check_init")
    subject = f"init {p.describe()}"
    init = view.init_local
    bad = init[~view.pred_mask(p)[init]]
    if bad.size == 0:
        return CheckResult(
            True,
            "init",
            subject,
            message=f"holds on all {init.size} initial states{view.extent}",
            witness=dict(view.tag),
        )
    state = view.state_at_local(int(bad[0]))
    return CheckResult(
        False,
        "init",
        subject,
        message=f"initial state {state!r} violates p",
        witness={**view.tag, "state": state, "violations": int(bad.size)},
    )


def check_next(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """``p next q``: every command maps every ``p``-state to a ``q``-state."""
    view = routed_subspace(program, "check_next")
    subject = f"{p.describe()} next {q.describe()}"
    pm = view.pred_mask(p)
    qm = view.pred_mask(q)
    for cmd in program.commands:
        table = view.succ_local(cmd)
        idx = np.flatnonzero(pm & ~qm[table])
        if idx.size:
            k = int(idx[0])
            state = view.state_at_local(k)
            succ = view.state_at_local(int(table[k]))
            return CheckResult(
                False,
                "next",
                subject,
                message=(
                    f"command {cmd.name} steps {view.scope}{state!r} to "
                    f"{succ!r}, which violates q"
                ),
                witness={
                    **view.tag,
                    "state": state,
                    "command": cmd.name,
                    "successor": succ,
                    "violations": int(idx.size),
                },
            )
    return CheckResult(
        True,
        "next",
        subject,
        message=f"holds from every {view.scope}state{view.extent}",
        witness={**view.tag, **view.census()},
    )


def check_stable(program: Program, p: Predicate) -> CheckResult:
    """``stable p ≡ p next p``."""
    result = check_next(program, p, p)
    return CheckResult(
        result.holds,
        "stable",
        f"stable {p.describe()}",
        message=result.message,
        witness=result.witness,
    )


def check_transient(program: Program, p: Predicate) -> CheckResult:
    """``transient p``: some fair command falsifies ``p`` from every
    ``p``-state.  The witness reports the helpful command when the
    property holds, and per-command failure states when it fails."""
    view = routed_subspace(program, "check_transient")
    subject = f"transient {p.describe()}"
    pm = view.pred_mask(p)
    fair = program.fair_commands
    if not fair:
        # With D empty nothing is forced to execute, so only the
        # unsatisfiable predicate is transient.
        if not pm.any():
            return CheckResult(
                True,
                "transient",
                subject,
                message=f"p is unsatisfiable (vacuously transient){view.extent}",
                witness=dict(view.tag),
            )
        return CheckResult(
            False,
            "transient",
            subject,
            message="the program has no fair commands (D = ∅)",
            witness=dict(view.tag),
        )
    failures: dict[str, Any] = {}
    for cmd in fair:
        idx = np.flatnonzero(pm & pm[view.succ_local(cmd)])
        if idx.size == 0:
            return CheckResult(
                True,
                "transient",
                subject,
                message=(
                    f"command {cmd.name} falsifies p from every "
                    f"{view.scope}p-state{view.extent}"
                ),
                witness={**view.tag, "command": cmd.name},
            )
        failures[cmd.name] = view.state_at_local(int(idx[0]))
    return CheckResult(
        False,
        "transient",
        subject,
        message=(
            f"no single fair command falsifies p from every {view.scope}"
            "p-state; per-command stuck states recorded in the witness"
        ),
        witness={**view.tag, "stuck_states": failures},
    )


def check_obligations_batched(view, layout):
    """Discharge every obligation of a columnar certificate over ``view``
    (the routed state view) with the batched certificate kernel.

    Members map to view ids (entries outside a reachable subspace are
    dropped — they are invisible to every reachable-restricted mask the
    per-level oracle computes), one gather per command runs over all
    level members at once through the view's successor columns, and
    enabledness (strong certificates only) is read from its enabledness
    columns.  Called through
    :func:`repro.semantics.synthesis.check_certificate_batched`; the
    per-level tree walk (:meth:`~repro.core.proofs.ProofNode.check`)
    remains the differential oracle.
    """
    from repro.semantics.obligations import check_columnar_obligations

    mem, mem_keep = view.localize(layout.stacked)
    prefix, prefix_keep = view.localize(layout.members)
    program = view.program
    commands = [
        (cmd.name, (lambda ids, c=cmd: view.succ_local(c)[ids]))
        for cmd in program.commands
    ]
    fair = [
        (cmd.name, (lambda ids, c=cmd: view.succ_local(c)[ids]))
        for cmd in program.fair_commands
    ]

    def enabled_at(name: str, ids: np.ndarray) -> np.ndarray:
        return view.enabled_local(name)[ids]

    return check_columnar_obligations(
        n=view.size,
        p_mask=view.pred_mask(layout.p),
        q_mask=view.pred_mask(layout.q),
        mem=mem,
        lvl=layout.level_ids()[mem_keep],
        n_levels=layout.n_levels,
        prefix_members=prefix,
        prefix_ranks=layout.ranks[prefix_keep],
        commands=commands,
        fair=fair,
        strong=layout.fairness == "strong",
        enabled_at=enabled_at,
        decode=view.state_at_local,
        tier=f"{view.tier} tier",
    )


def check_invariant(program: Program, p: Predicate) -> CheckResult:
    """``invariant p ≡ (init p) ∧ (stable p)`` (inductive, full space)."""
    subject = f"invariant {p.describe()}"
    init_res = check_init(program, p)
    if not init_res.holds:
        return CheckResult(
            False,
            "invariant",
            subject,
            message=f"init part fails: {init_res.message}",
            witness=init_res.witness,
        )
    stab_res = check_stable(program, p)
    if not stab_res.holds:
        return CheckResult(
            False,
            "invariant",
            subject,
            message=f"stable part fails: {stab_res.message}",
            witness=stab_res.witness,
        )
    return CheckResult(True, "invariant", subject)


def check_reachable_invariant(
    program: Program,
    p: Predicate,
    *,
    budget=None,
    subspace=None,
    recorder=None,
    checkpoint=None,
) -> CheckResult:
    """The weaker, *non-inductive* notion: ``p`` holds on every reachable
    state.  Not part of the paper's logic (it corresponds to the
    substitution-axiom strengthening the paper avoids); provided for
    comparison and diagnostics.

    ``budget`` / ``subspace`` / ``recorder`` form the normalized keyword
    set shared by every public checker (see ``docs/composition.md``).

    Spaces above the sparse threshold are decided on the reachable
    subspace (:mod:`repro.semantics.sparse`) — same judgment, no
    full-space arrays — falling back to the dense tier when the sparse
    tier cannot decide.  With a ``budget``, exhaustion on the sparse tier
    degrades to a resumable ``status="unknown"``
    :class:`~repro.semantics.budget.PartialResult` instead of raising (see
    ``docs/robustness.md``).
    """
    subject = f"reachable-invariant {p.describe()}"
    with recording(recorder):
        view = judged_view(
            program,
            "check_reachable_invariant",
            kind="reachable-invariant",
            subject=subject,
            budget=budget,
            subspace=subspace,
            checkpoint=checkpoint,
        )
        if isinstance(view, PartialResult):
            return view
        reach = view.reachable()
        idx = np.flatnonzero(reach & ~view.pred_mask(p))
        if idx.size == 0:
            return CheckResult(
                True,
                "reachable-invariant",
                subject,
                message=f"holds on all {int(reach.sum())} reachable states",
                witness=metered({**view.tag, **view.census()}, view),
            )
        k = int(idx[0])
        state = view.state_at_local(k)
        return CheckResult(
            False,
            "reachable-invariant",
            subject,
            message=f"reachable state {state!r} violates p",
            witness=metered(
                {
                    **view.tag,
                    "state": state,
                    "violations": int(idx.size),
                    **view.census(),
                    **view.path_witness(k),
                },
                view,
            ),
        )
