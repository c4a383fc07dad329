"""Semantic checkers for the safety fragment of the property language.

All checkers follow the paper's **inductive** semantics (§2): properties
quantify over *all* states of the space::

    init p        ≡  initially ⇒ p
    p next q      ≡  ⟨∀c : c ∈ C : p ⇒ wp.c.q⟩
    stable p      ≡  p next p
    transient p   ≡  ⟨∃c : c ∈ D : p ⇒ wp.c.¬p⟩
    invariant p   ≡  (init p) ∧ (stable p)

Because commands are total deterministic functions, ``p ⇒ wp.c.q`` over the
encoded space is the single vectorized test ``¬p_mask ∨ q_mask[table_c]``.

Checkers return a :class:`CheckResult` carrying a decoded counterexample
when the property fails — the failing state, the command, and its successor
— which the test suite and examples surface directly.

Tier routing.  Spaces above the sparse threshold route every checker here
to its reachable-restricted twin in
:mod:`repro.semantics.sparse.checkers` (results carry
``witness["tier"] == "sparse"``), falling back to the dense tier when the
sparse tier cannot decide — the same policy ``check_leadsto`` has always
used.  This is what lets the proof kernel discharge the obligations of
synthesized certificates on 10¹²-state composition stacks: every leaf
(``transient``/``next``/validity/``init``) is decided over the reachable
subspace through the frontier kernels, never a full-space mask.  Callers
that need the paper's inductive all-states judgment on a large space can
force the dense tier via ``repro.semantics.sparse.SPARSE_THRESHOLD``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.semantics.explorer import reachable_mask
from repro.semantics.transition import TransitionSystem

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


#: Lazily-bound ``(sparse package, ExplorationError, sparse checkers)``
#: triple — resolved once, then reused on every routed check.  The
#: checkers here sit on proof-kernel hot paths (one call per obligation),
#: where per-call ``import`` statements would dominate small instances;
#: the import must still be lazy because :mod:`repro.semantics.sparse`
#: imports this module.
_SPARSE_BINDINGS = None


def _sparse_bindings():
    global _SPARSE_BINDINGS
    if _SPARSE_BINDINGS is None:
        from repro.errors import ExplorationError
        from repro.semantics import sparse
        from repro.semantics.sparse import checkers

        _SPARSE_BINDINGS = (sparse, ExplorationError, checkers)
    return _SPARSE_BINDINGS


def _try_sparse(program: Program, checker_name: str, args, dense_op: str, **kwargs):
    """Run the sparse twin of a checker when the space routes sparse.

    Returns the sparse :class:`CheckResult`, or ``None`` when the check
    should run densely — either the space is below the threshold, or the
    sparse tier failed *and* the space fits the dense tier (beyond
    ``DENSE_MAX`` the fallback refuses with a
    :class:`~repro.errors.CapacityError` whose ``__cause__`` is the
    sparse failure).  ``kwargs`` (budget/checkpoint) are forwarded to the
    sparse twin verbatim.
    """
    sparse, exploration_error, checkers = _sparse_bindings()
    space = program.space
    if not sparse.sparse_enabled(space):
        return None
    try:
        return getattr(checkers, checker_name)(program, *args, **kwargs)
    except exploration_error as exc:
        sparse.dense_fallback(space, dense_op, exc)
        return None


def check_validity(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """Predicate-calculus validity ``p ⇒ q`` over the whole space
    (reachable-restricted on sparse-routed spaces; see module docstring).

    This is the side condition of the paper's *Implication* rule for
    leads-to and of ``init``-weakening steps.
    """
    routed = _try_sparse(program, "check_validity_sparse", (p, q), "check_validity")
    if routed is not None:
        return routed
    space = program.space
    bad = p.mask(space) & ~q.mask(space)
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return CheckResult(True, "validity", f"{p.describe()} => {q.describe()}")
    state = space.state_at(int(idx[0]))
    return CheckResult(
        False,
        "validity",
        f"{p.describe()} => {q.describe()}",
        message=f"violated at {state!r} (+{idx.size - 1} more)",
        witness={"state": state, "violations": int(idx.size)},
    )


def check_init(program: Program, p: Predicate) -> CheckResult:
    """``init p``: every state satisfying ``initially`` satisfies ``p``."""
    routed = _try_sparse(program, "check_init_sparse", (p,), "check_init")
    if routed is not None:
        return routed
    space = program.space
    bad = program.initial_mask() & ~p.mask(space)
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return CheckResult(True, "init", f"init {p.describe()}")
    state = space.state_at(int(idx[0]))
    return CheckResult(
        False,
        "init",
        f"init {p.describe()}",
        message=f"initial state {state!r} violates p",
        witness={"state": state, "violations": int(idx.size)},
    )


def check_next(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """``p next q``: every command maps every ``p``-state to a ``q``-state."""
    routed = _try_sparse(program, "check_next_sparse", (p, q), "check_next")
    if routed is not None:
        return routed
    ts = TransitionSystem.for_program(program)
    space = ts.space
    pm = p.mask(space)
    qm = q.mask(space)
    subject = f"{p.describe()} next {q.describe()}"
    for cmd, table in ts.all_tables():
        bad = pm & ~qm[table]
        idx = np.flatnonzero(bad)
        if idx.size:
            i = int(idx[0])
            state = space.state_at(i)
            succ = space.state_at(int(table[i]))
            return CheckResult(
                False,
                "next",
                subject,
                message=(
                    f"command {cmd.name} steps {state!r} to {succ!r}, "
                    "which violates q"
                ),
                witness={
                    "state": state,
                    "command": cmd.name,
                    "successor": succ,
                    "violations": int(idx.size),
                },
            )
    return CheckResult(True, "next", subject)


def check_stable(program: Program, p: Predicate) -> CheckResult:
    """``stable p ≡ p next p`` (decided by its sparse twin on routed
    spaces, densely through :func:`check_next` otherwise)."""
    routed = _try_sparse(program, "check_stable_sparse", (p,), "check_stable")
    if routed is not None:
        return routed
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
    routed = _try_sparse(program, "check_transient_sparse", (p,), "check_transient")
    if routed is not None:
        return routed
    ts = TransitionSystem.for_program(program)
    space = ts.space
    pm = p.mask(space)
    subject = f"transient {p.describe()}"
    fair = ts.fair_tables()
    if not fair:
        # With D empty nothing is forced to execute, so only the
        # unsatisfiable predicate is transient.
        if not pm.any():
            return CheckResult(
                True,
                "transient",
                subject,
                message="p is unsatisfiable (vacuously transient)",
            )
        return CheckResult(
            False,
            "transient",
            subject,
            message="the program has no fair commands (D = ∅)",
        )
    failures: dict[str, Any] = {}
    for cmd, table in fair:
        bad = pm & pm[table]
        idx = np.flatnonzero(bad)
        if idx.size == 0:
            return CheckResult(
                True,
                "transient",
                subject,
                message=f"command {cmd.name} falsifies p from every p-state",
                witness={"command": cmd.name},
            )
        failures[cmd.name] = space.state_at(int(idx[0]))
    return CheckResult(
        False,
        "transient",
        subject,
        message=(
            "no single fair command falsifies p everywhere; per-command "
            "stuck states recorded in the witness"
        ),
        witness={"stuck_states": failures},
    )


def check_obligations_batched(program: Program, layout):
    """Dense twin of the batched certificate kernel: discharge every
    obligation of a columnar certificate over the full encoded space.

    The levels' member indices are used directly as global ids, the
    cached successor tables of :class:`~repro.semantics.transition.
    TransitionSystem` supply one gather per command over all level
    members at once, and enabledness (strong certificates only) is
    evaluated by the frontier kernel ``Command.enabled_at`` at the member
    rows.  Called through
    :func:`repro.semantics.synthesis.check_certificate_batched`; the
    per-level tree walk (:meth:`~repro.core.proofs.ProofNode.check`)
    remains the differential oracle.
    """
    from repro.semantics.obligations import check_columnar_obligations

    ts = TransitionSystem.for_program(program)
    space = ts.space
    commands = [
        (cmd.name, (lambda ids, t=table: t[ids]))
        for cmd, table in ts.all_tables()
    ]
    fair = [
        (cmd.name, (lambda ids, t=table: t[ids]))
        for cmd, table in ts.fair_tables()
    ]

    def enabled_at(name: str, ids: np.ndarray) -> np.ndarray:
        return program.command_named(name).enabled_at(space, ids)

    return check_columnar_obligations(
        n=space.size,
        p_mask=layout.p.mask(space),
        q_mask=layout.q.mask(space),
        mem=layout.stacked,
        lvl=layout.level_ids(),
        n_levels=layout.n_levels,
        prefix_members=layout.members,
        prefix_ranks=layout.ranks,
        commands=commands,
        fair=fair,
        strong=layout.fairness == "strong",
        enabled_at=enabled_at,
        decode=space.state_at,
        tier="dense tier",
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

    Spaces above the sparse threshold are decided by the sparse tier
    (:mod:`repro.semantics.sparse`) — same judgment, no full-space arrays
    — falling back to the dense tier when the sparse tier cannot decide.
    With a ``budget``, exhaustion on the sparse tier degrades to a
    resumable ``status="unknown"`` :class:`~repro.semantics.budget.
    PartialResult` instead of raising (see ``docs/robustness.md``).
    """
    if recorder is not None:
        from repro import obs

        with obs.use_recorder(recorder):
            return check_reachable_invariant(
                program,
                p,
                budget=budget,
                subspace=subspace,
                checkpoint=checkpoint,
            )
    space = program.space
    from repro.errors import ExplorationError
    from repro.semantics.sparse import dense_fallback, sparse_enabled

    if subspace is not None or sparse_enabled(space):
        from repro.semantics.sparse.checkers import (
            check_reachable_invariant_sparse,
        )

        try:
            return check_reachable_invariant_sparse(
                program, p, budget=budget, subspace=subspace, checkpoint=checkpoint
            )
        except ExplorationError as exc:
            dense_fallback(space, "check_reachable_invariant", exc)
    reach = reachable_mask(program)
    bad = reach & ~p.mask(space)
    idx = np.flatnonzero(bad)
    subject = f"reachable-invariant {p.describe()}"
    if idx.size == 0:
        return CheckResult(
            True,
            "reachable-invariant",
            subject,
            message=f"holds on all {int(reach.sum())} reachable states",
        )
    state = space.state_at(int(idx[0]))
    return CheckResult(
        False,
        "reachable-invariant",
        subject,
        message=f"reachable state {state!r} violates p",
        witness={"state": state, "violations": int(idx.size)},
    )
