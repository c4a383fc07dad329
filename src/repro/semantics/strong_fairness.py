"""Ablation: leads-to under **strong** fairness.

The paper's §2 model uses *weak* fairness: every command of ``D`` is
**executed** infinitely often — and since commands are total, an execution
whose guard is false is a legal no-op.  This has a consequence worth
isolating: a helpful command can be "starved" by always scheduling it while
its guard is off (see ``tests/test_leadsto.py::
test_weak_fairness_counts_vacuous_executions``).

This module checks the same ``p ↝ q`` judgment under **strong** fairness:

    if ``d ∈ D`` is *enabled* (some guard true) infinitely often, then
    ``d`` is executed *while enabled* infinitely often.

Finite-state characterization (an SCC criterion again, but per-command
three-valued): an SCC ``H`` of the ``¬q`` graph hosts a strongly-fair
``¬q``-confined execution iff for every ``d ∈ D`` **either**

- no state of ``H`` enables ``d`` (the premise of the fairness obligation
  never recurs), **or**
- some ``u ∈ H`` enables ``d`` with ``succ_d(u) ∈ H`` (the obligation can
  be honoured without leaving ``H``).

Strong fairness validates strictly more leads-to properties than weak
(every weakly-fair-avoidable SCC is strongly-fair-avoidable only if it
passes the stricter test).  The ablation benchmark
(``benchmarks/bench_fairness_ablation.py``) quantifies the gap on the
paper's systems: the §4 mechanism is insensitive (its yield guards are
exactly the priority states, which persist until served — making weak
fairness as good as strong), which is an implicit design property of the
paper's solution that the ablation makes visible.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.semantics.checker import CheckResult
from repro.semantics.leadsto import (
    FairAnalysis,
    _fair_flags,
    check_leadsto,
    fair_analysis,
    leadsto_verdict,
)
from repro.semantics.sparse import routed_subspace
from repro.semantics.transition import DenseView

__all__ = [
    "strong_fair_scc_analysis",
    "check_leadsto_strong",
    "check_transient_strong",
    "fairness_gap",
]


def strong_fair_scc_analysis(program: Program, q: Predicate) -> FairAnalysis:
    """Like :func:`repro.semantics.leadsto.fair_scc_analysis` but with the
    strong-fairness SCC criterion.

    Evaluated batched over the stacked ``(command, state)`` edge matrix
    (:func:`repro.semantics.leadsto._fair_flags` with enabledness rows):
    an SCC stays fair iff for every ``d`` it either never enables ``d`` or
    contains an enabled ``d``-move staying inside the SCC.
    """
    return fair_analysis(DenseView(program), q, strong=True)


def check_transient_strong(program: Program, p: Predicate) -> CheckResult:
    """``p`` is transient under **strong** fairness of ``D``.

    Finite-state criterion, dual to the per-SCC avoidance test above: no
    SCC of the ``p``-subgraph passes the strong-fairness test — every
    component has a helpful ``d ∈ D`` that some member enables and that
    exits the component from *every* member enabling it, so a
    strongly-fair execution must keep descending the condensation DAG
    until it leaves ``p``.  This is the semantic leaf behind
    :class:`repro.core.rules.StrongTransientBasis`, the rule the proof
    synthesizer uses to certify strong-fairness leads-to verdicts (e.g.
    the pipeline∘allocator delivery property, which *fails* under weak
    fairness).

    Spaces above the sparse threshold are decided reachable-restricted,
    over the routed reachable subspace.
    """
    view = routed_subspace(program, "check_transient_strong")
    subject = f"transient[strong] {p.describe()}"
    pm = view.pred_mask(p)
    if not pm.any():
        return CheckResult(
            True,
            "transient-strong",
            subject,
            message=f"p is unsatisfiable (vacuously transient){view.extent}",
            witness=dict(view.tag),
        )
    fair_cmds = program.fair_commands
    cond = view.graph().condensation(pm)
    # Enabledness columns stream lazily: each is built only when its
    # chunk is reached, and not at all once the flags die.
    flags = _fair_flags(
        cond,
        [view.succ_local(cmd) for cmd in fair_cmds],
        enabled=[partial(view.enabled_local, cmd) for cmd in fair_cmds],
    )
    hit = np.flatnonzero(flags)
    if hit.size == 0:
        return CheckResult(
            True,
            "transient-strong",
            subject,
            message=(
                f"every SCC of the {view.scope}p-subgraph ({cond.count} "
                f"component(s)) has an enabled exiting fair command{view.extent}"
            ),
            witness={**view.tag, "components": cond.count},
        )
    state = view.state_at_local(int(cond.components[int(hit[0])][0]))
    return CheckResult(
        False,
        "transient-strong",
        subject,
        message=(
            "a strongly-fair execution can stay inside p forever "
            f"(e.g. in the component of {state!r})"
        ),
        witness={**view.tag, "state": state, "fair_components": int(hit.size)},
    )


def check_leadsto_strong(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    budget=None,
    subspace=None,
    recorder=None,
    checkpoint=None,
) -> CheckResult:
    """Check ``p ↝ q`` assuming **strong** fairness of ``D``.

    ``budget`` / ``subspace`` / ``recorder`` form the normalized keyword
    set shared by every public checker (see ``docs/composition.md``).
    The verdict, witness (including ``confining_path`` into a
    strongly-fair SCC) and tier routing are those of
    :func:`repro.semantics.leadsto.check_leadsto`, with the strong
    per-SCC criterion: spaces above the sparse threshold are decided over
    the reachable subspace, falling back to the dense tier when the
    sparse tier cannot decide (the :class:`~repro.errors.CapacityError`
    of an impossible fallback chains the sparse failure as
    ``__cause__``).  With a ``budget``, sparse-tier exhaustion degrades
    to a resumable ``status="unknown"``
    :class:`~repro.semantics.budget.PartialResult` instead of raising.
    """
    return leadsto_verdict(
        program,
        p,
        q,
        strong=True,
        budget=budget,
        subspace=subspace,
        recorder=recorder,
        checkpoint=checkpoint,
    )


def fairness_gap(program: Program, p: Predicate, q: Predicate) -> dict[str, bool]:
    """Verdicts of both fairness notions side by side.

    Soundness invariant (tested): weak ⇒ strong — anything guaranteed under
    the weaker scheduler constraint is guaranteed under the stronger one.
    The interesting instances are ``{'weak': False, 'strong': True}``.
    """
    weak = check_leadsto(program, p, q).holds
    strong = check_leadsto_strong(program, p, q).holds
    return {"weak": weak, "strong": strong, "gap": strong and not weak}
