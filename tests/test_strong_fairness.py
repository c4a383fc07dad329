"""Tests for the strong-fairness ablation (repro.semantics.strong_fairness)."""

from hypothesis import given, settings

from repro.core.commands import AltCommand, GuardedCommand, Skip
from repro.core.domains import IntRange
from repro.core.expressions import land, lnot
from repro.core.predicates import ExprPredicate, TRUE
from repro.core.program import Program
from repro.core.state import StateSpace
from repro.core.variables import Var
from repro.semantics.leadsto import check_leadsto
from repro.semantics.strong_fairness import (
    check_leadsto_strong,
    fairness_gap,
    strong_fair_scc_analysis,
)
from repro.semantics.transition import TransitionSystem

from tests.conftest import predicate_strategy, program_strategy

X = Var.shared("x", IntRange(0, 3))
B = Var.boolean("b")


def pred(e):
    return ExprPredicate(e)


class TestEnabledMask:
    def test_skip_always_enabled(self):
        space = StateSpace([X])
        assert Skip().enabled_mask(space).all()

    def test_guarded(self):
        space = StateSpace([X])
        cmd = GuardedCommand("c", X.ref() < 2, [(X, X.ref() + 1)])
        mask = cmd.enabled_mask(space)
        assert [bool(m) for m in mask] == [True, True, False, False]

    def test_constant_guard(self):
        space = StateSpace([X])
        cmd = GuardedCommand("c", True, [(X, 0)])
        assert cmd.enabled_mask(space).all()

    def test_alt_union_of_guards(self):
        space = StateSpace([X])
        cmd = AltCommand("a", [
            (X.ref() == 0, [(X, 1)]),
            (X.ref() == 3, [(X, 0)]),
        ])
        mask = cmd.enabled_mask(space)
        assert [bool(m) for m in mask] == [True, False, False, True]


class TestGapWitness:
    """The toggle/inc program: the canonical weak/strong separator."""

    def _program(self):
        toggle = GuardedCommand("toggle", True, [(B, lnot(B.ref()))])
        inc = GuardedCommand(
            "inc", land(B.ref(), X.ref() < 3), [(X, X.ref() + 1)]
        )
        return Program(
            "Gap", [X, B], TRUE, [toggle, inc], fair=["toggle", "inc"]
        )

    def test_weak_fails_strong_holds(self):
        prog = self._program()
        target = pred(X.ref() == 3)
        assert not check_leadsto(prog, TRUE, target).holds
        assert check_leadsto_strong(prog, TRUE, target).holds

    def test_gap_report(self):
        gap = fairness_gap(self._program(), TRUE, pred(X.ref() == 3))
        assert gap == {"weak": False, "strong": True, "gap": True}

    def test_strong_fairness_cannot_conjure_commands(self):
        """Strong fairness of an unfair command means nothing — if inc is
        not in D at all, even strong fairness fails."""
        toggle = GuardedCommand("toggle", True, [(B, lnot(B.ref()))])
        inc = GuardedCommand(
            "inc", land(B.ref(), X.ref() < 3), [(X, X.ref() + 1)]
        )
        prog = Program("NoD", [X, B], TRUE, [toggle, inc], fair=["toggle"])
        assert not check_leadsto_strong(prog, TRUE, pred(X.ref() == 3)).holds

    def test_never_enabled_command_is_vacuous(self):
        """A fair command whose guard never holds imposes no obligation
        under strong fairness (the premise never recurs)."""
        never = GuardedCommand("never", X.ref() > 3, [(X, 0)])
        spin = GuardedCommand("spin", True, [(B, lnot(B.ref()))])
        prog = Program("V", [X, B], TRUE, [never, spin], fair=["never", "spin"])
        # ¬q region can host a strongly fair run despite `never ∈ D`.
        assert not check_leadsto_strong(prog, TRUE, pred(X.ref() == 3)).holds


class TestStrongFailureWitness:
    """A failing dense strong leads-to carries the same walks as the weak
    checker: the fair SCC it settles in and a ``¬q``-confined path there."""

    def test_confining_path_reaches_a_strongly_fair_scc(self):
        # `inc` is not in D, so strong fairness cannot force x upwards:
        # from x = 1 the scheduler toggles b forever.
        toggle = GuardedCommand("toggle", True, [(B, lnot(B.ref()))])
        inc = GuardedCommand("inc", land(B.ref(), X.ref() < 3), [(X, X.ref() + 1)])
        prog = Program("NoD", [X, B], TRUE, [toggle, inc], fair=["toggle"])
        p, q = pred(X.ref() == 1), pred(X.ref() == 3)

        res = check_leadsto_strong(prog, p, q)
        assert not res.holds
        assert "tier" not in res.witness
        witness = res.witness
        path = witness["confining_path"]
        assert path[0] == witness["state"]
        assert p.holds(witness["state"])
        assert all(not q.holds(s) for s in path)
        space = prog.space
        ts = TransitionSystem.for_program(prog)
        for a, b in zip(path, path[1:]):
            i = space.index_of(a)
            assert any(int(t[i]) == space.index_of(b) for t in ts.tables.values())
        seeds = strong_fair_scc_analysis(prog, q).fair_seed_mask()
        assert seeds[space.index_of(path[-1])]
        assert seeds[space.index_of(witness["fair_scc_state"])]


class TestAgreementWhereGuardsPersist:
    """When every fair command's guard is persistent-until-fired (the §4
    design), weak and strong verdicts coincide."""

    def test_ladder_agrees(self):
        ups = [
            GuardedCommand(f"up{k}", X.ref() == k, [(X, k + 1)])
            for k in range(3)
        ]
        prog = Program("L", [X], TRUE, ups, fair=[f"up{k}" for k in range(3)])
        target = pred(X.ref() == 3)
        assert check_leadsto(prog, TRUE, target).holds
        assert check_leadsto_strong(prog, TRUE, target).holds

    def test_priority_system_agrees(self):
        from repro.graph.generators import ring_graph
        from repro.systems.priority import build_priority_system

        psys = build_priority_system(ring_graph(4))
        gap = fairness_gap(
            psys.system,
            psys.acyclicity_predicate(),
            psys.priority_predicate(0),
        )
        assert gap == {"weak": True, "strong": True, "gap": False}


class TestSoundnessRelation:
    @settings(max_examples=30, deadline=None)
    @given(program_strategy("SF"), predicate_strategy(), predicate_strategy())
    def test_weak_implies_strong(self, program, p, q):
        """Strong fairness restricts the scheduler more, so everything
        guaranteed under weak fairness holds under strong fairness."""
        if check_leadsto(program, p, q).holds:
            assert check_leadsto_strong(program, p, q).holds

    @settings(max_examples=30, deadline=None)
    @given(program_strategy("SF"), predicate_strategy())
    def test_strong_reflexive_and_vacuous_cases(self, program, q):
        assert check_leadsto_strong(program, q, q).holds
        from repro.core.predicates import FALSE

        assert check_leadsto_strong(program, FALSE, q).holds
