"""Tests for repro.core.composition: the paper's ``F ∘ G`` and its side
conditions, plus associativity/commutativity and lifting."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.commands import GuardedCommand
from repro.core.composition import (
    can_compose,
    compatibility_report,
    compose,
    compose_all,
    inert_program,
    lifted,
)
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate, TRUE
from repro.core.program import Program
from repro.core.variables import Var
from repro.errors import CompositionError
from repro.semantics.transition import TransitionSystem

from tests.conftest import program_pair_strategy

X = Var.shared("x", IntRange(0, 3))
B = Var.boolean("b")
LOC = Var.local("mine", IntRange(0, 1))


def prog(name, variables, init=TRUE, commands=(), fair=()):
    return Program(name, variables, init, list(commands), fair=list(fair))


def inc(name="inc"):
    return GuardedCommand(name, X.ref() < 3, [(X, X.ref() + 1)])


class TestCompatibility:
    def test_disjoint_ok(self):
        f = prog("F", [X])
        g = prog("G", [B])
        assert can_compose(f, g)

    def test_shared_same_domain_ok(self):
        assert can_compose(prog("F", [X]), prog("G", [X]))

    def test_shared_domain_mismatch(self):
        other = Var.shared("x", IntRange(0, 5))
        report = compatibility_report(prog("F", [X]), prog("G", [other]))
        assert not report.ok
        assert "mismatched domains" in report.explain()

    def test_local_collision_rejected(self):
        f = prog("F", [LOC])
        g = prog("G", [Var.shared("mine", IntRange(0, 1))])
        report = compatibility_report(f, g)
        assert not report.ok
        assert "locality" in report.explain()

    def test_local_local_collision_rejected(self):
        f = prog("F", [LOC])
        g = prog("G", [Var.local("mine", IntRange(0, 1))])
        assert not can_compose(f, g)

    def test_inconsistent_inits_rejected(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() == 0))
        g = prog("G", [X], init=ExprPredicate(X.ref() == 1))
        report = compatibility_report(f, g)
        assert not report.ok
        assert "unsatisfiable" in report.explain()

    def test_init_check_can_be_skipped(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() == 0))
        g = prog("G", [X], init=ExprPredicate(X.ref() == 1))
        assert can_compose(f, g, check_init=False)

    def test_same_name_rejected(self):
        assert not can_compose(prog("F", [X]), prog("F", [X]))


class TestComposeSemantics:
    def test_variable_union_order(self):
        c = compose(prog("F", [X]), prog("G", [B, X]))
        assert [v.name for v in c.variables] == ["x", "b"]

    def test_init_conjunction(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() <= 1))
        g = prog("G", [X], init=ExprPredicate(X.ref() >= 1))
        c = compose(f, g)
        assert [s[X] for s in c.initial_states()] == [1]

    def test_command_union_dedups_structural(self):
        # Both components contribute the same body: ONE element of C.
        f = prog("F", [X], commands=[inc("a")])
        g = prog("G", [X], commands=[inc("b")])
        c = compose(f, g)
        non_skip = [cmd for cmd in c.commands if not cmd.is_skip()]
        assert len(non_skip) == 1
        assert non_skip[0].origins >= {"F", "G"}

    def test_name_collision_distinct_bodies_renamed(self):
        f = prog("F", [X], commands=[inc("step")])
        g_cmd = GuardedCommand("step", X.ref() > 0, [(X, X.ref() - 1)])
        g = prog("G", [X], commands=[g_cmd])
        c = compose(f, g)
        names = {cmd.name for cmd in c.commands}
        assert "step" in names and "G.step" in names

    def test_fairness_union(self):
        f = prog("F", [X], commands=[inc("a")], fair=["a"])
        g = prog("G", [B])
        c = compose(f, g)
        assert "a" in c.fair_names

    def test_fairness_inherited_on_dedup(self):
        f = prog("F", [X], commands=[inc("a")])           # not fair in F
        g = prog("G", [X], commands=[inc("b")], fair=["b"])  # fair in G
        c = compose(f, g)
        merged = [cmd for cmd in c.commands if not cmd.is_skip()][0]
        assert merged.name in c.fair_names

    def test_skip_merged_once(self):
        c = compose(prog("F", [X]), prog("G", [B]))
        assert sum(1 for cmd in c.commands if cmd.is_skip()) == 1

    def test_raises_on_incompatible(self):
        with pytest.raises(CompositionError):
            compose(prog("F", [LOC]), prog("G", [Var.local("mine", IntRange(0, 1))]))


class TestAlgebra:
    def _three(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() == 0), commands=[inc("a")], fair=["a"])
        g = prog("G", [X, B], commands=[GuardedCommand("t", True, [(B, ~B.ref())])])
        h = prog("H", [B], init=ExprPredicate(~B.ref()))
        return f, g, h

    @staticmethod
    def _semantics(p):
        """Canonical semantic fingerprint: init set + command body → relation."""
        ts = TransitionSystem.for_program(p)
        bodies = {}
        for cmd in p.commands:
            bodies[cmd.body_key()] = ts.tables[cmd.name]
        return p.initial_mask(), bodies

    def test_commutative_up_to_encoding(self):
        f, g, _ = self._three()
        fg = compose(f, g)
        gf = compose(g, f)
        # Same variable *sets* (order differs → compare as sets + sizes).
        assert set(v.name for v in fg.variables) == set(v.name for v in gf.variables)
        assert fg.space.size == gf.space.size
        assert {c.body_key() for c in fg.commands} == {c.body_key() for c in gf.commands}
        assert fg.initial_mask().sum() == gf.initial_mask().sum()

    def test_associative(self):
        f, g, h = self._three()
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert [v.name for v in left.variables] == [v.name for v in right.variables]
        li, lb = self._semantics(left)
        ri, rb = self._semantics(right)
        assert (li == ri).all()
        assert set(lb) == set(rb)
        for key in lb:
            assert np.array_equal(lb[key], rb[key])

    def test_compose_all_fold(self):
        f, g, h = self._three()
        c = compose_all([f, g, h], name="S")
        assert c.name == "S"
        assert c.space.size == 4 * 2

    def test_compose_all_empty_rejected(self):
        with pytest.raises(CompositionError):
            compose_all([])

    def test_compose_all_singleton(self):
        f, _, _ = self._three()
        assert compose_all([f]) is f


class TestLifting:
    def test_inert_program_changes_nothing(self):
        env = inert_program("Env", [X, B])
        assert len(env.commands) == 1 and env.commands[0].is_skip()
        assert env.initial_mask().all()

    def test_lifted_preserves_behaviour(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() == 0),
                 commands=[inc("a")], fair=["a"])
        lf = lifted(f, [X, B])
        assert [v.name for v in lf.variables] == ["x", "b"]
        assert "a" in lf.fair_names
        # The lifted command leaves b untouched on every state.
        ts = TransitionSystem.for_program(lf)
        table = ts.tables["a"]
        space = lf.space
        for i in range(space.size):
            s, t = space.state_at(i), space.state_at(int(table[i]))
            assert s[B] == t[B]

    def test_lifted_over_program(self):
        f = prog("F", [X])
        system = prog("Sys", [X, B])
        lf = lifted(f, system)
        assert [v.name for v in lf.variables] == ["x", "b"]

    def test_lifted_missing_vars_rejected(self):
        f = prog("F", [X])
        with pytest.raises(CompositionError):
            lifted(f, [B])

    def test_lifted_conflicting_redeclaration_rejected(self):
        f = prog("F", [X])
        other = Var.shared("x", IntRange(0, 9))
        with pytest.raises(CompositionError):
            lifted(f, [other, B])


@settings(max_examples=40, deadline=None)
@given(program_pair_strategy())
def test_random_pairs_compose_and_union_holds(pair):
    """Composition of random compatible pairs: C is the union of the
    components' command sets (structurally) and D the union of fairness."""
    f, g = pair
    c = compose(f, g)
    f_keys = {cmd.body_key() for cmd in f.commands}
    g_keys = {cmd.body_key() for cmd in g.commands}
    c_keys = {cmd.body_key() for cmd in c.commands}
    assert c_keys == f_keys | g_keys
    # Fair bodies are unioned too.
    fair_bodies = {f.command_named(n).body_key() for n in f.fair_names}
    fair_bodies |= {g.command_named(n).body_key() for n in g.fair_names}
    c_fair_bodies = {c.command_named(n).body_key() for n in c.fair_names}
    assert c_fair_bodies == fair_bodies


# ---------------------------------------------------------------------------
# compose_all is one n-ary union, equal to the left fold of binary steps
# ---------------------------------------------------------------------------


def _fold_step(f, g, name):
    """One binary union step, as compose() built it before compose_all
    became n-ary (the reference the n-ary union must reproduce)."""
    report = compatibility_report(f, g, check_init=False)
    if not report.ok:
        raise CompositionError(report.explain())
    by_name = {v.name: v for v in f.variables}
    merged = list(f.variables)
    for v in g.variables:
        if v.name not in by_name:
            by_name[v.name] = v
            merged.append(v)
    f_keys = {c.body_key(): c for c in f.commands}
    commands = list(f.commands)
    fair = set(f.fair_names)
    for cmd in g.commands:
        key = cmd.body_key()
        if key in f_keys:
            if cmd.name in g.fair_names:
                fair.add(f_keys[key].name)
            idx = commands.index(f_keys[key])
            commands[idx] = commands[idx].with_origins(
                commands[idx].origins | cmd.origins | frozenset({g.name})
            )
            continue
        new_name = cmd.name
        if any(c.name == new_name for c in commands):
            new_name = f"{g.name}.{cmd.name}"
            if any(c.name == new_name for c in commands):
                raise CompositionError(f"cannot disambiguate {cmd.name!r}")
            cmd = cmd.renamed(new_name)
        commands.append(cmd)
        if key in {c.body_key() for c in g.fair_commands}:
            fair.add(cmd.name)
    return Program(name, merged, f.init & g.init, commands, fair=sorted(fair))


def _left_fold(programs, name=None):
    out = programs[0]
    for nxt in programs[1:]:
        out = _fold_step(out, nxt, f"({out.name}||{nxt.name})")
    if name is not None:
        out = Program(
            name, out.variables, out.init, out.commands, fair=sorted(out.fair_names)
        )
    return out


def _assert_same_program(got, want):
    assert got.name == want.name
    assert [repr(v) for v in got.variables] == [repr(v) for v in want.variables]
    assert got.variables == want.variables
    assert got.init.describe() == want.init.describe()
    assert [
        (c.name, c.body_key(), c.origins, c.describe()) for c in got.commands
    ] == [(c.name, c.body_key(), c.origins, c.describe()) for c in want.commands]
    assert got.fair_names == want.fair_names


def _recorded_compositions(monkeypatch, module, build):
    """Run ``build`` with ``module.compose_all`` recorded."""
    calls = []
    real = module.compose_all

    def recording(programs, **kw):
        out = real(programs, **kw)
        calls.append((list(programs), kw, out))
        return out

    monkeypatch.setattr(module, "compose_all", recording)
    build()
    assert calls
    return calls


class TestComposeAllIsTheFold:
    @pytest.mark.parametrize(
        "family, params",
        [
            ("torus", {"rows": 3, "cols": 3}),
            ("hypercube", {"d": 3}),
            ("regular", {"n": 8, "d": 3, "seed": 1}),
            ("fanout", {}),
            ("mesh", {"pools": 2, "clients": 3, "total": 2}),
        ],
    )
    def test_scenario_families(self, family, params, monkeypatch):
        from repro.gen.families import build_scenario
        from repro.systems import fanout, mesh, philosophers

        module = {"fanout": fanout, "mesh": mesh}.get(family, philosophers)
        calls = _recorded_compositions(
            monkeypatch, module, lambda: build_scenario(family, **params)
        )
        for programs, kw, out in calls:
            _assert_same_program(out, _left_fold(programs, kw.get("name")))

    def test_hetero_stack(self, monkeypatch):
        from repro.systems import compose_proof

        calls = _recorded_compositions(
            monkeypatch,
            compose_proof,
            lambda: compose_proof.build_hetero_stack(12, clients=3, total=2),
        )
        for programs, kw, out in calls:
            _assert_same_program(out, _left_fold(programs, kw.get("name")))

    def test_collisions_merges_and_nested_names(self):
        """Same-named distinct bodies get component prefixes; identical
        bodies merge provenance and fairness; unnamed results carry the
        fold's nested name."""
        dec = GuardedCommand("inc", X.ref() > 0, [(X, X.ref() - 1)])
        reset = GuardedCommand("inc", B.ref(), [(X, 0)])
        f = prog("F", [X], commands=[inc()])
        g = prog("G", [X], commands=[dec, inc("up")])
        h = prog("H", [X, B], commands=[reset, inc("again")])
        k = prog("K", [X, B], commands=[inc("K.inc")], fair=["K.inc"])
        programs = [f, g, h, k]
        got = compose_all(programs, check_init=False)
        _assert_same_program(got, _left_fold(programs))
        assert got.name == "(((F||G)||H)||K)"
        assert {"inc", "G.inc", "H.inc"} <= {c.name for c in got.commands}
        # G's "up", H's "again" and K's "K.inc" are F's body: one element
        # of the union, fair because K lists it as fair.
        assert "inc" in got.fair_names
        assert got.command_named("inc").origins == frozenset("FGHK")
        _assert_same_program(
            compose_all(programs, name="S", check_init=False),
            _left_fold(programs, "S"),
        )

    def test_errors_name_the_failing_step(self):
        """The first incompatible step raises the fold's message."""
        f = prog("F", [X])
        g = prog("G", [B])
        h = prog("H", [Var.shared("x", IntRange(0, 5))])
        for programs in ([f, g, h], [f, g, prog("(F||G)", [])]):
            with pytest.raises(CompositionError) as nary:
                compose_all(programs, check_init=False)
            with pytest.raises(CompositionError) as fold:
                _left_fold(programs)
            assert str(nary.value) == str(fold.value)
            assert "(F||G)" in str(nary.value)

    def test_unsatisfiable_initially_is_checked_once_at_the_end(self):
        a = prog("A", [X], init=ExprPredicate(X.ref() == 0))
        b = prog("B", [B])
        c = prog("C", [X], init=ExprPredicate(X.ref() == 1))
        with pytest.raises(CompositionError) as nary:
            compose_all([a, b, c])
        with pytest.raises(CompositionError) as pairwise:
            compose(compose(a, b, check_init=False), c)
        assert str(nary.value) == str(pairwise.value)
        assert compose_all([a, b, c], check_init=False).name == "((A||B)||C)"
