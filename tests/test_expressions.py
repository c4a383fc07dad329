"""Tests for repro.core.expressions: typing, evaluation, substitution,
operator sugar, printing, and scalar/vector agreement."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.domains import EnumDomain, IntRange
from repro.core.expressions import (
    Add,
    BoolConst,
    Const,
    EqE,
    Expr,
    IntConst,
    Ite,
    Neg,
    Not,
    VarRef,
    esum,
    iff,
    implies,
    ite,
    land,
    lnot,
    lor,
    maximum,
    minimum,
)
from repro.core.state import State
from repro.core.variables import Var
from repro.errors import EvaluationError, ExpressionError


X = Var.shared("x", IntRange(0, 5))
Y = Var.shared("y", IntRange(-2, 2))
B = Var.boolean("b")
PH = Var("ph", EnumDomain("ph", ("idle", "busy")))


def env(**kw):
    values = {"x": 0, "y": 0, "b": False, "ph": "idle"}
    values.update(kw)
    return State({X: values["x"], Y: values["y"], B: values["b"], PH: values["ph"]})


class TestTyping:
    def test_var_types(self):
        assert X.ref().typ == "int"
        assert B.ref().typ == "bool"
        assert PH.ref().typ == PH.domain

    def test_arith_requires_int(self):
        with pytest.raises(ExpressionError):
            Add(B.ref(), IntConst(1))

    def test_not_requires_bool(self):
        with pytest.raises(ExpressionError):
            Not(X.ref())

    def test_cmp_requires_int(self):
        with pytest.raises(ExpressionError):
            B.ref() < 1

    def test_eq_type_mismatch(self):
        with pytest.raises(ExpressionError):
            EqE(X.ref(), B.ref())

    def test_enum_label_resolution(self):
        e = PH.ref() == "busy"
        assert e.typ == "bool"

    def test_enum_unknown_label_rejected(self):
        with pytest.raises(ExpressionError):
            PH.ref() == "nonsense"

    def test_two_bare_labels_rejected(self):
        with pytest.raises(ExpressionError):
            EqE(Const("a", None), Const("b", None))

    def test_ite_arm_mismatch(self):
        with pytest.raises(ExpressionError):
            Ite(B.ref(), IntConst(1), BoolConst(True))

    def test_ite_enum_label_arm(self):
        e = ite(B.ref(), PH.ref(), "idle")
        assert e.typ == PH.domain

    def test_ite_bad_label_arm(self):
        with pytest.raises(ExpressionError):
            ite(B.ref(), PH.ref(), "bogus")


class TestScalarEval:
    def test_arith(self):
        e = (X.ref() + 2) * 3 - Y.ref()
        assert e.eval(env(x=1, y=-2)) == 11

    def test_floordiv_mod(self):
        e = X.ref() // 2
        assert e.eval(env(x=5)) == 2
        assert (X.ref() % 3).eval(env(x=5)) == 2

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            (X.ref() // Y.ref()).eval(env(x=1, y=0))
        with pytest.raises(EvaluationError):
            (X.ref() % Y.ref()).eval(env(x=1, y=0))

    def test_neg(self):
        assert Neg(Y.ref()).eval(env(y=-2)) == 2

    def test_min_max(self):
        assert minimum(X.ref(), 3).eval(env(x=5)) == 3
        assert maximum(X.ref(), Y.ref(), 1).eval(env(x=0, y=-1)) == 1

    def test_comparisons(self):
        assert (X.ref() < 5).eval(env(x=4))
        assert (X.ref() >= 4).eval(env(x=4))
        assert not (X.ref() > 4).eval(env(x=4))
        assert (X.ref() == 4).eval(env(x=4))
        assert (X.ref() != 3).eval(env(x=4))

    def test_bool_connectives(self):
        e = land(B.ref(), X.ref() > 0)
        assert e.eval(env(b=True, x=1))
        assert not e.eval(env(b=True, x=0))
        assert lor(B.ref(), X.ref() > 0).eval(env(b=False, x=1))
        assert lnot(B.ref()).eval(env(b=False))
        assert implies(B.ref(), X.ref() > 0).eval(env(b=False, x=0))
        assert iff(B.ref(), X.ref() > 0).eval(env(b=True, x=1))

    def test_enum_eval(self):
        assert (PH.ref() == "idle").eval(env(ph="idle"))
        assert (PH.ref() != "busy").eval(env(ph="idle"))

    def test_ite_eval(self):
        e = ite(B.ref(), X.ref() + 1, X.ref())
        assert e.eval(env(b=True, x=2)) == 3
        assert e.eval(env(b=False, x=2)) == 2

    def test_unbound_variable(self):
        z = Var.shared("z", IntRange(0, 1))
        with pytest.raises(EvaluationError):
            z.ref().eval(env())

    def test_esum(self):
        assert esum([X.ref(), Y.ref(), IntConst(2)]).eval(env(x=1, y=-1)) == 2
        assert esum([]).eval(env()) == 0


class TestVectorAgreement:
    """eval_vec over a whole environment must agree with per-state eval."""

    def _vec_env(self):
        xs = np.array([0, 1, 2, 5])
        ys = np.array([-2, 0, 1, 2])
        bs = np.array([True, False, True, False])
        phs = np.array(["idle", "busy", "idle", "busy"], dtype=object)
        return {X: xs, Y: ys, B: bs, PH: phs}, [
            env(x=int(x), y=int(y), b=bool(b), ph=str(p))
            for x, y, b, p in zip(xs, ys, bs, phs)
        ]

    @pytest.mark.parametrize("builder", [
        lambda: (X.ref() + 2) * 3 - Y.ref(),
        lambda: X.ref() // 2 + X.ref() % 3,
        lambda: minimum(X.ref(), 3) + maximum(Y.ref(), 0),
        lambda: Neg(Y.ref()),
        lambda: land(B.ref(), X.ref() > 0, Y.ref() <= 1),
        lambda: lor(B.ref(), X.ref() == 5),
        lambda: implies(B.ref(), X.ref() > 0),
        lambda: iff(B.ref(), Y.ref() >= 0),
        lambda: lnot(B.ref()),
        lambda: ite(B.ref(), X.ref(), 5 - X.ref()),
        lambda: PH.ref() == "busy",
        lambda: PH.ref() != "idle",
    ])
    def test_agreement(self, builder):
        expr = builder()
        vec_env, scalar_envs = self._vec_env()
        vec = np.asarray(expr.eval_vec(vec_env))
        for k, s_env in enumerate(scalar_envs):
            assert vec[k] == expr.eval(s_env), f"state {k} disagrees for {expr}"


class TestSubstitution:
    def test_simple(self):
        e = X.ref() + Y.ref()
        out = e.substitute({X: IntConst(7)})
        assert out.eval(env(y=1)) == 8

    def test_simultaneous(self):
        # [x := y, y := x] swaps — not sequential.
        e = X.ref() - Y.ref()
        out = e.substitute({X: Y.ref(), Y: X.ref()})
        assert out.eval(env(x=3, y=1)) == -2

    def test_type_checked(self):
        with pytest.raises(ExpressionError):
            X.ref().substitute({X: BoolConst(True)})

    def test_untouched_vars(self):
        e = land(B.ref(), X.ref() > 0)
        out = e.substitute({X: IntConst(1)})
        assert out.variables() == frozenset({B})

    def test_nested(self):
        e = ite(B.ref(), X.ref() + 1, X.ref())
        out = e.substitute({X: X.ref() + 1})
        assert out.eval(env(b=True, x=1)) == 3


class TestStructure:
    def test_variables(self):
        e = land(B.ref(), X.ref() + Y.ref() > 0)
        assert e.variables() == frozenset({B, X, Y})

    def test_count_nodes(self):
        assert IntConst(1).count_nodes() == 1
        assert (X.ref() + 1).count_nodes() == 3

    def test_same_as(self):
        assert (X.ref() + 1).same_as(X.ref() + 1)
        assert not (X.ref() + 1).same_as(X.ref() + 2)

    def test_eq_builds_node_not_bool(self):
        node = X.ref() == 1
        assert node.typ == "bool"
        with pytest.raises(ExpressionError):
            bool(node)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(X.ref() + 1)

    def test_and_flattens(self):
        e = land(land(B.ref(), B.ref()), B.ref())
        assert len(e.children()) == 3


class TestPrinting:
    @pytest.mark.parametrize("builder, text", [
        (lambda: X.ref() + Y.ref() * 2, "x + y * 2"),
        (lambda: (X.ref() + Y.ref()) * 2, "(x + y) * 2"),
        (lambda: X.ref() - (Y.ref() - 1), "x - (y - 1)"),
        (lambda: land(B.ref(), lnot(B.ref())), "b /\\ ~b"),
        (lambda: lor(land(B.ref(), B.ref()), B.ref()), "b /\\ b \\/ b"),
        (lambda: land(lor(B.ref(), B.ref()), B.ref()), "(b \\/ b) /\\ b"),
        (lambda: implies(B.ref(), B.ref()), "b => b"),
        (lambda: X.ref() == 3, "x = 3"),
        (lambda: X.ref() != 3, "x != 3"),
        (lambda: BoolConst(True), "true"),
        (lambda: minimum(X.ref(), 1), "min(x, 1)"),
    ])
    def test_rendering(self, builder, text):
        assert str(builder()) == text

    def test_parenthesization_respects_precedence(self):
        e = implies(lor(B.ref(), B.ref()), land(B.ref(), B.ref()))
        assert str(e) == "b \\/ b => b /\\ b"


@given(st.integers(0, 5), st.integers(-2, 2), st.booleans())
def test_random_exprs_scalar_vector_agree(x, y, b):
    """Spot-check agreement on a fixed expression over random states."""
    expr = ite(
        land(B.ref(), X.ref() > 2),
        minimum(X.ref() + Y.ref(), 5),
        maximum(X.ref() - Y.ref(), -7),
    )
    s = State({X: x, Y: y, B: b, PH: "idle"})
    scalar = expr.eval(s)
    vec = expr.eval_vec({X: np.array([x]), Y: np.array([y]), B: np.array([b])})
    assert np.asarray(vec)[0] == scalar


# ---------------------------------------------------------------------------
# Memoized derived facts: variables() and str() are computed once per node
# and must never differ from an uncached walk, nor leak into identity.
# ---------------------------------------------------------------------------


def _uncached_variables(expr):
    if isinstance(expr, VarRef):
        return {expr.var}
    out = set()
    for child in expr.children():
        out |= _uncached_variables(child)
    return out


def _uncached_text(expr, monkeypatch):
    """Render with the memo-free printer: every child re-rendered."""

    def fmt_child(self, child, *, strict=False):
        text = child._fmt()
        if child._prec < self._prec or (strict and child._prec == self._prec):
            return f"({text})"
        return text

    with monkeypatch.context() as m:
        m.setattr(Expr, "_fmt_child", fmt_child)
        m.setattr(Expr, "__str__", lambda self: self._fmt())
        return expr._fmt()


def _fuzz_exprs(seeds):
    """Guards, right-hand sides, initially, p, q and wp terms of the
    generated fuzz cases."""
    from repro.core.commands import AltCommand, GuardedCommand
    from repro.gen.fuzz import fuzz_case

    out = []
    for seed in seeds:
        case = fuzz_case(seed)
        program = case.program
        out += [case.p.expr, case.q.expr, program.init.as_expr()]
        for cmd in program.commands:
            if isinstance(cmd, GuardedCommand):
                branches = [(cmd.guard, cmd.assignments)]
            elif isinstance(cmd, AltCommand):
                branches = list(cmd.branches)
            else:
                continue
            for guard, assigns in branches:
                out.append(guard)
                out += [a.expr for a in assigns]
            try:
                out.append(cmd.wp(case.q).as_expr())
            except ExpressionError:
                pass  # a label assigned into a label comparison
    return out


class TestMemos:
    @pytest.mark.parametrize("seed", range(12))
    def test_fuzz_exprs_match_uncached_walks(self, seed, monkeypatch):
        for expr in _fuzz_exprs([seed]):
            # A structural copy has fresh memo slots at every inner node.
            fresh = expr.substitute({})
            assert fresh.same_as(expr)
            want_vars = _uncached_variables(expr)
            want_text = _uncached_text(expr, monkeypatch)
            for probe in (fresh, expr):
                for _ in range(2):  # first access, then the memo
                    assert probe.variables() == want_vars
                    assert str(probe) == want_text
            assert _uncached_text(fresh, monkeypatch) == want_text

    def test_substitute_starts_without_memos(self):
        e = land(X.ref() + 1 > Y.ref(), B.ref())
        assert e.variables() == {X, Y, B}
        assert str(e) == "x + 1 > y /\\ b"
        s = e.substitute({X: Y.ref() + 2})
        assert getattr(s, "_vars", None) is None
        assert getattr(s, "_text", None) is None
        assert s.variables() == {Y, B}
        assert str(s) == "y + 2 + 1 > y /\\ b"
        # The source's memos are untouched by its substitution instance.
        assert e.variables() == {X, Y, B}
        assert str(e) == "x + 1 > y /\\ b"

    def test_wp_result_starts_without_memos(self, monkeypatch):
        from repro.core.commands import GuardedCommand
        from repro.core.predicates import ExprPredicate

        post = ExprPredicate(land(X.ref() == 3, B.ref()))
        assert post.variables() == {X, B}
        assert post.describe() == "x = 3 /\\ b"
        cmd = GuardedCommand("c", Y.ref() > 0, [(X, Y.ref() + 1)])
        wp = cmd.wp(post)
        assert wp.variables() == _uncached_variables(wp.as_expr()) == {X, Y, B}
        assert wp.describe() == _uncached_text(wp.as_expr(), monkeypatch)
        assert post.describe() == "x = 3 /\\ b"

    def test_identity_ignores_memos(self):
        a = ite(B.ref(), X.ref() + Y.ref(), minimum(X.ref(), 2)) > 1
        b = ite(B.ref(), X.ref() + Y.ref(), minimum(X.ref(), 2)) > 1
        key = b._key()
        str(a)
        a.variables()
        assert a.same_as(b) and b.same_as(a)
        assert a._key() == key == b._key()
        str(b)
        b.variables()
        assert b._key() == key
        assert not a.same_as(ite(B.ref(), X.ref(), minimum(X.ref(), 2)) > 1)
