"""Proof summaries: node counts, rule histograms and renderings.

``ProofNode.count_nodes`` / ``rule_histogram`` make one pass over the
*distinct* nodes of a proof DAG, weighting each by its multiplicity, and
take fixed shapes (an ``Ensures`` step, a columnar metric induction)
without expanding them.  These tests pin them against a naive walk of the
fully expanded eager tree, pin the columnar record's lazy views against
the eager construction they replace, and pin that summaries and
renderings do not recurse (proof depth is bounded by memory, not by the
interpreter's recursion limit).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.commands import GuardedCommand
from repro.core.domains import IntRange
from repro.core.expressions import land, lnot
from repro.core.predicates import ExprPredicate, TRUE
from repro.core.program import Program
from repro.core.rules import (
    ColumnarInduction,
    Disjunction,
    Ensures,
    Implication,
    MetricInduction,
    Transitivity,
)
from repro.core.variables import Var
from repro.semantics.leadsto import check_leadsto
from repro.semantics.sparse.explorer import explore
from repro.semantics.synthesis import synthesize_leadsto_proof

from tests.test_sparse_differential import random_program, random_predicate

X = Var.shared("x", IntRange(0, 3))


def naive_shape(root):
    """Count and histogram by walking every node of the expanded tree,
    with each metric induction in its eager ``.tree()`` form."""
    count, hist = 0, {}
    todo = [root]
    while todo:
        node = todo.pop()
        if isinstance(node, MetricInduction):
            node = node.tree()
        count += 1
        hist[node.rule_name] = hist.get(node.rule_name, 0) + 1
        todo.extend(node.premises())
    return count, hist


def assert_summary_matches(proof):
    count, hist = naive_shape(proof)
    assert proof.count_nodes() == count
    assert proof.rule_histogram() == hist
    return count


def _random_certificates(options, want=4):
    """Synthesized certificates of random holding properties;
    ``options(program)`` gives the synthesis keywords."""
    out = []
    for seed in range(40):
        program = random_program(seed)
        rng = np.random.default_rng(90_000 + seed)
        p = random_predicate(program, rng)
        q = random_predicate(program, rng)
        if not check_leadsto(program, p, q).holds:
            continue
        proof = synthesize_leadsto_proof(program, p, q, **options(program))
        if isinstance(proof, ColumnarInduction):
            out.append((program, proof))
        if len(out) >= want:
            break
    assert out
    return out


def ladder_program():
    inc = GuardedCommand("inc", X.ref() < 3, [(X, X.ref() + 1)])
    return Program("Ladder", [X], TRUE, [inc], fair=["inc"])


def gap_program():
    """Certifiable only under strong fairness."""
    b = Var.boolean("gb")
    toggle = GuardedCommand("toggle", True, [(b, lnot(b.ref()))])
    inc = GuardedCommand("inc", land(b.ref(), X.ref() < 3), [(X, X.ref() + 1)])
    return Program("Gap", [X, b], TRUE, [toggle, inc], fair=["toggle", "inc"])


# ---------------------------------------------------------------------------
# Summary differential: arithmetic / DAG counts vs a naive expanded walk
# ---------------------------------------------------------------------------


class TestSummaryDifferential:
    def test_dense_certificates(self):
        for _program, proof in _random_certificates(lambda _: {}):
            n = assert_summary_matches(proof)
            assert n == 1 + 7 * len(proof.levels)

    def test_sparse_certificates(self, monkeypatch):
        monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
        certs = _random_certificates(
            lambda program: {"subspace": explore(program)}
        )
        for _program, proof in certs:
            assert proof.member_word == "reachable states"
            assert_summary_matches(proof)

    def test_strong_fairness_certificate(self):
        proof = synthesize_leadsto_proof(
            gap_program(), TRUE, ExprPredicate(X.ref() == 3), fairness="strong"
        )
        assert isinstance(proof, ColumnarInduction)
        assert_summary_matches(proof)
        assert "transient-strong" in proof.rule_histogram()
        assert "transient" not in proof.rule_histogram()

    def test_single_ensures_and_eager_tree(self):
        proof = synthesize_leadsto_proof(
            ladder_program(), TRUE, ExprPredicate(X.ref() == 3)
        )
        ensures = proof.subs[0]
        count, hist = naive_shape(ensures)
        assert ensures.count_nodes() == count == 7
        assert ensures.rule_histogram() == hist
        assert_summary_matches(proof.tree())

    def test_product_exhibit(self):
        from repro.systems.product import build_pipeline_allocator

        pa = build_pipeline_allocator(16)
        prop = pa.delivery()
        proof = synthesize_leadsto_proof(
            pa.system, prop.p, prop.q, fairness="strong"
        )
        assert isinstance(proof, ColumnarInduction)
        assert_summary_matches(proof)

    @pytest.mark.parametrize("stages", [5, 50])
    def test_compose50_delivery_certificate(self, stages):
        from repro.systems.compose_proof import (
            build_delivery_certificate,
            build_hetero_stack,
        )

        cert = build_delivery_certificate(build_hetero_stack(stages))
        assert_summary_matches(cert.proof)
        for lemma in cert.component_certs:
            assert_summary_matches(lemma.proof)

    def test_hand_built_induction_over_synthesized_premises(self):
        """The priority-proof shape: an eager MetricInduction whose
        premises are columnar records."""
        program = ladder_program()
        q = ExprPredicate(X.ref() == 3)
        levels = [ExprPredicate(X.ref() == k) for k in (2, 1, 0)]
        subs, lower = [], q
        for level in levels:
            subs.append(synthesize_leadsto_proof(program, level, lower))
            lower = lower | level
        proof = MetricInduction(TRUE, q, levels, subs)
        assert_summary_matches(proof)


# ---------------------------------------------------------------------------
# Lazy views vs the eager construction
# ---------------------------------------------------------------------------


def eager_levels_and_subs(proof):
    """The per-level objects as synthesis built them before certificates
    became columnar: one level view and one ``Ensures`` per level."""
    table = proof.support_table
    levels, subs = [], []
    for n in range(table.n_levels):
        members = table.level_members(n)
        level = table.level_pred(
            n,
            f"level[{n}] (scc #{int(proof.scc_ids[n])}, "
            f"{members.shape[0]} {proof.member_word})",
        )
        exit_pred = proof.q | table.prefix_pred(n, f"exit[{n}] (lower levels)")
        levels.append(level)
        subs.append(Ensures(level, exit_pred, fairness=proof.fairness))
    return levels, subs


class TestLazyViews:
    def _certificates(self, monkeypatch):
        dense = [proof for _, proof in _random_certificates(lambda _: {})]
        strong = synthesize_leadsto_proof(
            gap_program(), TRUE, ExprPredicate(X.ref() == 3), fairness="strong"
        )
        monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
        sparse = [
            proof
            for _, proof in _random_certificates(
                lambda program: {"subspace": explore(program)}
            )
        ]
        return dense + [strong] + sparse

    def test_levels_and_subs_match_eager_construction(self, monkeypatch):
        for proof in self._certificates(monkeypatch):
            levels, subs = eager_levels_and_subs(proof)
            assert len(proof.levels) == len(proof.subs) == len(levels)
            for n, (level, sub) in enumerate(zip(levels, subs)):
                lazy_level, lazy_sub = proof.levels[n], proof.subs[n]
                assert np.array_equal(lazy_level.members, level.members)
                assert lazy_level.describe() == level.describe()
                assert lazy_sub.fairness == sub.fairness
                assert lazy_sub.p.describe() == sub.p.describe()
                assert lazy_sub.q.describe() == sub.q.describe()
                lazy_exit, exit_pred = lazy_sub.q.parts[1], sub.q.parts[1]
                assert np.array_equal(lazy_exit.members, exit_pred.members)
                assert np.array_equal(lazy_exit.ranks, exit_pred.ranks)
                assert lazy_exit.cutoff == exit_pred.cutoff == n
            eager = MetricInduction(proof.p, proof.q, levels, subs)
            assert proof.render() == eager.render() == proof.tree().render()

    def test_view_indexing(self):
        proof = synthesize_leadsto_proof(
            ladder_program(), TRUE, ExprPredicate(X.ref() == 3)
        )
        n = len(proof.levels)
        assert n >= 2
        assert proof.levels[-1].describe() == proof.levels[n - 1].describe()
        assert [lv.describe() for lv in proof.levels[1:]] == [
            proof.levels[k].describe() for k in range(1, n)
        ]
        assert len(list(proof.subs)) == n
        with pytest.raises(IndexError):
            proof.levels[n]
        # The record accepts instance attributes (callers may wrap its
        # summary methods on the object).
        proof.note = "annotated"
        assert proof.note == "annotated"


# ---------------------------------------------------------------------------
# Depth: summaries and renderings are iterative
# ---------------------------------------------------------------------------


def deep_chain(units: int):
    """A chain ``2 * units`` rules deep whose every conclusion is shallow:
    ``Transitivity(Disjunction([leaf, chain], lhs=P), leaf)``, all
    sharing one ``leaf``."""
    leaf = Implication(TRUE, TRUE)
    node = leaf
    for _ in range(units):
        node = Transitivity(Disjunction([leaf, node], conclude_lhs=TRUE), leaf)
    return node


class TestDeepProofs:
    UNITS = 2_500  # 5 000 rules deep

    def test_summary_and_render_do_not_recurse(self):
        proof = deep_chain(self.UNITS)
        assert 2 * self.UNITS > sys.getrecursionlimit()
        expected = {
            "transitivity": self.UNITS,
            "disjunction": self.UNITS,
            "implication": 2 * self.UNITS + 1,
        }
        assert proof.rule_histogram() == expected
        assert proof.count_nodes() == sum(expected.values())
        text = proof.render()
        lines = text.split("\n")
        assert len(lines) == proof.count_nodes()
        assert lines[0] == "transitivity: true ~> true"
        assert lines[1] == "  disjunction: true ~> true"
        deepest = max(len(line) - len(line.lstrip(" ")) for line in lines)
        assert deepest == 2 * 2 * self.UNITS
