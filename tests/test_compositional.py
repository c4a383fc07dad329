"""Assume–guarantee certification: the product, never materialized.

Positive direction: the compositional kernel certifies the heterogeneous
pipeline ∘ allocator stack, and on instances small enough to explore its
verdict agrees with the dense per-level walk of the *same* rule tree (the
differential oracle) and with the explored model checker.

Negative direction (the refusal contract): a broken side condition, an
interfering command, an inconsistent initially-conjunction, and a
membership lie must each fail the check — the kernel refuses, it never
guesses.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.commands import GuardedCommand
from repro.core.compositional import (
    CompositionalCertificate,
    SupportSplit,
)
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate
from repro.core.program import Program
from repro.core.rules import Implication
from repro.core.variables import Var
from repro.semantics import compositional
from repro.semantics.compositional import _Walker, check_compositional
from repro.semantics.strong_fairness import check_leadsto_strong
from repro.systems.compose_proof import (
    build_delivery_certificate,
    build_hetero_stack,
    encoded_size,
)


@pytest.fixture(scope="module")
def small_stack():
    """An instance small enough for the dense oracle to explore."""
    pa = build_hetero_stack(3, clients=2, total=2)
    return pa, build_delivery_certificate(pa)


# ---------------------------------------------------------------------------
# Positive: certification, differential oracle, flagship scale
# ---------------------------------------------------------------------------


class TestCertification:
    def test_small_stack_certifies(self, small_stack):
        pa, cert = small_stack
        res = check_compositional(cert)
        assert res.ok, res.explain()
        assert res.components_checked == len(pa.components)
        assert res.frame_skips > 0          # the frame rule did real work
        assert res.footprint_evaluations > 0
        # Every footprint space stayed tiny (that is the whole point).
        assert res.notes["footprint_spaces"] > 0

    def test_differential_against_dense_oracle(self, small_stack):
        """The dense per-level walk of the *same* rule tree agrees."""
        pa, cert = small_stack
        dense = cert.proof.check(pa.system)
        assert dense.ok, dense.explain()

    def test_differential_against_explored_checker(self, small_stack):
        """The explored model checker agrees with the certificate."""
        pa, cert = small_stack
        res = check_leadsto_strong(pa.system, cert.p, cert.q)
        assert res.holds

    def test_flagship_50_stage_stack(self):
        """The win condition: a product beyond every exploration tier is
        certified in time linear in the component count, with zero
        product-space states materialized."""
        pa = build_hetero_stack(50, clients=3, total=3)
        size = encoded_size(pa)
        assert size > 10**30               # far beyond int64, let alone BFS
        cert = build_delivery_certificate(pa)
        res = check_compositional(cert)
        assert res.ok, res.explain()
        assert res.components_checked == 54
        # Linear in components, not in the product: every footprint
        # stayed below the kernel cap, which is microscopic next to the
        # encoded product.
        assert res.footprint_evaluations < 50_000
        # The exact work, pinned: a change here is a change in what the
        # frame rule and the footprint kernel do, not noise.
        assert res.obligations_checked == 14462
        assert res.frame_skips == 8697
        assert res.footprint_evaluations == 8821

    def test_certificate_records_the_derivation(self, small_stack):
        pa, cert = small_stack
        assert cert.guarantee is not None
        assert any("g-transitivity" in step for step in cert.guarantee_trail)
        assert len(cert.component_certs) == len(pa.components)
        text = cert.render()
        assert "compositional certificate" in text

    def test_check_scales_linearly_in_components(self):
        """Obligations grow ~linearly with the stage count (the product
        grows exponentially)."""
        counts = {}
        for stages in (5, 10, 20):
            pa = build_hetero_stack(stages, clients=2, total=2)
            res = check_compositional(build_delivery_certificate(pa))
            assert res.ok, res.explain()
            counts[stages] = res.obligations_checked
        # Doubling the stages must not even triple the obligations
        # (quadratic or worse would explode here).
        assert counts[10] < 3 * counts[5]
        assert counts[20] < 3 * counts[10]


# ---------------------------------------------------------------------------
# Negative: the refusal contract
# ---------------------------------------------------------------------------


def _failure_text(res) -> str:
    return "\n".join(str(f) for f in res.failures)


# Injected faults: each function returns a certificate the kernel must
# refuse, plus the ``check_compositional`` keywords its test uses.


def _interfering_command(pa, cert):
    """A command that writes a relevant variable out from under the
    proof (un-does delivery)."""
    done = pa.system.var_named("done")
    undo = GuardedCommand("undo", done.ref() > 0, [(done, done.ref() - 1)])
    sabotaged = Program(
        pa.system.name + "+undo",
        pa.system.variables,
        pa.system.init,
        [*pa.system.commands, undo],
        fair=sorted(pa.system.fair_names),
    )
    return dataclasses.replace(cert, system=sabotaged), {"check_components": False}


def _inconsistent_initially(pa, cert):
    x = Var.shared("x", IntRange(0, 3))
    a = Program("A", [x], ExprPredicate(x.ref() == 0), [])
    b = Program("B", [x], ExprPredicate(x.ref() == 1), [])
    p = ExprPredicate(x.ref() == 0)
    bad = CompositionalCertificate(
        system=a,
        components=(a, b),
        p=p,
        q=p,
        fairness="weak",
        proof=Implication(p, p),
    )
    return bad, {}


def _negative_split_variable(pa, cert):
    """A split variable whose domain admits negatives."""
    x = Var.shared("neg", IntRange(-1, 2))
    prog = Program("Neg", [x], ExprPredicate(x.ref() == 0), [])
    base = ExprPredicate(x.ref() <= 2)
    goal = ExprPredicate(x.ref() >= -1)
    split = SupportSplit(
        base,
        (x,),
        (Implication(base & ExprPredicate(x.ref() > 0), goal),),
        Implication(base & ExprPredicate(x.ref() == 0), goal),
    )
    bad = CompositionalCertificate(
        system=prog,
        components=(prog,),
        p=base,
        q=goal,
        fairness="weak",
        proof=split,
    )
    return bad, {}


def _tampered_branch_shape(pa, cert):
    """A support-split branch rewritten to start from the wrong case."""
    split = _find_support_split(cert.proof)
    assert split is not None
    wrong = ExprPredicate(pa.system.var_named("done").ref() >= 0)
    tampered = SupportSplit(
        split.base,
        split.split_vars,
        (
            Implication(wrong, split.positive_subs[0].rhs()),
            *split.positive_subs[1:],
        ),
        split.zero_sub,
    )
    return dataclasses.replace(cert, proof=tampered), {"check_components": False}


def _membership_lie(pa, cert):
    """A component dropped from the list (its commands go unaccounted)."""
    bad = dataclasses.replace(cert, components=cert.components[:-1])
    return bad, {"check_components": False}


def _unknown_rule(pa, cert):
    """A rule with no local argument (a bare transient basis)."""
    from repro.core.rules import TransientBasis

    x = Var.shared("t", IntRange(0, 1))
    flip = GuardedCommand("flip", x.ref() == 0, [(x, 1)])
    prog = Program("T", [x], ExprPredicate(x.ref() == 0), [flip], fair=["flip"])
    node = TransientBasis(ExprPredicate(x.ref() == 0))
    bad = CompositionalCertificate(
        system=prog,
        components=(prog,),
        p=node.lhs(),
        q=node.rhs(),
        fairness="weak",
        proof=node,
    )
    return bad, {}


INJECTED_FAULTS = {
    "interfering-command": _interfering_command,
    "inconsistent-initially": _inconsistent_initially,
    "negative-split-variable": _negative_split_variable,
    "tampered-branch-shape": _tampered_branch_shape,
    "membership-lie": _membership_lie,
    "unknown-rule": _unknown_rule,
}


class TestRefusals:
    def test_interfering_command_fails_the_check(self, small_stack):
        """A command that writes a relevant variable out from under the
        proof (un-does delivery) must break the wp obligations."""
        bad, kw = _interfering_command(*small_stack)
        res = check_compositional(bad, **kw)
        assert not res.ok
        # The interference is caught by a wp obligation naming the
        # command, and the membership check flags the unlisted command.
        text = _failure_text(res)
        assert "undo" in text
        assert any(f.path == "membership" for f in res.failures)

    def test_inconsistent_initially_conjunction_refused(self, small_stack):
        bad, kw = _inconsistent_initially(*small_stack)
        res = check_compositional(bad, **kw)
        assert not res.ok
        assert any(f.path == "initially" for f in res.failures)
        assert "unsatisfiable" in _failure_text(res)

    def test_broken_support_split_side_condition(self, small_stack):
        """A split variable whose domain admits negatives makes the case
        split non-exhaustive; the kernel must refuse, not assume."""
        bad, kw = _negative_split_variable(*small_stack)
        res = check_compositional(bad, **kw)
        assert not res.ok
        assert "may be negative" in _failure_text(res)

    def test_tampered_branch_shape_fails(self, small_stack):
        """Rewriting a support-split branch to start from the wrong case
        must fail the branch-shape obligation."""
        bad, kw = _tampered_branch_shape(*small_stack)
        res = check_compositional(bad, **kw)
        assert not res.ok
        text = _failure_text(res)
        assert "support-split branch 0" in text or "conclusion" in text

    def test_membership_lie_fails(self, small_stack):
        """Dropping a component from the list must fail membership (its
        commands are in the system but unaccounted for)."""
        bad, kw = _membership_lie(*small_stack)
        res = check_compositional(bad, **kw)
        assert not res.ok
        assert any(f.path == "membership" for f in res.failures)

    def test_unknown_rule_refused(self, small_stack):
        """A rule the compositional kernel has no local argument for is
        refused outright (never silently accepted)."""
        bad, kw = _unknown_rule(*small_stack)
        res = check_compositional(bad, **kw)
        assert not res.ok
        assert "refused" in _failure_text(res)

    def test_unreadable_write_set_is_refused(self, small_stack, monkeypatch):
        """A command whose ``writes()`` raises must not be skipped by the
        frame rule as if it wrote nothing: the check fails closed."""
        pa, cert = small_stack
        victim = "move[2]"
        assert victim in {c.name for c in pa.system.commands}
        honest = GuardedCommand.writes

        def writes(self):
            if self.name == victim:
                raise RuntimeError("write set withheld")
            return honest(self)

        monkeypatch.setattr(GuardedCommand, "writes", writes)
        res = check_compositional(cert, check_components=False)
        assert not res.ok
        refusal = [f for f in res.failures if f.path == "frame"]
        assert len(refusal) == 1
        assert victim in refusal[0].message
        assert "refused" in refusal[0].message

    def test_callable_predicates_are_not_frame_skipped(self):
        """A callable predicate reports no variables, so the frame rule
        would skip every command of its ``next`` obligation; the check
        must refuse instead (``x = 0 next x = 0`` is false here)."""
        from repro.core.predicates import FnPredicate
        from repro.core.rules import PSP

        x = Var.shared("x", IntRange(0, 3))
        inc = GuardedCommand("inc", x.ref() < 3, [(x, x.ref() + 1)])
        prog = Program("P", [x], ExprPredicate(x.ref() == 0), [inc], fair=["inc"])
        base = ExprPredicate(x.ref() >= 0)
        s = FnPredicate(lambda st: st[x] == 0, "x = 0")
        t = FnPredicate(lambda st: st[x] == 0, "x is 0")
        proof = PSP(Implication(base, base), s, t)
        cert = CompositionalCertificate(
            system=prog,
            components=(prog,),
            p=proof.lhs(),
            q=proof.rhs(),
            fairness="weak",
            proof=proof,
        )
        assert not proof.check(prog).ok  # the dense oracle's verdict
        res = check_compositional(cert)
        assert not res.ok
        assert res.frame_skips == 0
        assert "refused: psp next obligation" in _failure_text(res)


# ---------------------------------------------------------------------------
# Differential: the writer index against the brute-force scan
# ---------------------------------------------------------------------------


class _ScanWalker(_Walker):
    """The reference walker: every ``next`` obligation scans all commands
    for writers, and the transient candidates are sorted per node by
    ``(not writes-region, name)``."""

    def check_next(self, path, pre, post, label):
        relevant = set(pre.variables()) | set(post.variables())
        for cmd in self.system.commands:
            if not (cmd.writes() & relevant):
                self.result.frame_skips += 1
                self.result.obligations_checked += 1
                continue
            res = self.kernel.check_wp(pre, cmd, post)
            self.obligation(path, res, f"{label} (command {cmd.name})")

    def _transient_candidates(self, region):
        region_vars = set(region.variables())
        return sorted(
            (c for c in self.system.commands if c.name in self.system.fair_names),
            key=lambda c: (not (c.writes() & region_vars), c.name),
        )


def _indexed_and_scanned(cert, monkeypatch, **kw):
    indexed = check_compositional(cert, **kw)
    with monkeypatch.context() as m:
        m.setattr(compositional, "_Walker", _ScanWalker)
        scanned = check_compositional(cert, **kw)
    return indexed, scanned


def _assert_same_work(indexed, scanned):
    assert indexed.ok == scanned.ok
    assert indexed.obligations_checked == scanned.obligations_checked
    assert indexed.frame_skips == scanned.frame_skips
    assert indexed.footprint_evaluations == scanned.footprint_evaluations
    assert [(f.path, f.message) for f in indexed.failures] == [
        (f.path, f.message) for f in scanned.failures
    ]


class TestWriterIndex:
    @pytest.mark.parametrize("stages", range(3, 13))
    def test_matches_scan_on_hetero_stacks(self, stages, monkeypatch):
        pa = build_hetero_stack(stages, clients=2, total=2)
        cert = build_delivery_certificate(pa)
        indexed, scanned = _indexed_and_scanned(
            cert, monkeypatch, check_components=False
        )
        assert indexed.ok, indexed.explain()
        assert indexed.frame_skips > 0
        _assert_same_work(indexed, scanned)

    @pytest.mark.parametrize("fault", sorted(INJECTED_FAULTS))
    def test_matches_scan_on_injected_faults(self, fault, small_stack, monkeypatch):
        bad, kw = INJECTED_FAULTS[fault](*small_stack)
        indexed, scanned = _indexed_and_scanned(bad, monkeypatch, **kw)
        assert not indexed.ok
        _assert_same_work(indexed, scanned)


def _find_support_split(node):
    if isinstance(node, SupportSplit):
        return node
    for child in getattr(node, "subs", ()) or ():
        found = _find_support_split(child)
        if found is not None:
            return found
    for attr in ("left", "right", "sub", "recurrence"):
        child = getattr(node, attr, None)
        if child is not None:
            found = _find_support_split(child)
            if found is not None:
                return found
    return None
