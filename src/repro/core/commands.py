"""UNITY-style commands: ``skip`` and guarded multi-assignments.

The paper's §2 model: *"A program consists of … a finite set C of commands
and a subset D of C of commands subjected to a weak fairness constraint …
The set C contains at least the command skip."*

Commands here are **total deterministic state functions**:

- :class:`Skip` — identity;
- :class:`GuardedCommand` — ``g → x₁,…,xₖ := e₁,…,eₖ``; when the guard is
  false the command behaves as ``skip`` (totality);
- :class:`AltCommand` — a first-match ``if g₁ → A₁ ▯ g₂ → A₂ …`` chain
  (deterministic alternative; semantically a single command).

Commands are immutable.  A guarded or alternative command computes its
``reads()``, ``writes()`` and ``body_key()`` once and keeps them in memo
slots; copies made by ``renamed()``/``with_origins()`` start without
them.  The memos are derived data and never part of a command's identity.

Each command supports three complementary semantics, cross-validated by the
test suite:

- ``apply(state)`` — operational, one state at a time;
- ``succ_table(space)`` — an ``int64`` array mapping every encoded state to
  its successor (the vectorized form used by the dense model checker);
- ``wp(pred)`` — *symbolic* weakest precondition by substitution, following
  the paper's ``p next q ≡ ⟨∀c : c ∈ C : p ⇒ wp.c.q⟩``.

A fourth, *frontier* form backs the sparse engine
(:mod:`repro.semantics.sparse`): ``succ_of(space, idx)`` evaluates the
command only on a given ``int64`` index set — same semantics as
``succ_table(space)[idx]`` but with work and memory proportional to
``len(idx)``, never to ``space.size``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.domains import EnumDomain
from repro.core.expressions import (
    BoolConst,
    Const,
    Expr,
    land,
    lnot,
    lor,
)
from repro.core.predicates import ExprPredicate, Predicate
from repro.core.state import State, StateSpace
from repro.core.variables import Var
from repro.errors import CommandError, DomainError

__all__ = ["Assignment", "Command", "Skip", "skip", "GuardedCommand", "AltCommand"]

#: States per chunk when a dense successor table is built through the
#: frontier kernel.  Spaces at most this large keep the whole-space
#: vectorized path (which shares the cached ``var_arrays`` decode across
#: commands); larger spaces stream ``succ_of`` over index ranges so peak
#: scratch per command stays bounded instead of several ``size``-length
#: temporaries per assignment.
SUCC_TABLE_CHUNK = 1 << 22


class Assignment:
    """A single target of a multi-assignment: ``var := expr``."""

    __slots__ = ("var", "expr")

    def __init__(self, var: Var, expr: Expr | int | bool) -> None:
        if not isinstance(var, Var):
            raise CommandError(f"assignment target must be a Var, got {var!r}")
        if not isinstance(expr, Expr):
            from repro.core.expressions import const

            expr = const(expr)
        target_typ = var.ref().typ
        if expr.typ is None:
            # A bare enum label: validate against the target's domain.
            if not isinstance(target_typ, EnumDomain):
                raise CommandError(
                    f"cannot assign bare label {expr} to non-enum {var.name}"
                )
            assert isinstance(expr, Const)
            if not target_typ.contains(expr.value):
                raise CommandError(
                    f"label {expr.value!r} is not in {target_typ!r}"
                )
        elif expr.typ != target_typ:
            raise CommandError(
                f"type mismatch in {var.name} := {expr}: target is "
                f"{target_typ}, expression is {expr.typ}"
            )
        self.var = var
        self.expr = expr

    def _key(self) -> tuple:
        return (self.var.name, self.expr._key())

    def __repr__(self) -> str:
        return f"{self.var.name} := {self.expr}"


class Command:
    """Abstract base class of commands."""

    __slots__ = ("name", "origins")

    def __init__(self, name: str, origins: frozenset[str] = frozenset()) -> None:
        if not name:
            raise CommandError("commands must be named")
        self.name = name
        self.origins = origins

    # -- semantics ----------------------------------------------------------

    def apply(self, state: State) -> State:
        """The unique successor of ``state`` under this command."""
        raise NotImplementedError

    def succ_table(self, space: StateSpace) -> np.ndarray:
        """Vectorized ``apply``: ``out[i]`` is the successor index of state
        ``i`` for every encoded state of ``space``.

        A dense-tier operation: refuses spaces above
        ``StateSpace.DENSE_MAX`` with a :class:`~repro.errors.
        CapacityError`.  The base implementation streams
        :meth:`succ_of` over :data:`SUCC_TABLE_CHUNK`-sized index ranges,
        so a table build never materializes more than one chunk of
        frontier scratch at a time.
        """
        space.require_dense(f"successor table of command {self.name}")
        out = np.empty(space.size, dtype=np.int64)
        for lo in range(0, space.size, SUCC_TABLE_CHUNK):
            hi = min(lo + SUCC_TABLE_CHUNK, space.size)
            out[lo:hi] = self.succ_of(space, np.arange(lo, hi, dtype=np.int64))
        return out

    def succ_of(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        """Frontier successor kernel: successor indices of the states in
        ``idx`` only (``== succ_table(space)[idx]``, without the table).

        The base implementation decodes and applies one state at a time —
        correct for any command, but subclasses override it with the
        vectorized frontier evaluation the sparse engine relies on.
        """
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty(idx.shape[0], dtype=np.int64)
        for k in range(idx.shape[0]):
            out[k] = space.index_of(self.apply(space.state_at(int(idx[k]))))
        return out

    def enabled_at(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        """Frontier form of :meth:`enabled_mask`: enabledness of the states
        in ``idx`` only (``== enabled_mask(space)[idx]``).

        The base implementation gathers from :meth:`enabled_mask` — total
        for any command, but it materializes the full-space mask;
        subclasses override it with frontier-sized evaluation so the
        sparse engine keeps its no-full-space-array guarantee.
        """
        return self.enabled_mask(space)[np.asarray(idx, dtype=np.int64)]

    def wp(self, pred: Predicate) -> Predicate:
        """Symbolic weakest precondition (requires an expression predicate)."""
        raise NotImplementedError

    def enabled_mask(self, space: StateSpace) -> np.ndarray:
        """States where the command is *enabled* (some guard holds).

        Commands are total (disabled = skip), so enabledness never affects
        the §2 weak-fairness semantics; it exists for the strong-fairness
        ablation (:mod:`repro.semantics.strong_fairness`), where "enabled
        infinitely often" is the fairness trigger.
        """
        raise NotImplementedError

    # -- static analysis -----------------------------------------------------

    def reads(self) -> frozenset[Var]:
        """Variables whose value can influence the effect."""
        raise NotImplementedError

    def writes(self) -> frozenset[Var]:
        """Variables this command may modify."""
        raise NotImplementedError

    def is_skip(self) -> bool:
        """True iff this is the identity command."""
        return False

    # -- identity -------------------------------------------------------------

    def body_key(self) -> tuple:
        """Structural identity of the command *body* (name excluded).

        Program composition is a **set union** of commands (paper §2); two
        structurally identical commands contributed by different components
        are one element of the union.  ``body_key`` is that set's equality.
        """
        raise NotImplementedError

    def renamed(self, name: str) -> "Command":
        """Copy with a different name."""
        raise NotImplementedError

    def with_origins(self, origins: frozenset[str]) -> "Command":
        """Copy with the given provenance set."""
        out = self.renamed(self.name)
        out.origins = origins
        return out

    def __repr__(self) -> str:
        return f"<Command {self.name}: {self.describe()}>"

    def describe(self) -> str:
        """One-line rendering of the body."""
        raise NotImplementedError


class Skip(Command):
    """The identity command; every program's ``C`` contains it."""

    __slots__ = ()

    def __init__(self, name: str = "skip", origins: frozenset[str] = frozenset()) -> None:
        super().__init__(name, origins)

    def apply(self, state: State) -> State:
        return state

    def succ_table(self, space: StateSpace) -> np.ndarray:
        space.require_dense("successor table of skip")
        return np.arange(space.size, dtype=np.int64)

    def succ_of(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        return np.asarray(idx, dtype=np.int64).copy()

    def wp(self, pred: Predicate) -> Predicate:
        return pred

    def enabled_mask(self, space: StateSpace) -> np.ndarray:
        # skip is always "enabled" (and always a no-op).
        space.require_dense("enabledness mask of skip")
        return np.ones(space.size, dtype=bool)

    def enabled_at(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        return np.ones(np.asarray(idx).shape[0], dtype=bool)

    def reads(self) -> frozenset[Var]:
        return frozenset()

    def writes(self) -> frozenset[Var]:
        return frozenset()

    def is_skip(self) -> bool:
        return True

    def body_key(self) -> tuple:
        return ("skip",)

    def renamed(self, name: str) -> "Skip":
        return Skip(name, self.origins)

    def describe(self) -> str:
        return "skip"


#: A shared default skip instance.
skip = Skip()


def _normalize_assignments(
    assignments: Sequence[Assignment | tuple[Var, Any]],
) -> tuple[Assignment, ...]:
    out: list[Assignment] = []
    for a in assignments:
        if isinstance(a, Assignment):
            out.append(a)
        else:
            var, expr = a
            out.append(Assignment(var, expr))
    seen: set[str] = set()
    for a in out:
        if a.var.name in seen:
            raise CommandError(f"duplicate assignment target {a.var.name}")
        seen.add(a.var.name)
    return tuple(out)


def _as_guard(guard: Expr | bool) -> Expr:
    if isinstance(guard, (bool, np.bool_)):
        return BoolConst(bool(guard))
    if not isinstance(guard, Expr) or guard.typ != "bool":
        raise CommandError(f"guard must be a boolean expression, got {guard!r}")
    return guard


def _subst_map(assignments: Sequence[Assignment]) -> dict[Var, Expr]:
    return {a.var: a.expr for a in assignments}


def _eval_updates(
    assignments: Sequence[Assignment], state: State, name: str
) -> dict[Var, Any]:
    updates: dict[Var, Any] = {}
    for a in assignments:
        value = a.expr.eval(state)
        if not a.var.domain.contains(value):
            raise DomainError(
                f"command {name}: {a.var.name} := {a.expr} evaluates to "
                f"{value!r}, outside {a.var.domain!r} — guard the command "
                "so it stays in range"
            )
        updates[a.var] = value
    return updates


def _vector_deltas(
    assignments: Sequence[Assignment],
    space: StateSpace,
    fire_mask: np.ndarray,
    name: str,
) -> np.ndarray:
    """Summed index deltas for the states where ``fire_mask`` is true."""
    env = space.var_arrays()
    delta = np.zeros(space.size, dtype=np.int64)
    for a in assignments:
        rhs = np.asarray(a.expr.eval_vec(env))
        if rhs.ndim == 0:
            rhs = np.full(space.size, rhs[()])
        current = env[a.var]
        effective = np.where(fire_mask, rhs, current)
        try:
            new_idx = a.var.domain.encode_array(effective)
        except DomainError as exc:
            raise DomainError(
                f"command {name}: assignment {a.var.name} := {a.expr} "
                f"leaves the domain on some guarded state: {exc}"
            ) from None
        delta += space.delta_for(a.var, new_idx)
    return delta


def _frontier_deltas(
    assignments: Sequence[Assignment],
    space: StateSpace,
    idx: np.ndarray,
    env: Mapping[Var, np.ndarray],
    fire_mask: np.ndarray,
    name: str,
) -> np.ndarray:
    """Frontier counterpart of :func:`_vector_deltas`: summed index deltas
    for the states ``idx`` where ``fire_mask`` is true.  ``env`` must be the
    frontier environment of ``idx`` (``space.frontier_env(idx)``)."""
    delta = np.zeros(idx.shape[0], dtype=np.int64)
    for a in assignments:
        rhs = np.asarray(a.expr.eval_vec(env))
        if rhs.ndim == 0:
            rhs = np.full(idx.shape[0], rhs[()])
        effective = np.where(fire_mask, rhs, env[a.var])
        try:
            new_idx = a.var.domain.encode_array(effective)
        except DomainError as exc:
            raise DomainError(
                f"command {name}: assignment {a.var.name} := {a.expr} "
                f"leaves the domain on some guarded state: {exc}"
            ) from None
        old_idx = space.indices_at(a.var, idx)
        delta += (new_idx - old_idx) * space.stride_of(a.var)
    return delta


def _frontier_guard(guard: Expr, env: Mapping[Var, np.ndarray], k: int) -> np.ndarray:
    """Evaluate a guard over a frontier environment as a length-``k`` mask."""
    g = np.asarray(guard.eval_vec(env), dtype=bool)
    if g.ndim == 0:
        return np.full(k, bool(g), dtype=bool)
    return g


class GuardedCommand(Command):
    """``g → x₁,…,xₖ := e₁,…,eₖ``; behaves as ``skip`` when ``g`` is false.

    Right-hand sides are evaluated simultaneously against the pre-state
    (UNITY multi-assignment semantics).
    """

    __slots__ = ("guard", "assignments", "_reads", "_writes", "_body_key")

    def __init__(
        self,
        name: str,
        guard: Expr | bool,
        assignments: Sequence[Assignment | tuple[Var, Any]],
        origins: frozenset[str] = frozenset(),
    ) -> None:
        super().__init__(name, origins)
        self.guard = _as_guard(guard)
        self.assignments = _normalize_assignments(assignments)
        if not self.assignments:
            raise CommandError(
                f"command {name}: use Skip for commands with no assignments"
            )

    def apply(self, state: State) -> State:
        if not self.guard.eval(state):
            return state
        return state.updated(_eval_updates(self.assignments, state, self.name))

    def succ_table(self, space: StateSpace) -> np.ndarray:
        if space.size > SUCC_TABLE_CHUNK:
            return super().succ_table(space)  # chunked via succ_of
        base = np.arange(space.size, dtype=np.int64)
        g = np.asarray(self.guard.eval_vec(space.var_arrays()), dtype=bool)
        if g.ndim == 0:
            g = np.full(space.size, bool(g), dtype=bool)
        delta = _vector_deltas(self.assignments, space, g, self.name)
        return base + delta

    def succ_of(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        env = space.frontier_env(idx)
        g = _frontier_guard(self.guard, env, idx.shape[0])
        if not g.any():
            return idx.copy()
        return idx + _frontier_deltas(self.assignments, space, idx, env, g, self.name)

    def wp(self, pred: Predicate) -> Predicate:
        p = pred.as_expr()
        sub = p.substitute(_subst_map(self.assignments))
        # wp(if g then A, P) = (g ∧ P[A]) ∨ (¬g ∧ P)
        return ExprPredicate(lor(land(self.guard, sub), land(lnot(self.guard), p)))

    def enabled_mask(self, space: StateSpace) -> np.ndarray:
        g = np.asarray(self.guard.eval_vec(space.var_arrays()), dtype=bool)
        if g.ndim == 0:
            return np.full(space.size, bool(g), dtype=bool)
        return g

    def enabled_at(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return _frontier_guard(self.guard, space.frontier_env(idx), idx.shape[0])

    def reads(self) -> frozenset[Var]:
        try:
            return self._reads
        except AttributeError:
            pass
        out = set(self.guard.variables())
        for a in self.assignments:
            out |= a.expr.variables()
        self._reads = found = frozenset(out)
        return found

    def writes(self) -> frozenset[Var]:
        try:
            return self._writes
        except AttributeError:
            pass
        self._writes = found = frozenset(a.var for a in self.assignments)
        return found

    def body_key(self) -> tuple:
        try:
            return self._body_key
        except AttributeError:
            pass
        self._body_key = key = (
            "guarded",
            self.guard._key(),
            tuple(sorted(a._key() for a in self.assignments)),
        )
        return key

    def renamed(self, name: str) -> "GuardedCommand":
        return GuardedCommand(name, self.guard, self.assignments, self.origins)

    def describe(self) -> str:
        body = " || ".join(repr(a) for a in self.assignments)
        guard_txt = str(self.guard)
        if guard_txt == "true":
            return body
        return f"{guard_txt} -> {body}"


class AltCommand(Command):
    """First-match deterministic alternative
    ``if g₁ → A₁ elif g₂ → A₂ … else skip`` as a single command."""

    __slots__ = ("branches", "_reads", "_writes", "_body_key")

    def __init__(
        self,
        name: str,
        branches: Sequence[tuple[Expr | bool, Sequence[Assignment | tuple[Var, Any]]]],
        origins: frozenset[str] = frozenset(),
    ) -> None:
        super().__init__(name, origins)
        if not branches:
            raise CommandError(f"command {name}: AltCommand needs branches")
        self.branches = tuple(
            (_as_guard(g), _normalize_assignments(assigns))
            for g, assigns in branches
        )

    def apply(self, state: State) -> State:
        for guard, assigns in self.branches:
            if guard.eval(state):
                return state.updated(_eval_updates(assigns, state, self.name))
        return state

    def succ_table(self, space: StateSpace) -> np.ndarray:
        if space.size > SUCC_TABLE_CHUNK:
            return super().succ_table(space)  # chunked via succ_of
        base = np.arange(space.size, dtype=np.int64)
        env = space.var_arrays()
        taken = np.zeros(space.size, dtype=bool)
        total_delta = np.zeros(space.size, dtype=np.int64)
        for guard, assigns in self.branches:
            g = np.asarray(guard.eval_vec(env), dtype=bool)
            if g.ndim == 0:
                g = np.full(space.size, bool(g), dtype=bool)
            fire = g & ~taken
            if fire.any():
                total_delta += _vector_deltas(assigns, space, fire, self.name)
            taken |= g
        return base + total_delta

    def succ_of(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        env = space.frontier_env(idx)
        k = idx.shape[0]
        taken = np.zeros(k, dtype=bool)
        total_delta = np.zeros(k, dtype=np.int64)
        for guard, assigns in self.branches:
            g = _frontier_guard(guard, env, k)
            fire = g & ~taken
            if fire.any():
                total_delta += _frontier_deltas(
                    assigns, space, idx, env, fire, self.name
                )
            taken |= g
        return idx + total_delta

    def wp(self, pred: Predicate) -> Predicate:
        p = pred.as_expr()
        disjuncts = []
        none_before: list[Expr] = []
        for guard, assigns in self.branches:
            sub = p.substitute(_subst_map(assigns))
            disjuncts.append(land(*none_before, guard, sub))
            none_before.append(lnot(guard))
        disjuncts.append(land(*none_before, p))  # no branch fires: skip
        return ExprPredicate(lor(*disjuncts))

    def enabled_mask(self, space: StateSpace) -> np.ndarray:
        env = space.var_arrays()
        out = np.zeros(space.size, dtype=bool)
        for guard, _ in self.branches:
            g = np.asarray(guard.eval_vec(env), dtype=bool)
            if g.ndim == 0:
                g = np.full(space.size, bool(g), dtype=bool)
            out |= g
        return out

    def enabled_at(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        env = space.frontier_env(idx)
        out = np.zeros(idx.shape[0], dtype=bool)
        for guard, _ in self.branches:
            out |= _frontier_guard(guard, env, idx.shape[0])
        return out

    def reads(self) -> frozenset[Var]:
        try:
            return self._reads
        except AttributeError:
            pass
        out: set[Var] = set()
        for guard, assigns in self.branches:
            out |= guard.variables()
            for a in assigns:
                out |= a.expr.variables()
        self._reads = found = frozenset(out)
        return found

    def writes(self) -> frozenset[Var]:
        try:
            return self._writes
        except AttributeError:
            pass
        out: set[Var] = set()
        for _, assigns in self.branches:
            out |= {a.var for a in assigns}
        self._writes = found = frozenset(out)
        return found

    def body_key(self) -> tuple:
        try:
            return self._body_key
        except AttributeError:
            pass
        self._body_key = key = (
            "alt",
            tuple(
                (g._key(), tuple(sorted(a._key() for a in assigns)))
                for g, assigns in self.branches
            ),
        )
        return key

    def renamed(self, name: str) -> "AltCommand":
        return AltCommand(name, self.branches, self.origins)

    def describe(self) -> str:
        parts = []
        for guard, assigns in self.branches:
            body = " || ".join(repr(a) for a in assigns)
            parts.append(f"{guard} -> {body}")
        return "  [] ".join(parts)
