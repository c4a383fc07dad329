"""Transition-system extraction: programs as NumPy successor tables.

Each command of a program is a total function on states, so over the
encoded state space it is an ``int64`` array ``t`` with ``t[i]`` the
successor index of state ``i``.  The :class:`TransitionSystem` builds and
caches these tables; every semantic checker operates on them.

Tables are built once per program (``TransitionSystem.for_program`` keeps a
weak cache), so repeated property checks — the normal mode for the paper's
long proof chains — pay the vectorized construction cost once.

:class:`DenseView` presents the encoded space as a *state view*: the
surface the judgments of :mod:`repro.semantics.checker`,
:mod:`repro.semantics.leadsto` and :mod:`repro.semantics.synthesis` are
written against.  Its ids are the global state indices, and it reaches
the successor tables only when a judgment asks for them.  The sparse
tier's :class:`~repro.semantics.sparse.explorer.ReachableSubspace` is the
other view (local ids over the reachable states);
:func:`repro.semantics.sparse.routed_subspace` picks one per program.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import obs
from repro.core.commands import Command
from repro.core.program import Program
from repro.core.predicates import Predicate
from repro.core.state import State, StateSpace

__all__ = ["TransitionSystem", "DenseView"]

_CACHE: "weakref.WeakKeyDictionary[Program, TransitionSystem]" = (
    weakref.WeakKeyDictionary()
)


class TransitionSystem:
    """Successor tables for every command of a program.

    Attributes
    ----------
    program, space:
        The underlying program and its state space.
    tables:
        ``dict`` command name → ``int64`` successor array of length
        ``space.size``.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.space: StateSpace = program.space
        # Dense-tier capacity guard: successor tables are |C| arrays of
        # length `size`; beyond DENSE_MAX the sparse tier is the only
        # engine that can hold the program.
        self.space.require_dense(
            f"building successor tables for {program.name}"
        )
        rec = obs.get_recorder()
        with rec.span(
            "dense.succ_table",
            program=program.name,
            states=int(self.space.size),
            commands=len(program.commands),
        ):
            self.tables: dict[str, np.ndarray] = {
                cmd.name: cmd.succ_table(self.space) for cmd in program.commands
            }
            if rec.enabled:
                rec.add("dense.succ_table.builds", len(self.tables))
                rec.add(
                    "dense.succ_table.entries",
                    int(self.space.size) * len(self.tables),
                )
        self._graph: "GraphBackend | None" = None

    def graph(self) -> "GraphBackend":
        """The shared CSR graph backend of this program's union transition
        graph (built lazily, cached for the lifetime of the system).

        Connectivity-only queries (reachability, closures, SCCs) should go
        through this backend; the dense per-command ``tables`` remain the
        source of truth where command identity matters (fairness, wp).
        """
        if self._graph is None:
            from repro.semantics.graph_backend import GraphBackend

            self._graph = GraphBackend(
                self.space.size, [table for _, table in self.all_tables()]
            )
        return self._graph

    @classmethod
    def for_program(cls, program: Program) -> "TransitionSystem":
        """Return the (weakly) cached transition system of ``program``."""
        ts = _CACHE.get(program)
        if ts is None:
            ts = cls(program)
            _CACHE[program] = ts
        return ts

    # -- views ----------------------------------------------------------------

    @property
    def commands(self) -> tuple[Command, ...]:
        """All commands (the set ``C``)."""
        return self.program.commands

    def table_of(self, command: Command | str) -> np.ndarray:
        """Successor table of one command."""
        name = command.name if isinstance(command, Command) else command
        return self.tables[name]

    def all_tables(self) -> list[tuple[Command, np.ndarray]]:
        """``(command, table)`` pairs for every command of ``C``."""
        return [(cmd, self.tables[cmd.name]) for cmd in self.program.commands]

    def fair_tables(self) -> list[tuple[Command, np.ndarray]]:
        """``(command, table)`` pairs for the weakly-fair subset ``D``."""
        return [
            (cmd, self.tables[cmd.name]) for cmd in self.program.fair_commands
        ]

    # -- bulk queries -----------------------------------------------------------

    def post_mask(self, mask: np.ndarray) -> np.ndarray:
        """One-step image: states reachable from ``mask`` by any command."""
        out = np.zeros(self.space.size, dtype=bool)
        src = np.flatnonzero(mask)
        for _, table in self.all_tables():
            out[table[src]] = True
        return out

    def pre_mask(self, mask: np.ndarray) -> np.ndarray:
        """One-step preimage: states with some command-successor in ``mask``."""
        out = np.zeros(self.space.size, dtype=bool)
        for _, table in self.all_tables():
            out |= mask[table]
        return out

    def edge_count(self) -> int:
        """Number of (state, command) transition pairs (bench metric)."""
        return self.space.size * len(self.program.commands)

    def __repr__(self) -> str:
        return (
            f"<TransitionSystem {self.program.name}: {self.space.size} states × "
            f"{len(self.tables)} commands>"
        )


class DenseView:
    """The whole encoded space as a state view (the dense tier).

    Ids are global state indices, so every id map is the identity and a
    judgment over this view quantifies over *all* states — the paper's
    inductive semantics.  Successor tables and the union graph come from
    the cached :class:`TransitionSystem`, built on first use only:
    predicate-only judgments (validity, ``init``) never build them.

    The wording and witness hooks (``tag``, ``scope``, ``extent``,
    :meth:`census`, :meth:`path_witness`) are empty here: dense verdicts
    carry no tier tag, reachable count or BFS path.
    """

    tier = "dense"
    tag: dict = {}
    scope = ""
    extent = ""
    stats: dict = {}

    def __init__(self, program: Program) -> None:
        self.program = program
        self.space: StateSpace = program.space

    @property
    def size(self) -> int:
        return int(self.space.size)

    @property
    def init_local(self) -> np.ndarray:
        return np.flatnonzero(self.program.initial_mask())

    def global_of(self, ids: np.ndarray) -> np.ndarray:
        return ids

    def localize(self, global_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, keep)``: every global index is its own id."""
        return global_idx, np.ones(global_idx.shape[0], dtype=bool)

    def state_at_local(self, k: int) -> State:
        return self.space.state_at(int(k))

    def pred_mask(self, pred: Predicate) -> np.ndarray:
        return pred.mask(self.space)

    def succ_local(self, command: Command | str) -> np.ndarray:
        return TransitionSystem.for_program(self.program).table_of(command)

    def enabled_local(self, command: Command | str) -> np.ndarray:
        if isinstance(command, str):
            command = self.program.command_named(command)
        return command.enabled_mask(self.space)

    def graph(self) -> "GraphBackend":
        return TransitionSystem.for_program(self.program).graph()

    def reachable(self) -> np.ndarray:
        """Mask of the states reachable from the initial set."""
        return self.graph().forward_closure(self.program.initial_mask())

    def census(self) -> dict:
        return {}

    def path_witness(self, k: int) -> dict:
        return {}
