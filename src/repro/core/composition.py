"""Program composition ``F ∘ G`` with the paper's side conditions.

From §2: *"The program composition is defined to be the union of the sets
of variables and the sets C and D of the components and the conjunction of
the initially predicates.  Such a composition is not always possible.
Especially, composition must respect variable locality (a variable declared
local in a component should not be written by another component) and must
provide at least one initial state (the conjunction of initial predicates
must be logically consistent)."*

Our locality check is the strict, syntactically decidable reading: a
variable declared ``local`` by one component may not be **named** by any
other component at all (the paper's specifications follow the same
discipline — component specifications name only their own locals).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.program import Program
from repro.core.variables import Var
from repro.errors import CompositionError

__all__ = [
    "CompatibilityReport",
    "compatibility_report",
    "can_compose",
    "compose",
    "compose_all",
    "inert_program",
    "lifted",
]


@dataclass
class CompatibilityReport:
    """Outcome of the ``F ∥ G`` composability check."""

    left: str
    right: str
    ok: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def explain(self) -> str:
        """One-line summary suitable for error messages."""
        if self.ok:
            return f"{self.left} || {self.right}: composable"
        joined = "; ".join(self.reasons)
        return f"{self.left} || {self.right}: NOT composable ({joined})"


def _merge_step(
    by_name: dict[str, Var], merged: list[Var], left: str, g: Program
) -> list[str]:
    """One ``left ∘ g`` step of the declaration union: append ``g``'s new
    variables to ``merged``/``by_name`` (the union so far, named
    ``left``) and return why ``left ∥ g`` fails — empty if composable."""
    reasons: list[str] = []
    if left == g.name:
        reasons.append(f"components share the name {left!r}")
    for v in g.variables:
        prev = by_name.get(v.name)
        if prev is None:
            by_name[v.name] = v
            merged.append(v)
            continue
        if prev.is_local() or v.is_local():
            reasons.append(
                f"variable {v.name} is declared local by "
                f"{left if prev.is_local() else g.name} but is also "
                f"declared by the other component (locality violation)"
            )
        elif prev.domain != v.domain:
            reasons.append(
                f"shared variable {v.name} has mismatched domains: "
                f"{prev.domain!r} in {left} vs {v.domain!r} in {g.name}"
            )
        # identical shared re-declaration merges silently
    return reasons


_NO_INIT = "conjunction of initially predicates is unsatisfiable (no initial state)"


def compatibility_report(
    f: Program, g: Program, *, check_init: bool = True
) -> CompatibilityReport:
    """Check the paper's composability side conditions for ``F ∥ G``.

    ``check_init=True`` additionally verifies that the conjunction of the
    ``initially`` predicates is satisfiable over the merged state space
    (semantic check; skip for very large spaces and check later).
    """
    merged = list(f.variables)
    reasons = _merge_step({v.name: v for v in merged}, merged, f.name, g)
    if not reasons and check_init:
        composed = compose_all((f, g), name="__compat_probe__", check_init=False)
        if not composed.has_initial_state():
            reasons.append(_NO_INIT)
    return CompatibilityReport(f.name, g.name, ok=not reasons, reasons=reasons)


def can_compose(f: Program, g: Program, *, check_init: bool = True) -> bool:
    """Boolean form of :func:`compatibility_report` (the paper's ``F ∥ G``)."""
    return compatibility_report(f, g, check_init=check_init).ok


def compose(
    f: Program, g: Program, *, name: str | None = None, check_init: bool = True
) -> Program:
    """The composed system ``F ∘ G``.

    Raises :class:`CompositionError` when ``F ∥ G`` fails (the paper's
    composability condition).
    """
    return compose_all((f, g), name=name or None, check_init=check_init)


def compose_all(
    programs: Sequence[Program],
    *,
    name: str | None = None,
    check_init: bool = True,
) -> Program:
    """The composition of one or more components, built in one pass.

    The result equals the left fold of :func:`compose`: the same
    variable order, command names (collision prefixes included),
    provenance and fair set, and the same error at the first
    incompatible step.  Each step ``acc ∘ g`` runs on plain containers,
    with ``acc`` named as the fold names it (``((A||B)||C)``, or
    ``name`` at the end), and only the final :class:`Program` is built
    and validated.  The command union resolves *name* collisions
    between distinct bodies by prefixing the component name;
    structurally identical commands are one element of the union, whose
    provenance and fairness merge.  ``check_init`` probes the final
    ``initially`` conjunction, as the fold's last step does.

    Composition is associative and commutative up to command/variable
    ordering, so the order does not affect semantics (the test suite
    checks this).
    """
    if not programs:
        raise CompositionError("compose_all of an empty component list")
    if len(programs) == 1:
        return programs[0]
    first = programs[0]
    acc = left = first.name
    variables = list(first.variables)
    by_name = {v.name: v for v in variables}
    init = first.init
    commands = list(first.commands)
    slot_of = {c.body_key(): i for i, c in enumerate(commands)}
    cmd_names = {c.name for c in commands}
    fair = set(first.fair_names)
    for g in programs[1:]:
        left = acc
        reasons = _merge_step(by_name, variables, left, g)
        if reasons:
            report = CompatibilityReport(left, g.name, ok=False, reasons=reasons)
            raise CompositionError(report.explain())
        init = init & g.init
        for cmd in g.commands:
            key = cmd.body_key()
            slot = slot_of.get(key)
            if slot is not None:
                prev = commands[slot]
                if cmd.name in g.fair_names:
                    fair.add(prev.name)
                commands[slot] = prev.with_origins(
                    prev.origins | cmd.origins | frozenset({g.name})
                )
                continue
            new_name = cmd.name
            if new_name in cmd_names:
                new_name = f"{g.name}.{cmd.name}"
                if new_name in cmd_names:
                    raise CompositionError(
                        f"cannot disambiguate command name {cmd.name!r} from "
                        f"{g.name}"
                    )
            if cmd.name in g.fair_names:
                fair.add(new_name)
            if new_name != cmd.name:
                cmd = cmd.renamed(new_name)
            slot_of[key] = len(commands)
            commands.append(cmd)
            cmd_names.add(new_name)
        acc = f"({acc}||{g.name})"
    out = Program(
        acc if name is None else name,
        variables,
        init,
        commands,
        fair=sorted(fair),
    )
    if check_init and not out.has_initial_state():
        report = CompatibilityReport(
            left, programs[-1].name, ok=False, reasons=[_NO_INIT]
        )
        raise CompositionError(report.explain())
    return out


def inert_program(name: str, variables: list[Var] | tuple[Var, ...]) -> Program:
    """A program that declares ``variables`` but never changes anything.

    Its command set is ``{skip}`` and its ``initially`` is ``true``, so
    composing with it adds declarations without adding behaviour — the
    canonical "empty environment".
    """
    from repro.core.predicates import TRUE

    return Program(name, variables, TRUE, [], fair=())


def lifted(program: Program, ambient: "Program | Sequence[Var]") -> Program:
    """``program`` viewed as a component of a larger system.

    Returns the composition of ``program`` with an inert program declaring
    the ambient variables — i.e. the same commands and ``initially`` over
    the system's variable tuple, in the system's declaration order.  The
    paper's §3.3 conjunction step reasons about exactly this view: component
    ``i``'s ``stable`` properties are stated over variables (``c_j``) that
    only exist in the ambient system.

    ``ambient`` is either the system :class:`Program` or an explicit
    variable sequence; it must declare every variable of ``program``.
    """
    if isinstance(ambient, Program):
        ambient_vars = ambient.variables
    elif isinstance(ambient, Sequence):
        ambient_vars = tuple(ambient)
    else:  # pragma: no cover - defensive
        raise CompositionError(f"cannot lift over {ambient!r}")
    own = {v.name: v for v in program.variables}
    ordered = []
    for v in ambient_vars:
        if v.name in own and own[v.name] != v:
            raise CompositionError(
                f"lift of {program.name}: ambient redeclares {v.name} "
                "differently"
            )
        ordered.append(v)
    missing = set(own) - {v.name for v in ordered}
    if missing:
        raise CompositionError(
            f"lift of {program.name}: ambient lacks variables {sorted(missing)}"
        )
    return Program(
        f"{program.name}^",
        ordered,
        program.init,
        [c for c in program.commands],
        fair=sorted(program.fair_names),
    )
