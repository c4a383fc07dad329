"""The service-mix inputs: a program pool and a request sequence per seed.

``build_mix(seed, scale, seconds, table)`` is a pure function of its
arguments.  The pool draws ``repro.gen.families`` instances kept at
dense-tier size, pretty-prints each to DSL with ``pretty_program`` and
pairs it with its manifest properties rendered as DSL property lines.
Every (program, property, prove) triple is one cache key, and every key
carries the verdict the hand-written table in ``expected.json`` gives
for it.

The pool is stratified: each round holds one instance of every slot in
``SLOTS``, and the seed picks the variant within a slot (a random graph's
seed, a layer order), so every seed asks for the same mix of work and
run-to-run spread measures the system, not the draw.  Rounds walk a
seeded order of each slot's variants, so that programs do not repeat
while a slot has variants left.  A random graph that repeats one already
in the pool is redrawn; any other repeat is skipped, since its keys
would not be cold, and skips the same slots for every seed.

The requests come in two phases, one per request class, so that each
class has its own throughput.  The *cold* phase asks every key once, in
seeded order; a fixed share of its keys is asked twice back to back, so
that the second client sends a duplicate while the first ask is still in
flight (it coalesces).  The *hot* phase then repeats answered keys,
drawn uniformly, a fixed number of times per key.

The mix is an arbitrary fixed design, not a model of measured traffic:
no usage trace of the service exists to draw it from.  Its constants
are the pool slots below, the duplicated share (``DUP_SHARE``), the hot
repeats per key (``HOT_PER_COLD``), one pool round per
``SECONDS_PER_ROUND`` seconds of run, and a ``prove=true`` twin of every
holding leads-to.  None of them weights one figure against another: the
latencies and throughputs are reported per class.

Run as a script it writes the mix as JSON, so that the benchmark's
client process never imports the engine::

    python perfbench/mix.py --seed 1 --seconds 40 --expected perfbench/expected.json --out mix.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

#: Share of keys asked twice at once in the cold phase (they coalesce).
DUP_SHARE = 0.2

#: Family slots of one pool round: (family, kind, variants).  ``kind``
#: names the row of ``expected.json`` the slot's verdicts come from.
SLOTS = {
    "full": [
        ("regular", "philosophers", [{"n": 8, "d": 2}]),
        ("regular", "philosophers", [{"n": 6, "d": 3}]),
        (
            "fanout",
            "fanout",
            [{"widths": w, "total": 2} for w in ((3, 2, 2), (2, 2, 3))],
        ),
        ("fanout", "fanout", [{"widths": w, "total": 3} for w in ((2, 2, 2), (3, 3))]),
        (
            "mesh",
            "mesh",
            [{"pools": p, "clients": c, "total": 2} for p, c in ((2, 4), (4, 3))],
        ),
        (
            "mesh",
            "mesh",
            [{"pools": 3, "clients": 3, "total": 2}, {"pools": 4, "clients": 5, "total": 1}],
        ),
    ],
    "tiny": [
        ("hypercube", "philosophers", [{"d": 2}]),
        ("mesh", "mesh", [{"pools": 2, "clients": 3, "total": 1}]),
        ("fanout", "fanout", [{"widths": (2, 2), "total": 1}]),
    ],
}

#: Random graphs drawn for a ``regular`` slot until one is new to the pool.
GRAPH_DRAWS = 50

#: Pool rounds and hot repeats per key, by scale; the full scale grows
#: with the run length (one round per ``SECONDS_PER_ROUND``).
SECONDS_PER_ROUND = 9
HOT_PER_COLD = {"full": 8, "tiny": 3}


def rounds_for(scale: str, seconds: int) -> int:
    if scale == "tiny":
        return 1
    return max(1, round(seconds / SECONDS_PER_ROUND))


def _label_key(label: str) -> str:
    """Manifest label → the row name used in ``expected.json``."""
    return label.split(" (")[0]


def _queries_of(scenario, kind: str, table: dict) -> list[dict]:
    """DSL property lines for one scenario, each with its expected verdict.

    Philosopher liveness is stated from the initial condition: the
    manifest's antecedent names the ``Acyclicity`` predicate, which has
    no DSL spelling, and the initial condition (all thinking, forks in
    the canonical acyclic orientation) implies it, so the property
    inherits the manifest's verdict.
    """
    program = scenario.program
    rows = table[kind]
    out = []
    for check in scenario.checks:
        name = _label_key(check.label)
        if name not in rows:
            raise KeyError(f"expected.json has no {kind}/{name} verdict")
        expect = rows[name]
        if expect != check.expected:
            raise ValueError(
                f"expected.json says {kind}/{name} is {expect}, the "
                f"family manifest says {check.expected}"
            )
        if check.kind == "invariant":
            text = f"invariant {check.pred}"
        elif kind == "philosophers":
            text = f"{program.init.as_expr()} ~> {check.prop.q}"
        else:
            text = f"{check.prop.p} ~> {check.prop.q}"
        proves = (False, True) if check.kind == "leadsto" and expect else (False,)
        for prove in proves:
            out.append(
                {
                    "label": name + (" +prove" if prove else ""),
                    "property": text,
                    "fairness": check.fairness,
                    "prove": prove,
                    "expect": expect,
                }
            )
    return out


def build_mix(seed: int, scale: str, seconds: int, table: dict) -> dict:
    """The pool and request sequence for one seed (see module docstring)."""
    from repro.dsl import pretty_program
    from repro.gen.families import build_scenario

    rng = random.Random(f"service-mix/{seed}")
    orders = [rng.sample(variants, len(variants)) for _, _, variants in SLOTS[scale]]
    programs, queries, texts = [], [], set()
    for r in range(rounds_for(scale, seconds)):
        for (family, kind, _), variants in zip(SLOTS[scale], orders):
            params = dict(variants[r % len(variants)])
            for _ in range(GRAPH_DRAWS if family == "regular" else 1):
                if family == "regular":
                    params["seed"] = rng.randrange(1 << 30)
                scenario = build_scenario(family, **params)
                text = pretty_program(scenario.program)
                if text not in texts:
                    break
            else:
                continue
            texts.add(text)
            index = len(programs)
            programs.append(
                {
                    "name": scenario.describe(),
                    "kind": kind,
                    "text": text,
                    "states": int(scenario.program.space.size),
                }
            )
            for q in _queries_of(scenario, kind, table):
                q["program"] = index
                queries.append(q)

    order = list(range(len(queries)))
    rng.shuffle(order)
    dups = set(rng.sample(order, round(DUP_SHARE * len(order))))
    cold: list[int] = []
    for key in order:
        cold.extend([key, key] if key in dups else [key])
    hot = [rng.choice(order) for _ in range(HOT_PER_COLD[scale] * len(order))]
    return {
        "seed": seed,
        "scale": scale,
        "programs": programs,
        "queries": queries,
        "cold": cold,
        "hot": hot,
    }


def request_of(mix: dict, query_index: int) -> dict:
    """The ``POST /v1/verify`` document for one key of the mix."""
    q = mix["queries"][query_index]
    return {
        "program": mix["programs"][q["program"]]["text"],
        "property": q["property"],
        "fairness": q["fairness"],
        "prove": q["prove"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SLOTS), default="full")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--expected", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    table = json.loads(args.expected.read_text())["service-mix"]
    try:
        mix = build_mix(args.seed, args.scale, args.seconds, table)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(mix))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
