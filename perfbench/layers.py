"""One in-process pass over a workload's command, timed layer by layer.

``run.py --trace 1`` starts this script as a fresh child process, so that
import time and caches start cold as they do for a user.

For a command of the ``cli-certify`` workload (``grid-prove`` or
``compose-stack``) the pass runs that command,
``repro.cli.main(CLI_ARGS[...])``, in this process.  Before it does, the
public functions the command calls are wrapped at their module (or, for
a certificate's summary methods, on the returned object), so every call
the CLI makes is timed from here and no span is added inside the engine.
Only the outermost wrapped call is timed: a wrapped function called from
inside another one counts towards its caller's layer, so layer times
never overlap.  The verdicts and exact sizes come from the wrapped
calls' return values.

On service-mix the pass replays the start of the seeded request sequence
through an in-process ``CertificationService`` (see ``service_mix``).

In ``traced`` mode a ``repro.obs.MetricsRecorder`` is passed through the
checkers' ``recorder=`` keyword (or installed with ``obs.use_recorder``
for calls that take none), and the exact work counters it collects are
returned; in ``plain`` mode nothing is installed, which is what the
tracing overhead is measured against.

The result is one JSON line on standard output: ``layers`` (seconds per
layer), ``values`` (the pass's verdicts, sizes and exact counts) and
``counters`` (the recorder's work counters; empty in ``plain`` mode).

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/layers.py grid-prove --scale full --mode traced --seconds 50
"""

import argparse
import functools
import importlib
import io
import json
import os
import statistics
import sys
import time
import types
import weakref
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path

#: The command line of each CLI command, by scale.
CLI_ARGS = {
    ("grid-prove", "full"): ["scenario", "grid", "--prove"],
    ("grid-prove", "tiny"): ["scenario", "grid", "--prove", "--rows", "3", "--cols", "3"],
    ("compose-stack", "full"): ["scenario", "compose50", "--stages", "200"],
    ("compose-stack", "tiny"): ["scenario", "compose50", "--stages", "5"],
}

#: Public functions a CLI command calls:
#: (module, function, layer, takes ``recorder=``).
WRAPPED = {
    "grid-prove": [
        ("repro.systems.philosophers", "build_philosopher_grid", "build.program_s", False),
        ("repro.semantics.sparse.explorer", "reachable_subspace", "sparse.explore_s", False),
        ("repro.semantics", "check_reachable_invariant", "invariant.check_s", True),
        ("repro.semantics", "check_leadsto", "leadsto.check_s", True),
        ("repro.semantics.synthesis", "synthesize_leadsto_proof", "synthesis.synthesize_s", True),
        ("repro.semantics.synthesis", "check_certificate_batched", "proof.check_s", False),
    ],
    "compose-stack": [
        ("repro.systems.compose_proof", "build_hetero_stack", "build.program_s", False),
        ("repro.systems.compose_proof", "build_delivery_certificate", "compositional.certificate_s", False),
        ("repro.systems.compose_proof", "encoded_size", "render.summary_s", False),
        ("repro.api", "verify", "compositional.check_s", True),
    ],
}

#: Methods of a certificate that make up the CLI's summary of it, and the
#: certificate within the return value of each wrapped call that builds one.
SUMMARY_METHODS = ("rule_histogram", "count_nodes")
CERTIFICATE_OF = {
    "synthesize_leadsto_proof": lambda proof: proof,
    "build_delivery_certificate": lambda cert: cert.proof,
}


def _holds(result) -> str:
    return {True: "holds", False: "fails"}.get(result.holds, "unknown")


def _nothing(_result):
    return None


#: What the pass keeps of a wrapped call's return value.  Only small
#: values are kept: holding the results themselves would keep large
#: structures alive that the CLI frees as it goes, and move their cost
#: to interpreter shutdown.
KEEP = {
    "reachable_subspace": lambda sub: sub.size,
    "check_reachable_invariant": _holds,
    "check_leadsto": _holds,
    "synthesize_leadsto_proof": lambda proof: len(getattr(proof, "levels", ())),
    "check_certificate_batched": lambda check: "certified" if check.ok else "rejected",
    "verify": lambda verdict: (_holds(verdict), dict(verdict.metrics)),
    "count_nodes": lambda n: n,
}

#: Cold keys the service pass replays (with their hot repeats).
REPLAY_COLD = {"full": 5, "tiny": 3}


class Layers:
    """Wall time per layer, summed over calls, measured around the calls.

    ``wrap`` replaces a function with one that times it and keeps its
    return values in ``returns``; only the outermost of nested wrapped
    calls is timed (and gets the recorder).  ``returns`` holds what
    ``KEEP`` keeps of each outermost call's return value.
    """

    def __init__(self, rec) -> None:
        self.rec = rec
        self.seconds: dict[str, float] = {}
        self.returns: dict[str, list] = {}
        self._depth = 0

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - t0
            )

    def wrap(self, owner, attr: str, layer: str, takes_recorder: bool = False) -> None:
        if isinstance(owner, types.ModuleType):
            inner = getattr(owner, attr)
        else:
            # A method of one object, called through a weak reference so
            # that the wrapper stored on the object does not keep it alive.
            method, ref = getattr(type(owner), attr), weakref.ref(owner)

            def inner(*args, **kwargs):
                return method(ref(), *args, **kwargs)

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            if self._depth:
                return inner(*args, **kwargs)
            if self.rec is not None and takes_recorder:
                kwargs.setdefault("recorder", self.rec)
            self._depth += 1
            try:
                with self.span(layer), _installed(None if takes_recorder else self.rec):
                    result = inner(*args, **kwargs)
            finally:
                self._depth -= 1
            self.returns.setdefault(attr, []).append(KEEP.get(attr, _nothing)(result))
            proof = CERTIFICATE_OF.get(attr, _nothing)(result)
            if proof is not None:
                for method_name in SUMMARY_METHODS:
                    self.wrap(proof, method_name, "render.summary_s")
            return result

        setattr(owner, attr, timed)


def _installed(rec):
    from repro import obs

    return obs.use_recorder(rec) if rec is not None else nullcontext()


def _span_seconds(rec, name: str) -> float:
    """Summed wall time of the engine's own spans called ``name``."""
    total, todo = 0.0, list(rec.metrics().phases)
    while todo:
        span = todo.pop()
        if span.name == name and span.wall is not None:
            total += span.wall
        todo.extend(span.children)
    return total


def cli_pass(args, layers: Layers) -> dict:
    """Run one CLI command in-process with its calls wrapped."""
    import repro.cli

    for module, name, layer, takes_recorder in WRAPPED[args.workload]:
        layers.wrap(importlib.import_module(module), name, layer, takes_recorder)
    with redirect_stdout(io.StringIO()):
        code = repro.cli.main(CLI_ARGS[(args.workload, args.scale)])
    r = {name: kept[0] for name, kept in layers.returns.items()}
    values = {"exit": code}
    verdicts = {}
    if args.workload == "grid-prove":
        if "reachable_subspace" in r:
            values["reachable"] = r["reachable_subspace"]
        if "synthesize_leadsto_proof" in r:
            values["levels"] = r["synthesize_leadsto_proof"]
        if "check_reachable_invariant" in r:
            verdicts["mutual_exclusion"] = r["check_reachable_invariant"]
        if "check_leadsto" in r:
            verdicts["liveness(0)"] = r["check_leadsto"]
        if "check_certificate_batched" in r:
            verdicts["liveness(0) certificate"] = r["check_certificate_batched"]
        if layers.rec is not None:
            values["condensation_s"] = _span_seconds(layers.rec, "graph.condensation")
    elif "verify" in r:
        verdicts["delivery"], m = r["verify"]
        values.update({
            "obligations": int(m.get("obligations", 0)),
            "frame_skips": int(m.get("frame_skips", 0)),
            "footprint_evals": int(m.get("footprint_evaluations", 0)),
        })
        verdicts["delivery certificate"] = (
            "certified" if "proof OK" in m.get("message", "") else "rejected"
        )
    if "count_nodes" in r:
        values["rule_nodes"] = r["count_nodes"]
    values["verdicts"] = verdicts
    return values


def service_mix(args, layers: Layers) -> dict:
    """The service's layers on a single-threaded replay of the mix.

    Replays the seeded cold phase up to its ``REPLAY_COLD[scale]``-th
    key, then the hot phase's repeats of those keys, through an
    in-process ``CertificationService``.  Each cold key is also parsed
    and verified directly first, which splits a cold submit into parse,
    dense verify and the dispatch remainder.
    """
    import http.client

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from mix import build_mix, request_of

    from repro.api import verify
    from repro.dsl import parse_program, parse_property
    from repro.service import CertificationService, ServiceConfig, start_server

    rec = layers.rec
    mix = json.loads(args.mix.read_text())
    table = json.loads(args.expected.read_text())["service-mix"]
    with layers.span("build.program_s"):
        rebuilt = build_mix(mix["seed"], mix["scale"], args.seconds, table)
    if rebuilt != mix:
        raise SystemExit("the mix generator is not a pure function of its seed")

    parse_ms = []
    for prog in mix["programs"]:
        t0 = time.perf_counter()
        parse_program(prog["text"])
        parse_ms.append((time.perf_counter() - t0) * 1000)

    replayed = list(dict.fromkeys(mix["cold"]))[: REPLAY_COLD[args.scale]]
    sequence = [k for k in mix["cold"] if k in replayed]
    sequence += [k for k in mix["hot"] if k in replayed]

    cache_dir = args.work / f"inproc-cache-{os.getpid()}"
    config = ServiceConfig(workers=2, cache_dir=str(cache_dir))
    with layers.span("service.boot_s"):
        svc = CertificationService(config)
        server, url = start_server(svc)
        host, port = url.rsplit("/", 1)[-1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        conn.request("GET", "/v1/health")
        health_ok = conn.getresponse().status == 200
        conn.close()
    hot_ms, cold_ms, verify_ms, dispatch_ms = [], [], [], []
    wrong, failed, states = [], int(not health_ok), 0
    answered: set[int] = set()
    try:
        with _installed(rec):
            for k in sequence:
                q = mix["queries"][k]
                doc = request_of(mix, k)
                cold = k not in answered
                if cold:
                    t0 = time.perf_counter()
                    program = parse_program(doc["program"])
                    prop = parse_property(doc["property"], program)
                    t1 = time.perf_counter()
                    v = verify(program, prop, fairness=q["fairness"], prove=q["prove"])
                    t2 = time.perf_counter()
                    states += program.space.size
                    if v.holds != q["expect"]:
                        wrong.append(f"in-process {q['label']}: {v.holds}")
                t3 = time.perf_counter()
                resp = svc.submit(doc)
                dt = (time.perf_counter() - t3) * 1000
                if resp.get("status") != "ok":
                    failed += 1
                    continue
                if resp.get("holds") != q["expect"] or (
                    q["prove"] and q["expect"] and not resp.get("certified")
                ):
                    wrong.append(f"service {q['label']}: {resp.get('holds')}")
                answered.add(k)
                if cold:
                    cold_ms.append(dt)
                    verify_ms.append((t2 - t1) * 1000)
                    dispatch_ms.append(dt - (t2 - t0) * 1000)
                else:
                    hot_ms.append(dt)
        cache = svc.cache.stats()
    finally:
        server.shutdown()
        server.server_close()
        svc.close()

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    return {
        "parse_ms": med(parse_ms),
        "submit_hot_ms": med(hot_ms),
        "submit_cold_ms": med(cold_ms),
        "verify_ms": med(verify_ms),
        "dispatch_ms": med(dispatch_ms),
        "states": states,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cache_writes": cache["writes"],
        "wrong": wrong,
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "workload", metavar="command", choices=("grid-prove", "compose-stack", "service-mix")
    )
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("plain", "traced"), default="traced")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mix", type=Path)
    parser.add_argument("--expected", type=Path)
    parser.add_argument("--work", type=Path)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro.cli  # noqa: F401
    from repro import obs

    import_s = time.perf_counter() - t0
    layers = Layers(obs.MetricsRecorder() if args.mode == "traced" else None)
    layers.seconds["import.repro_s"] = import_s
    if args.workload == "service-mix":
        values = service_mix(args, layers)
    else:
        values = cli_pass(args, layers)
    counters = {}
    if layers.rec is not None:
        counters = {
            k: v
            for k, v in layers.rec.metrics().counters.items()
            if not k.endswith(".seconds")
        }
    print(json.dumps({"layers": layers.seconds, "values": values, "counters": counters}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
