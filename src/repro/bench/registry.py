"""The bench registry: ``python -m repro bench <name> [--check]``.

One ``BENCHES`` row per committed ``BENCH_<name>.json``.  A row is plain
data — envelope ``kind`` and ``meta``, flags, whether the body is
deterministic — plus the name of the :mod:`repro.bench` module that
holds the bench's three functions, imported only when the bench runs:

* ``run(ns) -> body`` at the parsed flags;
* ``render(body) -> str``, the console tables;
* ``verdicts(body) -> list[str]``, empty when the body is healthy — the
  one place that predicate lives, applied alike to a fresh run and to
  the committed snapshot.

``--check`` re-runs the bench (at the defaults, which are what produced
the committed file), judges both bodies, and for a deterministic bench
requires the fresh snapshot to equal ``./BENCH_<name>.json`` byte for
byte; the wall-clock bench (``real``) must only have the same keys.
It never writes.
"""

from __future__ import annotations

import importlib
import json
import sys
from argparse import Namespace
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.cli import CAUSAL, PARALLEL, SEED, Flag, build_parser, emit

Body = Dict[str, Any]


class Bench(NamedTuple):
    kind: str
    module: str
    description: str
    deterministic: bool
    flags: Tuple[Flag, ...] = ()
    meta: Callable[[Body], Dict[str, Any]] = lambda body: {}


BENCHES: Dict[str, Bench] = {
    "obs": Bench(
        "performance_tables",
        "perf_tables",
        "the paper's Chapter 5: PUT/GET/EXCHANGE tables at its twelve "
        "sizes, the SIGNAL breakdown, the *MOD comparison, the Delta-t "
        "figure",
        deterministic=True,
    ),
    "transport": Bench(
        "transport_comparison",
        "transport",
        "adaptive vs static retransmission under sustained_loss",
        deterministic=True,
        flags=(SEED, PARALLEL),
        meta=lambda body: {"seeds": body["seeds"]},
    ),
    "kv": Bench(
        "kv_bench",
        "kv",
        "replicated-KV availability and failover time",
        deterministic=True,
        flags=(SEED,),
        meta=lambda body: {"seed": body["seed"]},
    ),
    "durability": Bench(
        "durability_bench",
        "durability",
        "WAL replay, snapshot-interval and fsync-policy costs",
        deterministic=True,
    ),
    "chaos": Bench(
        "chaos_matrix",
        "chaos",
        "every workload under every fault schedule: each cell's verdict",
        deterministic=True,
        flags=(PARALLEL, CAUSAL),
        meta=lambda body: {"seed": body["seed"]},
    ),
    "real": Bench(
        "real_bench",
        "real",
        "sim vs real UDP per policy under loss (wall clock; loopback UDP)",
        deterministic=False,
        flags=(SEED,),
        meta=lambda body: {"seed": body["seed"]},
    ),
}


def _leaves(value: Any, values: bool, where: str = "") -> Iterator[Tuple[str, Any]]:
    """``(path, leaf)`` pairs of a JSON tree.  With ``values`` off a
    list is a leaf and every leaf reads None: the tree's keys alone."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, values, f"{where}.{key}" if where else key)
    elif values and isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, values, f"{where}[{index}]")
    else:
        yield where, value if values else None


def check_committed(name: str, body: Optional[Body] = None) -> List[str]:
    """What is wrong with ``./BENCH_<name>.json``: its envelope, its
    verdicts and, given the body of a fresh run, where the snapshot that
    body makes differs from it."""
    from repro.obs.export import (
        BENCH_SCHEMA, serialize_snapshot, snapshot_payload,
    )

    bench = BENCHES[name]
    path = Path(f"BENCH_{name}.json")
    try:
        text = path.read_text(encoding="utf-8")
        committed = json.loads(text)
        kept = committed["body"]
        if (
            committed["schema"] != BENCH_SCHEMA
            or committed["kind"] != bench.kind
            or committed["meta"] != bench.meta(kept)
        ):
            return [f"{path}: not a {BENCH_SCHEMA} {bench.kind} envelope"]
        problems = [f"{path}: {line}" for line in load(bench).verdicts(kept)]
    except OSError as exc:
        return [f"{path}: {exc.strerror}"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{path}: malformed snapshot ({exc!r})"]
    if body is None:
        return problems
    fresh = snapshot_payload(bench.kind, body, bench.meta(body))
    ours, theirs = (
        dict(_leaves(tree, bench.deterministic)) for tree in (fresh, committed)
    )
    where = min((at for at, _ in ours.items() ^ theirs.items()), default=None)
    if bench.deterministic and text != serialize_snapshot(fresh):
        where = where or "formatting"
    if where:
        problems.append(f"{path}: differs from this run at {where}")
    return problems


def load(bench: Bench):
    """The module holding ``bench``'s run / render / verdicts."""
    return importlib.import_module(f"repro.bench.{bench.module}")


def _run_one(name: str, ns: Namespace) -> int:
    bench = BENCHES[name]
    module = load(bench)
    body = module.run(ns)
    print(module.render(body))
    problems = module.verdicts(body)
    if ns.check:
        problems += check_committed(name, body)
    for line in problems:
        print(f"bench {name}: FAILED: {line}")
    if not problems:
        how = "byte for byte" if bench.deterministic else "key for key"
        matches = f", BENCH_{name}.json matches {how}" if ns.check else ""
        print(f"bench {name}: ok{matches}")
    emit(ns, bench.kind, body, bench.meta(body))
    return 1 if problems else 0


def run_bench(ns: Namespace) -> int:
    """``bench NAME [flags] [--json PATH] [--check]`` / ``bench --all``."""
    if ns.all == (ns.name is not None):
        print("bench: name one bench or pass --all", file=sys.stderr)
        return 2
    if not ns.all:
        return _run_one(ns.name, ns)
    status = 0
    parser = build_parser()
    for name in BENCHES:
        # Each bench at its own defaults: what `bench NAME` parses to.
        argv = ["bench", name] + ["--check"] * ns.check
        status = max(status, _run_one(name, parser.parse_args(argv)))
        print()
    return status
