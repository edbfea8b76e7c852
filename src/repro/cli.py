"""The ``python -m repro`` command table and its argparse front end.

Every subcommand is one ``COMMANDS`` row — what to run, a description,
its declared flags — and :func:`build_parser` generates the argparse
tree from the table (plus one nested subparser per
:data:`repro.bench.registry.BENCHES` row under ``bench``), so usage
text, ``--help``, type conversion and unknown-flag rejection cannot
drift from what dispatches.  Rows are plain data and every command
imports what it needs when it runs: ``--help`` loads no simulator.

Exit codes, for every command: 0 ok, 1 a verdict or check failed,
2 usage error.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)


class Flag(NamedTuple):
    """One declared argument: ``--option``, ``--switch`` (``type=bool``)
    or, without the dashes, a positional."""

    name: str
    help: str
    type: Callable[[str], Any] = str
    default: Any = None
    metavar: Optional[str] = None
    nargs: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None


def csv(text: str) -> List[str]:
    """``a,b`` -> ``["a", "b"]``: the type of list-valued flags."""
    return [part.strip() for part in text.split(",") if part.strip()]


def add_flags(parser: argparse.ArgumentParser, flags: Sequence[Flag]) -> None:
    for flag in flags:
        if flag.type is bool:
            parser.add_argument(
                flag.name,
                action="store_true",
                default=flag.default or False,
                help=flag.help,
            )
        else:
            kwargs = flag._asdict()
            parser.add_argument(kwargs.pop("name"), **kwargs)


def flag_argv(flags: Sequence[Flag], values: Mapping[str, Any]) -> List[str]:
    """The argument list that parses back to ``values`` (by ``dest``)
    under ``flags``, none of them a switch."""
    argv: List[str] = []
    for flag in flags:
        dest = flag.name.lstrip("-").replace("-", "_")
        value = str(values[dest])
        # A positional's name is its dest; an option goes by name.
        argv += [value] if flag.name == dest else [flag.name, value]
    return argv


JSON = Flag(
    "--json", "also write a soda.bench/1 snapshot to PATH", metavar="PATH"
)


def emit(ns: argparse.Namespace, kind: str, body, meta=None) -> None:
    """Honour ``--json PATH``."""
    if ns.json:
        from repro.obs.export import emit_snapshot

        emit_snapshot(ns.json, kind, body, meta=meta)


def known(what: str, names: Optional[Sequence[str]], registry) -> bool:
    """Whether every name is in ``registry``; says which are not."""
    unknown = [name for name in names or () if name not in registry]
    if unknown:
        print(
            f"unknown {what}(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(registry))}",
            file=sys.stderr,
        )
    return not unknown


def _quickstart(ns) -> None:
    from repro import Buffer, ClientProgram, Network, make_well_known_pattern

    ECHO = make_well_known_pattern(0o346)

    class Server(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(ECHO)

        def handler(self, api, event):
            if event.is_arrival:
                buf = Buffer(event.put_size)
                yield from api.accept_current_exchange(get=buf, put=b"pong")
                print(f"  server accepted {buf.data!r}")

    class Client(ClientProgram):
        def task(self, api):
            server = yield from api.discover(ECHO)
            reply = Buffer(16)
            completion = yield from api.b_exchange(server, put=b"ping", get=reply)
            print(
                f"  client exchange: {completion.status.value}, "
                f"reply {reply.data!r} at t={api.now/1000:.2f} ms"
            )

    net = Network(seed=7)
    net.add_node(program=Server())
    net.add_node(program=Client(), boot_at_us=100.0)
    net.run(until=2_000_000.0)
    print(f"  {net.bus.frames_sent} frames on the bus")


def _tables(ns) -> None:
    from repro.bench.perf_tables import (
        QUICK_SIZES,
        WORD_SIZES,
        performance_tables,
        render,
    )

    sizes = QUICK_SIZES if ns.quick else WORD_SIZES
    body = performance_tables(sizes)
    print(render(body))
    emit(
        ns,
        "performance_tables",
        body,
        meta={"quick": ns.quick, "word_sizes": sizes},
    )


def _breakdown(ns) -> None:
    from repro.bench import format_table, measure_signal_breakdown

    result = measure_signal_breakdown()
    rows = [
        (name, result.measured_ms[name], result.paper_ms[name])
        for name in result.paper_ms
    ]
    rows.append(("TOTAL", result.total_measured_ms, result.total_paper_ms))
    print(
        format_table(
            ["category", "measured ms", "paper ms"], rows,
            title="Breakdown of protocol time (2-packet SIGNAL)",
        )
    )
    print(f"elapsed B_SIGNAL: {result.elapsed_call_ms:.2f} ms")
    emit(ns, "overhead_breakdown", result.to_dict())


def _comparison(ns) -> None:
    from repro.bench import format_table, measure_comparison

    rows = measure_comparison()
    print(
        format_table(
            ["scenario", "measured ms", "paper ms"],
            [(r.scenario, r.measured_ms, r.paper_ms) for r in rows],
            title="SODA vs *MOD",
        )
    )
    emit(ns, "starmod_comparison", {"rows": [r.to_dict() for r in rows]})


def _deltat(ns) -> None:
    from repro.bench import deltat_scenarios

    scenarios = deltat_scenarios()
    for scenario in scenarios.values():
        print(f"{scenario.name} [{'ok' if scenario.ok else 'FAILED'}]")
        for t_ms, event in scenario.events:
            print(f"    t={t_ms:9.1f} ms  {event}")
    emit(
        ns,
        "deltat_scenarios",
        {name: s.to_dict() for name, s in sorted(scenarios.items())},
    )


def _metrics(ns) -> int:
    from repro.workloads import CAUSAL_WORKLOADS, build_workload
    from repro.bench.tables import format_table
    from repro.obs import (
        MetricsHub,
        render_metrics,
        render_span_table,
        write_metrics_jsonl,
    )

    if not known("workload", [ns.workload], CAUSAL_WORKLOADS):
        return 2
    built = build_workload(ns.workload, keep_trace=False)
    hub = MetricsHub().install(built.net)
    built.run()
    report = hub.report()
    print(render_span_table(report.spans))
    print()
    print(render_metrics(report.snapshot))
    print()
    ledger_rows = [
        (category, us / 1000.0)
        for category, us in sorted(report.ledger.items())
    ]
    ledger_rows.append(("TOTAL", sum(report.ledger.values()) / 1000.0))
    print(
        format_table(
            ["category", "ms"], ledger_rows, title="Cost breakdown"
        )
    )
    emit(ns, "metrics", report.to_dict(), meta={"workload": ns.workload})
    if ns.jsonl:
        write_metrics_jsonl(ns.jsonl, report.snapshot)
        print(f"wrote {ns.jsonl}")
    return 0


def _chaos(ns) -> int:
    from repro.chaos import (
        SCHEDULES,
        format_repro,
        make_schedule,
        matrix_payload,
        run_cell,
        run_matrix,
        shrink_scenario,
    )
    from repro.workloads import CAUSAL_WORKLOADS, get_spec
    from repro.obs.export import write_snapshot

    if not (
        known("workload", ns.workload, CAUSAL_WORKLOADS)
        and known("schedule", ns.schedule, SCHEDULES)
    ):
        return 2
    workloads = ns.workload
    if not ns.matrix and not ns.workload and not ns.schedule:
        # Quick mode: one representative workload across all schedules.
        workloads = ["echo"]

    def progress(result) -> None:
        status = "ok" if result.ok else "FAIL"
        injected = sum(result.faults.values())
        print(
            f"  {status:4s} {result.workload}/{result.schedule}"
            f"/seed={result.seed}  "
            f"spans={sum(result.spans_by_status.values())} "
            f"faults={injected}"
        )

    results = run_matrix(
        workloads=workloads,
        schedules=ns.schedule,
        seeds=(ns.seed,),
        progress=progress,
        causal=ns.causal,
        parallel=ns.parallel,
    )
    failed = [r for r in results if not r.ok]
    print(
        f"chaos: {len(results) - len(failed)}/{len(results)} cell(s) clean"
    )
    for result in failed:
        for line in result.problems():
            print(f"  {result.workload}/{result.schedule}: {line}")

    if failed and not ns.no_shrink:
        # Shrink the first failure to a minimal reproducer.
        first = failed[0]
        scenario = make_schedule(first.schedule, get_spec(first.workload))

        def rerun(trial):
            return run_cell(
                first.workload,
                first.schedule,
                first.seed,
                scenario=trial,
                causal=ns.causal,
            )

        minimal = shrink_scenario(
            scenario, lambda trial: not rerun(trial).ok
        )
        print()
        print("minimal reproducer (paste into tests/test_chaos.py):")
        print()
        print(
            format_repro(
                first.workload,
                first.seed,
                minimal,
                rerun(minimal).problems(),
            )
        )
    if ns.json:
        write_snapshot(ns.json, matrix_payload(results, ns.seed))
        print(f"wrote {ns.json}")
    return 1 if failed else 0


def _recover(ns) -> int:
    """One scripted crash/reboot/retry walkthrough."""
    from repro.workloads import build_workload
    from repro.chaos.scenario import ClientDie, NodeCrash, Scenario
    from repro.obs import MetricsHub
    from repro.recovery.convergence import RecoverySink
    from repro.sim.tracing import SinkTable

    built = build_workload("supervised", seed=ns.seed)
    hub = MetricsHub().install(built.net)
    scenario = Scenario(
        "recover_demo",
        (
            # DIE mid-exchange: probe-proof (arg=2) safe retry.
            ClientDie(15_000.0, role="server"),
            # Power-fail later: full kernel loss, Delta-t quiet period.
            NodeCrash(3_290_000.0, role="server"),
        ),
    )
    scenario.run(built)

    watched = {
        "kernel.die": "server client DIEd",
        "kernel.crash": "server node power-failed",
        "recovery.suspect": "supervisor suspects the service",
        "recovery.crash_detected": "supervisor declares the service crashed",
        "recovery.reboot": "supervisor rebooted the node (BOOT/LOAD)",
        "recovery.restored": "service advertised-and-answering again",
        "recovery.escalated": "supervisor gave the service up",
        "recovery.retry": "client safely re-issued a failed REQUEST",
        "recovery.maybe": "client surfaced an ambiguous failure as MAYBE",
    }
    records = built.net.sim.trace.retained()
    sink = RecoverySink()
    SinkTable(sink, sink.detector).replay(records)
    print("timeline:")
    for record in records:
        label = watched.get(record.category)
        if label is not None:
            print(f"  t={record.time / 1000.0:9.2f} ms  {label}")

    print()
    print("failure detector:")
    for line in sink.detector.format_table():
        print(f"  {line}")

    summary = sink.finish()
    print()
    print("recovery counters:")
    for name, value in summary["counts"].items():
        print(f"  recovery.{name:20s} {value}")

    outcomes = built.net.nodes[built.mid_of("client")].kernel.client
    outcomes = outcomes.program.outcomes if outcomes else []
    problems = sink.self_heal(built, scenario.last_action_us)
    unsafe = [s for s in outcomes if s not in ("completed", "maybe")]
    print()
    print(f"client outcomes: {outcomes}")
    for problem in problems:
        print(f"  self-heal FAILED: {problem}")
    healed = not problems and not unsafe
    print(f"self-heal: {'converged' if healed else 'FAILED'}")
    emit(
        ns,
        "recover_demo",
        {
            "summary": summary,
            "detector": sink.detector.summary(),
            "outcomes": outcomes,
            "selfheal_problems": problems,
            "metrics": hub.report().snapshot,
        },
        meta={"seed": built.spec.seed if ns.seed is None else ns.seed},
    )
    return 0 if healed else 1


def _real(ns) -> int:
    """The SODA stack over real sockets, one OS process per node."""
    from repro.netreal.runner import real_schedule, run_real
    from repro.workloads import REAL_WORKLOADS

    if not known("workload", [ns.workload], REAL_WORKLOADS):
        return 2
    try:
        real_schedule(ns.schedule, REAL_WORKLOADS[ns.workload])
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    result = run_real(
        ns.workload,
        seed=ns.seed,
        schedule=ns.schedule,
        keep_traces=ns.keep_traces,
    )
    print(
        f"  spans: {dict(sorted(result.spans_by_status.items()))}, "
        f"{sum(result.faults.values())} fault(s) injected"
    )
    if result.kv:
        print(
            f"  kv: {result.kv['ops_definitive']}/"
            f"{result.kv['ops_invoked']} definitive, "
            f"availability={result.kv['availability']:.3f}, "
            f"promotions={result.kv['promotions']}"
        )
    for line in result.problems():
        print(f"  PROBLEM: {line}")
    print(f"real: {'ok' if result.ok else 'FAILED'}")
    emit(ns, "real_run", result.to_dict(), meta={"workload": ns.workload})
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# The command table.  ``run`` is a function above or, for code living in
# another package, its ``module:function`` path resolved on dispatch.


class Command(NamedTuple):
    run: Union[Callable[[argparse.Namespace], Optional[int]], str]
    description: str
    flags: Tuple[Flag, ...] = ()


SEED = Flag("--seed", "seed of every run", int, 1, metavar="N")
PARALLEL = Flag(
    "--parallel", "use N worker processes (same bytes)", int, metavar="N"
)
CHECK = Flag(
    "--check",
    "also judge ./BENCH_<name>.json and compare it with this run (bytes "
    "if the bench is deterministic, keys otherwise); writes nothing",
    bool,
)
_WORKLOADS = Flag("workload", "default: every standard workload", nargs="*")

#: What ``real`` hands down to each ``real-node`` child unchanged.
_REAL_FLAGS = (
    SEED,
    Flag("--schedule", "chaos schedule to run under (docs/CHAOS.md)",
         default="calm", metavar="S"),
)

COMMANDS: Dict[str, Command] = {
    "quickstart": Command(_quickstart, "two-node echo session"),
    "tables": Command(
        _tables,
        "the paper's performance tables",
        (Flag("--quick", "five payload sizes instead of twelve", bool), JSON),
    ),
    "breakdown": Command(_breakdown, "overhead-breakdown table", (JSON,)),
    "comparison": Command(_comparison, "SODA vs *MOD", (JSON,)),
    "deltat": Command(_deltat, "Delta-t figure scenarios", (JSON,)),
    "metrics": Command(
        _metrics,
        "observability report (repro.obs)",
        (
            Flag("workload", "workload to run", default="signal", nargs="?"),
            JSON,
            Flag("--jsonl", "also write one metric per line", metavar="PATH"),
        ),
    ),
    "lint": Command(
        "repro.analysis.cli:run_lint",
        "sodalint protocol linter; exit 1 on findings",
        (
            Flag("paths", "default: src/repro/apps examples", nargs="*"),
            Flag("--disable", "rule ids to silence", csv, (), "ID[,ID...]"),
            JSON,
        ),
    ),
    "check-trace": Command(
        "repro.analysis.cli:run_check_trace",
        "replay workload traces against the invariants",
        (_WORKLOADS, JSON),
    ),
    "causal": Command(
        "repro.analysis.cli:run_causal",
        "vector-clock happens-before, race + deadlock detection "
        "(SODA010-SODA013)",
        (_WORKLOADS, JSON),
    ),
    "chaos": Command(
        _chaos,
        "fault-schedule sweep (repro.chaos, docs/CHAOS.md)",
        (
            Flag("--matrix", "every workload (default: echo only)", bool),
            SEED,
            Flag("--workload", "only these workloads", csv, None, "W[,W...]"),
            Flag("--schedule", "only these schedules", csv, None, "S[,S...]"),
            Flag("--no-shrink", "do not shrink the first failure to a "
                 "minimal reproducer", bool),
            Flag("--causal", "add the causal column: SODA010-014 race "
                 "and deadlock rules", bool),
            PARALLEL,
            JSON,
        ),
    ),
    "bench": Command(
        "repro.bench.registry:run_bench",
        "run one registered bench, or all of them (virtual-time "
        "contracts: BENCH_<name>.json)",
        (Flag("--all", "every bench, at its defaults", bool), CHECK),
    ),
    "recover": Command(
        _recover,
        "crash -> detect -> reboot -> retry walkthrough (repro.recovery)",
        (
            Flag("--seed", "override the workload's seed", int, metavar="N"),
            JSON,
        ),
    ),
    "real": Command(
        _real,
        "run over real UDP sockets, one OS process per node "
        "(repro.netreal)",
        (Flag("workload", "netreal workload", default="pingpong", nargs="?"),)
        + _REAL_FLAGS
        + (Flag("--keep-traces", "keep each node's trace JSONL and "
                "durable files here", metavar="DIR"), JSON),
    ),
    "real-node": Command(
        "repro.netreal.runner:run_real_node",
        "child-process entry for `real` (internal): one node, one socket",
        (
            Flag("workload", "netreal workload"),
            Flag("role", "index of this node's role", int),
            Flag("control", "the parent's control port", int),
            Flag("trace", "where to dump this node's trace"),
        )
        + _REAL_FLAGS,
    ),
}


def _listing(title: str, subparsers: argparse._SubParsersAction) -> str:
    """Usage and description of every subparser, as a help epilog."""
    lines = [f"{title}:"]
    for sub in subparsers.choices.values():
        usage = sub.format_usage()[len("usage: "):].rstrip()
        lines.append(f"  {usage}")
        lines.append(f"      {sub.description}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    from repro.bench.registry import BENCHES

    # Every parser: flags are spelled out in full, listings keep their
    # line breaks.
    strict: Dict[str, Any] = {
        "allow_abbrev": False,
        "formatter_class": argparse.RawDescriptionHelpFormatter,
    }
    parser = argparse.ArgumentParser(prog="python -m repro", **strict)
    commands = parser.add_subparsers(
        dest="command", metavar="<command>", required=True
    )
    for name, command in COMMANDS.items():
        sub = commands.add_parser(
            name, description=command.description, **strict
        )
        add_flags(sub, command.flags)
        if name == "bench":
            benches = sub.add_subparsers(dest="name", metavar="NAME")
            for bench_name, bench in BENCHES.items():
                add_flags(
                    benches.add_parser(
                        bench_name, description=bench.description, **strict
                    ),
                    # A subparser's defaults overwrite what its parent
                    # parsed: only an explicit `bench NAME --check` may
                    # set what `bench --check NAME` already has.
                    bench.flags
                    + (JSON, CHECK._replace(default=argparse.SUPPRESS)),
                )
            sub.epilog = _listing("benches", benches)
    parser.epilog = _listing("commands", commands)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv) or ["quickstart"]
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed --help (0) or a usage error (2).
        return int(exc.code or 0)
    run = COMMANDS[ns.command].run
    if isinstance(run, str):
        module, _, function = run.partition(":")
        run = getattr(importlib.import_module(module), function)
    result = run(ns)
    return 0 if result is None else int(result)
