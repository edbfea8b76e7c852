"""Each judging sink against the function it replaced.

``KvSink`` and ``RecoverySink`` fold record by record what
``check_kv_consistency`` / ``kv_summary`` / ``recovery_summary`` and the
record half of ``check_self_heal`` used to collect in a loop of their
own.  Those loops are copied here, as they stood, as the reference:
the public functions are now wrappers over the sinks, so comparing a
sink with them would compare it with itself.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.recovery.convergence import RecoverySink, check_self_heal
from repro.recovery.detector import FailureDetector
from repro.replication.consistency import (
    KvSink,
    check_kv_consistency,
    kv_summary,
)
from repro.sim.tracing import SinkTable, TraceRecord

# -- the references: the pre-sink bodies, verbatim ---------------------------


def reference_kv_consistency(records):
    problems = []
    apply_by_index = {}
    applied_sites = {}
    apply_holders = {}
    state_loss = {}
    apply_times = []
    write_results = []
    read_results = []
    for rec in records:
        category = rec.category
        if category == "kv.apply":
            index = rec["index"]
            info = (
                rec["epoch"], rec["op"], rec["key"], rec["token"],
                rec["version"], rec["applied"],
            )
            previous = apply_by_index.get(index)
            if previous is None:
                apply_by_index[index] = info
            elif previous != info:
                problems.append(
                    f"divergent commit at log index {index}: "
                    f"{previous} vs {info}"
                )
            apply_times.append(rec.time)
            if rec["applied"] and rec["op"] in ("put", "cas"):
                applied_sites.setdefault(rec["token"], set()).add(index)
                holders = apply_holders.setdefault(rec["token"], {})
                holders[rec["mid"]] = rec.time
        elif category in ("kernel.crash", "kernel.die"):
            state_loss.setdefault(rec["mid"], []).append(rec.time)
        elif category == "kv.result":
            entry = (
                rec.time, rec.get("invoked_at", rec.time), rec["mid"],
                rec["seq"], rec["op"], rec["key"], rec["status"],
                rec["version"], rec["token"], rec.get("wtoken", 0),
            )
            if rec["op"] == "get":
                read_results.append(entry)
            else:
                write_results.append(entry)

    for token, sites in applied_sites.items():
        if len(sites) > 1:
            problems.append(
                f"write token {token} applied at log indexes "
                f"{sorted(sites)} (at-most-once violation)"
            )

    value_at_version = {}
    for index, info in sorted(apply_by_index.items()):
        _epoch, op, key, token, version, applied = info
        if applied and op in ("put", "cas"):
            value_at_version[version] = (key, token)

    acked_versions = {}
    for (t_ack, _t0, mid, seq, op, key, status, version, _vtok, wtoken) in (
        write_results
    ):
        where = f"{op} (mid={mid}, seq={seq}, key={key})"
        if status == "ok":
            sites = applied_sites.get(wtoken, set())
            if not sites:
                problems.append(
                    f"lost acknowledged write: {where} acked at "
                    f"version {version} but never committed"
                )
            elif value_at_version.get(version) != (key, wtoken):
                problems.append(
                    f"acknowledged write {where} reports version "
                    f"{version}, but the commit there is "
                    f"{value_at_version.get(version)}"
                )
            acked_versions.setdefault(key, []).append((t_ack, version))
        elif status == "cas_fail" and wtoken in applied_sites:
            problems.append(
                f"CAS acked as failed but applied: {where} at log "
                f"indexes {sorted(applied_sites[wtoken])}"
            )

    last_apply = max(apply_times) if apply_times else float("-inf")
    reported_lost = set()
    for (_t_ack, _t0, mid, seq, op, key, status, _v, _vtok, wtoken) in (
        write_results
    ):
        if status != "ok" or wtoken in reported_lost:
            continue
        holders = apply_holders.get(wtoken)
        if not holders:
            continue
        loss_time = float("-inf")
        held = False
        for site, applied_at in holders.items():
            erased_at = next(
                (t for t in state_loss.get(site, ()) if t > applied_at),
                None,
            )
            if erased_at is None:
                held = True
                break
            loss_time = max(loss_time, erased_at)
        if held or last_apply <= loss_time:
            continue
        reported_lost.add(wtoken)
        problems.append(
            f"acknowledged write lost to total state loss: {op} "
            f"(mid={mid}, seq={seq}, key={key}) was applied only on "
            f"replicas that all lost state by t={loss_time:.0f}, and "
            f"the cluster kept running without it"
        )

    for (_t_ack, t0, mid, seq, _op, key, status, version, vtok, _w) in (
        read_results
    ):
        if status != "ok":
            continue
        floor = 0
        for t_w, v_w in acked_versions.get(key, ()):
            if t_w <= t0 and v_w > floor:
                floor = v_w
        if version < floor:
            problems.append(
                f"stale read: get (mid={mid}, seq={seq}, key={key}) "
                f"invoked at t={t0:.0f} returned version {version} "
                f"after version {floor} was acknowledged"
            )
        if version > 0 and value_at_version.get(version) != (key, vtok):
            problems.append(
                f"phantom read: get (mid={mid}, seq={seq}, key={key}) "
                f"returned (version={version}, token={vtok}) but the "
                f"commit there is {value_at_version.get(version)}"
            )
    return problems


def reference_kv_summary(records):
    invoked = 0
    outcomes = {}
    commits = 0
    promotions = 0
    for rec in records:
        if rec.category == "kv.invoke":
            invoked += 1
        elif rec.category == "kv.result":
            status = rec["status"]
            outcomes[status] = outcomes.get(status, 0) + 1
        elif rec.category == "kv.apply":
            commits += 1
        elif rec.category == "kv.promote":
            promotions += 1
    definitive = outcomes.get("ok", 0) + outcomes.get("cas_fail", 0)
    return {
        "ops_invoked": invoked,
        "outcomes": dict(sorted(outcomes.items())),
        "ops_definitive": definitive,
        "availability": (definitive / invoked) if invoked else 1.0,
        "entries_applied": commits,
        "promotions": promotions,
    }


REFERENCE_SUMMARY_CATEGORIES = {
    "kernel.crash_report": "crash_reports",
    "recovery.crash_detected": "crashes_detected",
    "recovery.reboot": "reboots_issued",
    "recovery.restored": "restored",
    "recovery.escalated": "escalations",
    "recovery.retry": "retries",
    "recovery.maybe": "ambiguous_maybes",
}


def reference_recovery_summary(records):
    detector = FailureDetector()
    SinkTable(detector).replay(records)
    counts = {key: 0 for key in sorted(REFERENCE_SUMMARY_CATEGORIES.values())}
    for record in records:
        key = REFERENCE_SUMMARY_CATEGORIES.get(record.category)
        if key is not None:
            counts[key] += 1
    return {
        "counts": counts,
        "false_suspicions": detector.false_suspicions,
        "epochs": {
            str(mid): detector.views[mid].epoch
            for mid in sorted(detector.views)
        },
    }


def reference_self_heal_loop(records, supervised_mids, last_fault_us, bound_us):
    """The record half of the old ``check_self_heal`` (its live-state
    half reads the kernel, not the trace, and did not move)."""
    problems = []
    restored_times = {}
    for record in records:
        if record.category == "recovery.restored":
            restored_times.setdefault(record["service_mid"], []).append(
                record.time
            )
    for record in records:
        if record.category == "recovery.escalated":
            if record["service_mid"] in supervised_mids:
                problems.append(
                    f"supervisor escalated service mid "
                    f"{record['service_mid']} at t={record.time:.0f}us "
                    f"(restart budget exhausted)"
                )
        elif record.category == "recovery.crash_detected":
            service_mid = record["service_mid"]
            if service_mid not in supervised_mids:
                continue
            deadline = max(record.time, last_fault_us) + bound_us
            healed = any(
                record.time <= t <= deadline
                for t in restored_times.get(service_mid, ())
            )
            if not healed:
                problems.append(
                    f"service mid {service_mid} detected crashed at "
                    f"t={record.time:.0f}us was not restored within "
                    f"{bound_us:.0f}us of the last fault"
                )
    return problems


# -- synthetic, time-ordered record streams ----------------------------------

MIDS = st.integers(0, 2)
SMALL = st.integers(0, 3)  # indexes, versions, tokens: made to collide


def _timed(events):
    """Stamp drawn ``(delta, category, fields)`` events with
    non-decreasing times; a zero delta makes same-instant records."""
    now, out = 0.0, []
    for delta, category, fields in events:
        now += delta
        fields = dict(fields)
        if fields.pop("_invoked_before", None) is not None:
            fields["invoked_at"] = max(0.0, now - 3.0)
        out.append(TraceRecord(now, category, fields))
    return out


def _event(category, **fields):
    return st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 2.5]),
        st.just(category),
        st.fixed_dictionaries(fields),
    )


KV_EVENTS = st.one_of(
    _event(
        "kv.apply", mid=MIDS, index=SMALL, epoch=st.integers(1, 2),
        op=st.sampled_from(["put", "put", "cas", "get"]),
        key=st.integers(1, 2), token=SMALL, version=SMALL,
        applied=st.sampled_from([True, True, True, False]),
    ),
    _event(
        "kv.result", mid=st.just(9), seq=SMALL,
        op=st.sampled_from(["put", "cas", "get"]), key=st.integers(1, 2),
        status=st.sampled_from(["ok", "ok", "ok", "cas_fail", "unavail"]),
        version=SMALL, token=SMALL, wtoken=SMALL,
        _invoked_before=st.sampled_from([None, True]),
    ),
    _event("kv.invoke", mid=st.just(9), seq=SMALL),
    _event("kv.promote", mid=MIDS, epoch=st.integers(1, 3)),
    _event("kernel.crash", mid=MIDS),
    _event("kernel.die", mid=MIDS),
    _event("kernel.tx", mid=MIDS, dst=MIDS),  # not the sink's business
)

RECOVERY_EVENTS = st.one_of(
    _event("kernel.boot_handler", mid=MIDS),
    _event("kernel.die", mid=MIDS),
    _event("kernel.crash", mid=MIDS),
    _event("kernel.crash_report", mid=MIDS, peer=MIDS, reason=st.just("probe")),
    _event("recovery.crash_detected", mid=st.just(3), service_mid=MIDS),
    _event("recovery.reboot", mid=st.just(3), service_mid=MIDS),
    _event("recovery.restored", mid=st.just(3), service_mid=MIDS),
    _event("recovery.escalated", mid=st.just(3), service_mid=MIDS),
    _event("recovery.retry", mid=MIDS),
    _event("recovery.maybe", mid=MIDS),
    _event("recovery.suspect", mid=st.just(3), service_mid=MIDS),  # unread
)


def _put(mid, index, token, version=None, key=1, epoch=1):
    return dict(
        mid=mid, index=index, epoch=epoch, op="put", key=key, token=token,
        version=index + 1 if version is None else version, applied=True,
    )


def _acked(seq, op, key, status, version, token, wtoken):
    return dict(
        mid=9, seq=seq, op=op, key=key, status=status, version=version,
        token=token, wtoken=wtoken,
    )


KV_EVERY_RULE = _timed([
    (0.0, "kv.invoke", {"mid": 9, "seq": 0}),
    (1.0, "kv.apply", _put(0, 0, token=1)),
    (0.0, "kv.apply", _put(1, 0, token=2, epoch=2)),  # divergent
    (1.0, "kv.apply", _put(0, 1, token=1)),  # token 1 a second time
    (1.0, "kv.result", _acked(0, "put", 1, "ok", 2, 1, 1)),
    (1.0, "kv.result", _acked(1, "put", 2, "ok", 3, 4, 4)),  # never applied
    (1.0, "kv.result", _acked(2, "cas", 1, "cas_fail", 0, 1, 1)),  # applied
    (1.0, "kv.result", _acked(3, "get", 1, "ok", 1, 3, 0)),  # stale, phantom
    (1.0, "kernel.crash", {"mid": 0}),
    (1.0, "kv.apply", _put(2, 2, token=3, key=2)),  # the cluster ran on
])
#: Recovery replay re-emits ``kv.apply``: the *latest* application is
#: the one a later state loss has to follow.
KV_HELD_AGAIN_AFTER_REPLAY = _timed([
    (1.0, "kv.apply", _put(0, 0, token=1)),
    (1.0, "kv.result", _acked(0, "put", 1, "ok", 1, 1, 1)),
    (1.0, "kernel.crash", {"mid": 0}),
    (1.0, "kv.apply", _put(0, 0, token=1)),
    (1.0, "kv.apply", _put(0, 1, token=2)),
])
KV_LOST_TO_CLIENT_DEATH = _timed([
    (1.0, "kv.apply", _put(0, 0, token=1)),
    (1.0, "kv.result", _acked(0, "put", 1, "ok", 1, 1, 1)),
    (1.0, "kernel.die", {"mid": 0}),
    (1.0, "kv.apply", _put(1, 1, token=2)),
])
RECOVERY_EVERY_RULE = _timed([
    (1.0, "recovery.crash_detected", {"service_mid": 0}),  # unanswered
    (1.0, "recovery.crash_detected", {"service_mid": 1}),
    (0.0, "recovery.restored", {"service_mid": 1}),  # at that very instant
    (1.0, "kernel.crash", {"mid": 2}),
    (1.0, "kernel.crash_report", {"mid": 3, "peer": 2, "reason": "probe"}),
    (1.0, "recovery.escalated", {"service_mid": 0}),
])


def _built_with_live_services(supervised_mids):
    """What ``self_heal`` reads of a built workload, every supervised
    role alive at the horizon so only the record half can speak."""
    kernel = SimpleNamespace(client=SimpleNamespace(dead=False, program=None))
    names = {f"svc{mid}": mid for mid in sorted(supervised_mids)}
    return SimpleNamespace(
        spec=SimpleNamespace(supervised=tuple(names)),
        mid_of=names.__getitem__,
        net=SimpleNamespace(
            nodes={mid: SimpleNamespace(kernel=kernel) for mid in names.values()}
        ),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(KV_EVENTS, max_size=40).map(_timed))
@example(KV_EVERY_RULE)
@example(KV_HELD_AGAIN_AFTER_REPLAY)
@example(KV_LOST_TO_CLIENT_DEATH)
def test_kv_sink_equals_the_functions_it_replaced(records):
    sink = KvSink()
    SinkTable(sink).replay(records)
    assert sink.finish() == reference_kv_consistency(records)
    assert sink.summary() == reference_kv_summary(records)
    assert sink.finish() is sink.problems  # idempotent, no second replay
    # The public names are the same sink behind a replay.
    assert check_kv_consistency(records) == sink.problems
    assert kv_summary(records) == sink.summary()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(RECOVERY_EVENTS, max_size=40).map(_timed),
    st.sets(MIDS, min_size=1),
    st.sampled_from([0.0, 5.0, 30.0]),
    st.sampled_from([0.0, 2.0, 10.0]),
)
@example(RECOVERY_EVERY_RULE, {0, 1, 2}, 0.0, 5.0)
def test_recovery_sink_equals_the_functions_it_replaced(
    records, supervised_mids, last_fault_us, bound_us
):
    sink = RecoverySink()
    SinkTable(sink, sink.detector).replay(records)
    assert sink.finish() == reference_recovery_summary(records)
    built = _built_with_live_services(supervised_mids)
    assert sink.self_heal(
        built, last_fault_us, bound_us
    ) == reference_self_heal_loop(
        records, supervised_mids, last_fault_us, bound_us
    )


def test_the_forged_streams_trip_every_rule():
    """The properties are only as good as the streams they see: the
    pinned examples between them trip every rule of both verdicts."""
    problems = "\n".join(reference_kv_consistency(KV_EVERY_RULE))
    for needle in (
        "divergent commit", "at-most-once violation",
        "lost acknowledged write", "CAS acked as failed but applied",
        "stale read", "phantom read", "lost to total state loss",
    ):
        assert needle in problems, needle
    assert reference_kv_consistency(KV_HELD_AGAIN_AFTER_REPLAY) == []
    assert "lost to total state loss" in "".join(
        reference_kv_consistency(KV_LOST_TO_CLIENT_DEATH)
    )
    verdict = reference_self_heal_loop(RECOVERY_EVERY_RULE, {0, 1, 2}, 0.0, 5.0)
    assert len(verdict) == 2 and "mid 0 detected crashed" in verdict[0]
    assert "escalated service mid 0" in verdict[1]


def test_check_self_heal_is_the_sink_over_the_retained_trace():
    from repro.workloads import build_workload
    from repro.chaos import ClientDie, Scenario

    built = build_workload("supervised")
    scenario = Scenario("kill", (ClientDie(15_000.0, role="server"),))
    scenario.run(built)
    records = built.net.sim.trace.records
    assert any(r.category == "recovery.crash_detected" for r in records)
    supervised = {built.mid_of(name) for name in built.spec.supervised}
    assert check_self_heal(
        built, scenario.last_action_us
    ) == reference_self_heal_loop(
        records, supervised, scenario.last_action_us, 3_000_000.0
    )
