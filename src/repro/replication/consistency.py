"""The KV consistency verdict: replay acknowledged operations.

The KV analogue of the at-most-once ledger: replicas record every
committed application (``kv.apply``) and clients record every
operation and its definitive outcome (``kv.invoke`` / ``kv.result``).
This checker replays the merged trace — it works identically on a sim
trace and on the netreal runner's epoch-merged multi-process trace —
and fails the run on:

* **divergent commit** — two replicas applied different entries at the
  same log index (the replication safety property itself);
* **lost acknowledged write** — a client was told ``ok`` for a write
  whose token no replica ever committed, or committed under a
  different version than acknowledged;
* **double-applied write** — one token applied at two log indexes
  (an at-most-once violation: some retry path re-executed);
* **CAS liveness lies** — a CAS acknowledged as failed that actually
  mutated state;
* **stale read** — a GET invoked after a write's acknowledgement that
  returned an older version of the key, or a value token that never
  was the committed value at the returned version;
* **acked write lost to total state loss** — every replica that ever
  applied an acknowledged write lost its state afterwards
  (``kernel.crash`` / ``kernel.die``) and the write was never applied
  again, while the cluster demonstrably kept running.  This is the
  silent-empty-store-after-full-cluster-crash case: before durable
  storage (repro.durability) a simultaneous power loss of all replicas
  erased acknowledged history with nobody left to contradict, and every
  other rule here passed vacuously.  Recovery replay re-emits
  ``kv.apply`` for everything it restores, so a durably rebooted node
  counts as holding its writes again.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Set, Tuple

from repro.sim.tracing import SinkTable

__all__ = ["KvSink", "check_kv_consistency", "kv_summary"]


class KvSink:
    """The KV judge as a record sink: its ``HANDLERS`` collect (one
    tuple per ``kv.apply`` / ``kv.result`` — state grows with the run's
    KV operations, not with its packets), :meth:`finish` replays."""

    def __init__(self) -> None:
        #: Divergent commits as they happen; :meth:`finish` adds the rest.
        self.problems: List[str] = []
        self._apply_by_index: Dict[int, Tuple] = {}
        self._applied_sites: Dict[int, Set[int]] = {}
        #: token -> {mid: latest kv.apply time} — who holds each write.
        self._apply_holders: Dict[int, Dict[int, float]] = {}
        #: mid -> times its state was erased (power loss or client death).
        self._state_loss: Dict[int, List[float]] = {}
        self._last_apply = float("-inf")
        self._write_results: List[Tuple] = []
        self._read_results: List[Tuple] = []
        #: Records seen per ``kv.*`` category, and ``kv.result`` statuses.
        self._seen: Counter = Counter()
        self._outcomes: Counter = Counter()
        self._finished = False

    def _count(self, rec) -> None:
        self._seen[rec.category] += 1

    def _on_apply(self, rec) -> None:
        self._seen["kv.apply"] += 1
        index = rec["index"]
        info = (
            rec["epoch"], rec["op"], rec["key"], rec["token"],
            rec["version"], rec["applied"],
        )
        previous = self._apply_by_index.setdefault(index, info)
        if previous != info:
            self.problems.append(
                f"divergent commit at log index {index}: "
                f"{previous} vs {info}"
            )
        self._last_apply = max(self._last_apply, rec.time)
        if rec["applied"] and rec["op"] in ("put", "cas"):
            self._applied_sites.setdefault(rec["token"], set()).add(index)
            holders = self._apply_holders.setdefault(rec["token"], {})
            holders[rec["mid"]] = rec.time

    def _on_state_loss(self, rec) -> None:
        self._state_loss.setdefault(rec["mid"], []).append(rec.time)

    def _on_result(self, rec) -> None:
        self._outcomes[rec["status"]] += 1
        entry = (
            rec.time, rec.get("invoked_at", rec.time), rec["mid"],
            rec["seq"], rec["op"], rec["key"], rec["status"],
            rec["version"], rec["token"], rec.get("wtoken", 0),
        )
        if rec["op"] == "get":
            self._read_results.append(entry)
        else:
            self._write_results.append(entry)

    #: The rows this sink adds to a ``{category: handlers}`` dispatch table.
    HANDLERS = {
        "kv.apply": _on_apply,
        "kv.result": _on_result,
        "kv.invoke": _count,
        "kv.promote": _count,
        "kernel.crash": _on_state_loss,
        "kernel.die": _on_state_loss,
    }

    def summary(self) -> Dict[str, object]:
        """Operation accounting for reports and the kv bench."""
        outcomes, invoked = self._outcomes, self._seen["kv.invoke"]
        definitive = outcomes["ok"] + outcomes["cas_fail"]
        return {
            "ops_invoked": invoked,
            "outcomes": dict(sorted(outcomes.items())),
            "ops_definitive": definitive,
            "availability": (definitive / invoked) if invoked else 1.0,
            "entries_applied": self._seen["kv.apply"],
            "promotions": self._seen["kv.promote"],
        }

    def finish(self) -> List[str]:
        """Close the stream; returns the violation strings."""
        if self._finished:
            return self.problems
        self._finished = True
        problems = self.problems
        applied_sites = self._applied_sites
        write_results = self._write_results
        read_results = self._read_results

        for token, sites in applied_sites.items():
            if len(sites) > 1:
                problems.append(
                    f"write token {token} applied at log indexes "
                    f"{sorted(sites)} (at-most-once violation)"
                )

        #: version -> (key, token) over applied writes; versions are log
        #: positions, so each maps to exactly one committed value.
        value_at_version: Dict[int, Tuple[int, int]] = {}
        for index, info in sorted(self._apply_by_index.items()):
            _epoch, op, key, token, version, applied = info
            if applied and op in ("put", "cas"):
                value_at_version[version] = (key, token)

        #: per key: (ack time, version) of definitively acknowledged writes.
        acked_versions: Dict[int, List[Tuple[float, int]]] = {}
        for (
            t_ack, _t0, mid, seq, op, key, status, version, _vtok, wtoken
        ) in write_results:
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

        # Post-total-crash durability: every acked write must still have a
        # *holder* — a replica whose latest application of it was not
        # followed by a state-loss event.  If all holders died and any
        # replica applied anything afterwards (the cluster came back and
        # ran on without the write), the write was silently lost.  A dark
        # cluster (no applies after the loss) is unavailability, not loss,
        # and is judged by the liveness/availability checks instead.
        reported_lost: Set[int] = set()
        for (_t_ack, _t0, mid, seq, op, key, status, _v, _vtok, wtoken) in (
            write_results
        ):
            if status != "ok" or wtoken in reported_lost:
                continue
            holders = self._apply_holders.get(wtoken)
            if not holders:
                continue  # already reported as lost-acknowledged-write
            loss_time = float("-inf")
            held = False
            for site, applied_at in holders.items():
                losses = self._state_loss.get(site, ())
                erased_at = next((t for t in losses if t > applied_at), None)
                if erased_at is None:
                    held = True
                    break
                loss_time = max(loss_time, erased_at)
            if held or self._last_apply <= loss_time:
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


def check_kv_consistency(records) -> List[str]:
    """Replay ``kv.*`` trace records; returns violation strings."""
    sink = KvSink()
    SinkTable(sink).replay(records)
    return sink.finish()


def kv_summary(records) -> Dict[str, object]:
    """Operation accounting for reports and the kv bench."""
    sink = KvSink()
    SinkTable(sink).replay(records)
    return sink.summary()
