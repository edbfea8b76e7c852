"""The KV store's client program: a paced stream of PUT/GET/CAS.

Retry discipline: every write carries a token minted once per
operation, so re-issuing it — against the same primary or a freshly
promoted one — is always safe; the replica log holds a token at most
once and answers retries from its result table.  A definitive outcome
is an ACCEPT argument (version/value, or the CAS-failed code); REJECT
and transport-level failures mean "not (visibly) applied here" and
drive re-discovery of the current primary.

Every operation leaves a ``kv.invoke`` record and exactly one
``kv.result`` record; the consistency checker
(:mod:`repro.replication.consistency`) replays them against the
replicas' ``kv.apply`` records.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.client import ClientProgram
from repro.core.errors import RequestStatus
from repro.core.signatures import ServerSignature
from repro.replication.wire import (
    KV_PATTERN,
    OP_CAS,
    OP_GET,
    OP_PUT,
    OP_NAMES,
    REPLY_CAS_FAIL,
    make_token,
    pack_op,
    unpack_result,
)

__all__ = ["KvClient"]


class KvClient(ClientProgram):
    """Issues ``total`` operations round-robin over a small key space."""

    def __init__(
        self,
        total: int = 30,
        gap_us: float = 120_000.0,
        keys: int = 4,
        op_deadline_us: float = 8_000_000.0,
        max_attempts: int = 12,
    ) -> None:
        self.total = total
        self.gap_us = gap_us
        self.keys = keys
        self.op_deadline_us = op_deadline_us
        self.max_attempts = max_attempts
        #: op index -> definitive outcome status, for tests.
        self.outcomes: Dict[int, str] = {}
        self._primary: Optional[int] = None

    def task(self, api):
        last_token: Dict[int, int] = {}
        for i in range(self.total):
            key = i % self.keys
            kind = i % 3
            token = make_token(api.my_mid, i)
            if kind == 1:
                op, arg = OP_GET, pack_op(OP_GET, key)
                token = 0
            elif kind == 2:
                expected = last_token.get(key, 0)
                op, arg = OP_CAS, pack_op(OP_CAS, key, token, expected)
            else:
                op, arg = OP_PUT, pack_op(OP_PUT, key, token)
            invoked_at = api.now
            api.sim.trace.record(
                invoked_at, "kv.invoke",
                api.my_mid, i, OP_NAMES[op], key, token,
            )
            status, version, value_token = yield from self._issue(api, arg)
            api.sim.trace.record(
                api.now, "kv.result",
                api.my_mid, i, OP_NAMES[op], key, status, version,
                value_token,  # token: the value read or written
                token,  # wtoken: this write's own token
                invoked_at,
            )
            self.outcomes[i] = status
            if status == "ok":
                if op == OP_GET:
                    last_token[key] = value_token
                else:
                    last_token[key] = token
            yield api.compute(self.gap_us)
        yield from api.serve_forever()

    def _issue(self, api, arg: int):
        """One operation to a definitive outcome (or ``unavail``)."""
        deadline = api.now + self.op_deadline_us
        attempt = 0
        while attempt < self.max_attempts and api.now < deadline:
            attempt += 1
            if self._primary is None:
                mids = yield from api.discover_all(KV_PATTERN, max_replies=4)
                if not mids:
                    yield api.compute(90_000.0)
                    continue
                self._primary = mids[0]
            completion = yield from api.b_signal(
                ServerSignature(self._primary, KV_PATTERN), arg=arg
            )
            if completion.status is RequestStatus.COMPLETED:
                if completion.arg >= 0:
                    version, value_token = unpack_result(completion.arg)
                    return "ok", version, value_token
                if completion.arg == REPLY_CAS_FAIL:
                    return "cas_fail", 0, 0
            # REJECTED: fenced, demoted, or overloaded — provably not
            # applied by that replica.  FAILED/CRASHED/MAYBE: ambiguous,
            # but the token makes a blind retry safe.
            self._primary = None
            yield api.compute(40_000.0 * min(attempt, 5))
        return "unavail", 0, 0
