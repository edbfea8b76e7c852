"""Arg-packed wire encodings for the replicated KV store.

SODA's ACCEPT moves data *and* completes the request in one atomic
step (§4.1.2): a server cannot read a request's payload before fixing
its reply.  Every decision a replica makes at arrival time must
therefore be computable from the 64-bit REQUEST argument plus local
state alone.  This module packs the whole client operation — opcode,
key, token, CAS expectation — and the whole replication protocol
header — message type, epochs, log offsets — into that argument
(the wire codec carries ``arg`` as a signed 64-bit ``!q``, leaving 63
usable bits for non-negative values).

Log *entries* do travel as payload (APPEND put-data, FETCH get-data),
but only on paths where the receiver can fix its reply argument from
the header first and parse the bytes after the transfer completes.

Tokens are the at-most-once identity of a write: ``(client MID,
client sequence number)`` packed into 28 bits.  A token doubles as the
stored *value*, so GET replies also fit in the argument — the KV
analogue of the §3.6.1 tid-watermark discipline, where identity, not
payload, is what retry safety hangs on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.patterns import Pattern, make_well_known_pattern

#: Clients find the current primary here; only the primary advertises it.
KV_PATTERN: Pattern = make_well_known_pattern(0o353)
#: Every live replica advertises this: replication, votes, supervision.
REPL_PATTERN: Pattern = make_well_known_pattern(0o354)

# -- client operations --------------------------------------------------

OP_NOOP = 0  # epoch barrier entries only; never issued by clients
OP_GET = 1
OP_PUT = 2
OP_CAS = 3

OP_NAMES = {OP_NOOP: "noop", OP_GET: "get", OP_PUT: "put", OP_CAS: "cas"}

#: ACCEPT argument for "CAS expectation did not match" (distinct from
#: the SODAL REJECT of -1, which means "not applied, retry elsewhere").
REPLY_CAS_FAIL = -2

_TOKEN_BITS = 28
_TOKEN_MASK = (1 << _TOKEN_BITS) - 1
_SEQ_BITS = 20
_SEQ_MASK = (1 << _SEQ_BITS) - 1


def make_token(mid: int, seq: int) -> int:
    """The write's at-most-once identity: 8-bit MID | 20-bit sequence."""
    return ((mid & 0xFF) << _SEQ_BITS) | (seq & _SEQ_MASK)


def token_mid(token: int) -> int:
    return (token >> _SEQ_BITS) & 0xFF


def token_seq(token: int) -> int:
    return token & _SEQ_MASK


def pack_op(op: int, key: int, token: int = 0, expected: int = 0) -> int:
    """Client request argument: op(3) | key(4) | token(28) | expected(28)."""
    return (
        (op & 0x7) << 60
        | (key & 0xF) << 56
        | (token & _TOKEN_MASK) << _TOKEN_BITS
        | (expected & _TOKEN_MASK)
    )


def unpack_op(arg: int) -> Tuple[int, int, int, int]:
    """Returns ``(op, key, token, expected)``."""
    return (
        (arg >> 60) & 0x7,
        (arg >> 56) & 0xF,
        (arg >> _TOKEN_BITS) & _TOKEN_MASK,
        arg & _TOKEN_MASK,
    )


def pack_result(version: int, token: int) -> int:
    """Reply argument for a served op: version(≥0) | value token(28)."""
    return (version << _TOKEN_BITS) | (token & _TOKEN_MASK)


def unpack_result(arg: int) -> Tuple[int, int]:
    """Returns ``(version, token)``."""
    return arg >> _TOKEN_BITS, arg & _TOKEN_MASK


# -- replication messages (REPL_PATTERN) --------------------------------

MSG_APPEND = 1
MSG_CONFIRM = 2
MSG_VOTE = 3
MSG_FETCH = 4
MSG_TAKEOVER = 5
#: A rebooted replica to the primary: "I am back, maybe behind".
MSG_HELLO = 6

_EPOCH_MASK = (1 << 14) - 1
_INDEX_MASK = (1 << 24) - 1


@dataclass(frozen=True)
class ReplHeader:
    """Decoded replication-message argument."""

    msg: int
    epoch: int = 0
    prev_epoch: int = 0
    from_index: int = 0
    count: int = 0


def pack_repl(
    msg: int,
    epoch: int = 0,
    prev_epoch: int = 0,
    from_index: int = 0,
    count: int = 0,
) -> int:
    """msg(3) | epoch(14) | prev_epoch(14) | from_index(24) | count(8)."""
    return (
        (msg & 0x7) << 60
        | (epoch & _EPOCH_MASK) << 46
        | (prev_epoch & _EPOCH_MASK) << 32
        | (from_index & _INDEX_MASK) << 8
        | (count & 0xFF)
    )


def unpack_repl(arg: int) -> ReplHeader:
    return ReplHeader(
        msg=(arg >> 60) & 0x7,
        epoch=(arg >> 46) & _EPOCH_MASK,
        prev_epoch=(arg >> 32) & _EPOCH_MASK,
        from_index=(arg >> 8) & _INDEX_MASK,
        count=arg & 0xFF,
    )


# APPEND acknowledgements (the ACCEPT argument, fixed at arrival):
ACK_OK = 0  # header consistent; payload taken (applied post-transfer)
ACK_GAP = 1  # from_index beyond my log; value = my log length
ACK_FENCED = 2  # your epoch is stale; value = my epoch
ACK_MISMATCH = 3  # prev_epoch conflicts; value = my commit (safe restart)


def pack_ack(code: int, value: int = 0) -> int:
    return (code & 0x3) << 32 | (value & 0xFFFFFFFF)


def unpack_ack(arg: int) -> Tuple[int, int]:
    return (arg >> 32) & 0x3, arg & 0xFFFFFFFF


@dataclass(frozen=True)
class Status:
    """Decoded CONFIRM/VOTE reply: a replica's log fingerprint.

    ``granted`` means the replica adopted the message's epoch (a vote
    grant, or a confirm under a current primary).  ``last_epoch`` +
    ``length`` are the Raft-style up-to-date comparison and — because
    same-(index, epoch) entries are unique — a *fingerprint*: a primary
    counts ``length`` as replicated only if its own entry at
    ``length - 1`` carries ``last_epoch``.
    """

    granted: bool
    epoch: int
    last_epoch: int
    length: int


def pack_status(granted: bool, epoch: int, last_epoch: int, length: int) -> int:
    return (
        (1 if granted else 0) << 52
        | (epoch & _EPOCH_MASK) << 38
        | (last_epoch & _EPOCH_MASK) << 24
        | (length & _INDEX_MASK)
    )


def unpack_status(arg: int) -> Status:
    return Status(
        granted=bool((arg >> 52) & 0x1),
        epoch=(arg >> 38) & _EPOCH_MASK,
        last_epoch=(arg >> 24) & _EPOCH_MASK,
        length=arg & _INDEX_MASK,
    )


# -- log entries (payload codec) ----------------------------------------


@dataclass(frozen=True)
class Entry:
    """One replicated log entry.  ``token`` identifies the write."""

    epoch: int
    op: int
    key: int
    token: int
    expected: int = 0


_ENTRY = struct.Struct("!HBBII")  # epoch, op, key, token, expected
_HEADER = struct.Struct("!I")  # sender's commit index

ENTRY_BYTES = _ENTRY.size
#: Entries per APPEND/FETCH batch; bounds the payload at ~0.5 KiB.
BATCH_ENTRIES = 40


def encode_entries(commit: int, entries: List[Entry]) -> bytes:
    out = [_HEADER.pack(commit)]
    for e in entries:
        out.append(_ENTRY.pack(e.epoch, e.op, e.key, e.token, e.expected))
    return b"".join(out)


def decode_entries(data: bytes) -> Tuple[int, List[Entry]]:
    """Returns ``(sender_commit, entries)``; tolerant of a short tail
    (a truncated transfer yields the entries that fully arrived)."""
    if len(data) < _HEADER.size:
        return 0, []
    (commit,) = _HEADER.unpack_from(data, 0)
    entries = []
    offset = _HEADER.size
    while offset + ENTRY_BYTES <= len(data):
        epoch, op, key, token, expected = _ENTRY.unpack_from(data, offset)
        entries.append(Entry(epoch, op, key, token, expected))
        offset += ENTRY_BYTES
    return commit, entries
