"""Virtual circuits ("links") with transparent moving (§4.2.4).

A link is a logical duplex channel between two processes whose ends can
be rebound at run time.  Each end is represented locally by a table
entry holding the peer's ``<machine, pattern>`` plus a MASTER/SLAVE role
bit; the local end is itself addressable by a pattern advertised here.

The paper's protocol, reproduced here:

* one end holds MASTER, the other SLAVE; only a MASTER may move its end,
  so a SLAVE first asks to become master (a GET with argument ``-1``);
* a moving end installs a new end at the destination via an EXCHANGE on
  the destination's LINK_SERVICE pattern, tells the stationary partner
  the new address (a PUT with argument ``-2``), and finally tells the
  new end that installation is complete (a SIGNAL with argument ``-3``);
* REQUESTs issued over a link in transit are REJECTed and retried once
  the ``-2`` update has landed;
* a destroyed end notifies its partner (SIGNAL ``-4``); subsequent sends
  fail.

Argument values ``>= 0`` are user data tags.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Generator, Optional, Tuple

from repro.core.buffers import Buffer
from repro.core.errors import AcceptStatus, RequestStatus, SodaError
from repro.core.patterns import Pattern, make_well_known_pattern
from repro.core.signatures import RequesterSignature, ServerSignature
from repro.sodal.queueing import Queue

#: The well-known entry point every link-speaking client advertises.
LINK_SERVICE: Pattern = make_well_known_pattern(0o510)

ARG_BECOME_MASTER = -1
ARG_MOVED = -2
ARG_INSTALLED = -3
ARG_DESTROYED = -4


class LinkRole(enum.Enum):
    MASTER = 1
    SLAVE = 0


class LinkState(enum.Enum):
    INSTALLED = "installed"
    BEING_INSTALLED = "being_installed"
    DESTROYED = "destroyed"


@dataclass
class LinkEnd:
    """One end of a link, as stored in the local link table."""

    link_id: int
    local_pattern: Pattern
    peer_mid: int
    peer_pattern: Pattern
    role: LinkRole
    state: LinkState = LinkState.INSTALLED
    moving: bool = False
    #: Incremented whenever the peer address changes (-2 update); send
    #: retries watch this to know when to re-attempt.
    version: int = 0
    inbox: Queue = field(default_factory=lambda: Queue(16))
    want_to_move: Optional[RequesterSignature] = None

    @property
    def peer_sig(self) -> ServerSignature:
        return ServerSignature(self.peer_mid, self.peer_pattern)


def _encode_end(role: LinkRole, mid: int, pattern: Pattern) -> bytes:
    return bytes([role.value]) + mid.to_bytes(2, "big") + int(pattern).to_bytes(6, "big")


def _decode_end(data: bytes) -> Tuple[LinkRole, int, Pattern]:
    role = LinkRole(data[0])
    mid = int.from_bytes(data[1:3], "big")
    pattern = int.from_bytes(data[3:9], "big")
    return role, mid, pattern


class LinkService:
    """Per-client link machinery; embed one in a ClientProgram.

    Handler integration::

        def handler(self, api, event):
            if (yield from self.links.handle_arrival(api, event)):
                return
            ...  # other patterns

    Task-side operations: connect, send, recv, move, destroy, introduce.
    """

    def __init__(self) -> None:
        self.ends: Dict[int, LinkEnd] = {}
        self._by_pattern: Dict[Pattern, LinkEnd] = {}
        self._next_id = 1
        self._installed = False

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def install(self, api) -> Generator:
        yield from api.advertise(LINK_SERVICE)
        self._installed = True

    def _new_end(
        self, api, peer_mid: int, peer_pattern: Pattern, role: LinkRole,
        state: LinkState,
    ) -> Generator:
        pattern = yield from api.getuniqueid()
        yield from api.advertise(pattern)
        end = LinkEnd(
            link_id=self._next_id,
            local_pattern=pattern,
            peer_mid=peer_mid,
            peer_pattern=peer_pattern,
            role=role,
            state=state,
        )
        self._next_id += 1
        self.ends[end.link_id] = end
        self._by_pattern[pattern] = end
        return end

    def _drop_end(self, api, end: LinkEnd) -> Generator:
        yield from api.unadvertise(end.local_pattern)
        self.ends.pop(end.link_id, None)
        self._by_pattern.pop(end.local_pattern, None)

    # ------------------------------------------------------------------
    # handler side
    # ------------------------------------------------------------------

    def handle_arrival(self, api, event) -> Generator:
        """Process a link-related arrival; returns True if consumed."""
        if not event.is_arrival:
            return False
        if event.pattern == LINK_SERVICE:
            yield from self._install_end_request(api, event)
            return True
        end = self._by_pattern.get(event.pattern)
        if end is None:
            return False
        if event.arg >= 0:
            yield from self._data_arrival(api, end, event)
        elif event.arg == ARG_BECOME_MASTER:
            yield from self._become_master_request(api, end, event)
        elif event.arg == ARG_MOVED:
            yield from self._moved_notice(api, end, event)
        elif event.arg == ARG_INSTALLED:
            yield from api.accept_current_signal()
            end.state = LinkState.INSTALLED
        elif event.arg == ARG_DESTROYED:
            yield from api.accept_current_signal()
            end.state = LinkState.DESTROYED
        else:
            yield from api.reject()
        return True

    def _install_end_request(self, api, event) -> Generator:
        # A mover (or introducer/connector) asks us to host a link end.
        buf = Buffer(9)
        end = yield from self._new_end(
            api, peer_mid=0, peer_pattern=0,
            role=LinkRole.SLAVE, state=LinkState.BEING_INSTALLED,
        )
        status = yield from api.accept_current_exchange(
            get=buf, put=_encode_end(LinkRole.SLAVE, api.my_mid, end.local_pattern)
        )
        if status is not AcceptStatus.SUCCESS or len(buf.data) < 9:
            yield from self._drop_end(api, end)
            return
        role, mid, pattern = _decode_end(buf.data)
        end.role = role
        end.peer_mid = mid
        end.peer_pattern = pattern
        if pattern == 0:
            # Partner address follows later (introduction step 3).
            end.state = LinkState.BEING_INSTALLED
        # Receiving is legal immediately; sending waits for ARG_INSTALLED.

    def _data_arrival(self, api, end: LinkEnd, event) -> Generator:
        if end.moving or end.state is LinkState.DESTROYED:
            # "REQUESTS issued over it are REJECTED and must be reissued
            # when the link has completed its move."
            yield from api.reject()
            return
        if end.inbox.is_full():
            yield from api.reject()
            return
        yield from api.enqueue(end.inbox, (event.asker, event.arg, event.put_size))

    def _become_master_request(self, api, end: LinkEnd, event) -> Generator:
        if end.role is not LinkRole.MASTER:
            # We are not master (race with a concurrent move); reject so
            # the asker retries against the real master.
            yield from api.reject()
            return
        if not end.moving:
            yield from api.accept_current_get(put=b"\x01")
            end.role = LinkRole.SLAVE
        else:
            # We are mid-move: delay the asker until the move completes.
            end.want_to_move = event.asker

    def _moved_notice(self, api, end: LinkEnd, event) -> Generator:
        buf = Buffer(9)
        status = yield from api.accept_current_put(get=buf)
        if status is AcceptStatus.SUCCESS and len(buf.data) >= 9:
            _role, mid, pattern = _decode_end(buf.data)
            end.peer_mid = mid
            end.peer_pattern = pattern
            end.version += 1
            if end.state is LinkState.BEING_INSTALLED:
                end.state = LinkState.INSTALLED

    # ------------------------------------------------------------------
    # task side
    # ------------------------------------------------------------------

    def connect(self, api, peer_mid: int) -> Generator:
        """Create a fresh link to ``peer_mid``; we hold the MASTER end."""
        end = yield from self._new_end(
            api, peer_mid=peer_mid, peer_pattern=0,
            role=LinkRole.MASTER, state=LinkState.BEING_INSTALLED,
        )
        buf = Buffer(9)
        completion = yield from api.b_exchange(
            ServerSignature(peer_mid, LINK_SERVICE),
            put=_encode_end(LinkRole.SLAVE, api.my_mid, end.local_pattern),
            get=buf,
        )
        if completion.status is not RequestStatus.COMPLETED or len(buf.data) < 9:
            yield from self._drop_end(api, end)
            raise SodaError(f"link connect to {peer_mid} failed")
        _role, mid, pattern = _decode_end(buf.data)
        end.peer_mid = mid
        end.peer_pattern = pattern
        end.state = LinkState.INSTALLED
        yield from api.b_signal(end.peer_sig, arg=ARG_INSTALLED)
        return end.link_id

    def send(
        self, api, link_id: int, data, tag: int = 0, max_retries: int = 60
    ) -> Generator:
        """Blocking send over a link; retries across moves."""
        if tag < 0:
            raise ValueError("negative tags are reserved for link control")
        end = self._require(link_id)
        for _attempt in range(max_retries):
            if end.state is LinkState.DESTROYED:
                raise SodaError("link destroyed")
            yield from api.poll(lambda: end.state is LinkState.INSTALLED or
                                end.state is LinkState.DESTROYED)
            if end.state is LinkState.DESTROYED:
                raise SodaError("link destroyed")
            completion = yield from api.b_put(end.peer_sig, arg=tag, put=data)
            if completion.status is RequestStatus.COMPLETED:
                return completion
            if completion.status is RequestStatus.REJECTED:
                # Link in transit: wait for the -2 update (or just retry).
                version = end.version
                for _ in range(200):
                    if end.version != version:
                        break
                    yield api.compute(2_000)
                continue
            if completion.status in (
                RequestStatus.UNADVERTISED,
                RequestStatus.CRASHED,
            ):
                # The end moved away before we heard about it; wait for
                # the update then retry.
                version = end.version
                for _ in range(200):
                    if end.version != version:
                        break
                    yield api.compute(2_000)
                continue
        raise SodaError("link send retries exhausted")

    def recv(self, api, link_id: int, max_bytes: int = 1024) -> Generator:
        """Blocking receive: accept the next data request on the link."""
        end = self._require(link_id)
        yield from api.poll(lambda: not end.inbox.is_empty())
        asker, tag, put_size = yield from api.dequeue(end.inbox)
        buf = Buffer(min(put_size, max_bytes))
        status = yield from api.accept_put(asker, get=buf)
        if status is not AcceptStatus.SUCCESS:
            return (yield from self.recv(api, link_id, max_bytes))
        return buf.data, tag

    def become_master(self, api, link_id: int) -> Generator:
        end = self._require(link_id)
        while end.role is LinkRole.SLAVE:
            buf = Buffer(1)
            completion = yield from api.b_get(
                end.peer_sig, arg=ARG_BECOME_MASTER, get=buf
            )
            if (
                completion.status is RequestStatus.COMPLETED
                and buf.data == b"\x01"
            ):
                end.role = LinkRole.MASTER
                return
            # REJECTED or FAILED: master moved or is moving; retry.
            yield api.compute(2_000)

    def move(self, api, link_id: int, via_link_id: int) -> Generator:
        """Move our end of ``link_id`` to the partner of ``via_link_id``.

        Transparent to the stationary partner of ``link_id`` (§4.2.4).
        After the move our local end is gone.
        """
        end = self._require(link_id)
        new_home = self._require(via_link_id).peer_mid
        end.moving = True
        yield from self.become_master(api, link_id)
        # Install the new MASTER end at its new home.
        buf = Buffer(9)
        completion = yield from api.b_exchange(
            ServerSignature(new_home, LINK_SERVICE),
            put=_encode_end(LinkRole.MASTER, end.peer_mid, end.peer_pattern),
            get=buf,
        )
        if completion.status is not RequestStatus.COMPLETED or len(buf.data) < 9:
            end.moving = False
            raise SodaError("link move: destination refused")
        _role, new_mid, new_pattern = _decode_end(buf.data)
        # Tell the stationary partner where its peer went.
        yield from self.send_control(
            api, end.peer_sig, ARG_MOVED,
            _encode_end(LinkRole.MASTER, new_mid, new_pattern),
        )
        # Tell the new end the move is complete.
        yield from api.b_signal(
            ServerSignature(new_mid, new_pattern), arg=ARG_INSTALLED
        )
        # Release a delayed become-master request, telling it to retry.
        if end.want_to_move is not None:
            yield from api.accept_get(end.want_to_move, put=b"\x00")
            end.want_to_move = None
        yield from self._drop_end(api, end)

    def send_control(self, api, sig: ServerSignature, arg: int, data) -> Generator:
        completion = yield from api.b_put(sig, arg=arg, put=data)
        if completion.status is not RequestStatus.COMPLETED:
            raise SodaError(
                f"link control message {arg} failed: {completion.status.value}"
            )

    def destroy(self, api, link_id: int) -> Generator:
        """Destroy our end; the partner is notified (§2.1 LINKS)."""
        end = self._require(link_id)
        end.state = LinkState.DESTROYED
        yield from api.b_signal(end.peer_sig, arg=ARG_DESTROYED)
        yield from self._drop_end(api, end)

    def introduce(self, api, link_a: int, link_b: int) -> Generator:
        """Give the partners of two of our links a link of their own."""
        mid_a = self._require(link_a).peer_mid
        mid_b = self._require(link_b).peer_mid
        # Host an end at A (MASTER), peer address to follow.
        buf_a = Buffer(9)
        completion = yield from api.b_exchange(
            ServerSignature(mid_a, LINK_SERVICE),
            put=_encode_end(LinkRole.MASTER, mid_b, 0),
            get=buf_a,
        )
        if completion.status is not RequestStatus.COMPLETED:
            raise SodaError("introduce: first partner refused")
        _r, _m, pattern_a = _decode_end(buf_a.data)
        # Host an end at B (SLAVE) pointing at A's new end.
        buf_b = Buffer(9)
        completion = yield from api.b_exchange(
            ServerSignature(mid_b, LINK_SERVICE),
            put=_encode_end(LinkRole.SLAVE, mid_a, pattern_a),
            get=buf_b,
        )
        if completion.status is not RequestStatus.COMPLETED:
            raise SodaError("introduce: second partner refused")
        _r, _m, pattern_b = _decode_end(buf_b.data)
        # Complete A's end with B's address (the -2 update), then mark
        # both installed.
        yield from self.send_control(
            api,
            ServerSignature(mid_a, pattern_a),
            ARG_MOVED,
            _encode_end(LinkRole.SLAVE, mid_b, pattern_b),
        )
        yield from api.b_signal(ServerSignature(mid_a, pattern_a), arg=ARG_INSTALLED)
        yield from api.b_signal(ServerSignature(mid_b, pattern_b), arg=ARG_INSTALLED)

    def _require(self, link_id: int) -> LinkEnd:
        end = self.ends.get(link_id)
        if end is None:
            raise SodaError(f"no such link: {link_id}")
        return end
