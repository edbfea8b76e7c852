"""Status codes and exceptions of the SODA kernel interface (§3.7)."""

from __future__ import annotations

import enum


class RequestStatus(enum.Enum):
    """Completion status delivered to the requester's handler."""

    COMPLETED = "completed"        # the server ACCEPTed
    CRASHED = "crashed"            # server crashed / died before ACCEPT
    UNADVERTISED = "unadvertised"  # pattern not advertised (or no such node)
    OVERLOADED = "overloaded"      # server kernel shed the REQUEST before
                                   # delivery (proof of non-execution)
    REJECTED = "rejected"          # SODAL-level: ACCEPT with arg = -1, no data


class AcceptStatus(enum.Enum):
    """Return value of ACCEPT (§3.7.4)."""

    SUCCESS = "success"
    CANCELLED = "cancelled"   # request cancelled, already completed, or forged
    CRASHED = "crashed"       # requester crashed (stale TID) before ACCEPT


class CancelStatus(enum.Enum):
    """Return value of CANCEL."""

    SUCCESS = "success"
    FAIL = "fail"             # the request had already completed (any way)


class HandlerReason(enum.Enum):
    """Why the client handler was invoked (§3.7.6)."""

    REQUEST_ARRIVAL = "request_arrival"
    REQUEST_COMPLETE = "request_complete"
    BOOTING = "booting"


class SodaError(Exception):
    """Base class for kernel-interface misuse."""


class TooManyRequestsError(SodaError):
    """More than MAXREQUESTS uncompleted REQUESTs (§3.3.2 rule 5).

    The paper's kernel silently ignores the excess REQUEST and makes
    counting the client's responsibility; our kernel surfaces the
    condition as an exception so buggy clients fail loudly.  The SODAL
    layer offers a paper-faithful ``ignore`` mode as well.
    """


class NotInHandlerError(SodaError):
    """ACCEPT_CURRENT used outside the handler (§4.1.2)."""
