"""repro.recovery — crash detection that acts (docs/RECOVERY.md).

Four layers close the loop the paper opens in §3.6 (crash semantics) and
§4 (BOOT/LOAD reserved patterns):

* :mod:`repro.recovery.detector` — a per-node liveness view with
  boot-counter epochs, fed by §3.6 probe outcomes, retransmit
  exhaustion, and boot/DIE/crash trace records;
* :mod:`repro.recovery.supervisor` — an Erlang-style supervisor client
  that watches advertised services and reboots crashed nodes through
  the BOOT/LOAD protocol under a restart policy;
* :mod:`repro.recovery.retry` — a client-side retry shim that re-issues
  failed REQUESTs only when the failure provably never executed,
  surfacing ambiguous failures as MAYBE instead of risking double
  execution;
* :mod:`repro.recovery.convergence` — the chaos self-heal judgment:
  after the last fault clears, supervised services must return to
  advertised-and-answering within a bounded horizon.
"""
