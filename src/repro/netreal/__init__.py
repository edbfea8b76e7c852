"""repro.netreal — the SODA stack over real sockets and wall-clock time.

The simulator's :class:`~repro.sim.interface.SchedulerBackend` duck
type is the seam: :class:`~repro.netreal.scheduler.WallClockScheduler`
implements it over an asyncio event loop, and :class:`~repro.netreal.
udp.UdpMedium` replaces the broadcast bus with localhost UDP datagrams
carrying the :mod:`repro.netreal.wire` binary frame codec.  The kernel,
connections, transport policies, and client programs are untouched.

Entry points: ``python -m repro real <workload>`` (multi-process: the
parent is :mod:`repro.netreal.runner`, each node process
:mod:`repro.netreal.child`), ``python -m repro bench real``
(:mod:`repro.bench.real`), or in-process via :class:`~repro.netreal.
node.RealNetwork`.  See docs/NET.md.
"""
