"""Deterministic discrete-event simulation engine.

This package is the lowest substrate of the reproduction: everything else
(the bus, the transport protocol, the SODA kernel, client programs) runs
inside a :class:`~repro.sim.engine.Simulator`.  Time is virtual and
expressed in microseconds; all randomness flows through named, seeded
streams so a run is reproducible from ``(seed,)`` alone.
"""
