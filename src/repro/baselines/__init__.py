"""Baselines the paper compares against.

LeBlanc's \\*MOD message-passing primitives, measured on identical
PDP-11/23 + Megalink hardware (§5.5): a synchronous remote port call
took 20.7 ms and an asynchronous port call 11.1 ms, versus SODA's
8.5/10.0 ms (blocking) and 4.9/5.8 ms (non-blocking) SIGNALs.
"""
