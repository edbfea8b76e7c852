"""Higher-level communications facilities built on SODA (§4.2).

Everything here is *client code*: the kernel knows nothing about ports,
RPC, links, or rendezvous.  That is the paper's point — a bufferless,
two-phase REQUEST/ACCEPT kernel is enough to express all of these as
libraries.
"""
