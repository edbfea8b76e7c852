"""SODAL: the programming layer over the raw SODA primitives (§4.1).

SODAL in the paper is a small language; here it is an API object handed
to every client program.  It contributes exactly what the paper's
compiler contributed:

* the PUT/GET/EXCHANGE/SIGNAL spellings of REQUEST and ACCEPT;
* blocking variants (B_PUT, ...) built from the non-blocking REQUEST plus
  a hidden completion handler — including the saved-PC trick that makes
  them legal inside the handler;
* ACCEPT_CURRENT_* and REJECT;
* a blocking DISCOVER wrapper;
* the bounded QUEUE type with the six paper operations.
"""
