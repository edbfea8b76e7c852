"""Extends the call census (``census.py`` beside this file) to Python
children: with ``tests/tools`` on ``PYTHONPATH`` and ``CENSUS_DIR`` set
by the census plugin, every interpreter the session starts counts its
calls until it exits.  Anywhere else it does nothing."""

import os

if os.environ.get("CENSUS_DIR"):
    import census

    census.start()
