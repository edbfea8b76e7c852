"""``python -m repro``: see :mod:`repro.cli` (``--help`` lists every
command; the listing is generated from its ``COMMANDS`` table)."""

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
