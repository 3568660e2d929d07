"""``python -m treebo``: the command-line front end of :mod:`treebo.cli`."""

import sys

from .cli import main

__all__: list[str] = []

if __name__ == "__main__":  # not when a spawned worker or a test imports it
    sys.exit(main())
