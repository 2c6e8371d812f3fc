"""``python -m triplaq``: the command-line program of :mod:`triplaq.cli_io`."""

import sys

from .cli_io import main

if __name__ == "__main__":
    sys.exit(main())
