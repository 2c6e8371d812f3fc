"""Set-up time of one fresh interpreter: import triplaq, then parse and
validate a command line the way ``triplaq.cli_io.main`` does before any
compute.  Prints the seconds taken.

    python3 bench/setup_probe.py SRC_DIR CLI_ARG...
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from triplaq import cli_io  # noqa: E402

args = cli_io.build_parser().parse_args(sys.argv[2:])
cli_io._config_from_args(args)
print(time.perf_counter() - start)
