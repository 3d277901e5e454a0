"""``PYTHONPATH=src python -m benchmarks.suite run|compare ...`` from the repo root."""

import sys

from benchmarks.suite.harness import main

sys.exit(main(sys.argv[1:]))
