"""Script entry point: ``python3 benchmarks/suite/run.py --workload NAME
--seed N --seconds S --trace 0|1`` (or ``run``/``compare``, as with
``python -m benchmarks.suite``), from the repository root."""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Import the suite as a package from the checkout root, not this
    # directory, so its modules cannot shadow standard-library names.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.suite.harness import main

    sys.exit(main(sys.argv[1:]))
