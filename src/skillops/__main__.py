"""`python -m skillops ...` runs the command line interface."""

import sys

from skillops.harness import main

if __name__ == "__main__":
    sys.exit(main())
