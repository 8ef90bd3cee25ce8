"""``python -m sdelab``: the sdelab command line."""

import sys

from .runner import main

if __name__ == "__main__":
    sys.exit(main())
