"""``python -m hyperzeta``: the same command line as the ``hyperzeta`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
