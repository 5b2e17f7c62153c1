"""``python -m arctext``: the same entry point as the ``arctext`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
