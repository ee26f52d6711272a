"""Entry point for `python -m lamtrans`; the same CLI as `lamtrans`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
