"""`python -m progress_lab`: the `progress-lab` command without its entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
