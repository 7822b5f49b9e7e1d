#!/usr/bin/env python3
"""Run the full identity suite at the default desk-scale grid.

Equivalent to `onsager verify` with any extra arguments forwarded, e.g.

    python scripts/run_verify.py --suite I5,I6,I7 --format json
"""

import sys

from onsager.cli import main

if __name__ == "__main__":
    sys.exit(main(["verify", *sys.argv[1:]]))
