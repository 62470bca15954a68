#!/usr/bin/env python3
"""Run the reprolint domain rules (see src/repro/lint/).

Usage: python scripts/reprolint.py [paths...] [--baseline FILE] [--select R3,R5]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lint.cli import main

if __name__ == "__main__":
    sys.exit(main())
