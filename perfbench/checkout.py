"""Put the checkout's ``src/`` first on ``sys.path``.

The benchmark measures the package in the checkout it sits in, never an
installed copy; ``measure.py`` verifies where ``idbp`` was imported from.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
