"""Make the benchmark's modules importable: ``python -m pytest perfbench/tests``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
