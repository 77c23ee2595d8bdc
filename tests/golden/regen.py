"""Rewrite the golden files that tests/test_golden.py reads, from the current source.

Run from the repository root: PYTHONPATH=src python tests/golden/regen.py
It prints each file's name and whether its content changed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import COMMANDS, GOLDEN_DIR, SLOW_COMMANDS, render, run, slug  # noqa: E402

for argv in COMMANDS + SLOW_COMMANDS:
    path = GOLDEN_DIR / f"{slug(argv)}.golden"
    text = render(*run(argv)).encode()
    changed = not path.exists() or path.read_bytes() != text
    path.write_bytes(text)
    print(f"{path.name}: {'changed' if changed else 'unchanged'}")
