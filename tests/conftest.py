"""Test-session setup: write no bytecode caches into the source trees.

A `__pycache__` under `src/` or `perfbench/` makes a later benchmark run of the
same checkout import faster than a fresh one, so a test run must not leave one,
whether or not the caller sets PYTHONDONTWRITEBYTECODE.  Worker processes that
the tests start inherit the setting (multiprocessing passes it on as `-B`).
"""

import sys

sys.dont_write_bytecode = True
