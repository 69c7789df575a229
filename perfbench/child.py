"""``python -m repro <args>``, with yardstick samples taken inside it.

``reproduce.run_pass`` starts every command through this file, so that a
command of several seconds is normalised by the host's speed over its whole
length (see ``hostclock.py``).  The samples go, as a JSON list, to the file
named by the ``PERFBENCH_SAMPLES`` environment variable.
"""

import json
import os
import runpy
import sys

import hostclock

# Leave the package to import from PYTHONPATH, as ``python -m repro`` does.
del sys.path[0]

samples: list = []
try:
    with hostclock.sampling(samples):
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
finally:
    with open(os.environ["PERFBENCH_SAMPLES"], "w", encoding="utf-8") as handle:
        json.dump(samples, handle)
