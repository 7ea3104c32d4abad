"""Set-up probe: import photonperiod, load a config, build its densities.

Usage: python3 perfbench/setup_probe.py <repo root> <config.json>

Prints `ready` once the program could run its first operation.  run.py times
this process from its start to that line; that is the metric setup_s.
"""

import os
import sys

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

import photonperiod.cli  # noqa: E402,F401  (the import is the cost measured)
from photonperiod.config import load_config  # noqa: E402

cfg = load_config(sys.argv[2])
cfg.model()
cfg.template()
cfg.densities()
print("ready", flush=True)
