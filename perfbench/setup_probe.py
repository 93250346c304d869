"""The set-up a mildlab CLI user pays once per invocation, in a fresh process.

Usage: python3 perfbench/setup_probe.py CONFIG.json

Imports ``mildlab.cli`` from the checkout's ``src`` and runs ``parse_config``
and the builds of the semigroup, the drift graph and the initial datum.
The benchmark times this whole process from the outside.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mildlab.cli import parse_config  # noqa: E402

cfg = parse_config(Path(sys.argv[1]).read_text())
sg = cfg.build_semigroup()
cfg.build_graph()
cfg.build_initial(sg.grid)
