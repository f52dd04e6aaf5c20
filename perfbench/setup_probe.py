"""One set-up sample: a fresh interpreter imports drapebench, then builds and
validates the workload's configs, as `bench run --config` does before its
first cell. Prints "ready" when done; run.py times it from process start.

    python3 perfbench/setup_probe.py CONFIG.json [CONFIG.json ...]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from drapebench.bench import BenchConfig  # noqa: E402
import drapebench.cli  # noqa: E402,F401  (the `bench` entry point imports it)

for path in sys.argv[1:]:
    config = BenchConfig.load(path)
    config.cloth_params()
    config.drape_table()
print("ready", flush=True)
