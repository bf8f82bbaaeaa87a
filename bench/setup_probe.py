"""One set-up in a fresh interpreter: import ``mns`` (and with it NumPy and
SciPy), parse each config given on the command line and build its model and
Kraus channel.  ``run.py`` times this script from spawn to exit.

    python3 bench/setup_probe.py CONFIG.json [CONFIG.json ...]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mns.experiments import build_channel, load_config  # noqa: E402

if __name__ == "__main__":
    for path in sys.argv[1:]:
        build_channel(load_config(path))
