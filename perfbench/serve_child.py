"""``python -m repro serve`` with the per-layer ledger installed.

Usage: ``python perfbench/serve_child.py LEDGER_JSON [serve options]``.
Runs the same ``repro.cli.main(["serve", ...])`` as ``python -m repro
serve`` and, once the server has shut down, writes the ledger snapshot,
the traced wall time and the DeprecationWarning count to LEDGER_JSON.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ledger import Ledger  # noqa: E402
from measure import DeprecationCounter  # noqa: E402
from repro.cli import main  # noqa: E402


def serve(ledger_path: str, argv: list[str]) -> int:
    ledger = Ledger().install()
    started = time.perf_counter()
    with DeprecationCounter() as deprecations:
        code = main(["serve", *argv])
    record = ledger.snapshot()
    record["wall_s"] = time.perf_counter() - started
    record["deprecations"] = deprecations.count
    with open(ledger_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1], sys.argv[2:]))
