"""Record the expected outputs that the benchmark checks, from the current program.

Run from the repository root, at a commit whose outputs are known good:

    python3 perfbench/record_expected.py

It writes ``perfbench/expected.json``. ``scan-affine`` needs no record:
every one of its checks must pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    record = {}
    for name in ("paper", "scan-ex41", "symbolic-n4"):
        wl = workloads.WORKLOADS[name](0)
        record[name] = wl.observe(wl.run_job())
    workloads.EXPECTED_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
