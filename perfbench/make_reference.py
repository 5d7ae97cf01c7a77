"""Regenerate ``perfbench/reference.json``, the stored figure series.

Run from the repository root::

    python3 perfbench/make_reference.py

Only after a deliberate change to the numbers the models compute: the
benchmark's correctness gate compares every pass against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for cls in (workloads.FigExp, workloads.FigH2):
        wl = cls(seed=0, reference=None)
        patches = layers.Patches()
        wl.probe.install(patches)
        try:
            wl.setup()
            checks = workloads.Checks()
            wl.run_pass(checks)
        finally:
            patches.undo()
        if checks.failed:
            print("\n".join(checks.messages), file=sys.stderr)
            return 1
        reference[wl.name] = wl.series
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
