"""Record the sha256 of every byte-pinned artifact at the default seed.

    python3 perfbench/pin.py

runs each workload once at full and once at tiny size with
``workloads.DEFAULT_SEED`` and writes ``perfbench/pinned.json``.  The pins
are taken from the commit the benchmark was defined on; a change that
alters a pinned artifact fails the benchmark's check instead of updating
them.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    import workloads
    pins = {"default_seed": workloads.DEFAULT_SEED, "full": {}, "tiny": {}}
    work = run.RUN_DIR / "pin"
    try:
        for size in ("full", "tiny"):
            for name in workloads.WORKLOADS:
                wl = workloads.Workload(name, workloads.DEFAULT_SEED, work / "inputs",
                                        tiny=size == "tiny")
                outcomes = wl.run(work / "out")
                failures = [p for problems in wl.check(outcomes, None) for p in problems]
                if failures:
                    sys.stderr.write("\n".join(failures) + "\n")
                    return 1
                pins[size][name] = wl.artifact_hashes(outcomes)
                run.clear(work)
    finally:
        run.clear(work)
    run.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
