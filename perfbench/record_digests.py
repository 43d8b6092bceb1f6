"""Record the sha256 of every CSV and SVG each workload writes at the
default seed, full size and smoke size, into digests.json.

The benchmark fails a default-seed run whose outputs differ from these
digests, because cdplot's curves and CSV bytes must stay identical.
Re-record only when an output change is intended, from the commit that
makes it::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from checks import check_outputs, digests

    recorded: dict[str, dict] = {"full": {}, "smoke": {}}
    for mode in recorded:
        for name, workload in sorted(WORKLOADS.items()):
            m = run.Measurement(workload, run.DEFAULT_SEED, mode == "smoke")
            m.prepare()
            result = run.run_cli(["run", "--config", str(m.config)], 170.0, m.work / "run.log")
            problems = [result.stderr] if result.code else check_outputs(m.work / "out", m.expected)
            if problems:
                print(f"{mode} {name}: {problems}", file=sys.stderr)
                return 1
            found = digests(m.work / "out")
            del found["manifest.json"]  # holds this checkout's paths
            recorded[mode][name] = found
            print(f"{mode} {name}: {len(recorded[mode][name])} files, {result.wall_s:.2f} s")
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
