"""The benchmark's own test: smoke mode must pass, and the output checks
must reject damaged outputs.

    python3 perfbench/selftest.py

Runs every workload once at reduced n (about 20 s on 2 CPUs), then
damages copies of the salary-ols smoke outputs one way at a time and
requires check_outputs to report each. Exits 0 when all of that holds.
"""

from __future__ import annotations

import re
import shutil
import sys

import run


def _damage_cases(out):
    """(description, file, new text or None to delete); each breaks one
    invariant while keeping the file well formed where it can."""
    tdp = (out / "P_tdp.csv").read_text(encoding="utf-8")
    svg = (out / "P_tdp.svg").read_text(encoding="utf-8")
    ice = (out / "F_ice.csv").read_text(encoding="utf-8")
    f_tdp = (out / "F_tdp.csv").read_text(encoding="utf-8")
    header, first, rest = ice.split("\n", 2)
    kind, unit, x, y = first.split(",")
    # a leading zero keeps the value and changes the bytes
    padded = ",".join((kind, unit, x, "-0" + y[1:] if y.startswith("-") else "0" + y))
    return [
        ("missing polyline", "P_tdp.svg", svg.replace("<polyline", "<line", 1)),
        ("PDP that is not ICE's mean", "P_pdp.csv", tdp.replace("TDP,", "PDP,")),
        ("NDDP away from ICE", "P_nddp.csv", tdp.replace("TDP,", "NDDP,")),
        ("CSV that does not round-trip", "F_ice.csv", "\n".join((header, padded, rest))),
        ("unit missing from a CSV", "F_tdp.csv", re.sub(r"\nTDP,0,[^\n]*", "", f_tdp)),
        ("file missing", "F_nidp.svg", None),
    ]


def main() -> int:
    if run.main(["--smoke"]) != 0:
        print("selftest: smoke mode failed", file=sys.stderr)
        return 1
    from checks import check_outputs

    m = run.Measurement(run.WORKLOADS["salary-ols"], run.DEFAULT_SEED, smoke=True)
    m.prepare()
    source = m.work / "out"
    if run.run_cli(["run", "--config", str(m.config)], 60.0, m.work / "run.log").code:
        print("selftest: salary-ols smoke run failed", file=sys.stderr)
        return 1
    missed = []
    for what, name, text in _damage_cases(source):
        damaged = m.work / "damaged"
        shutil.rmtree(damaged, ignore_errors=True)
        shutil.copytree(source, damaged)
        target = damaged / name
        if text is None:
            target.unlink()
        else:
            target.write_text(text, encoding="utf-8")
        problems = check_outputs(damaged, m.expected)
        print(f"selftest: {what}: {'caught' if problems else 'MISSED'}")
        if not problems:
            missed.append(what)
    if missed:
        print(f"selftest: checks missed {missed}", file=sys.stderr)
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
