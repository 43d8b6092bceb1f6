"""cdplot benchmark: one workload per invocation, a real `cdplot run`.

Usage (from the repository root)::

    python3 perfbench/run.py --workload salary-ols --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

With --trace 0 the CLI runs as a subprocess, repeatedly for --seconds
(at least twice), and the end-to-end metrics are medians over those
runs. With --trace 1 the CLI runs once and the same config runs once
more in-process under timing shims (tracing.py), giving the per-layer
metrics. Every run's outputs are checked (checks.py); a run that exits
nonzero, times out, or fails a check counts as failed. The last line of
standard output is one JSON object with correct, attempted, failed and
metrics; the conditions of the run and every sample go to
.bench_work/results/. --smoke runs every workload once at reduced n.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
MIN_REPS = 2
SETUP_REPS = 3
# Every invocation must end within 180 s; leave room for the checks.
DEADLINE_S = 150.0


@dataclass
class CliRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of proc's process group (normally nothing),
    reap proc, and wait up to 5 s until the rest of the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_cli(args: list[str], timeout: float, log: Path) -> CliRun:
    """Run `python -m cdplot.cli ARGS` from the repository root with
    tracing off, through spawn.py, which times it. Whatever it started
    is killed once it ends or times out."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, "-I", "-S", str(HERE / "spawn.py"), str(timeout), str(log),
        sys.executable, "-m", "cdplot.cli", *args,
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout + 30.0)
    except subprocess.TimeoutExpired:
        out = b""
    finally:
        _stop_group(proc)
    stderr = log.read_text(encoding="utf-8", errors="replace")[-2000:] if log.exists() else ""
    if proc.returncode != 0 or not out:
        return CliRun(-1, timeout, 0.0, 0.0, f"spawn.py failed ({proc.returncode}) {stderr}")
    result = json.loads(out)
    return CliRun(result["code"], result["wall_s"], result["cpu_s"], result["peak_rss_mb"], stderr)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def conditions(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    """The conditions a result was measured under; numbers from
    different machines or sources are not comparable."""
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


class Measurement:
    """Everything one invocation measures for one workload."""

    def __init__(self, workload: Workload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work = WORK / workload.name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.spans: list = []
        self.reference: dict[str, str] | None = None

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def _expected_digests(self) -> dict[str, str] | None:
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        return recorded["smoke" if self.smoke else "full"].get(self.workload.name)

    def _verify(self, label: str) -> None:
        """Check the outputs in work/out; the first good run is checked
        in full and becomes the reference every later run must match
        byte for byte."""
        from checks import check_outputs, digests

        out = self.work / "out"
        found = digests(out)
        if self.reference is not None:
            if found != self.reference:
                changed = sorted(k for k in set(found) | set(self.reference)
                                 if found.get(k) != self.reference.get(k))
                raise CheckFailed(f"{label}: outputs differ from the first run: {changed}")
            return
        problems = check_outputs(out, self.expected)
        if self.seed == DEFAULT_SEED:
            recorded = self._expected_digests()
            # the manifest holds this checkout's paths, so it has no recorded digest
            produced = {k: v for k, v in found.items() if k != "manifest.json"}
            if recorded != produced:
                changed = sorted(k for k in set(produced) | set(recorded or {})
                                 if produced.get(k) != (recorded or {}).get(k))
                problems.append(f"digests differ from the recorded ones: {changed}")
        if problems:
            raise CheckFailed(f"{label}: " + "; ".join(problems))
        self.reference = found

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.config, self.expected = self.workload.prepare(
            ROOT, self.work, self.seed, self.smoke
        )

    def time_setup(self, reps: int) -> None:
        for _ in range(reps):
            run = run_cli(["--help"], 60.0, self.work / "help.log")
            if run.code != 0:
                raise SystemExit(f"cdplot --help failed ({run.code}): {run.stderr}")
            self._sample("setup_s", run.wall_s)

    def cli_run(self, deadline: float) -> CliRun:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        label = f"cli run {self.attempted}"
        run = run_cli(
            ["run", "--config", str(self.config)],
            max(1.0, deadline - time.monotonic()),
            self.work / "run.log",
        )
        if run.code != 0:
            self._fail(f"{label}: exit code {run.code}: {run.stderr}")
            return run
        try:
            self._verify(label)
        except CheckFailed as exc:
            self._fail(str(exc))
            return run
        self._sample("run_s", run.wall_s)
        self._sample("cpu_s", run.cpu_s)
        self._sample("points_per_s", self.expected.points / run.wall_s)
        self._sample("peak_rss_mb", run.peak_rss_mb)
        return run

    def traced_run(self, deadline: float) -> None:
        """Run the config in-process under the timing shims; SIGALRM
        stops a run that would pass the deadline."""
        from cdplot.cli import load_run_config, run_pipeline
        from tracing import Tracer, layer_metrics, traced

        shutil.rmtree(self.work / "out", ignore_errors=True)
        self.attempted += 1
        tracer = Tracer()
        signal.signal(signal.SIGALRM, _deadline_passed)
        signal.alarm(max(1, int(deadline - time.monotonic())))
        try:
            config = load_run_config(self.config)
            with traced(tracer):
                start = time.perf_counter()
                run_pipeline(config, config_label=str(self.config))
                total = time.perf_counter() - start
            self._verify("traced run")
        except CheckFailed as exc:
            self._fail(str(exc))
            return
        except Exception as exc:  # a crash of the program is a failed run
            self._fail(f"traced run: {type(exc).__name__}: {exc}")
            return
        finally:
            signal.alarm(0)
        self.layers = layer_metrics(tracer, self.expected.points)
        self.layers["trace.pipeline_s"] = (total, "s")
        if "run_s" in self.samples:
            untraced = statistics.median(self.samples["run_s"]) - statistics.median(
                self.samples["setup_s"]
            )
            self.layers["trace.overhead_pct"] = (100.0 * (total - untraced) / untraced, "%")
        self.spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        units = {"run_s": "s", "cpu_s": "s", "points_per_s": "1/s",
                 "peak_rss_mb": "MB", "setup_s": "s"}
        return {
            name: (statistics.median(self.samples[name]), unit)
            for name, unit in units.items()
            if name in self.samples
        }


class CheckFailed(Exception):
    pass


def _deadline_passed(signum, frame):
    raise TimeoutError("run passed the benchmark's deadline")


def measure(workload: Workload, seed: int, seconds: int, trace: bool, smoke: bool) -> Measurement:
    m = Measurement(workload, seed, smoke)
    deadline = time.monotonic() + DEADLINE_S
    m.prepare()
    if trace or smoke:
        m.time_setup(1 if smoke else SETUP_REPS)
        m.cli_run(deadline)
        m.traced_run(deadline)
        return m
    # The host's speed changes on a scale of seconds, so setup_s is sampled
    # before every run and once after the last: its median then spans the
    # same stretch of time as the runs, not the first two seconds.
    measured = 0.0
    longest = 0.0
    while m.attempted < MIN_REPS or measured < seconds:
        if time.monotonic() + 1.5 * longest > deadline:
            break
        m.time_setup(1)
        run = m.cli_run(deadline)
        measured += run.wall_s
        longest = max(longest, run.wall_s)
    m.time_setup(1)
    return m


def _print_table(title: str, metrics: dict[str, tuple[float, str]], samples: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={len(samples[name])}")


def _print_layers(layers: dict[str, tuple[float, str]]) -> None:
    """Per-layer metrics; times also as a share of the traced pipeline."""
    print("per layer (one traced run)")
    total = layers["trace.pipeline_s"][0]
    for name, (value, unit) in layers.items():
        share = f"{100.0 * value / total:5.1f}% of pipeline" if unit == "s" else ""
        print(f"  {name:28s} {value:14.6g} {unit:6s} {share}")


def report(m: Measurement, seconds: int, trace: bool) -> dict:
    e2e = m.end_to_end()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{m.workload.name}-seed{m.seed}-trace{int(trace)}{'-smoke' if m.smoke else ''}"
    record = {
        "conditions": conditions(m.workload.name, m.seed, seconds, int(trace), m.smoke),
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems,
        "samples": m.samples,
        "sample_counts": {k: len(v) for k, v in m.samples.items()},
        "end_to_end": e2e,
        "per_layer": m.layers,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if m.spans:
        (results / f"{stem}-spans.json").write_text(json.dumps(m.spans) + "\n")

    print(f"workload {m.workload.name}: {m.workload.why}")
    _print_table("end to end (medians)", e2e, m.samples)
    error_rate = m.failed / m.attempted if m.attempted else 1.0
    print(f"  {'error_rate':28s} {error_rate:14.6g} {'ratio':6s} "
          f"({m.failed} of {m.attempted} runs failed)")
    if m.layers:
        _print_layers(m.layers)
    for problem in m.problems:
        print(f"  FAILED {problem}")
    print(f"conditions and samples: {results / stem}.json")
    chosen = m.layers if trace else e2e
    return {
        "correct": m.failed == 0 and bool(chosen),
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at reduced n and check it")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (ROOT / "src" / "cdplot" / "cli.py").is_file():
        print(f"no cdplot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    names = sorted(WORKLOADS) if args.smoke else [args.workload]
    results = []
    for name in names:
        m = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.smoke)
        results.append(report(m, args.seconds, bool(args.trace)))
    if not any(r["metrics"] for r in results):
        print("no run succeeded", file=sys.stderr)
        return 1
    if args.smoke:
        ok = all(r["correct"] for r in results)
        print(json.dumps({
            "correct": ok,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }))
        return 0 if ok else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
