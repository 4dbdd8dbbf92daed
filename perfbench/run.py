#!/usr/bin/env python3
"""csasim benchmark runner.

    python3 perfbench/run.py --workload mc-peak --seed 1 --seconds 30 --trace 0

Runs the csasim command line of one workload (see ``workloads.py``) from the
sources under ``src/`` of the checkout this file sits in, one invocation at a
time (a closed loop), for about ``--seconds`` seconds, and checks every CSV it
writes. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics of ``BENCHMARK.json`` from
untraced invocations. ``--trace 1`` gives the per-layer metrics from
invocations run under ``tracer.py``, alternated with untraced ones whose
wall time sets the tracing overhead. Everything the run writes goes to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
from workloads import COUNT_METRICS, DEFAULT_SEED, LAYER_MAP, MAX_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A frozen copy of src/csasim as of the commit that added the benchmark. Each
# timed invocation is paired with one of this copy, and end-to-end times are
# reported as the paired ratio times the copy's recorded time; see README.
REFERENCE = HERE / "reference"
REFERENCE_SETUP_S = 0.62
SETUP_REPS = 5
INVOCATION_TIMEOUT_S = 60
# interpreter start, import csasim and config parse: the set-up every CLI
# invocation pays before it simulates anything
SETUP_SNIPPET = "import sys, csasim; csasim.parse_config(open(sys.argv[1]).read())"
VERSION_SNIPPET = (
    "import json, csasim, numpy, scipy, sys; print(json.dumps({'csasim': csasim.__file__, "
    "'numpy': numpy.__version__, 'scipy': scipy.__version__, 'python': sys.version.split()[0]}))"
)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    frames: int = 0
    sha256: str = ""
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def spawn(argv: list[str], env: dict[str, str], log: Path) -> tuple[float, float, int]:
    """Run one process to its end: (wall seconds, peak RSS MB, exit code).

    The RSS is the largest resident set of the process or of any descendant
    it waited for, as wait4 reports it.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        # a process group of its own, so a timeout also ends the pool workers
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err, start_new_session=True,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def python_env(path: Path) -> dict[str, str]:
    # One BLAS thread per process: worker processes, not library threads, set
    # the parallelism. A second BLAS thread made de-large slower and twice as
    # variable on a 2-core host shared with other virtual machines.
    return dict(
        os.environ, PYTHONPATH=str(path), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
    )


def prepare() -> tuple[dict[str, str], dict[str, str]]:
    """Check the checkout holds the csasim sources, byte-compile them and the
    reference copy so no timed invocation pays for it, and return
    (environment, versions)."""
    src = ROOT / "src"
    if not (src / "csasim" / "cli.py").is_file():
        raise BenchError(f"no csasim sources under {src}")
    env = python_env(src)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(src / "csasim"), str(REFERENCE / "csasim")],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    probe = subprocess.run(
        [sys.executable, "-c", VERSION_SNIPPET], env=env, capture_output=True, text=True, timeout=120
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import csasim: {probe.stderr.strip()[-500:]}")
    versions = json.loads(probe.stdout)
    if Path(versions.pop("csasim")).resolve() != (src / "csasim" / "__init__.py").resolve():
        raise BenchError(f"csasim is not imported from {src}")
    return env, versions


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: Workload, seed: int, env: dict[str, str], out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.dir = out_dir
        self.config = out_dir / "workload.cfg"
        self.config.write_text(workload.config_text(seed))
        self.reference_env = python_env(REFERENCE)
        self.count = 0

    def invoke(self, traced: bool = False, reference: bool = False) -> Invocation:
        """One CLI invocation of the checkout, or of the reference copy."""
        self.count += 1
        tag = f"{self.count:04d}"
        out = self.dir / f"out-{tag}.csv"
        spans = self.dir / f"spans-{tag}.json"
        cli = self.workload.cli_args(str(self.config), str(out))
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), "cli", str(spans), str(self.count), "--", *cli]
        else:
            argv = [sys.executable, "-m", "csasim.cli", *cli]
        log = self.dir / f"stderr-{tag}.txt"
        wall, rss, code = spawn(argv, self.reference_env if reference else self.env, log)
        result = Invocation(wall_s=wall, rss_mb=rss)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            result.problems.append(f"exit code {code}: {' '.join(tail)}")
            return result
        try:
            data = out.read_bytes()
            if traced:
                result.layers = tracer.layer_metrics(tracer.load_spans(spans)[0])
        except (OSError, ValueError, KeyError) as exc:
            result.problems.append(f"unreadable output: {exc}")
            return result
        result.sha256 = checks.sha256(data)
        result.problems = checks.check_csv(self.workload, self.seed, data)
        if not result.problems:
            result.frames = checks.frames_in(self.workload, data)
        return result

    def setup(self, reference: bool = False) -> tuple[float, int]:
        """Wall time and exit code of one set-up process."""
        self.count += 1
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(self.config)]
        env = self.reference_env if reference else self.env
        wall, _, code = spawn(argv, env, self.dir / f"setup-{self.count:04d}.txt")
        return wall, code

    def probe(self) -> tuple[dict[str, float], int]:
        """Layer metrics the workload's command does not reach, and 1 if the
        probe process failed."""
        spans = self.dir / "spans-probe.json"
        argv = [
            sys.executable, str(HERE / "tracer.py"), "probe", str(spans), "0",
            str(self.config), str(self.workload.probe_frames),
        ]
        _, _, code = spawn(argv, self.env, self.dir / "stderr-probe.txt")
        if code != 0:
            return {}, 1
        try:
            span_list, extra = tracer.load_spans(spans)
            return {**tracer.layer_metrics(span_list), **extra}, 0
        except (OSError, ValueError, KeyError):
            return {}, 1


def repeat(budget_s: float, step) -> list:
    """Call ``step``, which returns a list, until the next call would likely
    end past the budget; at least once. Returns the lists concatenated."""
    results, start = [], time.perf_counter()
    while True:
        before = time.perf_counter()
        results += step()
        now = time.perf_counter()
        if now - start + (now - before) > budget_s:
            return results


def alternate(index: int, own, reference) -> tuple:
    """Call ``own`` and ``reference`` back to back, the reference first on
    odd indices, and return (own result, reference result)."""
    if index % 2:
        ref = reference()
        return own(), ref
    mine = own()
    return mine, reference()


def mark_divergent(invocations: list[Invocation]) -> None:
    """The same seed must give the same bytes on every invocation."""
    good = [inv for inv in invocations if not inv.problems]
    if good:
        reference = good[0].sha256
        for inv in good[1:]:
            if inv.sha256 != reference:
                inv.problems.append(f"output {inv.sha256} differs from the run's first {reference}")


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for any."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return "max", max(values)


def report(name: str, values: list[float], unit: str) -> None:
    label, high = high_percentile(values)
    print(f"{name:34s} median {statistics.median(values):12.6g} {unit:6s} "
          f"{label} {high:12.6g}  n={len(values)}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def end_to_end(run: Run, seconds: int, spec: dict) -> tuple[dict, int, int, dict]:
    setups = [
        alternate(i, run.setup, lambda: run.setup(reference=True)) for i in range(SETUP_REPS)
    ]
    index = itertools.count()
    pairs = repeat(
        seconds, lambda: [alternate(next(index), run.invoke, lambda: run.invoke(reference=True))]
    )
    own = [mine for mine, _ in pairs]
    mark_divergent(own)
    # host speed cancels in the ratio of two back-to-back invocations
    wall = [mine.wall_s / ref.wall_s * run.workload.reference_wall_s for mine, ref in pairs]
    samples = {
        "wall_s": wall,
        "frames_per_s": [mine.frames / w for mine, w in zip(own, wall)],
        "setup_s": [mine / ref * REFERENCE_SETUP_S for (mine, _), (ref, _) in setups],
        "peak_rss_mb": [mine.rss_mb for mine in own],
        "raw_wall_s": [mine.wall_s for mine in own],
        "raw_reference_wall_s": [ref.wall_s for _, ref in pairs],
    }
    problems = [p for pair in pairs for inv in pair for p in inv.problems]
    problems += [f"set-up exit code {code}" for pair in setups for _, code in pair if code]
    failed = sum(bool(inv.problems) for pair in pairs for inv in pair)
    failed += sum(bool(code) for pair in setups for _, code in pair)
    attempted = 2 * (SETUP_REPS + len(pairs))
    for problem in problems:
        print(f"FAILED: {problem}")
    metrics = {}
    for metric in spec["end_to_end"]:
        values = samples[metric["name"]]
        report(metric["name"], values, metric["unit"])
        metrics[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"]}
    report("unscaled wall_s, checkout", samples["raw_wall_s"], "s")
    report("unscaled wall_s, reference copy", samples["raw_reference_wall_s"], "s")
    print(f"{'failed_frac':34s} {failed}/{attempted} = {failed / attempted:.6g}")
    return metrics, attempted, failed, samples


def per_layer(run: Run, seconds: int, spec: dict) -> tuple[dict, int, int, dict]:
    probe_metrics, probe_failed = run.probe()
    pairs = repeat(seconds, lambda: [run.invoke(traced=True), run.invoke()])
    traced, untraced = pairs[0::2], pairs[1::2]
    mark_divergent(pairs)
    for problem in (p for inv in pairs for p in inv.problems):
        print(f"FAILED: {problem}")

    values: dict[str, list[float]] = {}
    for inv in traced:
        for name, value in inv.layers.items():
            values.setdefault(name, []).append(value)
    for name, value in probe_metrics.items():
        values.setdefault(name, [value])
    values["trace.overhead_s"] = [
        statistics.median(inv.wall_s for inv in traced)
        - statistics.median(inv.wall_s for inv in untraced)
    ]

    # the exact counts and the metric set are checked once per run
    run_problems = []
    for name in COUNT_METRICS:
        seen = set(values.get(name, []))
        expected = run.workload.default_counts.get(name)
        if len(seen) > 1:
            run_problems.append(f"{name} did not repeat exactly: {sorted(seen)}")
        elif run.seed == DEFAULT_SEED and seen != {expected}:
            run_problems.append(f"{name} = {sorted(seen)}, recorded {expected} for seed {DEFAULT_SEED}")

    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in values:
            run_problems.append(f"no value for {name}")
            continue
        report(name, values[name], metric["unit"])
        if name in LAYER_MAP:
            print(f"{'':34s} moves {LAYER_MAP[name]}")
        metrics[name] = {"value": statistics.median(values[name]), "unit": metric["unit"]}
    for problem in run_problems:
        print(f"FAILED: {problem}")
    attempted = len(pairs) + 2  # the invocations, the probe and the run-level check
    failed = sum(bool(inv.problems) for inv in pairs) + probe_failed + bool(run_problems)
    return metrics, attempted, failed, values


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="csasim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        parser.error(f"--seed must be in [0, 2**64), got {args.seed}")
    if args.seconds < 1:
        parser.error(f"--seconds must be >= 1, got {args.seconds}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        env, versions = prepare()
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    meta = {
        "workload": workload.name,
        "parameters": workload.parameters(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        **versions,
    }
    print("meta " + json.dumps(meta))
    run = Run(workload, args.seed, env, out_dir)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, samples = measure(run, args.seconds, spec)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / "result.json").write_text(
        json.dumps({"meta": meta, **result, "samples": samples}, indent=2)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
