"""Span tracing around the calls into each csasim module, and its analysis.

Run as a script, this executes one csasim command line, or the per-layer
probe, with a span recorded around every call in ``TRACED``, then writes
the spans as JSON:

    python3 perfbench/tracer.py cli SPANS.json RUN_ID -- simulate --config ...
    python3 perfbench/tracer.py probe SPANS.json RUN_ID CONFIG MC_FRAMES

A span is (id, name, start, end, parent, run, pid, attrs); times are
``time.monotonic_ns``, which is one clock for every process of the machine.
Spans are kept in memory and written when the traced call returns. Pool
workers forked by ``run_trials`` exit without running atexit handlers, so a
worker writes its own spans to ``SPANS.json.<pid>`` whenever its outermost
span (a ``_simulate_range`` chunk) ends.

The module imports no csasim code at import time; run.py
uses ``load_spans`` and ``layer_metrics`` to turn span files into
per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


def _bursts(args, kwargs, placement):
    return {"bursts": int(placement.degree_of_slot.sum())}


def _peel_counts(args, kwargs, result):
    undecoded, _, _, n_rounds = result
    return {"rounds": int(n_rounds), "deadlock": bool(undecoded.any())}


def _de_rounds(args, kwargs, trace):
    return {"rounds": len(trace.states)}


def _csv_bytes(args, kwargs, _result):
    sink = args[1] if len(args) > 1 else kwargs["sink"]
    return {"bytes": os.path.getsize(sink)} if isinstance(sink, (str, os.PathLike)) else {}


# module.function -> counts taken from (args, kwargs, result) at the boundary
TRACED = {
    "cli.main": None,
    "configfile.parse_config": None,
    "montecarlo.sweep_load": None,
    "montecarlo.run_trials": None,
    "montecarlo._simulate_range": None,
    "model.place_frame": _bursts,
    "model.expected_initial_histogram": None,
    "decoder.decode_frame": None,
    "decoder._peel": _peel_counts,
    "density.de_iterate": _de_rounds,
    "csvio.emit_csv": _csv_bytes,
}


class Tracer:
    """In-memory span recorder for one process (and the workers it forks)."""

    def __init__(self, path: Path, run_id: int):
        self.path = path
        self.run_id = run_id
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._count = 0

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                # forked pool worker: drop the copy of the parent's spans
                self.pid, self.spans, self._stack = os.getpid(), [], []
            self._count += 1
            span = {
                "id": f"{self.pid}:{self._count}",
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "run": self.run_id,
                "pid": self.pid,
                "start": time.monotonic_ns(),
            }
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic_ns()
                self._stack.pop()
                self.spans.append(span)
            if counts is not None:
                span["attrs"] = counts(args, kwargs, result)
            if not self._stack and self.pid != self.root_pid:
                self._flush_worker()
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of a TRACED function in the csasim modules."""
        for qualname, counts in TRACED.items():
            module_name, func_name = qualname.split(".")
            original = getattr(importlib.import_module(f"csasim.{module_name}"), func_name)
            wrapped = self.wrap(qualname, original, counts)
            for name, module in list(sys.modules.items()):
                if name != "csasim" and not name.startswith("csasim."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def _flush_worker(self) -> None:
        with open(f"{self.path}.{self.pid}", "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def write(self, extra: dict | None = None) -> None:
        with open(self.path, "w") as handle:
            json.dump({"spans": self.spans, "extra": extra or {}}, handle)


def load_spans(path: Path) -> tuple[list[dict], dict]:
    """Spans of one traced process and of its pool workers, plus extras."""
    with open(path) as handle:
        data = json.load(handle)
    spans = data["spans"]
    for worker_file in sorted(path.parent.glob(path.name + ".*")):
        with open(worker_file) as handle:
            spans += [json.loads(line) for line in handle if line.strip()]
    return spans, data["extra"]


def _link_workers(spans: list[dict]) -> None:
    """Parent each worker's outermost span to the innermost span of the
    traced process that encloses it in time."""
    if not spans:
        return
    root_pid = min(spans, key=lambda s: s["start"])["pid"]
    root = [s for s in spans if s["pid"] == root_pid]
    for span in spans:
        if span["parent"] is None and span["pid"] != root_pid:
            enclosing = [s for s in root if s["start"] <= span["start"] and span["end"] <= s["end"]]
            if enclosing:
                span["parent"] = max(enclosing, key=lambda s: s["start"])["id"]


def self_times_ns(spans: list[dict]) -> dict[str, int]:
    """Span duration minus the part of its interval its children cover."""
    _link_workers(spans)
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = {}
    for span in spans:
        covered, reach = 0, span["start"]
        intervals = sorted((c["start"], c["end"]) for c in children[span["id"]])
        for start, end in intervals:
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced process; a metric whose layer has no
    span in ``spans`` is left out."""
    own = self_times_ns(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def self_s(*names):
        return sum(own[s["id"]] for name in names for s in by_name[name]) / 1e9

    def total(name, key):
        return sum(s["attrs"][key] for s in by_name[name])

    out = {}
    if by_name["cli.main"]:
        out["cli.self_ms"] = 1e3 * self_s("cli.main") / len(by_name["cli.main"])
    if by_name["configfile.parse_config"]:
        out["configfile.parse_ms"] = 1e3 * self_s("configfile.parse_config")
    placed = by_name["model.place_frame"]
    if placed:
        out["model.place_us_per_frame"] = 1e6 * self_s("model.place_frame") / len(placed)
        out["model.bursts_per_frame"] = total("model.place_frame", "bursts") / len(placed)
    peeled = by_name["decoder._peel"]
    if peeled:
        decode_s = self_s("decoder._peel", "decoder.decode_frame")
        rounds = total("decoder._peel", "rounds")
        deadlocked = sum(s["attrs"]["deadlock"] for s in peeled)
        out["decoder.decode_us_per_frame"] = 1e6 * decode_s / len(peeled)
        out["decoder.us_per_round"] = 1e6 * decode_s / rounds if rounds else 0.0
        out["decoder.rounds_per_frame"] = rounds / len(peeled)
        out["decoder.deadlocked_frames"] = deadlocked
        out["decoder.decoded_frame_frac"] = (len(peeled) - deadlocked) / len(peeled)
    trials = by_name["montecarlo.run_trials"]
    if trials and peeled:
        out["montecarlo.run_trials_s"] = statistics.fmean(
            (s["end"] - s["start"]) / 1e9 for s in trials
        )
        overhead_s = self_s("montecarlo.sweep_load", "montecarlo.run_trials", "montecarlo._simulate_range")
        out["montecarlo.us_per_frame_overhead"] = 1e6 * overhead_s / len(peeled)
    de_runs = by_name["density.de_iterate"]
    if de_runs:
        rounds = total("density.de_iterate", "rounds")
        out["density.de_s"] = statistics.fmean((s["end"] - s["start"]) / 1e9 for s in de_runs)
        out["density.rounds"] = rounds / len(de_runs)
        out["density.ms_per_round"] = 1e3 * self_s("density.de_iterate") / rounds
        out["density.initial_hist_ms"] = 1e3 * statistics.fmean(
            (s["end"] - s["start"]) / 1e9 for s in by_name["model.expected_initial_histogram"]
        )
    emitted = by_name["csvio.emit_csv"]
    if emitted:
        out["csvio.emit_ms"] = 1e3 * self_s("csvio.emit_csv") / len(emitted)
        out["csvio.bytes"] = total("csvio.emit_csv", "bytes")
    return out


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def _probe(tracer: Tracer, config_path: str, mc_frames: int) -> dict:
    """Layer figures the workload's own command line does not give.

    ``pool_start_s`` is run_trials on a 2-frame point with 2 workers minus
    the same with 1 worker; ``peak_alloc_mb`` is the tracemalloc peak around
    de_iterate. Both run untraced. Then the layers the command does not
    reach run traced on the same configuration: de_iterate when the command
    is Monte Carlo, ``mc_frames`` frames of run_trials when it is not.
    """
    from csasim import de_iterate, parse_config, run_trials

    with open(config_path) as handle:
        config = parse_config(handle.read())
    one, two = [], []
    for _ in range(3):
        one.append(_timed(run_trials, config, 2, workers=1))
        two.append(_timed(run_trials, config, 2, workers=2))
    tracemalloc.start()
    de_iterate(config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tracer.install()
    from csasim import density, montecarlo  # re-read the now traced bindings

    if mc_frames:
        montecarlo.run_trials(config, mc_frames, workers=1)
    else:
        density.de_iterate(config)
    return {
        "montecarlo.pool_start_s": statistics.median(two) - statistics.median(one),
        "density.peak_alloc_mb": peak / 2**20,
    }


def main(argv: list[str]) -> int:
    mode, path, run_id = argv[0], Path(argv[1]), int(argv[2])
    tracer = Tracer(path, run_id)
    if mode == "cli":
        import csasim.cli

        tracer.install()
        code = csasim.cli.main(argv[argv.index("--") + 1 :])
        tracer.write()
        return code
    if mode == "probe":
        extra = _probe(tracer, argv[3], int(argv[4]))
        tracer.write(extra)
        return 0
    print(f"error: unknown tracer mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
