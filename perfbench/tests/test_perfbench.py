"""Tests of the benchmark itself: output checks, seeds, tracing analysis.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
import run
import tracer
from workloads import COUNT_METRICS, DEFAULT_SEED, LAYER_MAP, WORKLOADS

OTHER_SEED = DEFAULT_SEED + 41
# a small sweep: 20 load points of 4 frames on the multi-group path
SMALL_SWEEP = replace(WORKLOADS["mc-sweep"], frames=4, workers=1)


@pytest.fixture(scope="module")
def env():
    return run.prepare()[0]


def invoke(workload, seed, env, tmp_path, traced=False):
    return run.Run(workload, seed, env, tmp_path).invoke(traced=traced)


def cli_output(workload, seed, env, out_dir) -> tuple[bytes, run.Invocation]:
    out_dir.mkdir(exist_ok=True)
    inv = invoke(workload, seed, env, out_dir)
    return (out_dir / "out-0001.csv").read_bytes(), inv


def test_real_output_passes_structural_checks(env, tmp_path):
    data, inv = cli_output(SMALL_SWEEP, OTHER_SEED, env, tmp_path)
    assert inv.problems == []
    assert checks.check_csv(SMALL_SWEEP, OTHER_SEED, data) == []
    assert inv.frames == 20 * 4


def test_corrupted_output_fails_hash_on_default_seed(env, tmp_path):
    data, _ = cli_output(SMALL_SWEEP, DEFAULT_SEED, env, tmp_path)
    workload = replace(SMALL_SWEEP, default_sha256=checks.sha256(data))
    assert checks.check_csv(workload, DEFAULT_SEED, data) == []
    corrupted = data.replace(b",4,", b",5,", 1)
    assert corrupted != data
    problems = checks.check_csv(workload, DEFAULT_SEED, corrupted)
    assert any("SHA-256" in p for p in problems)


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda rows: rows.__setitem__(0, "g,ns,n,k,frames,throughput,plr,t_ci95,plr_ci95"), "header"),
        (lambda rows: rows.__setitem__(1, rows[1].replace(",0,", ",1.5,", 1)), "plr"),
        (lambda rows: rows.pop(), "rows"),
        (lambda rows: rows.__setitem__(1, "0.05,400,4;2,2;1,4,0.9,0,0,0,42"), "throughput"),
        (lambda rows: rows.__setitem__(1, "x,400"), "malformed"),
    ],
)
def test_structural_corruption_is_caught_on_any_seed(env, tmp_path, edit, expected):
    data, _ = cli_output(SMALL_SWEEP, OTHER_SEED, env, tmp_path)
    rows = data.decode().splitlines()
    edit(rows)
    problems = checks.check_csv(SMALL_SWEEP, OTHER_SEED, ("\n".join(rows) + "\n").encode())
    assert any(expected in p for p in problems), problems


def test_de_checks():
    de = WORKLOADS["de-large"]
    good = b"l,p,q,beta\n0,0.9,0.7,0.3\n1,0.8,0.5,0.28\n"
    assert checks.check_csv(de, OTHER_SEED, good) == []
    rising = b"l,p,q,beta\n0,0.9,0.5,0.3\n1,0.8,0.7,0.28\n"
    assert any("q increased" in p for p in checks.check_csv(de, OTHER_SEED, rising))
    skipped = b"l,p,q,beta\n0,0.9,0.7,0.3\n2,0.8,0.5,0.28\n"
    assert any("round index" in p for p in checks.check_csv(de, OTHER_SEED, skipped))
    assert checks.check_csv(de, OTHER_SEED, b"") == ["output is empty"]


def test_hash_mismatch_counts_as_failed(env, tmp_path):
    wrong = replace(SMALL_SWEEP, default_sha256="0" * 64)
    bench = run.Run(wrong, DEFAULT_SEED, env, tmp_path)
    metrics, attempted, failed, samples = run.end_to_end(bench, 1, run.load_spec())
    # every invocation fails its hash check, the reference copy's too
    invocations = attempted - 2 * run.SETUP_REPS
    assert invocations >= 2 and failed == invocations
    assert metrics["frames_per_s"]["value"] == 0.0
    assert len(samples["setup_s"]) == run.SETUP_REPS


def test_reference_copy_runs_the_same_workload(env, tmp_path):
    bench = run.Run(SMALL_SWEEP, OTHER_SEED, env, tmp_path)
    reference = bench.invoke(reference=True)
    own = bench.invoke()
    assert reference.problems == [] and own.problems == []
    assert reference.frames == own.frames == 20 * 4
    assert (tmp_path / "stderr-0001.txt").read_text() == ""
    assert run.alternate(0, lambda: "own", lambda: "ref") == ("own", "ref")
    assert run.alternate(1, lambda: "own", lambda: "ref") == ("own", "ref")


def test_divergent_outputs_are_marked_failed():
    first = run.Invocation(wall_s=1.0, rss_mb=1.0, sha256="a")
    same = run.Invocation(wall_s=1.0, rss_mb=1.0, sha256="a")
    other = run.Invocation(wall_s=1.0, rss_mb=1.0, sha256="b")
    run.mark_divergent([first, same, other])
    assert not first.problems and not same.problems and other.problems


def test_seed_sets_the_generated_config():
    workload = WORKLOADS["mc-peak"]
    assert workload.config_text(7) == workload.config_text(7)
    assert "seed=7\n" in workload.config_text(7)
    assert workload.config_text(7) != workload.config_text(8)
    assert run.parse_args(["--workload", "mc-peak"]).seed == DEFAULT_SEED
    assert run.parse_args(["--workload", "mc-peak", "--seed", str(2**64 - 1)]).seed == 2**64 - 1
    for bad in ("-1", str(2**64)):
        with pytest.raises(SystemExit):
            run.parse_args(["--workload", "mc-peak", "--seed", bad])


def test_same_seed_same_bytes_other_seed_other_bytes(env, tmp_path):
    a, _ = cli_output(SMALL_SWEEP, OTHER_SEED, env, tmp_path / "a")
    b, _ = cli_output(SMALL_SWEEP, OTHER_SEED, env, tmp_path / "b")
    c, _ = cli_output(SMALL_SWEEP, OTHER_SEED + 1, env, tmp_path / "c")
    assert a == b != c


def test_traced_invocation_reports_layers_and_same_bytes(env, tmp_path):
    traced = invoke(SMALL_SWEEP, OTHER_SEED, env, tmp_path, traced=True)
    plain = invoke(SMALL_SWEEP, OTHER_SEED, env, tmp_path)
    assert traced.problems == [] and traced.sha256 == plain.sha256
    layers = traced.layers
    assert layers["model.bursts_per_frame"] > 0
    assert 0.0 <= layers["decoder.decoded_frame_frac"] <= 1.0
    assert layers["csvio.bytes"] == len((tmp_path / "out-0001.csv").read_bytes())
    assert "density.de_s" not in layers  # sweep does not run the recursion


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "1:1", "name": "montecarlo.run_trials", "parent": None, "pid": 1, "start": 0, "end": 100},
        # two pool workers running concurrently inside run_trials
        {"id": "2:1", "name": "montecarlo._simulate_range", "parent": None, "pid": 2, "start": 10, "end": 60},
        {"id": "3:1", "name": "montecarlo._simulate_range", "parent": None, "pid": 3, "start": 20, "end": 70},
        {"id": "2:2", "name": "model.place_frame", "parent": "2:1", "pid": 2, "start": 15, "end": 25},
    ]
    own = tracer.self_times_ns(spans)
    assert own == {"1:1": 40, "2:1": 40, "3:1": 50, "2:2": 10}


def test_benchmark_json_matches_the_code():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert layer_names == set(LAYER_MAP) | {"trace.overhead_s"}
    assert set(COUNT_METRICS) <= layer_names
    for workload in WORKLOADS.values():
        assert set(workload.default_counts) == set(COUNT_METRICS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-peak", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_spawn_kills_a_hung_invocation(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "INVOCATION_TIMEOUT_S", 1)
    wall, _, code = run.spawn(
        [sys.executable, "-c", "import time; time.sleep(30)"], {}, tmp_path / "log.txt"
    )
    assert code != 0 and wall < 10
