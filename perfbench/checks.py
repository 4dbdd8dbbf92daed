"""Output checks for one csasim invocation.

``check_csv`` returns the list of problems found in a CSV the command line
wrote; an empty list means the output passed. The checks hold on any seed
(schema, ranges, monotonicity); on the default seed the bytes must also
match the SHA-256 recorded in ``workloads``.
"""
from __future__ import annotations

import csv
import hashlib
import io

from workloads import DEFAULT_SEED, Workload

SWEEP_HEADER = ["g", "ns", "n", "k", "frames", "throughput", "plr", "t_ci95", "plr_ci95", "seed"]
DE_HEADER = ["l", "p", "q", "beta"]

# CSV floats carry 6 significant digits, so throughput may print a hair
# above the g it is bounded by
_REL_TOL = 1e-5


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def frames_in(workload: Workload, data: bytes) -> int:
    """Frames one invocation covered: Monte Carlo frames summed over load
    points, or the single frame configuration that ``de`` analyses."""
    if workload.command == "de":
        return 1
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return sum(int(row["frames"]) for row in rows)


def check_csv(workload: Workload, seed: int, data: bytes) -> list[str]:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return ["output is not ASCII text"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return ["output is empty"]
    header, body = rows[0], rows[1:]
    try:
        if workload.command == "de":
            problems = _check_de(header, body)
        else:
            problems = _check_sweep(workload, seed, header, body)
    except (ValueError, IndexError) as exc:
        problems = [f"malformed row: {exc}"]
    if seed == DEFAULT_SEED and sha256(data) != workload.default_sha256:
        problems.append(
            f"SHA-256 {sha256(data)} differs from the recorded {workload.default_sha256}"
        )
    return problems


def _in_unit(value: float) -> bool:
    return 0.0 <= value <= 1.0


def _check_sweep(workload: Workload, seed: int, header: list[str], body: list[list[str]]) -> list[str]:
    if header != SWEEP_HEADER:
        return [f"header {header} is not {SWEEP_HEADER}"]
    problems = []
    if len(body) != workload.expected_rows:
        problems.append(f"{len(body)} rows, expected {workload.expected_rows}")
    n_label, k_label = workload.code_labels
    previous_g = -1.0
    for i, row in enumerate(body, start=1):
        g, ns, n, k, frames, t, plr, t_ci, plr_ci, row_seed = row
        g, t, plr, t_ci, plr_ci = (float(x) for x in (g, t, plr, t_ci, plr_ci))
        if not previous_g < g:
            problems.append(f"row {i}: g={g} not ascending")
        previous_g = g
        if (int(ns), n, k, int(frames), int(row_seed)) != (
            workload.ns, n_label, k_label, workload.frames, seed
        ):
            problems.append(f"row {i}: ns/n/k/frames/seed columns {row[1:5] + row[9:]} are wrong")
        if not 0.0 <= t <= g * (1.0 + _REL_TOL):
            problems.append(f"row {i}: throughput {t} outside [0, g={g}]")
        if not _in_unit(plr):
            problems.append(f"row {i}: plr {plr} outside [0, 1]")
        if t_ci < 0.0 or plr_ci < 0.0:
            problems.append(f"row {i}: negative confidence half-width")
    return problems


def _check_de(header: list[str], body: list[list[str]]) -> list[str]:
    if header != DE_HEADER:
        return [f"header {header} is not {DE_HEADER}"]
    if not body:
        return ["no recursion rounds"]
    problems = []
    previous_q = 1.0
    for i, row in enumerate(body):
        l, p, q, beta = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        if l != i:
            problems.append(f"row {i + 1}: round index {l}, expected {i}")
        if not (_in_unit(p) and _in_unit(q) and _in_unit(beta)):
            problems.append(f"row {i + 1}: p, q or beta outside [0, 1]")
        if q > previous_q:
            problems.append(f"row {i + 1}: q increased from {previous_q} to {q}")
        previous_q = q
    return problems
