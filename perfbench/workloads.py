"""Benchmark workloads: what each one runs, why, and what its output must be.

Every workload is one ``csasim`` command line on a configuration file that
the benchmark writes itself from the workload definition and the seed
argument; no example file of the repository is read. The benchmark seed is
the configuration's ``seed`` key, so the same seed gives the same inputs and
the same CSV bytes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 1
MAX_SEED = 2**64  # csasim accepts 64-bit unsigned seeds

# Which end-to-end metric each per-layer metric should move, and where.
# Printed with every traced run; a change that claims a gain names one row.
LAYER_MAP = {
    "configfile.parse_ms": "setup_s on all workloads, by a small amount",
    "model.place_us_per_frame": "frames_per_s on mc-peak (~35% of frame time) and more on "
    "the light points of mc-sweep; not de-large",
    "model.bursts_per_frame": "exact count; frames_per_s on mc-peak and mc-sweep; not de-large",
    "decoder.decode_us_per_frame": "frames_per_s, mostly on mc-peak; not de-large",
    "decoder.us_per_round": "frames_per_s, mostly on mc-peak; not de-large",
    "decoder.rounds_per_frame": "exact count; frames_per_s, mostly on mc-peak; not de-large",
    "decoder.decoded_frame_frac": "useful-outcome ratio; frames_per_s on mc-peak; not de-large",
    "decoder.deadlocked_frames": "exact count; frames_per_s on mc-peak; not de-large",
    "montecarlo.run_trials_s": "wall_s and frames_per_s on mc-sweep; not mc-peak",
    "montecarlo.us_per_frame_overhead": "wall_s and frames_per_s on mc-sweep; not mc-peak",
    "montecarlo.pool_start_s": "wall_s and frames_per_s on mc-sweep; not mc-peak",
    "density.de_s": "wall_s on de-large only",
    "density.rounds": "exact count; wall_s on de-large only",
    "density.ms_per_round": "wall_s on de-large only",
    "density.initial_hist_ms": "wall_s on de-large only",
    "density.peak_alloc_mb": "peak_rss_mb on de-large only",
    "csvio.emit_ms": "wall_s on all workloads, by a negligible amount",
    "csvio.bytes": "exact count; wall_s on all workloads, by a negligible amount",
    "cli.self_ms": "wall_s on all workloads, by a small amount",
}

# Per-layer metrics that are exact counts: they must repeat bit for bit.
COUNT_METRICS = (
    "model.bursts_per_frame",
    "decoder.rounds_per_frame",
    "decoder.decoded_frame_frac",
    "decoder.deadlocked_frames",
    "density.rounds",
    "csvio.bytes",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # csasim subcommand: simulate, sweep or de
    ns: int
    users: str  # the configuration's users= value
    # Median wall time of the reference copy (see run.py) on the 2-core host
    # the bounds were set on; it turns the paired time ratio into seconds.
    reference_wall_s: float
    frames: int | None = None
    g_grid: str | None = None
    workers: int | None = None
    expected_rows: int = 1
    # CSV SHA-256 and exact per-layer counts at DEFAULT_SEED, recorded from
    # the parent commit; a speed-up must leave them unchanged.
    default_sha256: str = ""
    default_counts: dict[str, float] = field(default_factory=dict)
    # Monte Carlo frames the traced probe simulates when the command itself
    # runs no frames, so every layer reports a measured value.
    probe_frames: int = 0

    def config_text(self, seed: int) -> str:
        return (
            f"# csasim benchmark workload {self.name}, seed {seed}\n"
            f"ns={self.ns}\nseed={seed}\nusers={self.users}\n"
        )

    def cli_args(self, config_path: str, out_path: str) -> list[str]:
        args = [self.command, "--config", config_path, "--out", out_path]
        if self.g_grid is not None:
            args += ["--g", self.g_grid]
        if self.frames is not None:
            args += ["--frames", str(self.frames)]
        if self.workers is not None:
            args += ["--workers", str(self.workers)]
        return args

    @property
    def code_labels(self) -> tuple[str, str]:
        """The n and k columns the CSV must carry for this population."""
        codes = [token.split("x", 1)[1].strip("()").split(",") for token in self.users.split()]
        return ";".join(n for n, _ in codes), ";".join(k for _, k in codes)

    def parameters(self) -> dict[str, object]:
        return {
            "command": self.command,
            "ns": self.ns,
            "users": self.users,
            "frames": self.frames,
            "g_grid": self.g_grid,
            "workers": self.workers,
        }


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's near-peak operating point (g=0.755, ~16 decoder rounds per
        # frame, ~3% deadlocked frames). Decoder-bound with placement about a
        # third; the plain single-threaded baseline.
        Workload(
            name="mc-peak",
            command="simulate",
            ns=400,
            users="302x(3,1)",
            frames=1500,
            workers=1,
            reference_wall_s=2.33,
            default_sha256="2b4e40da3c812a80d3bec15f9c0c4f4d10e49c6536431fc61f71b53884d89d7b",
            default_counts={
                "model.bursts_per_frame": 906.0,
                "decoder.rounds_per_frame": 16.078,
                "decoder.decoded_frame_frac": 0.9606666666666667,
                "decoder.deadlocked_frames": 59,
                "density.rounds": 7.0,
                "csvio.bytes": 114,
            },
        ),
        # Light points are placement- and per-frame-overhead-bound, heavy points
        # peeling-bound. The only workload on the multi-group placement path
        # and the process pool, which starts once per load point.
        Workload(
            name="mc-sweep",
            command="sweep",
            ns=400,
            users="2x(4,2) 3x(2,1)",
            frames=200,
            g_grid="0.05:1.0:0.05",
            workers=2,
            expected_rows=20,
            reference_wall_s=2.82,
            default_sha256="e7ff06e0a9edfce5b5807c3195576ad9fa155b8d69640fed2da5de68a149532e",
            default_counts={
                "model.bursts_per_frame": 420.0,
                "decoder.rounds_per_frame": 5.90675,
                "decoder.decoded_frame_frac": 0.587,
                "decoder.deadlocked_frames": 1652,
                "density.rounds": 2.0,
                "csvio.bytes": 1283,
            },
        ),
        # Pure density: 7 recursion rounds, each building a dense
        # (n_users+1)^2 thinning matrix. No Monte Carlo runs, so a decoder
        # change must leave it unmoved and a density change must leave mc-*
        # unmoved. 2000 users, not 3000: a 3000-user invocation took 5-8 s,
        # which left one or two timed pairs per 30 s run and a 21% spread
        # over ten runs.
        Workload(
            name="de-large",
            command="de",
            ns=2667,
            users="2000x(3,1)",
            reference_wall_s=3.25,
            default_sha256="795ac7626a3b1b0b391593f99a0a65dc8a0cbf2b5bbfd466e0eabcfcea3ad5ff",
            default_counts={
                "model.bursts_per_frame": 6000.0,
                "decoder.rounds_per_frame": 15.8,
                "decoder.decoded_frame_frac": 1.0,
                "decoder.deadlocked_frames": 0,
                "density.rounds": 7.0,
                "csvio.bytes": 205,
            },
            probe_frames=10,
        ),
    )
}
