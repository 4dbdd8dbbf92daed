import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csasim import (
    ConfigError,
    InternalError,
    SystemConfig,
    UserCode,
    parse_config,
    render_config,
)
from csasim import cli, configfile, csvio, density, montecarlo
from csasim.cli import main, parse_g_spec
from csasim.csvio import BASELINE_HEADER, DE_HEADER, SWEEP_HEADER, TRACE_HEADER
from helpers import user_codes


class TestParseConfig:
    def test_homogeneous(self):
        config = parse_config("ns=400\nusers=302x(3,1)\nseed=7\n")
        assert config.ns == 400
        assert config.seed == 7
        assert config.n_users == 302
        assert user_codes(config)[0] == UserCode(3, 1)
        assert config.total_payload / config.ns == pytest.approx(0.755)

    def test_round_curve_configuration(self):
        config = parse_config("users=10x(5,2)\nns=100\n")
        assert config.n_users == 10
        assert all(u == UserCode(5, 2) for u in user_codes(config))
        assert config.seed == 0

    def test_mixed_population(self):
        config = parse_config("ns=10\nusers=2x(4,2) 3x(2,1)\n")
        assert config.n_users == 5
        assert user_codes(config) == [UserCode(4, 2)] * 2 + [UserCode(2, 1)] * 3
        assert config.groups == ((UserCode(4, 2), 2), (UserCode(2, 1), 3))

    def test_comments_and_blank_lines(self):
        text = "# experiment\nns=8   # slots\n\nusers=1x(2,1)\n"
        assert parse_config(text).ns == 8

    def test_blanks_are_space_and_tab(self):
        config = parse_config("\tns =\t8 \nusers= 1x(2,1)\t \t1x(3,1)\t# two\tgroups\n")
        assert config == SystemConfig(8, ((UserCode(2, 1), 1), (UserCode(3, 1), 1)))

    @pytest.mark.parametrize("chars", [640, 641])
    @pytest.mark.parametrize(
        "template,model_diagnostic",
        [
            ("ns={}\nusers=1x(1,1)", "line 1: frame size ns must be <="),
            ("ns=4\nseed={}\nusers=1x(1,1)", "line 2: seed must be"),
            ("ns=4\nusers=1x(2,1) {}x(1,1)", "line 2: user group count must be <="),
            ("ns=4\nusers=1x(1,-{})", "line 2: need 1 <= k <= n"),
        ],
        ids=["ns", "seed", "count", "negative-k"],
    )
    def test_integer_text_over_640_characters_is_out_of_range(
        self, template, model_diagnostic, chars
    ):
        # 640 is the lowest limit int() can be set to, so longer text is not read
        digits = "9" * (chars - template.endswith("-{})"))
        with pytest.raises(ConfigError) as err:
            parse_config(template.format(digits))
        if chars == 640:
            assert str(err.value).startswith(model_diagnostic)
        else:
            line = model_diagnostic.split(":")[0]
            assert str(err.value) == f"{line}: integer of more than 640 characters is out of range"

    @pytest.mark.parametrize("mark", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1e"])
    def test_a_comment_holds_any_text_but_a_line_end(self, mark):
        # str.splitlines() would end the comment at each of these
        config = parse_config(f"ns=8  # caf\u00e9{mark}ns=9\r\nusers=1x(2,1)\rseed=1\n")
        assert (config.ns, config.seed) == (8, 1)
        with pytest.raises(ConfigError, match="^line 3: unknown key 'foo'"):
            parse_config(f"ns=8  # {mark}\r\nusers=1x(2,1)\rfoo=1\n")

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("ns=4\nfoo=3\nusers=1x(2,1)", "unknown key 'foo'", 2),
            ("ns=abc\nusers=1x(2,1)", "non-numeric value for 'ns'", 1),
            ("ns=4\nusers=1x(2,3)", "need 1 <= k <= n", 2),
            ("ns=4\nusers=1x(5,1)", "exceeds frame size", 2),
            ("ns=4\nusers=", "user list is empty", 2),
            ("ns=4\nusers=1x(2,1) garbage", "malformed user group", 2),
            ("ns=4\nusers=2x(\u0663,1)", "malformed user group", 2),  # an Arabic-Indic 3
            ("ns=4\nusers=2x(+3,1)", "malformed user group", 2),
            ("ns=\u30004\nusers=1x(2,1)", "non-numeric value for 'ns'", 1),  # an ideographic space
            ("ns=4\nusers=1x(2,1)\u30002x(2,1)", "malformed user group", 2),
            ("ns\xa0=4\nusers=1x(2,1)", "unknown key", 1),  # a no-break space
            ("ns=4\nusers=-1x(2,1)", "user group count must be >= 1, got -1", 2),
            ("ns=4\nusers=1x(-2,1)", "burst count n must be >= 1, got -2", 2),
            ("ns=1_000\nusers=1x(2,1)", "non-numeric value for 'ns'", 1),
            ("ns=4\nns=5\nusers=1x(2,1)", "duplicate key", 2),
            ("ns=4\nseed=x\nusers=1x(2,1)", "non-numeric value for 'seed'", 2),
            ("ns=4\nseed=-1\nusers=1x(2,1)", "seed must be", 2),
            ("ns=0\nusers=1x(1,1)", "ns must be >= 1", 1),
            ("ns=4\nusers=0x(3,1)", "user group count must be >= 1", 2),
            ("ns=4\nusers", "expected key=value", 2),
            ("ns=4\nusers=10000000000000000000x(1,1)", "user group count must be <=", 2),
            (f"ns={sys.maxsize}\nusers=1x({10**30},1)", "burst count n must be <=", 2),
            (f"ns={10**30}\nusers=1x(3,1)", "ns must be <=", 1),
            (f"ns=4\nseed={2**64}\nusers=1x(2,1)", "seed must be a 64-bit unsigned integer", 2),
        ],
    )
    def test_diagnostics_carry_line_numbers(self, text, fragment, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert fragment in str(err.value)
        assert f"line {line}:" in str(err.value)

    @pytest.mark.parametrize(
        "text,ns,seed",
        [
            (f"ns=4\nseed={2**64 - 1}\nusers=1x(2,1)", 4, 2**64 - 1),
            (f"ns={sys.maxsize}\nusers=1x(1,1)", sys.maxsize, 0),
        ],
        ids=["largest-seed", "largest-ns"],
    )
    def test_values_at_the_model_bounds_parse(self, text, ns, seed):
        config = parse_config(text)
        assert (config.ns, config.seed) == (ns, seed)

    @pytest.mark.parametrize(
        "text,diagnostic",
        [
            # a syntax or key error on any line comes before every range error
            ("ns=0\nfoo=1\nusers=1x(1,1)", "line 2: unknown key 'foo'"),
            ("ns=0\nseed=-1\nusers=1x(1,1) garbage", "line 3: malformed user group"),
            ("ns=0\nseed=-1", "missing required key 'users'"),
            # then the values, in the order ns, seed, users
            ("users=1x(5,1)\nseed=-1\nns=0", "line 3: frame size ns must be >= 1"),
            ("users=1x(5,1)\nseed=-1\nns=4", "line 2: seed must be"),
            ("users=1x(5,1)\nseed=1\nns=4", "line 1: burst count n=5 exceeds frame size ns=4"),
        ],
        ids=["unknown-key", "malformed-group", "missing-key", "ns", "seed", "users"],
    )
    def test_syntax_errors_come_before_range_errors(self, text, diagnostic):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(diagnostic)

    def test_missing_keys(self):
        with pytest.raises(ConfigError, match="missing required key 'ns'"):
            parse_config("users=1x(2,1)")
        with pytest.raises(ConfigError, match="missing required key 'users'"):
            parse_config("ns=4")


class TestRenderRoundTrip:
    def test_run_length_encoding_preserves_order(self):
        config = SystemConfig(
            ns=9,
            groups=((UserCode(3, 1), 1), (UserCode(2, 1), 2), (UserCode(3, 1), 1)),
            seed=4,
        )
        text = render_config(config)
        assert "users=1x(3,1) 2x(2,1) 1x(3,1)" in text
        assert parse_config(text) == config

    def test_random_round_trips(self):
        rng = random.Random(2024)
        for _ in range(1000):
            ns = rng.randint(1, 30)
            groups = []
            for _ in range(rng.randint(1, 8)):
                n = rng.randint(1, ns)
                groups.append((UserCode(n, rng.randint(1, n)), rng.randint(1, 3)))
            config = SystemConfig(
                ns=ns, groups=groups, seed=rng.randrange(2**64)
            )
            assert parse_config(render_config(config)) == config


class TestGSpec:
    def test_range(self):
        values = parse_g_spec("0.05:1.0:0.05")
        assert len(values) == 20
        assert values[0] == pytest.approx(0.05)
        assert values[-1] == pytest.approx(1.0)

    def test_comma_list_and_single(self):
        assert parse_g_spec("0.2,0.4") == (0.2, 0.4)
        assert parse_g_spec("0.63") == (0.63,)

    @pytest.mark.parametrize(
        "bad", ["", "1:2", "0.5:0.1:0.1", "1:2:0", "a,b", "-1", "0_5", "\u0660.\u0665"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_g_spec(bad)


# ASCII digits and signs, an underscore, and the Arabic-Indic and fullwidth
# digits, which int() reads as their values
INTEGER_ALPHABET = (
    "0123456789-+_"
    + "".join(map(chr, range(0x660, 0x66A)))
    + "".join(map(chr, range(0xFF10, 0xFF1A)))
)


def _seed_flag(text: str) -> int | None:
    """``--seed``'s value as the command line reads it, None where refused."""
    argv = ["simulate", "--config", "c", "--frames", "1", f"--seed={text}", "--out", "o"]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.build_parser().parse_args(argv).seed
    except SystemExit:
        return None


@settings(max_examples=300, deadline=None)
@given(st.text(INTEGER_ALPHABET, max_size=6))
@example("1_0")
@example("--")
@example("+5")
@example("\u0661\u0661")
@example("\uff17")
@example("-0")
@example("")
def test_flags_and_config_accept_the_same_integers(text):
    try:
        value = configfile.integer(text)
    except ValueError:
        value = None
    assert _seed_flag(text) == value
    try:
        seed = parse_config(f"ns=4\nseed={text}\nusers=1x(2,1)\n").seed
    except ConfigError as exc:  # a syntax error, or a value out of the seed's range
        assert ("non-numeric value for 'seed'" in str(exc)) == (value is None)
    else:
        assert seed == value


# text that has broken the input layer before: a 700-digit integer, digits
# int() reads but the syntax refuses, a lone ``--``, Unicode blanks, line
# ends that are not a config file's, and load grids that are no grid
HUGE_DIGITS = "9" * 700
BAD_INTEGERS = st.sampled_from(
    ["-1", "0", HUGE_DIGITS, "-" + HUGE_DIGITS, "1_0", "+3", "\u0661", "\uff17", "", "--", "x"]
)
BAD_GRIDS = st.sampled_from(
    ["0.01", "nan", "inf", "1e306", "-1", "", "a,b", "0.5:0.1:0.1", "0:1e308:1e-10", "1_0"]
)


def _mostly(draw, good, bad):
    """A draw from ``good``, or one time in ten from ``bad``, so that many
    cases hold no fault; it shrinks to ``good``."""
    return draw(bad if draw(st.integers(0, 9)) == 9 else good)


@st.composite
def config_texts(draw) -> bytes:
    """A config file, its values and text well-formed or, now and then, not:
    junk lines, Unicode blanks, foreign line ends, a BOM, Latin-1 bytes."""

    def small(low, high):
        return _mostly(draw, st.integers(low, high).map(str), BAD_INTEGERS)

    def blank():
        return _mostly(draw, st.sampled_from(["", " ", "\t"]), st.sampled_from(["\u3000", "\xa0"]))

    def group():
        n = draw(st.integers(1, 4))
        return f"{small(1, 12)}x({small(n, n)},{small(1, n)})"

    lines = [
        "ns=" + small(8, 40),
        "users=" + blank().join(group() for _ in range(draw(st.integers(1, 3)))),
    ]
    if draw(st.booleans()):
        lines.append("seed=" + small(0, 99))
    for _ in range(draw(st.integers(0, 2))):
        junk = st.sampled_from(["junk", "ns", "=4", "users="])
        lines.append(_mostly(draw, st.sampled_from(["", "# caf\u00e9"]), junk))
    end = _mostly(draw, st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["\x0b", "\u2028"]))
    text = end.join(blank() + line + blank() for line in draw(st.permutations(lines))) + end
    text = draw(st.sampled_from(["", "\ufeff"])) + text
    return text.encode(_mostly(draw, st.just("utf-8"), st.just("latin-1")), errors="replace")


@st.composite
def command_lines(draw) -> list[str]:
    """A command other than ``baseline``, without its ``--config`` and
    ``--out``: flag values well-formed or, now and then, not, written as two
    words or as ``--FLAG=VALUE``. Frame counts stay within one 64-frame
    block, and only ``simulate``, one block long, may ask for two workers, so
    no pool starts."""
    command = draw(st.sampled_from(["de", "trace", "simulate", "sweep"]))
    numbers = lambda low, high: st.integers(low, high).map(str)
    flags = {}
    if command == "trace":
        flags["--frame-index"] = (numbers(0, 99), BAD_INTEGERS)
    if command in ("simulate", "sweep"):
        flags["--frames"] = (numbers(1, 64), BAD_INTEGERS)
        flags["--seed"] = (numbers(0, 99), BAD_INTEGERS)
        flags["--workers"] = (numbers(1, 2 if command == "simulate" else 1), BAD_INTEGERS)
    if command == "sweep":
        flags["--g"] = (st.sampled_from(["0.2,0.6", "0.1:0.5:0.2", "0.01,0.5"]), BAD_GRIDS)
    argv = [command]
    for flag, (good, bad) in flags.items():
        if flag in ("--seed", "--workers") and draw(st.booleans()):
            continue  # optional
        value = _mostly(draw, good, bad)
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


@settings(max_examples=100, deadline=None)
@given(command_lines(), config_texts())
def test_every_command_line_exits_with_a_csv_or_one_error_line(argv, config_text):
    with tempfile.TemporaryDirectory() as scratch:
        config, out = Path(scratch, "exp.cfg"), Path(scratch, "out.csv")
        config.write_bytes(config_text)
        out.write_text("earlier\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = main([*argv, "--config", str(config), "--out", str(out)])
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        lines = stderr.getvalue().splitlines()
        if code == 0:
            header = {"de": DE_HEADER, "trace": TRACE_HEADER}.get(argv[0], SWEEP_HEADER)
            assert out.read_text().splitlines()[0] == ",".join(header)
            return
        assert out.read_text() == "earlier\n"
        if code == 1:
            # a sweep prints a warning for each skipped load, as logged
            *skipped, last = lines
            assert last.startswith("error: ")
            assert all(line.startswith("skipping G=") for line in skipped)
        else:
            assert code == 2
            assert lines[-1].startswith(f"csasim {argv[0]}: error: ")
            assert lines[0].startswith("usage: csasim ")
            assert sum("error:" in line for line in lines) == 1


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("ns=30\nusers=8x(3,1)\nseed=11\n")
    return path


SIMULATE_ONE = ["simulate", "--frames", "1"]
# the C locale, with neither of Python's ways round its ASCII encoding
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def run_cli(argv: list[str], **environment: str) -> subprocess.CompletedProcess:
    """``python -m csasim.cli`` in a subprocess, with ``environment`` added."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "csasim.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, **environment},
        capture_output=True,
        text=True,
    )
TRACE_ONE = ["trace", "--frame-index", "0"]
# two groups of this many users hold more than sys.maxsize users together
HALF_MAX = 5 * 10**18
OUT_OF_RANGE = "integer of more than 640 characters is out of range"


class TestCommandLine:
    def test_simulate(self, tmp_path, config_file, capsys):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--config", str(config_file), "--frames", "50", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[1] == "30" and row[2] == "3" and row[3] == "1"
        assert row[-1] == "11"

    def test_seed_override_changes_output(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--config", str(config_file), "--frames", "40"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--seed", "999", "--out", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()

    def test_sweep(self, tmp_path, config_file):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--g",
                "0.2:0.6:0.2",
                "--frames",
                "30",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 4
        loads = [float(line.split(",")[0]) for line in lines[1:]]
        assert loads == sorted(loads)

    def test_sweep_reports_skipped_load_on_stderr(self, tmp_path):
        # a subprocess, so that no test logging handler stands in for the
        # last-resort handler that prints the warning
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = "import sys; from csasim.cli import main; sys.exit(main(sys.argv[1:]))"
        config = tmp_path / "light.cfg"
        config.write_text("ns=20\nusers=1x(4,2)\n")
        out = tmp_path / "sweep.csv"
        flags = ["--config", str(config), "--g", "0.01,0.5", "--frames", "10", "--out", str(out)]
        result = subprocess.run(
            [sys.executable, "-c", probe, "sweep", *flags],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stderr == "skipping G=0.01: load too small for one user\n"
        assert len(out.read_text().splitlines()) == 2

    def test_de(self, tmp_path, config_file):
        out = tmp_path / "de.csv"
        assert main(["de", "--config", str(config_file), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(DE_HEADER)
        assert len(lines) >= 2
        assert lines[1].startswith("0,")

    def test_trace(self, tmp_path, config_file):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "trace",
                "--config",
                str(config_file),
                "--frame-index",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)

    def test_baseline(self, tmp_path):
        out = tmp_path / "base.csv"
        code = main(
            ["baseline", "--variant", "slotted", "--g", "0.5,1.0", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(BASELINE_HEADER)
        assert lines[2] == "1,0.367879,slotted"

    def test_byte_identical_reruns(self, tmp_path, config_file):
        args = lambda path: [
            "sweep",
            "--config",
            str(config_file),
            "--g",
            "0.2,0.4",
            "--frames",
            "25",
            "--out",
            str(path),
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args(out1)) == 0
        assert main(args(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config_file_fails(self, tmp_path, capsys):
        code = main(
            ["de", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_reports_path(self, config_file, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        code = main(["de", "--config", str(config_file), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        # the path as given, not the temporary file written beside it
        assert repr(str(out)) in err
        assert ".tmp" not in err

    def test_bad_config_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("ns=4\nusers=1x(9,1)\n")
        code = main(["de", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "exceeds frame size" in err

    @pytest.mark.parametrize(
        "text,command,diagnostic",
        [
            (f"ns={sys.maxsize}\nusers=10000000000000000000x(1,1)", ["de"], "error: line 2: "),
            (f"ns={sys.maxsize}\nusers=1x({10**30},1)", SIMULATE_ONE, "error: line 2: "),
            (f"ns={sys.maxsize}\nusers=1x({10**30},1)", TRACE_ONE, "error: line 2: "),
            (f"ns={10**30}\nusers=1x(3,1)", SIMULATE_ONE, "error: line 1: frame size ns must be <="),
            (f"ns={10**30}\nusers=1x(3,1)", TRACE_ONE, "error: line 1: frame size ns must be <="),
            (f"ns={10**30}\nusers=1x(3,1)", ["de"], "error: line 1: frame size ns must be <="),
            (f"ns={sys.maxsize}\nusers={HALF_MAX}x(1,1) {HALF_MAX}x(1,1)", ["de"], "error: line 2: "),
            (f"ns={sys.maxsize}\nusers={HALF_MAX}x(1,1) {HALF_MAX}x(1,1)", SIMULATE_ONE, "error: line 2: "),
            (f"ns=30\nusers=1x({'7' * 5000},1)", ["de"], f"error: line 2: {OUT_OF_RANGE}"),
            (f"ns=30\nseed={'7' * 5000}\nusers=1x(3,1)", ["de"], f"error: line 2: {OUT_OF_RANGE}"),
        ],
        ids=[
            "count-de", "n-simulate", "n-trace", "ns-simulate", "ns-trace", "ns-de",
            "total-de", "total-simulate", "5000-digit-n-de", "5000-digit-seed-de",
        ],
    )
    def test_oversized_integer_in_config_exits_1_with_one_line(
        self, tmp_path, capsys, text, command, diagnostic
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text + "\n")
        out = tmp_path / "x.csv"
        code = main([*command, "--config", str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(diagnostic)
        assert "7" * 100 not in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "digits,diagnostic",
        [(640, "error: line 2: seed must be a 64-bit"), (641, f"error: line 2: {OUT_OF_RANGE}")],
    )
    def test_integer_text_bound_holds_at_the_lowest_digit_limit(self, tmp_path, digits, diagnostic):
        # 640 is the lowest limit PYTHONINTMAXSTRDIGITS takes
        config = tmp_path / "exp.cfg"
        config.write_text(f"ns=30\nseed={'9' * digits}\nusers=1x(3,1)\n")
        result = run_cli(
            ["de", "--config", str(config), "--out", str(tmp_path / "x.csv")],
            PYTHONINTMAXSTRDIGITS="640",
        )
        assert result.returncode == 1
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(diagnostic)

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "above-64-bit"])
    @pytest.mark.parametrize(
        "command", [["simulate"], ["sweep", "--g", "0.5"]], ids=["simulate", "sweep"]
    )
    def test_out_of_range_seed_override_exits_1_with_one_line(
        self, tmp_path, config_file, capsys, command, seed
    ):
        out = tmp_path / "x.csv"
        flags = ["--config", str(config_file), "--frames", "2", "--seed", str(seed)]
        code = main([*command, *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: seed must be a 64-bit unsigned integer, got {seed}\n"
        assert not out.exists()

    def test_bad_grid_fails(self, config_file, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--g",
                "nonsense",
                "--frames",
                "5",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "load grid" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command,out_given",
        [
            (["de"], False),
            (["bogus"], True),
            (["simulate", "--frames", "x"], True),
            (["simulate", "--frames", "1_0"], True),
            (["simulate", "--frames", "1", "--seed", "\u0661\u0661"], True),
            (["simulate", "--frames", "1", "--workers", "+2"], True),
            (["trace", "--frame-index", " 3"], True),
            # argparse hands a flag written --FLAG=-- an empty list
            (["simulate", "--frames", "1", "--seed=--"], True),
            (["simulate", "--frames=--"], True),
            (["simulate", "--frames", "1", "--workers=--"], True),
            (["trace", "--frame-index=--"], True),
            (["sweep", "--frames", "1", "--g=--"], True),
            (["de", "--config=--"], True),
            (["de", "--out=--"], True),
            (["baseline", "--g", "0.5", "--variant=--"], True),
        ],
        ids=[
            "missing-out",
            "unknown-command",
            "non-integer-frames",
            "underscored-frames",
            "arabic-indic-seed",
            "plus-signed-workers",
            "space-led-frame-index",
            "dashes-seed",
            "dashes-frames",
            "dashes-workers",
            "dashes-frame-index",
            "dashes-g",
            "dashes-config",
            "dashes-out",
            "dashes-variant",
        ],
    )
    def test_usage_error_exits_2(self, tmp_path, config_file, command, out_given):
        # a subprocess, as argparse ends a usage error with sys.exit(2)
        out = tmp_path / "x.csv"
        config = [] if command[0] == "baseline" else ["--config", str(config_file)]
        flags = config + (["--out", str(out)] if out_given else [])
        result = run_cli([*command, *flags])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        err = result.stderr.splitlines()
        assert err[0].startswith("usage: csasim")
        assert sum(": error: " in line for line in err) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "value",
        ["1_0", "\u0661\u0661", "+5", "7" * 700],
        ids=lambda value: "700-digits" if len(value) == 700 else None,
    )
    @pytest.mark.parametrize(
        "command,flag",
        [
            (SIMULATE_ONE, "--frames"),
            (SIMULATE_ONE, "--seed"),
            (SIMULATE_ONE, "--workers"),
            (TRACE_ONE, "--frame-index"),
        ],
        ids=["frames", "seed", "workers", "frame-index"],
    )
    def test_integer_flags_take_the_config_integer_syntax(
        self, tmp_path, config_file, capsys, command, flag, value
    ):
        # a later flag overrides an earlier one, so SIMULATE_ONE's --frames 1 too
        out = tmp_path / "x.csv"
        argv = [*command, flag, value, "--config", str(config_file), "--out", str(out)]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err.splitlines()
        # text too long for any range gets the config file's short message
        message = OUT_OF_RANGE if len(value) == 700 else f"invalid integer value: {value!r}"
        assert [line for line in err if ": error: " in line] == [
            f"csasim {command[0]}: error: argument {flag}: {message}"
        ]
        assert not out.exists()

    def test_config_gives_the_same_bytes_under_the_c_locale(self, tmp_path):
        # the config is read as UTF-8; the C locale's own encoding is ASCII
        config = tmp_path / "exp.cfg"
        config.write_bytes("ns=30\nusers=8x(3,1)  # caf\u00e9\nseed=11\n".encode())
        outputs = []
        for name, environment in [("default", {}), ("c-locale", C_LOCALE)]:
            out = tmp_path / f"{name}.csv"
            result = run_cli(["de", "--config", str(config), "--out", str(out)], **environment)
            assert (result.returncode, result.stderr) == (0, "")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_config_with_a_byte_order_mark_gives_the_same_bytes(self, tmp_path, config_file):
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + config_file.read_bytes())
        outputs = []
        for config in (config_file, marked):
            out = tmp_path / f"{config.stem}.csv"
            assert main(["de", "--config", str(config), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("environment", [{}, C_LOCALE], ids=["default", "c-locale"])
    def test_config_that_is_not_utf8_exits_1_naming_it(self, tmp_path, environment):
        config = tmp_path / "latin1.cfg"
        config.write_bytes("ns=30\nusers=8x(3,1)  # caf\u00e9\n".encode("latin-1"))
        out = tmp_path / "x.csv"
        out.write_text("stale\n")
        result = run_cli(["de", "--config", str(config), "--out", str(out)], **environment)
        assert result.returncode == 1
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {config}: not UTF-8 text")
        assert out.read_text() == "stale\n"

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_rejects_workers_below_one(self, tmp_path, config_file, capsys, workers):
        out = tmp_path / "x.csv"
        code = main(
            [
                "simulate",
                "--config",
                str(config_file),
                "--frames",
                "2",
                "--workers",
                workers,
                "--out",
                str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: --workers must be >= 1, got {workers}\n"
        assert not out.exists()

    def test_internal_error_exits_3_with_one_line(
        self, tmp_path, config_file, capsys, monkeypatch
    ):
        def broken(config):
            raise InternalError("q increased from 0.1 to 0.2")

        monkeypatch.setattr(density, "de_iterate", broken)
        code = main(
            ["de", "--config", str(config_file), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: internal: q increased from 0.1 to 0.2\n"

    def test_memory_error_exits_1_with_one_line(
        self, tmp_path, config_file, capsys, monkeypatch
    ):
        message = "Unable to allocate 72.8 TiB for an array with shape (10**13,)"

        def too_large(config, frames, workers=1, *, chunks=None):
            raise MemoryError(message)

        monkeypatch.setattr(montecarlo, "run_trials", too_large)
        out = tmp_path / "x.csv"
        code = main(
            [
                "simulate",
                "--config",
                str(config_file),
                "--frames",
                "10000000000000",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["simulate"], ["sweep", "--g", "0.2,0.4"]], ids=["simulate", "sweep"]
    )
    def test_dead_worker_exits_1_with_one_line(self, tmp_path, config_file, command):
        # a subprocess with two usable CPUs, whose every pool worker exits at
        # its first block; 100 frames are two blocks a point, so a pool starts
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def die(config, start, stop): os._exit(1)\n"
            "from csasim import montecarlo; montecarlo._simulate_range = die\n"
            "from csasim.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        out = tmp_path / "x.csv"
        out.write_text("earlier\n")
        flags = ["--config", str(config_file), "--frames", "100", "--workers", "2"]
        result = subprocess.run(
            [sys.executable, "-c", probe, *command, *flags, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr.startswith(
            "error: A process in the process pool was terminated abruptly"
        )
        assert result.stderr.count("\n") == 1
        assert out.read_text() == "earlier\n"

    @pytest.mark.parametrize("frames", [10**30, sys.maxsize], ids=["above-maxsize", "maxsize"])
    @pytest.mark.parametrize(
        "command", [["simulate"], ["sweep", "--g", "0.5"]], ids=["simulate", "sweep"]
    )
    def test_huge_frame_count_exits_1_with_one_line(self, tmp_path, config_file, command, frames):
        # a subprocess, so that a warning printed by a pool worker shows too;
        # the probe makes the package see two usable CPUs, whatever the host has
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from csasim.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        out = tmp_path / "x.csv"
        out.write_text("earlier\n")
        flags = ["--config", str(config_file), "--frames", str(frames), "--workers", "2"]
        result = subprocess.run(
            [sys.executable, "-c", probe, *command, *flags, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert str(frames) in result.stderr
        assert out.read_text() == "earlier\n"

    @pytest.mark.parametrize(
        "command",
        [["simulate", "--frames", "2", "--workers", "2"], ["trace", "--frame-index", "0"]],
        ids=["simulate", "trace"],
    )
    def test_huge_population_placement_exits_1_with_one_line(self, tmp_path, command):
        # 2**62 users pass the config checks, but no placement array holds them
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from csasim.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        config = tmp_path / "huge.cfg"
        config.write_text(f"ns={sys.maxsize}\nusers={2**62}x(1,1)\n")
        out = tmp_path / "x.csv"
        out.write_text("earlier\n")
        result = subprocess.run(
            [sys.executable, "-c", probe, *command, "--config", str(config), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr == (
            f"error: out of memory: cannot hold the placement arrays of {2**62} users\n"
        )
        assert out.read_text() == "earlier\n"

    @pytest.mark.parametrize("ns", [2**62, sys.maxsize], ids=["2**62", "maxsize"])
    @pytest.mark.parametrize(
        "command",
        [["simulate", "--frames", "1"], ["trace", "--frame-index", "0"]],
        ids=["simulate", "trace"],
    )
    def test_huge_frame_exits_1_with_one_line(self, tmp_path, capsys, command, ns):
        # one user fits, but no array holds the frame's slot degrees
        config = tmp_path / "huge.cfg"
        config.write_text(f"ns={ns}\nusers=1x(1,1)\n")
        out = tmp_path / "x.csv"
        out.write_text("earlier\n")
        assert main([*command, "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: out of memory: cannot hold the slot degrees of a frame of {ns} slots\n"
        )
        assert out.read_text() == "earlier\n"

    def test_de_on_a_huge_population_writes_a_csv(self, tmp_path):
        # the slot-degree law is kept as its window around the mode, so de's
        # memory does not grow with the 2**62 users
        config = tmp_path / "huge.cfg"
        config.write_text(f"ns={sys.maxsize}\nusers={2**62}x(1,1)\n")
        out = tmp_path / "de.csv"
        assert main(["de", "--config", str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(DE_HEADER) and len(lines) > 1

    @pytest.mark.parametrize(
        "command,grid",
        [
            ("sweep", "inf"),
            ("sweep", "1e400"),
            ("sweep", "0:inf:0.1"),
            ("sweep", "nan"),
            ("baseline", "nan,inf"),
        ],
    )
    def test_non_finite_grid_exits_1_with_one_line(
        self, tmp_path, config_file, capsys, command, grid
    ):
        out = tmp_path / "x.csv"
        if command == "sweep":
            flags = ["--config", str(config_file), "--frames", "2"]
        else:
            flags = ["--variant", "slotted"]
        code = main([command, "--g", grid, "--out", str(out)] + flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: bad load grid {grid!r} (values must be finite)\n"
        assert not out.exists()

    @pytest.mark.parametrize("g", ["1e306", "1e300"])
    def test_load_beyond_any_user_count_exits_1_with_one_line(self, tmp_path, capsys, g):
        config = tmp_path / "exp.cfg"
        config.write_text("ns=400\nusers=302x(3,1)\n")
        out = tmp_path / "x.csv"
        code = main(
            ["sweep", "--config", str(config), "--g", g, "--frames", "2", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: load G={float(g):g} needs ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:1e308:1e-10", "0:1e9:1e-9", "0:1:0.000001"])
    def test_oversized_grid_exits_1_without_building_it(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        tracemalloc.start()
        code = main(["baseline", "--variant", "slotted", "--g", grid, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: bad load grid {grid!r} (more than 1000000 points)\n"
        assert peak < 2**20
        assert not out.exists()

    def test_grid_at_the_cap_is_built(self):
        grid = parse_g_spec("0:0.999999:0.000001")
        assert len(grid) == 10**6 and grid[-1] == 0.999999

    def test_negative_frame_index_exits_1_with_one_line(self, tmp_path, config_file, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["trace", "--config", str(config_file), "--frame-index", "-1", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: frame_index must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,fragment",
        [
            (["--workers", "0", "--g", "0.2"], "--workers must be >= 1"),
            (["--workers", "1", "--g", "nonsense"], "bad load grid"),
        ],
    )
    def test_flags_checked_before_config_is_read(self, tmp_path, capsys, flags, fragment):
        missing = str(tmp_path / "nope.cfg")
        code = main(
            ["sweep", "--config", missing, "--frames", "2", "--out", str(tmp_path / "x.csv")]
            + flags
        )
        assert code == 1
        err = capsys.readouterr().err
        assert fragment in err and "nope.cfg" not in err

    def test_no_argv_reads_sys_argv(self, monkeypatch, tmp_path, config_file):
        # the path of the console script and of `python -m csasim.cli`
        explicit, from_argv = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["de", "--config", str(config_file), "--out", str(explicit)]) == 0
        argv = ["csasim", "de", "--config", str(config_file), "--out", str(from_argv)]
        monkeypatch.setattr(sys, "argv", argv)
        assert main() == 0
        assert from_argv.read_bytes() == explicit.read_bytes()

    def test_no_argv_checks_flags_from_sys_argv(self, monkeypatch, tmp_path, config_file, capsys):
        out = tmp_path / "x.csv"
        argv = ["csasim", "simulate", "--config", str(config_file), "--frames", "2"]
        monkeypatch.setattr(sys, "argv", argv + ["--workers", "0", "--out", str(out)])
        assert main() == 1
        assert capsys.readouterr().err == "error: --workers must be >= 1, got 0\n"
        assert not out.exists()

    def test_symlinked_out_replaces_its_target(self, tmp_path, config_file):
        target = tmp_path / "real.csv"
        target.write_text("stale\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        assert main(["de", "--config", str(config_file), "--out", str(link)]) == 0
        fresh = tmp_path / "fresh.csv"
        assert main(["de", "--config", str(config_file), "--out", str(fresh)]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "fresh.csv", "link.csv", "real.csv"]

    def test_fifo_out_is_written_through(self, tmp_path, config_file):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["de", "--config", str(config_file), "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        fresh = tmp_path / "fresh.csv"
        assert main(["de", "--config", str(config_file), "--out", str(fresh)]) == 0
        assert received == [fresh.read_bytes()]
        assert fifo.is_fifo()

    def test_failed_write_keeps_earlier_file(self, tmp_path, config_file, monkeypatch):
        out = tmp_path / "de.csv"
        assert main(["de", "--config", str(config_file), "--out", str(out)]) == 0
        before = out.read_bytes()
        write = csvio._write

        def fail_partway(handle, header, rows):
            write(handle, header, rows[:1])
            handle.flush()
            raise OSError("disk full")

        monkeypatch.setattr(csvio, "_write", fail_partway)
        code = main(
            [
                "sweep",
                "--config",
                str(config_file),
                "--g",
                "0.2,0.4",
                "--frames",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["de.csv", "exp.cfg"]

    def test_failed_write_reraises_other_errors_unchanged(self, tmp_path, monkeypatch):
        out = tmp_path / "x.csv"
        out.write_text("earlier\n")
        write = csvio._write
        error = RuntimeError("interrupted")

        def fail_partway(handle, header, rows):
            write(handle, header, rows[:1])
            handle.flush()
            raise error

        monkeypatch.setattr(csvio, "_write", fail_partway)
        result = density.BaselineCurve("slotted", ((0.5, 0.3), (1.0, 0.4)))
        with pytest.raises(RuntimeError) as raised:
            csvio.emit_csv(result, out)
        assert raised.value is error
        assert out.read_text() == "earlier\n"
        assert os.listdir(tmp_path) == ["x.csv"]

    def test_unknown_result_type_is_rejected_before_writing(self, tmp_path):
        out = tmp_path / "x.csv"
        with pytest.raises(TypeError, match="cannot serialize object"):
            csvio.emit_csv(object(), out)
        assert not out.exists()


# exact `de` output (config text, CSV text) for the AC-4 config and the
# three benchmark configs, where the closed-form recursion must reproduce the
# numbers of dense histogram thinning byte for byte, and for a mixture with
# large codes, recorded before the log-factorial table was shared per run
DE_PINNED = {
    "ac4": (
        "ns=100\nusers=10x(5,2)\n",
        """\
l,p,q,beta
0,0.369751,0.0658114,0.934189
1,0.0261308,2.28247e-06,0.999965
2,9.06268e-07,0,1
""",
    ),
    "mc-peak": (
        "ns=400\nusers=302x(3,1)\n",
        """\
l,p,q,beta
0,0.896275,0.719985,0.280015
1,0.807401,0.526342,0.268954
2,0.689094,0.327217,0.378318
3,0.493535,0.120213,0.632619
4,0.199579,0.00794955,0.933871
5,0.0133317,2.36949e-06,0.999702
6,3.97374e-06,0,1
""",
    ),
    "mc-sweep": (
        "ns=400\nusers=2x(4,2) 3x(2,1)\n",
        """\
l,p,q,beta
0,0.0268761,0.000463831,0.999536
1,1.24694e-05,9.32943e-11,1
""",
    ),
    "de-large": (
        "ns=2667\nusers=2000x(3,1)\n",
        """\
l,p,q,beta
0,0.894586,0.715923,0.284077
1,0.803198,0.518165,0.276227
2,0.679889,0.314278,0.393478
3,0.4751,0.10724,0.658775
4,0.177277,0.0055713,0.948048
5,0.00927575,7.9808e-07,0.999857
6,1.32874e-06,0,1
""",
    ),
    # codes with n >= 13 take log C(n, i) from the exact log-factorial table;
    # row 6's q, 4.0e-26 in exact arithmetic, is below the rounding of 1 - D: 0
    "large-n": (
        "ns=6000\nusers=2x(2667,1000) 1500x(3,1)\n",
        """\
l,p,q,beta
0,0.790979,0.495546,0.504454
1,0.658822,0.286909,0.421024
2,0.561518,0.176813,0.383734
3,0.3494,0.042598,0.759078
4,0.0845782,0.000604222,0.985816
5,0.00119979,1.72478e-09,0.999997
6,3.42485e-09,0,1
""",
    ),
}


@pytest.mark.parametrize("name", list(DE_PINNED))
def test_de_output_bytes_pinned(tmp_path, name):
    config_text, csv_text = DE_PINNED[name]
    path = tmp_path / "exp.cfg"
    path.write_text(config_text)
    out = tmp_path / "de.csv"
    assert main(["de", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == csv_text.encode()


# exact Monte Carlo output (config text, arguments, CSV text) recorded before
# placements became one flat burst array: the tier-1 config, a dense mixture
# (n > ns/2 and several code groups) on two workers, a short sweep of the
# mc-sweep mixture, and the decoder trace of one mc-peak frame; a changed RNG
# draw order or decoding rule shows here. The interleaved entries were
# recorded while a config still held one code per user.
MC_PINNED = {
    "simulate": (
        "ns=30\nusers=8x(3,1)\nseed=11\n",
        ["simulate", "--frames", "50"],
        """\
g,ns,n,k,frames,throughput,plr,t_ci95,plr_ci95,seed
0.266667,30,3,1,50,0.266667,0,0,0,11
""",
    ),
    "simulate-dense-mixture": (
        "ns=12\nusers=2x(8,3) 3x(2,1) 1x(12,1)\nseed=5\n",
        ["simulate", "--frames", "40", "--workers", "2"],
        """\
g,ns,n,k,frames,throughput,plr,t_ci95,plr_ci95,seed
0.833333,12,8;2;12,3;1;1,40,0.0854167,0.845833,0.0415546,0.0553427,5
""",
    ),
    "sweep-mixture": (
        "ns=100\nusers=2x(4,2) 3x(2,1)\nseed=3\n",
        ["sweep", "--g", "0.2:1.0:0.4", "--frames", "20"],
        """\
g,ns,n,k,frames,throughput,plr,t_ci95,plr_ci95,seed
0.2,100,4;2,2;1,20,0.2,0,1.24804e-17,0,3
0.6,100,4;2,2;1,20,0.504,0.153488,0.0494702,0.0758698,3
0.99,100,4;2,2;1,20,0.1745,0.794366,0.0311035,0.0335956,3
""",
    ),
    # k = 1 users of two burst counts, peeled by the k = 1 rounds, with
    # PLR above 0
    "simulate-replica-mixture": (
        "ns=40\nusers=12x(3,1) 10x(2,1)\nseed=9\n",
        ["simulate", "--frames", "300", "--workers", "2"],
        """\
g,ns,n,k,frames,throughput,plr,t_ci95,plr_ci95,seed
0.55,40,3;2,1;1,300,0.534083,0.0289394,0.00505169,0.00918489,9
""",
    ),
    # a code repeated after other codes: per-user order decides which user
    # gets which placement row
    "simulate-interleaved": (
        "ns=12\nusers=1x(3,1) 2x(3,2) 1x(2,1) 1x(3,1)\nseed=5\n",
        ["simulate", "--frames", "40", "--workers", "2"],
        """\
g,ns,n,k,frames,throughput,plr,t_ci95,plr_ci95,seed
0.583333,12,3;3;2,1;2;1,40,0.416667,0.255,0.0640646,0.100224,5
""",
    ),
    "trace-interleaved": (
        "ns=12\nusers=1x(3,1) 2x(3,2) 1x(2,1) 1x(3,1)\nseed=5\n",
        ["trace", "--frame-index", "7"],
        """\
l,newly_decoded,p_empirical,q_empirical
0,4,0.785714,0.8
1,3,0.727273,0.6
2,0,0.666667,0.4
3,1;2,0.333333,0
""",
    ),
    "trace-peak": (
        "ns=400\nusers=302x(3,1)\nseed=1\n",
        ["trace", "--frame-index", "0"],
        """\
l,newly_decoded,p_empirical,q_empirical
0,2;5;6;8;12;27;28;30;32;33;38;39;47;53;54;55;64;65;67;69;75;77;80;84;88;91;92;96;99;103;104;108;112;113;121;125;126;129;131;132;133;134;135;139;143;145;147;149;154;159;168;184;186;190;197;198;206;209;213;215;217;219;220;221;222;224;225;244;245;246;247;248;249;254;256;257;259;261;263;265;266;269;271;276;279;280;282;293;300,0.887417,0.705298
1,25;45;57;62;70;71;74;98;102;106;111;115;119;130;136;148;151;155;164;172;179;189;196;223;227;250;253;260;267;277;283;292,0.946792,0.599338
2,16;19;22;40;41;56;60;61;89;105;110;138;156;158;161;166;183;187;210;211;240;241;268;287,0.953959,0.519868
3,1;4;37;118;120;160;170;177;199;212;226;228;230;238;251;252;294,0.963907,0.463576
4,21;52;73;85;109;162;165;171;173;180;192;195;204;229;242;285;291;299,0.954762,0.403974
5,3;13;42;58;137;153;167;176;203;216;231;236;255;296,0.956284,0.357616
6,82;101;107;144;182;193;243;262;288,0.969136,0.327815
7,0;18;34;44;79;97;270;273,0.969697,0.301325
8,26;31;59;191;200;201;205;286,0.970696,0.274834
9,7;14;15;43;63;83;122;281,0.967871,0.248344
10,116;124;146;152;185;194;232;237,0.964444,0.221854
11,17;29;49;95;150;181;218;233;275,0.955224,0.192053
12,11;24;81;87;90;141;163;174;202;207;234;284;297,0.91954,0.149007
13,35;68;72;76;86;127;128;175;214;239;264;274;289,0.874074,0.10596
14,36;51;114;117;157;169;188;235;272;290;298,0.875,0.0695364
15,10;20;48;66;78;123;142;178;208;258;295;301,0.777778,0.0298013
16,9;23;46;50;93;140;278,0.518519,0.00662252
17,94;100,0.333333,0
""",
    ),
}


@pytest.mark.parametrize("name", list(MC_PINNED))
def test_monte_carlo_output_bytes_pinned(tmp_path, name):
    config_text, args, csv_text = MC_PINNED[name]
    path = tmp_path / "exp.cfg"
    path.write_text(config_text)
    out = tmp_path / "mc.csv"
    assert main(args + ["--config", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == csv_text.encode()


def test_cli_import_leaves_scipy_unloaded():
    # the package needs no scipy, and de not even numpy; importing
    # scipy.special alone would cost more than half of the command line's
    # start-up
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, csasim.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def loaded_modules(args, cwd):
    """Names of the modules that ``python args``, run in ``cwd``, imports,
    read off its ``-X importtime`` report; the run must succeed."""
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_cli_import_leaves_multiprocessing_unloaded(tmp_path):
    # each command loads only the modules it runs: de, trace, baseline and
    # one-worker runs start no pool, so they need not load the process-pool
    # machinery, and the analytic de and baseline need no Monte Carlo engine,
    # decoder or logging, nor baseline NumPy
    (tmp_path / "exp.cfg").write_text("ns=30\nusers=8x(3,1)\nseed=11\n")
    run = ["-m", "csasim.cli"]
    files = ["--config", "exp.cfg", "--out", "out.csv"]
    imported = loaded_modules(["-c", "import csasim.cli"], tmp_path)
    assert {"multiprocessing", "concurrent.futures.process"} & imported == set()
    de = loaded_modules([*run, "de", *files], tmp_path)
    assert "csasim.density" in de
    assert {"csasim.montecarlo", "csasim.decoder", "concurrent.futures", "logging"} & de == set()
    grid = ["--variant", "slotted", "--g", "0.5,1.0", "--out", "out.csv"]
    baseline = loaded_modules([*run, "baseline", *grid], tmp_path)
    assert "csasim.density" in baseline
    assert {"csasim.montecarlo", "csasim.decoder", "numpy", "logging"} & baseline == set()
    simulate = loaded_modules([*run, "simulate", "--frames", "5", "--workers", "1", *files], tmp_path)
    assert "csasim.montecarlo" in simulate
    assert "concurrent.futures" not in simulate


def test_de_and_config_parsing_load_no_numpy(tmp_path):
    # de computes in Python floats; NumPy loads only where frames are placed.
    # The records are named tuples, so neither loads dataclasses nor the
    # inspect module it imports
    (tmp_path / "exp.cfg").write_text("ns=30\nusers=8x(3,1)\nseed=11\n")
    run = ["-m", "csasim.cli"]
    files = ["--config", "exp.cfg", "--out", "out.csv"]
    parse = "import sys, csasim; csasim.parse_config(open(sys.argv[1]).read())"
    unloaded = {"numpy", "dataclasses", "inspect"}
    assert not unloaded & loaded_modules(["-c", parse, "exp.cfg"], tmp_path)
    assert not unloaded & loaded_modules([*run, "de", *files], tmp_path)
    simulate = loaded_modules([*run, "simulate", "--frames", "5", "--workers", "1", *files], tmp_path)
    assert "numpy" in simulate


def test_de_without_numpy_writes_the_same_bytes(tmp_path):
    config_text, _ = DE_PINNED["large-n"]
    (tmp_path / "exp.cfg").write_text(config_text)
    assert main(["de", "--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "de.csv")]) == 0
    blocked = "import sys; sys.modules['numpy'] = None; from csasim.cli import main; sys.exit(main())"
    subprocess.run(
        [sys.executable, "-c", blocked, "de", "--config", "exp.cfg", "--out", "blocked.csv"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        check=True,
    )
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "de.csv").read_bytes()


def test_package_exports_load_lazily():
    # `import csasim` loads no submodule and an export loads only the module
    # that defines it, while dir() and `import *` still give every export
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = textwrap.dedent(
        """
        import json, sys, csasim
        listed = dir(csasim)
        csasim.parse_config("ns=30\\nusers=8x(3,1)\\n")
        loaded = sorted(name for name in sys.modules if name.startswith("csasim."))
        star = {}
        exec("from csasim import *", star)
        star.pop("__builtins__")
        print(json.dumps([csasim.__all__, listed, loaded, sorted(star)]))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    exports, listed, loaded, star = json.loads(result.stdout)
    assert loaded == ["csasim.configfile", "csasim.model"]
    assert set(exports) <= set(listed)
    assert star == exports


def test_every_export_resolves():
    # a deleted name must leave __all__ too
    import csasim

    assert [name for name in csasim.__all__ if not hasattr(csasim, name)] == []


def test_every_export_has_a_caller_or_a_reader():
    # an export that no package module calls and the README does not
    # document is dead API
    import csasim

    package = Path(cli.__file__).resolve().parent
    lines = [
        line
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for line in path.read_text().splitlines()
    ]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def used(name):
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class) {name}\b")
        return bool(word.search(readme)) or any(
            word.search(line) and not own.match(line) for line in lines
        )

    assert [name for name in csasim.__all__ if not used(name)] == []


def load_perfbench(name):
    """Module ``perfbench/<name>.py``, loaded by path: perfbench is no package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    # perfbench/tracer.py wraps each TRACED function by name; a renamed one
    # would silently drop its layer from a traced benchmark run
    tracer = load_perfbench("tracer")
    missing = []
    for qualname in tracer.TRACED:
        module_name, func_name = qualname.split(".")
        module = importlib.import_module(f"csasim.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(qualname)
    assert tracer.TRACED and missing == []


BENCHMARK = load_perfbench("workloads")


@pytest.mark.parametrize("name", list(BENCHMARK.WORKLOADS))
def test_benchmark_output_bytes_pinned(tmp_path, name):
    # the benchmark rejects a change whose seed-1 CSV of a workload moves
    workload = BENCHMARK.WORKLOADS[name]
    path = tmp_path / "exp.cfg"
    path.write_text(workload.config_text(BENCHMARK.DEFAULT_SEED))
    out = tmp_path / "out.csv"
    assert main(workload.cli_args(str(path), str(out))) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == workload.default_sha256


def test_package_source_has_no_assert():
    # `python -O` strips assert statements, so no invariant may rest on one
    package = Path(cli.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_source_imports_no_private_name_across_modules():
    # none is allowed: montecarlo imports the public decoder.frame_counts as
    # the `_simulate_range` the benchmark traces (ROADMAP item 1)
    package = Path(cli.__file__).resolve().parent
    found = [
        (path.name, node.module, alias.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


class TestCsvFormatting:
    def test_six_significant_digits(self, tmp_path):
        from csasim import de_iterate, emit_csv

        config = parse_config("ns=25\nusers=10x(3,1)\n")
        out = tmp_path / "de.csv"
        emit_csv(de_iterate(config), out)
        text = out.read_text()
        for line in text.splitlines()[1:]:
            for cell in line.split(",")[1:]:
                mantissa = cell.replace(".", "").lstrip("-0").split("e")[0]
                assert len(mantissa) <= 6
