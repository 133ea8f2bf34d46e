"""End-to-end CLI behaviour: outputs, exit codes, manifests, replay."""

import argparse
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tickrng
from conftest import fed_fifo, rss_rise_mb
from tickrng.cli import build_parser, main
from tickrng.extract import BitStream
from tickrng.formats import read_bits, read_events, write_bits
from tickrng.manifest import read_manifest


def run(capsys, *argv) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_import_leaves_scipy_unloaded():
    """No runtime module needs scipy, the battery included, so a fresh
    ``import tickrng.cli, tickrng.suite`` must not load it."""
    code = (
        "import sys\n"
        "import tickrng.cli\n"
        "from tickrng.suite import run_battery, TestReport, TestEntry, TestId\n"
        "assert run_battery.__module__ == 'tickrng.suite'\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tickrng.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_leaves_the_thread_pool_unloaded():
    """Only a protocol round imports ``queue``, for its pair-number producer,
    and nothing imports ``concurrent.futures``, so a fresh
    ``import tickrng.cli, tickrng.qkd`` must load neither."""
    code = (
        "import sys\n"
        "import tickrng.cli, tickrng.qkd\n"
        "loaded = [m for m in ('concurrent.futures', 'queue') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tickrng.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# Each module and the package's modules beyond the root that importing it loads.
IMPORT_LOADS = {"tickrng": set(), "tickrng.suite": {"errors", "extract", "lfsr", "suite"}}


@pytest.mark.parametrize("module", IMPORT_LOADS)
def test_bare_package_import_loads_no_module(module):
    """The package root holds only ``__version__``, so a fresh
    ``import tickrng`` must load none of its modules and not numpy; the
    battery works on bits alone, so a fresh ``import tickrng.suite`` loads
    the bits layer and no simulator."""
    code = (
        "import sys\n"
        f"import {module}\n"
        "numpy = any(m.split('.')[0] == 'numpy' for m in sys.modules)\n"
        "print(numpy, *sorted(m for m in sys.modules if m.split('.')[0] == 'tickrng'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tickrng.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    numpy, *loaded = done.stdout.split()
    assert numpy == str(bool(IMPORT_LOADS[module]))
    assert set(loaded) == {"tickrng"} | {f"tickrng.{m}" for m in IMPORT_LOADS[module]}


# Each call, its exit code and its tickrng modules beyond the front end (the
# package root, ``cli``, ``errors`` and ``models``); a call loads numpy
# exactly when it loads one of them, and no call loads ``concurrent.futures``.
LAYERS_LOADED = {
    "version": (["--version"], 0, set()),
    "help": (["--help"], 0, set()),
    "usage-error": (["simulate", "--mu", "0.5", "--out", "x"], 1, set()),
    "negative-seed": (["simulate", "--mu", "0.5", "--events", "20", "--seed", "-1", "--out", "x"], 1, set()),
    "bias": (["bias", "--mu", "0.5", "--seed", "1"], 0, set()),
    "simulate": (["simulate", "--mu", "0.5", "--events", "20", "--seed", "1", "--out", "x"], 0,
                 {"sim", "extract", "formats", "manifest"}),
    "extract": (["extract", "--events", "events.txt", "--out", "x"], 0, {"extract", "formats", "manifest"}),
    "test": (["test", "--bits", "bits.txt", "--run-len", "100", "--out", "x"], 0,
             {"extract", "formats", "suite", "lfsr", "manifest"}),
    "protocol": (["protocol", "--mu", "0.5", "--gates", "100", "--seed", "1"], 0, {"sim", "extract", "qkd"}),
    "eve": (["eve", "--mu", "0.5", "--events", "100", "--seed", "1"], 0, {"sim", "extract", "qkd"}),
    "eve-out": (["eve", "--mu", "0.5", "--events", "100", "--seed", "1", "--out", "x"], 0,
                {"sim", "extract", "qkd", "manifest"}),
}

LOADED_AFTER_CALL = """
import sys
from tickrng.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:  # --version exits from inside argparse
    rc = exc.code
print(rc, *sorted(m for m in sys.modules if m in ("numpy", "concurrent.futures") or m.split(".")[0] == "tickrng"))
"""


@pytest.mark.parametrize("call", LAYERS_LOADED)
def test_each_call_loads_only_its_own_layers(tmp_path, call):
    """In a fresh interpreter: ``--version``, ``--help``, a usage error and an
    analytic ``bias`` load no numpy; ``simulate`` no battery and no ``qkd``;
    ``extract`` and ``test`` no simulator and no ``qkd``; ``protocol`` and ``eve``
    no battery and, writing only text and its manifest, no ``formats``; and a
    protocol round, whose producer thread takes ``queue``, no
    ``concurrent.futures``."""
    argv, exit_code, layers = LAYERS_LOADED[call]
    (tmp_path / "events.txt").write_text("1\n3\n4\n")
    (tmp_path / "bits.txt").write_text("0110" * 50)
    env = dict(os.environ, PYTHONPATH=str(Path(tickrng.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_CALL, *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True,
    )
    rc, *loaded = done.stdout.splitlines()[-1].split()
    assert int(rc) == exit_code, done.stderr
    front_end = {"tickrng", "tickrng.cli", "tickrng.errors", "tickrng.models"}
    numpy = {"numpy"} if layers else set()
    assert set(loaded) == front_end | numpy | {f"tickrng.{m}" for m in layers}


def test_battery_report_is_the_same_without_scipy(capsys, tmp_path):
    """``tickrng test --out`` in an interpreter where scipy cannot be
    imported writes the report the in-process run writes, byte for byte."""
    bits = np.random.Generator(np.random.PCG64(20261018)).integers(0, 2, 1_000_000, dtype=np.uint8)
    write_bits(BitStream(bits), tmp_path / "bits.bin", fmt="packed")
    argv = ["test", "--bits", str(tmp_path / "bits.bin"), "--bits-format", "packed", "--out"]
    rc, _, _ = run(capsys, *argv, str(tmp_path / "here.csv"))
    code = "import sys\nsys.modules['scipy'] = None\nfrom tickrng.cli import run\nrun()\n"
    env = dict(os.environ, PYTHONPATH=str(Path(tickrng.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, str(tmp_path / "there.csv")], env=env, capture_output=True,
    )
    assert (done.returncode, done.stderr) == (rc, b"")
    assert (tmp_path / "there.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


# A process's ru_maxrss starts at the peak of the process it was forked
# from, so each CLI call is launched by a small interpreter, not by pytest.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def fresh_peak_rss_mb(cwd: Path, *argv: str) -> float:
    """Peak RSS in MB of one CLI call in a fresh interpreter, from ``os.wait4``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tickrng.__file__).parents[1]))
    cli = [sys.executable, "-c", "from tickrng.cli import run\nrun()\n", *argv]
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *cli], cwd=cwd, env=env, capture_output=True, check=True)
    rc, maxrss_kib = map(int, done.stdout.split())
    assert rc == 0
    return maxrss_kib / 1024


def test_simulating_a_million_ascii_events_costs_little_memory_over_the_interpreter(tmp_path):
    # Formatting the whole file at once took about 62 MB over `--version`.
    argv = ["--mode", "gated", "--slots-per-gate", "2", "--mu-eta", "0.5", "--events", "1000000"]
    simulate = fresh_peak_rss_mb(tmp_path, "simulate", *argv, "--format", "ascii", "--out", "events.txt")
    assert simulate - fresh_peak_rss_mb(tmp_path, "--version") < 45


# A thread copies the file into a named pipe a piece at a time, so the
# feed adds no file-sized buffer to the peak.
FEED_FIFO = """
import os, shutil, threading
os.mkfifo("events.fifo")
def feed():
    with open("events.txt", "rb") as src, open("events.fifo", "wb") as dst:
        shutil.copyfileobj(src, dst)
threading.Thread(target=feed, daemon=True).start()
"""


@pytest.mark.parametrize("call", ["simulate", "extract", "extract-ascii", "extract-ascii-pipe", "extract-ascii-bad"])
def test_binary_events_stream_through_simulate_and_extract(tmp_path, call):
    """At 2x10^6 events (16 MB of slots) each call raises the peak RSS over
    its imports by a few MB, so it holds no whole stream; holding it took
    about 22 MB, and an ascii file's bytes and slots about 32 MB.  So does
    an ascii pipe, and a file whose last line is out of order."""
    from tickrng.formats import write_events
    from tickrng.models import Distribution, SourceModel
    from tickrng.sim import ClockConfig, ClockMode, IntraGateProfile, generate_gated

    clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=8, dead_slots=3)
    source = SourceModel(Distribution.POISSON, 0.5)
    setup = "from tickrng import extract, formats, sim\nfrom tickrng.cli import main\n"
    code = 0
    if call == "simulate":
        argv = ["simulate", "--mode", "gated", "--slots-per-gate", "8", "--dead-slots", "3", "--mu-eta", "0.5",
                "--events", "2000000", "--seed", "301", "--format", "binary", "--out", "events.bin"]
    else:
        fmt, name = ("binary", "events.bin") if call == "extract" else ("ascii", "events.txt")
        write_events(generate_gated(source, clock, IntraGateProfile.uniform(), 2_000_000, 301), tmp_path / name, fmt)
        if call == "extract-ascii-pipe":
            setup += FEED_FIFO
            name = "events.fifo"
        elif call == "extract-ascii-bad":
            with (tmp_path / name).open("ab") as fh:
                fh.write(b"1\n")
            code = 2
        argv = ["extract", "--events", name, "--events-format", fmt, "--debias",
                "--bits-format", "packed", "--out", "bits.bin"]
    assert rss_rise_mb(setup, f"assert main({argv!r}) == {code}", cwd=tmp_path) <= 14


def test_a_gated_simulation_peaks_no_higher_at_ten_times_the_events(tmp_path):
    """A dead-time ``simulate`` draws its gaps again beside its slots, so it
    holds no byte per event: at 2x10^7 binary events its peak RSS is
    within 1 MB of that at 2x10^6 (holding the gaps read 56.5 against 39.5 MB)."""
    def peak(n_events: int) -> float:
        argv = ["simulate", "--mode", "gated", "--slots-per-gate", "8", "--dead-slots", "3", "--mu-eta", "0.5",
                "--events", str(n_events), "--seed", "301", "--format", "binary", "--out", "events.bin"]
        return fresh_peak_rss_mb(tmp_path, *argv)

    assert abs(peak(20_000_000) - peak(2_000_000)) <= 1


def test_packed_bits_are_tested_one_run_at_a_time(tmp_path):
    """``test`` holds one run and the battery's work on it, not the bit file:
    at 2x10^6 packed bits its peak RSS rises about 7 MB over its imports
    (16 when it read the whole file and ran whole-run kernels), and at
    ``--run-len 100000`` it rises no more at 10^7 bits than at 10^6."""
    from tickrng.extract import BitStream
    from tickrng.formats import write_bits

    bits = np.random.Generator(np.random.PCG64(301)).integers(0, 2, size=10_000_000, dtype=np.uint8)
    for n in (1_000_000, 2_000_000, 10_000_000):
        write_bits(BitStream(bits[:n]), tmp_path / f"{n}.bin", fmt="packed")
    setup = "from tickrng import formats, manifest, suite\nfrom tickrng.cli import main\n"

    def rise(n: int, *options: str) -> float:
        argv = ["test", "--bits", f"{n}.bin", "--bits-format", "packed", *options, "--out", "report.csv"]
        return rss_rise_mb(setup, f"assert main({argv!r}) in (0, 3)", cwd=tmp_path)

    assert rise(2_000_000) <= 8
    assert abs(rise(10_000_000, "--run-len", "100000") - rise(1_000_000, "--run-len", "100000")) <= 1


def test_a_simulation_that_fails_while_streaming_leaves_no_file(capsys, tmp_path):
    """The first event is written before the dead time drops every later
    candidate; the error removes it."""
    out = tmp_path / "events.txt"
    argv = ["simulate", "--mode", "gated", "--dead-slots", "100000", "--mu-eta", "50", "--events", "2", "--out"]
    rc, stdout, err = run(capsys, *argv, str(out))
    assert (rc, stdout) == (2, "")
    assert err == "error: dead time rejected too many candidate clicks; gave up after 10000 batches\n"
    assert list(tmp_path.iterdir()) == []


def test_a_simulation_that_fails_while_streaming_keeps_the_earlier_output(capsys, tmp_path):
    out = tmp_path / "events.txt"
    rc, _, _ = run(capsys, "simulate", "--mu-eta", "0.5", "--events", "100", "--seed", "1", "--out", str(out))
    assert rc == 0
    earlier = {path: path.read_bytes() for path in tmp_path.iterdir()}
    argv = ["simulate", "--mode", "gated", "--dead-slots", "100000", "--mu-eta", "50", "--events", "2", "--out"]
    rc, _, err = run(capsys, *argv, str(out))
    assert (rc, err) == (2, "error: dead time rejected too many candidate clicks; gave up after 10000 batches\n")
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == earlier


def test_binary_events_are_extracted_from_a_pipe(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    simulate = ["simulate", "--mode", "gated", "--slots-per-gate", "4", "--mu-eta", "0.5", "--events", "50000",
                "--seed", "3", "--format", "binary", "--out", "events.bin"]
    assert run(capsys, *simulate)[0] == 0
    extract = ["extract", "--events-format", "binary", "--modulus", "mod4", "--bits-format", "packed"]
    assert run(capsys, *extract, "--events", "events.bin", "--out", "file.bin")[0] == 0
    with fed_fifo(tmp_path / "fifo", Path("events.bin").read_bytes()) as fifo:
        assert run(capsys, *extract, "--events", str(fifo), "--out", "pipe.bin")[0] == 0
    assert Path("pipe.bin").read_bytes() == Path("file.bin").read_bytes()


def test_packed_bits_are_tested_from_a_pipe(capsys, tmp_path, monkeypatch):
    """``--bits`` may name a pipe, as ``/dev/stdin`` does: the same report
    as from the file."""
    from tickrng.extract import BitStream
    from tickrng.formats import write_bits

    monkeypatch.chdir(tmp_path)
    bits = np.random.Generator(np.random.PCG64(7)).integers(0, 2, size=25_000, dtype=np.uint8)
    write_bits(BitStream(bits), "bits.bin", fmt="packed")
    argv = ["test", "--bits-format", "packed", "--run-len", "10000"]
    assert run(capsys, *argv, "--bits", "bits.bin", "--out", "file.csv")[0] in (0, 3)
    with fed_fifo(tmp_path / "fifo", Path("bits.bin").read_bytes()) as fifo:
        assert run(capsys, *argv, "--bits", str(fifo), "--out", "pipe.csv")[0] in (0, 3)
    assert Path("pipe.csv").read_bytes() == Path("file.csv").read_bytes()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(tickrng.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "tickrng.cli", "--version"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == f"tickrng {tickrng.__version__}\n"


# ------------------------------------------------------------------- bias


def test_bias_zero_intensity_is_fair(capsys):
    rc, out, _ = run(capsys, "bias", "--dist", "poisson", "--mu-eta", "0")
    assert rc == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["P_EVEN"] == "0.500000"
    assert lines["P_ODD"] == "0.500000"
    assert lines["predicted_balance"] == "1.000000"


def test_bias_thermal_closed_form(capsys):
    rc, out, _ = run(capsys, "bias", "--dist", "thermal", "--mu-eta", "0.5")
    assert rc == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["P_EVEN"] == "0.400000"  # 1 / (mu*eta + 2)


def test_bias_of_a_bright_poisson_source_does_not_overflow(capsys):
    rc, out, _ = run(capsys, "bias", "--dist", "poisson", "--mu-eta", "1000")
    assert rc == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["P_EVEN"] == "0.000000"
    assert lines["P_ODD"] == "1.000000"


# The mu*eta values of the pinned `bias` stdout: 0, the small values where the
# bias is a rounding error, the fair-to-saturated range, and the bright end
# where exp(mu*eta) would overflow.
BIAS_GRID = [
    "0", "1e-08", "1e-06", "0.0001", "0.001", "0.01", "0.05", "0.1", "0.25", "0.5",
    "1", "1.0986122886681098", "2", "3", "5", "10", "20", "36.7", "37", "100",
    "709.8", "710", "1000",
]


def test_bias_stdout_is_pinned(capsys):
    """The whole `bias` stdout for both distributions over BIAS_GRID, one run
    after another, is pinned in STDOUT_DIR/bias_grid.txt."""
    out = []
    for dist in ("poisson", "thermal"):
        for mu_eta in BIAS_GRID:
            rc, stdout, err = run(capsys, "bias", "--dist", dist, "--mu-eta", mu_eta)
            assert (rc, err) == (0, "")
            out.append(stdout)
    assert "".join(out) == (STDOUT_DIR / "bias_grid.txt").read_text()


def test_bias_monte_carlo_agrees_with_the_analytic_split(capsys):
    rc, out, _ = run(
        capsys, "bias", "--dist", "thermal", "--mu-eta", "0.5",
        "--mc-events", "20000", "--seed", "5",
    )
    assert rc == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert abs(float(lines["mc_even_fraction"]) - 0.4) < 3 * (0.4 * 0.6 / 20000) ** 0.5
    assert lines["mc_seed"] == "5"


def test_bias_usage_error_in_the_monte_carlo_part_prints_nothing(capsys):
    rc, out, err = run(capsys, "bias", "--mu", "0.5", "--mc-events", "-5")
    assert (rc, out) == (1, "")
    assert err == "usage error: n_events must be a non-negative integer, got -5\n"


def test_bias_requires_exactly_one_intensity(capsys):
    rc, _, err = run(capsys, "bias", "--dist", "poisson")
    assert rc == 1
    assert "usage error" in err
    rc, _, err = run(capsys, "bias", "--mu", "1.0", "--mu-eta", "0.5")
    assert rc == 1


# ---------------------------------------------------------------- numbers

# Every number the CLI reads: an integer is an optional "-" and ASCII digits;
# a real may add a "." fraction and an exponent with an optional sign.
@pytest.mark.parametrize("argv", [
    ["protocol", "--mu-eta", "0.5", "--gates", "+1_000", "--profile", "fixed:\u0662"],
    ["protocol", "--mu-eta", "0.5", "--gates", "+1000"],
    ["protocol", "--mu-eta", "0.5", "--gates", "1_000"],
    ["protocol", "--mu-eta", "0.5", "--gates", "1000", "--profile", "fixed:\u0662"],
    ["protocol", "--mu-eta", "0.5", "--gates", "1000", "--profile", "fixed: 1"],
    ["protocol", "--mu-eta", "0.5", "--gates", "1000", "--slots-per-gate", "3",
     "--profile", "weighted:0.5,0_25,0.25"],
    ["protocol", "--mu-eta", "0.5", "--gates", "1000", "--t-bob", "\u0661.0"],
    ["eve", "--mu", "0.5", "--r-values", "1_0"],
    ["eve", "--mu", "0.5", "--r-values", "\u0662"],
    ["eve", "--mu", "0.5", "--r-values", "1,+2"],
    ["bias", "--mu", "0_5"],
    ["bias", "--mu", " 0.5"],
    ["bias", "--mu", ".5"],
    ["bias", "--mu", "1."],
    ["bias", "--mu", "1e"],
    ["bias", "--mu", "0x1"],
    ["bias", "--mu", "Infinity"],
    ["bias", "--mu-eta", "+0.5"],
    ["bias", "--mu", "0.5", "--mc-events", "1_000"],
    ["simulate", "--mu", "0.5", "--events", "10", "--seed", "\u0663", "--out", "x"],
    ["test", "--bits", "bits.txt", "--alpha", "0.0_1"],
], ids=lambda argv: " ".join(argv[1:]))
def test_numbers_outside_the_grammar_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_numbers_in_the_grammar_read_as_before(capsys):
    def stdout(*argv):
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        return out

    bias = stdout("bias", "--mu-eta", "0.5", "--mc-events", "1000", "--seed", "5")
    for mu_eta in ("5e-1", "5E-01", "0.05e+1", "50.0e-2"):
        assert stdout("bias", "--mu-eta", mu_eta, "--mc-events", "01000", "--seed", "005") == bias
    eve = stdout("eve", "--mu", "0.5", "--r-values", "1,3", "--events", "500", "--seed", "3")
    assert stdout("eve", "--mu", "5e-1", "--r-values", "\t1 ,03", "--events", "500", "--seed", "3") == eve
    profile = ["protocol", "--mu-eta", "0.5", "--gates", "1000", "--slots-per-gate", "2", "--seed", "1"]
    assert stdout(*profile, "--profile", "weighted:2.5e-1,0.75") == stdout(
        *profile, "--profile", "weighted:0.25,0.75")
    assert stdout(*profile, "--profile", "fixed:02") == stdout(*profile, "--profile", "fixed:2")


# One run per subcommand that takes --seed; bias both with and without
# its Monte Carlo part, which alone uses the seed.
SEEDED_RUNS = {
    "simulate": ["simulate", "--mu", "0.5", "--events", "10", "--out", "x"],
    "bias": ["bias", "--mu", "0.5"],
    "bias-mc": ["bias", "--mu", "0.5", "--mc-events", "10"],
    "protocol": ["protocol", "--mu", "0.5", "--gates", "100", "--out", "x"],
    "eve": ["eve", "--mu", "0.5", "--events", "100", "--out", "x"],
}


def test_every_subcommand_with_a_seed_has_a_seeded_run():
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    seeded = {name for name, parser in subcommands.choices.items() if "--seed" in parser._option_string_actions}
    assert seeded == {argv[0] for argv in SEEDED_RUNS.values()}


@pytest.mark.parametrize("case", SEEDED_RUNS)
@pytest.mark.parametrize("seed", ["-1", "-007", str(-2**64)])
def test_a_negative_seed_is_a_usage_error_naming_the_option(capsys, tmp_path, monkeypatch, case, seed):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *SEEDED_RUNS[case], "--seed", seed)
    assert (rc, out) == (1, "")
    assert err == f"usage error: argument --seed: expected a non-negative integer, got {int(seed)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["bias", "simulate", "protocol", "eve"])
def test_mu_eta_refuses_an_explicit_eta(capsys, tmp_path, monkeypatch, subcommand):
    monkeypatch.chdir(tmp_path)
    rest = {"bias": [], "simulate": ["--events", "10", "--out", "x"],
            "protocol": ["--gates", "100"], "eve": ["--events", "100"]}[subcommand]
    for eta in ("0.3", "1.0"):
        rc, out, err = run(capsys, subcommand, "--mu-eta", "0.5", "--eta", eta, *rest)
        assert (rc, out) == (1, "")
        assert err == "usage error: --eta and --mu-eta are mutually exclusive\n"
    assert list(tmp_path.iterdir()) == []


def test_an_unset_eta_is_one(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "bias", "--mu", "0.5") == run(capsys, "bias", "--mu", "0.5", "--eta", "1")
    assert run(capsys, "bias", "--mu", "0.5", "--eta", "0.5") == run(capsys, "bias", "--mu", "0.25")
    for flags in (["--mu", "0.5"], ["--mu-eta", "0.5"]):
        assert main(["simulate", *flags, "--events", "10", "--seed", "1", "--out", "x"]) == 0
        argv = read_manifest("x.manifest.json").argv
        assert argv[argv.index("--mu"):argv.index("--mu") + 4] == ["--mu", "0.5", "--eta", "1.0"]


# --------------------------------------------------------------- simulate


def test_simulate_writes_events_and_manifest(capsys, tmp_path):
    out = tmp_path / "events.txt"
    rc, stdout, _ = run(
        capsys, "simulate", "--mu", "0.5", "--events", "1000", "--seed", "42",
        "--out", str(out),
    )
    assert rc == 0
    assert "wrote 1000 events" in stdout
    stream = read_events(out)
    assert len(stream) == 1000
    manifest = read_manifest(tmp_path / "events.txt.manifest.json")
    assert manifest.subcommand == "simulate"
    assert manifest.generator["algorithm"] == "PCG64"
    assert manifest.generator["seed"] == 42
    assert manifest.parameters["mu"] == 0.5
    assert "first_interval" in manifest.conventions


def test_simulate_guard_error_exits_two(capsys, tmp_path):
    rc, _, err = run(
        capsys, "simulate", "--mu", "0", "--events", "10", "--out", str(tmp_path / "x"),
    )
    assert rc == 2
    assert "error" in err


def test_simulate_bad_profile_is_a_usage_error(capsys, tmp_path):
    rc, _, err = run(
        capsys, "simulate", "--mode", "gated", "--slots-per-gate", "2",
        "--profile", "sometimes", "--mu", "0.5", "--events", "10",
        "--out", str(tmp_path / "x"),
    )
    assert rc == 1
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--mode", "gated", "--slots-per-gate", "2", "--events", "10", "--out", "x"),
    ("protocol", "--slots-per-gate", "2", "--gates", "100"),
    ("eve", "--r-values", "2", "--events", "100"),
], ids=["simulate", "protocol", "eve"])
def test_a_nan_profile_weight_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, _, err = run(capsys, *argv, "--mu", "0.5", "--profile", "weighted:nan,1")
    assert rc == 1
    assert err == "usage error: weights must be non-negative numbers, got (nan, 1.0)\n"


# ---------------------------------------------------------------- extract


def test_extract_hand_example(capsys, tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("3\n5\n10\n")
    out = tmp_path / "bits.txt"
    rc, stdout, _ = run(capsys, "extract", "--events", str(events), "--out", str(out))
    assert rc == 0
    assert "wrote 3 bits" in stdout
    assert out.read_text() == "101\n"


def test_extract_missing_file_exits_two(capsys, tmp_path):
    rc, _, err = run(
        capsys, "extract", "--events", str(tmp_path / "absent.txt"),
        "--out", str(tmp_path / "bits.txt"),
    )
    assert rc == 2
    assert "data error" in err


def test_extract_corrupt_file_names_the_line(capsys, tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("5\n3\n")
    rc, _, err = run(
        capsys, "extract", "--events", str(events), "--out", str(tmp_path / "bits.txt"),
    )
    assert rc == 2
    assert "line 2" in err


def test_extract_non_utf8_event_file_is_a_data_error(capsys, tmp_path):
    events = tmp_path / "events.txt"
    events.write_bytes(b"3\n5\n\xe9\n")
    rc, _, err = run(
        capsys, "extract", "--events", str(events), "--out", str(tmp_path / "bits.txt"),
    )
    assert rc == 2
    assert "data error: line 3" in err


def test_extract_overflowing_slot_is_a_data_error(capsys, tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("3\n99999999999999999999\n")
    rc, _, err = run(
        capsys, "extract", "--events", str(events), "--out", str(tmp_path / "bits.txt"),
    )
    assert rc == 2
    assert "line 2: slot index 99999999999999999999 overflows 64 bits" in err


def test_extract_mod4_interleaves_basis_then_key(capsys, tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("1\n2\n9\n")  # intervals 1, 1, 7 -> pairs (0,1) (0,1) (1,1)
    out = tmp_path / "pairs.txt"
    rc, _, _ = run(
        capsys, "extract", "--events", str(events), "--modulus", "mod4", "--out", str(out),
    )
    assert rc == 0
    assert out.read_text() == "010111\n"


@pytest.mark.parametrize("modulus", ["mod8", "MOD2", "2"])
def test_extract_modulus_outside_mod2_and_mod4_is_a_usage_error(capsys, tmp_path, modulus):
    events = tmp_path / "events.txt"
    events.write_text("1\n2\n9\n")
    out = tmp_path / "bits.txt"
    rc, stdout, err = run(capsys, "extract", "--events", str(events), "--modulus", modulus, "--out", str(out))
    assert (rc, stdout) == (1, "")
    assert "usage error" in err and "invalid choice" in err
    assert not out.exists()


def test_extract_binary_events_round_trip(capsys, tmp_path):
    events = tmp_path / "events.bin"
    rc, _, _ = run(
        capsys, "simulate", "--mu", "0.7", "--events", "500", "--seed", "8",
        "--format", "binary", "--out", str(events),
    )
    assert rc == 0
    out = tmp_path / "bits.bin"
    rc, _, _ = run(
        capsys, "extract", "--events", str(events), "--events-format", "binary",
        "--bits-format", "packed", "--out", str(out),
    )
    assert rc == 0
    assert len(read_bits(out, fmt="packed")) == 500


# ------------------------------------------------------------------- test


def test_battery_on_all_zeros_fails_with_exit_three(capsys, tmp_path):
    bits = tmp_path / "zeros.txt"
    bits.write_text("0" * 1_000_000 + "\n")
    report = tmp_path / "report.csv"
    rc, stdout, _ = run(
        capsys, "test", "--bits", str(bits), "--out", str(report),
    )
    assert rc == 3
    assert "Frequency" in stdout
    with report.open() as fh:
        rows = {row["test_id"]: row for row in csv.DictReader(fh)}
    assert rows["Frequency"]["pass"] == "0"
    assert float(rows["Frequency"]["p_value"]) < 0.01


def test_non_utf8_bit_file_is_a_data_error(capsys, tmp_path):
    bits = tmp_path / "bits.txt"
    bits.write_bytes(b"0101\n10\xff1\n")
    rc, _, err = run(capsys, "test", "--bits", str(bits), "--out", str(tmp_path / "report.csv"))
    assert rc == 2
    assert "data error: line 2" in err


def test_battery_pipeline_passes_on_simulator_output(capsys, tmp_path):
    events = tmp_path / "events.txt"
    bits = tmp_path / "bits.txt"
    report = tmp_path / "report.csv"
    rc, _, _ = run(
        capsys, "simulate", "--mode", "gated", "--slots-per-gate", "2",
        "--mu", "0.5", "--events", "40000", "--seed", "301", "--out", str(events),
    )
    assert rc == 0
    rc, _, _ = run(capsys, "extract", "--events", str(events), "--debias", "--out", str(bits))
    assert rc == 0
    rc, stdout, _ = run(
        capsys, "test", "--bits", str(bits), "--run-len", "20000", "--out", str(report),
    )
    assert rc == 0
    assert "Frequency            pass 2/2" in stdout
    assert "Universal            n/a" in stdout
    with report.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 26  # 13 procedures x 2 runs
    assert {row["test_id"] for row in rows} == {
        "Frequency", "BlockFrequency", "CusumForward", "CusumReverse", "Runs",
        "LongestRuns", "Rank", "DFFT", "Universal", "ApproximateEntropy",
        "Serial1", "Serial2", "LinearComplexity",
    }
    for row in rows:
        if row["p_value"] == "NA":
            assert row["pass"] == "NA"
        else:
            assert (float(row["p_value"]) >= 0.01) == (row["pass"] == "1")


def test_battery_rejects_bad_alpha(capsys, tmp_path):
    bits = tmp_path / "bits.txt"
    bits.write_text("01" * 100 + "\n")
    rc, _, err = run(capsys, "test", "--bits", str(bits), "--alpha", "2", "--run-len", "100")
    assert rc == 1
    assert "usage error" in err


# --------------------------------------------------------------- protocol


def test_protocol_summary_lines(capsys, tmp_path):
    out = tmp_path / "protocol.txt"
    rc, stdout, _ = run(
        capsys, "protocol", "--protocol", "bbm92", "--gates", "20000",
        "--mu", "0.5", "--error", "0.05", "--seed", "9", "--out", str(out),
    )
    assert rc == 0
    values = dict(line.split("=", 1) for line in stdout.strip().splitlines())
    assert values["protocol"] == "bbm92"
    assert values["coincidences"] == values["pair_gates"]  # lossless run
    qber = float(values["qber"])
    assert 0.03 < qber < 0.07
    assert out.read_text() == stdout
    manifest = read_manifest(tmp_path / "protocol.txt.manifest.json")
    assert manifest.subcommand == "protocol"


def test_protocol_stdout_of_a_round_without_coincidences_is_pinned(capsys):
    """Bob almost never clicks: no coincidence, so his basis balance and the
    sift fraction are 0, while the source still emitted in 6 gates."""
    rc, stdout, err = run(capsys, "protocol", "--mu", "0.5", "--gates", "20", "--t-bob", "0.001", "--seed", "3")
    assert (rc, err) == (0, "")
    assert stdout == (
        "protocol=bbm92\ngates=20\nseed=3\ncoincidences=0\nsifted_length=0\nqber=0.000000\n"
        "basis_balance_alice=0.200000\nbasis_balance_bob=0.000000\nsift_fraction=0.000000\n"
        "pair_gates=6\n"
    )


@pytest.mark.parametrize("name", ["bb84", "bb84-heralded"])
def test_protocol_variants_run(capsys, name):
    rc, stdout, _ = run(
        capsys, "protocol", "--protocol", name, "--gates", "10000",
        "--mu", "0.5", "--seed", "11",
    )
    assert rc == 0
    values = dict(line.split("=", 1) for line in stdout.strip().splitlines())
    assert values["protocol"] == name
    assert int(values["sifted_length"]) <= int(values["coincidences"])


def test_protocol_guard_exits_two(capsys):
    rc, _, err = run(
        capsys, "protocol", "--protocol", "bbm92", "--gates", "100",
        "--mu", "0", "--eta", "0", "--seed", "1",
    )
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "gated", "--slots-per-gate", "2", "--dead-slots", "9223372036854775808",
     "--events", "10", "--mu-eta", "0.5", "--seed", "1", "--out", "e.txt"],
    ["simulate", "--mode", "gated", "--slots-per-gate", "2", "--dead-slots", "4611686018427387904",
     "--events", "1000000", "--mu-eta", "0.5", "--seed", "1", "--out", "e.txt"],
    ["protocol", "--mu-eta", "0.5", "--gates", "1000", "--seed", "1",
     "--slots-per-gate", "4611686018427387904"],
], ids=["dead-2^63", "dead-2^62", "protocol-gate-2^62"])
def test_streams_past_64_bit_slots_exit_two(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: requested stream would overflow 64-bit slot indices\n")
    assert list(tmp_path.iterdir()) == []


BIG = "1" + "0" * 399  # a count past float range


@pytest.mark.parametrize("argv", [
    ["simulate", "--mu", "0.5", "--events", BIG, "--out", "x"],
    ["simulate", "--mu", "0.5", "--events", "10", "--dead-slots", BIG, "--out", "x"],
    ["simulate", "--mode", "gated", "--mu", "0.5", "--events", "10", "--dead-slots", BIG, "--out", "x"],
    ["simulate", "--mode", "gated", "--mu", "0.5", "--events", "10", "--slots-per-gate", BIG, "--out", "x"],
    ["simulate", "--mode", "gated", "--mu", "0.5", "--events", BIG, "--out", "x"],
    ["bias", "--mu", "0.5", "--mc-events", BIG],
    ["eve", "--mu", "0.5", "--events", BIG],
    ["protocol", "--mu", "0.5", "--gates", "100", "--dark-prob", "0.1", "--k-bootstrap", BIG],
], ids=["free-events", "free-dead", "gated-dead", "gated-gate", "gated-events", "bias-mc-events",
        "eve-events", "protocol-k-bootstrap"])
def test_counts_past_float_range_are_past_64_bit_slots(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: requested stream would overflow 64-bit slot indices\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["protocol", "--mu", "0.5", "--gates", "100", "--dark-prob", "0.1", "--k-bootstrap", "100000000000000000"],
], ids=["protocol-bootstrap-711-PiB"])
def test_an_allocation_the_host_refuses_is_an_error(capsys, tmp_path, monkeypatch, argv):
    # Within reach, yet the run's first array is larger than any address
    # space, so numpy refuses it at once.  A protocol round's own arrays
    # span one gate block however many gates it has, so its bootstrap
    # buffer is what the host refuses.
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["eve", "--mu-eta", "0.5", "--events", "100000000000000000"],
     "at most 1099511627776 events per gate width, got 100000000000000000"),
    (["protocol", "--mu", "0.5", "--gates", "4611686018427387904", "--slots-per-gate", "1"],
     "at most 1099511627776 gates per round, got 4611686018427387904"),
    (["simulate", "--mode", "gated", "--mu-eta", "0.5", "--events", "100000000000000000", "--out", "x"],
     "at most 1099511627776 events per stream, got 100000000000000000"),
    (["simulate", "--mode", "free", "--mu-eta", "0.5", "--events", "100000000000000000", "--format", "binary",
      "--out", "x"],
     "at most 1099511627776 events per stream, got 100000000000000000"),
], ids=["eve-10^17-events", "protocol-2^62-gates", "simulate-gated-10^17-events", "simulate-free-10^17-events"])
def test_work_past_the_limit_exits_two_at_once(tmp_path, argv, message):
    """Within reach, yet years of work: a fresh interpreter refuses each
    before drawing, well inside the timeout that would otherwise end it."""
    env = dict(os.environ, PYTHONPATH=str(Path(tickrng.__file__).parents[1]))
    cli = [sys.executable, "-c", "from tickrng.cli import run\nrun()\n", *argv]
    done = subprocess.run(cli, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# A small command line per subcommand that runs; each of its integer options
# is set in turn to each of INTEGER_EXTREMES.
SMALL_RUNS = {
    "simulate-free": ["simulate", "--mu", "0.5", "--events", "10", "--seed", "1", "--out", "x"],
    "simulate-gated": ["simulate", "--mode", "gated", "--slots-per-gate", "2", "--mu", "0.5",
                       "--events", "10", "--seed", "1", "--out", "x"],
    "bias": ["bias", "--mu", "0.5", "--mc-events", "10", "--seed", "1"],
    "test": ["test", "--bits", "bits.txt", "--run-len", "1000"],
    "protocol": ["protocol", "--mu", "0.5", "--gates", "100", "--dark-prob", "0.1", "--seed", "1"],
    "eve": ["eve", "--mu", "0.5", "--events", "100", "--seed", "1"],
}
INTEGER_EXTREMES = {"-1": "-1", "0": "0", "10^399": BIG}


def integer_options() -> dict[str, list[str]]:
    """Each subcommand's ``type=int`` options, read off the parser."""
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [action.option_strings[0] for action in parser._actions if action.type is int]
        for name, parser in subcommands.choices.items()
    }


def test_every_subcommand_with_an_integer_option_has_a_small_run():
    assert {name for name, options in integer_options().items() if options} == {
        argv[0] for argv in SMALL_RUNS.values()}


@pytest.mark.parametrize("case, option, value", [
    (case, option, value)
    for case, argv in SMALL_RUNS.items()
    for option in integer_options()[argv[0]]
    for value in INTEGER_EXTREMES
])
def test_no_exception_escapes_main_for_an_integer_option(capsys, tmp_path, monkeypatch, case, option, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bits.txt").write_text("01" * 1000)
    argv = list(SMALL_RUNS[case])
    if option in argv:
        argv[argv.index(option) + 1] = INTEGER_EXTREMES[value]
    else:
        argv += [option, INTEGER_EXTREMES[value]]
    rc, _, _ = run(capsys, *argv)
    assert rc in (0, 1, 2, 3)


# -------------------------------------------------------------------- eve


def test_eve_sweep_table(capsys):
    rc, stdout, _ = run(
        capsys, "eve", "--r-values", "1,2", "--events", "20000",
        "--mu", "0.5", "--seed", "7",
    )
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "slots_per_gate,advantage"
    assert lines[1] == "1,0.500000"
    r2 = float(lines[2].split(",")[1])
    assert abs(r2) < 3 * 0.5 / 20000**0.5


def test_eve_without_photons_names_bob(capsys):
    rc, out, err = run(capsys, "eve", "--mu", "0", "--seed", "1")
    assert (rc, out) == (2, "")
    assert err == "error: Bob has zero detection probability; no events would ever arrive\n"


def test_eve_rejects_bad_r_values(capsys):
    rc, _, err = run(capsys, "eve", "--r-values", "1,zero", "--mu", "0.5")
    assert rc == 1
    assert "usage error" in err
    rc, _, err = run(capsys, "eve", "--r-values", ",", "--mu", "0.5")
    assert rc == 1
    assert "--r-values must name at least one gate width" in err
    # Every item must be an integer: an empty one is an error, not skipped.
    for r_values in ("1,,2", "2,"):
        rc, out, err = run(capsys, "eve", "--r-values", r_values, "--mu", "0.5")
        assert (rc, out) == (1, "")
        assert err == f"usage error: --r-values must be a comma-separated list of integers, got {r_values!r}\n"


# ----------------------------------------------------------------- replay


def test_replay_reproduces_simulate_bit_exactly(capsys, tmp_path):
    first = tmp_path / "a" / "events.txt"
    first.parent.mkdir()
    rc, _, _ = run(
        capsys, "simulate", "--mu", "0.5", "--events", "2000", "--seed", "77",
        "--out", str(first),
    )
    assert rc == 0
    replay_dir = tmp_path / "b"
    rc, stdout, _ = run(
        capsys, "replay", str(first) + ".manifest.json", "--out-dir", str(replay_dir),
    )
    assert rc == 0
    assert (replay_dir / "events.txt").read_bytes() == first.read_bytes()


def test_replay_reproduces_a_whole_pipeline(capsys, tmp_path):
    events = tmp_path / "events.txt"
    bits = tmp_path / "bits.txt"
    run(capsys, "simulate", "--mode", "gated", "--slots-per-gate", "2", "--mu", "0.4",
        "--events", "3000", "--seed", "13", "--out", str(events))
    run(capsys, "extract", "--events", str(events), "--modulus", "mod4", "--debias",
        "--out", str(bits))
    replay_dir = tmp_path / "again"
    rc, _, _ = run(capsys, "replay", str(bits) + ".manifest.json", "--out-dir", str(replay_dir))
    assert rc == 0
    assert (replay_dir / "bits.txt").read_bytes() == bits.read_bytes()


def test_replay_missing_manifest_exits_two(capsys, tmp_path):
    rc, _, err = run(
        capsys, "replay", str(tmp_path / "nope.manifest.json"), "--out-dir", str(tmp_path),
    )
    assert rc == 2


# ------------------------------------------------------------- exit codes


def test_unknown_subcommand_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 1
    assert "usage error" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    rc, _, err = run(capsys)
    assert rc == 1


def test_missing_required_argument_is_a_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, "simulate", "--mu", "0.5", "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "usage error" in err


def test_help_and_version_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unwritable_output_exits_two(capsys, tmp_path):
    rc, _, err = run(
        capsys, "simulate", "--mu", "0.5", "--events", "10",
        "--out", str(tmp_path / "missing-dir" / "x.txt"),
    )
    assert rc == 2
    assert "data error" in err


# ------------------------------------------------------ pinned manifests

PINNED_DIR = Path(__file__).parent / "pinned_manifests"
STDOUT_DIR = Path(__file__).parent / "pinned_stdout"

# Each command line's whole manifest text is pinned in PINNED_DIR/<case>.json
# and its whole stdout in STDOUT_DIR/<case>.txt, with the environment-dependent
# values written as {numpy}, {version} and, for a run without --seed, {seed}.
# A run without --seed draws FRESH_ENTROPY as its seed, so its stdout is fixed too.
FRESH_ENTROPY = 207497145519111536508831230786901904241
PINNED_CASES = {
    "simulate_mu_eta": [
        "simulate", "--mu-eta", "0.5", "--events", "300", "--seed", "5",
        "--out", "mu_eta.txt",
    ],
    "simulate_gated_thermal": [
        "simulate", "--dist", "thermal", "--mu", "0.3", "--eta", "0.8", "--mode", "gated",
        "--slots-per-gate", "3", "--profile", "weighted:0.25,0.25,0.5", "--dark-prob", "0.01",
        "--dead-slots", "3", "--events", "300", "--seed", "6", "--format", "binary",
        "--out", "gated.bin",
    ],
    "extract_defaults": ["extract", "--events", "events.txt", "--out", "bits_default.txt"],
    "extract_flags": [
        "extract", "--events", "events.txt", "--no-include-first", "--modulus", "mod4",
        "--bits-format", "packed", "--debias", "--out", "bits_flags.bin",
    ],
    "test_report": [
        "test", "--bits", "bits.txt", "--alpha", "0.02", "--run-len", "50000",
        "--out", "report.csv",
    ],
    "protocol_defaults": ["protocol", "--mu-eta", "0.3", "--gates", "2000", "--out", "bbm92.txt"],
    "protocol_every_flag": [
        "protocol", "--protocol", "bb84-heralded", "--dist", "thermal", "--mu", "0.2",
        "--eta", "0.9", "--gates", "2000", "--t-alice", "0.8", "--t-bob", "0.7",
        "--error", "0.01", "--slots-per-gate", "4", "--dark-prob", "0.001",
        "--profile", "fixed:1", "--k-bootstrap", "8", "--seed", "9", "--out", "bb84.txt",
    ],
    "eve_r_values": [
        "eve", "--mu", "0.5", "--r-values", " 1,2, 4", "--events", "2000", "--seed", "3",
        "--out", "eve.csv",
    ],
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A directory holding the events.txt and bits.txt that later commands read."""
    workdir = tmp_path_factory.mktemp("inputs")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(["simulate", "--mode", "gated", "--slots-per-gate", "2", "--mu", "0.5",
                     "--events", "120000", "--seed", "41", "--out", "events.txt"]) == 0
        assert main(["extract", "--events", "events.txt", "--debias", "--out", "bits.txt"]) == 0
    finally:
        os.chdir(cwd)
    return workdir


class FixedFreshEntropy(np.random.SeedSequence):
    """A ``SeedSequence`` that takes FRESH_ENTROPY when given no entropy."""

    def __init__(self, entropy=None, **kwargs):
        super().__init__(FRESH_ENTROPY if entropy is None else entropy, **kwargs)


def pinned_text(pinned: Path, manifest_text: str) -> str:
    """The text pinned in ``pinned`` with the environment's values filled in;
    the seed is read off the run's manifest."""
    actual = json.loads(manifest_text)
    seed = str(actual["generator"]["seed"]) if actual.get("generator") else ""
    return (
        pinned.read_text()
        .replace("{numpy}", np.__version__)
        .replace("{version}", tickrng.__version__)
        .replace("{seed}", seed)
    )


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_manifest_text_is_pinned(capsys, monkeypatch, cli_inputs, case):
    """Every subcommand writes exactly the manifest text and the stdout it
    wrote before, and nothing to stderr."""
    monkeypatch.chdir(cli_inputs)
    monkeypatch.setattr(np.random, "SeedSequence", FixedFreshEntropy)
    argv = PINNED_CASES[case]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc in (0, 3)
    text = Path(argv[-1] + ".manifest.json").read_text()
    assert text == pinned_text(PINNED_DIR / f"{case}.json", text)
    assert captured.out == pinned_text(STDOUT_DIR / f"{case}.txt", text)
    assert captured.err == ""


# -------------------------------------------------- replay of manifests

REPLAY_CASES = {
    "simulate": [
        "simulate", "--mode", "gated", "--slots-per-gate", "2", "--mu-eta", "0.4",
        "--dead-slots", "1", "--events", "3000", "--format", "binary", "--out", "events.bin",
    ],
    "extract": [
        "extract", "--events", "events.txt", "--modulus", "mod4", "--no-include-first",
        "--debias", "--bits-format", "packed", "--out", "bits.bin",
    ],
    "test": ["test", "--bits", "bits.txt", "--run-len", "20000", "--out", "report.csv"],
    "protocol": ["protocol", "--protocol", "bb84", "--mu", "0.5", "--gates", "5000", "--out", "protocol.txt"],
    "eve": ["eve", "--mu-eta", "0.5", "--r-values", "1,3", "--events", "2000", "--out", "eve.csv"],
}


@pytest.mark.parametrize("subcommand", sorted(REPLAY_CASES))
def test_replay_reproduces_the_output_and_the_manifest(
    capsys, monkeypatch, tmp_path, cli_inputs, subcommand
):
    """A recorded argv is a fixed point of parse -> record: replaying it writes
    the same output and the same manifest, up to the --out value."""
    for name in ("events.txt", "bits.txt"):
        shutil.copy(cli_inputs / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    argv = REPLAY_CASES[subcommand]
    out = argv[argv.index("--out") + 1]
    rc = main(argv)
    assert rc in (0, 3)
    assert main(["replay", out + ".manifest.json", "--out-dir", "again"]) == rc
    capsys.readouterr()
    again = str(Path("again") / out)
    assert Path(again).read_bytes() == Path(out).read_bytes()
    original = read_manifest(out + ".manifest.json")
    expected_argv = list(original.argv)
    expected_argv[expected_argv.index("--out") + 1] = again
    assert read_manifest(again + ".manifest.json") == dataclasses.replace(
        original, argv=expected_argv, outputs=[again]
    )


@pytest.mark.parametrize("prefix", ["", "a/"], ids=["made-inside-a", "made-from-the-parent"])
def test_replay_finds_relative_inputs_from_any_directory(capsys, monkeypatch, tmp_path, prefix):
    """A run made in directory ``a/``, or from its parent with ``a/`` paths,
    replays from either directory, and so does the replay's own manifest."""
    (tmp_path / "a").mkdir()
    monkeypatch.chdir(tmp_path / "a" if not prefix else tmp_path)
    assert main(["simulate", "--mode", "gated", "--mu", "0.5", "--events", "3000", "--seed", "5",
                 "--out", f"{prefix}ev.txt"]) == 0
    assert main(["extract", "--events", f"{prefix}ev.txt", "--out", f"{prefix}bits.txt"]) == 0
    assert main(["test", "--bits", f"{prefix}bits.txt", "--run-len", "2000", "--out", f"{prefix}report.csv"]) in (0, 3)
    capsys.readouterr()
    for name in ("bits.txt", "report.csv"):
        original = (tmp_path / "a" / name).read_bytes()
        for cwd, manifest, out_dir in [
            (tmp_path, f"a/{name}", "out"),
            (tmp_path / "a", name, "out"),
            (tmp_path, f"out/{name}", "again"),
            (tmp_path / "a", f"../out/{name}", "again"),
        ]:
            monkeypatch.chdir(cwd)
            rc, _, err = run(capsys, "replay", f"{manifest}.manifest.json", "--out-dir", out_dir)
            assert (rc in (0, 3), err) == (True, "")
            assert (cwd / out_dir / name).read_bytes() == original


def test_a_replay_to_an_absolute_out_dir_replays_from_any_directory(capsys, monkeypatch, tmp_path):
    """A replay written to an absolute --out-dir records absolute inputs, so
    its own manifest replays from the run's parent directory and from inside it."""
    (tmp_path / "a").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--mode", "gated", "--mu", "0.5", "--events", "3000", "--seed", "5",
                 "--out", "a/ev.txt"]) == 0
    assert main(["extract", "--events", "a/ev.txt", "--out", "a/bits.txt"]) == 0
    assert main(["test", "--bits", "a/bits.txt", "--run-len", "2000", "--out", "a/report.csv"]) in (0, 3)
    capsys.readouterr()
    absolute = tmp_path / "abs" / "out"
    for name in ("bits.txt", "report.csv"):
        original = (tmp_path / "a" / name).read_bytes()
        monkeypatch.chdir(tmp_path)
        rc, _, err = run(capsys, "replay", f"a/{name}.manifest.json", "--out-dir", str(absolute))
        assert (rc in (0, 3), err) == (True, "")
        assert (absolute / name).read_bytes() == original
        for cwd in (tmp_path, tmp_path / "a"):
            monkeypatch.chdir(cwd)
            rc, _, err = run(capsys, "replay", f"{absolute / name}.manifest.json", "--out-dir", "o3")
            assert (rc in (0, 3), err) == (True, "")
            assert (cwd / "o3" / name).read_bytes() == original


def test_replay_leaves_inputs_alone_when_the_manifest_moved(capsys, monkeypatch, tmp_path):
    """A manifest whose path does not end in its output's directories says
    nothing of where its run was made, so its input is read as recorded."""
    (tmp_path / "a").mkdir()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    main(["simulate", "--mu", "0.5", "--events", "500", "--seed", "1", "--out", "a/ev.txt"])
    main(["extract", "--events", "a/ev.txt", "--out", "a/bits.txt"])
    shutil.copy("a/bits.txt.manifest.json", "elsewhere/bits.txt.manifest.json")
    rc, _, err = run(capsys, "replay", "elsewhere/bits.txt.manifest.json", "--out-dir", "out")
    assert (rc, err) == (0, "")
    assert read_manifest("out/bits.txt.manifest.json").argv[:3] == ["extract", "--events", "a/ev.txt"]
    monkeypatch.chdir(tmp_path / "elsewhere")
    rc, _, err = run(capsys, "replay", "bits.txt.manifest.json", "--out-dir", "out")
    assert rc == 2
    assert "No such file or directory: 'a/ev.txt'" in err


@pytest.mark.parametrize("name", ["1", "ascii"])
def test_replay_rewrites_only_the_out_value(capsys, monkeypatch, tmp_path, name):
    """An output named like another flag's value leaves that value alone."""
    monkeypatch.chdir(tmp_path)
    rc = main(["simulate", "--mu", "0.5", "--events", "500", "--seed", "1", "--out", name])
    assert rc == 0
    rc, _, err = run(capsys, "replay", name + ".manifest.json", "--out-dir", "rr")
    assert (rc, err) == (0, "")
    assert (tmp_path / "rr" / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("spelling", [["--ou", "{}"], ["--out={}"]], ids=["prefix", "equals"])
def test_replay_writes_only_under_the_out_dir_however_out_is_spelled(capsys, tmp_path, spelling):
    """argparse also reads ``--out`` as a prefix of it or joined to its value by "="."""
    elsewhere = tmp_path / "elsewhere" / "events.txt"
    argv = ["simulate", "--mu", "0.5", "--events", "500", "--seed", "1"]
    argv += [item.format(elsewhere) for item in spelling]
    path = tmp_path / "spelled.manifest.json"
    path.write_text(json.dumps(_manifest_json(argv=argv, outputs=[str(elsewhere)])))
    rc, _, err = run(capsys, "replay", str(path), "--out-dir", str(tmp_path / "rr"))
    assert (rc, err) == (0, "")
    assert not elsewhere.parent.exists()
    again = tmp_path / "rr" / "events.txt"
    assert sorted(tmp_path.joinpath("rr").iterdir()) == [again, again.with_name("events.txt.manifest.json")]
    assert read_manifest(str(again) + ".manifest.json").outputs == [str(again)]


def _manifest_json(**fields) -> dict:
    manifest = {
        "subcommand": "simulate",
        "argv": ["simulate", "--mu", "0.5", "--events", "10", "--seed", "1", "--out", "x"],
        "parameters": {},
        "outputs": ["x"],
    }
    manifest.update(fields)
    return manifest


@pytest.mark.parametrize(
    "fields",
    [
        {"argv": "simulate"},
        {"argv": ["simulate", "--events", 10, "--mu", "0.5", "--out", "x"]},
        {"argv": []},
        {"argv": ["extract", "--events", "e", "--out", "x"]},
        {"outputs": "x"},
        {"outputs": [1]},
        {"parameters": "ab"},
        {"conventions": "ab"},
    ],
    ids=["argv-string", "argv-number", "argv-empty", "argv-other-subcommand",
         "outputs-string", "outputs-number", "parameters-string", "conventions-string"],
)
def test_replay_rejects_a_malformed_manifest(capsys, tmp_path, fields):
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps(_manifest_json(**fields)))
    rc, _, err = run(capsys, "replay", str(path), "--out-dir", str(tmp_path / "rr"))
    assert rc == 2
    assert err.startswith("data error: manifest")


@pytest.mark.parametrize(
    "blob",
    [json.dumps(_manifest_json(outputs=["\xe9"]), ensure_ascii=False).encode("latin-1"),
     b'["parameters", "conventions"]'],
    ids=["non-utf8", "json-list"],
)
def test_replay_rejects_a_manifest_that_is_not_a_utf8_json_object(capsys, tmp_path, blob):
    path = tmp_path / "bad.manifest.json"
    path.write_bytes(blob)
    rc, out, err = run(capsys, "replay", str(path), "--out-dir", str(tmp_path / "rr"))
    assert (rc, out) == (2, "")
    assert err.startswith("data error: manifest")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--mu", "0.5", "--events", "10", "--bogus", "--out", "x"],
        ["simulate", "--mu", "0.5", "--events", "10", "--out"],
        ["simulate", "--help"],
        ["simulate", "-h"],
        ["simulate", "--mu", "0.5", "--hel", "--out", "x"],
        ["--version"],
    ],
    ids=["unknown-flag", "out-without-value", "help", "short-help", "abbreviated-help", "version"],
)
def test_replay_of_an_argv_that_does_not_parse_is_a_data_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps(_manifest_json(subcommand=argv[0], argv=argv)))
    rc, out, err = run(capsys, "replay", str(path), "--out-dir", str(tmp_path / "rr"))
    assert (rc, out) == (2, "")
    assert err.startswith(f"data error: manifest argv {argv} does not parse: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "rr").exists()


@pytest.mark.parametrize("subcommand", ["replay", "simulate"])
def test_subcommand_help_prints_usage_and_exits_zero(capsys, subcommand):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: tickrng {subcommand} ")


def test_replay_refuses_a_replay_manifest(capsys, tmp_path):
    path = tmp_path / "loop.manifest.json"
    argv = ["replay", str(path), "--out-dir", str(tmp_path / "rr")]
    path.write_text(json.dumps(_manifest_json(subcommand="replay", argv=argv, outputs=[])))
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("data error: a replay manifest")
