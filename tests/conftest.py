"""Shared fixtures: reference bit material and goodness-of-fit helpers."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import tickrng
from tickrng.errors import DataError, as_count
from tickrng.extract import BitStream
from tickrng.models import Distribution, SourceModel
from tickrng.sim import IntraGateProfile, apply_dead_time, generate_gated
from tickrng.suite import TestEntry, TestId, TestReport, run_battery

# report types, not test classes, despite their names
TestId.__test__ = False
TestEntry.__test__ = False
TestReport.__test__ = False

# Seed of the reference pseudo-random stream used for p-value uniformity
# checks; chosen once, never tuned per test.
REFERENCE_SEED = 20260817
REFERENCE_RUNS = 100
RUN_LEN = 1_000_000


def pytest_addoption(parser):
    parser.addoption(
        "--full-scale",
        action="store_true",
        default=False,
        help="also run the 20-run full-scale battery campaign",
    )


@pytest.fixture(scope="session")
def full_scale(request) -> bool:
    return request.config.getoption("--full-scale")


@pytest.fixture(scope="session")
def reference_report() -> TestReport:
    """Battery report over 100 disjoint million-bit runs of a PCG64 stream.

    Computed once per session (about 10 s on 2 cores); the per-test p-value
    populations feed the uniformity and pass-rate checks.
    """
    rng = np.random.Generator(np.random.PCG64(REFERENCE_SEED))
    bits = BitStream(rng.integers(0, 2, REFERENCE_RUNS * RUN_LEN, dtype=np.uint8))
    return run_battery(bits, run_len=RUN_LEN)


# Closed forms that the program does not compute; the tests check the
# simulations and ``models`` against them.
def photon_pmf(source: SourceModel, n: int) -> float:
    """Probability of exactly ``n`` photons in one detection window before loss.

    Poissonian: ``exp(-mu) mu^n / n!``.  Thermal: ``mu^n / (mu+1)^(n+1)``.
    """
    n = as_count(n, "photon number")
    mu = source.mu
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if source.distribution is Distribution.POISSON:
        return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))
    return math.exp(n * math.log(mu) - (n + 1) * math.log1p(mu))


def window_pmf(p: float, n: int) -> float:
    """Probability that the first clicking window is window ``n`` (1-indexed).

    Windows click independently with probability ``p``, so the index is
    geometric: ``(1-p)^(n-1) * p``.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"click probability must lie in [0, 1], got {p!r}")
    return (1.0 - p) ** (as_count(n, "window index", positive=True) - 1) * p


def balance_ratio(p: float) -> float:
    """Predicted zeros/ones balance ``P_EVEN / P_ODD = 1 - p`` of raw parity bits.

    ``p`` is the per-window click probability; at ``p = 1`` every gap is a
    single window, all bits are odd, and the ratio degenerates to 0.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"click probability must lie in [0, 1], got {p!r}")
    return 1.0 - p


def geometric_gof_pvalue(gaps, p: float, max_n: int = 50) -> float:
    """Chi-square goodness of fit of integer gaps against the geometric pmf.

    Bins are 1..max_n plus a merged tail; adjacent cells are pooled until
    every expected count is at least 5.
    """
    from scipy.stats import chi2

    gaps = np.asarray(gaps)
    total = gaps.size
    observed = [np.count_nonzero(gaps == n) for n in range(1, max_n + 1)]
    observed.append(int(np.count_nonzero(gaps > max_n)))
    expected = [total * window_pmf(p, n) for n in range(1, max_n + 1)]
    expected.append(total * (1.0 - p) ** max_n)

    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    if len(pooled_exp) < 2:
        raise ValueError("too few cells with expected count >= 5 for a chi-square test")
    chi2_stat = sum((o - e) ** 2 / e for o, e in zip(pooled_obs, pooled_exp))
    return float(chi2.sf(chi2_stat, df=len(pooled_exp) - 1))


def binomial_sigma(p: float, n: int) -> float:
    """Standard deviation of an empirical fraction of n Bernoulli(p) draws."""
    return math.sqrt(p * (1.0 - p) / n)


def reference_dead_time(slots, dead: int, last: int) -> np.ndarray:
    """Per-candidate dead-time filter: the slow oracle for ``sim.apply_dead_time``."""
    keep = np.zeros(len(slots), dtype=bool)
    for i, s in enumerate(np.asarray(slots).tolist()):
        if s - last > dead:
            keep[i] = True
            last = s
    return keep


def reference_click_probabilities(survival: float, n_photons) -> np.ndarray:
    """One power per gate: the slow oracle for ``qkd._click_probabilities``."""
    return 1.0 - (1.0 - survival) ** np.asarray(n_photons)


def reference_detections(rng, n_photons, survival: float, clock, profile) -> tuple[np.ndarray, np.ndarray]:
    """Whole-length draws over every gate: the slow oracle for the detection
    flags (the gates a block's value is below 2 in) and slots of
    ``qkd._Detector``, block by block.

    ``rng`` is the party's generator and ``n_photons`` every gate's pair
    number; returns the per-gate detection flags and the party's slots.
    """
    n_gates = n_photons.size
    detected = rng.random(n_gates) < reference_click_probabilities(survival, n_photons)
    if clock.dark_prob > 0.0:
        detected |= rng.random(n_gates) < clock.dark_prob
    gates = np.flatnonzero(detected)
    r = clock.slots_per_gate
    slots = gates * r + profile.sample(rng, gates.size, r)
    if clock.dead_slots:
        keep = apply_dead_time(slots, clock.dead_slots, -(clock.dead_slots + 1))
        detected[gates[~keep]] = False
        slots = slots[keep]
    return detected, slots.astype(np.uint64)


def reference_intervals(stream, include_first: bool = True) -> np.ndarray:
    """Clock counts between consecutive detections, in full 64 bits: the
    oracle for ``extract.interval_bytes``.

    With ``include_first`` the first detection is differenced against
    clock tick 0, yielding one interval per detection; otherwise the
    first detection only starts the counter.
    """
    slots = stream.slots
    return np.diff(slots, prepend=np.zeros(int(include_first), slots.dtype))


def reference_mod2(stream, include_first: bool = True) -> np.ndarray:
    """uint64 intervals: the slow oracle for ``extract.extract_mod2``."""
    return (reference_intervals(stream, include_first) & np.uint64(1)).astype(np.uint8)


def reference_mod4(stream, include_first: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """uint64 intervals modulo 4: the slow oracle for ``extract.mod4_arrays``."""
    v = reference_intervals(stream, include_first) % np.uint64(4)
    return (v >> np.uint64(1)).astype(np.uint8), (v & np.uint64(1)).astype(np.uint8)


def intra_gate_profile(kind: str, r: int) -> IntraGateProfile:
    """``uniform``, ``fixed:1``, ``fixed:r`` (the gate's last slot) or
    ``weighted``, whose odd slots are twice as likely as its even ones."""
    if kind == "uniform":
        return IntraGateProfile.uniform()
    if kind == "weighted":
        weights = [2.0 - i % 2 for i in range(r)]
        return IntraGateProfile.weighted([w / sum(weights) for w in weights])
    return IntraGateProfile.fixed_slot(1 if kind == "fixed:1" else r)


def traced_peak(fn, *args) -> int:
    """The peak of the bytes ``tracemalloc`` sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc does not see every allocation (pocketfft's scratch, the
# interpreter's own), so some budgets are on the peak RSS of a fresh
# interpreter.  A process's ru_maxrss starts at the peak of the process
# that started it, so that interpreter is started by a small launcher, not
# by pytest.
RSS_RISE = """
import resource, sys
exec(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
exec(sys.argv[2])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def rss_rise_mb(setup: str, work: str, cwd=None) -> float:
    """How far running the code ``work`` after ``setup`` raises the peak RSS
    of a fresh interpreter, in MB; the last word ``work`` prints is read over."""
    env = dict(os.environ, PYTHONPATH=str(Path(tickrng.__file__).parents[1]))
    launcher = "import subprocess, sys\nsubprocess.run(sys.argv[1:], check=True)\n"
    argv = [sys.executable, "-c", launcher, sys.executable, "-c", RSS_RISE, setup, work]
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, check=True)
    return int(done.stdout.split()[-1]) / 1024  # KiB to MB


@contextmanager
def fed_fifo(path, blob: bytes):
    """A named pipe at ``path`` that a thread fills with ``blob`` once it is opened to read."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(blob)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    yield path
    writer.join(timeout=10)


def reference_at_coincidences(bits, detected, coincident) -> np.ndarray:
    """A cumulative sum over every gate: the slow oracle for ``qkd``'s coincidence lookup.

    ``detected`` flags the gates of the party's detections and
    ``coincident`` the gates both parties detected in.
    """
    return np.asarray(bits)[(np.cumsum(detected) - 1)[coincident]]


def reference_eve_advantage(params, n_events: int) -> float:
    """Full 64-bit intervals: the slow oracle for ``qkd.eve_qnd_advantage``.

    Bob's stream is drawn as the adversary's is; each guess is the parity
    of the 0-based gate interval times ``slots_per_gate``, the first
    interval counted from gate 0 and its guess flipped when odd intra-gate
    slots are the likelier ones.
    """
    source, clock = params.pair_source, params.clock_bob
    bob = SourceModel(source.distribution, source.mu, source.eta * params.channel_transmittance_bob)
    (child,) = np.random.SeedSequence(params.seed).spawn(1)
    stream = generate_gated(bob, clock, params.profile, n_events, child)
    r = np.uint64(clock.slots_per_gate)
    true_bits = reference_intervals(stream) & np.uint64(1)
    gates = (stream.slots - np.uint64(1)) // r
    guesses = (np.diff(gates, prepend=np.uint64(0)) * r) & np.uint64(1)
    guesses[0] ^= np.uint64(params.profile.odd_slot_probability(clock.slots_per_gate) > 0.5)
    return int(np.count_nonzero(guesses == true_bits)) / stream.slots.size - 0.5


def reference_lfsr_complexity(bits) -> int:
    """Scalar Berlekamp–Massey: the slow oracle for ``lfsr.lfsr_complexities``.

    The sequence is held as a Python integer (bit ``i`` is element ``i``)
    pre-multiplied by the current and by the previous connection
    polynomial, so each step is a couple of word-level shift/xor
    operations.  The all-zero sequence has complexity 0.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    seq = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    fold_c = seq  # sequence times current connection polynomial, low bits consumed
    fold_b = seq  # same for the polynomial before the last length change
    deg = 0  # current LFSR length
    gap = 0  # distance since the last discrepancy
    for pos in range(bits.size):
        disc = fold_c & (1 << gap)
        gap += 1
        if disc:
            fold_c >>= gap
            gap = 0
            if 2 * deg <= pos:
                fold_b, fold_c = fold_c, fold_b
                deg = pos + 1 - deg
            fold_c ^= fold_b
    return deg


def reference_cusum_excursion(x, direction: str) -> int:
    """One int64 walk per direction: the slow oracle for ``suite._cusum_excursions``."""
    x = np.asarray(x)
    steps = 2 * x.astype(np.int64) - 1
    if direction == "reverse":
        steps = steps[::-1]
    return int(np.abs(np.cumsum(steps)).max())


# NIST SP 800-22 Rev. 1a, 2.9.4 and 2.9.7: the smallest n for each block
# length L, and L -> (expected value, variance) of the statistic.
NIST_UNIVERSAL_THRESHOLDS = (
    (1_059_061_760, 16),
    (496_435_200, 15),
    (231_669_760, 14),
    (107_560_960, 13),
    (49_643_520, 12),
    (22_753_280, 11),
    (10_342_400, 10),
    (4_654_080, 9),
    (2_068_480, 8),
    (904_960, 7),
    (387_840, 6),
)
NIST_UNIVERSAL_TABLE = {
    6: (5.2177052, 2.954),
    7: (6.1962507, 3.125),
    8: (7.1836656, 3.238),
    9: (8.1764248, 3.311),
    10: (9.1723243, 3.356),
    11: (10.170032, 3.384),
    12: (11.168765, 3.401),
    13: (12.168070, 3.410),
    14: (13.167693, 3.416),
    15: (14.167488, 3.419),
    16: (15.167379, 3.421),
}


def reference_spectral_below(bits, threshold: float) -> int:
    """One whole-length rfft: the slow oracle for ``suite``'s spectral count.

    The number of the first n // 2 bins of the +/-1 signal's DFT whose
    magnitude is below ``threshold``.
    """
    signal = 2.0 * np.asarray(bits, dtype=np.float64) - 1.0
    return int(np.count_nonzero(np.abs(np.fft.rfft(signal)[: signal.size // 2]) < threshold))


def reference_universal_pvalue(x) -> float:
    """int64 block values by a matrix product: the slow oracle for ``suite.universal_test``.

    ``x`` holds at least 387,840 bits.  The thresholds and the table are
    NIST's published values, written here again so the oracle shares no
    constant with the code it checks.
    """
    x = np.asarray(x)
    n = x.size
    for threshold, block_len in NIST_UNIVERSAL_THRESHOLDS:
        if n >= threshold:
            break
    q = 10 * (1 << block_len)
    k = n // block_len - q
    powers = (1 << np.arange(block_len - 1, -1, -1)).astype(np.int64)
    blocks = x[: (q + k) * block_len].reshape(q + k, block_len) @ powers
    positions = np.arange(1, q + k + 1, dtype=np.int64)
    order = np.argsort(blocks, kind="stable")
    sorted_blocks = blocks[order]
    sorted_pos = positions[order]
    prev = np.empty_like(sorted_pos)
    prev[0] = 0
    same = sorted_blocks[1:] == sorted_blocks[:-1]
    prev[1:] = np.where(same, sorted_pos[:-1], 0)
    dist = (sorted_pos - prev)[sorted_pos > q]
    fn = float(np.log2(dist.astype(np.float64)).sum()) / k
    expected, variance = NIST_UNIVERSAL_TABLE[block_len]
    c = 0.7 - 0.8 / block_len + (4.0 + 32.0 / block_len) * k ** (-3.0 / block_len) / 15.0
    sigma = c * math.sqrt(variance / k)
    return math.erfc(abs(fn - expected) / (math.sqrt(2.0) * sigma))


def reference_read_bits(blob: bytes, fmt: str) -> list[int]:
    """One byte, or one bit, at a time: the slow oracle for ``formats.read_bits``.

    Returns the bits of a whole bit file, or raises the same
    :class:`DataError` messages.
    """
    if fmt == "ascii01":
        bits = []
        for pos, byte in enumerate(blob):
            if byte in b"01":
                bits.append(byte - ord("0"))
            elif byte not in b" \t\n\v\f\r":
                line = blob.count(b"\n", 0, pos) + 1
                ch = blob[pos : pos + 4].decode("utf-8", "replace")[0]
                raise DataError(f"line {line}: stray character {ch!r} in bit stream")
        return bits
    if len(blob) < 8:
        raise DataError("packed bit file shorter than its 8-byte header")
    bit_len = int.from_bytes(blob[:8], "little")
    payload = blob[8:]
    need = (bit_len + 7) // 8
    if len(payload) < need:
        raise DataError(f"packed bit file truncated: header says {bit_len} bits, payload has {len(payload)} bytes")
    if len(payload) > need:
        raise DataError(f"packed bit file has {len(payload) - need} trailing bytes")
    bits = [int(bit) for byte in payload for bit in f"{byte:08b}"]
    if any(bits[bit_len:]):
        raise DataError("packed bit file has non-zero padding bits")
    return bits[:bit_len]


def reference_format_slots(slots) -> bytes:
    """One ``str`` per slot: the slow oracle for ``formats._format_slots``."""
    text = "\n".join(map(str, np.asarray(slots).tolist()))
    return (text + "\n" if text else "").encode()


def reference_parse_slots(blob: bytes):
    """One ``bytes`` token per line: the slow oracle for ``formats._parsed_blocks``.

    Returns the slots and a function naming the line of entry i, and raises
    the same :class:`DataError` messages.
    """

    def line_of(pos: int) -> int:
        return blob.count(b"\n", 0, pos) + 1

    def not_a_slot(pos: int) -> DataError:
        start = blob.rfind(b"\n", 0, pos) + 1
        end = blob.find(b"\n", pos)
        text = blob[start : end if end >= 0 else None].strip(b" \t\r").decode("utf-8", "replace")
        return DataError(f"line {line_of(pos)}: {text!r} is not a decimal slot index")

    def overflows(token: bytes) -> bool:
        digits = token.lstrip(b"0")
        return len(digits) > 20 or int(digits or b"0") > 2**64 - 1

    buf = np.frombuffer(blob, dtype=np.uint8)
    digit = (buf - ord("0")) < 10
    blank = (buf == ord(" ")) | (buf == ord("\t")) | (buf == ord("\r"))
    stray = ~(digit | blank | (buf == ord("\n")))
    if stray.any():
        raise not_a_slot(int(stray.argmax()))
    edges = np.flatnonzero(np.diff(blank.view(np.int8), prepend=0, append=0))
    padded = np.concatenate(([False], digit, [False]))
    split = padded[edges[0::2]] & padded[edges[1::2] + 1]
    if split.any():
        raise not_a_slot(int(edges[0::2][split.argmax()]))

    def where(i: int) -> str:
        starts = np.flatnonzero(padded[1:-1] & ~padded[:-2])
        return f"line {line_of(int(starts[i]))}"

    tokens = blob.split()
    try:
        return np.array(tokens, dtype=np.uint64), where
    except (OverflowError, ValueError):
        # int() refuses 2**64 and more, and strings of over 4300 digits.
        i = next((i for i, t in enumerate(tokens) if overflows(t)), None)
        if i is not None:
            raise DataError(f"{where(i)}: slot index {tokens[i].decode()} overflows 64 bits") from None
        return np.array([t.lstrip(b"0") or b"0" for t in tokens], dtype=np.uint64), where
