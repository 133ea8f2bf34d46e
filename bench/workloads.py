"""The benchmark's workloads: each one's CLI chain, its output checks, and
an in-process twin that calls the same public functions the CLI calls.

Every workload is three CLI calls (its stages).  Each call writes one
output, named in ``outputs``; the checks read only those files.  A check
raises :class:`CheckError`, and the runner counts the call as failed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 301
MU_ETA = 0.5
ALPHA = 0.01
N_PROCEDURES = 13
REPORT_HEADER = "test_id,test_index,run_index,p_value,pass"
PINS_FILE = Path(__file__).with_name("pins.json")


class CheckError(Exception):
    """An output of the program is wrong."""


def pins_for(name: str, seed: int) -> dict | None:
    """Pinned outputs of workload ``name`` if ``seed`` is the seed they were pinned at."""
    pins = json.loads(PINS_FILE.read_text())[name]
    return pins if pins["seed"] == seed else None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Pipeline:
    """``simulate --mode gated`` -> ``extract --debias`` -> ``test``."""

    name: str
    why: str
    events: int
    slots_per_gate: int
    dead_slots: int
    events_format: str
    bits_format: str
    run_len: int = 1_000_000

    stages = ("simulate", "extract", "test")
    # Stage times under the names users know them by: name -> stage indices.
    stage_names = {"simulate_s": (0,), "extract_s": (1,), "test_s": (2,)}

    @property
    def outputs(self) -> dict[str, str]:
        ext = {"ascii": "txt", "binary": "bin", "ascii01": "txt", "packed": "bin"}
        return {
            "simulate": f"events.{ext[self.events_format]}",
            "extract": f"bits.{ext[self.bits_format]}",
            "test": "report.csv",
        }

    @property
    def runs(self) -> int:
        return self.events // self.run_len

    def sizes(self) -> dict:
        return {"events": self.events, "run_len": self.run_len, "runs": self.runs}

    def ok_exit(self, stage: str) -> tuple[int, ...]:
        # test exits 3 when some p-value falls below alpha: a verdict on the
        # bits, not a failure of the program.
        return (0, 3) if stage == "test" else (0,)

    def cli_argvs(self, seed: int, paths: dict[str, Path]) -> list[list[str]]:
        return [
            [
                "simulate", "--mode", "gated",
                "--slots-per-gate", str(self.slots_per_gate),
                "--dead-slots", str(self.dead_slots),
                "--profile", "uniform", "--mu-eta", str(MU_ETA),
                "--events", str(self.events), "--seed", str(seed),
                "--format", self.events_format, "--out", str(paths["simulate"]),
            ],
            [
                "extract", "--events", str(paths["simulate"]),
                "--events-format", self.events_format, "--debias",
                "--bits-format", self.bits_format, "--out", str(paths["extract"]),
            ],
            [
                "test", "--bits", str(paths["extract"]),
                "--bits-format", self.bits_format,
                "--run-len", str(self.run_len), "--out", str(paths["test"]),
            ],
        ]

    def check(self, stage: str, seed: int, path: Path, exit_code: int) -> dict:
        """Check one call's output; return the counts it shows."""
        pins = pins_for(self.name, seed)
        data = path.read_bytes()
        if stage == "simulate":
            if self.events_format == "binary":
                _require(len(data) == 8 * self.events, f"event file has {len(data)} bytes")
            else:
                lines = data.count(b"\n")
                _require(lines == self.events, f"event file has {lines} lines")
            if pins:
                _require(sha256(path) == pins["events_sha256"], "event file digest differs from pin")
            return {"events": self.events, "events_bytes": len(data)}
        if stage == "extract":
            if self.bits_format == "packed":
                n = int.from_bytes(data[:8], "little")
                _require(len(data) == 8 + (n + 7) // 8, "packed bit file length disagrees with header")
            else:
                body = data.rstrip(b"\n")
                _require(not body.strip(b"01"), "ascii bit file holds characters other than 0/1")
                n = len(body)
            _require(n == self.events, f"{n} bits from {self.events} events")
            if pins:
                _require(sha256(path) == pins["bits_sha256"], "bit file digest differs from pin")
            return {"bits": n, "bits_bytes": len(data)}
        rows = data.decode().splitlines()
        _require(rows[:1] == [REPORT_HEADER], "report header differs")
        rows = rows[1:]
        _require(len(rows) == N_PROCEDURES * self.runs, f"report has {len(rows)} rows")
        failed = 0
        for row in rows:
            _test_id, _index, _run, p_text, passed = row.split(",")
            _require(p_text != "NA", f"procedure not applicable: {row}")
            p = float(p_text)
            _require(0.0 <= p <= 1.0, f"p-value out of range: {row}")
            _require(passed == str(int(p >= ALPHA)), f"pass flag disagrees with p-value: {row}")
            failed += passed == "0"
        _require(exit_code == (3 if failed else 0), f"test exited {exit_code} with {failed} failing rows")
        if pins:
            _require(rows == pins["report_rows"], "report rows differ from pin")
        return {"runs": len(rows) // N_PROCEDURES, "not_applicable": 0}

    def traced(self, seed: int, workdir: Path, tracer) -> dict:
        """Run the chain in-process under ``tracer``; return counts and digests."""
        from tickrng import extract, formats, sim, suite
        from tickrng.models import Distribution, SourceModel

        paths = {stage: workdir / name for stage, name in self.outputs.items()}
        source = SourceModel(Distribution.POISSON, MU_ETA, 1.0)
        clock = sim.ClockConfig(
            mode=sim.ClockMode.GATED,
            slots_per_gate=self.slots_per_gate,
            dead_slots=self.dead_slots,
        )
        call = tracer.call
        with tracer.span("stage:simulate"):
            stream = call("sim.generate_gated", sim.generate_gated,
                          source, clock, sim.IntraGateProfile.uniform(), self.events, seed)
            call("formats.write_events", formats.write_events,
                 stream, paths["simulate"], fmt=self.events_format)
        with tracer.span("stage:extract"):
            stream = call("formats.read_events", formats.read_events,
                          paths["simulate"], fmt=self.events_format)
            raw = call("extract.extract_mod2", extract.extract_mod2,
                       stream, extract.ExtractorConfig(include_first=True))
            bits = call("extract.flip_debias", extract.flip_debias, raw)
            call("formats.write_bits", formats.write_bits, bits, paths["extract"], fmt=self.bits_format)
        with tracer.span("stage:test"):
            bits = call("formats.read_bits", formats.read_bits, paths["extract"], fmt=self.bits_format)
            report = call("suite.run_battery", suite.run_battery, bits, alpha=ALPHA, run_len=self.run_len)
            call("formats.write_report", formats.write_report, report, paths["test"])
        with tracer.span("suite.procedures"):
            _check_procedures(suite, bits.bits, report, tracer)
        return {
            "counts": {
                "simulate": {"events": len(stream), "events_bytes": paths["simulate"].stat().st_size},
                "extract": {"bits": len(bits), "bits_bytes": paths["extract"].stat().st_size},
                "test": {
                    "runs": len({e.run_index for e in report.entries}),
                    "not_applicable": sum(not e.applicable for e in report.entries),
                },
            },
            "digests": {stage: sha256(path) for stage, path in paths.items()},
        }

    def peak_mb(self, seed: int, workdir: Path) -> dict[str, float]:
        """Traced-allocation peak of reading the event file the twin wrote."""
        from tickrng import formats

        path = workdir / self.outputs["simulate"]
        return {"formats.read_events_peak_mb": _traced_peak(formats.read_events, path, fmt=self.events_format)}


# (metric stem, report rows it yields, call); one call per run segment.
def _procedures(suite):
    return (
        ("frequency_test", ("Frequency",), lambda x, p: suite.frequency_test(x)),
        ("block_frequency_test", ("BlockFrequency",),
         lambda x, p: suite.block_frequency_test(x, block_len=p["block_frequency_block_len"])),
        ("cumulative_sums_test", ("CusumForward",), lambda x, p: suite.cumulative_sums_test(x, "forward")),
        ("cumulative_sums_test", ("CusumReverse",), lambda x, p: suite.cumulative_sums_test(x, "reverse")),
        ("runs_test", ("Runs",), lambda x, p: suite.runs_test(x)),
        ("longest_runs_test", ("LongestRuns",), lambda x, p: suite.longest_runs_test(x)),
        ("rank_test", ("Rank",), lambda x, p: suite.rank_test(x, matrix_dim=p["rank_matrix_dim"])),
        ("dft_test", ("DFFT",), lambda x, p: suite.dft_test(x)),
        ("universal_test", ("Universal",), lambda x, p: suite.universal_test(x)),
        ("approximate_entropy_test", ("ApproximateEntropy",),
         lambda x, p: suite.approximate_entropy_test(x, block_len=p["approximate_entropy_block_len"])),
        ("serial_test", ("Serial1", "Serial2"),
         lambda x, p: suite.serial_test(x, block_len=p["serial_block_len"])),
        ("linear_complexity_test", ("LinearComplexity",),
         lambda x, p: suite.linear_complexity_test(x, block_len=p["linear_complexity_block_len"])),
    )


PROCEDURE_STEMS = tuple(dict.fromkeys(stem for stem, _, _ in _procedures(None)))


def _check_procedures(suite, bits, report, tracer) -> None:
    """Time each procedure on each run segment; its p-values must equal the report's."""
    expected = {(e.test_id.value, e.run_index): e.p_value for e in report.entries}
    for run_index in range(len(bits) // report.run_len):
        segment = bits[run_index * report.run_len:(run_index + 1) * report.run_len]
        for stem, test_ids, fn in _procedures(suite):
            result = tracer.call(f"suite.{stem}", fn, segment, report.parameters)
            values = result if isinstance(result, tuple) else (result,)
            for test_id, p in zip(test_ids, values):
                _require(p == expected[(test_id, run_index)],
                         f"{test_id} on run {run_index}: {p} alone, {expected[(test_id, run_index)]} in the battery")


@dataclass(frozen=True)
class ProtocolSweep:
    """``protocol --protocol bbm92``, ``protocol --protocol bb84-heralded``, ``eve``."""

    name: str
    why: str
    gates: int
    error: float
    eve_events: int
    r_values: tuple[int, ...] = (1, 2, 4)
    slots_per_gate: int = 2

    stages = ("bbm92", "bb84-heralded", "eve")
    stage_names = {"protocol_s": (0, 1), "eve_s": (2,)}
    outputs = {"bbm92": "bbm92.txt", "bb84-heralded": "bb84-heralded.txt", "eve": "eve.txt"}

    def sizes(self) -> dict:
        return {"gates": self.gates, "eve_events": self.eve_events, "r_values": list(self.r_values)}

    def ok_exit(self, stage: str) -> tuple[int, ...]:
        return (0,)

    def cli_argvs(self, seed: int, paths: dict[str, Path]) -> list[list[str]]:
        common = ["--mu-eta", str(MU_ETA), "--seed", str(seed)]
        protocol = [
            ["protocol", "--protocol", p, "--gates", str(self.gates), "--error", str(self.error),
             "--slots-per-gate", str(self.slots_per_gate), *common, "--out", str(paths[p])]
            for p in ("bbm92", "bb84-heralded")
        ]
        eve = ["eve", "--r-values", ",".join(map(str, self.r_values)),
               "--events", str(self.eve_events), *common, "--out", str(paths["eve"])]
        return [*protocol, eve]

    def check(self, stage: str, seed: int, path: Path, exit_code: int) -> dict:
        text = path.read_text()
        pins = pins_for(self.name, seed)
        if pins:
            _require(sha256(path) == pins[f"{stage}_sha256"], f"{stage} output digest differs from pin")
        if stage == "eve":
            rows = text.splitlines()
            _require(rows[0] == "slots_per_gate,advantage", "eve header differs")
            _require([int(r.split(",")[0]) for r in rows[1:]] == list(self.r_values), "eve rows differ")
            advantages = [float(r.split(",")[1]) for r in rows[1:]]
            _require(all(-0.5 <= a <= 0.5 for a in advantages), f"advantage out of range: {advantages}")
            # With one slot per gate the gate index gives the slot away.
            _require(advantages[0] == 0.5, f"advantage at r=1 is {advantages[0]}, not 0.5")
            return {}
        fields = dict(line.split("=", 1) for line in text.splitlines())
        _require(fields["protocol"] == stage and int(fields["gates"]) == self.gates
                 and int(fields["seed"]) == seed, f"{stage} echoes other parameters")
        coincidences, sifted = int(fields["coincidences"]), int(fields["sifted_length"])
        _require(0 < sifted <= coincidences <= int(fields["pair_gates"]) <= self.gates,
                 f"{stage}: counts out of order: {fields}")
        _require(0.0 <= float(fields["qber"]) <= 1.0, f"{stage}: qber {fields['qber']}")
        _require(fields["sift_fraction"] == f"{sifted / coincidences:.6f}", f"{stage}: sift fraction")
        return {"gates": self.gates, "coincidences": coincidences, "sifted_length": sifted}

    def _params(self, qkd, seed: int, slots_per_gate: int, n_gates: int, error: float = 0.0):
        from tickrng.models import Distribution, SourceModel
        from tickrng.sim import ClockConfig, ClockMode, IntraGateProfile

        clock = ClockConfig(mode=ClockMode.GATED, slots_per_gate=slots_per_gate)
        return qkd.ProtocolParams(
            pair_source=SourceModel(Distribution.POISSON, MU_ETA, 1.0),
            clock_alice=clock,
            clock_bob=clock,
            profile=IntraGateProfile.uniform(),
            n_gates=n_gates,
            seed=seed,
            intrinsic_error=error,
        )

    def traced(self, seed: int, workdir: Path, tracer) -> dict:
        from tickrng import qkd

        params = self._params(qkd, seed, self.slots_per_gate, self.gates, self.error)
        with tracer.span("stage:bbm92"):
            bbm92 = tracer.call("qkd.run_bbm92", qkd.run_bbm92, params)
        with tracer.span("stage:bb84-heralded"):
            bb84 = tracer.call("qkd.run_bb84", qkd.run_bb84, params, heralded_alice=True)
        with tracer.span("stage:eve"):
            rows = [
                (r, tracer.call("qkd.eve_qnd_advantage", qkd.eve_qnd_advantage,
                                self._params(qkd, seed, r, 1), self.eve_events))
                for r in self.r_values
            ]
        texts = {
            "bbm92": _protocol_text("bbm92", self.gates, seed, bbm92),
            "bb84-heralded": _protocol_text("bb84-heralded", self.gates, seed, bb84),
            "eve": "slots_per_gate,advantage\n" + "".join(f"{r},{adv:.6f}\n" for r, adv in rows),
        }
        counts = {
            stage: {"gates": params.n_gates, "coincidences": r.coincidences, "sifted_length": r.sifted_length}
            for stage, r in (("bbm92", bbm92), ("bb84-heralded", bb84))
        }
        counts["eve"] = {}
        return {
            "counts": counts,
            "digests": {s: hashlib.sha256(t.encode()).hexdigest() for s, t in texts.items()},
        }

    def peak_mb(self, seed: int, workdir: Path) -> dict[str, float]:
        from tickrng import qkd

        params = self._params(qkd, seed, self.slots_per_gate, self.gates, self.error)
        return {"qkd.run_bbm92_peak_mb": _traced_peak(qkd.run_bbm92, params)}


def _protocol_text(protocol: str, gates: int, seed: int, result) -> str:
    """The text ``tickrng protocol`` prints and writes for ``result``."""
    return (
        f"protocol={protocol}\ngates={gates}\nseed={seed}\n"
        f"coincidences={result.coincidences}\nsifted_length={result.sifted_length}\n"
        f"qber={result.qber:.6f}\n"
        f"basis_balance_alice={result.basis_balance_alice:.6f}\n"
        f"basis_balance_bob={result.basis_balance_bob:.6f}\n"
        f"sift_fraction={result.sift_fraction:.6f}\npair_gates={result.pair_gates}\n"
    )


def _traced_peak(fn, *args, **kwargs) -> float:
    """Peak traced allocation of one call, in MB (2**20 bytes)."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


WORKLOADS = {
    w.name: w
    for w in (
        Pipeline(
            name="pipeline-ascii",
            why="text event and bit files: formatting and parsing carry most of the time",
            events=1_000_000, slots_per_gate=2, dead_slots=0,
            events_format="ascii", bits_format="ascii01",
        ),
        Pipeline(
            name="pipeline-packed",
            why="binary events and packed bits: the battery, the dead-time loop and the binary read carry the time",
            events=2_000_000, slots_per_gate=8, dead_slots=3,
            events_format="binary", bits_format="packed",
        ),
        ProtocolSweep(
            name="protocol-sweep",
            why="BBM92, heralded BB84 and the timing adversary: no file I/O, no battery, import time weighs most",
            gates=4_000_000, error=0.05, eve_events=1_000_000,
        ),
    )
}
