#!/usr/bin/env python3
"""Benchmark of the tickrng command-line chain.

Run it from the root of a source checkout; it imports ``src/tickrng``
from there and writes only under ``.bench_work/``:

    python3 bench/run.py --workload pipeline-ascii --seed 301 --seconds 30 --trace 0
    python3 bench/run.py --workload all

With ``--trace 0`` it repeats the workload's three CLI calls, each in a
fresh interpreter, for ``--seconds`` seconds and reports end-to-end
metrics as medians over the repetitions.  With ``--trace 1`` it
alternates the same CLI chain with an in-process twin that calls the same
public functions under a span recorder, and reports per-layer metrics.
Every output is checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib.metadata import version
from pathlib import Path

from spans import Tracer
from workloads import DEFAULT_SEED, PROCEDURE_STEMS, WORKLOADS, CheckError, sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CLI = "from tickrng.cli import run; run()"
IMPORT_TIMER = "import time; t = time.perf_counter(); import tickrng.cli; print(time.perf_counter() - t)"
SETUP_SAMPLES = 5
MIN_REPS = 3
MIN_TRACED_REPS = 2

STAGE_METRICS = tuple(dict.fromkeys(name for wl in WORKLOADS.values() for name in wl.stage_names))
SPAN_METRICS = (
    "sim.generate_gated",
    "formats.write_events", "formats.read_events", "formats.write_bits",
    "formats.read_bits", "formats.write_report",
    "extract.extract_mod2", "extract.flip_debias",
    "suite.run_battery", *(f"suite.{stem}" for stem in PROCEDURE_STEMS),
    "qkd.run_bbm92", "qkd.run_bb84", "qkd.eve_qnd_advantage",
)
# metric -> (count key summed over stages, unit)
COUNT_METRICS = {
    "sim.events": ("events", "count"),
    "formats.write_events_bytes": ("events_bytes", "bytes"),
    "formats.read_events_bytes": ("events_bytes", "bytes"),
    "formats.bits_bytes": ("bits_bytes", "bytes"),
    "extract.bits": ("bits", "count"),
    "suite.runs": ("runs", "count"),
    "suite.not_applicable": ("not_applicable", "count"),
    "qkd.gates": ("gates", "count"),
    "qkd.coincidences": ("coincidences", "count"),
    "qkd.sifted_length": ("sifted_length", "count"),
}
PEAK_METRICS = ("formats.read_events_peak_mb", "qkd.run_bbm92_peak_mb")


def spawn(argv: list[str], cwd: Path) -> tuple[float, float, int]:
    """Run one command in ``cwd``; return wall seconds, its own peak RSS in MB, exit code.

    ``os.wait4`` gives the child's own ``ru_maxrss``; ``RUSAGE_CHILDREN``
    would give the maximum over every earlier child as well.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024, proc.returncode


def timed_samples(args: list[str], count: int, expect: str = "", printed: bool = False) -> list[float]:
    """Seconds of ``count`` fresh ``python *args``, after one warm-up run.

    Each run must exit 0 and print text starting with ``expect``.  A
    sample is the run's wall time, or with ``printed`` the number it prints.
    """
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        samples = []
        for i in range(count + 1):
            seconds, _, exit_code = spawn([sys.executable, *args], workdir)
            out = (workdir / "stdout.txt").read_text()
            if exit_code != 0 or not out.startswith(expect):
                stderr = (workdir / "stderr.txt").read_text()
                sys.exit(f"bench: python {' '.join(args)} exited {exit_code}: {stderr[-500:]}")
            if i:
                samples.append(float(out) if printed else seconds)
        return samples
    finally:
        shutil.rmtree(workdir)


def setup_samples() -> list[float]:
    """Wall seconds of ``tickrng --version``: interpreter start plus ``import tickrng.cli``."""
    return timed_samples(["-c", CLI, "--version"], SETUP_SAMPLES, expect="tickrng ")


def run_chain(wl, seed: int) -> dict:
    """One repetition of the workload's CLI chain, each call in its own fresh directory."""
    rep_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        paths = {}
        for stage in wl.stages:
            (rep_dir / stage).mkdir()
            paths[stage] = rep_dir / stage / wl.outputs[stage]
        calls = []
        start = time.perf_counter()
        for stage, argv in zip(wl.stages, wl.cli_argvs(seed, paths)):
            calls.append(spawn([sys.executable, "-c", CLI, *argv], rep_dir / stage))
        wall = time.perf_counter() - start
        rep = {"wall": wall, "stage_s": [c[0] for c in calls], "rss": max(c[1] for c in calls),
               "counts": {}, "digests": {}, "failures": {}}
        for stage, (_, _, exit_code) in zip(wl.stages, calls):
            try:
                if exit_code not in wl.ok_exit(stage):
                    stderr = (rep_dir / stage / "stderr.txt").read_text().strip()
                    raise CheckError(f"exit code {exit_code}: {stderr[-300:]}")
                rep["counts"][stage] = wl.check(stage, seed, paths[stage], exit_code)
                rep["digests"][stage] = sha256(paths[stage])
            except (CheckError, OSError, ValueError, LookupError) as exc:
                rep["failures"][stage] = f"{type(exc).__name__}: {exc}"
        return rep
    finally:
        shutil.rmtree(rep_dir)


def repeat(seconds: float, min_reps: int, body) -> list:
    """Call ``body`` at least ``min_reps`` times, then while another call fits in ``seconds``."""
    deadline = time.perf_counter() + seconds
    reps, durations = [], []
    while len(reps) < min_reps or time.perf_counter() + statistics.median(durations) <= deadline:
        start = time.perf_counter()
        reps.append(body())
        durations.append(time.perf_counter() - start)
    return reps


def mark_differences(wl, reference: dict, rep: dict, what: str) -> None:
    """Fail each stage whose digest or counts differ from ``reference``'s."""
    for stage in wl.stages:
        if stage in rep["failures"] or stage in reference["failures"]:
            continue
        for key in ("digests", "counts"):
            if rep[key].get(stage) != reference[key].get(stage):
                rep["failures"][stage] = f"{key} differ {what}"


def ops(reps: list[dict], wl) -> tuple[int, int]:
    return len(wl.stages) * len(reps), sum(len(r["failures"]) for r in reps)


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}  q3 {q3:.4g}  n={len(values)}"


def report_failures(reps: list[dict], label: str = "rep") -> None:
    for i, rep in enumerate(reps):
        for stage, message in rep["failures"].items():
            print(f"  FAILED {label} {i} {stage}: {message}")


def stage_series(wl, reps: list[dict]) -> dict[str, list[float]]:
    """Each repetition's CLI stage times, under the stage names users know."""
    return {
        name: [sum(r["stage_s"][i] for i in indices) for r in reps]
        for name, indices in wl.stage_names.items()
    }


def measure(wl, seed: int, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics of the CLI chain."""
    setup = setup_samples()
    reps = repeat(seconds, MIN_REPS, lambda: run_chain(wl, seed))
    for rep in reps[1:]:
        mark_differences(wl, reps[0], rep, "between repetitions of one seed")
    series = {
        "wall_s": ([r["wall"] for r in reps], "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": ([r["rss"] for r in reps], "MB"),
    }
    metrics = {}
    for name, (values, unit) in series.items():
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:16s} {metrics[name]['value']:10.4f} {unit:5s} {describe(values)}")
    # Stage times are printed, not reported: their run-to-run spread exceeds the bounds.
    for name, values in stage_series(wl, reps).items():
        print(f"  {name:16s} {statistics.median(values):10.4f} s     {describe(values)}")
    attempted, failed = ops(reps, wl)
    print(f"  {'failed_ops_ratio':16s} {failed / attempted:10.4f} ratio ({failed} of {attempted} CLI calls)")
    report_failures(reps)
    print(f"  counts {json.dumps(reps[0]['counts'])}")
    return metrics, attempted, failed


def traced_rep(wl, seed: int, setup_s: float, workdir: Path) -> dict:
    """One CLI chain, then its in-process twin under a fresh tracer, writing in ``workdir``."""
    cli = run_chain(wl, seed)
    tracer = Tracer(f"{wl.name}-seed{seed}-{workdir.name}")
    twin = {"counts": {}, "digests": {}, "failures": {}}
    try:
        twin.update(wl.traced(seed, workdir, tracer))
    except Exception as exc:  # any error of the program is a failed op, reported below
        message = "".join(traceback.format_exception_only(exc)).strip()
        twin["failures"] = {stage: f"traced run raised {message}" for stage in wl.stages}
    mark_differences(wl, cli, twin, "between the CLI run and the traced run")
    overhead = sum(
        tracer.duration(f"stage:{stage}") - (cli_s - setup_s)
        for stage, cli_s in zip(wl.stages, cli["stage_s"])
    )
    return {"cli": cli, "twin": twin, "tracer": tracer, "workdir": workdir, "overhead": overhead}


def measure_traced(wl, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Per-layer metrics from the in-process twin, plus start-up costs of the CLI."""
    interpreter = timed_samples(["-c", "pass"], 5)
    imports = timed_samples(["-c", IMPORT_TIMER], 5, printed=True)
    setup_s = statistics.median(setup_samples())
    twins = Path(tempfile.mkdtemp(prefix=f"twin-{wl.name}-", dir=WORK))
    try:
        reps = repeat(seconds, MIN_TRACED_REPS,
                      lambda: traced_rep(wl, seed, setup_s, Path(tempfile.mkdtemp(dir=twins))))
        peaks = wl.peak_mb(seed, reps[-1]["workdir"])
    finally:
        shutil.rmtree(twins)
    for rep in reps[1:]:
        mark_differences(wl, reps[0]["twin"], rep["twin"], "between traced repetitions")

    metrics = {
        "cli.interpreter_s": {"value": statistics.median(interpreter), "unit": "s"},
        "cli.import_s": {"value": statistics.median(imports), "unit": "s"},
    }
    stages = stage_series(wl, [r["cli"] for r in reps])
    for name in STAGE_METRICS:
        metrics[f"cli.{name}"] = {"value": statistics.median(stages.get(name, [0.0])), "unit": "s"}
    self_times = [rep["tracer"].self_times() for rep in reps]
    for stem in SPAN_METRICS:
        values = [t.get(stem, 0.0) for t in self_times]
        metrics[f"{stem}_s"] = {"value": statistics.median(values), "unit": "s"}
    counts = reps[0]["twin"]["counts"]
    for name, (key, unit) in COUNT_METRICS.items():
        total = sum(c.get(key, 0) for c in counts.values())
        metrics[name] = {"value": total, "unit": unit}
    for name in PEAK_METRICS:
        metrics[name] = {"value": peaks.get(name, 0.0), "unit": "MB"}
    metrics["trace.overhead_s"] = {"value": statistics.median(r["overhead"] for r in reps), "unit": "s"}

    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    cli_ops = ops([r["cli"] for r in reps], wl)
    twin_ops = ops([r["twin"] for r in reps], wl)
    attempted, failed = cli_ops[0] + twin_ops[0], cli_ops[1] + twin_ops[1]
    print(f"  {'failed_ops_ratio':36s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted}: CLI calls and traced stages)")
    report_failures([r["cli"] for r in reps], "CLI rep")
    report_failures([r["twin"] for r in reps], "traced rep")

    spans_file = WORK / f"trace-{wl.name}-seed{seed}.json"
    spans_file.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "provenance": provenance(wl),
        "spans": [s for rep in reps for s in rep["tracer"].spans],
    }, indent=1) + "\n")
    print(f"  spans written to {spans_file.relative_to(ROOT)}")
    return metrics, attempted, failed


def provenance(wl) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "sizes": wl.sizes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "tickrng" / "cli.py").is_file():
        print(f"bench: no tickrng sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.trace:
        sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        wl = WORKLOADS[name]
        print(f"{name}: seed {args.seed}, {args.seconds} s, trace {args.trace}; {wl.why}")
        print(f"  provenance {json.dumps(provenance(wl))}")
        run = measure_traced if args.trace else measure
        wl_metrics, wl_attempted, wl_failed = run(wl, args.seed, args.seconds)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
        attempted += wl_attempted
        failed += wl_failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
