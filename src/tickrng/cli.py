"""Command line front end.

Subcommands: ``simulate`` (detector event streams), ``extract`` (bits
from clock counts), ``bias`` (analytic vs Monte Carlo parity split),
``test`` (statistical battery -> CSV report), ``protocol`` (BBM92/BB84
harness), ``eve`` (timing-adversary advantage sweep) and ``replay``
(reproduce any earlier output from its manifest).

Exit codes: 0 success; 1 usage error; 2 data error; 3 (``test`` only)
at least one applicable procedure failed at the significance level.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, GuardError
from .extract import (
    BitStream,
    ExtractorConfig,
    Modulus,
    balance,
    extract_mod2,
    flip_debias,
    mod4_arrays,
)
from .formats import (
    BIT_FORMATS,
    EVENT_FORMATS,
    RunManifest,
    read_bits,
    read_events,
    read_manifest,
    write_bits,
    write_events,
    write_manifest,
    write_report,
)
from .models import Distribution, SourceModel, parity_probabilities
from .qkd import ProtocolParams, eve_qnd_advantage, run_bb84, run_bbm92
from .sim import (
    GENERATOR_ALGORITHM,
    ClockConfig,
    ClockMode,
    IntraGateProfile,
    empirical_parity,
    generate_free_running,
    generate_gated,
)
from .suite import TestId, run_battery

__all__ = ["main", "run", "build_parser"]

_CONVENTIONS = {
    "first_interval": "counted from clock tick 0",
    "mod4_bit_order": "basis bit is the high bit, key bit the low bit",
    "flip_debias_phase": "bit t is XORed with t mod 2, counting from t = 0",
    "basis_application": "detection T uses the chooser's T-th output",
}


class UsageError(Exception):
    pass


# Every number on the command line is read by these two.
def _integer(text: str) -> int:
    """An optional "-" and ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _real(text: str) -> float:
    """An integer with an optional "." fraction and exponent, or nan or inf,
    which every real option's range check refuses with its own message."""
    if not re.fullmatch(r"-?([0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|inf|nan)", text):
        raise ValueError(f"invalid float value: {text!r}")
    return float(text)


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a bad command line; ``type=int`` and ``type=float``
    options read with :func:`_integer` and :func:`_real`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _integer)
        self.register("type", float, _real)

    def error(self, message):
        raise UsageError(message)


def _add_source_args(parser: _Parser) -> None:
    parser.add_argument(
        "--dist", choices=[d.value for d in Distribution], default="poisson", dest="distribution",
    )
    parser.add_argument("--mu", type=float, default=None, help="mean photon number per window")
    parser.add_argument("--eta", type=float, default=None, help="detector efficiency (default 1.0)")
    parser.add_argument(
        "--mu-eta", type=float, default=None, dest="mu_eta",
        help="shorthand for --mu VALUE --eta 1.0",
    )


def _source_from_args(args) -> SourceModel:
    """The source model; rewrites ``--mu-eta X`` in ``args`` as ``--mu X --eta 1.0``,
    and an unset ``--eta`` as ``--eta 1.0``."""
    if args.mu_eta is not None:
        for flag in ("mu", "eta"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} and --mu-eta are mutually exclusive")
        args.mu, args.mu_eta = args.mu_eta, None
    if args.mu is None:
        raise UsageError("one of --mu or --mu-eta is required")
    if args.eta is None:
        args.eta = 1.0
    return SourceModel(Distribution(args.distribution), args.mu, args.eta)


def _profile_from_spec(spec: str) -> IntraGateProfile:
    if spec == "uniform":
        return IntraGateProfile.uniform()
    if spec.startswith("fixed:"):
        return IntraGateProfile.fixed_slot(_integer(spec.split(":", 1)[1]))
    if spec.startswith("weighted:"):
        weights = [_real(w) for w in spec.split(":", 1)[1].split(",")]
        return IntraGateProfile.weighted(weights)
    raise UsageError(
        f"unknown profile {spec!r}; expected 'uniform', 'fixed:K' or 'weighted:w1,w2,...'"
    )


def _resolve_seed(args) -> int:
    """``args.seed``, drawn fresh and stored back when none was given."""
    if args.seed is None:
        args.seed = int(np.random.SeedSequence().entropy)
    return args.seed


def _stage(args, write, summary: str = "", conventions=(), **parameters) -> None:
    """Write ``args.out`` by ``write(path)``, then its manifest; print ``summary`` if any.

    The manifest is derived from the subcommand's declared options.  The
    argv holds every option that has a value, in declaration order: a
    boolean pair always as ``--x`` or ``--no-x``, a ``store_true`` flag only
    when set, anything else as ``flag str(value)``.  The parameters hold the
    same options but ``seed`` and ``out``, keyed by dest, updated with
    ``parameters``.  The generator is recorded exactly when the subcommand
    declares ``--seed``.  Callers first resolve the seed and ``--mu-eta``
    into ``args``, so the argv is the canonical form of the run.
    """
    write(args.out)
    argv, declared = [args.subcommand], {}
    for action in args.parser._actions:
        value = getattr(args, action.dest, None)
        if not action.option_strings or value is None:
            continue
        if isinstance(action, argparse.BooleanOptionalAction):
            argv.append(action.option_strings[0 if value else 1])
        elif action.nargs != 0:
            argv += [action.option_strings[0], str(value)]
        elif value:
            argv.append(action.option_strings[0])
        if action.dest not in ("seed", "out"):
            declared[action.dest] = value
    generator = None
    if "seed" in vars(args):
        generator = {"algorithm": GENERATOR_ALGORITHM, "seed": args.seed, "numpy": np.__version__}
    manifest = RunManifest(
        subcommand=args.subcommand,
        argv=argv,
        parameters={**declared, **parameters},
        outputs=[args.out],
        generator=generator,
        conventions={name: _CONVENTIONS[name] for name in conventions},
    )
    write_manifest(manifest, args.out)
    if summary:
        print(summary)


def _emit_text(args, text: str, **manifest) -> None:
    """Print ``text``; with ``--out``, also write it there and record its manifest."""
    print(text, end="")
    if args.out:
        _stage(args, lambda path: Path(path).write_text(text), **manifest)


def cmd_simulate(args) -> int:
    source = _source_from_args(args)
    profile = _profile_from_spec(args.profile)
    mode = ClockMode.GATED if args.mode == "gated" else ClockMode.FREE_RUNNING
    clock = ClockConfig(
        mode=mode,
        slots_per_gate=args.slots_per_gate,
        dark_prob=args.dark_prob,
        dead_slots=args.dead_slots,
    )
    seed = _resolve_seed(args)
    if mode is ClockMode.GATED:
        stream = generate_gated(source, clock, profile, args.events, seed)
    else:
        stream = generate_free_running(source, clock, args.events, seed)
    _stage(
        args, lambda path: write_events(stream, path, fmt=args.format),
        f"wrote {len(stream)} events to {args.out}",
        conventions=["first_interval"], mode=mode.value,
    )
    return 0


def cmd_extract(args) -> int:
    stream = read_events(args.events, fmt=args.events_format)
    modulus = Modulus(args.modulus)
    conventions = ["first_interval"]
    if modulus is Modulus.MOD2:
        bits = extract_mod2(stream, ExtractorConfig(include_first=args.include_first))
    else:
        basis, key = mod4_arrays(stream, ExtractorConfig(include_first=args.include_first))
        interleaved = np.empty(2 * basis.size, dtype=np.uint8)
        interleaved[0::2] = basis
        interleaved[1::2] = key
        bits = BitStream(interleaved)
        conventions.append("mod4_bit_order")
    if args.debias:
        bits = flip_debias(bits)
        conventions.append("flip_debias_phase")
    summary = f"wrote {len(bits)} bits to {args.out} (balance {balance(bits).ratio:.6f})"
    _stage(args, lambda path: write_bits(bits, path, fmt=args.bits_format), summary, conventions)
    return 0


def cmd_bias(args) -> int:
    source = _source_from_args(args)
    analytic = parity_probabilities(source)
    lines = [
        f"distribution        {source.distribution.value}",
        f"mu_eta              {source.effective_mean:.6g}",
        f"P_EVEN              {analytic.p_even:.6f}",
        f"P_ODD               {analytic.p_odd:.6f}",
        f"predicted_balance   {analytic.p_even / analytic.p_odd:.6f}",
    ]
    if args.mc_events:
        seed = _resolve_seed(args)
        clock = ClockConfig(mode=ClockMode.FREE_RUNNING)
        stream = generate_free_running(source, clock, args.mc_events, seed)
        even, odd = empirical_parity(stream)
        total = even + odd
        lines += [
            f"mc_events           {total}",
            f"mc_seed             {seed}",
            f"mc_even_fraction    {even / total:.6f}",
            f"mc_odd_fraction     {odd / total:.6f}",
        ]
    print("\n".join(lines))
    return 0


def cmd_test(args) -> int:
    bits = read_bits(args.bits, fmt=args.bits_format)
    report = run_battery(bits, alpha=args.alpha, run_len=args.run_len)
    runs = len({e.run_index for e in report.entries})
    for test_id in TestId:
        rows = [e for e in report.entries if e.test_id is test_id]
        applicable = [e for e in rows if e.applicable]
        if not applicable:
            print(f"{test_id.value:20s} n/a")
            continue
        passed = sum(e.passed for e in applicable)
        worst = min(e.p_value for e in applicable)
        print(f"{test_id.value:20s} pass {passed}/{len(applicable)}  min p = {worst:.4g}")
    if args.out:
        _stage(
            args, lambda path: write_report(report, path),
            f"wrote report ({len(report.entries)} rows) to {args.out}",
            runs=runs, **report.parameters,
        )
    return 3 if report.failures() else 0


def _gated_params(args, **options):
    """The function from a gate width to the run's gated ``ProtocolParams``.

    The source, the profile and the seed are resolved first, in that order,
    and each call builds the clock before the parameters, so a usage error
    names the first bad option.
    """
    source = _source_from_args(args)
    profile = _profile_from_spec(args.profile)
    seed = _resolve_seed(args)

    def at(slots_per_gate: int) -> ProtocolParams:
        clock = ClockConfig(ClockMode.GATED, slots_per_gate, args.dark_prob)
        return ProtocolParams(source, clock, clock, profile, seed=seed, **options)

    return at


def cmd_protocol(args) -> int:
    params = _gated_params(
        args, n_gates=args.gates, channel_transmittance_alice=args.t_alice,
        channel_transmittance_bob=args.t_bob, intrinsic_error=args.error,
        k_bootstrap=args.k_bootstrap,
    )(args.slots_per_gate)
    if args.protocol == "bbm92":
        result = run_bbm92(params)
    else:
        result = run_bb84(params, heralded_alice=(args.protocol == "bb84-heralded"))
    lines = [
        f"protocol={args.protocol}",
        f"gates={params.n_gates}",
        f"seed={params.seed}",
        f"coincidences={result.coincidences}",
        f"sifted_length={result.sifted_length}",
        f"qber={result.qber:.6f}",
        f"basis_balance_alice={result.basis_balance_alice:.6f}",
        f"basis_balance_bob={result.basis_balance_bob:.6f}",
        f"sift_fraction={result.sift_fraction:.6f}",
        f"pair_gates={result.pair_gates}",
    ]
    _emit_text(args, "\n".join(lines) + "\n", conventions=_CONVENTIONS)
    return 0


def cmd_eve(args) -> int:
    params_at = _gated_params(args, n_gates=1)
    if not args.r_values.replace(",", "").strip():
        raise UsageError("--r-values must name at least one gate width")
    try:
        r_values = [_integer(v.strip(" \t")) for v in args.r_values.split(",")]
    except ValueError:
        raise UsageError(f"--r-values must be a comma-separated list of integers, got {args.r_values!r}")
    rows = [(r, eve_qnd_advantage(params_at(r), args.events)) for r in r_values]
    text = "slots_per_gate,advantage\n" + "".join(f"{r},{adv:.6f}\n" for r, adv in rows)
    _emit_text(args, text, r_values=r_values)
    return 0


def cmd_replay(args) -> int:
    manifest = read_manifest(args.manifest)
    if manifest.subcommand == "replay":
        raise DataError("a replay manifest cannot be replayed")
    out_dir = Path(args.out_dir)
    argv = list(manifest.argv)
    # only the value after --out names an output; any other item stays as recorded
    for i in range(1, len(argv)):
        if argv[i - 1] == "--out":
            argv[i] = str(out_dir / Path(argv[i]).name)
    try:
        # a help or version flag prints its text and exits from inside argparse
        with contextlib.redirect_stdout(io.StringIO()):
            replayed = build_parser().parse_args(argv)
    except UsageError as exc:
        raise DataError(f"manifest argv {manifest.argv} does not parse: {exc}") from None
    except SystemExit:
        raise DataError(
            f"manifest argv {manifest.argv} does not parse: it asks for help or the version"
        ) from None
    out_dir.mkdir(parents=True, exist_ok=True)
    return replayed.func(replayed)


def build_parser() -> _Parser:
    parser = _Parser(prog="tickrng", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="simulate a detector event stream")
    _add_source_args(p)
    p.add_argument("--mode", choices=["free", "gated"], default="free")
    p.add_argument("--slots-per-gate", type=int, default=1)
    p.add_argument("--profile", default="uniform", help="uniform | fixed:K | weighted:w1,w2,...")
    p.add_argument("--dark-prob", type=float, default=0.0)
    p.add_argument("--dead-slots", type=int, default=0)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=EVENT_FORMATS, default="ascii")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate, parser=p)

    p = sub.add_parser("extract", help="extract bits from an event stream")
    p.add_argument("--debias", action="store_true")
    p.add_argument("--events", required=True)
    p.add_argument("--events-format", choices=EVENT_FORMATS, default="ascii")
    p.add_argument("--modulus", choices=[m.value for m in Modulus], default="mod2")
    p.add_argument("--include-first", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--bits-format", choices=BIT_FORMATS, default="ascii01")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract, parser=p)

    p = sub.add_parser("bias", help="analytic parity split, optionally vs Monte Carlo")
    _add_source_args(p)
    p.add_argument("--mc-events", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("test", help="run the statistical battery on a bit stream")
    p.add_argument("--bits", required=True)
    p.add_argument("--bits-format", choices=BIT_FORMATS, default="ascii01")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--run-len", type=int, default=1_000_000)
    p.add_argument("--out", default=None, help="write the CSV report here")
    p.set_defaults(func=cmd_test, parser=p)

    p = sub.add_parser("protocol", help="run a QKD protocol round")
    p.add_argument("--protocol", choices=["bbm92", "bb84", "bb84-heralded"], default="bbm92")
    _add_source_args(p)
    p.add_argument("--gates", type=int, required=True)
    p.add_argument("--t-alice", type=float, default=1.0)
    p.add_argument("--t-bob", type=float, default=1.0)
    p.add_argument("--error", type=float, default=0.0)
    p.add_argument("--slots-per-gate", type=int, default=2)
    p.add_argument("--dark-prob", type=float, default=0.0)
    p.add_argument("--profile", default="uniform")
    p.add_argument("--k-bootstrap", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_protocol, parser=p)

    p = sub.add_parser("eve", help="timing-adversary advantage for several gate widths")
    _add_source_args(p)
    p.add_argument("--r-values", default="1,2", help="comma-separated slots-per-gate values")
    p.add_argument("--profile", default="uniform")
    p.add_argument("--dark-prob", type=float, default=0.0)
    p.add_argument("--events", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eve, parser=p)

    p = sub.add_parser("replay", help="re-run a manifest, writing outputs to a new directory")
    p.add_argument("manifest")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:  # after DataError, which is a ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
