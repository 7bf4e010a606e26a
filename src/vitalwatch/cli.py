"""Command line entry point.

One binary, five subcommands:

* ``monitor``  live multi-bed run from the sources named in the config
* ``replay``   run one recorded stream through the full chain (or, with
               ``--emit``, act as the sending side and push the file to a
               listening socket bed on another host)
* ``tune``     grid-search thresholds against a labeled stream
* ``synth``    write a synthetic stream plus its ground-truth label file
* ``selftest`` quick built-in sanity checks, no test tooling needed

Exit codes: 0 success, 1 runtime failure (bad source, unwritable output,
failed selftest), 2 configuration problems (one from a config file names the
line from which on the file is refused).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, Settings, check_bed_id, load_settings
from .pipeline import monitor_run, replay_run, standardized_stream
from .selftest import main as run_selftest
from .sources import ReplaySource, SourceError, emit_lines, socket_address
from .synth import default_spec, read_labels, write_stream
from .tuning import grid_search, render_table, reports_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vitalwatch",
        description="streaming vital-sign anomaly monitor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="key=value settings file")

    monitor = sub.add_parser("monitor", help="live multi-bed monitoring")
    add_config(monitor)
    monitor.add_argument("--out", metavar="DIR", help="archive directory")
    monitor.add_argument("--refresh", type=float, help="board refresh seconds")
    monitor.add_argument("--speedup", type=float, help="pacing multiplier")
    monitor.add_argument(
        "--duration", type=float, help="stop after this many seconds"
    )

    replay = sub.add_parser("replay", help="run a recorded stream")
    replay.add_argument("stream", help="recorded stream file")
    add_config(replay)
    replay.add_argument("--bed", default="bed1", help="bed id for the archives")
    replay.add_argument("--out", metavar="DIR", help="archive directory")
    replay.add_argument("--speedup", type=float, help="pacing multiplier")
    replay.add_argument(
        "--emit",
        metavar="HOST:PORT",
        help="send the stream to a listening socket bed instead of scoring it",
    )

    tune = sub.add_parser("tune", help="threshold grid search on a labeled stream")
    tune.add_argument("stream", help="recorded stream file")
    add_config(tune)
    tune.add_argument("--labels", required=True, help="ground-truth label file")
    tune.add_argument("--out", metavar="CSV", help="also write the report as CSV")

    synth = sub.add_parser("synth", help="generate a synthetic stream + labels")
    add_config(synth)
    synth.add_argument("--steps", type=int, default=300)
    synth.add_argument("--anomalies", type=int, default=9)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default="synthetic.csv", help="stream file to write")
    synth.add_argument(
        "--labels", help="label file to write (default: <out>.labels.csv)"
    )

    sub.add_parser("selftest", help="built-in sanity checks")

    return parser


def _settings(args: argparse.Namespace) -> Settings:
    settings = load_settings(getattr(args, "config", None))
    flags = {name: getattr(args, name, None) for name in ("speedup", "refresh")}
    flags = {name: value for name, value in flags.items() if value is not None}
    return replace(settings, **flags) if flags else settings


def cmd_monitor(args: argparse.Namespace) -> int:
    settings = _settings(args)
    if args.duration is not None and not 0 <= args.duration < math.inf:
        raise ConfigError(f"--duration must be finite and >= 0, got {args.duration}")
    out_dir = args.out or settings.archive_dir
    monitor_run(settings, out_dir=out_dir, duration=args.duration)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    settings = _settings(args)
    check_bed_id(args.bed)
    if args.emit:
        try:
            host, port = socket_address(args.emit)
        except ValueError as exc:
            raise ConfigError(f"--emit: {exc}") from None
        source = ReplaySource(
            args.stream, settings.password, settings.poll_interval, settings.speedup
        )
        sent = emit_lines((line for line, _ in source.frames()), host, port)
        print(f"emitted {sent} frames to {args.emit}")
        return 0
    out_dir = args.out or settings.archive_dir
    replay_run(settings, args.stream, bed=args.bed, out_dir=out_dir, screen=sys.stdout)
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    settings = _settings(args)
    lines = [line for line, _ in ReplaySource(args.stream, settings.password).frames()]
    timesteps, vectors = standardized_stream(lines, settings)
    if len(vectors) <= settings.train_steps:
        raise ConfigError(
            f"{args.stream} leaves {len(vectors)} vectors after warm-up, too few "
            f"to score any after train_steps = {settings.train_steps}"
        )
    try:
        labels = read_labels(args.labels)
    except OSError as exc:
        raise SourceError(f"cannot read labels {args.labels}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise SourceError(f"bad label file {args.labels}: {exc}") from None
    arity, frames = settings.schema().arity, len(lines)
    for label in labels:
        if not (0 <= label.timestep < frames and all(0 <= c < arity for c in label.channels)):
            raise SourceError(
                f"label file {args.labels}: timestep {label.timestep}, channels "
                f"{list(label.channels)} outside the {frames} frames of {arity} columns"
            )
    policy = settings.match_policy()
    reports, best = grid_search(
        settings.tuning_grid(),
        vectors,
        labels,
        policy=policy,
        train_steps=settings.train_steps,
        timesteps=timesteps,
    )
    print(render_table(reports, policy))
    print(
        f"best: nu1={best.nu1:g} nu2={best.nu2:g} sigma={best.sigma:g} ell={best.ell:g} "
        f"(detected {best.detected}, missed {best.missed}, "
        f"false alarms {best.false_alarms})"
    )
    if args.out:
        Path(args.out).write_text(reports_csv(reports), encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    settings = _settings(args)
    for flag, value in (("--anomalies", args.anomalies), ("--seed", args.seed)):
        if value < 0:
            raise ConfigError(f"{flag} must be >= 0, got {value}")
    # place anomalies after the detector's lead-in, spaced to fit the stream
    lead = settings.lead_in
    if args.steps <= lead:
        raise ConfigError(
            f"{args.steps} steps is too short to tune: it must exceed "
            f"warmup + train_steps = {lead}"
        )
    first = max(lead + 20, min(150, args.steps // 3))
    span = args.steps - 1 - first
    if args.anomalies > 0 and span < args.anomalies:
        raise ConfigError(
            f"{args.steps} steps is too short for {args.anomalies} anomalies "
            f"after a lead-in of {first}"
        )
    gap = max(1, min(25, span // max(1, args.anomalies - 1))) if args.anomalies else 1
    spec = default_spec(
        steps=args.steps,
        n_anomalies=args.anomalies,
        seed=args.seed,
        dim=settings.schema().arity,
        first_anomaly=first,
        min_gap=gap,
    )
    labels_path = args.labels or f"{args.out}.labels.csv"
    labels = write_stream(spec, args.out, labels_path, names=settings.schema_names)
    print(
        f"wrote {args.steps} steps, {len(labels)} labeled anomalies "
        f"-> {args.out}, {labels_path}"
    )
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    return run_selftest(sys.stdout)


_COMMANDS = {
    "monitor": cmd_monitor,
    "replay": cmd_replay,
    "tune": cmd_tune,
    "synth": cmd_synth,
    "selftest": cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SourceError as exc:
        print(f"source error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (``vitalwatch selftest | head -1``). Point
        # stdout at devnull so the exit-time flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:  # sources and config report their own reads
        fits = exc.filename is not None and exc.strerror
        reason = f"cannot write {exc.filename}: {exc.strerror}" if fits else exc
        print(f"output error: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
