"""Digests of the detector's verdicts and the replay archives, for checking
that a change leaves them bit-identical.

Run from the repository root:

    python3 tools/verdict_digest.py --seeds 201 7
    python3 tools/verdict_digest.py --seeds 201 7 --against HEAD~1
    python3 tools/verdict_digest.py --seeds 201 7 --against HEAD~1 --changes walk

For each seed it prints seven SHA-256 digests, built from the benchmark's
own seeded inputs (``perfbench/``, imported and never written):

* ``tune``: every ``run_detector`` verdict (kind, timestep, ``delta.hex()``,
  resolves) over the tune-grid streams and configs;
* ``state``: the dictionary each of those runs leaves, as the bytes of its
  ``basis``, ``gram()``, ``inv_gram`` and ``usage`` and its element
  ``timesteps``, so that an update change which keeps every verdict but
  moves the inverse or the usage still shows. Each run goes through
  ``KoadEngine.feed_run`` with the arguments ``run_detector`` gives it, and
  the same runs give the ``tune`` verdicts;
* ``report``: what ``tune`` reports over the same streams and configs:
  each stream's ``reports_csv`` through ``grid_search`` at
  ``settings.match_policy()``, then the row ``pick_best`` chose, with its
  matches, so that a change to the scoring the ``tune`` verdicts feed shows;
* ``replay``: the replay-archive capture's ``events.csv`` and
  ``frames_bed1.csv``, with their wall-clock columns stripped, then every
  event of an in-memory ``BedPipeline`` over the same capture: verdicts with
  ``delta.hex()``, which the archive rounds to 6 decimals, and data warnings
  by kind and timestep;
* ``read``: the lines ``ReplaySource(path, password).frames()`` hands out
  for the replay capture written three ways: as ``inputs.write_stream``
  writes it; as a capture file (the schema's names as its header, each row
  without its first field, the password); and with CRLF line ends behind a
  byte-order mark, so that a change to how a replay reads its file shows;
* ``edge``: the frame archive and the events of a ``BedPipeline`` over the
  same capture with ``EDGE_LINES`` spliced in at every phase: wire spellings
  the capture never holds (CRLF, padded fields, ``+.25``, ``7.``) and every
  flag kind;
* ``walk``: every verdict, with ``delta.hex()``, of ``run_detector`` at the
  deployment config over the capture's ``standardized_stream``, the detector
  pass replay-archive times, whose row check rounds delta to 6 decimals.

With ``--against REV`` it extracts REV's ``src/`` with ``git archive`` into
a temporary directory, computes the same digests with that package and with
the working tree's, both from the working tree's ``perfbench/`` inputs, in
one fresh process each, and prints both sides. ``--changes`` names the
digests the change means to move, comma-separated (CI passes the names that
the change's new lines in ``tools/verdict_changes.txt`` declare). The run
exits 1 when a digest that is not named differs on any seed, or a named one
is identical on every seed, and 2 with one line on standard error when git
cannot archive REV.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ("tune", "state", "report", "replay", "read", "edge", "walk")


def tune_settings(work: Path):
    """The tune-grid workload's settings: the deployment config with its
    sigma and ell sweeps."""
    import inputs
    import workloads
    from vitalwatch import load_settings

    return load_settings(inputs.write_config(
        work,
        "grid_sigma = " + ", ".join(map(str, workloads.TUNE_SIGMAS)),
        "grid_ell = " + ", ".join(map(str, workloads.TUNE_ELLS)),
    ))


def tune_digest(seed: int, work: Path) -> tuple[str, str, int, int]:
    """Digests of the verdicts and of the final dictionary states, the
    verdict count and the number of runs."""
    import inputs
    import workloads
    from vitalwatch import KoadEngine
    from vitalwatch.pipeline import standardized_stream

    settings = tune_settings(work)
    grid = settings.tuning_grid()
    digest, state = hashlib.sha256(), hashlib.sha256()
    verdicts = runs = 0
    for stream in inputs.tune_streams(workloads.TUNE_LINES, seed, workloads.TUNE_STREAMS):
        timesteps, vectors = standardized_stream(stream.lines, settings)
        vectors = np.asarray(vectors, dtype=float)
        for detector in grid:
            runs += 1
            engine = KoadEngine(vectors.shape[1], detector)
            for v in engine.feed_run(vectors, timesteps, settings.train_steps):
                verdicts += 1
                digest.update(event_row(v).encode())
            d = engine.dictionary
            for array in (d.basis, d.gram(), d.inv_gram, d.usage):
                state.update(array.tobytes())
            state.update(f"{d.timesteps}\n".encode())
    return digest.hexdigest(), state.hexdigest(), verdicts, runs


def report_digest(seed: int, work: Path) -> tuple[str, int]:
    """Digest of ``tune``'s report over each tune-grid stream, and the
    number of grid rows."""
    import inputs
    import workloads
    from vitalwatch import grid_search
    from vitalwatch.pipeline import standardized_stream
    from vitalwatch.tuning import reports_csv

    settings = tune_settings(work)
    digest = hashlib.sha256()
    rows = 0
    for stream in inputs.tune_streams(workloads.TUNE_LINES, seed, workloads.TUNE_STREAMS):
        timesteps, vectors = standardized_stream(stream.lines, settings)
        reports, best = grid_search(
            settings.tuning_grid(), vectors, stream.labels,
            policy=settings.match_policy(), train_steps=settings.train_steps,
            timesteps=timesteps,
        )
        rows += len(reports)
        digest.update(reports_csv(reports).encode())
        digest.update(f"best {reports_csv([best]).split()[1]} {best.matches}\n".encode())
    return digest.hexdigest(), rows


def replay_digest(seed: int, work: Path) -> tuple[str, int, int]:
    """Digest of both archives and the in-memory chain's events, and the
    archives' event and frame row counts."""
    import inputs
    import workloads
    from vitalwatch import BedPipeline, load_settings, replay_run

    settings = load_settings(inputs.write_config(work))
    stream, _ = inputs.replay_capture(workloads.REPLAY_LINES, seed, settings.warn_threshold)
    path, _ = inputs.write_stream(stream, work, "capture")
    out = work / "archive"
    replay_run(settings, path, out_dir=out)
    digest = hashlib.sha256()
    counts = []
    # events.csv stamps wall time in its first column, frames_bed1.csv in its third
    for name, wall in (("events.csv", 0), ("frames_bed1.csv", 2)):
        rows = (out / name).read_text(encoding="utf-8").splitlines()[1:]
        counts.append(len(rows))
        for row in rows:
            fields = row.split(",")
            del fields[wall]
            digest.update((",".join(fields) + "\n").encode())
    pipe = BedPipeline("bed1", settings)
    for line in stream.lines:
        for e in pipe.feed_line(line, 0.0):
            digest.update(event_row(e).encode())
    return digest.hexdigest(), *counts


def read_digest(seed: int, work: Path) -> tuple[str, int]:
    """Digest of the lines a replay hands out for the replay capture written
    as a wire file, as a capture file and with CRLF ends behind a
    byte-order mark; and their count over the three."""
    import inputs
    import workloads
    from vitalwatch import ReplaySource, load_settings

    settings = load_settings(inputs.write_config(work))
    stream, _ = inputs.replay_capture(workloads.REPLAY_LINES, seed, settings.warn_threshold)
    wire, _ = inputs.write_stream(stream, work, "wire")
    capture = work / "capture.csv"
    rows = [",".join(settings.schema().names), *(line.split(",", 1)[1] for line in stream.lines)]
    capture.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    crlf = work / "crlf.csv"
    crlf.write_bytes("\ufeff".encode() + wire.read_bytes().replace(b"\n", b"\r\n"))
    digest = hashlib.sha256()
    lines = 0
    for path in (wire, capture, crlf):
        for line, _ in ReplaySource(path, settings.password).frames():
            lines += 1
            digest.update((line + "\n").encode())
    return digest.hexdigest(), lines


def walk_digest(seed: int, work: Path) -> tuple[str, int]:
    """Digest of the deployment config's ``run_detector`` verdicts over the
    replay capture's standardized vectors, and their count."""
    import inputs
    import workloads
    from vitalwatch import load_settings
    from vitalwatch.pipeline import standardized_stream
    from vitalwatch.tuning import run_detector

    settings = load_settings(inputs.write_config(work))
    stream, _ = inputs.replay_capture(workloads.REPLAY_LINES, seed, settings.warn_threshold)
    timesteps, vectors = standardized_stream(stream.lines, settings)
    verdicts = run_detector(
        vectors, settings.threshold_config(), settings.train_steps, timesteps
    )
    digest = hashlib.sha256()
    for v in verdicts:
        digest.update(event_row(v).encode())
    return digest.hexdigest(), len(verdicts)


# Four-column frames; {pw} is the capture's password. All ASCII: the
# screen's treatment of non-ASCII digits changed once on purpose.
EDGE_LINES = [
    "{pw},72,98,118,76\r\n", "{pw}, 72 ,\t98,118 , 76", "{pw},+.25,7.,-3.5,+118",
    "{pw},0072.50,98.,.5,76 \n", "{pw},72,98,118,10000", "{pw},72,98,118,10000.001",
    "{pw},72,0,118,76", "{pw},-0,98,118,76", "{pw},null,98,118,76", "{pw},72,-,118,76",
    "{pw},72,98,,76", "{pw},72,98,1e3,76", "{pw},72,nan,118,76", "{pw},72,98,118",
    "{pw},72,98,118,76,5", "WRONG,72,98,118,76", "",
]


def event_row(event) -> str:
    """A verdict with its exact delta, or a data warning by kind and timestep."""
    from vitalwatch import DataWarning

    if isinstance(event, DataWarning):
        return f"data-warning-{'raised' if event.active else 'cleared'},{event.at_timestep}\n"
    kind, at, delta, resolves = event
    return f"{kind.value},{at},{delta.hex()},{resolves}\n"


def edge_digest(seed: int, work: Path) -> tuple[str, int]:
    """Digest of an archived ``BedPipeline``'s frame rows and events over
    the replay capture with ``EDGE_LINES`` spliced in during warm-up,
    training and live scoring; and the number of lines fed."""
    import io

    import inputs
    import workloads
    from vitalwatch import BedPipeline, load_settings

    settings = load_settings(inputs.write_config(work))
    stream, _ = inputs.replay_capture(workloads.REPLAY_LINES, seed, settings.warn_threshold)
    edge = [line.format(pw=inputs.PASSWORD) for line in EDGE_LINES]
    lines = list(stream.lines)
    for at in (10_000, 75, 20):  # from the back, so each index is the capture's
        lines[at:at] = edge
    sink = io.StringIO()
    pipe = BedPipeline("bed1", settings, frame_archive=sink)
    digest = hashlib.sha256()
    for t, line in enumerate(lines):
        for e in pipe.feed_line(line, 1000.0 + 12.5 * t):
            digest.update(event_row(e).encode())
    digest.update(sink.getvalue().encode())
    return digest.hexdigest(), len(lines)


def print_digests(seeds: list[int], src: Path) -> None:
    """Print every seed's digests, computed with the package under src."""
    sys.dont_write_bytecode = True  # leave perfbench/ exactly as checked out
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            digest, state, verdicts, runs = tune_digest(seed, work / "tune")
            print(f"seed {seed} tune {digest} ({verdicts} verdicts, {runs} runs)")
            print(f"seed {seed} state {state} ({runs} runs)")
            digest, rows = report_digest(seed, work / "report")
            print(f"seed {seed} report {digest} ({rows} rows)")
            digest, events, frames = replay_digest(seed, work / "replay")
            print(f"seed {seed} replay {digest} ({events} events, {frames} frames)")
            digest, lines = read_digest(seed, work / "read")
            print(f"seed {seed} read {digest} ({lines} lines)")
            digest, fed = edge_digest(seed, work / "edge")
            print(f"seed {seed} edge {digest} ({fed} lines)")
            digest, verdicts = walk_digest(seed, work / "walk")
            print(f"seed {seed} walk {digest} ({verdicts} verdicts)")


def digests_in_child(seeds: list[int], src: Path) -> list[str]:
    """The lines ``print_digests`` prints, from a fresh interpreter, so
    that each side imports its own ``vitalwatch``."""
    argv = [sys.executable, __file__, "--src", str(src), "--seeds", *map(str, seeds)]
    return subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()


def undeclared(theirs: list[str], ours: list[str], declared: set[str]) -> list[str]:
    """Why the two sides' ``print_digests`` lines fail the check: each digest
    that differs on some seed but is not declared, and each declared digest
    that is identical on every seed. Empty when the check passes."""
    changed = {a.split()[2] for a, b in zip(theirs, ours, strict=True) if a != b}
    return [
        f"{name}: {'changed, not declared' if name in changed else 'declared, unchanged'}"
        for name in DIGESTS
        if (name in changed) != (name in declared)
    ]


def against(rev: str, seeds: list[int], declared: set[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True,
        )
        if archive.returncode:
            message = archive.stderr.decode(errors="replace").strip().splitlines()
            print(f"verdict_digest: cannot archive {rev}: {' '.join(message)}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        theirs = digests_in_child(seeds, Path(tmp) / "src")
    ours = digests_in_child(seeds, ROOT / "src")
    mismatches = 0
    for line_theirs, line_ours in zip(theirs, ours, strict=True):
        same = line_theirs == line_ours
        mismatches += not same
        print(f"{rev}:    {line_theirs}")
        print(f"working: {line_ours}{'' if same else '   MISMATCH'}")
    print(f"{mismatches} mismatch(es) against {rev}")
    problems = undeclared(theirs, ours, declared)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument(
        "--against", metavar="REV",
        help="compare with the digests of this git revision's src/",
    )
    parser.add_argument(
        "--changes", default="", metavar="NAMES",
        help=f"digests the change moves on purpose, comma-separated, of {', '.join(DIGESTS)}",
    )
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    declared = {name.strip() for name in args.changes.split(",") if name.strip()}
    if declared - set(DIGESTS):
        parser.error(f"--changes names no digest: {', '.join(sorted(declared - set(DIGESTS)))}")
    if args.against:
        return against(args.against, args.seeds, declared)
    print_digests(args.seeds, args.src)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
