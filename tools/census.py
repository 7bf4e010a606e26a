"""Census of the package's functions: every one that no command runs is
declared, with its reason, or the census fails.

Run from the repository root, with the package importable (installed, or
``src`` on ``PYTHONPATH``):

    PYTHONPATH=src python3 tools/census.py

It needs Python 3.11 or newer, for ``code.co_qualname``.

It runs the five commands in this process, through ``vitalwatch.cli.main``,
on seeded inputs it writes into a temporary directory, under
``sys.setprofile`` and ``threading.setprofile``, so that the threads the
commands start are seen too:

* ``synth`` twice: a labelled capture and a quiet one with no anomaly;
* ``replay`` at ``speedup = inf`` on the clean capture and on a damaged
  copy with flagged frames and a data-warning burst, and paced at a high
  speedup;
* ``tune`` with ``grid``, ``grid_sigma`` and ``grid_ell`` keys and ``--out``;
* ``monitor`` with a ``replay:``, a ``tail:`` and a ``socket:`` bed, and
  one whose source fails. While it runs, ``replay
  --emit`` sends the damaged capture to the socket bed, and lines are
  appended to the tail bed's file once its source has polled the file and
  found nothing new. The run stops by Ctrl-C (an interrupt of the main
  thread) once both beds' rows are in their frame archives and the failing
  bed's warning row is in ``events.csv``; no sleep decides what runs;
* ``replay`` into the monitor's directory, which holds other beds' frame
  archives, then ``monitor`` there again with ``schema.names = hr,spo2,sys,dia,rr``
  added to its config, whose frame archives hold another schema's header:
  each exits 2 and leaves every file there as it was;
* one refused config, which exits 2;
* ``selftest``.

It then lists every function and method defined in the package's files
(lambdas and comprehensions aside) whose code never started, and checks
them against ``tools/census_allow.txt``: one line per function kept on
purpose, ``module:qualname  category: reason``. The run exits 1 when a
function is neither run nor declared, when an entry is stale (a command runs
it, or it names no function), when an entry's category is not one of
``CATEGORIES``, or when a command exits with a code it should not. Two runs
print the same lines.
"""

from __future__ import annotations

import _thread
import contextlib
import inspect
import os
import signal
import socket
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "census_allow.txt"

# Why a function may stay unrun: README's Library use names it, it is a
# numeric fallback, it is copy and pickle support, it refuses input from
# outside the program that no command's input reaches, or perfbench/
# reaches it by name.
CATEGORIES = ("library", "fallback", "pickle", "refusal", "perfbench")
# The monitor run gives up, and the census fails, if its beds' rows are
# not on disk by then: a hang becomes a failure, and decides nothing else.
MONITOR_TIMEOUT_S = 60.0


# -- the rule ----------------------------------------------------------------


def functions(modules: dict[str, Path]) -> dict[str, tuple[str, list[int]]]:
    """Each function and method that ``modules`` (name to file) define,
    nested ones included, as ``module:qualname``: its file's real path and
    the first line of each definition (a name defined twice, a property's
    setter say, has two)."""
    found: dict[str, tuple[str, list[int]]] = {}

    def walk(module: str, path: str, code: types.CodeType) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                # a function's code, not a class body's, a lambda's or a
                # comprehension's
                if const.co_flags & inspect.CO_OPTIMIZED and const.co_name.isidentifier():
                    name = f"{module}:{const.co_qualname}"
                    found.setdefault(name, (path, []))[1].append(const.co_firstlineno)
                walk(module, path, const)

    for module, path in sorted(modules.items()):
        real = os.path.realpath(path)
        walk(module, real, compile(path.read_text(encoding="utf-8"), real, "exec"))
    return found


@contextlib.contextmanager
def profiled():
    """Record the code of every frame started, in this thread and in any
    thread started inside the block; yields the record, keyed by ``id``."""
    seen: dict[int, types.CodeType] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code  # the value keeps the id from being reused

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield seen
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def unrun(defined: dict[str, tuple[str, list[int]]], seen: dict[int, types.CodeType]) -> list[str]:
    """Each of the ``defined`` functions of which some definition never
    started, by the code that ``profiled`` saw."""
    paths = {code.co_filename for code in seen.values()}
    real = {path: os.path.realpath(path) for path in paths}
    started = {
        (real[code.co_filename], code.co_qualname, code.co_firstlineno) for code in seen.values()
    }
    return [
        name for name, (path, lines) in defined.items()
        if any((path, name.partition(":")[2], line) not in started for line in lines)
    ]


def parse_allowlist(text: str) -> tuple[dict[str, str], list[str]]:
    """The allowlist's entries, name to category, and its malformed lines.
    Blank lines and ``#`` comments are skipped."""
    entries: dict[str, str] = {}
    problems = []
    for number, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, rest = line.partition(" ")
        category, colon, reason = rest.strip().partition(":")
        if ":" not in name or not colon or not reason.strip():
            problems.append(f"line {number}: expected `module:qualname  category: reason`")
        elif category not in CATEGORIES:
            problems.append(f"line {number}: unknown category {category!r}")
        elif name in entries:
            problems.append(f"line {number}: {name} declared twice")
        else:
            entries[name] = category
    return entries, problems


def judge(defined: dict, unrun_names: list[str], entries: dict[str, str]) -> list[str]:
    """The census's findings: each unrun function the allowlist does not
    declare, and each stale entry."""
    problems = [f"not run by any command, not declared: {name}"
                for name in unrun_names if name not in entries]
    for name in sorted(entries):
        if name not in defined:
            problems.append(f"declared, but names no function: {name}")
        elif name not in unrun_names:
            problems.append(f"declared, but a command runs it: {name}")
    return problems


# -- the commands ------------------------------------------------------------


def damaged(capture: str) -> str:
    """The capture with a flagged frame, of each kind in turn, at every 37th
    row, a burst of six flagged frames (one more than ``warn_threshold``'s
    default) at row 200, and a flagged last row, so that a bed's frame
    archive is flushed through its last row."""
    header, *rows = capture.rstrip("\n").split("\n")
    kinds = ["null", "0", "-", "99999", "1e3", "", "7,7"]
    for i in range(37, len(rows), 37):
        fields = rows[i].split(",")
        fields[i % len(fields)] = kinds[(i // 37) % len(kinds)]
        rows[i] = ",".join(fields)
    for i in range(200, 206):
        rows[i] = ",".join(["-"] * len(header.split(",")))
    rows[-1] = rows[-1].replace(",", ",,", 1)
    return "\n".join([header, *rows]) + "\n"


def free_port() -> int:
    with socket.create_server(("127.0.0.1", 0)) as probe:
        return probe.getsockname()[1]


def read(path: Path) -> bytes:
    """The file's bytes, or none while it does not exist."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def rows_on_disk(path: Path) -> int:
    return read(path).count(b"\n") - 1  # less the header


class Run:
    """The commands of one census, in ``work``; ``failures`` collects each
    command that exits with a code it should not."""

    def __init__(self, work: Path, cli_main, seen: dict[int, types.CodeType], tail_idle) -> None:
        self.work = work
        self.cli_main = cli_main
        self.seen = seen
        self.tail_idle = tail_idle  # code a tail source runs once it polls and finds nothing
        self.failures: list[str] = []

    def command(self, expected: int, *argv: str) -> None:
        code = self.cli_main(list(argv))
        if code != expected:
            self.failures.append(f"`vitalwatch {' '.join(argv)}` exited {code}, not {expected}")

    def all(self) -> None:
        w = self.work
        self.command(0, "synth", "--steps", "400", "--anomalies", "4", "--seed", "3",
                     "--out", str(w / "clean.csv"))
        self.command(0, "synth", "--steps", "300", "--anomalies", "0", "--seed", "5",
                     "--out", str(w / "quiet.csv"), "--labels", str(w / "quiet.labels"))
        capture = (w / "clean.csv").read_text(encoding="utf-8")
        (w / "damaged.csv").write_text(damaged(capture), encoding="utf-8")

        self.command(0, "replay", str(w / "clean.csv"), "--out", str(w / "clean"))
        self.command(0, "replay", str(w / "damaged.csv"), "--bed", "icu-2",
                     "--out", str(w / "damaged"))
        self.command(0, "replay", str(w / "clean.csv"), "--speedup", "1e5",
                     "--out", str(w / "paced"))

        (w / "tune.cfg").write_text(
            "grid = 0.03:0.08, 0.07:0.16\ngrid_sigma = 1.5, 2.5\ngrid_ell = 10, 20\n",
            encoding="utf-8",
        )
        self.command(0, "tune", str(w / "clean.csv"), "--labels", str(w / "clean.csv.labels.csv"),
                     "--config", str(w / "tune.cfg"), "--out", str(w / "tune.csv"))

        self.monitor(capture)
        ward = w / "ward"
        archives = {path.name: read(path) for path in ward.iterdir()}
        self.command(2, "replay", str(w / "clean.csv"), "--out", str(ward))
        if {path.name: read(path) for path in ward.iterdir()} != archives:
            self.failures.append("replay into the monitor's directory changed its archives")
        config = (w / "monitor.cfg").read_text(encoding="utf-8")
        (w / "wider.cfg").write_text(config + "schema.names = hr,spo2,sys,dia,rr\n",
                                     encoding="utf-8")
        self.command(2, "monitor", "--config", str(w / "wider.cfg"), "--out", str(ward))
        if {path.name: read(path) for path in ward.iterdir()} != archives:
            self.failures.append("monitor under another schema changed the monitor's archives")

        (w / "refused.cfg").write_text("ell = 20\nmax_size = 20\n", encoding="utf-8")
        self.command(2, "replay", str(w / "clean.csv"), "--config", str(w / "refused.cfg"))
        self.command(0, "selftest")

    def monitor(self, capture: str) -> None:
        """``monitor`` over four beds, stopped by an interrupt once the tail
        and socket beds' rows and the failing bed's warning are on disk."""
        w = self.work
        tail = w / "tail.log"
        tail.write_text("", encoding="utf-8")
        port = free_port()
        (w / "monitor.cfg").write_text(
            f"bed.r.source = replay:{w / 'quiet.csv'}\n"
            f"bed.t.source = tail:{tail}\n"
            f"bed.k.source = socket:127.0.0.1:{port}\n"
            f"bed.f.source = tail:{w / 'missing.log'}\n",
            encoding="utf-8",
        )
        wire = [f"PW123,{row}" for row in capture.split("\n")[1:31]] + ["PW123,72,98,,80"]
        emitted = damaged(capture).count("\n") - 1
        done = threading.Event()
        watcher = threading.Thread(
            target=self.watch, args=(tail, wire, port, emitted, done), name="census-watch"
        )
        hook = sys.getprofile()
        previous = signal.signal(signal.SIGINT, interrupt_keeping(hook, done))
        watcher.start()
        try:
            # --speedup 24: the paced replay bed hands over a frame every half
            # second, so the interrupt finds the consumer idle, not in a frame
            self.command(0, "monitor", "--config", str(w / "monitor.cfg"),
                         "--out", str(w / "ward"), "--speedup", "24")
        finally:
            done.set()
            watcher.join()
            signal.signal(signal.SIGINT, previous)
        if sys.getprofile() is not hook:
            self.failures.append("monitor: the interrupt dropped the profile hook")

    def watch(self, tail: Path, wire: list[str], port: int, emitted: int,
              done: threading.Event) -> None:
        """Feed the tail and socket beds, then interrupt the main thread once
        their rows and the failing bed's warning are on disk (or, if the
        monitor has already returned, only stop)."""
        ward = self.work / "ward"
        deadline = time.monotonic() + MONITOR_TIMEOUT_S

        def wait(ready, what: str) -> None:
            while not ready():
                if done.is_set() or time.monotonic() > deadline:
                    raise TimeoutError(f"monitor: {what}")
                time.sleep(0.01)

        try:
            # the tail source reads from the file's end: append once it polls
            wait(lambda: id(self.tail_idle) in self.seen, "the tail bed never polled its file")
            with tail.open("a", encoding="utf-8") as handle:
                handle.write("\n".join(wire) + "\n")
            self.command(0, "replay", str(self.work / "damaged.csv"),
                         "--emit", f"127.0.0.1:{port}")
            wait(lambda: (
                rows_on_disk(ward / "frames_t.csv") >= len(wire)
                and rows_on_disk(ward / "frames_k.csv") >= emitted
                and b",f,data-warning-raised," in read(ward / "events.csv")
            ), "the beds' rows never reached their archives")
        except Exception as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            if not done.is_set():
                _thread.interrupt_main()


def interrupt_keeping(hook, done: threading.Event):
    """A SIGINT handler that raises KeyboardInterrupt, as Ctrl-C does, until
    ``done`` is set, and keeps the profile ``hook``. An exception raised
    while the hook runs drops it, so the handler first sets a trace function
    that puts the hook back at the thread's next Python call, before the
    hook sees that call."""

    def restore(frame, event, arg):
        sys.settrace(None)
        sys.setprofile(hook)

    def handler(signum, frame):
        if done.is_set():  # the monitor returned before the interrupt came
            return
        sys.settrace(restore)
        raise KeyboardInterrupt

    return handler


def census() -> tuple[dict[str, tuple[str, list[int]]], list[str], list[str]]:
    """Run the commands; returns the package's functions, those that never
    started, and the commands' failures."""
    with tempfile.TemporaryDirectory(prefix="census-") as work, profiled() as seen:
        import vitalwatch
        from vitalwatch.cli import main
        from vitalwatch.sources import TailSource

        package = Path(vitalwatch.__file__).parent
        defined = functions({f"vitalwatch.{p.stem}": p for p in package.glob("*.py")})
        run = Run(Path(work), main, seen, TailSource._replacement.__code__)
        log = Path(work) / "commands.log"
        here = os.getcwd()
        os.chdir(work)
        try:
            with log.open("w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                run.all()
        finally:
            os.chdir(here)
        if run.failures:
            run.failures.append("command output:\n" + log.read_text(encoding="utf-8"))
        return defined, unrun(defined, dict(seen)), run.failures


def main() -> int:
    defined, unrun_names, failures = census()
    if failures:
        print("\n".join(failures))
        return 1
    entries, problems = parse_allowlist(ALLOWLIST.read_text(encoding="utf-8"))
    problems += judge(defined, unrun_names, entries)
    print(f"census: {len(defined)} functions, {len(defined) - len(unrun_names)} run by the "
          f"commands, {len(unrun_names)} not run")
    for name in unrun_names:
        if name in entries:
            print(f"  declared {entries[name]}: {name}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
