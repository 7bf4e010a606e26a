"""Which ``vitalwatch`` package the tests import.

A package that ``PYTHONPATH`` names wins, so ``PYTHONPATH=/other/src python
-m pytest`` tests that checkout's package; otherwise this checkout's
``src/`` goes first on ``sys.path``. If the package imported is still not
the chosen one (something imported another copy first), the run stops and
names both paths rather than test the wrong package.

It also holds ``watch_reads``, the fixture that tests a replay's reads by.
"""

from __future__ import annotations

import errno
import io
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _chosen_src() -> Path:
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and (Path(entry) / "vitalwatch" / "__init__.py").is_file():
            return Path(entry).resolve()
    sys.path.insert(0, str(SRC))
    return SRC


_chosen = _chosen_src()
import vitalwatch  # noqa: E402

_imported = Path(vitalwatch.__file__).resolve().parents[1]
if _imported != _chosen:
    pytest.exit(
        f"the tests would import vitalwatch from {_imported}, not from {_chosen}",
        returncode=4,
    )


class WatchedFile(io.FileIO):
    """A file opened for reading that keeps the size of each read it
    returns, and raises an I/O error on read number ``fail_at``, if any."""

    def __init__(self, path: Path, fail_at: int | None) -> None:
        super().__init__(path, "rb")
        self.sizes: list[int] = []
        self.fail_at = fail_at

    def read(self, size: int = -1) -> bytes:
        if len(self.sizes) + 1 == self.fail_at:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        chunk = super().read(size)
        self.sizes.append(len(chunk))
        return chunk


@pytest.fixture()
def watch_reads(monkeypatch):
    """``watch_reads(path, fail_at=None)`` makes every ``Path.open`` of
    ``path`` a ``WatchedFile`` and returns the list they are put on, in
    the order they were opened."""

    def watch(path: Path, fail_at: int | None = None) -> list[WatchedFile]:
        opened: list[WatchedFile] = []
        real_open = Path.open

        def open_(self, *args, **kwargs):
            if self != path:
                return real_open(self, *args, **kwargs)
            opened.append(WatchedFile(self, fail_at))
            return opened[-1]

        monkeypatch.setattr(Path, "open", open_)
        return opened

    return watch
