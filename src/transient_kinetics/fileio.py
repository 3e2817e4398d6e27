"""Text I/O shared by every reader and writer: input files, CSV, booleans, atomic writes.

Depends only on ``errors``, so every other module of the package can import it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from .errors import ConfigError, LineError

_TRUE_WORDS = frozenset({"true", "1", "yes", "on"})
_FALSE_WORDS = frozenset({"false", "0", "no", "off"})


def parse_bool(value: str) -> bool:
    """Read a boolean word (case and surrounding space ignored).

    Accepts true/1/yes/on and false/0/no/off. Raises ValueError for any
    other word; each caller re-raises it as its own input error.
    """
    word = value.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of an input file; ConfigError names ``what`` if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


class Metadata(dict):
    """The ``# key=value`` metadata of a CSV file; ``lines[key]`` is its file line number."""

    def __init__(self):
        super().__init__()
        self.lines: dict[str, int] = {}


def parse_csv(text: str, source):
    """Split comma-separated text into ``(metadata, rows)``.

    ``rows`` lists ``(file line number, cells)`` of the stripped lines, header
    first. Blank lines and ``#`` lines are skipped; ``# key=value`` lines fill
    ``metadata``, a ``Metadata`` that also keeps each key's line. A missing
    header, or a row whose cell count differs from the header's, raises
    ``error(message, line number)`` of the caller's class.
    """
    metadata = Metadata()
    rows: list[tuple[int, list[str]]] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            key, eq, value = line[1:].partition("=")
            if eq:
                key = key.strip()
                metadata[key] = value.strip()
                metadata.lines[key] = n
            continue
        cells = line.split(",")
        if rows and len(cells) != len(rows[0][1]):
            raise LineError(source, n, f"expected {len(rows[0][1])} columns, got {len(cells)}")
        rows.append((n, cells))
    if not rows:
        raise LineError(source, 1, "file contains no header row")
    return metadata, rows


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A text handle (UTF-8, LF newlines) whose bytes appear at ``path`` only
    once the ``with`` block ends without an exception, by write-then-rename.

    Large outputs are written into it as they are formatted, one chunk at a
    time. The temp file gets a unique name in the target directory, so
    concurrent writers and stray ``*.tmp`` files never collide, and it is
    removed if anything fails, the block included. It is created like a
    plain ``open``, so the output keeps the usual umask-derived permission
    bits.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write(path: str | Path, text: str) -> None:
    """Write UTF-8 text with LF newlines to ``path`` through ``atomic_writer``."""
    with atomic_writer(path) as fh:
        fh.write(text)
