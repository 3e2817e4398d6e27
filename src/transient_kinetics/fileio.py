"""Text I/O shared by every reader and writer: input files, CSV, numbers, booleans, atomic writes.

Depends only on ``errors``, so every other module of the package can import it.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from .errors import ConfigError, LineError

_TRUE_WORDS = frozenset({"true", "1", "yes", "on"})
_FALSE_WORDS = frozenset({"false", "0", "no", "off"})


def parse_number(text: str) -> float:
    """The finite number ``text`` spells, as ``float`` reads it (surrounding space ignored). Raises
    ValueError for any other text, NaN and +-inf included; each caller re-raises it as its own input error."""
    try:
        number = float(text)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return number


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
    raise ValueError(f"expected a boolean, got {value.strip()!r}")


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of an input file, a leading byte-order mark dropped; ConfigError names ``what`` if unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def parse_csv(text: str, source):
    """Split comma-separated text into ``(metadata, rows)``.

    ``rows`` lists ``(file line number, cells)`` of the lines, header first,
    each cell stripped of surrounding space. Blank lines and ``#`` lines are
    skipped; each ``# key=value`` line sets ``metadata[key]`` to ``(file
    line number, value)``, both stripped. A missing header, or a row whose
    cell count differs from the header's, raises ``LineError``.
    """
    metadata: dict[str, tuple[int, str]] = {}
    rows: list[tuple[int, list[str]]] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            key, eq, value = line[1:].partition("=")
            if eq:
                metadata[key.strip()] = (n, value.strip())
            continue
        cells = [cell.strip() for cell in line.split(",")]
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
