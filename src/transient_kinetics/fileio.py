"""Text I/O shared by every reader and writer: boolean words, atomic writes.

Depends on nothing else in the package, so ``config``, ``dscfit`` and
``cli`` can all import it.
"""

from __future__ import annotations

import os
from pathlib import Path

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


def atomic_write(path: str | Path, text: str) -> None:
    """Write UTF-8 text with LF newlines to ``path`` via write-then-rename.

    The temp file gets a unique name in the target directory, so concurrent
    writers and stray ``*.tmp`` files never collide, and it is removed if
    anything fails. It is created like a plain ``open``, so the output keeps
    the usual umask-derived permission bits.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
