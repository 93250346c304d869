"""Atomic artifact writes: a temp file in the destination directory, then rename.

Readers see the previous file or the complete new one, never a partial
write.  Files are created with mode 0600; text is written without newline
translation, so the bytes on disk are exactly the text or bytes written.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_writer(dest: Path, binary: bool = False) -> Iterator[IO]:
    """Text (bytes if binary) handle on a temp file next to dest, renamed over it on success.

    On an exception the temp file is removed and dest is left as it was.
    """
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=dest.name + ".")
    try:
        with os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, dest)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(dest: Path, text: str) -> None:
    """Write via a temp file + rename so partial artifacts never appear."""
    with atomic_writer(dest) as fh:
        fh.write(text)


def json_text(obj) -> str:
    """The one JSON artifact layout: sorted keys, two-space indent, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
