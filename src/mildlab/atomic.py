"""Atomic artifact writes: a temp file in the destination directory, then rename.

Readers see the previous file or the complete new one, never a partial
write.  Files are created with mode 0600 and written without newline
translation, so the bytes on disk are exactly the text written.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


@contextmanager
def atomic_writer(dest: Path) -> Iterator[TextIO]:
    """Text handle on a temp file next to dest, renamed over dest on success.

    On an exception the temp file is removed and dest is left as it was.
    """
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=dest.name + ".")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
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
