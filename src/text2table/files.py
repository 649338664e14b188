"""Atomic file writes: a reader sees the old file or the new one, never part of one."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from typing import IO


@contextmanager
def atomic_write(path: str, mode: str = "w", **open_kwargs) -> Iterator[IO]:
    """Yield a temporary file beside ``path``, opened with ``mode``, that
    replaces ``path`` when the block ends without error. On any error the
    temporary file is removed and ``path`` is left as it was. The file gets
    the mode ``open`` would give a new file under the umask, and an
    ``OSError`` on a file names ``path``, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        umask = os.umask(0)  # read by setting it, so it is set back at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes it 0600
        with os.fdopen(fd, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
