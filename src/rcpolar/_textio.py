"""Text files given as a path or as an already open file object."""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def open_text(path_or_file, mode: str = "r", newline: str | None = None):
    """Yield a text file: a path (str, bytes or os.PathLike) is opened as UTF-8
    and closed on exit; a file object is yielded as it is and left open."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, mode, encoding="utf-8", newline=newline) as fh:
            yield fh
    else:
        yield path_or_file
