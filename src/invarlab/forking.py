"""Work that may leave this process, and the one rule for where it runs.

``beside(away, here)`` returns ``(away(), here())``. ``here`` runs in this
process; ``away`` runs at the same time in a forked child, but only if
``os.fork`` exists and this process runs one thread (a fork copies no
other thread, nor what it holds). The number of usable CPUs is no part of
the rule: on one CPU a forked child measured as fast as the same work done
here, and the text child keeps this process's peak RSS lower. The child
sends its result back through a pipe as ``marshal`` data, which is exact
for every float, and always ends in ``os._exit``, never in the caller's
frames: status 0 after sending, 1 if ``away`` raised; it sends no error
text. The child is reaped before ``beside`` returns or raises.

If no child started (no ``os.fork``, another thread, or the pipe or the
fork failed), or the child failed or sent too little, ``away`` runs here
after ``here``, so an error reads the same as on the in-process path and an
unexpected exception surfaces with its traceback. Where a piece of work ran
never changes an output byte, the exit code or an error's text.
"""

from __future__ import annotations

import marshal
import os
import threading
from typing import Callable, TypeVar

__all__ = ["beside"]

A = TypeVar("A")
H = TypeVar("H")


def _can_fork() -> bool:
    """Whether ``beside`` forks (see the module notes)."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _fork(away: Callable[[], object]) -> tuple[int, int] | None:
    """A child running ``away``, as its pid and the read end of its pipe;
    None, with no child started, where no child may or could start."""
    if not _can_fork():
        return None
    try:
        reader, writer = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        return None
    if pid == 0:
        status = 1
        try:  # interrupts too: the child must not unwind into the caller
            os.close(reader)
            payload = marshal.dumps(away())
            with open(writer, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    return pid, reader


def beside(away: Callable[[], A], here: Callable[[], H]) -> tuple[A, H]:
    """``(away(), here())``, with ``away`` in a forked child where one may
    start (see the module notes). ``away`` must return marshal data."""
    child = _fork(away)
    sent = b""
    try:
        mine = here()
    finally:
        if child is not None:
            pid, reader = child
            try:  # read first: a child never blocks on a full pipe
                with open(reader, "rb") as pipe:
                    sent = pipe.read()
            finally:
                if os.waitpid(pid, 0)[1]:
                    sent = b""
    try:
        return marshal.loads(sent), mine
    except (EOFError, ValueError, TypeError):
        return away(), mine
