"""Work that may leave this process, and the one rule for where it runs.

``start_child(work)`` forks a child that runs ``work()`` and sends the bytes
it returns back through a pipe, but only if ``os.fork`` exists and this
process runs one thread (a fork copies no other thread, nor what it holds).
Otherwise, or if the pipe or the fork fails, it starts nothing and returns
None. The number of usable CPUs is no part of the rule: on one CPU a forked
child measured as fast as the same work done here, and the text child keeps
this process's peak RSS lower. ``reap_child`` reads the payload and waits
for the child; it returns None if the child failed. The child always ends
in ``os._exit``, never in the caller's frames: status 0 after sending its
payload, 1 if ``work`` raised; it sends no error text.

A piece of work whose child did not start or failed is done again in this
process by the caller, so an error reads the same as on the in-process path
and an unexpected exception surfaces with its traceback. Where a piece of
work ran never changes an output byte, the exit code or an error's text.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, NamedTuple

__all__ = ["Child", "reap_child", "start_child"]


def _can_fork() -> bool:
    """Whether ``start_child`` forks (see the module notes)."""
    return hasattr(os, "fork") and threading.active_count() == 1


class Child(NamedTuple):
    """A forked child and the read end of the pipe it sends through."""

    pid: int
    reader: int


def start_child(work: Callable[[], bytes]) -> Child | None:
    """Fork a child that runs ``work`` and sends what it returns; None,
    with no child started, if ``os.fork`` is missing, another thread runs
    or the pipe or the fork failed."""
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
            payload = work()
            with open(writer, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    return Child(pid, reader)


def reap_child(child: Child) -> bytes | None:
    """Read what ``child`` sent, then wait for it: its payload, or None if
    it failed. Reading first means a child with more to send than a pipe
    holds never blocks on this process waiting for it.
    """
    try:
        with open(child.reader, "rb") as pipe:
            sent = pipe.read()
    finally:
        _, status = os.waitpid(child.pid, 0)
    return None if status else sent
