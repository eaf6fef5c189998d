"""Work done in a forked child while this process goes on.

``start_child(work)`` forks a child that runs ``work()`` and sends the bytes
it returns back through a pipe; ``reap_child`` reads them and waits for the
child. The child always ends in ``os._exit``, never in the caller's frames:
status 0 after sending its payload, or 1 after sending ``TypeName: message``.
What a failed child means is the caller's to decide.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, NamedTuple

__all__ = ["Child", "can_fork", "reap_child", "start_child"]


def can_fork() -> bool:
    """Whether a child may be forked: ``os.fork`` exists and this process
    runs one thread, since a fork copies no other thread, nor what it holds."""
    return hasattr(os, "fork") and threading.active_count() == 1


class Child(NamedTuple):
    """A forked child and the read end of the pipe it sends through."""

    pid: int
    reader: int


def start_child(work: Callable[[], bytes]) -> Child:
    """Fork a child that runs ``work`` and sends what it returns.

    Raises:
        OSError: the pipe or the fork failed; no child was started.
    """
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(reader)
            try:
                payload, sent_status = work(), 0
            except BaseException as exc:  # interrupts too: the child must not unwind
                payload, sent_status = f"{type(exc).__name__}: {exc}".encode(errors="replace"), 1
            with open(writer, "wb") as pipe:
                pipe.write(payload)
            status = sent_status
        finally:
            os._exit(status)
    os.close(writer)
    return Child(pid, reader)


def reap_child(child: Child) -> tuple[bytes, str | None]:
    """Read what ``child`` sent, then wait for it: its payload and None if
    it succeeded, else ``b""`` and its error text (its exit status if it
    sent none). Reading first means a child with more to send than a pipe
    holds never blocks on this process waiting for it.
    """
    try:
        with open(child.reader, "rb") as pipe:
            sent = pipe.read()
    finally:
        _, status = os.waitpid(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        return b"", sent.decode(errors="replace") or f"exit status {code}"
    return sent, None
