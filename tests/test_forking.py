"""``forking.beside``: every path returns what ``(away(), here())`` returns
in this process, exactly, and leaves no child behind."""

import marshal
import os
from types import SimpleNamespace

import pytest

import invarlab.forking as forking
from invarlab.forking import beside

from test_scenario_cli import assert_no_child_left, count_forks

PARENT = os.getpid()


def make_work(ran_here, how):
    def away():
        if os.getpid() == PARENT:
            ran_here.append("away")
        elif how == "away raises":
            raise RuntimeError("broke in the child")
        return (-0.0, float("nan"), 1e308, 5e-324, "képler", None)

    def here():
        ran_here.append("here")
        return {"verdicts": [1.5, -0.0]}

    return away, here


@pytest.mark.parametrize("how, forks", [
    ("it forks", 1),
    ("os.fork is deleted", 0),
    ("os.pipe raises", 0),
    ("the child exits 3", 1),
    ("the payload is short", 1),
    ("away raises", 1),
])
def test_beside_returns_what_the_work_returns_here(monkeypatch, how, forks):
    away, here = make_work([], how)
    expected = (away(), here())
    pids = count_forks(monkeypatch, fork=how != "os.fork is deleted")
    if how == "os.pipe raises":
        def no_pipe():
            raise OSError("too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
    if how == "the child exits 3":
        counted_fork = os.fork

        def fork():
            pid = counted_fork()
            if pid == 0:
                os._exit(3)
            return pid

        monkeypatch.setattr(os, "fork", fork)
    if how == "the payload is short":
        short = SimpleNamespace(dumps=lambda value: marshal.dumps(value)[:-1],
                                loads=marshal.loads)
        monkeypatch.setattr(forking, "marshal", short)
    ran_here = []
    got = beside(*make_work(ran_here, how))
    assert repr(got) == repr(expected)
    assert len(pids) == forks
    # ``away`` runs here, after ``here``, unless the child delivered.
    assert ran_here == (["here"] if how == "it forks" else ["here", "away"])
    assert_no_child_left()

