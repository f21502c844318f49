"""Test helpers for the code that runs on two cores (``events.in_two``): count
the forks, record how each child exited, check the reaping."""

import os

import pytest


def count_forks(monkeypatch) -> list:
    """A list that gains an item at each ``os.fork``, which still forks."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def record_exits(monkeypatch) -> list:
    """A list that gains the exit code of each child that ``os.waitpid``,
    which still waits, reaps."""
    exits = []
    real_waitpid = os.waitpid

    def recording_waitpid(pid, options):
        reaped, status = real_waitpid(pid, options)
        if reaped:
            exits.append(os.waitstatus_to_exitcode(status))
        return reaped, status

    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    return exits


def assert_no_child_left():
    """Every forked child has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
