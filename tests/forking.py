"""Test helpers for the writers that fork: count the forks, check the reaping."""

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


def assert_no_child_left():
    """Every forked child has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
