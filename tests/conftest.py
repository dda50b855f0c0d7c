"""Fixtures shared by the test modules."""

import os

import pytest


class _Forking:
    """Sets the CPUs available to the process, and records each os.fork."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch

    def cpus(self, n):
        """Make n CPUs available, and return the list that records each os.fork."""
        self._monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks, fork = [], os.fork
        self._monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    @staticmethod
    def all_reaped():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forking(monkeypatch):
    """A _Forking whose patches are undone after the test."""
    return _Forking(monkeypatch)
