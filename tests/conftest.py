import functools
import os

import pytest

from gentleq.orbit import SizeClass, _closed, enumerate_classes


@functools.lru_cache(maxsize=None)
def _classes(n: int):
    return tuple(enumerate_classes(SizeClass(n, n + 1), two_cycle=True))


@pytest.fixture(scope="session")
def two_cycle_classes():
    """n -> enumerated two-cycle classes, shared across the whole run."""
    return _classes


@pytest.fixture(autouse=True)
def fresh_normalize_memo():
    """Each test starts with an empty ``normalize`` memo, so a test that
    watches a closure sees it whatever ran before."""
    _closed.clear()


@pytest.fixture
def forks(monkeypatch):
    """The list to which each ``os.fork`` call in this process appends."""
    calls = []
    real = os.fork

    def fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.fixture
def usable_cpus(monkeypatch):
    """A function that sets how many CPUs this process may run on."""
    def set_count(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    return set_count
