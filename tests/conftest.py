import os

import pytest


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(count)`` makes the thread plan of ``final_fidelities`` see
    ``count`` usable CPUs, so its threads start on any host."""
    def fake(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    return fake
