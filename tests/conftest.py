import threading
import types

import pytest

from chirpfed import data


@pytest.fixture
def helper(monkeypatch):
    """Each pass of run_rounds and ber_monte_carlo starts and joins a helper
    thread (see data._claimed_pass), whatever the BLAS threads and cores."""
    monkeypatch.setattr(data, "_use_helper", lambda: True)


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.setattr(data, "_use_helper", lambda: False)


@pytest.fixture
def helper_events(monkeypatch, helper):
    """With the helper, each pass's helper thread sets `left` once its run
    returns, and `joining` once the calling thread starts to join it; every
    helper started goes in `started`."""
    events = types.SimpleNamespace(left=threading.Event(), joining=threading.Event(),
                                   started=[])

    class Helper(threading.Thread):
        def start(self):
            events.started.append(self)
            super().start()

        def run(self):
            try:
                super().run()
            finally:
                events.left.set()

        def join(self, timeout=None):
            events.joining.set()
            super().join(timeout)

    monkeypatch.setattr(threading, "Thread", Helper)
    return events
