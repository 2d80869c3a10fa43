import pytest

from chirpfed import data


@pytest.fixture
def helper(monkeypatch):
    """run_rounds and ber_monte_carlo take their one helper thread (see
    data._helper_pool), whatever the BLAS threads and cores."""
    monkeypatch.setattr(data, "_use_helper", lambda: True)


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.setattr(data, "_use_helper", lambda: False)
