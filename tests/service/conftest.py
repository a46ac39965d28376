"""Shared fixtures for the experiment-service tests."""

import threading

import pytest

from repro.service import ServiceClient, ServiceError, serve


@pytest.fixture
def service(tmp_path):
    """A live server on an ephemeral port; yields (client, state)."""
    state = tmp_path / "state"
    ready = threading.Event()
    holder = {}

    def boot():
        serve(state, on_ready=lambda s: (holder.update(server=s),
                                         ready.set()))

    thread = threading.Thread(target=boot, daemon=True)
    thread.start()
    assert ready.wait(15), "server never came up"
    client = ServiceClient(state_dir=state)
    yield client, state
    try:
        client.shutdown()
    except ServiceError:
        pass
    thread.join(timeout=15)
