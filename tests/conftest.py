"""Checks shared by every test module."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_ipcap_thread_left():
    """Fail a test that leaves one of ipcap's threads alive: panel, sweep helper or draw thread."""
    yield
    alive = sorted(t.name for t in threading.enumerate() if t.name.startswith("ipcap-"))
    if alive:
        pytest.fail(f"ipcap threads still alive after the test: {alive}")
