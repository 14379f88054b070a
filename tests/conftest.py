import threading

import pytest


@pytest.fixture(autouse=True)
def no_slice_thread_outlives_a_test():
    """Fail a test after which a ``run_slices`` helper thread is still alive:
    every call joins its helpers before it returns."""
    yield
    leaked = [t.name for t in threading.enumerate() if t.name.startswith("spinopt-slices")]
    if leaked:
        pytest.fail(f"run_slices helper threads outlived the test: {leaked}")
