import multiprocessing
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_worker_left_behind():
    """Fail a test after which a child process of this one still runs
    (run_batch promises that no worker outlives the call)."""
    yield
    left = multiprocessing.active_children()
    for proc in left:  # so that the next test starts clean
        proc.terminate()
        proc.join()
    assert left == [], f"the test left child processes running: {left}"
