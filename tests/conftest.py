import os
from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("suite")

# pytest puts src/ on sys.path (pyproject's `pythonpath`); the CLI tests
# start `python -m cachecast` in a subprocess, which needs it too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

_AFFINITY = getattr(os, "sched_getaffinity", None)


@pytest.fixture(autouse=True)
def _cores_are_restored():
    """Fails the test after which the main thread runs on other cores than
    before it, so a Monte Carlo worker's pin that outlives its estimation
    shows where it happens."""
    before = _AFFINITY(0) if _AFFINITY else None
    yield
    if _AFFINITY:
        assert _AFFINITY(0) == before, "the test left the main thread on other cores"
