import os
from pathlib import Path

import hypothesis

hypothesis.settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("suite")

# pytest puts src/ on sys.path (pyproject's `pythonpath`); the CLI tests
# start `python -m cachecast` in a subprocess, which needs it too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
