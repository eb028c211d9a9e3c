import time
import warnings
from pathlib import Path

import pytest

from uavinspect.cli import parse_scenario
from uavinspect.engine import run_mission

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Hypothesis reports a failing example through this module, which imports
# libcst, whose import warns DeprecationWarning; pyproject.toml makes that
# warning an error, which would abort the whole run at the first failing
# Hypothesis test.  Loaded here first, quietly, it is found already loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:         # no libcst: Hypothesis then skips the report
        pass


def run_shipped(name):
    cfg, scene = parse_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
    t0 = time.perf_counter()
    result = run_mission(cfg, scene)
    wall = time.perf_counter() - t0
    return cfg, scene, result, wall


@pytest.fixture(scope="session")
def desk_run():
    return run_shipped("desk_box")


@pytest.fixture(scope="session")
def pillars_run():
    return run_shipped("twin_pillars")


@pytest.fixture(scope="session")
def open_field_run():
    return run_shipped("open_field")


@pytest.fixture(scope="session")
def shipped_runs(desk_run, pillars_run, open_field_run):
    return {"desk_box": desk_run, "twin_pillars": pillars_run,
            "open_field": open_field_run}
