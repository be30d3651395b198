"""Shared test configuration.

Hypothesis profile: simulation-backed properties legitimately take longer
than the default 200ms deadline on slow machines, so deadlines are off;
example counts stay at each test's explicit setting.  Derandomization
keeps CI runs stable — the RNG-heavy properties already explore widely
through their own seeded strategies.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro import sanitize

# The runtime aggregation sanitizer (repro.sanitize) is on for the whole
# suite: it draws no randomness, mutates no simulation state and selects
# no code path — both engines compose as they do unsanitized and the
# checks run beside the compose — so results are byte-identical; it only
# turns silent invariant violations (double counts, count-channel drift,
# mass loss, phase-clock skew) into structured failures.  Opt out with
# REPRO_SANITIZE=0, the configuration benchmarks and the CLI run;
# REPRO_SANITIZE=1 is the CI spelling.
if os.environ.get("REPRO_SANITIZE", "").strip() != "0":
    sanitize.enable()


@pytest.fixture(autouse=True)
def sanitizer_left_as_found():
    """Fail a test that leaves the sanitizer switched, its screen armed
    or its ground truth installed differently from how it found them:
    every later test would run in that state."""
    def state():
        return {"ACTIVE": sanitize.ACTIVE, "SCREEN": sanitize.SCREEN,
                "ground truth": sanitize._GROUND_TRUTH}

    found = state()
    # The phase clock is per run, keyed by member id: each test is a run.
    sanitize.start_clock()
    yield
    changed = [name for name, value in state().items()
               if value is not found[name]]
    assert not changed, f"the test left the sanitizer's {changed} changed"


@pytest.fixture
def unsanitized():
    """The runtime sanitizer off for one test (the suite arms it): the
    configuration benchmarks and the CLI run."""
    was_active = sanitize.ACTIVE
    sanitize.disable()
    yield
    if was_active:
        sanitize.enable()


settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
