"""Run the runner on a chosen round engine; inject from the round bus.

The runner picks the array-stepped engine whenever
``runner._array_engine_reason`` finds nothing against it.  Tests that
compare the two engines (the object engine is the reference) run one
side under ``forced("object")`` and the other under ``forced("array")``.
:func:`inject_at` puts out-of-band messages on an engine's wire the way
a campaign's adversary does.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.experiments import runner

ENGINES = ("object", "array")


@contextmanager
def forced(engine: str):
    """``run_once`` (and ``_make_engine``) build ``engine`` while inside:
    ``"object"`` always, ``"array"`` only where the runner would pick it
    anyway (an ``AssertionError`` names the reason otherwise)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    real = runner._array_engine_reason

    def reason(config, telemetry):
        if engine == "object":
            return "object engine forced"
        found = real(config, telemetry)
        assert found is None, f"array engine unsupported here: {found}"
        return None

    with mock.patch.object(runner, "_array_engine_reason", reason):
        yield


def inject_at(engine, round_number: int, messages) -> None:
    """Inject ``(delivery_round, message)`` pairs from a round-bus
    subscriber in ``round_number``: where a campaign's adversary
    injects (after that round's deliveries, before its step)."""

    def inject(now: int) -> None:
        if now == round_number:
            for delivery_round, message in messages:
                engine.inject(delivery_round, message)

    engine.round_bus.subscribe(inject)
