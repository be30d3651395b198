"""Deterministic begin-round event bus.

The engine owns one :class:`RoundBus` and emits it exactly once per round,
after this round's deliveries and before any process takes its step.
Subscribers run in subscription order, so a run is reproducible however
many listeners are attached: each sees the same round numbers in the
same order on every run.  The bus starts empty; the engine's own
per-round reset (the bandwidth window, ``window_sends``) runs right
after it, not on it.

This is the one way in for a fault that changes over time: a chaos
campaign controller subscribes once, rewrites loss / latency /
partition state at exact round boundaries and injects its crafted
messages there, keeping fault timelines deterministic under a fixed
seed.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["RoundBus"]


class RoundBus:
    """Ordered fan-out of the engine's begin-round event."""

    def __init__(self):
        self._subscribers: list[Callable[[int], None]] = []

    def subscribe(self, callback: Callable[[int], None]) -> Callable[[int], None]:
        """Register ``callback(round_number)``; returns it for chaining."""
        if not callable(callback):
            raise TypeError(f"round-bus subscriber must be callable, got "
                            f"{callback!r}")
        self._subscribers.append(callback)
        return callback

    def __len__(self) -> int:
        return len(self._subscribers)

    def emit(self, round_number: int) -> None:
        """Invoke every subscriber, in subscription order."""
        for callback in tuple(self._subscribers):
            callback(round_number)
