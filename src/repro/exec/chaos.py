"""Built-in fault injection for the execution fabric.

Chaos is a first-class, always-compiled-in layer (not test-only
monkeypatching) so the *production* recovery paths are what gets
exercised: the injector runs inside the one worker loop
(:func:`repro.exec.worker.serve_connection`), between the fabric's
heartbeat/integrity machinery and the engine's task function — exactly
where a real crash would land.

Enable it with ``REPRO_CHAOS=<mode>[:<rate>]``:

==========  ==========================================================
mode        worker behaviour when the (seeded) roll hits
==========  ==========================================================
kill        ``os._exit(137)`` — the worker dies (SIGKILL-equivalent)
hang        sleep ``REPRO_CHAOS_HANG_S`` seconds — trips the deadline
raise       raise :class:`ChaosInjectedError` — an in-task exception
corrupt     flip bytes of the pickled result *after* checksumming — the
            coordinator's integrity check must catch it
disconnect  drop the connection instead of running the task — the
            scheduler must requeue onto a healthy peer
delay       sit on the result ``REPRO_CHAOS_HANG_S`` seconds while
            heartbeating — trips straggler re-dispatch
partition   go dark: suppress heartbeats *and* the result for
            ``REPRO_CHAOS_HANG_S`` seconds — trips the silent-heartbeat
            detector
stale       return the result tagged with the previous attempt number —
            the scheduler must reject it as stale
==========  ==========================================================

The first four are *process* modes, the last four *network* modes
injected around the wire.  Forked and remote
workers run the same loop over the same frames, so every mode applies
on every transport; only ``kill`` needs a worker that is a process of
its own (the thread-based test fleets never use it).

``rate`` (default 1.0) is the per-attempt injection probability.  The
worker makes one roll per task attempt (:meth:`ChaosSpec.roll`) and
branches on the mode it returns.  Rolls are a pure hash of
``(REPRO_CHAOS_SEED, task key, attempt)`` — fully
deterministic, so a chaos test failure replays exactly, and a task that
fails on attempt 1 gets an independent roll on attempt 2 (at rate < 1 a
retried task eventually passes; at rate 1.0 it exercises the fallback
ladder instead).  The in-process backend and parent-side fallbacks never
inject: they are the oracle chaos runs are compared against.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.resilience.errors import ConfigError

__all__ = [
    "CHAOS_ENV",
    "CHAOS_SEED_ENV",
    "CHAOS_HANG_ENV",
    "CHAOS_MODES",
    "PROCESS_CHAOS_MODES",
    "NET_CHAOS_MODES",
    "ChaosSpec",
    "ChaosInjectedError",
    "flip_bytes",
]

CHAOS_ENV = "REPRO_CHAOS"
CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG_S"
#: modes injected around the task function
PROCESS_CHAOS_MODES = ("kill", "hang", "raise", "corrupt")
#: modes injected around the wire
NET_CHAOS_MODES = ("disconnect", "delay", "partition", "stale")
CHAOS_MODES = PROCESS_CHAOS_MODES + NET_CHAOS_MODES


class ChaosInjectedError(RuntimeError):
    """The failure a ``raise``-mode chaos worker injects."""


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed ``REPRO_CHAOS`` configuration (picklable: it ships to workers)."""

    mode: str
    rate: float = 1.0
    seed: int = 0
    hang_seconds: float = 60.0

    @classmethod
    def from_env(cls) -> "ChaosSpec | None":
        """The active spec, or None when chaos is off (the default)."""
        raw = os.environ.get(CHAOS_ENV, "").strip().lower()
        if not raw:
            return None
        mode, _, rate_raw = raw.partition(":")
        if mode not in CHAOS_MODES:
            raise ConfigError(
                f"invalid {CHAOS_ENV}={raw!r}; use <mode>[:<rate>] with "
                f"mode in {CHAOS_MODES}"
            )
        rate = 1.0
        if rate_raw:
            try:
                rate = float(rate_raw)
            except ValueError as exc:
                raise ConfigError(
                    f"invalid {CHAOS_ENV} rate {rate_raw!r}: {exc}"
                ) from exc
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"{CHAOS_ENV} rate must be in [0, 1], got {rate}")
        try:
            seed = int(os.environ.get(CHAOS_SEED_ENV, "0") or "0")
        except ValueError as exc:
            raise ConfigError(f"invalid {CHAOS_SEED_ENV}: {exc}") from exc
        try:
            hang = float(os.environ.get(CHAOS_HANG_ENV, "60") or "60")
        except ValueError as exc:
            raise ConfigError(f"invalid {CHAOS_HANG_ENV}: {exc}") from exc
        return cls(mode=mode, rate=rate, seed=seed, hang_seconds=hang)

    def roll(self, key: str, attempt: int) -> str | None:
        """This spec's mode if the per-(task, attempt) roll hits, else None.

        Only one mode is ever active, so this one hash decides every
        injection an attempt can see.
        """
        if self.rate < 1.0:
            if self.rate <= 0.0:
                return None
            digest = hashlib.sha256(
                f"{self.seed}|{key}|{attempt}".encode()
            ).digest()
            if int.from_bytes(digest[:8], "big") / 2.0**64 >= self.rate:
                return None
        return self.mode


def flip_bytes(payload: bytes) -> bytes:
    """``payload`` with its first, middle and last bytes inverted — the
    ``corrupt`` mode, applied to a result after it was checksummed."""
    if not payload:
        return payload
    mutated = bytearray(payload)
    mutated[0] ^= 0xFF
    mutated[len(mutated) // 2] ^= 0xFF
    mutated[-1] ^= 0xFF
    return bytes(mutated)
