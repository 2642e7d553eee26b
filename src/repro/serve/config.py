"""Serving-layer configuration with validated limits.

Every limit that protects the server (body size, node count, queue depth,
deadlines) lives here so the admission gate, the queue, and the CLI agree
on one source of truth.  Invalid combinations raise
:class:`~repro.resilience.errors.ConfigError` at construction time — a
misconfigured server must fail before it binds a port, not on the first
request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.errors import ConfigError

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for :class:`~repro.serve.http.NetlistScoreServer`."""

    host: str = "127.0.0.1"
    port: int = 8351  #: 0 binds an ephemeral port (reported at startup)
    #: scoring worker threads sharing the queue; ``serve()`` also forks
    #: this many admission workers
    workers: int = 2
    queue_capacity: int = 16  #: accepted-but-unstarted requests; beyond → 429
    default_deadline_ms: int = 30_000  #: per-request deadline when unspecified
    max_deadline_ms: int = 300_000  #: cap on client-requested deadlines
    max_body_bytes: int = 32 * 1024 * 1024  #: request body limit → 413
    max_nodes: int = 2_000_000  #: netlist size limit (paper scale) → 413
    retry_after_s: int = 1  #: advertised in 429 ``Retry-After`` headers
    admission_slots: int = 0  #: concurrent admissions; 0 → ``workers * 2 + 2``
    keepalive_timeout_s: float = 5.0  #: idle persistent-connection read timeout
    breaker_threshold: int = 3  #: consecutive model failures before opening
    breaker_reset_s: float = 30.0  #: open-state cooldown before a probe call
    drain_timeout_s: float = 30.0  #: max wait for in-flight work on SIGTERM
    debug: bool = False  #: honour ``debug_sleep_ms`` in requests (smoke tests)
    # ------------------------------------------------------------------ #
    # Cross-request batching (the coalescing layer; see serve.batch): a
    # worker takes what is queued and the budgets admit, and scores it in
    # one pass at once — never by waiting.  ``batch_max_requests=1``
    # scores every request in a pass of its own.
    # ------------------------------------------------------------------ #
    batch_max_requests: int = 16  #: netlists per block-diagonal batch
    #: total node budget per batch — the only size rule: a design over it
    #: is scored in a pass of its own
    batch_max_nodes: int = 200_000

    @property
    def admission_capacity(self) -> int:
        """Concurrent requests allowed in admission (parse + validate).

        Admission is started by per-connection handler threads, which the
        stdlib server spawns without bound — this gate keeps N greedy
        clients from driving unbounded CPU/memory in parsing before the
        bounded queue ever sees their work.  A slot is held from reading
        the body to the end of admission, the wait for an idle admission
        worker included.  Sized near the worker count by default.
        """
        return self.admission_slots or (self.workers * 2 + 2)

    def __post_init__(self) -> None:
        problems = []
        if self.workers < 1:
            problems.append("workers must be >= 1")
        if self.queue_capacity < 1:
            problems.append("queue_capacity must be >= 1")
        # Admission takes only an int ``deadline_ms``, and a NaN passes
        # every ``<``: anything else would refuse every request.
        deadlines = (self.default_deadline_ms, self.max_deadline_ms)
        if not all(
            isinstance(ms, int) and not isinstance(ms, bool) and ms >= 1
            for ms in deadlines
        ):
            problems.append(
                "default_deadline_ms and max_deadline_ms must be integers >= 1"
            )
        elif self.max_deadline_ms < self.default_deadline_ms:
            problems.append("max_deadline_ms must be >= default_deadline_ms")
        if self.max_body_bytes < 1:
            problems.append("max_body_bytes must be >= 1")
        if self.max_nodes < 1:
            problems.append("max_nodes must be >= 1")
        if not 0 <= self.port <= 65535:
            problems.append("port must be in [0, 65535]")
        if self.retry_after_s < 0:
            problems.append("retry_after_s must be >= 0")
        if self.admission_slots < 0:
            problems.append("admission_slots must be >= 0 (0 = auto)")
        if self.keepalive_timeout_s <= 0:
            problems.append("keepalive_timeout_s must be > 0")
        if self.breaker_threshold < 1:
            problems.append("breaker_threshold must be >= 1")
        if self.drain_timeout_s < 0:
            problems.append("drain_timeout_s must be >= 0")
        if self.batch_max_requests < 1:
            problems.append("batch_max_requests must be >= 1")
        if self.batch_max_nodes < 1:
            problems.append("batch_max_nodes must be >= 1")
        if problems:
            raise ConfigError("invalid serve config: " + "; ".join(problems))
