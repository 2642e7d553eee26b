"""Correctness checks; every failure counts once in ``fail_ratio``.

A served answer that is refused, degraded or wrong raises
:class:`~perf.loadgen.CallFailed` so the load loop counts the call as
failed; the offline and flow checks return a reason (or ``None``) for the
workload to count.
"""

from __future__ import annotations

import hashlib

import numpy as np

from perf.common import bench_text
from perf.loadgen import CallFailed

#: the client does not retry: an overloaded, draining or timed-out answer
#: is a failed operation, not a slow success
_REFUSED = {429: "refused_429", 503: "refused_503", 504: "refused_504"}

#: tolerance of the matrix path against Algorithm 1 evaluated node by node
RECURSIVE_TOLERANCE = 1e-9
RECURSIVE_NODES = 32


def check_served(score, reference_labels: np.ndarray) -> None:
    """One served design: not degraded, right size, labels equal the offline ones."""
    if score.degraded:
        # The heuristic fallback answers fast; it must never pass for the model.
        raise CallFailed("degraded", score.design)
    if score.num_nodes != len(reference_labels):
        raise CallFailed("wrong_num_nodes", f"{score.num_nodes} != {len(reference_labels)}")
    if not np.array_equal(score.labels, reference_labels):
        raise CallFailed("wrong_labels", score.design)


def served(call):
    """Run a client call, mapping a structured server error to a counted failure."""
    from repro.api import ServeClientError

    try:
        return call()
    except ServeClientError as exc:
        raise CallFailed(_REFUSED.get(exc.status, f"error_{exc.status}"), str(exc)) from exc


def score_call(client, text: str, reference_labels: np.ndarray, on_scores=None):
    """A zero-argument call: one ``/v1/score`` request, checked; returns 1 design."""

    def call() -> int:
        score = served(lambda: client.score(text, return_predictions=True))
        check_served(score, reference_labels)
        if on_scores is not None:
            on_scores([score])
        return 1

    return call


def batch_call(client, texts: list[str], references: list[np.ndarray], on_scores=None):
    """One ``/v1/score:batch`` call of ``len(texts)`` designs, each checked.

    The call fails as a whole if any member is refused or wrong: the caller
    asked for all of them.
    """

    def call() -> int:
        scores = served(lambda: client.score_many(texts, return_predictions=True))
        if len(scores) != len(texts):
            raise CallFailed("missing_results", f"{len(scores)} of {len(texts)}")
        for score, reference in zip(scores, references):
            check_served(score, reference)
        if on_scores is not None:
            on_scores(scores)
        return len(texts)

    return call


# --------------------------------------------------------------------- #
def logits_identical(reference: np.ndarray, logits: np.ndarray) -> str | None:
    """Repeated scoring of one input must give byte-identical float64 logits."""
    if reference.shape != logits.shape or reference.tobytes() != logits.tobytes():
        return "logits_changed"
    return None


def logits_match_recursive(weights, graph, logits: np.ndarray, seed: int) -> str | None:
    """The matrix path against ``RecursiveEmbedder`` on 32 seeded nodes."""
    from repro.api import RecursiveEmbedder

    count = min(RECURSIVE_NODES, graph.num_nodes)
    nodes = np.random.default_rng(seed).choice(graph.num_nodes, size=count, replace=False)
    expected = RecursiveEmbedder(weights, graph).logits(nodes)
    if not np.allclose(logits[nodes], expected, rtol=0.0, atol=RECURSIVE_TOLERANCE):
        return "logits_differ_from_recursive"
    return None


def flow_digest(result) -> str:
    """Digest of a flow's outcome, for comparing a parent with a change."""
    digest = hashlib.sha256(repr(list(result.inserted)).encode())
    digest.update(bench_text(result.netlist).encode())
    return digest.hexdigest()


def flow_ok(result, reference_inserted: list[int]) -> str | None:
    """A flow repeats its insertions exactly and leaves a valid netlist."""
    from repro.circuit import NetlistValidationError, validate_netlist

    if result.n_ops == 0:
        return "no_ops_inserted"
    if list(result.inserted) != list(reference_inserted):
        return "inserted_targets_changed"
    try:
        validate_netlist(result.netlist, strict=True)
    except NetlistValidationError:
        return "invalid_netlist"
    return None
