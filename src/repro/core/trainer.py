"""GCN training: loss assembly, the paper's multi-graph scheme, metrics.

The paper trains with stochastic gradient descent on cross-entropy
(Section 5) over several designs at once, sharding whole graphs to GPUs and
gathering outputs into one loss (Figure 5).  :class:`Trainer` reproduces the
semantics serially — per-graph losses averaged into one update —  and
:class:`ParallelTrainer` reproduces the structure with one worker process
per graph computing gradients that the parent averages before stepping.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import ExecutionConfig
from repro.core.graphdata import GraphData
from repro.core.model import GCN
from repro.exec import ExecPolicy, ShardTask, make_executor
from repro.nn.functional import cross_entropy
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import no_grad
from repro.obs import logs
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.resilience.checkpoint import Checkpoint, Checkpointer
from repro.resilience.errors import (
    CheckpointCorruptError,
    NumericalError,
    WorkerFailedError,
)
from repro.resilience.retry import RetryPolicy

__all__ = ["TrainConfig", "TrainHistory", "Trainer", "ParallelTrainer"]

_log = logs.get_logger("train")


def _obs():
    """Training metrics (process-default registry, looked up lazily)."""
    reg = get_registry()
    return {
        "epochs": reg.counter("repro_train_epochs_total", "completed epochs"),
        "epoch_seconds": reg.histogram(
            "repro_train_epoch_seconds", "wall time of one optimisation epoch"
        ),
        "loss": reg.gauge("repro_train_loss", "most recent training loss"),
        "grad_norm": reg.histogram(
            "repro_train_grad_norm",
            "global L2 gradient norm per optimisation step",
            buckets=(0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0),
        ),
        "lr": reg.gauge("repro_train_lr", "current learning rate"),
    }


@dataclass
class TrainConfig:
    """Optimisation hyper-parameters.

    The paper trains with SGD; at our (much smaller) benchmark scale plain
    SGD oscillates, so the default is Adam — set ``optimizer="sgd"`` for
    the paper's exact recipe.
    """

    epochs: int = 300
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    optimizer: str = "adam"  #: "adam" (default) or "sgd" (paper)
    class_weights: tuple[float, float] | None = None  #: (negative, positive)
    eval_every: int = 10
    verbose: bool = False


@dataclass
class TrainHistory:
    """Per-evaluation-point learning curves (Figure 8's raw data)."""

    epochs: list[int] = field(default_factory=list)
    loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)

    def final_train_accuracy(self) -> float:
        return self.train_accuracy[-1] if self.train_accuracy else float("nan")

    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")


def _graph_loss(model: GCN, graph: GraphData, class_weights) -> "object":
    """Cross-entropy over the graph's masked nodes."""
    if graph.labels is None:
        raise ValueError(f"graph {graph.name!r} has no labels")
    idx = graph.masked_indices()
    logits = model(graph).take_rows(idx)
    weights = None if class_weights is None else np.asarray(class_weights)
    return cross_entropy(logits, graph.labels[idx], weights)


def masked_accuracy(model: GCN, graphs: list[GraphData]) -> float:
    """Accuracy over the masked nodes of ``graphs`` (tape-free)."""
    correct = 0
    total = 0
    with no_grad():
        for graph in graphs:
            idx = graph.masked_indices()
            pred = np.argmax(model(graph).data[idx], axis=1)
            correct += int((pred == graph.labels[idx]).sum())
            total += len(idx)
    return correct / total if total else float("nan")


class Trainer:
    """Serial multi-graph trainer (the reference implementation).

    With an :class:`~repro.config.ExecutionConfig` whose backend resolves
    to ``sharded`` for a training graph, that graph is split into
    shard-as-minibatch subgraphs (:func:`repro.graph.partition.
    shard_minibatches`): each mini-batch carries a model-depth halo so its
    forward pass reproduces the full-graph embeddings of its owned nodes
    exactly, and the loss masks cover every original node exactly once
    across the batch set.
    """

    def __init__(
        self,
        model: GCN,
        config: TrainConfig | None = None,
        execution: ExecutionConfig | None = None,
    ) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.execution = execution
        self.optimizer = self._make_optimizer()
        #: global L2 gradient norm of the most recent optimisation step
        self.last_grad_norm: float | None = None

    def _prepare_graphs(self, graphs: list[GraphData]) -> list[GraphData]:
        """Expand graphs into shard mini-batches where the config asks."""
        if self.execution is None:
            return graphs
        from repro.graph.partition import shard_minibatches

        out: list[GraphData] = []
        for graph in graphs:
            backend = self.execution.resolve_inference_backend(graph.num_nodes)
            n_shards = self.execution.resolved_shards(graph.num_nodes)
            if backend == "sharded" and n_shards > 1:
                out.extend(
                    shard_minibatches(
                        graph, n_shards, self.model.config.depth
                    )
                )
            else:
                out.append(graph)
        return out

    def _make_optimizer(self):
        cfg = self.config
        params = list(self.model.parameters())
        if cfg.optimizer == "sgd":
            return SGD(
                params, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
            )
        if cfg.optimizer == "adam":
            return Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        raise ValueError(f"unknown optimizer {cfg.optimizer!r}")

    # ------------------------------------------------------------------ #
    def fit(
        self,
        train_graphs: list[GraphData],
        test_graphs: list[GraphData] | None = None,
        checkpoint: Checkpointer | None = None,
        checkpoint_every: int = 25,
    ) -> TrainHistory:
        """Train for ``config.epochs`` full passes over the graph set.

        With a :class:`~repro.resilience.checkpoint.Checkpointer`, the
        model, optimizer state and history are snapshotted every
        ``checkpoint_every`` epochs (and at the final epoch), and training
        resumes from the latest valid snapshot in the directory.  The
        serial trainer is deterministic, so an interrupted-and-resumed run
        reaches bit-identical weights to an uninterrupted one.
        """
        cfg = self.config
        train_graphs = self._prepare_graphs(train_graphs)
        history = TrainHistory()
        start_epoch = 0
        if checkpoint is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            snapshot = checkpoint.latest()
            if snapshot is not None:
                start_epoch = self._restore(snapshot, history)
        if cfg.verbose:
            logs.ensure_configured()
        metrics = _obs()
        with span(
            "train.fit",
            epochs=cfg.epochs,
            graphs=len(train_graphs),
            optimizer=cfg.optimizer,
            resumed_from=start_epoch,
        ):
            self._fit_loop(
                train_graphs,
                test_graphs,
                checkpoint,
                checkpoint_every,
                history,
                start_epoch,
                metrics,
            )
        return history

    def _fit_loop(
        self,
        train_graphs,
        test_graphs,
        checkpoint,
        checkpoint_every,
        history,
        start_epoch,
        metrics,
    ) -> None:
        cfg = self.config
        for epoch in range(start_epoch + 1, cfg.epochs + 1):
            epoch_start = time.perf_counter()
            loss_value = self.train_step(train_graphs)
            metrics["epochs"].inc()
            metrics["epoch_seconds"].observe(time.perf_counter() - epoch_start)
            metrics["loss"].set(loss_value)
            metrics["lr"].set(getattr(self.optimizer, "lr", cfg.lr))
            if self.last_grad_norm is not None:
                metrics["grad_norm"].observe(self.last_grad_norm)
            if not np.isfinite(loss_value):
                # Diverged: every later epoch would train on NaN weights.
                # Abort with the trajectory so the failure is diagnosable
                # (and a checkpointed run can resume from pre-divergence).
                raise NumericalError(
                    f"training loss became non-finite ({loss_value}) at "
                    f"epoch {epoch}",
                    diagnostics={
                        "epoch": epoch,
                        "loss": loss_value,
                        "optimizer": cfg.optimizer,
                        "lr": cfg.lr,
                        "recent_loss": history.loss[-5:],
                        "recent_epochs": history.epochs[-5:],
                    },
                )
            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
                history.epochs.append(epoch)
                history.loss.append(loss_value)
                with span("train.eval", epoch=epoch):
                    history.train_accuracy.append(
                        masked_accuracy(self.model, train_graphs)
                    )
                    if test_graphs:
                        history.test_accuracy.append(
                            masked_accuracy(self.model, test_graphs)
                        )
                if cfg.verbose:
                    fields = {
                        "epoch": epoch,
                        "loss": round(loss_value, 4),
                        "train_accuracy": round(history.train_accuracy[-1], 3),
                    }
                    if test_graphs:
                        fields["test_accuracy"] = round(
                            history.test_accuracy[-1], 3
                        )
                    _log.info("epoch", extra=fields)
            if checkpoint is not None and (
                epoch % checkpoint_every == 0 or epoch == cfg.epochs
            ):
                self._snapshot(checkpoint, epoch, history)

    # ------------------------------------------------------------------ #
    def _snapshot(
        self, checkpoint: Checkpointer, epoch: int, history: TrainHistory
    ) -> None:
        arrays: dict[str, np.ndarray] = {}
        for key, value in self.model.state_dict().items():
            arrays[f"param/{key}"] = value
        for key, value in self.optimizer.state_dict().items():
            arrays[f"opt/{key}"] = value
        arrays["hist/epochs"] = np.asarray(history.epochs, dtype=np.int64)
        arrays["hist/loss"] = np.asarray(history.loss, dtype=np.float64)
        arrays["hist/train_accuracy"] = np.asarray(
            history.train_accuracy, dtype=np.float64
        )
        arrays["hist/test_accuracy"] = np.asarray(
            history.test_accuracy, dtype=np.float64
        )
        checkpoint.save(
            epoch, arrays, meta={"epoch": epoch, "optimizer": self.config.optimizer}
        )

    def _restore(self, snapshot: Checkpoint, history: TrainHistory) -> int:
        """Load model/optimizer/history from ``snapshot``; return its epoch."""
        stored_opt = snapshot.meta.get("optimizer")
        if stored_opt is not None and stored_opt != self.config.optimizer:
            raise CheckpointCorruptError(
                f"checkpoint was written with optimizer {stored_opt!r}, "
                f"trainer is configured with {self.config.optimizer!r}",
                path=snapshot.path,
            )
        try:
            self.model.load_state_dict(snapshot.group("param"))
            self.optimizer.load_state_dict(snapshot.group("opt"))
        except (KeyError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint state does not match this model: {exc}",
                path=snapshot.path,
            ) from exc
        hist = snapshot.group("hist")
        history.epochs[:] = [int(e) for e in hist.get("epochs", [])]
        history.loss[:] = [float(x) for x in hist.get("loss", [])]
        history.train_accuracy[:] = [
            float(x) for x in hist.get("train_accuracy", [])
        ]
        history.test_accuracy[:] = [
            float(x) for x in hist.get("test_accuracy", [])
        ]
        return int(snapshot.meta.get("epoch", snapshot.step))

    def _grad_norm(self) -> float:
        """Global L2 norm over every parameter gradient (pre-step)."""
        total = 0.0
        for p in self.model.parameters():
            if p.grad is not None:
                total += float(np.sum(np.square(p.grad)))
        return float(np.sqrt(total))

    def train_step(self, train_graphs: list[GraphData]) -> float:
        """One optimisation step over all graphs; returns the mean loss."""
        cfg = self.config
        self.optimizer.zero_grad()
        total = 0.0
        scale = 1.0 / len(train_graphs)
        for graph in train_graphs:
            loss = _graph_loss(self.model, graph, cfg.class_weights) * scale
            loss.backward()
            total += loss.item()
        self.last_grad_norm = self._grad_norm()
        self.optimizer.step()
        return total


# --------------------------------------------------------------------- #
# Parallel (multi-worker) scheme of Figure 5
# --------------------------------------------------------------------- #
def _worker_gradients(payload: bytes) -> list[np.ndarray]:
    """Compute per-graph parameter gradients in a worker process."""
    model, graph, class_weights = pickle.loads(payload)
    loss = _graph_loss(model, graph, class_weights)
    loss.backward()
    return [
        p.grad if p.grad is not None else np.zeros_like(p.data)
        for p in model.parameters()
    ]


def _serial_gradients(payload: bytes, graph_name: str | None) -> list[np.ndarray]:
    """In-process fallback: same math as a worker, typed terminal error."""
    try:
        return _worker_gradients(payload)
    except Exception as exc:
        raise WorkerFailedError(
            f"graph {graph_name!r} failed even in the serial fallback: {exc}",
            graph_name=graph_name,
        ) from exc


class ParallelTrainer(Trainer):
    """Data-parallel trainer: one worker per graph, averaged gradients.

    Mirrors the paper's multi-GPU scheme (Figure 5): the input of one graph
    (adjacency + attribute matrix) cannot be split, so sharding is by whole
    graph; outputs are gathered and a single update is applied.  On a
    single-core host this demonstrates the scheme rather than a speedup.

    Fault tolerance is delegated to the execution fabric
    (:mod:`repro.exec`): a failed round — a worker raising, dying, or
    exceeding ``worker_timeout`` — kills and respawns that worker and
    retries only the failed graphs with exponential backoff.  Once
    ``retry_policy.max_attempts`` rounds are exhausted, the stragglers are
    computed serially in-process (gradients are identical either way); only if the
    serial path fails too does :class:`WorkerFailedError` propagate.
    """

    def __init__(
        self,
        model: GCN,
        config: TrainConfig | None = None,
        max_workers: int | None = None,
        worker_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        serial_fallback: bool = True,
        sleep=time.sleep,
        execution: ExecutionConfig | None = None,
    ) -> None:
        super().__init__(model, config, execution=execution)
        self.max_workers = max_workers
        self.worker_timeout = worker_timeout
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=0.05
        )
        self.serial_fallback = serial_fallback
        self._sleep = sleep
        #: the function shipped to workers; injectable for fault-injection
        #: tests (must be picklable, i.e. module-level)
        self.worker_fn = _worker_gradients

    def train_step(self, train_graphs: list[GraphData]) -> float:
        cfg = self.config
        payloads = [
            pickle.dumps((self.model, graph, cfg.class_weights))
            for graph in train_graphs
        ]
        grad_lists = self._gradients_with_recovery(train_graphs, payloads)

        params = list(self.model.parameters())
        scale = 1.0 / len(train_graphs)
        for i, p in enumerate(params):
            accumulated = sum(grads[i] for grads in grad_lists) * scale
            p.grad = accumulated
        self.last_grad_norm = self._grad_norm()
        self.optimizer.step()

        with no_grad():
            total = 0.0
            for graph in train_graphs:
                total += _graph_loss(self.model, graph, cfg.class_weights).item() * scale
        return total

    # ------------------------------------------------------------------ #
    def _exec_policy(self) -> ExecPolicy:
        """Fabric policy assembled per call so test hooks stay mutable."""

        def exhausted(tasks: list[ShardTask], rounds: int, exc: BaseException):
            name = tasks[0].meta
            return WorkerFailedError(
                f"worker for graph {name!r} failed after {rounds} rounds: {exc}",
                graph_name=name,
            )

        return ExecPolicy(
            retry=self.retry_policy,
            worker_timeout=self.worker_timeout,
            serial_fallback=self.serial_fallback,
            exhausted_error=exhausted,
        )

    def _gradients_with_recovery(
        self, graphs: list[GraphData], payloads: list[bytes]
    ) -> list[list[np.ndarray]]:
        """Per-graph gradients, surviving worker crashes and hangs."""
        tasks = [
            ShardTask(
                key=graph.name or f"graph{i}",
                fn=self.worker_fn,
                args=(payloads[i],),
                fallback=lambda p=payloads[i], n=graph.name: _serial_gradients(p, n),
                meta=graph.name,
            )
            for i, graph in enumerate(graphs)
        ]
        execution = self.execution or ExecutionConfig()
        backend = execution.resolve_exec_backend(default="forkpool")
        executor = make_executor(
            backend,
            name="train",
            max_workers=min(self.max_workers or len(tasks), len(tasks)),
            policy=self._exec_policy(),
            sleep=self._sleep,
        )
        with executor:
            results = executor.submit(tasks)
        if any(grads is None for grads in results):
            raise WorkerFailedError("gradients missing after recovery")
        return results
