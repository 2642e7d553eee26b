"""Fault-batched, multi-core cone propagation (PPSFP v2).

The serial fault simulator grades one fault at a time with a Python loop
over every gate of its forward cone — literally millions of interpreter
round-trips for one labelling run.  This module replaces that inner loop
with *fault-axis* vectorisation and optional multi-process sharding:

* :class:`BatchedConeEngine` grades ``F`` faults per call.  Faulty values
  live in arrays of shape ``(F, n_words)`` materialised only on the
  signals of the (union) forward cone; each levelized
  ``(gate type, arity)`` group is one set of numpy ops for all faults at
  once — the same grouping trick ``LogicSimulator.simulate`` uses on the
  pattern axis, applied to the fault axis.
* :class:`PpsfpEngine` adds the multi-core path: the undetected fault
  list is sharded across the execution fabric's fork pool
  (:mod:`repro.exec`), the good-value matrix is passed once per pattern
  batch through a fabric-owned shared-memory segment, and the fabric's
  supervision ladder applies — a failed or silent worker is killed and
  respawned and its task retried, then a bit-identical in-process
  fallback.

Both paths produce *bit-identical* results to the serial oracle: every
evaluation is an exact bitwise gate function of the same operands, only
the iteration order changes.  The equivalence suite in
``tests/atpg/test_ppsfp_equivalence.py`` asserts this property on random
netlists.

Injection model: a call supplies, per site, an arbitrary packed injection
row.  Stuck-at faults inject constants; exact-stem observability injects
the complement of the good value (a "flip").  Detection semantics
(activation masks, site-observed handling) stay with the callers so the
serial implementations remain the executable specification.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from repro.atpg.cones import ConeIndex, get_cone_index
from repro.circuit.cells import GateType
from repro.exec import (
    ExecPolicy,
    Executor,
    ShardTask,
    attached_ndarray,
    make_executor,
    owned_ndarray,
    resolve_exec_backend,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.resilience.retry import RetryPolicy

__all__ = [
    "PpsfpConfig",
    "PpsfpEngine",
    "BatchedConeEngine",
    "resolve_backend",
    "BACKENDS",
]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: auto-derived fault-chunk size ceiling (see ``_chunk_size``)
_MAX_AUTO_GROUP = 512

BACKENDS = ("auto", "serial", "batched", "parallel")


def resolve_backend(
    requested: str | None,
    n_sites: int,
    n_words: int,
    workers: int | None = None,
) -> str:
    """Map a backend request to a concrete one (``serial|batched|parallel``).

    ``auto`` picks ``parallel`` only when there is more than one core *and*
    the call grades enough faults to amortise the per-call shared-memory
    and pickling overhead; otherwise the in-process batched path wins.
    """
    choice = (requested or "auto").lower()
    if choice not in BACKENDS:
        raise ValueError(f"unknown fault-sim backend {requested!r}; use {BACKENDS}")
    if choice == "auto":
        cpus = workers if workers else (os.cpu_count() or 1)
        if cpus > 1 and n_sites >= 1024 and n_words >= 1:
            return "parallel"
        return "batched"
    return choice


@dataclass
class PpsfpConfig:
    """Tuning knobs for the batched/parallel fault-simulation engine."""

    #: ``auto`` | ``serial`` | ``batched`` | ``parallel``
    backend: str = "auto"
    #: faults per vectorised group (None = derived from ``max_group_bytes``)
    group_size: int | None = None
    #: memory budget for one fault group's value arrays
    max_group_bytes: int = 128 * 1024 * 1024
    #: union-cone coverage above which the cached whole-circuit schedule is
    #: cheaper than building a per-group union plan
    dense_threshold: float = 0.7
    #: process count for the parallel backend (None = ``os.cpu_count()``)
    workers: int | None = None
    #: per-shard result timeout in seconds (None = wait forever)
    worker_timeout: float | None = 120.0
    #: fault shards per worker round (None = ``2 * workers``)
    shards: int | None = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=3, base_delay=0.05)
    )
    #: after retries are exhausted, grade failed shards in-process
    #: (bit-identical) instead of raising
    serial_fallback: bool = True
    #: explicit execution-fabric backend (``inprocess`` | ``forkpool`` |
    #: ``socket``); None defers to ``REPRO_EXEC_BACKEND`` then forkpool
    exec_backend: str | None = None


def _obs():
    reg = get_registry()
    return (
        reg.counter(
            "repro_atpg_cone_group_evals_total",
            "vectorised (gate-type, arity) group evaluations in the "
            "batched fault-simulation engine",
        ),
        reg.counter(
            "repro_atpg_fault_groups_total",
            "fault groups graded by the batched engine",
        ),
    )


def _parallel_obs():
    reg = get_registry()
    return (
        reg.counter(
            "repro_atpg_parallel_shards_total",
            "fault shards dispatched to fault-simulation workers",
        ),
        reg.counter(
            "repro_atpg_fault_sim_worker_failures_total",
            "fault-simulation worker failures (retried or rescued)",
        ),
    )


# --------------------------------------------------------------------- #
# Fault-axis gate evaluation
# --------------------------------------------------------------------- #
def _eval_axis_group(
    gate_type: GateType, arity: int, fanin_pos: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """Evaluate one gate group for every fault at once.

    ``vals`` is ``(n_local, F, W)``; ``fanin_pos`` is ``(m, arity)`` row
    indices into ``vals``.  Returns ``(m, F, W)``.  Semantics mirror
    ``observability._eval_with_overrides`` exactly (bitwise, so grouping
    cannot change results).
    """
    m = fanin_pos.shape[0]
    if gate_type is GateType.CONST0:
        return np.zeros((m,) + vals.shape[1:], dtype=np.uint64)
    if gate_type is GateType.CONST1:
        return np.full((m,) + vals.shape[1:], _ONES, dtype=np.uint64)
    out = vals[fanin_pos[:, 0]]  # fancy indexing: already a fresh array
    if gate_type in (GateType.BUF, GateType.OBS, GateType.DFF):
        return out
    if gate_type is GateType.NOT:
        np.invert(out, out=out)
        return out
    if gate_type in (GateType.AND, GateType.NAND):
        for k in range(1, arity):
            out &= vals[fanin_pos[:, k]]
        if gate_type is GateType.NAND:
            np.invert(out, out=out)
        return out
    if gate_type in (GateType.OR, GateType.NOR):
        for k in range(1, arity):
            out |= vals[fanin_pos[:, k]]
        if gate_type is GateType.NOR:
            np.invert(out, out=out)
        return out
    if gate_type in (GateType.XOR, GateType.XNOR):
        for k in range(1, arity):
            out ^= vals[fanin_pos[:, k]]
        if gate_type is GateType.XNOR:
            np.invert(out, out=out)
        return out
    raise ValueError(f"cannot resimulate gate type {gate_type!r}")


class BatchedConeEngine:
    """Single-process fault-axis cone propagation.

    Bound to one :class:`LogicSimulator` snapshot; grades groups of
    injection sites against one good-value matrix per call.
    """

    def __init__(
        self,
        simulator,
        observed,
        group_size: int | None = None,
        max_group_bytes: int = 128 * 1024 * 1024,
        dense_threshold: float = 0.7,
    ) -> None:
        self.simulator = simulator
        self.observed = frozenset(int(v) for v in observed)
        self.group_size = group_size
        self.max_group_bytes = max_group_bytes
        self.dense_threshold = dense_threshold
        #: nodes the whole-circuit schedule evaluates (dense-mode cost)
        self._n_scheduled = sum(
            len(out_idx) for _, _, out_idx, _ in simulator._schedule
        )
        self._dense_obs = np.array(sorted(self.observed), dtype=np.int64)
        #: logic level of each schedule group (homogeneous per group)
        self._dense_group_levels = [
            int(simulator.levels[out_idx[0]]) if len(out_idx) else 0
            for _, _, out_idx, _ in simulator._schedule
        ]
        #: schedule group that writes each node (-1 for sources: INPUT/DFF)
        self._dense_group_of = np.full(
            simulator.netlist.num_nodes, -1, dtype=np.int64
        )
        for g, (_, _, out_idx, _) in enumerate(simulator._schedule):
            self._dense_group_of[out_idx] = g

    # ------------------------------------------------------------------ #
    @property
    def cone_index(self) -> ConeIndex:
        return get_cone_index(self.simulator.netlist)

    def propagate(
        self, sites: np.ndarray, inject: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Packed difference masks at the observed sites, one row per site.

        ``sites[i]`` gets injection row ``inject[i]``; the returned
        ``diffs[i]`` ORs, over every *observed* node strictly inside
        ``sites[i]``'s forward cone, the XOR of faulty and good values.
        The site's own observedness is deliberately *not* folded in — the
        callers own that part of the semantics (activation masks for
        stuck-at faults, the all-ones rule for observed stems).
        """
        sites = np.asarray(sites, dtype=np.int64)
        n_sites = len(sites)
        n_words = values.shape[1]
        diffs = np.zeros((n_sites, n_words), dtype=np.uint64)
        if n_sites == 0 or n_words == 0:
            return diffs
        group_evals = 0
        groups = 0
        # Order sites by cone level so groups share cone structure, then
        # chunk to the memory budget.
        index = self.cone_index
        levels = index.levels
        order = np.argsort(levels[sites], kind="stable")
        chunk = self._chunk_size(n_words)
        for start in range(0, n_sites, chunk):
            idx = order[start : start + chunk]
            g = self._propagate_group(sites[idx], inject[idx], values, index)
            diffs[idx] = g[0]
            group_evals += g[1]
            groups += 1
        group_counter, fault_groups = _obs()
        group_counter.inc(group_evals)
        fault_groups.inc(groups)
        return diffs

    def _chunk_size(self, n_words: int) -> int:
        if self.group_size is not None:
            return max(1, int(self.group_size))
        n = max(1, self._n_scheduled)
        # vals plus per-group transients; factor 3 keeps peak usage within
        # the configured budget.
        per_fault = 3 * n * max(1, n_words) * 8
        # Sites are level-sorted before chunking, so several chunks beat
        # one giant one even when memory allows it: later chunks get a high
        # min level (deep dense-mode skip) and tighter sparse unions.  The
        # cap was swept empirically (256–512 wins at every design size).
        return max(1, min(self.max_group_bytes // per_fault, _MAX_AUTO_GROUP))

    # ------------------------------------------------------------------ #
    def _propagate_group(
        self,
        sites: np.ndarray,
        inject: np.ndarray,
        values: np.ndarray,
        index: ConeIndex,
    ) -> tuple[np.ndarray, int]:
        union = index.union_cone(sites)
        if len(union) >= self.dense_threshold * max(1, self._n_scheduled):
            return self._run_dense(sites, inject, values)
        return self._run_sparse(sites, inject, values, union, index)

    def _run_dense(
        self, sites: np.ndarray, inject: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Whole-circuit schedule with a fault axis (plan reuse, no build)."""
        sim = self.simulator
        F = len(sites)
        n_nodes, n_words = values.shape
        # A node downstream of any site sits strictly above that site's
        # level, so groups below the lowest site level would only recompute
        # good values — skip them.  Chunking orders sites by level, which
        # makes this cut deep for high-level chunks.
        min_level = int(self.simulator.levels[sites].min())
        # Every node a surviving group writes is written before any read
        # (fanins are strictly lower level, already written or good), so
        # only the remaining rows need the good-value broadcast — the full
        # (n_nodes, F, W) copy used to dominate the dense path.
        need_good = np.ones(n_nodes, dtype=bool)
        for g, (_, _, out_idx, _) in enumerate(sim._schedule):
            if self._dense_group_levels[g] >= min_level:
                need_good[out_idx] = False
        good_ids = np.flatnonzero(need_good)
        vals = np.empty((n_nodes, F, n_words), dtype=np.uint64)
        vals[good_ids] = values[good_ids][:, None, :]
        rows = np.arange(F)
        vals[sites, rows] = inject
        # Each node is written by exactly one schedule group, so a site's
        # injected row only needs re-forcing once — right after its own
        # group's write (a stuck line ignores its gate).  Sources (group
        # -1) are never rewritten.
        by_group: dict[int, list[int]] = {}
        for i, g in enumerate(self._dense_group_of[sites].tolist()):
            if g >= 0:
                by_group.setdefault(g, []).append(i)
        evals = 0
        for g, (gate_type, arity, out_idx, fanin_idx) in enumerate(
            sim._schedule
        ):
            if self._dense_group_levels[g] < min_level:
                continue
            vals[out_idx] = _eval_axis_group(gate_type, arity, fanin_idx, vals)
            evals += 1
            sel = by_group.get(g)
            if sel is not None:
                vals[sites[sel], sel] = inject[sel]
        obs = self._dense_obs
        if len(obs) == 0:
            return np.zeros((F, n_words), dtype=np.uint64), evals
        delta = vals[obs] ^ values[obs][:, None, :]
        return np.bitwise_or.reduce(delta, axis=0), evals

    def _run_sparse(
        self,
        sites: np.ndarray,
        inject: np.ndarray,
        values: np.ndarray,
        union: np.ndarray,
        index: ConeIndex,
    ) -> tuple[np.ndarray, int]:
        """Union-cone plan: values materialised only on cone signals."""
        netlist = self.simulator.netlist
        levels = index.levels
        F = len(sites)
        n_words = values.shape[1]
        eval_set = set(int(v) for v in union)
        # Frontier: boundary fanins read but never written, plus any
        # injection site that is not inside another site's cone.
        ext: list[int] = []
        seen_ext: set[int] = set()
        grouped: dict[tuple[int, GateType, int], list[int]] = {}
        for v in union.tolist():
            fanins = netlist.fanins(v)
            for u in fanins:
                if u not in eval_set and u not in seen_ext:
                    seen_ext.add(u)
                    ext.append(u)
            key = (int(levels[v]), netlist.gate_type(v), len(fanins))
            grouped.setdefault(key, []).append(v)
        for s in sites.tolist():
            if s not in eval_set and s not in seen_ext:
                seen_ext.add(s)
                ext.append(s)
        local_ids = np.concatenate(
            [np.array(ext, dtype=np.int64), union]
        ) if ext else union
        pos = np.full(netlist.num_nodes, -1, dtype=np.int64)
        pos[local_ids] = np.arange(len(local_ids))

        # Union rows are all written by their level group before any read
        # (fanins are either frontier rows or lower-level union rows), so
        # only the frontier needs the good-value broadcast.
        n_ext = len(ext)
        vals = np.empty((len(local_ids), F, n_words), dtype=np.uint64)
        if n_ext:
            vals[:n_ext] = values[local_ids[:n_ext]][:, None, :]
        rows = np.arange(F)
        vals[pos[sites], rows] = inject
        # As in the dense path: a union site is written by exactly one
        # ``(level, type, arity)`` group, so re-force its injected row only
        # after that group's write.
        in_union = np.isin(sites, union)
        by_key: dict[tuple[int, GateType, int], list[int]] = {}
        for i in np.flatnonzero(in_union).tolist():
            s = int(sites[i])
            by_key.setdefault(
                (int(levels[s]), netlist.gate_type(s), len(netlist.fanins(s))),
                [],
            ).append(i)

        evals = 0
        for key in sorted(grouped, key=lambda k: k[0]):
            level, gate_type, arity = key
            nodes = grouped[key]
            fanin_pos = pos[
                np.array([netlist.fanins(v) for v in nodes], dtype=np.int64)
            ]
            vals[pos[np.array(nodes, dtype=np.int64)]] = _eval_axis_group(
                gate_type, arity, fanin_pos, vals
            )
            evals += 1
            sel = by_key.get(key)
            if sel is not None:
                vals[pos[sites[sel]], sel] = inject[sel]

        obs_ids = np.array(
            [v for v in union.tolist() if v in self.observed], dtype=np.int64
        )
        if len(obs_ids) == 0:
            return np.zeros((F, n_words), dtype=np.uint64), evals
        delta = vals[pos[obs_ids]] ^ values[obs_ids][:, None, :]
        return np.bitwise_or.reduce(delta, axis=0), evals


# --------------------------------------------------------------------- #
# Multi-process sharding
# --------------------------------------------------------------------- #
_WORKER_ENGINE: BatchedConeEngine | None = None


def _ppsfp_worker_init(payload: bytes) -> None:
    """Build the per-process engine once (fork initializer)."""
    global _WORKER_ENGINE
    from repro.atpg.simulator import LogicSimulator

    netlist, observed, group_size, max_bytes, dense_threshold = pickle.loads(
        payload
    )
    _WORKER_ENGINE = BatchedConeEngine(
        LogicSimulator(netlist),
        observed,
        group_size=group_size,
        max_group_bytes=max_bytes,
        dense_threshold=dense_threshold,
    )


def _inject_rows(
    sites: np.ndarray, stuck: np.ndarray | None, values: np.ndarray
) -> np.ndarray:
    """Per-site packed injection rows: stuck constants, or flips when
    ``stuck`` is None (exact-stem observability)."""
    if stuck is None:
        return ~values[sites]
    n_words = values.shape[1]
    inject = np.zeros((len(sites), n_words), dtype=np.uint64)
    inject[np.asarray(stuck, dtype=bool)] = _ONES
    return inject


def _ppsfp_worker_grade(
    shm_name: str,
    shape: tuple[int, int],
    sites: np.ndarray,
    stuck: np.ndarray | None,
) -> np.ndarray:
    """Grade one fault shard against the shared good-value matrix."""
    if _WORKER_ENGINE is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("fault-simulation worker used before initialization")
    with attached_ndarray(shm_name, shape, np.uint64) as values:
        inject = _inject_rows(sites, stuck, values)
        return _WORKER_ENGINE.propagate(sites, inject, values)


class PpsfpEngine:
    """Backend-dispatching cone-propagation engine.

    Owns the in-process :class:`BatchedConeEngine` and, lazily, a
    fork-pool executor from the execution fabric for the ``parallel``
    backend.  Worker supervision — retry ladder, worker respawn, the
    bit-identical batched fallback — lives in :mod:`repro.exec`; this
    engine only describes its shard tasks.
    """

    def __init__(self, simulator, observed, config: PpsfpConfig | None = None):
        self.simulator = simulator
        self.observed = frozenset(int(v) for v in observed)
        self.config = config or PpsfpConfig()
        self.batched = BatchedConeEngine(
            simulator,
            self.observed,
            group_size=self.config.group_size,
            max_group_bytes=self.config.max_group_bytes,
            dense_threshold=self.config.dense_threshold,
        )
        self._executor: Executor | None = None
        #: injectable for fault-injection tests (must stay picklable)
        self.worker_fn = _ppsfp_worker_grade

    # ------------------------------------------------------------------ #
    def masks(
        self,
        sites: np.ndarray,
        values: np.ndarray,
        stuck: np.ndarray | None = None,
        backend: str | None = None,
    ) -> np.ndarray:
        """Difference masks for ``sites`` (see :meth:`BatchedConeEngine.propagate`).

        ``stuck`` gives per-site stuck constants (0/1); ``None`` injects
        the complement of the good value at each site.
        """
        sites = np.asarray(sites, dtype=np.int64)
        resolved = resolve_backend(
            backend or self.config.backend,
            len(sites),
            values.shape[1],
            workers=self.config.workers,
        )
        if resolved == "serial":
            raise ValueError(
                "PpsfpEngine only runs the batched/parallel backends; the "
                "serial oracle lives with its caller"
            )
        with span(
            "atpg.ppsfp.masks", sites=len(sites), backend=resolved
        ):
            if resolved == "parallel" and len(sites) > 1:
                return self._parallel_masks(sites, stuck, values)
            inject = _inject_rows(sites, stuck, values)
            return self.batched.propagate(sites, inject, values)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "PpsfpEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    def _n_workers(self) -> int:
        return max(1, self.config.workers or os.cpu_count() or 1)

    def _make_executor(self, backend: str = "forkpool") -> Executor:
        payload = pickle.dumps(
            (
                self.simulator.netlist,
                sorted(self.observed),
                self.config.group_size,
                self.config.max_group_bytes,
                self.config.dense_threshold,
            )
        )
        return make_executor(
            backend,
            name="atpg",
            max_workers=self._n_workers(),
            initializer=_ppsfp_worker_init,
            initargs=(payload,),
        )

    def _exec_policy(self) -> ExecPolicy:
        return ExecPolicy(
            retry=self.config.retry,
            worker_timeout=self.config.worker_timeout,
            serial_fallback=self.config.serial_fallback,
        )

    def _shard_fallback(
        self, sites: np.ndarray, stuck: np.ndarray | None, values: np.ndarray
    ) -> np.ndarray:
        inject = _inject_rows(sites, stuck, values)
        return self.batched.propagate(sites, inject, values)

    def _parallel_masks(
        self, sites: np.ndarray, stuck: np.ndarray | None, values: np.ndarray
    ) -> np.ndarray:
        n_shards = self.config.shards or (2 * self._n_workers())
        n_shards = max(1, min(n_shards, len(sites)))
        bounds = np.array_split(np.arange(len(sites)), n_shards)
        shard_counter, failure_counter = _parallel_obs()
        shard_counter.inc(n_shards)

        # The engine heuristics picked the fork pool; REPRO_EXEC_BACKEND
        # can still force the in-process oracle (then no segment is shared
        # and every shard runs its batched fallback serially) or route the
        # shards through the multi-host socket coordinator.
        resolved = resolve_exec_backend(
            self.config.exec_backend, default="forkpool"
        )
        if resolved == "inprocess":
            out = np.zeros((len(sites), values.shape[1]), dtype=np.uint64)
            for idx in bounds:
                out[idx] = self._shard_fallback(
                    sites[idx], None if stuck is None else stuck[idx], values
                )
            return out

        if self._executor is None or self._executor.kind != resolved:
            self.close()
            self._executor = self._make_executor(resolved)
        with owned_ndarray(values.astype(np.uint64, copy=False)) as segment:
            tasks = [
                ShardTask(
                    key=f"shard{i}",
                    fn=self.worker_fn,
                    args=(
                        segment.name,
                        values.shape,
                        sites[idx],
                        None if stuck is None else stuck[idx],
                    ),
                    fallback=(
                        lambda idx=idx: self._shard_fallback(
                            sites[idx],
                            None if stuck is None else stuck[idx],
                            values,
                        )
                    ),
                )
                for i, idx in enumerate(bounds)
            ]
            results = self._executor.submit(
                tasks, policy=self._exec_policy()
            )
        if self._executor.last_submit_failures:
            failure_counter.inc(self._executor.last_submit_failures)
        out = np.zeros((len(sites), values.shape[1]), dtype=np.uint64)
        for i, idx in enumerate(bounds):
            out[idx] = results[i]
        return out
