"""Fault-batched, multi-core cone propagation (PPSFP v2).

Grading one fault at a time with a Python loop over every gate of its
forward cone costs millions of interpreter round-trips per labelling run.
This module replaces that inner loop with *fault-axis* vectorisation and
optional multi-process sharding:

* :class:`BatchedConeEngine` grades ``F`` faults per call.  Faulty values
  live in arrays of shape ``(F, n_words)`` materialised only on the
  signals of the (union) forward cone; each levelized
  ``(gate type, arity)`` group is one set of numpy ops for all faults at
  once — the same grouping trick ``LogicSimulator.simulate`` uses on the
  pattern axis, applied to the fault axis.
* :class:`PpsfpEngine` adds the multi-core path: a call grading at least
  :data:`POOL_MIN_SITES` sites, under an
  :class:`~repro.config.ExecutionConfig` that allows more than one worker
  on a fabric other than ``inprocess``, is sharded across the execution
  fabric's pool (:mod:`repro.exec`).  The good-value matrix is passed once
  per pattern batch through a fabric-owned shared-memory segment, and the
  fabric's supervision ladder applies — a failed or silent worker is
  killed and respawned and its task retried, then a bit-identical
  in-process fallback — as the engine's one
  :class:`~repro.exec.ExecPolicy` attribute, ``policy``, says.  Every
  other call is one in-process :meth:`BatchedConeEngine.propagate`.  The
  tuning values (:data:`POOL_MIN_SITES`, :data:`MAX_GROUP`,
  :data:`MAX_GROUP_BYTES`, :data:`SHARDS_PER_WORKER`) are module
  constants.

Both paths produce *bit-identical* results to the per-fault cone walk
(the oracle in ``tests/atpg/reference_faultsim.py``): every evaluation is
an exact bitwise gate function of the same operands, only the iteration
order changes.  ``tests/atpg/test_ppsfp_equivalence.py`` asserts this on
random netlists.

Injection model: a call supplies, per site, an arbitrary packed injection
row.  Stuck-at faults inject constants; exact-stem observability injects
the complement of the good value (a "flip").  Detection semantics
(activation masks, site-observed handling) stay with the callers.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.atpg.simulator import LogicSimulator, eval_gate_group, gate_plan
from repro.circuit.structure import sorted_unique
from repro.config import ExecutionConfig
from repro.exec import (
    ExecPolicy,
    Executor,
    ShardTask,
    attached_ndarray,
    make_executor,
    owned_ndarray,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import span

__all__ = ["PpsfpEngine", "BatchedConeEngine"]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: fewest sites one call must grade before sharding it over the worker
#: pool pays for the per-call shared-memory segment and pickling
POOL_MIN_SITES = 1024
#: fault-chunk size ceiling (see ``BatchedConeEngine._chunk_size``)
MAX_GROUP = 512
#: memory budget for one fault group's value arrays
MAX_GROUP_BYTES = 128 * 1024 * 1024
#: fault shards per worker in one parallel call
SHARDS_PER_WORKER = 2


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


class BatchedConeEngine:
    """Single-process fault-axis cone propagation.

    Bound to one :class:`LogicSimulator` snapshot; grades groups of
    injection sites against one good-value matrix per call.
    """

    def __init__(self, simulator, observed) -> None:
        self.simulator = simulator
        self.observed = frozenset(int(v) for v in observed)
        #: nodes the whole-circuit schedule evaluates (sizes a chunk)
        self._n_scheduled = sum(
            len(out_idx) for _, _, out_idx, _ in simulator._schedule
        )
        self._is_observed = np.zeros(simulator.netlist.num_nodes, dtype=bool)
        self._is_observed[np.array(sorted(self.observed), dtype=np.int64)] = True

    # ------------------------------------------------------------------ #
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
        order = np.argsort(self.simulator.levels[sites], kind="stable")
        chunk = self._chunk_size(n_words)
        for start in range(0, n_sites, chunk):
            idx = order[start : start + chunk]
            g = self._propagate_group(sites[idx], inject[idx], values)
            diffs[idx] = g[0]
            group_evals += g[1]
            groups += 1
        group_counter, fault_groups = _obs()
        group_counter.inc(group_evals)
        fault_groups.inc(groups)
        return diffs

    def _chunk_size(self, n_words: int) -> int:
        n = max(1, self._n_scheduled)
        # vals plus per-group transients; factor 3 keeps peak usage within
        # the budget.
        per_fault = 3 * n * max(1, n_words) * 8
        # Sites are level-sorted before chunking, so several chunks beat
        # one giant one even when memory allows it: later chunks get
        # tighter unions.  The cap was swept empirically (256–512 wins at
        # every design size).
        return max(1, min(MAX_GROUP_BYTES // per_fault, MAX_GROUP))

    # ------------------------------------------------------------------ #
    def _propagate_group(
        self,
        sites: np.ndarray,
        inject: np.ndarray,
        values: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Grade one chunk on its union cone's plan.

        Faulty values live only on the local rows: the frontier (fan-ins
        of the union read but never written, plus any site outside it),
        then the union in plan order, so each group writes one slice.
        """
        sim = self.simulator
        structure = sim.netlist.structure()
        F = len(sites)
        n_words = values.shape[1]
        plan = gate_plan(structure, sim.levels, sim.forward_union(sites))
        pos = np.full(structure.num_nodes, -1, dtype=np.int64)
        pos[plan.nodes] = 0
        reads = np.concatenate((plan.fanins, sites))
        frontier = sorted_unique(reads[pos[reads] < 0])
        n_ext = len(frontier)
        pos[frontier] = np.arange(n_ext)
        pos[plan.nodes] = np.arange(n_ext, n_ext + len(plan.nodes))

        # Union rows are all written by their group before any read
        # (fan-ins are frontier rows or lower-level union rows), so only
        # the frontier needs the good-value broadcast.
        vals = np.empty((n_ext + len(plan.nodes), F, n_words), dtype=np.uint64)
        vals[:n_ext] = values[frontier][:, None, :]
        site_rows = pos[sites]
        vals[site_rows, np.arange(F)] = inject
        # A union site is written by exactly one group, so its injected
        # row is re-forced once, right after that group's write (a stuck
        # line ignores its gate).
        inside = np.flatnonzero(site_rows >= n_ext)
        group_of = np.searchsorted(plan.bounds, site_rows[inside] - n_ext, "right") - 1
        by_group = np.argsort(group_of, kind="stable")
        cuts = np.searchsorted(group_of[by_group], np.arange(len(plan.types) + 1))
        by_group, cuts = inside[by_group], cuts.tolist()

        evals = 0
        local = plan.groups(pos[plan.fanins])
        for g, (gate_type, arity, lo, hi, table) in enumerate(local):
            vals[n_ext + lo : n_ext + hi] = eval_gate_group(gate_type, arity, table, vals)
            evals += 1
            if cuts[g] < cuts[g + 1]:
                sel = by_group[cuts[g] : cuts[g + 1]]
                vals[site_rows[sel], sel] = inject[sel]

        observed = np.flatnonzero(self._is_observed[plan.nodes])
        if len(observed) == 0:
            return np.zeros((F, n_words), dtype=np.uint64), evals
        delta = vals[n_ext + observed] ^ values[plan.nodes[observed]][:, None, :]
        return np.bitwise_or.reduce(delta, axis=0), evals


# --------------------------------------------------------------------- #
# Multi-process sharding
# --------------------------------------------------------------------- #
_WORKER_ENGINE: BatchedConeEngine | None = None


def _ppsfp_worker_init(payload: bytes) -> None:
    """Build the per-process engine once (fork initializer)."""
    global _WORKER_ENGINE
    netlist, observed = pickle.loads(payload)
    _WORKER_ENGINE = BatchedConeEngine(LogicSimulator(netlist), observed)


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
    """Cone-propagation engine that picks its grading path per call.

    Owns the in-process :class:`BatchedConeEngine` and, lazily, an
    executor from the execution fabric, sized by
    ``execution.resolved_workers()`` on the backend
    ``execution.resolve_exec_backend()`` names.  :meth:`grading_path`
    says which of the two a call takes.  Worker supervision — retry
    ladder, worker respawn, the bit-identical in-process fallback — lives
    in :mod:`repro.exec` and follows :attr:`policy`; this engine only
    describes its shard tasks.
    """

    def __init__(
        self, simulator, observed, execution: ExecutionConfig | None = None
    ):
        self.simulator = simulator
        self.observed = frozenset(int(v) for v in observed)
        self.execution = execution or ExecutionConfig()
        #: supervision of every pooled call
        self.policy = ExecPolicy()
        self.batched = BatchedConeEngine(simulator, self.observed)
        self._executor: Executor | None = None
        #: injectable for fault-injection tests (must stay picklable)
        self.worker_fn = _ppsfp_worker_grade

    # ------------------------------------------------------------------ #
    def grading_path(self, n_sites: int) -> str:
        """``parallel`` when a call grading ``n_sites`` sites is sharded
        over the worker pool, else ``batched`` (one in-process call).

        The pool is used only when the call grades at least
        :data:`POOL_MIN_SITES` sites, the config allows more than one
        worker, and its fabric backend is not ``inprocess``.
        """
        if (
            n_sites >= POOL_MIN_SITES
            and self.execution.resolved_workers() > 1
            and self.execution.resolve_exec_backend() != "inprocess"
        ):
            return "parallel"
        return "batched"

    def masks(
        self,
        sites: np.ndarray,
        values: np.ndarray,
        stuck: np.ndarray | None = None,
    ) -> np.ndarray:
        """Difference masks for ``sites`` (see :meth:`BatchedConeEngine.propagate`).

        ``stuck`` gives per-site stuck constants (0/1); ``None`` injects
        the complement of the good value at each site.
        """
        sites = np.asarray(sites, dtype=np.int64)
        path = self.grading_path(len(sites))
        with span("atpg.ppsfp.masks", sites=len(sites), backend=path):
            if path == "parallel":
                return self._parallel_masks(sites, stuck, values)
            return self._batched_masks(sites, stuck, values)

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
    def _make_executor(self, backend: str) -> Executor:
        payload = pickle.dumps((self.simulator.netlist, sorted(self.observed)))
        return make_executor(
            backend,
            name="atpg",
            max_workers=self.execution.resolved_workers(),
            initializer=_ppsfp_worker_init,
            initargs=(payload,),
        )

    def _batched_masks(
        self, sites: np.ndarray, stuck: np.ndarray | None, values: np.ndarray
    ) -> np.ndarray:
        inject = _inject_rows(sites, stuck, values)
        return self.batched.propagate(sites, inject, values)

    def _parallel_masks(
        self, sites: np.ndarray, stuck: np.ndarray | None, values: np.ndarray
    ) -> np.ndarray:
        n_shards = SHARDS_PER_WORKER * self.execution.resolved_workers()
        n_shards = max(1, min(n_shards, len(sites)))
        bounds = np.array_split(np.arange(len(sites)), n_shards)
        shard_counter, failure_counter = _parallel_obs()
        shard_counter.inc(n_shards)

        resolved = self.execution.resolve_exec_backend()
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
                        lambda idx=idx: self._batched_masks(
                            sites[idx],
                            None if stuck is None else stuck[idx],
                            values,
                        )
                    ),
                )
                for i, idx in enumerate(bounds)
            ]
            results = self._executor.submit(tasks, policy=self.policy)
        if self._executor.last_submit_failures:
            failure_counter.inc(self._executor.last_submit_failures)
        out = np.zeros((len(sites), values.shape[1]), dtype=np.uint64)
        for i, idx in enumerate(bounds):
            out[idx] = results[i]
        return out
