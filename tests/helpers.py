"""Shared test helpers (numeric differentiation, brute-force oracles)."""

from __future__ import annotations

import numpy as np

from repro.circuit import GateType, eval_gate_bool, topological_order
from repro.circuit.netlist import Netlist


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at array ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2 * eps)
    return grad


def scalar_simulate(netlist: Netlist, source_bits: dict[int, int]) -> dict[int, int]:
    """Reference scalar simulation via :func:`eval_gate_bool`."""
    values = dict(source_bits)
    for v in topological_order(netlist):
        t = netlist.gate_type(v)
        if t in (GateType.INPUT, GateType.DFF):
            if v not in values:
                raise ValueError(f"missing source value for node {v}")
            continue
        values[v] = eval_gate_bool(t, [values[u] for u in netlist.fanins(v)])
    return values


def exhaustive_fault_detection(
    netlist: Netlist, node: int, stuck_value: int
) -> bool:
    """Brute-force: does ANY input pattern detect the fault? (small circuits)"""
    sources = netlist.sources
    observed = set(netlist.observation_sites) | set(netlist.observation_points())
    n = len(sources)
    if n > 16:
        raise ValueError("circuit too large for exhaustive analysis")
    for pattern in range(2**n):
        bits = {s: (pattern >> i) & 1 for i, s in enumerate(sources)}
        good = scalar_simulate(netlist, bits)
        if good[node] == stuck_value:
            continue  # not activated
        faulty = _faulty_simulate(netlist, bits, node, stuck_value)
        if any(good[o] != faulty[o] for o in observed):
            return True
    return False


def _faulty_simulate(
    netlist: Netlist, source_bits: dict[int, int], node: int, stuck_value: int
) -> dict[int, int]:
    values = dict(source_bits)
    for v in topological_order(netlist):
        t = netlist.gate_type(v)
        if t in (GateType.INPUT, GateType.DFF):
            pass
        else:
            values[v] = eval_gate_bool(t, [values[u] for u in netlist.fanins(v)])
        if v == node:
            values[v] = stuck_value
    return values


# --------------------------------------------------------------------- #
# Fault injection (resilience-layer tests)
# --------------------------------------------------------------------- #
# Worker-process injectors coordinate through flag files named by the
# REPRO_TEST_FAULT_DIR environment variable: `arm_worker_faults(dir, n)`
# creates n flag files, and each injected worker call atomically consumes
# one (unlink is the test-and-set) before failing.  Once the flags run
# out, calls delegate to the real gradient worker — i.e. "crash on the
# first N calls", robust across pool rebuilds and forked processes.

FAULT_DIR_ENV = "REPRO_TEST_FAULT_DIR"


def arm_worker_faults(directory, n: int) -> None:
    """Arm the next ``n`` injected worker calls to fail."""
    import os
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        (directory / f"fault_{i}").touch()
    os.environ[FAULT_DIR_ENV] = str(directory)


def _consume_fault() -> bool:
    """Atomically claim one armed fault; False once they are exhausted."""
    import os
    from pathlib import Path

    directory = os.environ.get(FAULT_DIR_ENV)
    if not directory:
        return False
    for flag in sorted(Path(directory).glob("fault_*")):
        try:
            flag.unlink()
            return True
        except FileNotFoundError:
            continue  # another worker claimed it first
    return False


def raising_worker_gradients(payload):
    """Worker that raises (recoverable failure) while faults are armed."""
    from repro.core.trainer import _worker_gradients

    if _consume_fault():
        raise RuntimeError("injected worker failure")
    return _worker_gradients(payload)


def dying_worker_gradients(payload):
    """Worker that kills its process (-> BrokenProcessPool) while armed."""
    import os

    from repro.core.trainer import _worker_gradients

    if _consume_fault():
        os._exit(17)
    return _worker_gradients(payload)


def always_failing_worker(payload):
    """Worker that never succeeds — exercises the serial fallback."""
    raise RuntimeError("injected permanent worker failure")


def truncate_file(path, fraction: float = 0.5) -> None:
    """Truncate ``path`` to ``fraction`` of its bytes (simulated kill)."""
    from pathlib import Path

    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * fraction)])


def corrupt_file(path, start: int = 64, n: int = 256) -> None:
    """Flip a span of bytes inside ``path`` (simulated disk corruption)."""
    from pathlib import Path

    path = Path(path)
    data = bytearray(path.read_bytes())
    end = min(len(data), start + n)
    for i in range(start, end):
        data[i] ^= 0xFF
    path.write_bytes(bytes(data))


class FlakyPredictor:
    """Predictor wrapper that fails its first ``n_failures`` calls."""

    def __init__(self, inner, n_failures: int = 1, exc: type = RuntimeError):
        self.inner = inner
        self.n_failures = n_failures
        self.exc = exc
        self.calls = 0

    def predict(self, graph):
        self.calls += 1
        if self.n_failures > 0:
            self.n_failures -= 1
            raise self.exc("injected predictor failure")
        inner = getattr(self.inner, "predict", self.inner)
        return inner(graph)

    __call__ = predict
