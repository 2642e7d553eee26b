"""Wire protocol of the execution fabric: one signed frame codec.

Every message between a coordinator and a worker — a ``repro
exec-worker`` over TCP or a forked child over a ``socketpair`` — travels
as one length-prefixed, authenticated pickle frame::

    +----------+-----------------------+------------------------+
    | len (!I) | HMAC-SHA256 tag (32B) | pickle payload (len B) |
    +----------+-----------------------+------------------------+

The tag is verified (constant-time) *before* the payload is unpickled:
a peer that does not hold the key cannot make this process load a
pickle.  TCP frames are keyed by the shared secret ``REPRO_EXEC_TOKEN``
(:func:`wire_key`); socketpair frames by a per-process random key the
child inherits through ``fork``.  A bad tag or an over-long frame raises
:class:`~repro.resilience.errors.ResultIntegrityError` and the
connection is dropped.  :func:`unpickle` is the package's only
``pickle.loads``; the blobs nested inside frames (task, initializer,
result payload) go through it too, and only after their frame verified.

Messages are plain tuples ``(type, *fields)`` of fixed arity, checked by
:func:`well_formed` where they are decoded (a frame of the wrong shape
is counted and dropped, never indexed):

=============  ========  ==============================================
``register``   w -> c    ``worker_id, pid, host`` — first frame, read
                         under :data:`MAX_HELLO_BYTES` and
                         :data:`REGISTER_TIMEOUT_S`
``welcome``    c -> w    ``worker_id, hb_interval_s, run_id``
``heartbeat``  w -> c    ``worker_id, telemetry`` — one batch of
                         buffered logs + metric deltas
                         (:mod:`repro.obs.remote`) or ``None``
``init``       c -> w    ``session, init_blob, run_id`` — pickled
                         ``(initializer, initargs)``, sent before the
                         first task of a session
``task``       c -> w    ``session, index, key, attempt, task_blob,
                         chaos_spec, obs_ctx``
``result``     w -> c    ``session, index, attempt, crc, payload,
                         span_tree`` — ``payload`` is the pickled
                         result, ``crc`` its CRC32 taken before any
                         corruption could touch it
``error``      w -> c    ``session, index, attempt, text, exc_blob`` —
                         ``exc_blob`` the pickled exception or ``None``
``shutdown``   c -> w    no fields
=============  ========  ==============================================

Environment (all optional)::

    REPRO_EXEC_COORD              coordinator listen address, host:port
                                  (default 127.0.0.1:0 — ephemeral port)
    REPRO_EXEC_TOKEN              shared secret keying TCP frames;
                                  required to listen beyond loopback
    REPRO_EXEC_CONNECT_TIMEOUT_S  how long a submit waits for a worker
                                  before falling back (default 5)
    REPRO_EXEC_HB_INTERVAL_S      worker heartbeat period (default 1)
    REPRO_EXEC_HB_TIMEOUT_S       heartbeat silence that declares a
                                  worker lost (default 4x interval)
    REPRO_OBS_TELEMETRY_BUFFER    worker-side telemetry buffer capacity,
                                  records (default 256)
"""

from __future__ import annotations

import hashlib
import hmac
import ipaddress
import os
import pickle
import socket
import struct
import zlib

from repro.resilience.errors import ConfigError, ResultIntegrityError

__all__ = [
    "COORD_ENV",
    "TOKEN_ENV",
    "CONNECT_TIMEOUT_ENV",
    "HB_INTERVAL_ENV",
    "HB_TIMEOUT_ENV",
    "send_frame",
    "recv_frame",
    "unpickle",
    "seal",
    "unseal",
    "well_formed",
    "wire_key",
    "require_token",
    "parse_address",
    "coordinator_address",
    "connect_timeout",
    "heartbeat_interval",
    "heartbeat_timeout",
]

COORD_ENV = "REPRO_EXEC_COORD"
TOKEN_ENV = "REPRO_EXEC_TOKEN"
CONNECT_TIMEOUT_ENV = "REPRO_EXEC_CONNECT_TIMEOUT_S"
HB_INTERVAL_ENV = "REPRO_EXEC_HB_INTERVAL_S"
HB_TIMEOUT_ENV = "REPRO_EXEC_HB_TIMEOUT_S"

_HEADER = struct.Struct("!I32s")
#: sanity bound on one frame; a length beyond this is garbage, not data
#: (large ndarrays travel by shared-memory segment name, not by value)
MAX_FRAME_BYTES = 1 << 31
#: bound on the one frame read from a peer that has not registered yet
MAX_HELLO_BYTES = 1 << 12
#: seconds an accepted connection has to send its ``register`` frame
REGISTER_TIMEOUT_S = 5.0
#: frames on a loopback listener without a token are keyed by this
#: constant: every local process can compute it, which is the loopback
#: trust model (same host, same user) stated in docs/architecture.md
_LOOPBACK_KEY = b"repro-exec-loopback"


def wire_key() -> bytes:
    """The key TCP frames are signed with (``REPRO_EXEC_TOKEN``)."""
    return os.environ.get(TOKEN_ENV, "").encode() or _LOOPBACK_KEY


def _tag(key: bytes, payload: bytes) -> bytes:
    return hmac.digest(key, payload, hashlib.sha256)


def send_frame(sock: socket.socket, message, key: bytes) -> None:
    """Pickle, sign and send one message (caller holds the send lock)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload), _tag(key, payload)) + payload)


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, key: bytes, max_bytes: int = MAX_FRAME_BYTES):
    """Receive one message; EOFError on close, integrity error on forgery.

    Nothing is unpickled unless the tag over the whole payload verifies
    under ``key``, and nothing beyond ``max_bytes`` is even read.
    """
    length, tag = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    if length > max_bytes:
        raise ResultIntegrityError(
            f"frame header announces {length} bytes (> {max_bytes}); "
            "treating the stream as corrupt"
        )
    payload = _read_exact(sock, length)
    if not hmac.compare_digest(tag, _tag(key, payload)):
        raise ResultIntegrityError(
            f"wire frame failed its HMAC tag check over {length} bytes"
        )
    return unpickle(payload)


def unpickle(data: bytes):
    """Load a pickle that arrived inside a frame whose tag verified."""
    return pickle.loads(data)


def seal(result) -> tuple[int, bytes]:
    """Worker side: pickle a task result and checksum the bytes."""
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return zlib.crc32(payload), payload


def unseal(crc: int, payload: bytes, key: str, verify: bool = True):
    """Coordinator side: check a result payload's CRC32, then load it."""
    if verify and zlib.crc32(payload) != crc:
        raise ResultIntegrityError(
            f"task {key!r} returned a corrupted payload "
            f"(CRC mismatch over {len(payload)} bytes)",
            task_key=key,
        )
    return unpickle(payload)


_NUMBER = (int, float)
_NONE = type(None)
#: field types per message type — the frame table above, executable
_FIELDS: dict[str, tuple] = {
    "register": (str, int, str),
    "welcome": (str, _NUMBER, (str, _NONE)),
    "heartbeat": (str, (dict, _NONE)),
    "init": (str, bytes, (str, _NONE)),
    "task": (str, int, str, int, bytes, object, object),
    "result": (str, int, int, int, bytes, (dict, _NONE)),
    "error": (str, int, int, str, (bytes, _NONE)),
    "shutdown": (),
}


def well_formed(message, kinds: tuple[str, ...]) -> bool:
    """Whether ``message`` is one of ``kinds`` with the declared shape."""
    if not (isinstance(message, tuple) and message and message[0] in kinds):
        return False
    fields = _FIELDS[message[0]]
    return len(message) == len(fields) + 1 and all(
        isinstance(value, kind) for value, kind in zip(message[1:], fields)
    )


# --------------------------------------------------------------------- #
def parse_address(raw: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)`` with a typed error on junk."""
    host, sep, port_raw = raw.strip().rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"invalid coordinator address {raw!r}; expected host:port"
        )
    try:
        port = int(port_raw)
    except ValueError as exc:
        raise ConfigError(
            f"invalid coordinator port in {raw!r}: {exc}"
        ) from exc
    if not 0 <= port <= 65535:
        raise ConfigError(f"coordinator port {port} out of range in {raw!r}")
    return host, port


def require_token(host: str) -> None:
    """Refuse a listen address beyond loopback unless a token is set."""
    try:
        loopback = ipaddress.ip_address(host).is_loopback
    except ValueError:
        loopback = host == "localhost"
    if not loopback and not os.environ.get(TOKEN_ENV):
        raise ConfigError(
            f"refusing to listen on {host!r} without {TOKEN_ENV}: beyond "
            "loopback, task frames must be signed with a shared secret"
        )


def _env_seconds(var: str, default: float, *, minimum: float = 0.0) -> float:
    raw = os.environ.get(var, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid {var}={raw!r}: {exc}") from exc
    if value <= minimum:
        raise ConfigError(f"{var} must be > {minimum}, got {value}")
    return value


def coordinator_address() -> tuple[str, int]:
    """The listen address from ``REPRO_EXEC_COORD`` (default ephemeral)."""
    raw = os.environ.get(COORD_ENV, "").strip()
    if not raw:
        return ("127.0.0.1", 0)
    return parse_address(raw)


def connect_timeout() -> float:
    """Seconds a submit waits for a worker before falling back."""
    return _env_seconds(CONNECT_TIMEOUT_ENV, 5.0)


def heartbeat_interval() -> float:
    """Seconds between worker heartbeat frames."""
    return _env_seconds(HB_INTERVAL_ENV, 1.0)


def heartbeat_timeout() -> float:
    """Heartbeat silence that declares a worker partitioned/dead."""
    return _env_seconds(HB_TIMEOUT_ENV, 4.0 * heartbeat_interval())
