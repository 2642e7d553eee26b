"""Wire protocol of the execution fabric: one signed frame codec.

Every message between the coordinator and a forked worker travels over
their ``socketpair`` as one length-prefixed, authenticated pickle frame::

    +----------+-----------------------+------------------------+
    | len (!I) | HMAC-SHA256 tag (32B) | pickle payload (len B) |
    +----------+-----------------------+------------------------+

The tag is verified (constant-time) *before* the payload is unpickled:
a peer that does not hold the key cannot make this process load a
pickle.  Frames are keyed by a per-process random key the child
inherits through ``fork``.  A bad tag or an over-long frame raises
:class:`~repro.resilience.errors.ResultIntegrityError` and the
connection is dropped.  :func:`unpickle` is the package's only
``pickle.loads``; the blobs nested inside frames (task, initializer,
result payload) go through it too, and only after their frame verified.

Messages are plain tuples ``(type, *fields)`` of fixed arity, checked by
:func:`well_formed` where they are decoded (a frame of the wrong shape
is counted and dropped, never indexed):

=============  ========  ==============================================
``heartbeat``  w -> c    ``worker_id`` — a worker's first frame, then
                         one every :data:`HB_INTERVAL_S`
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
"""

from __future__ import annotations

import hashlib
import hmac
import pickle
import socket
import struct
import zlib

from repro.resilience.errors import ResultIntegrityError

__all__ = [
    "HB_INTERVAL_S",
    "HB_TIMEOUT_S",
    "send_frame",
    "recv_frame",
    "unpickle",
    "seal",
    "unseal",
    "well_formed",
]

#: seconds between a worker's heartbeat frames
HB_INTERVAL_S = 1.0
#: heartbeat silence that declares a busy worker lost
HB_TIMEOUT_S = 4.0

_HEADER = struct.Struct("!I32s")
#: sanity bound on one frame; a length beyond this is garbage, not data
#: (large ndarrays travel by shared-memory segment name, not by value)
MAX_FRAME_BYTES = 1 << 31


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


def recv_frame(sock: socket.socket, key: bytes):
    """Receive one message; EOFError on close, integrity error on forgery.

    Nothing is unpickled unless the tag over the whole payload verifies
    under ``key``, and nothing beyond :data:`MAX_FRAME_BYTES` is even read.
    """
    length, tag = _HEADER.unpack(_read_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ResultIntegrityError(
            f"frame header announces {length} bytes (> {MAX_FRAME_BYTES}); "
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


def unseal(crc: int, payload: bytes, key: str):
    """Coordinator side: check a result payload's CRC32, then load it."""
    if zlib.crc32(payload) != crc:
        raise ResultIntegrityError(
            f"task {key!r} returned a corrupted payload "
            f"(CRC mismatch over {len(payload)} bytes)",
            task_key=key,
        )
    return unpickle(payload)


_NONE = type(None)
#: field types per message type — the frame table above, executable
_FIELDS: dict[str, tuple] = {
    "heartbeat": (str,),
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

