"""Unit tests for the fabric's wire layer (repro.exec.net)."""

from __future__ import annotations

import hashlib
import hmac
import pickle
import socket
import struct
import zlib

import pytest

from repro.exec import net as net_mod
from repro.resilience.errors import ResultIntegrityError

KEY = b"unit-test-key"
FLAGS: list[str] = []


def _detonate():
    FLAGS.append("unpickled")


class Bomb:
    """Unpickling one of these records that it happened."""

    def __reduce__(self):
        return (_detonate, ())


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def _frame(payload: bytes, tag: bytes, length: int | None = None) -> bytes:
    return struct.pack("!I", len(payload) if length is None else length) + tag + payload


# --------------------------------------------------------------------- #
class TestFraming:
    def test_roundtrip(self, pair):
        a, b = pair
        message = ("task", "s1", 3, "key", 1, b"blob", None, None)
        net_mod.send_frame(a, message, KEY)
        assert net_mod.recv_frame(b, KEY) == message

    def test_multiple_frames_in_order(self, pair):
        a, b = pair
        for i in range(5):
            net_mod.send_frame(a, ("heartbeat", i), KEY)
        assert [net_mod.recv_frame(b, KEY)[1] for _ in range(5)] == list(range(5))

    def test_closed_peer_raises_eof(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(EOFError):
            net_mod.recv_frame(b, KEY)

    def test_corrupt_payload_fails_crc(self):
        crc, payload = net_mod.seal({"rows": [1, 2, 3]})
        assert net_mod.unseal(crc, payload, "t0") == {"rows": [1, 2, 3]}
        corrupted = payload[:-1] + bytes([payload[-1] ^ 0xFF])
        with pytest.raises(ResultIntegrityError, match="CRC") as excinfo:
            net_mod.unseal(crc, corrupted, "t0")
        assert excinfo.value.task_key == "t0"

    def test_absurd_length_rejected_before_read(self, pair):
        a, b = pair
        a.sendall(_frame(b"", b"\0" * 32, length=net_mod.MAX_FRAME_BYTES + 1))
        with pytest.raises(ResultIntegrityError, match="corrupt"):
            net_mod.recv_frame(b, KEY)


class TestNothingUnverifiedIsUnpickled:
    """Each forgery carries a pickle whose load would set a flag."""

    @pytest.fixture(autouse=True)
    def _reset(self):
        FLAGS.clear()
        yield
        assert FLAGS == [], "a forged frame reached pickle.loads"

    def test_the_bomb_works_when_loaded(self):
        pickle.loads(pickle.dumps(Bomb()))
        assert FLAGS == ["unpickled"]
        FLAGS.clear()

    def test_tampered_frame(self, pair):
        a, b = pair
        good = pickle.dumps(("heartbeat", "w0", None))
        tag = hmac.digest(KEY, good, hashlib.sha256)
        a.sendall(_frame(pickle.dumps(Bomb()), tag))
        with pytest.raises(ResultIntegrityError, match="HMAC"):
            net_mod.recv_frame(b, KEY)

    def test_frame_signed_with_another_key(self, pair):
        a, b = pair
        net_mod.send_frame(a, Bomb(), b"some-other-token")
        with pytest.raises(ResultIntegrityError, match="HMAC"):
            net_mod.recv_frame(b, KEY)

    def test_unsigned_crc_frame_of_the_old_protocol(self, pair):
        a, b = pair
        payload = pickle.dumps(Bomb()) + b"\0" * 64
        a.sendall(struct.pack("!II", len(payload), zlib.crc32(payload)) + payload)
        a.close()
        with pytest.raises((ResultIntegrityError, EOFError)):
            net_mod.recv_frame(b, KEY)


class TestMessageShapes:
    GOOD = [
        ("heartbeat", "w0"),
        ("init", "s", b"blob", "run-1"),
        ("task", "s", 0, "t0", 7, b"blob", None, ("run", True)),
        ("result", "s", 0, 7, 123, b"payload", None),
        ("error", "s", 0, 7, "RuntimeError: x", None),
        ("shutdown",),
    ]

    @pytest.mark.parametrize("message", GOOD, ids=lambda m: m[0])
    def test_declared_shapes_pass(self, message):
        assert net_mod.well_formed(message, (message[0],))
        assert not net_mod.well_formed(message, ("nothing",))

    @pytest.mark.parametrize(
        "message",
        [
            None,
            (),
            ["result", "s", 0, 7, 123, b"payload", None],
            ("result", "s", 0, 7, 123, b"payload"),
            ("result", "s", 0, 7, 123, b"payload", None, "extra"),
            ("result", "s", "zero", 7, 123, b"payload", None),
            ("result", "s", 0, None, 123, b"payload", None),
            ("error", "s", 0, 7, None, None),
            ("init", "s", "blob-not-bytes", None),
            ("init", "s", b"blob"),
            ({"unhashable": 1}, "w0"),
            ("heartbeat", "w0", None),
        ],
    )
    def test_wrong_arity_or_types_fail(self, message):
        kinds = tuple(net_mod._FIELDS)
        assert not net_mod.well_formed(message, kinds)

