"""Unit tests for the distributed backend's wire layer (repro.exec.net)."""

from __future__ import annotations

import hashlib
import hmac
import pickle
import socket
import struct
import zlib

import pytest

from repro.exec import chaos as chaos_mod
from repro.exec import net as net_mod
from repro.exec.chaos import NET_CHAOS_MODES, ChaosSpec
from repro.resilience.errors import ConfigError, ResultIntegrityError

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

    def test_oversized_first_frame(self, pair):
        a, b = pair
        payload = pickle.dumps(Bomb()) + b"\0" * net_mod.MAX_HELLO_BYTES
        a.sendall(_frame(payload, hmac.digest(KEY, payload, hashlib.sha256)))
        with pytest.raises(ResultIntegrityError, match="announces"):
            net_mod.recv_frame(b, KEY, net_mod.MAX_HELLO_BYTES)


class TestMessageShapes:
    GOOD = [
        ("register", "w0", 41, "host"),
        ("welcome", "w0", 0.5, None),
        ("heartbeat", "w0", {"logs": []}),
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
            ("register", "w0", "not-a-pid", "host"),
            ("register", "w0", 41),
            ({"unhashable": 1}, "w0"),
        ],
    )
    def test_wrong_arity_or_types_fail(self, message):
        kinds = tuple(net_mod._FIELDS)
        assert not net_mod.well_formed(message, kinds)


# --------------------------------------------------------------------- #
class TestAddresses:
    def test_parse_address(self):
        assert net_mod.parse_address("127.0.0.1:7077") == ("127.0.0.1", 7077)
        assert net_mod.parse_address(" host:0 ") == ("host", 0)

    @pytest.mark.parametrize(
        "raw", ["", "justhost", ":7077", "host:notaport", "host:70777"]
    )
    def test_parse_address_rejects_junk(self, raw):
        with pytest.raises(ConfigError):
            net_mod.parse_address(raw)

    def test_wire_key_is_the_token_when_set(self, monkeypatch):
        monkeypatch.delenv(net_mod.TOKEN_ENV, raising=False)
        default = net_mod.wire_key()
        monkeypatch.setenv(net_mod.TOKEN_ENV, "s3cret")
        assert net_mod.wire_key() == b"s3cret" != default

    @pytest.mark.parametrize("host", ["127.0.0.1", "::1", "localhost"])
    def test_loopback_needs_no_token(self, host):
        net_mod.require_token(host)

    @pytest.mark.parametrize("host", ["0.0.0.0", "10.0.0.5", "example.org"])
    def test_beyond_loopback_needs_a_token(self, host, monkeypatch):
        with pytest.raises(ConfigError, match=net_mod.TOKEN_ENV):
            net_mod.require_token(host)
        monkeypatch.setenv(net_mod.TOKEN_ENV, "s3cret")
        net_mod.require_token(host)

    def test_coordinator_address_default_and_env(self, monkeypatch):
        assert net_mod.coordinator_address() == ("127.0.0.1", 0)
        monkeypatch.setenv(net_mod.COORD_ENV, "10.0.0.5:7077")
        assert net_mod.coordinator_address() == ("10.0.0.5", 7077)

    def test_env_seconds_validation(self, monkeypatch):
        monkeypatch.setenv(net_mod.HB_INTERVAL_ENV, "0.25")
        assert net_mod.heartbeat_interval() == 0.25
        # Timeout defaults to 4x the (possibly overridden) interval.
        assert net_mod.heartbeat_timeout() == 1.0
        monkeypatch.setenv(net_mod.HB_TIMEOUT_ENV, "9")
        assert net_mod.heartbeat_timeout() == 9.0
        monkeypatch.setenv(net_mod.CONNECT_TIMEOUT_ENV, "junk")
        with pytest.raises(ConfigError):
            net_mod.connect_timeout()
        monkeypatch.setenv(net_mod.CONNECT_TIMEOUT_ENV, "-1")
        with pytest.raises(ConfigError):
            net_mod.connect_timeout()


# --------------------------------------------------------------------- #
class TestNetChaosRolls:
    def test_net_action_none_for_process_modes(self):
        spec = ChaosSpec(mode="kill", rate=1.0)
        assert chaos_mod.net_action(spec, "k", 1) is None
        assert chaos_mod.net_action(None, "k", 1) is None

    @pytest.mark.parametrize("mode", NET_CHAOS_MODES)
    def test_net_action_fires_at_rate_one(self, mode):
        spec = ChaosSpec(mode=mode, rate=1.0)
        assert chaos_mod.net_action(spec, "k", 1) == mode

    def test_rolls_are_deterministic_and_attempt_scoped(self):
        spec = ChaosSpec(mode="disconnect", rate=0.5, seed=7)
        rolls = [
            chaos_mod.net_action(spec, f"t{i}", attempt)
            for i in range(20)
            for attempt in (1, 2)
        ]
        assert rolls == [
            chaos_mod.net_action(spec, f"t{i}", attempt)
            for i in range(20)
            for attempt in (1, 2)
        ]
        # At rate 0.5 over 40 rolls, both outcomes must appear.
        assert any(r == "disconnect" for r in rolls)
        assert any(r is None for r in rolls)

    def test_net_modes_parse_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "partition:0.25")
        spec = ChaosSpec.from_env()
        assert spec.mode == "partition"
        assert spec.rate == 0.25

    def test_process_injection_ignores_net_modes(self):
        # inject_before/corrupt_payload must be no-ops for net modes.
        spec = ChaosSpec(mode="disconnect", rate=1.0)
        chaos_mod.inject_before(spec, "k", 1)
        assert chaos_mod.corrupt_payload(spec, "k", 1, b"x") == b"x"
