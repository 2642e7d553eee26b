"""Admission control: malformed input raises typed 4xx-mapped errors."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.bench import BenchParseError, write_bench
from repro.circuit.validate import NetlistValidationError
from repro.serve import ServeConfig, admit, admit_batch
from repro.serve.protocol import (
    MalformedRequestError,
    PayloadTooLargeError,
    error_payload,
    status_for,
)

CFG = ServeConfig()


def body(**kwargs) -> bytes:
    return json.dumps(kwargs).encode()


class TestSelfLoops:
    """A flop fed by its own output is legal; a gate fed by its own is not."""

    def test_flop_loop_design_admitted(self):
        from tests.circuit.reference_frontend import hand_built_designs

        stream = io.StringIO()
        write_bench(hand_built_designs()["flop_loop"], stream)
        req = admit(body(netlist=stream.getvalue()), CFG)
        assert req.graph.num_nodes == 5

    def test_flop_holding_itself_admitted(self):
        req = admit(body(netlist="INPUT(a)\nOUTPUT(b)\nb = DFF(b)\n"), CFG)
        assert req.graph.num_nodes == 2

    def test_gate_feeding_itself_rejected(self):
        text = "INPUT(c)\nOUTPUT(a)\na = AND(a, c)\n"
        with pytest.raises(BenchParseError, match="combinational loop"):
            admit(body(netlist=text), CFG)


class TestSchemaGate:
    def test_valid_request(self, bench_text):
        req = admit(body(netlist=bench_text, design="d", deadline_ms=500), CFG)
        assert req.design == "d"
        assert req.deadline_s == pytest.approx(0.5)
        assert req.graph.num_nodes > 100

    def test_not_json(self):
        with pytest.raises(MalformedRequestError):
            admit(b"\xff\xfe not json", CFG)

    def test_not_an_object(self):
        with pytest.raises(MalformedRequestError):
            admit(b"[1, 2]", CFG)

    def test_missing_netlist(self):
        with pytest.raises(MalformedRequestError):
            admit(body(design="x"), CFG)

    def test_unknown_keys_rejected(self, bench_text):
        with pytest.raises(MalformedRequestError, match="unknown keys"):
            admit(body(netlist=bench_text, hack="yes"), CFG)

    def test_bad_deadline(self, bench_text):
        with pytest.raises(MalformedRequestError):
            admit(body(netlist=bench_text, deadline_ms=0), CFG)
        with pytest.raises(MalformedRequestError):
            admit(body(netlist=bench_text, deadline_ms="fast"), CFG)

    def test_deadline_capped(self, bench_text):
        req = admit(body(netlist=bench_text, deadline_ms=10**9), CFG)
        assert req.deadline_s == CFG.max_deadline_ms / 1000.0

    def test_debug_sleep_requires_debug_mode(self, bench_text):
        with pytest.raises(MalformedRequestError, match="--debug"):
            admit(body(netlist=bench_text, debug_sleep_ms=50), CFG)
        cfg = ServeConfig(debug=True)
        req = admit(body(netlist=bench_text, debug_sleep_ms=50), cfg)
        assert req.debug_sleep_s == pytest.approx(0.05)


class TestSizeGates:
    def test_body_too_large(self):
        cfg = ServeConfig(max_body_bytes=64)
        with pytest.raises(PayloadTooLargeError):
            admit(b"x" * 65, cfg)

    def test_too_many_nodes(self, bench_text):
        cfg = ServeConfig(max_nodes=10)
        with pytest.raises(PayloadTooLargeError, match="nodes"):
            admit(body(netlist=bench_text), cfg)


class TestNetlistGate:
    def test_parse_error_propagates(self):
        with pytest.raises(BenchParseError):
            admit(body(netlist="INPUT(a)\nb = FROB(a)\n"), CFG)

    def test_structural_error_propagates(self):
        # Parses fine but has no observation site -> 422-mapped error.
        with pytest.raises(NetlistValidationError):
            admit(body(netlist="INPUT(a)\nb = NOT(a)\n"), CFG)

    def test_warnings_surface(self):
        text = "INPUT(a)\nINPUT(b)\nc = AND(a, b)\nd = NOT(a)\nOUTPUT(c)\n"
        req = admit(body(netlist=text), CFG)
        assert any("dangling" in w for w in req.warnings)


class TestStatusMapping:
    @pytest.mark.parametrize(
        "raiser, status, code",
        [
            (lambda: admit(b"{", CFG), 400, "bad_request"),
            (
                lambda: admit(body(netlist="a = FROB(b)\n"), CFG),
                400,
                "netlist_parse_error",
            ),
            (
                lambda: admit(body(netlist="INPUT(a)\nb = NOT(a)\n"), CFG),
                422,
                "netlist_invalid",
            ),
            (
                lambda: admit(b"y" * 10, ServeConfig(max_body_bytes=5)),
                413,
                "payload_too_large",
            ),
        ],
    )
    def test_admission_errors_map_to_4xx(self, raiser, status, code):
        with pytest.raises(Exception) as info:
            raiser()
        assert status_for(info.value) == (status, code)


class TestParserBugsAnswer400:
    """Inputs that used to escape the typed hierarchy (and so answered 500)."""

    @pytest.mark.parametrize(
        "netlist, message",
        [
            ("INPUT(a)\nq = DFF()\nOUTPUT(q)\n", "line 2: DFF takes 1 fanin, got 0"),
            ("INPUT(a)\nINPUT(b)\nq = DFF(a, b)\nOUTPUT(q)\n", "line 3: DFF takes 1 fanin, got 2"),
            ("INPUT(a)\nINPUT(b)\na = AND(a, b)\nOUTPUT(a)\n", "line 3: signal 'a' redefined"),
            (
                "\n".join(f"n{i} = NOT(n{i - 1})" for i in range(5000, 0, -1)),
                "signal 'n0' used but never defined",
            ),
        ],
        ids=["flop_no_pin", "flop_two_pins", "input_redefined", "deep_chain_with_hole"],
    )
    def test_typed_body(self, netlist, message):
        with pytest.raises(BenchParseError) as info:
            admit(body(netlist=netlist), CFG)
        assert status_for(info.value) == (400, "netlist_parse_error")
        payload = error_payload(info.value, request_id="r1")
        assert payload["error"]["type"] == "BenchParseError"
        assert payload["error"]["message"] == message
        assert payload["error"]["exit_code"] == 3
        assert payload["request_id"] == "r1"

    def test_deep_reversed_chain_is_admitted(self):
        gates = [f"n{i} = NOT(n{i - 1})" for i in range(5000, 0, -1)]
        text = "\n".join(["OUTPUT(n5000)", *gates, "INPUT(n0)"])
        assert admit(body(netlist=text), CFG).graph.num_nodes == 5001


class TestLevelizesOnce:
    @pytest.mark.parametrize("gates", [120, 1500], ids=["small_design", "large_design"])
    def test_one_sweep_per_admitted_design(self, monkeypatch, gates):
        from repro.circuit import generate_design
        from repro.circuit import levelize as levelize_module

        sweeps = []
        real = levelize_module._levelize_frontier
        monkeypatch.setattr(
            levelize_module,
            "_levelize_frontier",
            lambda structure: sweeps.append(1) or real(structure),
        )
        text = io.StringIO()
        write_bench(generate_design(gates, seed=7), text)
        request = admit(body(netlist=text.getvalue()), CFG)
        assert request.graph.num_nodes > gates
        assert len(sweeps) == 1


#: one well-formed member and one of each way a member can be refused
GOOD = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NAND(a, b)\ny = NOT(n)\n"
MEMBERS = {
    "good": {"netlist": GOOD},
    "parse_error": {"netlist": "y = FROB(a)\n"},
    "invalid": {"netlist": "INPUT(a)\nb = NOT(a)\n"},
    "schema": {"netlist": GOOD, "deadline_ms": "soon"},
    "not_an_object": 7,
}


class TestSplitBatchAdmission:
    """``admit_batch(raw, cfg, part=(i, k))``: the k parts of a body are
    disjoint, cover it, and merged by index are the unsplit answer."""

    @staticmethod
    def comparable(entries):
        return [
            (index, type(item).__name__, str(item))
            if isinstance(item, BaseException)
            else (index, item.design, item.graph.attributes.tobytes())
            for index, item in entries
        ]

    @settings(max_examples=25, deadline=None)
    @given(kinds=st.lists(st.sampled_from(sorted(MEMBERS)), min_size=1, max_size=7))
    def test_parts_reassemble_to_the_unsplit_result(self, kinds):
        envelopes = [
            dict(MEMBERS[kind], design=f"m{i}") if kind != "not_an_object" else MEMBERS[kind]
            for i, kind in enumerate(kinds)
        ]
        raw = body(requests=envelopes)
        whole = admit_batch(raw, CFG)
        assert [index for index, _ in whole] == list(range(len(kinds)))
        assert [isinstance(item, BaseException) for _, item in whole] == [
            kind != "good" for kind in kinds
        ]
        for k in (1, 2, 3):
            parts = [admit_batch(raw, CFG, part=(i, k)) for i in range(k)]
            for i, part in enumerate(parts):
                assert [index for index, _ in part] == list(range(i, len(kinds), k))
            merged = sorted((e for part in parts for e in part), key=lambda e: e[0])
            assert self.comparable(merged) == self.comparable(whole)

    @pytest.mark.parametrize(
        "raw, error",
        [
            (b"{", MalformedRequestError),
            (body(requests=[]), MalformedRequestError),
            (body(requests=[{"netlist": GOOD}], extra=1), MalformedRequestError),
            (body(requests=[{"netlist": GOOD}] * 3), PayloadTooLargeError),
        ],
        ids=["not_json", "empty", "unknown_key", "too_many"],
    )
    def test_every_part_refuses_a_bad_envelope_alike(self, raw, error):
        config = ServeConfig(batch_max_requests=2)
        messages = set()
        for part in [(0, 1), (0, 2), (1, 2), (2, 3)]:
            with pytest.raises(error) as info:
                admit_batch(raw, config, part=part)
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_admitted_members_carry_their_stage_times(self):
        [(_, request)] = admit_batch(body(requests=[{"netlist": GOOD}]), CFG)
        assert set(request.stages) == {"parse", "validate", "build"}
        assert all(seconds >= 0.0 for seconds in request.stages.values())
