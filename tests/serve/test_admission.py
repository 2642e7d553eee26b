"""Admission control: malformed input raises typed 4xx-mapped errors."""

import functools
import io
import json

import numpy as np
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

from tests.serve.member_rows import own_graph

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

    def test_cell_less_netlist_is_refused(self):
        with pytest.raises(NetlistValidationError, match="netlist is empty") as info:
            admit(body(netlist="# nothing\n"), CFG)
        assert status_for(info.value) == (422, "netlist_invalid")

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


def count_sweeps(monkeypatch) -> dict[str, list[int]]:
    """Record the node count of every levelize and SCOAP sweep admission runs."""
    from repro.circuit import levelize as levelize_module
    from repro.serve import admission

    sweeps: dict[str, list[int]] = {"levelize": [], "scoap": []}
    levelize_frontier = levelize_module._levelize_frontier
    compute_scoap = admission.compute_scoap
    monkeypatch.setattr(
        levelize_module,
        "_levelize_frontier",
        lambda structure: sweeps["levelize"].append(structure.num_nodes)
        or levelize_frontier(structure),
    )
    monkeypatch.setattr(
        admission,
        "compute_scoap",
        lambda netlist: sweeps["scoap"].append(netlist.num_nodes) or compute_scoap(netlist),
    )
    return sweeps


def generated_text(gates: int, seed: int) -> str:
    from repro.circuit import generate_design

    text = io.StringIO()
    write_bench(generate_design(gates, seed=seed), text)
    return text.getvalue()


class TestLevelizesOnce:
    @pytest.mark.parametrize("gates", [120, 1500], ids=["small_design", "large_design"])
    def test_one_sweep_per_admitted_design(self, monkeypatch, gates):
        sweeps = count_sweeps(monkeypatch)
        request = admit(body(netlist=generated_text(gates, 7)), CFG)
        assert request.graph.num_nodes > gates
        nodes = request.graph.num_nodes
        assert sweeps == {"levelize": [nodes], "scoap": [nodes]}

    @pytest.mark.parametrize("k", [2, 5])
    def test_one_sweep_per_batch(self, monkeypatch, k):
        sweeps = count_sweeps(monkeypatch)
        envelopes = [{"netlist": generated_text(60, seed)} for seed in range(k)]
        admitted = admit_batch(body(requests=envelopes), CFG)
        nodes = sum(request.num_nodes for _, request in admitted)
        assert sweeps == {"levelize": [nodes], "scoap": [nodes]}
        # ... and one graph, of which each member is its rows.
        [graph] = {id(request.graph): request.graph for _, request in admitted}.values()
        assert graph.num_nodes == nodes


#: one well-formed member and one of each way a member can be refused
#: (a netlist without cells is refused after parsing), plus members that
#: must keep what is theirs: a flop loop, a dangling gate's warning, a
#: generated design
GOOD = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NAND(a, b)\ny = NOT(n)\n"
MEMBERS = {
    "good": {"netlist": GOOD},
    "parse_error": {"netlist": "y = FROB(a)\n"},
    "invalid": {"netlist": "INPUT(a)\nb = NOT(a)\n"},
    "schema": {"netlist": GOOD, "deadline_ms": "soon"},
    "not_an_object": 7,
    "combinational_loop": {"netlist": "INPUT(c)\nOUTPUT(a)\na = AND(b, c)\nb = NOT(a)\n"},
    "flop_loop": {"netlist": "INPUT(a)\nOUTPUT(g)\nd = DFF(h)\ng = NAND(a, d)\nh = NOT(g)\n"},
    "dangling": {"netlist": "INPUT(a)\nINPUT(b)\nc = AND(a, b)\nd = NOT(a)\nOUTPUT(c)\n"},
    "generated": {"netlist": generated_text(60, 3)},
    "empty": {"netlist": "# nothing\n"},
}
ADMITTED = {"good", "flop_loop", "dangling", "generated"}


def comparable(item):
    """What an admission outcome answers: the error's type and message, or
    the member's rows of its graph (attributes, both COO triples and both
    CSRs), its node and pin counts and its warnings."""
    if isinstance(item, BaseException):
        return type(item).__name__, str(item)
    graph = own_graph(item)
    arrays = [graph.attributes]
    for matrix in (graph.pred, graph.succ):
        csr = matrix.to_scipy()
        arrays += [matrix.values, matrix.rows, matrix.cols, csr.data, csr.indices, csr.indptr]
    return (
        item.design,
        item.warnings,
        (item.num_nodes, item.num_edges),
        [(array.dtype.str, array.shape, array.tobytes()) for array in arrays],
    )


def solo(envelope):
    """``admit`` of one envelope on its own: the request or its error."""
    try:
        return admit(body(**envelope) if isinstance(envelope, dict) else b"7", CFG)
    except Exception as exc:
        return exc


class TestSplitBatchAdmission:
    """``admit_batch(raw, cfg, part=(i, k))``: the k parts of a body are
    disjoint, cover it, and merged by index are the unsplit answer, each
    member that of a solo ``admit`` of its envelope."""

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
            kind not in ADMITTED for kind in kinds
        ]
        expected = [comparable(solo(envelope)) for envelope in envelopes]
        assert [comparable(item) for _, item in whole] == expected
        for k in (1, 2, 3):
            parts = [admit_batch(raw, CFG, part=(i, k)) for i in range(k)]
            for i, part in enumerate(parts):
                assert [index for index, _ in part] == list(range(i, len(kinds), k))
            merged = sorted((e for part in parts for e in part), key=lambda e: e[0])
            assert [comparable(item) for _, item in merged] == expected

    def test_a_dangling_gates_warning_stays_on_its_member(self):
        envelopes = [MEMBERS["good"], MEMBERS["dangling"], MEMBERS["flop_loop"]]
        admitted = [item for _, item in admit_batch(body(requests=envelopes), CFG)]
        assert [bool(item.warnings) for item in admitted] == [False, True, False]
        assert admitted[1].warnings == ["dangling gate 3 (NOT) is never observed"]

    def test_a_loop_in_the_union_falls_back_to_member_by_member(self, monkeypatch):
        """The parser refuses a combinational loop, so a looped netlist is
        planted behind it: the union's levelize then fails, and each member
        is admitted alone, the looped one refused as it would be solo."""
        from repro.circuit import GateType, Netlist
        from repro.serve import admission

        def looped(name):
            netlist = Netlist(name)
            a = netlist.add_input("a")
            n1 = netlist.add_cell(GateType.NOT, (a,))
            n2 = netlist.add_cell(GateType.NOT, (n1,))
            netlist.replace_fanin(n1, a, n2)
            netlist.mark_output(n2)
            return netlist

        parse = admission.parse_bench
        monkeypatch.setattr(
            admission,
            "parse_bench",
            lambda text, name: looped(name) if text == "LOOP\n" else parse(text, name=name),
        )
        sweeps = count_sweeps(monkeypatch)
        envelopes = [MEMBERS["generated"], {"netlist": "LOOP\n"}, MEMBERS["dangling"]]
        expected = [comparable(solo(envelope)) for envelope in envelopes]
        assert expected[1] == (
            "NetlistValidationError",
            "combinational loop involving 2 nodes (e.g. node 1)",
        )
        sweeps["levelize"].clear()
        sweeps["scoap"].clear()
        whole = admit_batch(body(requests=envelopes), CFG)
        assert [comparable(item) for _, item in whole] == expected
        # The union's failed sweep, then each member's own.
        sizes = [item.graph.num_nodes for _, item in whole if not isinstance(item, Exception)]
        assert len(sweeps["levelize"]) == 4
        assert sweeps["scoap"] == sizes

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
        for k in (1, 3):  # a member alone, and members sharing the sweeps
            admitted = admit_batch(body(requests=[{"netlist": GOOD}] * k), CFG)
            for _, request in admitted:
                assert set(request.stages) == {"parse", "validate", "build"}
                assert all(seconds > 0.0 for seconds in request.stages.values())


@functools.lru_cache(maxsize=None)
def cached_text(gates: int, seed: int) -> str:
    return generated_text(gates, seed)


#: members every drawn body holds besides its generated ones: refused by
#: validation (no outputs), scored alone, and a gate reading one wire twice
SPECIAL = [
    {"netlist": "INPUT(a)\nb = NOT(a)\n", "design": "unobservable"},
    {"netlist": GOOD, "design": "alone", "batchable": False},
    {"netlist": "INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n", "design": "duplicate_pin"},
]


@pytest.fixture(scope="module")
def lane_service(tmp_path_factory):
    from repro.core.model import GCN
    from repro.core.serialize import save_gcn
    from repro.serve import ModelManager, ScoringService

    from tests.serve.conftest import TINY_GCN

    model = save_gcn(GCN(TINY_GCN), tmp_path_factory.mktemp("lane") / "model.npz")
    manager = ModelManager(model)
    service = ScoringService(manager, ServeConfig(workers=1))
    yield service
    service.stop()
    manager.close()


class TestMembersAreRowsOfTheirLaneGraph:
    """Each admitted member of a lane is its rows of the lane's one graph,
    and those rows are its solo admission: attributes, every CSR row once
    shifted by the member's offset, node and pin counts, and the labels a
    scoring service answers with."""

    @settings(max_examples=20, deadline=None)
    @given(
        generated=st.lists(
            st.tuples(st.integers(4, 90), st.integers(0, 5)), min_size=1, max_size=8
        ),
        order=st.randoms(use_true_random=False),
        k=st.sampled_from([1, 2, 3]),
    )
    def test_rows_equal_solo_admission(self, lane_service, generated, order, k):
        envelopes = [
            {"netlist": cached_text(gates, seed), "design": f"g{gates}s{seed}"}
            for gates, seed in generated
        ] + SPECIAL
        order.shuffle(envelopes)
        raw = body(requests=envelopes)
        members = sorted(
            (entry for i in range(k) for entry in admit_batch(raw, CFG, part=(i, k))),
            key=lambda entry: entry[0],
        )
        assert [index for index, _ in members] == list(range(len(envelopes)))
        admitted = [request for _, request in members if not isinstance(request, Exception)]
        lane_labels = [
            lane_service.wait_for(job)[0] for job in lane_service.submit_many(admitted)
        ]
        scored = iter(lane_labels)
        for envelope, (_, member) in zip(envelopes, members):
            alone = solo(envelope)
            if isinstance(alone, Exception):
                assert envelope["design"] == "unobservable"
                assert (type(member), str(member)) == (type(alone), str(alone))
                continue
            assert member.rows.start + member.num_nodes == member.rows.stop
            assert member.graph.num_nodes >= member.rows.stop
            if not envelope.get("batchable", True):
                assert member.graph.num_nodes == member.num_nodes
            assert (member.num_nodes, member.num_edges) == (
                alone.num_nodes, alone.num_edges
            )
            assert alone.rows == slice(0, alone.graph.num_nodes)
            assert np.array_equal(member.graph.attributes[member.rows], alone.graph.attributes)
            mine = own_graph(member)  # fails on an entry outside the member's block
            for side in ("pred", "succ"):
                ours = getattr(mine, side).to_scipy()
                theirs = getattr(alone.graph, side).to_scipy()
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(ours, part), getattr(theirs, part))
            np.testing.assert_array_equal(
                next(scored), lane_service.score(alone)[0]
            )
        [duplicate] = [m for (_, m), e in zip(members, envelopes) if e is SPECIAL[2]]
        # Two pins, summed into one CSR entry of weight 2.
        assert duplicate.num_edges == 2
        assert own_graph(duplicate).pred.to_scipy().data.tolist() == [2.0]
