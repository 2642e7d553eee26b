"""Property/fuzz tests: malformed netlist input raises typed errors only.

The admission gate of the serving layer rests on one contract: whatever
bytes arrive, ``parse_bench``/``validate_netlist`` either succeed or raise
inside the :class:`~repro.resilience.errors.ReproError` hierarchy — never
a bare ``KeyError``/``RecursionError``/``AttributeError`` from the guts of
the parser.

``parse_bench`` here is the real parser wrapped so that every call is also
compared with the node-by-node reference parser (same netlist, or same
error type and message).
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design, load_bench, validate_netlist
from repro.circuit.bench import BenchParseError, write_bench
from repro.circuit.validate import NetlistValidationError
from repro.resilience.errors import NetlistFormatError, ReproError
from tests.circuit.reference_frontend import checked_parse_bench as parse_bench


def valid_bench(seed: int = 11, gates: int = 60) -> str:
    buf = io.StringIO()
    write_bench(generate_design(gates, seed=seed), buf)
    return buf.getvalue()


def parse_or_typed_error(text: str):
    """Parse + validate; any failure must be a typed ReproError."""
    try:
        netlist = parse_bench(text)
        validate_netlist(netlist, strict=True)
        return netlist
    except ReproError:
        return None


class TestArbitraryInput:
    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=400))
    def test_arbitrary_text_never_crashes(self, text):
        parse_or_typed_error(text)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes_never_crash(self, raw):
        parse_or_typed_error(raw.decode("utf-8", errors="replace"))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [
                    "INPUT(a)",
                    "INPUT(b)",
                    "OUTPUT(z)",
                    "OUTPUT(a)",
                    "z = AND(a, b)",
                    "z = AND(a, a)",
                    "y = NOT(z)",
                    "w = DFF(w)",
                    "p = DFF(x)",
                    "r = DFF(v)",
                    "x = NOR(r, z)",
                    "q = DFF()",
                    "q = DFF(a, b)",
                    "a = NOT(b)",
                    "v = XOR(undefined, a)",
                    "z = OR(a, b)",
                    "# comment",
                    "",
                    "garbage line (((",
                ]
            ),
            max_size=14,
        )
    )
    def test_shuffled_statements_never_crash(self, lines):
        parse_or_typed_error("\n".join(lines))


class TestTruncation:
    @settings(max_examples=40, deadline=None)
    @given(fraction=st.floats(0.0, 1.0), seed=st.integers(0, 50))
    def test_truncated_valid_file_parses_or_raises_typed(self, fraction, seed):
        text = valid_bench(seed=seed)
        parse_or_typed_error(text[: int(len(text) * fraction)])

    def test_truncated_file_on_disk(self, tmp_path):
        text = valid_bench()
        path = tmp_path / "t.bench"
        path.write_text(text[: len(text) // 2])
        try:
            netlist = load_bench(path)
            validate_netlist(netlist, strict=True)
        except ReproError:
            pass


class TestKnownMalformations:
    def test_dangling_net_raises_parse_error(self):
        with pytest.raises(BenchParseError, match="never defined"):
            parse_bench("INPUT(a)\nz = AND(a, ghost)\nOUTPUT(z)\n")

    def test_undriven_output_raises_parse_error(self):
        with pytest.raises(BenchParseError, match="never driven"):
            parse_bench("INPUT(a)\nOUTPUT(ghost)\n")

    def test_duplicate_gate_name_raises(self):
        text = "INPUT(a)\nz = AND(a, a)\nz = OR(a, a)\nOUTPUT(z)\n"
        with pytest.raises(BenchParseError, match="redefined"):
            parse_bench(text)

    def test_duplicate_input_raises(self):
        with pytest.raises(BenchParseError, match="declared twice"):
            parse_bench("INPUT(a)\nINPUT(a)\n")

    def test_combinational_cycle_raises(self):
        text = "INPUT(c)\na = AND(b, c)\nb = AND(a, c)\nOUTPUT(a)\n"
        with pytest.raises(BenchParseError, match="loop"):
            parse_bench(text)

    def test_self_loop_raises(self):
        with pytest.raises(BenchParseError, match="loop"):
            parse_bench("INPUT(c)\na = AND(a, c)\nOUTPUT(a)\n")

    def test_unknown_gate_raises_with_line_number(self):
        with pytest.raises(BenchParseError, match="line 2"):
            parse_bench("INPUT(a)\nz = FROB(a)\n")

    def test_flop_without_data_pin_raises_with_line_number(self):
        with pytest.raises(BenchParseError, match="line 2: DFF takes 1 fanin, got 0"):
            parse_bench("INPUT(a)\nq = DFF()\nOUTPUT(q)\n")

    def test_flop_with_two_pins_is_an_arity_error(self):
        with pytest.raises(BenchParseError, match="line 3: DFF takes 1 fanin, got 2"):
            parse_bench("INPUT(a)\nINPUT(b)\nq = DFF(a, b)\nOUTPUT(q)\n")

    @pytest.mark.parametrize(
        "text", ["INPUT(a)\nINPUT(b)\na = AND(a, b)\n", "a = AND(a, b)\nINPUT(a)\nINPUT(b)\n"]
    )
    def test_assignment_to_an_input_raises(self, text):
        line = 1 + text.splitlines().index("a = AND(a, b)")
        with pytest.raises(BenchParseError) as err:
            parse_bench(text)
        assert str(err.value) == f"line {line}: signal 'a' redefined"

    def test_deep_reversed_chain_parses(self):
        # Listed sink first, 5000 levels deep: far past the recursion limit.
        depth = 5000
        gates = [f"n{i} = NOT(n{i - 1})" for i in range(depth, 0, -1)]
        text = "\n".join(["OUTPUT(n%d)" % depth, *gates, "INPUT(n0)"])
        netlist = parse_or_typed_error(text)
        assert netlist is not None and netlist.num_nodes == depth + 1
        assert netlist.fanins(netlist.find(f"n{depth}")) == [netlist.find(f"n{depth - 1}")]
        # The walk numbers the chain from the input up, whatever the line order.
        assert [netlist.find(f"n{i}") for i in (0, 1, depth)] == [0, 1, depth]

    def test_deep_reversed_chain_with_a_hole_raises_typed(self):
        gates = [f"n{i} = NOT(n{i - 1})" for i in range(5000, 0, -1)]
        with pytest.raises(BenchParseError, match="'n0' used but never defined"):
            parse_bench("\n".join(gates))

    def test_all_typed_errors_are_netlist_format_errors(self):
        for text in [
            "z = FROB(a)\n",
            "((((",
            "INPUT(a)\nz = AND(a, ghost)\n",
        ]:
            with pytest.raises(NetlistFormatError):
                parse_bench(text)


class TestValidation:
    def test_no_observation_sites_raises_validation_error(self):
        netlist = parse_bench("INPUT(a)\nb = NOT(a)\n")
        with pytest.raises(NetlistValidationError):
            validate_netlist(netlist, strict=True)
        assert not validate_netlist(netlist).ok

    def test_validation_error_is_repro_error(self):
        assert issubclass(NetlistValidationError, ReproError)
        assert issubclass(NetlistValidationError, ValueError)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), gates=st.integers(10, 120))
    def test_generated_designs_always_validate(self, seed, gates):
        report = validate_netlist(generate_design(gates, seed=seed), strict=True)
        assert report.ok
