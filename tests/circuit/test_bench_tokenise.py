"""The column tokeniser of ``parse_bench`` against the per-line regex one.

``regex_tokenise`` (in ``reference_frontend``) is the tokeniser as it was,
one ``_LINE_RE`` match per line.  Texts that mix the lines ``write_bench``
emits with every other shape the format allows must give the same columns,
the same netlist, or the same error with the same line number, whichever
of the column cut or the regex fallback reads them.
"""

import io
from itertools import compress, count, islice

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import generate_design, write_bench
from repro.circuit import bench
from repro.circuit.bench import BenchParseError, _build, _number, _tokenise, parse_bench
from tests.circuit.reference_frontend import regex_tokenise, same_netlist

NAMES = ["a", "b", "c", "n1", "x(y", "q"]
KINDS = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "INV", "BUF", "BUFF", "DFF"]
BREAKS = ["\n", "\n", "\n", "\r\n", "\x85", "\u2028", " "]

#: lines near a canonical shape, each one check of it away
ODD_SHAPES = [
    "   ", "junk", "a = FOO(b)", "INPUT()", "INPUT(()", "OUTPUT(a) ", "a = AND(b", "q = AND(a) = b",
    "n1 = AND(a#b)", "#a = BUF(b)", "c = AND", "b = OR((c)", "x = AND(a)(b)", "a) = NOT(b)", "n1 = AND(b(c(AND(a)",
    "a\tb = AND(c)", "t\xa0 = BUF(a)", " = AND(a)", "u =  AND(a)", "v = AND (a)", "x = AND(a, b )",
    "n1(NAND = a, b)", "INPUT(BUF = a)", "q = AND(a) = NOT(b)",
]

names = st.sampled_from(NAMES)
kinds = st.sampled_from(KINDS)
pin_lists = st.lists(names, max_size=3)


def gate(signal, kind, pins, eq=" = ", sep=", "):
    return f"{signal}{eq}{kind}({sep.join(pins)})"


canonical_lines = st.one_of(
    st.builds("INPUT({})".format, names),
    st.builds("OUTPUT({})".format, names),
    st.builds(gate, names, kinds, pin_lists),
    st.sampled_from(["", "# a comment", "# x = AND(a, b)"]),
)
odd_lines = st.one_of(
    st.builds("\tINPUT({})".format, names),
    st.builds("input({})".format, names),
    st.builds("OUTPUT( {} )".format, names),
    st.builds(gate, names, kinds, pin_lists, st.just("="), st.just(",")),
    st.builds(gate, names, kinds.map(str.lower), pin_lists),
    st.builds("{} # trailing".format, st.builds(gate, names, kinds, pin_lists)),
    st.builds("{} = AND({},,{})".format, names, names, names),
    st.builds("{} = DFF()".format, names),
    st.builds("{}\t= {}({})".format, names, kinds, names),
    st.builds("{}({} = {})".format, names, kinds, names),
    st.sampled_from(ODD_SHAPES),
)
texts = st.lists(
    st.tuples(st.one_of(canonical_lines, canonical_lines, odd_lines), st.sampled_from(BREAKS)),
    max_size=14,
).map(lambda rows: "".join(line + end for line, end in rows))


def columns_or_error(tokenise, text):
    """The tokeniser's columns as plain lists, or its error message."""
    try:
        declared, n_inputs, outputs, codes, arity, pins, gate_lines = tokenise(text)
    except BenchParseError as exc:
        return str(exc)
    return (
        list(declared.items()), n_inputs, list(outputs), list(codes),
        np.asarray(arity).tolist(), list(pins), list(map(bool, gate_lines)),
    )


def regex_parse_bench(text: str, name: str = "bench"):
    """``parse_bench`` on top of the regex tokeniser (its line lookup too)."""
    *columns, gate_names = regex_tokenise(text)

    def fail(message, gate=None):
        if gate is not None:
            line = next(islice(compress(count(1), gate_names), gate, None))
            message = f"line {line}: {message}"
        raise BenchParseError(message)

    return _build(name, *_number(*columns, fail))


def outcome(parse, text):
    try:
        return parse(text)
    except BenchParseError as exc:
        return str(exc)


class TestAgainstRegexTokeniser:
    @settings(max_examples=400, deadline=None)
    @given(texts)
    def test_same_columns_or_error(self, text):
        assert columns_or_error(_tokenise, text) == columns_or_error(regex_tokenise, text)

    @settings(max_examples=300, deadline=None)
    @given(texts)
    def test_same_netlist_or_error(self, text):
        got, expected = outcome(parse_bench, text), outcome(regex_parse_bench, text)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str), got
            assert same_netlist(got, expected)

    def test_error_line_numbers_count_odd_lines(self):
        text = "INPUT(a)\r\n\tb = AND(a)\nOUTPUT(b)\nc=and(a)\nc = OR(a, b)\n"
        assert outcome(parse_bench, text) == "line 5: signal 'c' redefined"
        text = "INPUT(a)\n# c\nb=AND(a,,a)\nOUTPUT(b)\nd = NOT(a, b)\nOUTPUT(d)\n"
        assert outcome(parse_bench, text) == outcome(regex_parse_bench, text)
        assert outcome(parse_bench, text).startswith("line 5: ")

    def test_each_odd_shape_in_a_valid_text(self):
        valid = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n"
        for odd in ODD_SHAPES:
            for text in (valid + odd + "\n", odd + "\n" + valid):
                assert columns_or_error(_tokenise, text) == columns_or_error(regex_tokenise, text), text
                got, expected = outcome(parse_bench, text), outcome(regex_parse_bench, text)
                assert got == expected if isinstance(expected, str) else same_netlist(got, expected)

    def test_pin_that_is_a_lone_surrogate(self):
        text = "INPUT(\ud800)\nOUTPUT(b)\nb = NOT(\ud800)\n"  # canonical, and not encodable as UTF-8
        assert columns_or_error(_tokenise, text) == columns_or_error(regex_tokenise, text)
        assert same_netlist(parse_bench(text), regex_parse_bench(text))

    def test_written_designs(self):
        for gates in (60, 2_000):
            text = written_text(gates)
            assert columns_or_error(_tokenise, text) == columns_or_error(regex_tokenise, text)


def written_text(gates: int, seed: int = 5) -> str:
    stream = io.StringIO()
    write_bench(generate_design(gates, seed=seed), stream)
    return stream.getvalue()


class CountingPattern:
    """Stands in for ``_LINE_RE`` and counts the lines it reads."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.lines = 0

    def findall(self, text):
        rows = self.pattern.findall(text)
        self.lines += len(rows)
        return rows


class TestWorkGate:
    """The regex reads no line of a text ``write_bench`` wrote."""

    def spy(self, monkeypatch) -> CountingPattern:
        counter = CountingPattern(bench._LINE_RE)
        monkeypatch.setattr(bench, "_LINE_RE", counter)
        return counter

    def test_written_text_reads_no_line_by_regex(self, monkeypatch):
        text = written_text(300)
        counter = self.spy(monkeypatch)
        parse_bench(text)
        assert counter.lines == 0
