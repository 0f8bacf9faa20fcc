"""Mutated fixture files raise package errors, never anything else."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cspdigraph.errors import CspError, NonlinearIdentity, ParseError
from cspdigraph.identities import parse_identities, parse_op_table, serialize_op_table
from cspdigraph.structures import parse_digraph, parse_structure
from oracles import zz_median

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TEXTS = [p.read_text() for p in sorted(FIXTURES.iterdir()) if p.is_file()]
TEXTS.append(serialize_op_table(zz_median()))
IDENTITY_TEXTS = [p.read_text() for p in sorted(FIXTURES.glob("*.ids"))]
PARSERS = (parse_structure, parse_digraph, parse_identities, parse_op_table)
# characters the four formats give a meaning to, and a few they do not
ALPHABET = "0123456789 -#(),=:|\n\tabfmpqrxyz_" + "é\x00"


@st.composite
def _mutated(draw, texts=TEXTS):
    lines = draw(st.sampled_from(texts)).splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines = [""]
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "edit"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            line = lines[i]
            a = draw(st.integers(0, len(line)))
            b = draw(st.integers(a, min(len(line), a + 4)))
            lines[i] = line[:a] + draw(st.text(ALPHABET, max_size=4)) + line[b:]
    return "".join(lines)


@given(_mutated())
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_package_errors(text):
    for parse in PARSERS:
        try:
            parse(text)
        except CspError:
            pass


@given(_mutated(IDENTITY_TEXTS))
@settings(max_examples=200, deadline=None)
def test_identity_file_defects_are_parse_errors(text):
    """Only a nested term, which parses but is not linear, is not a ParseError."""
    try:
        parse_identities(text)
    except NonlinearIdentity as exc:
        assert "nested" in str(exc)
    except ParseError:
        pass
