import pytest

from cspdigraph.errors import NonlinearIdentity, ParseError
from cspdigraph.identities import (
    OpTable,
    majority_identities,
    parse_identities,
    parse_op_table,
    serialize_op_table,
    wnu_identities,
)
from oracles import serialize_identities, tsi_identities

SIGMA_TEXT = """\
# a two-symbol set
symbol f 3
symbol g 2
identity f(x,y,x) = x
identity f(x,x,y) = g(y,x)
"""


def test_parse_identities():
    sigma = parse_identities(SIGMA_TEXT)
    assert sigma.symbols == (("f", 3), ("g", 2))
    assert str(sigma.identities[0]) == "f(x,y,x) = x"
    assert sigma.identities[0].var_count() == 2
    assert not sigma.identities[0].is_balanced()
    assert sigma.identities[1].is_balanced()


def test_identities_round_trip():
    sigma = parse_identities(SIGMA_TEXT)
    assert parse_identities(serialize_identities(sigma)) == sigma


def test_nested_terms_are_nonlinear():
    with pytest.raises(NonlinearIdentity):
        parse_identities("symbol f 1\nidentity f(f(x)) = x\n")


def test_declared_arity_enforced():
    with pytest.raises(Exception, match="arity"):
        parse_identities("symbol f 2\nidentity f(x) = x\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("symbol w 3\nidentity w(x,x,x) = q(x)\n", "line 2: undeclared symbol 'q'"),
        ("symbol w 3\n\nidentity w(x,x) = x\n", "line 3: 'w' is declared with arity 3"),
        # a symbol may be declared after the identity that uses it
        ("identity w(x,x) = x\nsymbol w 3\n", "line 1: 'w' is declared with arity 3"),
    ],
    ids=["undeclared", "wrong-arity", "declared-later"],
)
def test_symbol_mislabels_are_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_identities(text)


def test_symbol_declared_after_its_use_is_accepted():
    sigma = parse_identities("identity f(x,x) = x\nsymbol f 2\n")
    assert sigma.symbols == (("f", 2),)


def test_negative_symbol_arity_is_a_parse_error():
    with pytest.raises(ParseError, match="line 2: arity must be >= 0"):
        parse_identities("symbol g 0\nsymbol f -1\n")


def test_idempotency_detection():
    assert majority_identities().is_idempotent()
    assert wnu_identities(3).is_idempotent()
    partial = parse_identities("symbol f 2\nidentity f(x,y) = f(y,x)\n")
    assert not partial.is_idempotent()


def test_liftable_shape_messages():
    assert majority_identities().liftable_shape() is None
    three_var = parse_identities(
        "symbol f 3\nidentity f(x,x,x) = x\nidentity f(x,y,z) = x\n"
    )
    assert "balanced" in three_var.liftable_shape()


def test_tsi_identities_are_balanced():
    sigma = tsi_identities(3)
    assert all(i.is_balanced() or i.var_count() == 1 for i in sigma.identities)


def test_op_table_round_trip():
    op = OpTable("f", 2, 3, tuple(min(a, b) for a in range(3) for b in range(3)))
    assert parse_op_table(serialize_op_table(op)) == op


def test_op_table_missing_row():
    with pytest.raises(ParseError, match="missing row"):
        parse_op_table("op f 1 over 2\n0 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("op m 1 over 2\n0 1\n0 0\n1 1\n", "line 3: second row for \\(0,\\)"),
        ("op m 1 over 2\n0 1\n1 1\n7 0\n", "line 4: row \\(7,\\) out of range"),
        ("op m 2 over 2\n0 -1 0\n", "line 2: row \\(0, -1\\) out of range"),
        ("op m 1 over 2\n0 0\n1 1\nop m 1 over 3\n2 2\n", "line 4: second 'op' header"),
        ("op m 1 over 2\n0 5\n1 1\n", "line 2: output 5 out of range for size 2"),
        ("op m 1 over 2\n0 0\n1 -1\n", "line 3: output -1 out of range"),
    ],
    ids=["repeated", "too-large", "negative", "second-header", "output-too-large",
         "output-negative"],
)
def test_op_table_bad_rows_are_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_op_table(text)


def test_second_symbol_declaration_is_a_parse_error():
    with pytest.raises(ParseError, match="line 3: symbol 'm' declared twice"):
        parse_identities("symbol m 3\nidentity m(x,x,x) = x\nsymbol m 3\n")


def test_op_table_is_idempotent():
    op = OpTable("f", 2, 2, (0, 0, 0, 1))
    assert op.is_idempotent()
    assert not OpTable("g", 1, 2, (0, 0)).is_idempotent()
