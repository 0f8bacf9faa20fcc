"""Linear identities over operation symbols, and finite operation tables.

Identity files::

    symbol <f> <arity>
    identity f(x,y,x) = x
    identity f(x,x,y) = g(y,x)

Each side of an identity is a bare variable or one symbol applied to
variables; nesting is rejected, which is exactly the linearity
restriction.  Operation table files::

    op <name> <arity> over <size>
    <i1> ... <iar> <out>

one line per input tuple, indices into the carrier 0..size-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ArityMismatch, NonlinearIdentity, ParseError, PreconditionError
from .structures import _lines


@dataclass(frozen=True)
class Term:
    """A bare variable (symbol None) or one symbol applied to variables."""

    symbol: str | None
    args: tuple[str, ...]

    def variables(self) -> frozenset[str]:
        return frozenset(self.args)

    def __str__(self) -> str:
        if self.symbol is None:
            return self.args[0]
        return f"{self.symbol}({','.join(self.args)})"


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term

    def variables(self) -> frozenset[str]:
        return self.lhs.variables() | self.rhs.variables()

    def is_balanced(self) -> bool:
        return self.lhs.variables() == self.rhs.variables()

    def var_count(self) -> int:
        return len(self.variables())

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class IdentitySet:
    symbols: tuple[tuple[str, int], ...]
    identities: tuple[Identity, ...]

    def ensure_linear(self) -> None:
        arity = dict(self.symbols)
        for ident in self.identities:
            for side in (ident.lhs, ident.rhs):
                if side.symbol is not None and side.symbol not in arity:
                    raise NonlinearIdentity(f"undeclared symbol in {ident}")
                if side.symbol is not None and len(side.args) != arity[side.symbol]:
                    raise ArityMismatch(f"wrong arity in {ident}")

    def is_idempotent(self) -> bool:
        """Each symbol must carry its explicit idempotency identity."""
        needed = set(name for name, _ in self.symbols)
        for ident in self.identities:
            for a, b in ((ident.lhs, ident.rhs), (ident.rhs, ident.lhs)):
                if (
                    a.symbol is not None
                    and b.symbol is None
                    and len(set(a.args)) == 1
                    and b.args[0] == a.args[0]
                ):
                    needed.discard(a.symbol)
        return not needed

    def liftable_shape(self) -> str | None:
        """None when usable for lifting, else a message naming the offender."""
        if not self.is_idempotent():
            return "every symbol needs an explicit idempotency identity"
        for ident in self.identities:
            if not ident.is_balanced() and ident.var_count() > 2:
                return f"identity {ident} is neither balanced nor in two variables"
        return None


def _parse_term(text: str, lineno: int | None = None) -> Term:
    text = text.strip()
    if "(" not in text:
        if not text.isidentifier():
            raise ParseError(f"bad term {text!r}", lineno)
        return Term(None, (text,))
    if not text.endswith(")"):
        raise ParseError(f"bad term {text!r}", lineno)
    head, inner = text[:-1].split("(", 1)
    if "(" in inner or ")" in inner:
        raise NonlinearIdentity(f"nested term {text!r} is not linear")
    args = tuple(a.strip() for a in inner.split(","))
    if not head.isidentifier() or not all(a.isidentifier() for a in args):
        raise ParseError(f"bad term {text!r}", lineno)
    return Term(head, args)


def parse_identities(text: str) -> IdentitySet:
    """Parse an identity file; a symbol that is undeclared or used at the
    wrong arity is a ParseError on the line that uses it."""
    symbols: list[tuple[str, int]] = []
    identities: list[Identity] = []
    at_line: list[int] = []
    for lineno, body in _lines(text):
        toks = body.split(None, 1)
        if toks[0] == "symbol":
            parts = body.split()
            if len(parts) != 3:
                raise ParseError("expected 'symbol <name> <arity>'", lineno)
            try:
                arity = int(parts[2])
            except ValueError:
                raise ParseError(f"bad arity {parts[2]!r}", lineno) from None
            if arity < 0:
                raise ParseError("arity must be >= 0", lineno)
            if any(name == parts[1] for name, _ in symbols):
                raise ParseError(f"symbol {parts[1]!r} declared twice", lineno)
            symbols.append((parts[1], arity))
        elif toks[0] == "identity":
            if len(toks) != 2 or "=" not in toks[1]:
                raise ParseError("expected 'identity <lhs> = <rhs>'", lineno)
            lhs, rhs = toks[1].split("=", 1)
            identities.append(Identity(_parse_term(lhs, lineno), _parse_term(rhs, lineno)))
            at_line.append(lineno)
        else:
            raise ParseError(f"unknown keyword {toks[0]!r}", lineno)
    declared = dict(symbols)
    for ident, lineno in zip(identities, at_line):
        for side in (ident.lhs, ident.rhs):
            if side.symbol is None:
                continue
            if side.symbol not in declared:
                raise ParseError(f"undeclared symbol {side.symbol!r}", lineno)
            if len(side.args) != declared[side.symbol]:
                raise ParseError(
                    f"{side.symbol!r} is declared with arity {declared[side.symbol]}, "
                    f"used with arity {len(side.args)}",
                    lineno,
                )
    return IdentitySet(tuple(symbols), tuple(identities))


def serialize_identities(sigma: IdentitySet) -> str:
    lines = [f"symbol {name} {arity}" for name, arity in sigma.symbols]
    lines += [f"identity {ident}" for ident in sigma.identities]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Operation tables


@dataclass(frozen=True)
class OpTable:
    """A total finite operation, indexed lexicographically by input tuple."""

    name: str
    arity: int
    size: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.size**self.arity:
            raise ArityMismatch(
                f"table {self.name!r} needs {self.size ** self.arity} entries"
            )
        if any(v < 0 or v >= self.size for v in self.values):
            raise ParseError(f"table {self.name!r} has out-of-range values")

    def __call__(self, args: tuple[int, ...]) -> int:
        """The value at args: arity indices in 0..size-1 (see check_arguments)."""
        check_arguments(self, args)
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.values[idx]

    def tabulate(self, values, m: int, at=None) -> list[int]:
        """[self(tuple(env[p] for p in at)) for env in product(values, repeat=P)]

        for the pattern at, which gives each of the m argument positions
        its place among 0..P-1 (see argument_pattern).  Each place adds
        its values times its weight in the flat index, so no argument
        tuple is built.
        """
        at, places = argument_pattern(self, m, at)
        values = list(values)
        check_values(self, values)
        weight = [0] * places
        for i, p in enumerate(at):
            weight[p] += self.size ** (m - 1 - i)
        offsets = [0]
        for w in weight:
            offsets = [o + v * w for o in offsets for v in values]
        return list(map(self.values.__getitem__, offsets))

    def is_idempotent(self) -> bool:
        return all(self((x,) * self.arity) == x for x in range(self.size))


def check_arguments(op, args) -> None:
    """Raise unless args are op.arity values in 0..op.size-1."""
    if len(args) != op.arity:
        raise ArityMismatch(f"{op.name!r} takes {op.arity} arguments, not {len(args)}")
    check_values(op, args)


def check_values(op, values) -> None:
    """Raise PreconditionError at the first value outside 0..op.size-1."""
    for a in values:
        if not 0 <= a < op.size:
            raise PreconditionError(f"{op.name!r} has no argument {a}: it is over 0..{op.size - 1}")


def argument_pattern(op, m: int, at=None) -> tuple[tuple[int, ...], int]:
    """The pattern at (by default range(m)) of an m-ary op, and its number
    of places P: at lists each argument position's place, and the places
    are exactly 0..P-1.  f(x,x,y) has the pattern (0,0,1), f(x,y,x) the
    pattern (0,1,0).
    """
    if m != op.arity:
        raise ArityMismatch(f"{op.name!r} is {op.arity}-ary, not {m}-ary")
    at = tuple(range(m)) if at is None else tuple(at)
    places = len(set(at))
    if len(at) != m or set(at) != set(range(places)):
        raise ArityMismatch(f"{at} does not give {m} arguments the places 0..P-1")
    return at, places


def parse_op_table(text: str) -> OpTable:
    name = None
    arity = size = 0
    rows: dict[tuple[int, ...], int] = {}
    for lineno, body in _lines(text):
        toks = body.split()
        if toks[0] == "op":
            if name is not None:
                raise ParseError("second 'op' header in one table file", lineno)
            if len(toks) != 5 or toks[3] != "over":
                raise ParseError("expected 'op <name> <arity> over <size>'", lineno)
            try:
                name, arity, size = toks[1], int(toks[2]), int(toks[4])
            except ValueError:
                raise ParseError("arity and size must be integers", lineno) from None
            if arity < 0 or size < 1:
                raise ParseError("arity must be >= 0 and size >= 1", lineno)
        else:
            if name is None:
                raise ParseError("table row before 'op' header", lineno)
            if len(toks) != arity + 1:
                raise ParseError(f"expected {arity} inputs and one output", lineno)
            try:
                nums = [int(t) for t in toks]
            except ValueError:
                raise ParseError("table entries must be integers", lineno) from None
            args = tuple(nums[:-1])
            if any(a < 0 or a >= size for a in args):
                raise ParseError(f"row {args} out of range for size {size}", lineno)
            if args in rows:
                raise ParseError(f"second row for {args}", lineno)
            if not 0 <= nums[-1] < size:
                raise ParseError(f"output {nums[-1]} out of range for size {size}", lineno)
            rows[args] = nums[-1]
    if name is None:
        raise ParseError("missing 'op' header")
    values = []
    for args in itertools.product(range(size), repeat=arity):
        if args not in rows:
            raise ParseError(f"table {name!r} is missing row {args}")
        values.append(rows[args])
    return OpTable(name, arity, size, tuple(values))


def serialize_op_table(op: OpTable) -> str:
    lines = [f"op {op.name} {op.arity} over {op.size}"]
    for args in itertools.product(range(op.size), repeat=op.arity):
        lines.append(" ".join(map(str, args)) + f" {op(args)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stock identity sets


def _t(sym, *args):
    return Term(sym, tuple(args))


def _v(x):
    return Term(None, (x,))


def majority_identities() -> IdentitySet:
    m = "m"
    return IdentitySet(
        ((m, 3),),
        (
            Identity(_t(m, "x", "x", "x"), _v("x")),
            Identity(_t(m, "x", "x", "y"), _v("x")),
            Identity(_t(m, "x", "y", "x"), _v("x")),
            Identity(_t(m, "y", "x", "x"), _v("x")),
        ),
    )


def maltsev_identities() -> IdentitySet:
    return IdentitySet(
        (("p", 3),),
        (
            Identity(_t("p", "x", "x", "x"), _v("x")),
            Identity(_t("p", "y", "x", "x"), _v("y")),
            Identity(_t("p", "x", "x", "y"), _v("y")),
        ),
    )


def wnu_identities(arity: int) -> IdentitySet:
    """Weak near-unanimity: all one-y rotations agree, idempotently."""
    w = "w"
    idents = [Identity(_t(w, *["x"] * arity), _v("x"))]
    patterns = []
    for pos in range(arity):
        args = ["x"] * arity
        args[pos] = "y"
        patterns.append(_t(w, *args))
    for a, b in zip(patterns, patterns[1:]):
        idents.append(Identity(a, b))
    return IdentitySet(((w, arity),), tuple(idents))


def perm3_identities() -> IdentitySet:
    """Two ternary witnesses chaining three congruence permutations."""
    return IdentitySet(
        (("p1", 3), ("p2", 3)),
        (
            Identity(_t("p1", "x", "x", "x"), _v("x")),
            Identity(_t("p2", "x", "x", "x"), _v("x")),
            Identity(_t("p1", "x", "y", "y"), _v("x")),
            Identity(_t("p2", "x", "x", "y"), _v("y")),
            Identity(_t("p1", "x", "x", "y"), _t("p2", "x", "y", "y")),
        ),
    )


def tsi_identities(arity: int) -> IdentitySet:
    """Totally symmetric idempotent: equal variable sets give equal values."""
    f = "t"
    idents = [Identity(_t(f, *["x"] * arity), _v("x"))]
    for support in range(2, arity + 1):
        names = [f"x{i}" for i in range(support)]
        patterns = [
            _t(f, *(names[i] for i in assignment))
            for assignment in itertools.product(range(support), repeat=arity)
            if set(assignment) == set(range(support))
        ]
        for a, b in zip(patterns, patterns[1:]):
            idents.append(Identity(a, b))
    return IdentitySet(((f, arity),), tuple(idents))
