"""Fixed witnesses, stock identity sets and draws that only the tests use.

The package searches the zigzag for its witnesses; the tables here are
the ones written by hand (the median and the pair p1/p2 chaining three
congruence permutations), which the tests check against that search and
lift directly.
"""

from __future__ import annotations

import itertools

from cspdigraph.identities import Identity, IdentitySet, OpTable, _t, _v
from cspdigraph.lifting import _zz_table


def zz_median() -> OpTable:
    return _zz_table("median", 3, lambda a: sorted(a)[1])


def _p1(a):
    x, y, z = a
    if y != z and 1 in a:
        return 1
    if y != z and 2 in a:
        return 2
    return x


def _p2(a):
    x, y, z = a
    if x != y and 1 in a:
        return 1
    if x != y and 2 in a:
        return 2
    if x == y:
        return z
    return x


def zz_p1() -> OpTable:
    return _zz_table("p1", 3, _p1)


def zz_p2() -> OpTable:
    return _zz_table("p2", 3, _p2)


def maltsev_identities() -> IdentitySet:
    return IdentitySet(
        (("p", 3),),
        (
            Identity(_t("p", "x", "x", "x"), _v("x")),
            Identity(_t("p", "y", "x", "x"), _v("y")),
            Identity(_t("p", "x", "x", "y"), _v("y")),
        ),
    )


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


def serialize_identities(sigma: IdentitySet) -> str:
    lines = [f"symbol {name} {arity}" for name, arity in sigma.symbols]
    lines += [f"identity {ident}" for ident in sigma.identities]
    return "\n".join(lines) + "\n"


def choice(rng, seq):
    """One element of seq, drawn with an Lcg64."""
    return seq[rng.below(len(seq))]
