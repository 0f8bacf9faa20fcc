"""Fixed witnesses, stock identity sets, draws and digraph walks that
only the tests use.

The package searches the zigzag for its witnesses; the tables here are
the ones written by hand (the median and the pair p1/p2 chaining three
congruence permutations), which the tests check against that search and
lift directly.  A digraph's walks read its out- and in-lists; the
interleaved incidence list here is what the tests check them against.
"""

from __future__ import annotations

import itertools

from cspdigraph.identities import Identity, IdentitySet, OpTable, _t, _v
from cspdigraph.lifting import _zz_table
from cspdigraph.reverse import assign_levels
from cspdigraph.structures import levelled_components


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


def incident(g, x):
    """Edges at x in edge order: (v, 1) for x -> v and (u, -1) for u -> x,
    so a loop at x gives (x, 1) and then (x, -1)."""
    out = []
    for u, v in g.edges:
        if u == x:
            out.append((v, 1))
        if v == x:
            out.append((u, -1))
    return tuple(out)


def component_levels(g, comp):
    """(levels, height) of the component comp of g: the per-vertex level
    list and the height that levelled_components writes.  An unbalanced
    component raises the Unbalanced witness of assign_levels."""
    levels, parts = levelled_components(*g.adjacency)
    (height,) = [h for c, h in parts if c[0] == comp[0]]
    if height is None:
        assign_levels(g, comp)
        raise AssertionError(f"assign_levels found no witness in {g.name!r}")
    return levels, height
