import dataclasses
import hashlib
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspdigraph import lifting
from cspdigraph.builder import build_digraph
from cspdigraph.errors import (
    ArityMismatch,
    InternalInvariantViolation,
    NotAPolymorphism,
    NotEndomorphism,
    PreconditionError,
    ShapeViolation,
    ZigzagWitnessFails,
)
from cspdigraph.identities import (
    Identity,
    IdentitySet,
    OpTable,
    Term,
    majority_identities,
    parse_identities,
    wnu_identities,
)
from cspdigraph.lifting import (
    LiftedOp,
    classify,
    in_delta,
    lift_all,
    lift_endomorphism,
    order_key,
    restrict_endomorphism,
    zigzag,
    zz_allmin,
)
from cspdigraph.rng import Lcg64
from cspdigraph.solver import (
    endomorphisms,
    enumerate_homs,
    find_operations,
    is_hom,
    is_polymorphism,
    satisfies,
)
from cspdigraph.structures import make_structure, parse_structure
from cspdigraph.verify import delta_bfs, random_single_template
from oracles import maltsev_identities, perm3_identities, zz_median, zz_p1, zz_p2

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

Z = {"00": 0, "01": 1, "10": 2, "11": 3}


def _maj_bool():
    return OpTable(
        "maj", 3, 2, tuple(sorted(t)[1] for t in itertools.product(range(2), repeat=3))
    )


def zz_meet():
    return OpTable("meet", 2, 4, tuple(map(min, itertools.product(range(4), repeat=2))))


def zz_join():
    return OpTable("join", 2, 4, tuple(map(max, itertools.product(range(4), repeat=2))))


def _xor3():
    return OpTable(
        "xor3", 3, 2,
        tuple((a + b + c) % 2 for a, b, c in itertools.product(range(2), repeat=3)),
    )


# ---------------------------------------------------------------------------
# Zigzag witnesses


def test_median_values():
    med = zz_median()
    assert med((Z["00"], Z["01"], Z["10"])) == Z["01"]
    assert med((Z["11"], Z["01"], Z["11"])) == Z["11"]


def test_p1_case_split():
    p1 = zz_p1()
    for x, y in itertools.product(range(4), repeat=2):
        assert p1((x, y, y)) == x
    assert p1((Z["01"], Z["00"], Z["11"])) == Z["01"]
    assert p1((Z["00"], Z["10"], Z["11"])) == Z["10"]


def test_p2_case_split():
    p2 = zz_p2()
    for x, y in itertools.product(range(4), repeat=2):
        assert p2((x, x, y)) == y
    assert p2((Z["00"], Z["11"], Z["00"])) == Z["00"]


def test_allmin_is_minimum():
    assert zz_allmin(3)((Z["10"], Z["11"], Z["01"])) == Z["01"]


def test_meet_join_form_a_lattice():
    meet, join = zz_meet(), zz_join()
    for x, y in itertools.product(range(4), repeat=2):
        assert meet((x, y)) == min(x, y)
        assert join((x, y)) == max(x, y)


def test_witnesses_preserve_the_degree_classes():
    for op in (zz_meet(), zz_join(), zz_median(), zz_allmin(3), zz_p1(), zz_p2()):
        assert lifting.zigzag_witness_problem(op) is None


def test_permutability_identities_hold_everywhere():
    p1, p2 = zz_p1(), zz_p2()
    for x, y in itertools.product(range(4), repeat=2):
        assert p1((x, y, y)) == x
        assert p2((x, x, y)) == y
        assert p1((x, x, y)) == p2((x, y, y))


# ---------------------------------------------------------------------------
# Orders


def _segment(meta, e, l):
    """The vertex ids of segment l of the path with coordinates e."""
    return meta.paths[e][1][l]


def _singles(meta, e):
    """The single-edge segments of the path with coordinates e."""
    return {l for l in range(1, meta.k + 1) if meta.paths[e][0] >> l & 1}


def order_less(meta, x, y, variant="ar"):
    """Strict comparison under ``order_key``; accepts vertex names or indices."""
    key = order_key(meta, variant)
    vx = meta.digraph.element_index(x) if isinstance(x, str) else x
    vy = meta.digraph.element_index(y) if isinstance(y, str) else y
    return key(vx) < key(vy)


def test_orders_are_strict_and_total(two_cycle):
    meta = build_digraph(two_cycle)
    n = len(meta.digraph.vertices)
    for variant in ("ar", "ra"):
        key = order_key(meta, variant)
        keys = [key(v) for v in range(n)]
        assert len(set(keys)) == n
        for x, y in itertools.product(range(n), repeat=2):
            assert order_less(meta, x, y, variant) == (key(x) < key(y))


def test_level_decides_across_categories(two_cycle):
    meta = build_digraph(two_cycle)
    level2 = next(v for v in range(len(meta.lvl)) if meta.lvl[v] == 2)
    assert order_less(meta, 0, level2)
    assert order_less(meta, level2, meta.tuple_vid[(0, 1)])


def test_same_path_orders_by_distance_from_the_element(two_cycle):
    meta = build_digraph(two_cycle)
    e = (0, 1, 0)  # the connecting path of element 0 and tuple (1, 0)
    assert _singles(meta, e) == {2}
    seg = _segment(meta, e, 1)  # zigzag: two level-1 vertices
    assert meta.lvl[seg[0]] == 1 and meta.lvl[seg[2]] == 1
    assert order_less(meta, seg[0], seg[2])


def test_variants_disagree_on_some_pair(two_cycle):
    meta = build_digraph(two_cycle)
    n = len(meta.digraph.vertices)
    disagree = [
        (x, y)
        for x, y in itertools.product(range(n), repeat=2)
        if order_less(meta, x, y, "ar") != order_less(meta, x, y, "ra")
    ]
    assert disagree
    x, y = disagree[0]
    assert meta.lvl[x] == meta.lvl[y]
    assert meta.coords[x] != meta.coords[y]


# ---------------------------------------------------------------------------
# The diagonal component


def test_diagonal_and_mixed_levels(two_cycle):
    meta = build_digraph(two_cycle)
    for v in range(len(meta.digraph.vertices)):
        assert in_delta(meta, (v, v))
    a = 0  # element i is vertex i
    r = meta.tuple_vid[(0, 1)]
    assert not in_delta(meta, (a, r))
    assert in_delta(meta, (0, 1))


def test_in_delta_matches_explicit_search(two_cycle, edge_template, unit_template):
    for template in (two_cycle, edge_template, unit_template):
        meta = build_digraph(template)
        oracle = delta_bfs(meta, 2)
        n = len(meta.digraph.vertices)
        for u, v in itertools.product(range(n), repeat=2):
            if meta.lvl[u] == meta.lvl[v]:
                assert in_delta(meta, (u, v)) == ((u, v) in oracle)


def test_peak_and_source_on_one_path_are_isolated(parity4):
    """Same level, same path, but no shared direction: a singleton component."""
    meta = build_digraph(parity4)
    e = (0, 0, 1, 1, 1)  # single edge only at position 1: zigzags at 2,3,4
    assert _singles(meta, e) == {1}
    seg2 = _segment(meta, e, 2)
    seg3 = _segment(meta, e, 3)
    peak = seg2[1]   # level 3, no outgoing edge
    mid = seg3[2]    # level 3, no incoming edge
    assert meta.lvl[peak] == meta.lvl[mid] == 3
    pair = (peak, mid)
    assert not in_delta(meta, pair)
    assert pair not in delta_bfs(meta, 2)


# ---------------------------------------------------------------------------
# Classification


def test_classify_cases(two_cycle):
    meta = build_digraph(two_cycle)
    maj = _maj_bool()
    a0, a1 = 0, 1
    r0 = meta.tuple_vid[(0, 1)]
    assert classify(meta, (a0, a1, a0), maj).tag == "1a"
    assert classify(meta, (r0, r0, r0), maj).tag == "1b"
    # three distinct levels
    lvl1 = next(v for v in range(len(meta.lvl)) if meta.lvl[v] == 1)
    lvl2 = next(v for v in range(len(meta.lvl)) if meta.lvl[v] == 2)
    lvl3 = next(v for v in range(len(meta.lvl)) if meta.lvl[v] == 3)
    assert classify(meta, (lvl1, lvl2, lvl3), maj).tag == "3c"
    assert classify(meta, (a0, lvl1, a0), maj).tag == "3b"


def test_classify_case2_on_one_path(two_cycle):
    meta = build_digraph(two_cycle)
    maj = _maj_bool()
    e = (0, 1, 0)
    seg = _segment(meta, e, 1)
    case = classify(meta, (seg[0], seg[2], seg[0]), maj)
    assert case.tag in ("2b", "2c")
    assert case.l == 1


def test_classify_3a_needs_two_paths_same_level(two_cycle):
    meta = build_digraph(two_cycle)
    maj = _maj_bool()
    e1, e2 = (0, 0, 1), (0, 1, 0)
    assert _singles(meta, e1) == {1}
    assert _singles(meta, e2) == {2}
    peak = _segment(meta, e2, 1)[1]  # level 2, incoming edges only
    mid = _segment(meta, e1, 2)[2]   # level 2, outgoing edges only
    tup = (peak, mid, peak)
    assert not in_delta(meta, tup)
    assert classify(meta, tup, maj).tag == "3a"


def _segment_offset(meta, v, e, l):
    """The position of v on its path e, counted from segment l's start."""
    return meta.v_pos[v] - meta.v_pos[_segment(meta, e, l)[0]]


def diagonal_oracle(op, c):
    """Cases 2a-2c computed from classify's CaseData, as the case analysis
    reads: the carriers, the target path e and the common segment l."""
    meta = op.meta
    case = classify(meta, c, op.f_a)
    assert case.tag in ("2a", "2b", "2c")
    seg = _segment(meta, case.e, case.l)
    if case.tag == "2a":
        return seg[0] if meta.lvl[seg[0]] == meta.lvl[c[0]] else seg[1]
    offsets = [
        _segment_offset(meta, v, ei, case.l) if zig else None
        for v, ei, zig in zip(c, case.paths, case.labels)
    ]
    if case.tag == "2b":
        return seg[op.f_z(tuple(offsets))]
    return op._least([seg[o] for o in offsets if o is not None])


def case_oracle(op, c):
    """Every case computed from classify's CaseData, dispatched on its tag
    as the case analysis reads; cases 2a-2c go to diagonal_oracle."""
    meta = op.meta
    case = classify(meta, c, op.f_a)
    tag = case.tag
    if tag in ("2a", "2b", "2c"):
        return diagonal_oracle(op, c)
    if tag == "1a":
        # element i is vertex i
        return op.f_a(c)
    if tag == "1b":
        na = len(meta.template.domain)
        rows = [meta.tuples[v - na] for v in c]
        return meta.tuple_vid[tuple(map(op.f_a, zip(*rows)))]
    low = op._least(c)
    if tag == "3b":
        # the least vertex overall lies on the lower level, the greatest on
        # the higher one, in either order
        labels = tuple(0 if meta.lvl[v] == meta.lvl[low] else 2 for v in c)
        if op.f_z(labels) == 0:
            return low
        return max(c, key=op._rank_star.__getitem__)
    if tag == "3a":
        labels = tuple(0 if meta.coords[v] == case.paths[0] else 2 for v in c)
        z = op.f_z(labels)
        return op._least([v for v, lab in zip(c, labels) if lab == z])
    assert tag == "3c"
    distinct = set(c)
    if len(distinct) == 2:
        # two vertices on one carrier and level, labelled like 3a so that
        # the zigzag witness decides
        if op.f_z(tuple(0 if v == low else 2 for v in c)) == 0:
            return low
        return (distinct - {low}).pop()
    return low


def test_case2c_agrees_with_zigzag_minimum(two_cycle):
    """Picking the order-least candidate equals mapping the zigzag minimum back."""
    meta = build_digraph(two_cycle)
    maj = _maj_bool()
    op = LiftedOp(meta, maj, zz_median())
    n = len(meta.digraph.vertices)
    seen = 0
    for c in itertools.product(range(n), repeat=2):
        pair = (c[0], c[1], c[0])
        case = classify(meta, pair, maj)
        if case.tag != "2c":
            continue
        seen += 1
        seg = _segment(meta, case.e, case.l)
        offsets = [
            _segment_offset(meta, v, ei, case.l) if zig else None
            for v, ei, zig in zip(pair, case.paths, case.labels)
        ]
        z_min = min(o for o in offsets if o is not None)
        assert op(pair) == seg[z_min]
    assert seen > 0


# ---------------------------------------------------------------------------
# Lifting


def _join2():
    return OpTable("join", 2, 2, tuple(max(t) for t in itertools.product(range(2), repeat=2)))


# sha256 of the comma-joined values of the lift on every tuple of V^m, in
# itertools.product order, computed with a case analysis that derived
# kinds, segments and order keys per call, so they pin the values apart
# from the per-vertex arrays; every lift below meets all eight cases
PINNED_LIFTS = {
    "majority-on-edge": (
        [(0, 1)], _maj_bool, zz_median,
        "b5e18b457ae394bc05ef28f86b1bfcd879b921f3f63235370a52dbd6b8472f01",
    ),
    "wnu-allmin-on-2cycle": (
        [(0, 1), (1, 0)], _xor3, lambda: zz_allmin(3),
        "1c99cbb41aa56f0cd4bdc8c60885f73e9e2a87b66f3c0b16d6163bdebd901c99",
    ),
    "join-meet-on-or": (
        [(0, 1), (1, 0), (1, 1)], _join2, zz_meet,
        "586cf3a2a37b53a77630a6daeaf05b9286f7e78b518347d461f50a13a67c7b0d",
    ),
    "majority-on-imp": (
        [(0, 0), (0, 1), (1, 1)], _maj_bool, zz_median,
        "0d725b97ac3ca7cc474cd3434c85ab8c791be96303cf2fb1b6e3a9a21a85fddd",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_LIFTS))
def test_lifted_values_are_pinned(name):
    tuples, f_a, f_z, digest = PINNED_LIFTS[name]
    meta = build_digraph(make_structure(name, ["0", "1"], [("R", 2, tuples)]))
    op = LiftedOp(meta, f_a(), f_z())
    every = list(itertools.product(range(len(meta.digraph.vertices)), repeat=op.arity))
    values = ",".join(str(op(c)) for c in every)
    assert hashlib.sha256(values.encode()).hexdigest() == digest
    tags = {classify(meta, c, op.f_a).tag for c in every}
    assert tags == {"1a", "1b", "2a", "2b", "2c", "3a", "3b", "3c"}


@pytest.mark.parametrize("name", sorted(PINNED_LIFTS))
def test_lifted_values_equal_the_case_analysis(name):
    """The one evaluator against classify's case analysis on every vertex
    tuple of the pinned lifts."""
    tuples, f_a, f_z, _ = PINNED_LIFTS[name]
    meta = build_digraph(make_structure(name, ["0", "1"], [("R", 2, tuples)]))
    op = LiftedOp(meta, f_a(), f_z())
    for c in itertools.product(range(op.size), repeat=op.arity):
        assert op(c) == case_oracle(op, c), c


def _no_classify(*args):
    raise AssertionError("classify called")


_LIFTED_VALUE = LiftedOp._value


def _no_one_by_one_diagonal(self, c):
    """LiftedOp._value, failing on the tuples that tabulate finishes in bulk:
    those on one interior level in the diagonal component."""
    if 0 < self.meta.lvl[c[0]] < self.meta.k + 2 and in_delta(self.meta, c):
        raise AssertionError(f"{c} evaluated one by one")
    return _LIFTED_VALUE(self, c)


def test_lifted_op_never_classifies(monkeypatch, edge_template):
    """The pinned digests, through calls and tabulate, and a whole lift
    with its checks, all with classify made to fail; tabulate and the lift
    also with _value made to fail on the tuples tabulate finishes in bulk."""
    monkeypatch.setattr(lifting, "classify", _no_classify)
    lifts = []
    for tuples, f_a, f_z, digest in PINNED_LIFTS.values():
        meta = build_digraph(make_structure("t", ["0", "1"], [("R", 2, tuples)]))
        op = LiftedOp(meta, f_a(), f_z())
        text = ",".join(map(str, map(op, itertools.product(range(op.size), repeat=op.arity))))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        lifts.append((op, digest))
    monkeypatch.setattr(LiftedOp, "_value", _no_one_by_one_diagonal)
    for op, digest in lifts:
        text = ",".join(map(str, op.tabulate(range(op.size), op.arity)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    sigma = _fixture("siggers4", "ids")
    found = find_operations(edge_template, sigma)
    report = lift_all(build_digraph(edge_template), sigma, found)
    assert report.ok, report.text()


@pytest.mark.parametrize("name", sorted(PINNED_LIFTS))
def test_tabulated_values_are_pinned(name):
    tuples, f_a, f_z, digest = PINNED_LIFTS[name]
    meta = build_digraph(make_structure(name, ["0", "1"], [("R", 2, tuples)]))
    op = LiftedOp(meta, f_a(), f_z())
    table = op.tabulate(range(len(meta.digraph.vertices)), op.arity)
    values = ",".join(map(str, table))
    assert hashlib.sha256(values.encode()).hexdigest() == digest


def _first_occurrence_patterns(m):
    """Every pattern of m argument positions whose places are numbered by
    first occurrence: (0,0,0), (0,0,1), (0,1,0), (0,1,1), (0,1,2) for m = 3."""
    patterns = [()]
    for _ in range(m):
        patterns = [p + (q,) for p in patterns for q in range(max(p, default=-1) + 2)]
    return patterns


@pytest.mark.parametrize("name", sorted(PINNED_LIFTS))
def test_tabulate_equals_the_calls_on_every_pattern(name):
    """Each place weighs the sum of its positions' weights in the flat
    indices of f_a and f_z, which a repeated place shows."""
    tuples, f_a, f_z, _ = PINNED_LIFTS[name]
    meta = build_digraph(make_structure(name, ["0", "1"], [("R", 2, tuples)]))
    op = LiftedOp(meta, f_a(), f_z())
    values = range(op.size)
    for at in _first_occurrence_patterns(op.arity):
        assert op.tabulate(values, op.arity, at) == _by_calls(op, values, at), at


def test_no_common_segment_is_an_invariant_violation(edge_template):
    """A tuple in the diagonal component whose vertices share no segment:
    both a call and tabulate raise, from the finisher they share."""
    meta = build_digraph(edge_template)
    u, v = [w for w in range(len(meta.lvl)) if meta.lvl[w] == 1 and meta.sides[w] & 1][:2]
    segs = list(meta.segs)
    segs[v] = 0
    op = LiftedOp(dataclasses.replace(meta, segs=tuple(segs)), _maj_bool(), zz_median())
    with pytest.raises(InternalInvariantViolation, match=re.escape(f"{(u, v, u)} has no common")):
        op((u, v, u))
    with pytest.raises(InternalInvariantViolation, match=re.escape(f"{(u, u, v)} has no common")):
        op.tabulate([u, v], op.arity)


# identity sets with zigzag witnesses; the template witnesses come from
# find_operations
WITNESSED = (
    (majority_identities(), {"m": zz_median()}),
    (wnu_identities(3), {"w": zz_allmin(3)}),
    (perm3_identities(), {"p1": zz_p1(), "p2": zz_p2()}),
    (parse_identities("symbol f 2\nidentity f(x,x) = x\nidentity f(x,y) = f(y,x)\n"),
     {"f": zz_meet()}),
    (parse_identities((FIXTURES / "siggers4.ids").read_text()), {"s": zz_allmin(4)}),
)
# at most this many tuples in one tabulated product
_PRODUCT_BOUND = 6000


@st.composite
def _random_template(draw):
    """A small random single-relation template."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3 if n == 2 else 2))
    row = st.tuples(*[st.integers(0, n - 1)] * k)
    rows = sorted(draw(st.sets(row, min_size=1, max_size=3)))
    return make_structure("t", [str(i) for i in range(n)], [("R", k, rows)])


@st.composite
def _random_lift(draw):
    """A lifted witness on a small random template, or None."""
    template = draw(_random_template())
    sigma, on_zigzag = draw(st.sampled_from(WITNESSED))
    found = find_operations(template, sigma)
    if found is None:
        return None
    name = draw(st.sampled_from(sorted(on_zigzag)))
    return LiftedOp(build_digraph(template), found[name], on_zigzag[name])


@st.composite
def _lift_and_values(draw):
    """A lifted witness on a small random template and a list of its
    vertices in any order, some of them repeated, so that a product meets
    a prefix state, and a source path under one prefix, more than once."""
    op = draw(_random_lift())
    if op is None:
        return None
    most = min(op.size, int(_PRODUCT_BOUND ** (1 / op.arity)))
    values = draw(st.lists(st.integers(0, op.size - 1), max_size=most))
    return op, values


@st.composite
def _pattern(draw, m):
    """An argument pattern of m positions: some places repeat, and the
    places are numbered in a random order, not only by first occurrence."""
    raw = draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=m, max_size=m))
    used = sorted(set(raw))
    renumber = dict(zip(used, draw(st.permutations(range(len(used))))))
    return tuple(renumber[p] for p in raw)


def _by_calls(op, values, at):
    places = len(set(at))
    return [
        op(tuple(env[p] for p in at))
        for env in itertools.product(values, repeat=places)
    ]


@given(_lift_and_values(), st.data())
@settings(max_examples=60, deadline=None)
def test_tabulate_equals_the_lifted_values(drawn, data):
    if drawn is None:
        return
    op, values = drawn
    expected = [op(c) for c in itertools.product(values, repeat=op.arity)]
    assert op.tabulate(values, op.arity) == expected
    at = data.draw(_pattern(op.arity))
    assert op.tabulate(values, op.arity, at) == _by_calls(op, values, at)


@st.composite
def _table_and_values(draw):
    """A random table of arity 0-4 over 1-3 values, and values to read it at."""
    size, arity = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    cells = st.lists(st.integers(0, size - 1), min_size=size**arity, max_size=size**arity)
    op = OpTable("f", arity, size, tuple(draw(cells)))
    values = draw(st.lists(st.integers(0, size - 1), max_size=4))
    return op, values, draw(_pattern(arity))


@given(_table_and_values())
@settings(max_examples=100, deadline=None)
def test_table_pattern_tabulate_equals_the_calls(drawn):
    op, values, at = drawn
    assert op.tabulate(values, op.arity, at) == _by_calls(op, values, at)


@st.composite
def _lift_and_diagonal_tuple(draw):
    """A lifted witness and a tuple on one interior level whose vertices
    all have an outgoing edge, or all an incoming one."""
    op = draw(_random_lift())
    if op is None:
        return None
    meta = op.meta
    pools = [
        pool
        for level in range(1, meta.k + 2)
        for side in (1, 2)
        if (pool := [v for v in range(op.size) if meta.lvl[v] == level and meta.sides[v] & side])
    ]
    pool = draw(st.sampled_from(pools))
    c = draw(st.lists(st.sampled_from(pool), min_size=op.arity, max_size=op.arity))
    return op, tuple(c)


@given(_lift_and_diagonal_tuple())
@settings(max_examples=100, deadline=None)
def test_diagonal_fast_path_equals_the_case_analysis(drawn):
    if drawn is None:
        return
    op, c = drawn
    assert op(c) == diagonal_oracle(op, c)


def test_tabulate_rejects_another_arity(two_cycle):
    """Another arity, or a pattern whose places are not exactly 0..P-1."""
    op = LiftedOp(build_digraph(two_cycle), _maj_bool(), zz_median())
    for table in (op, _maj_bool()):
        with pytest.raises(ArityMismatch):
            table.tabulate(range(2), 2)
        for at in ((0, 0), (0, 2, 2), (1, 1, 1)):
            with pytest.raises(ArityMismatch):
                table.tabulate(range(2), 3, at)


def test_table_rejects_arguments_out_of_range():
    f = OpTable("f", 2, 2, (0, 1, 1, 0))
    for args, bad in (((0, 2), 2), ((0, -1), -1)):
        with pytest.raises(PreconditionError, match=f"argument {bad}:"):
            f(args)
    with pytest.raises(ArityMismatch):
        f((1,))
    with pytest.raises(PreconditionError, match="argument -1:"):
        f.tabulate([0, -1], 2)


def test_lifted_op_rejects_arguments_out_of_range(edge_template):
    op = LiftedOp(build_digraph(edge_template), _maj_bool(), zz_median())
    assert op.size == 13
    for args, bad in (((-1, -1, -1), -1), ((0, 13, 0), 13)):
        with pytest.raises(PreconditionError, match=f"argument {bad}:"):
            op(args)
    with pytest.raises(ArityMismatch):
        op((0, 1))
    with pytest.raises(PreconditionError, match="argument 13:"):
        op.tabulate([0, 13], 3)


class _TableOnly:
    """An operation that can only be tabulated, never called."""

    def __init__(self, op):
        self.op, self.arity, self.size = op, op.arity, op.size

    def __call__(self, args):
        raise AssertionError("evaluated per call")

    def tabulate(self, values, m, at=None):
        return self.op.tabulate(values, m, at)


def test_full_variable_identities_read_the_table(two_cycle):
    """c(x,y,z) = c(y,z,x) has all three variables on both sides, so
    satisfies reads both from one table of the lifted operation; the
    sides of WNU-3 and majority repeat a variable, and are read from a
    table per pattern."""
    cyclic = parse_identities("symbol c 3\nidentity c(x,y,z) = c(y,z,x)\n")
    meta = build_digraph(two_cycle)
    op = LiftedOp(meta, _xor3(), zz_allmin(3))
    assert satisfies({"c": _TableOnly(op)}, cyclic, op.size)
    assert satisfies({"w": _TableOnly(op)}, wnu_identities(3), op.size)
    maj = LiftedOp(meta, _maj_bool(), zz_median())
    assert satisfies({"m": _TableOnly(maj)}, majority_identities(), maj.size)


@st.composite
def _table_and_identity(draw):
    """A random ternary table and an identity between two argument lists
    over three variables, some of them full-variable, some not."""
    n = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=n**3, max_size=n**3))
    if draw(st.booleans()):  # a symmetric table satisfies every permutation
        at = dict(zip(itertools.product(range(n), repeat=3), cells))
        cells = [at[tuple(sorted(t))] for t in itertools.product(range(n), repeat=3)]
    args = st.lists(st.sampled_from("xyz"), min_size=3, max_size=3)
    lhs, rhs = draw(args), draw(st.one_of(args, st.permutations("xyz")))
    text = f"symbol f 3\nidentity f({','.join(lhs)}) = f({','.join(rhs)})\n"
    return OpTable("f", 3, n, tuple(cells)), parse_identities(text)


@given(_table_and_identity())
@settings(max_examples=100, deadline=None)
def test_satisfies_matches_the_definition(drawn):
    op, sigma = drawn
    (ident,) = sigma.identities
    variables = sorted(ident.variables())
    expected = True
    for values in itertools.product(range(op.size), repeat=len(variables)):
        env = dict(zip(variables, values))
        lhs = op(tuple(env[v] for v in ident.lhs.args))
        rhs = op(tuple(env[v] for v in ident.rhs.args))
        expected = expected and lhs == rhs
    assert satisfies({"f": op}, sigma, op.size) == expected


CATALOGUE = ("cyclic3", "nu4", "siggers4", "jonsson2")


def _fixture(name: str, suffix: str):
    text = (FIXTURES / f"{name}.{suffix}").read_text()
    return parse_structure(text) if suffix == "rel" else parse_identities(text)


@pytest.mark.parametrize("template", ["edge", "2cycle"])
@pytest.mark.parametrize("sigma", CATALOGUE)
def test_catalogue_lifts(template, sigma):
    a, s = _fixture(template, "rel"), _fixture(sigma, "ids")
    found = find_operations(a, s)
    assert found is not None
    report = lift_all(build_digraph(a), s, found)
    assert report.ok, report.text()


# at most this many edge tuples in one random lift's polymorphism check
_EDGE_TUPLE_BOUND = 60000


@given(_random_template(), st.sampled_from(CATALOGUE))
@settings(max_examples=60, deadline=None)
def test_template_witnesses_lift(template, name):
    """Whenever the template has witnesses for a catalogue identity set,
    the lift of those witnesses is a polymorphism of the encoding that
    satisfies the set."""
    sigma = _fixture(name, "ids")
    arity = max(a for _, a in sigma.symbols)
    meta = build_digraph(template)
    if len(meta.digraph.edges) ** arity > _EDGE_TUPLE_BOUND:
        return
    found = find_operations(template, sigma)
    if found is None:
        return
    report = lift_all(meta, sigma, found)
    assert report.ok, report.text()


@pytest.mark.parametrize("sigma", ["nu4", "jonsson2"])
def test_affine_parity4_has_no_nu4_or_jonsson_witness(sigma):
    assert find_operations(_fixture("parity4", "rel"), _fixture(sigma, "ids")) is None


class _CountedPaths(dict):
    """meta.paths, logging the (prefix, source path) being finished at
    each read."""

    def __init__(self, paths, finishing):
        super().__init__(paths)
        self.finishing, self.reads = finishing, []

    def __getitem__(self, key):
        self.reads.append(self.finishing[-1])
        return super().__getitem__(key)


def test_lift_check_work_is_counted(monkeypatch, edge_template):
    """The majority lift on edge, checked by is_polymorphism: one tabulate
    per column of the edge relation, and meta.paths read at most once per
    distinct (prefix, source path) that a finished tuple has, and fewer
    times than tuples are finished.  Work done per tuple instead fails
    here."""
    meta = build_digraph(edge_template)
    finishing, prefixes = [None], []
    paths = _CountedPaths(meta.paths, finishing)
    op = LiftedOp(dataclasses.replace(meta, paths=paths), _maj_bool(), zz_median())
    paths.reads.clear()  # the constructor's own reads
    tabulate, finish = LiftedOp.tabulate, LiftedOp._diagonal_value
    tables = []

    def counted_tabulate(self, values, m, at=None):
        tables.append(list(values))
        return tabulate(self, values, m, at)

    def logged_finish(self, prefix, v):
        prefixes.append(prefix)  # alive, so that no id is reused
        finishing.append((id(prefix), self.meta.coords[v]))
        return finish(self, prefix, v)

    monkeypatch.setattr(LiftedOp, "tabulate", counted_tabulate)
    monkeypatch.setattr(LiftedOp, "_diagonal_value", logged_finish)
    assert is_polymorphism(op, meta.digraph)
    assert len(tables) == 2
    pairs = set(finishing[1:])
    assert len(set(paths.reads)) == len(paths.reads) < len(finishing) - 1
    assert pairs.issuperset(paths.reads)


def test_lift_all_reports_a_broken_lift(monkeypatch, edge_template):
    """Swapping the segment ends that case 2a returns, in the finisher that
    calls and tabulate share, must show as FAIL."""
    meta = build_digraph(edge_template)
    finish = LiftedOp._diagonal_value
    swapped = 0

    def broken(self, prefix, v):
        nonlocal swapped
        value = finish(self, prefix, v)
        c = tuple(map((*prefix.values, v).__getitem__, prefix.at))
        case = classify(self.meta, c, self.f_a)
        if case.tag != "2a":
            return value
        swapped += 1
        low, high = _segment(self.meta, case.e, case.l)
        return high if value == low else low

    monkeypatch.setattr(LiftedOp, "_diagonal_value", broken)
    report = lift_all(meta, majority_identities(), {"m": _maj_bool()})
    assert swapped > 0
    assert not report.ok
    assert report.lines[0] == "polymorphism m: FAIL (12^3 edge tuples)"


def test_lift_restricted_to_elements_is_the_original(edge_template):
    meta = build_digraph(edge_template)
    op = LiftedOp(meta, _maj_bool(), zz_median())
    for t in itertools.product(range(2), repeat=3):
        # element i is vertex i
        assert op(t) == _maj_bool()(t)


def test_lift_majority_on_single_edge_template(edge_template):
    meta = build_digraph(edge_template)
    report = lift_all(meta, majority_identities(), {"m": _maj_bool()})
    assert report.ok


@pytest.mark.parametrize(
    "tuples",
    [[(0, 1), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)]],
    ids=["or", "imp"],
)
def test_lift_majority_on_or_and_imp_templates(tuples):
    # these encodings have isolated same-level tuples with two vertices on
    # one carrier (case 3c); m(x,x,y) = x holds there only if the lifted
    # value follows the zigzag witness
    meta = build_digraph(make_structure("a", ["0", "1"], [("R", 2, tuples)]))
    report = lift_all(meta, majority_identities(), {"m": _maj_bool()})
    assert report.ok, report.text()


def test_lift_permutability_on_single_edge_template(edge_template):
    from cspdigraph.solver import find_operations

    sigma = perm3_identities()
    found = find_operations(edge_template, sigma)
    assert found is not None
    report = lift_all(meta := build_digraph(edge_template), sigma, found,
                      {"p1": zz_p1(), "p2": zz_p2()})
    assert report.ok


def test_lifted_permutability_on_parity4_satisfies_its_identities(parity4):
    # the same case-3c tuples as on OR and IMP; the full report, with its
    # 80^3 polymorphism check, is what `cspdg lift` prints for the fixtures
    from cspdigraph.solver import find_operations, satisfies

    sigma = perm3_identities()
    meta = build_digraph(parity4)
    found = find_operations(parity4, sigma)
    on_zigzag = find_operations(zigzag(), sigma)
    tables = {
        name: LiftedOp(meta, found[name], on_zigzag[name]) for name, _ in sigma.symbols
    }
    assert satisfies(tables, sigma, len(meta.digraph.vertices))


def test_lift_rejects_non_polymorphism(two_cycle):
    meta = build_digraph(two_cycle)
    const = OpTable("const", 3, 2, (0,) * 8)
    with pytest.raises(NotAPolymorphism):
        LiftedOp(meta, const, zz_median())


def test_lift_rejects_arity_mismatch(two_cycle):
    meta = build_digraph(two_cycle)
    with pytest.raises(ArityMismatch):
        LiftedOp(meta, _maj_bool(), zz_meet())


def test_lift_all_rejects_unbalanced_three_variable_identity(two_cycle):
    meta = build_digraph(two_cycle)
    bad = IdentitySet(
        (("f", 3),),
        (
            Identity(Term("f", ("x", "x", "x")), Term(None, ("x",))),
            Identity(Term("f", ("x", "y", "z")), Term(None, ("x",))),
        ),
    )
    with pytest.raises(ShapeViolation):
        lift_all(meta, bad, {"f": OpTable("f", 3, 2, tuple(t[0] for t in itertools.product(range(2), repeat=3)))})


def test_lift_all_requires_idempotency_identities(two_cycle):
    meta = build_digraph(two_cycle)
    sigma = IdentitySet(
        (("f", 2),),
        (Identity(Term("f", ("x", "y")), Term("f", ("y", "x"))),),
    )
    with pytest.raises(ShapeViolation):
        lift_all(meta, sigma, {"f": zz_meet()})


def test_lift_all_fails_on_maltsev_zigzag_side(two_cycle):
    meta = build_digraph(two_cycle)
    xor = _xor3()
    assert is_polymorphism(xor, two_cycle)
    with pytest.raises(ZigzagWitnessFails):
        lift_all(meta, maltsev_identities(), {"p": xor})


def test_lifted_wnu_smoke_on_two_cycle(two_cycle):
    meta = build_digraph(two_cycle)
    report = lift_all(meta, wnu_identities(3), {"w": _xor3()}, {"w": zz_allmin(3)})
    assert report.ok
    assert "polymorphism w: ok" in report.lines[0]


# ---------------------------------------------------------------------------
# Endomorphism transfer


def test_identity_lifts_to_identity(two_cycle):
    meta = build_digraph(two_cycle)
    lifted = lift_endomorphism(meta, {"0": "0", "1": "1"})
    assert all(v == w for v, w in lifted.items())


def test_swap_lifts_to_a_bundle_swap(two_cycle):
    meta = build_digraph(two_cycle)
    lifted = lift_endomorphism(meta, {"0": "1", "1": "0"})
    assert is_hom(meta.digraph, meta.digraph, lifted)
    assert lifted["a:0"] == "a:1"
    assert lifted["r:0,1"] == "r:1,0"
    assert set(lifted.values()) == set(meta.digraph.vertices)


def test_transfer_is_a_bijection(two_cycle):
    meta = build_digraph(two_cycle)
    small = endomorphisms(two_cycle)
    big = list(enumerate_homs(meta.digraph, meta.digraph))
    assert len(small) == len(big) == 2
    lifted = {tuple(sorted(lift_endomorphism(meta, phi).items())) for phi in small}
    assert lifted == {tuple(sorted(b.items())) for b in big}
    for phi in small:
        assert restrict_endomorphism(meta, lift_endomorphism(meta, phi)) == phi
    for big_phi in big:
        again = lift_endomorphism(meta, restrict_endomorphism(meta, big_phi))
        assert again == big_phi


def test_surjective_map_lifts_surjectively(parity4):
    meta = build_digraph(parity4)
    lifted = lift_endomorphism(meta, {"0": "0", "1": "1"})
    assert set(lifted.values()) == set(meta.digraph.vertices)


def test_non_endomorphism_rejected(two_cycle):
    meta = build_digraph(two_cycle)
    with pytest.raises(NotEndomorphism):
        lift_endomorphism(meta, {"0": "0", "1": "0"})


def test_restrict_rejects_a_non_endomorphism_of_the_digraph(two_cycle):
    meta = build_digraph(two_cycle)
    collapse = {v: "a:0" for v in meta.digraph.vertices}
    with pytest.raises(NotEndomorphism, match="does not preserve the edges"):
        restrict_endomorphism(meta, collapse)


def test_transfer_is_a_bijection_on_random_templates():
    """The unary lift sends End(A) onto End(D(A)) on seeded templates."""
    rng = Lcg64(11)
    kept = drawn = maps = 0
    while kept < 40:
        template = random_single_template(rng, max_elems=3, max_arity=3)
        drawn += 1
        meta = build_digraph(template)
        if len(meta.digraph.vertices) > 60:
            continue
        kept += 1
        lifted = {
            tuple(sorted(lift_endomorphism(meta, phi).items()))
            for phi in endomorphisms(template)
        }
        big = {tuple(sorted(b.items())) for b in enumerate_homs(meta.digraph, meta.digraph)}
        assert lifted == big, template
        maps += len(lifted)
    assert (drawn, maps) == (44, 155)


def test_lifted_endomorphisms_are_pinned(two_cycle, parity4, edge_template, unit_template):
    """Every endomorphism of the fixtures and of 300 seeded templates lifts
    to a pinned map, vertex order included; the digest was taken when the
    endomorphism lift walked the connecting paths on its own."""
    rng = Lcg64(3)
    templates = [two_cycle, parity4, edge_template, unit_template]
    templates += [random_single_template(rng, 3, 3) for _ in range(300)]
    digest = hashlib.sha256()
    maps = 0
    for template in templates:
        meta = build_digraph(template)
        for phi in endomorphisms(template):
            digest.update(repr(list(lift_endomorphism(meta, phi).items())).encode())
            maps += 1
    assert maps == 1010
    assert digest.hexdigest() == (
        "d4df26dbaff7bae349b0df1371664608097709355a66b79725a524042e8a111f"
    )
