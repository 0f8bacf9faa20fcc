import hashlib
import itertools
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cspdigraph import solver
from cspdigraph.builder import build_digraph, build_path, path_spec
from cspdigraph.errors import (
    NonemptyRelationRequired,
    ParseError,
    PreconditionError,
    SignatureMismatch,
)
from cspdigraph.forward import forward_instance
from cspdigraph.identities import (
    OpTable,
    majority_identities,
    parse_identities,
    serialize_op_table,
    wnu_identities,
)
from cspdigraph.lifting import zigzag
from cspdigraph.rng import Lcg64
from cspdigraph.solver import (
    WITNESS_SEARCH_BOUND,
    core_of,
    endomorphisms,
    enumerate_homs,
    find_hom,
    find_operations,
    interpretable_at_levels,
    is_core,
    is_hom,
    is_polymorphism,
    satisfies,
)
from cspdigraph.structures import (
    Digraph,
    Relation,
    RelStructure,
    make_digraph,
    make_structure,
    parse_digraph,
    parse_structure,
)
from cspdigraph.verify import (
    random_instance_for,
    random_multi_template,
    random_single_template,
)
from oracles import maltsev_identities, perm3_identities, tsi_identities, zz_median, zz_p1, zz_p2

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def brute_force_exists(x, a):
    """The raw oracle: try every map of the source into the target."""
    n, m = len(x.domain), len(a.domain)
    for vals in itertools.product(range(m), repeat=n):
        ok = True
        for rel in x.relations:
            allowed = set(a.relation(rel.name).tuples)
            if any(tuple(vals[i] for i in t) not in allowed for t in rel.tuples):
                ok = False
                break
        if ok:
            return True
    return False


def test_identity_hom_found(two_cycle):
    hom = find_hom(two_cycle, two_cycle)
    assert hom is not None
    assert is_hom(two_cycle, two_cycle, hom)


def test_three_cycle_into_two_cycle_has_no_hom(two_cycle):
    tri = make_structure(
        "tri", ["a", "b", "c"], [("R", 2, [(0, 1), (1, 2), (2, 0)])], role="instance"
    )
    assert brute_force_exists(tri, two_cycle) is False
    assert find_hom(tri, two_cycle) is None


def test_path_observation_examples():
    q1 = build_path(path_spec(2, [1]))
    assert find_hom(q1, build_path(path_spec(2, []))) is None
    homs = list(enumerate_homs(q1, build_path(path_spec(2, [1, 2]))))
    assert len(homs) == 1
    assert set(homs[0].values()) == set(build_path(path_spec(2, [1, 2])).vertices)


def test_two_cycle_endomorphisms(two_cycle):
    endos = endomorphisms(two_cycle)
    assert endos == [{"0": "0", "1": "1"}, {"0": "1", "1": "0"}]


def test_single_vertex_into_zigzag_has_four_homs():
    dot = make_digraph("dot", ["v"], [])
    assert len(list(enumerate_homs(dot, zigzag()))) == 4


def test_all_zigzag_path_self_homs_k1():
    q = build_path(path_spec(1, []))
    assert len(list(enumerate_homs(q, q))) == 1


def test_signature_mismatch_raises(two_cycle):
    other = make_structure("o", ["0"], [("S", 1, [(0,)])], role="instance")
    with pytest.raises(SignatureMismatch):
        find_hom(other, two_cycle)


def test_restriction_narrows_solutions(two_cycle):
    homs = list(enumerate_homs(two_cycle, two_cycle, {"0": ["1"]}))
    assert homs == [{"0": "1", "1": "0"}]


def test_empty_restriction_set_means_no(two_cycle):
    assert find_hom(two_cycle, two_cycle, {"0": []}) is None


def test_search_agrees_with_brute_force_and_itself():
    """Completeness and soundness against brute force."""
    rng = Lcg64(29)
    for _ in range(150):
        a = random_single_template(rng, max_elems=5, max_arity=2)
        x = random_instance_for(rng, a, max_elems=5)
        want = brute_force_exists(x, a)
        assert (find_hom(x, a) is not None) == want


def test_enumeration_is_complete_and_duplicate_free():
    rng = Lcg64(31)
    for _ in range(30):
        a = random_single_template(rng, max_elems=3, max_arity=2)
        x = random_instance_for(rng, a, max_elems=3)
        homs = [tuple(sorted(h.items())) for h in enumerate_homs(x, a)]
        assert len(homs) == len(set(homs))
        n, m = len(x.domain), len(a.domain)
        count = 0
        for vals in itertools.product(range(m), repeat=n):
            mapping = {x.domain[i]: a.domain[v] for i, v in enumerate(vals)}
            if is_hom(x, a, mapping):
                count += 1
        assert len(homs) == count


def test_deep_search_does_not_recurse():
    # 5000 unconstrained elements: one branching level each
    n = 5000
    x = make_structure(
        "wide", [f"v{i}" for i in range(n)], [("R", 2, [])], role="instance"
    )
    a = make_structure("edge", ["0", "1"], [("R", 2, [(0, 1)])])
    hom = find_hom(x, a)
    assert hom == {f"v{i}": "0" for i in range(n)}


def scan_search(x, a, restriction=None):
    """The reference search: every constraint revised by a scan of the
    target tuples, to the fixpoint, under the solver's branching rule
    (smallest domain, ties to higher degree, then lower index; values in
    target order).  Recursive and slow, for small inputs."""
    n = len(x.domain)
    doms = [set(range(len(a.domain))) for _ in range(n)]
    for name, allowed in (restriction or {}).items():
        doms[x.element_index(name)] = {a.element_index(e) for e in allowed}
    constraints = [
        (scope, a.relation(rel.name).tuples) for rel in x.relations for scope in rel.tuples
    ]
    degree = [sum(v in scope for scope, _ in constraints) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-degree[v], v))

    def consistent(doms):
        changed = True
        while changed and all(doms):
            changed = False
            for scope, tuples in constraints:
                live = [t for t in tuples if all(b in doms[v] for v, b in zip(scope, t))]
                for i, v in enumerate(scope):
                    keep = doms[v] & {t[i] for t in live}
                    if keep != doms[v]:
                        doms[v] = keep
                        changed = True
        return all(doms)

    def dfs(doms):
        if not consistent(doms):
            return
        unfixed = [v for v in order if len(doms[v]) > 1]
        if not unfixed:
            yield {x.domain[v]: a.domain[min(d)] for v, d in enumerate(doms)}
            return
        var = min(unfixed, key=lambda v: len(doms[v]))
        for b in sorted(doms[var]):
            yield from dfs([{b} if v == var else set(d) for v, d in enumerate(doms)])

    yield from dfs(doms)


@st.composite
def _template_and_instance(draw):
    """A template with a binary and a ternary relation, an instance, and a
    restriction.

    Instance rows draw from few elements, so scopes with a repeated
    variable such as (u, u) or (u, v, u) are common; a restricted element
    may get any subset of the template's, the empty one included.
    """
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))

    def rows(size, arity, min_size, max_size):
        row = st.tuples(*[st.integers(0, size - 1)] * arity)
        return draw(st.lists(row, min_size=min_size, max_size=max_size))

    a = make_structure(
        "a",
        [str(i) for i in range(m)],
        [("B", 2, rows(m, 2, 1, 10)), ("T", 3, rows(m, 3, 1, 8))],
    )
    x = make_structure(
        "x",
        [f"v{i}" for i in range(n)],
        [("B", 2, rows(n, 2, 0, 8)), ("T", 3, rows(n, 3, 0, 3))],
        role="instance",
    )
    restriction = draw(
        st.dictionaries(
            st.sampled_from(x.domain),
            st.lists(st.sampled_from(a.domain), unique=True, max_size=m),
            max_size=2,
        )
    )
    return x, a, restriction


# (u, u) into B = {(0, 1), (1, 2)}: one revise leaves u = {1}, and only a
# second, after its own pruning, finds that (1, 1) is no tuple
_LOOP_ON_A_CHAIN = (
    make_structure("x", ["u"], [("B", 2, [(0, 0)]), ("T", 3, [])], role="instance"),
    make_structure("a", ["0", "1", "2"], [("B", 2, [(0, 1), (1, 2)]), ("T", 3, [(0, 0, 0)])]),
    {},
)

# T prunes v0 to {0} and v1 to {1}; only the arcs of B, from the
# variables T pruned, find that (0, 1) is no tuple of B
_SCAN_THEN_ARC = (
    make_structure(
        "x", ["v0", "v1"], [("B", 2, [(0, 1)]), ("T", 3, [(0, 1, 1)])], role="instance"
    ),
    make_structure("a", ["0", "1"], [("B", 2, [(0, 0), (1, 1)]), ("T", 3, [(0, 1, 1)])]),
    {},
)

# (v0, v1) into a 2-cycle on 0, 1 beside an isolated 2: both domains drop
# to {0, 1}, v0's through the in-masks, so v0 is branched on first
_BOTH_ENDS = (
    make_structure("x", ["v0", "v1"], [("B", 2, [(0, 1)]), ("T", 3, [])], role="instance"),
    make_structure("a", ["0", "1", "2"], [("B", 2, [(0, 1), (1, 0)]), ("T", 3, [(0, 0, 0)])]),
    {},
)


@given(_template_and_instance())
@example(_LOOP_ON_A_CHAIN)
@example(_SCAN_THEN_ARC)
@example(_BOTH_ENDS)
@settings(max_examples=200, deadline=None)
def test_neighbour_masks_keep_the_tuple_scan_order(case):
    """The solver's arcs and scanned constraints give the homomorphisms of
    the tuple scan alone, in the same order."""
    x, a, restriction = case
    homs = list(enumerate_homs(x, a, restriction))
    assert homs == list(scan_search(x, a, restriction))
    # and they are exactly the maps that pass the raw definition
    every = (
        {x.domain[i]: a.domain[v] for i, v in enumerate(vals)}
        for vals in itertools.product(range(len(a.domain)), repeat=len(x.domain))
    )
    brute = [
        h
        for h in every
        if is_hom(x, a, h) and all(h[v] in ok for v, ok in restriction.items())
    ]
    assert sorted(sorted(h.items()) for h in homs) == sorted(
        sorted(h.items()) for h in brute
    )


def _random_digraph(rng, name, n):
    """A digraph on n vertices, each ordered pair an edge with chance 1/3,
    loops included; (0, n-1) stands in for no edge at all, as a template
    relation may not be empty."""
    edges = [(u, v) for u in range(n) for v in range(n) if rng.chance(1, 3)]
    return make_digraph(name, [f"{name}{i}" for i in range(n)], edges or [(0, n - 1)])


def _random_restriction(rng, x, a):
    """Now and then nothing; else a few source elements, each allowed a
    random subset of the target's, the empty one included."""
    if rng.chance(1, 3):
        return None
    return {
        x.domain[rng.below(len(x.domain))]: [b for b in a.domain if rng.chance(1, 2)]
        for _ in range(rng.randint(1, 3))
    }


def test_find_hom_is_the_first_enumerated_hom():
    """find_hom's docstring: it gives what enumerate_homs gives first, and
    None where that gives nothing; both agree with the tuple scan."""
    rng = Lcg64(47)
    pairs = []
    for i in range(60):
        x = _random_digraph(rng, "x", rng.randint(1, 6))
        a = _random_digraph(rng, "a", rng.randint(1, 4))
        pairs.append((x, a))
        t = (random_single_template if i % 2 == 0 else random_multi_template)(rng)
        pairs.append((random_instance_for(rng, t, max_elems=5), t))
    found = 0
    for x, a in pairs:
        r = _random_restriction(rng, x, a)
        first = next(enumerate_homs(x, a, r), None)
        assert find_hom(x, a, r) == first
        assert first == next(scan_search(x, a, r), None)
        found += first is not None
    assert 30 <= found <= 90


def _rebuilt(t):
    """t with its relations built anew, so nothing prepared for t's
    relations is reused by a search into it."""
    if isinstance(t, Digraph):
        return Digraph(t.name, t.vertices, t.edges)
    rels = [(r.name, r.arity, r.tuples) for r in t.relations]
    return make_structure(t.name, t.domain, rels, role=t.role)


def test_searches_into_a_shared_target_match_fresh_targets(monkeypatch):
    """Every search into a target reuses its prepared tuple set, neighbour
    masks and memos.  Enumerations advanced in turn, with find_hom calls
    in between, into shared targets (two digraphs on as many vertices and
    a structure), and with every memo cleared after four entries, give
    what searches into freshly built copies give, and what the tuple scan
    gives."""
    monkeypatch.setattr(solver, "_MEMO_LIMIT", 4)
    rng = Lcg64(73)
    shared = [
        _random_digraph(rng, "a", 5),
        _random_digraph(rng, "b", 5),
        random_multi_template(rng, max_elems=4),
    ]
    jobs = []
    for i in range(60):
        t = shared[i % 3]
        if t.signature() == (("E", 2),):
            x = _random_digraph(rng, "x", rng.randint(1, 7))
        else:
            x = random_instance_for(rng, t, max_elems=5)
        jobs.append((x, t, _random_restriction(rng, x, t)))
    homs = [enumerate_homs(*job) for job in jobs]
    got: list[list] = [[] for _ in jobs]
    firsts = []
    live = list(range(len(jobs)))
    while live:
        for j in list(live):
            hom = next(homs[j], None)
            if hom is None or len(got[j]) == 30:
                live.remove(j)
            else:
                got[j].append(hom)
            firsts.append((j, find_hom(*jobs[(5 * j + len(firsts)) % len(jobs)])))
    for j, (x, t, r) in enumerate(jobs):
        assert got[j] == list(itertools.islice(enumerate_homs(x, _rebuilt(t), r), 30))
        assert got[j] == list(itertools.islice(scan_search(x, t, r), 30))
    for i, (j, first) in enumerate(firsts):
        x, t, r = jobs[(5 * j + i) % len(jobs)]
        assert first == next(enumerate_homs(x, _rebuilt(t), r), None)
    assert sum(map(bool, got)) >= 20
    assert [list(t.relations[0].prepared) for t in shared[:2]] == [[5], [5]]


def _structure_copy(g, role):
    """The oracle for the direct digraph search: g copied into the
    structure with one binary relation E over its vertices."""
    return make_structure(g.name, g.vertices, [("E", 2, g.edges)], role=role)


def test_digraphs_search_as_their_structure_copies():
    """Every solver entry gives on a digraph what it gives on its structure
    copy.  Each digraph is also searched against the other side's copy,
    so a digraph read any other way than as E over its edges shows."""
    rng = Lcg64(61)
    found = shrunk = 0
    for _ in range(60):
        x = _random_digraph(rng, "x", rng.randint(1, 6))
        a = _random_digraph(rng, "a", rng.randint(1, 4))
        xs, at = _structure_copy(x, "instance"), _structure_copy(a, "template")
        r = _random_restriction(rng, x, a)
        first = find_hom(xs, at, r)
        homs = list(itertools.islice(enumerate_homs(xs, at, r), 30))
        for source, target in ((x, a), (x, at), (xs, a)):
            assert find_hom(source, target, r) == first
            assert list(itertools.islice(enumerate_homs(source, target, r), 30)) == homs
            assert all(is_hom(source, target, h) for h in homs)
        assert is_core(a) == is_core(at)
        core, core_copy = core_of(a), core_of(at)
        assert isinstance(core, Digraph)
        assert (core.vertices, core.edges) == (core_copy.domain, core_copy.relations[0].tuples)
        tables = find_operations(a, majority_identities())
        assert tables == find_operations(at, majority_identities())
        n = len(a.vertices)
        ops = [OpTable("r", 3, n, tuple(rng.below(n) for _ in range(n**3)))]
        ops += tables.values() if tables else []
        for op in ops:
            assert is_polymorphism(op, a) == is_polymorphism(op, at)
        found += first is not None
        shrunk += len(core.vertices) < n
    assert 15 <= found <= 50 and shrunk >= 10


@st.composite
def _levelled_digraph(draw, name, max_parts=3):
    """A digraph of a few components, its vertex ids shuffled: balanced
    ones built by levels, each edge from a level l to l + 1, of heights
    0 to 4; now and then one with a directed 2- or 3-cycle on top, or
    with a loop."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(1, max_parts))):
        height = draw(st.integers(0, 4))
        levels = draw(st.lists(st.integers(0, height), min_size=1, max_size=6))
        vs = list(range(n, n + len(levels)))
        ups = [(u, v) for u in vs for v in vs if levels[v - n] == levels[u - n] + 1]
        edges += draw(st.lists(st.sampled_from(ups), unique=True)) if ups else []
        kind = draw(st.sampled_from(["balanced"] * 4 + ["cycle", "loop"]))
        if kind == "cycle" and len(levels) >= 2:
            ring = vs[: draw(st.integers(2, min(3, len(levels))))]
            edges += zip(ring, ring[1:] + ring[:1])
        elif kind == "loop":
            u = draw(st.sampled_from(vs))
            edges.append((u, u))
        n += len(levels)
    perm = draw(st.permutations(range(n)))
    renamed = [(perm[u], perm[v]) for u, v in edges] or [(0, 0)]
    return make_digraph(name, [f"{name}{i}" for i in range(n)], renamed)


def _root_fixpoint(x, a, restriction):
    """The domains after the root's arc consistency, None on a wipeout:
    what the search holds when it first goes depth-first."""
    roots = []

    def record(search):
        roots.append(list(search.domains))
        return iter(())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver._Search, "_dfs", record)
        assert list(enumerate_homs(x, a, restriction)) == []
    return roots[0] if roots else None


@given(_levelled_digraph("x"), _levelled_digraph("a"), st.data())
@settings(max_examples=300, deadline=None)
def test_level_windows_change_no_answer(x, a, data):
    """A digraph into a digraph starts from level windows, a structure
    copy without them.  Both give the same first map, the same first 30
    maps, the same cores and the same domains after the root's arc
    consistency, with a restriction or without."""
    restriction = data.draw(
        st.dictionaries(
            st.sampled_from(x.vertices),
            st.lists(st.sampled_from(a.vertices), unique=True),
            max_size=2,
        )
        | st.none()
    )
    xs, at = _structure_copy(x, "instance"), _structure_copy(a, "template")
    assert find_hom(x, a, restriction) == find_hom(xs, at, restriction)
    assert list(itertools.islice(enumerate_homs(x, a, restriction), 30)) == list(
        itertools.islice(enumerate_homs(xs, at, restriction), 30)
    )
    assert _root_fixpoint(x, a, restriction) == _root_fixpoint(xs, at, restriction)
    for g in (x, a):
        copy = _structure_copy(g, "template")
        assert is_core(g) == is_core(copy)
        assert core_of(g).vertices == core_of(copy).domain


def _directed_path(n):
    return make_digraph(f"P{n}", [f"p{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def test_a_directed_path_into_itself_propagates_in_linear_work(monkeypatch):
    """P_n -> P_n: the level windows leave each vertex its own image, so
    the domain writes and the neighbour unions over domains grow at most
    2.2x from n = 200 to n = 400; arc consistency from full domains
    peels one level per wave, about n^2/6 revisions."""
    counts = {"writes": 0, "unions": 0}

    class CountingTrail(list):
        def append(self, entry):
            counts["writes"] += 1
            super().append(entry)

        def __iadd__(self, entries):
            counts["writes"] += len(entries)
            return super().__iadd__(entries)

    init = solver._Search.__init__

    def counting_init(self, *args):
        init(self, *args)
        self.trail = CountingTrail()

    union = solver._Neighbours.union

    def counting_union(self, dom):
        counts["unions"] += 1
        return union(self, dom)

    monkeypatch.setattr(solver._Search, "__init__", counting_init)
    monkeypatch.setattr(solver._Neighbours, "union", counting_union)
    seen = {}
    for n in (200, 400):
        counts.update(writes=0, unions=0)
        hom = find_hom(_directed_path(n), _directed_path(n))
        assert hom == {f"p{i}": f"p{i}" for i in range(n)}
        seen[n] = dict(counts)
    assert seen[200]["unions"] > 0
    for kind in counts:
        assert seen[400][kind] <= 2.2 * seen[200][kind], seen


@pytest.mark.parametrize(
    "target, error, message",
    [
        (Digraph("z", (), ()), ParseError, "empty domain in 'z'"),
        (Digraph("e", ("v",), ()), NonemptyRelationRequired, "relation 'E' of template 'e' is empty"),
    ],
    ids=["empty", "edgeless"],
)
def test_a_digraph_target_without_edges_raises_as_its_template_copy(target, error, message):
    """Each entry that reads a digraph as a template raises for an empty
    or edgeless one exactly what building its template copy raises."""
    message = f"^{re.escape(message)}$"
    with pytest.raises(error, match=message):
        _structure_copy(target, "template")
    x = make_digraph("x", ["u"], [(0, 0)])
    op = OpTable("p", 1, 1, (0,))
    calls = [
        lambda: find_hom(x, target),
        lambda: enumerate_homs(x, target),
        lambda: is_hom(x, target, {}),
        lambda: endomorphisms(target),
        lambda: is_core(target),
        lambda: core_of(target),
        lambda: find_operations(target, majority_identities()),
        lambda: is_polymorphism(op, target),
    ]
    for call in calls:
        with pytest.raises(error, match=message):
            call()


def test_an_empty_digraph_source_is_a_search_over_no_variables():
    """Its one map is the empty one; a restriction naming anything raises,
    the target's names resolved first."""
    empty = Digraph("g", (), ())
    a = make_digraph("a", ["a0", "a1"], [(0, 1)])
    assert list(enumerate_homs(empty, a)) == [{}]
    assert find_hom(empty, a, {}) == {}
    assert is_hom(empty, a, {})
    with pytest.raises(ParseError, match="^unknown element name 'nosuch'$"):
        find_hom(empty, a, {"nosuch": ["a0"]})
    with pytest.raises(ParseError, match="^unknown element name 'bad'$"):
        find_hom(empty, a, {"nosuch": ["bad"]})


def test_every_returned_hom_passes_the_definition(two_cycle):
    meta = build_digraph(two_cycle)
    for hom in enumerate_homs(meta.digraph, meta.digraph):
        assert is_hom(meta.digraph, meta.digraph, hom)


# ---------------------------------------------------------------------------
# Cores


def test_two_cycle_is_core(two_cycle):
    assert is_core(two_cycle)


def test_parity4_is_core(parity4):
    assert is_core(parity4)
    assert endomorphisms(parity4) == [{"0": "0", "1": "1"}]


def test_full_relation_retracts_to_a_point():
    a = make_structure(
        "full", ["0", "1"], [("R", 2, [(0, 0), (0, 1), (1, 0), (1, 1)])]
    )
    assert not is_core(a)
    core = core_of(a)
    assert len(core.domain) == 1
    assert core.relations[0].tuples == ((0, 0),)


def test_core_of_core_is_itself(two_cycle):
    assert core_of(two_cycle) == two_cycle


def test_internal_searches_look_up_no_names(monkeypatch, parity4, edge_template):
    """core_of and find_operations hand the search masks and rows, so no
    element name is resolved, however many searches they run."""
    looked_up = []
    for cls in (RelStructure, Digraph):
        lookup = cls.element_index
        monkeypatch.setattr(
            cls, "element_index", lambda s, name, lookup=lookup: looked_up.append(name) or lookup(s, name)
        )
    gadget = forward_instance(parity4, 4)
    assert len(core_of(gadget).domain) == len(gadget.vertices) == 182
    assert find_operations(build_digraph(edge_template).digraph, majority_identities())
    assert looked_up == []


# ---------------------------------------------------------------------------
# Operation search


def test_zigzag_has_a_majority(two_cycle):
    sigma = majority_identities()
    tables = find_operations(zigzag(), sigma)
    assert tables is not None
    assert is_polymorphism(tables["m"], zigzag())
    assert satisfies(tables, sigma, 4)
    # the median is one concrete witness
    med = zz_median()
    assert is_polymorphism(med, zigzag())
    assert satisfies({"m": med}, sigma, 4)


def test_edge_template_has_maltsev_witness(edge_template):
    sigma = maltsev_identities()
    tables = find_operations(edge_template, sigma)
    assert tables is not None
    assert is_polymorphism(tables["p"], edge_template)
    assert satisfies(tables, sigma, 2)
    xor3 = OpTable(
        "xor3", 3, 2,
        tuple((a + b + c) % 2 for a, b, c in itertools.product(range(2), repeat=3)),
    )
    assert is_polymorphism(xor3, edge_template)
    assert satisfies({"p": xor3}, sigma, 2)


def test_zigzag_has_no_maltsev():
    assert find_operations(zigzag(), maltsev_identities()) is None


def test_boolean_majority_preserves_single_edge(edge_template):
    maj = OpTable(
        "maj", 3, 2,
        tuple(sorted(t)[1] for t in itertools.product(range(2), repeat=3)),
    )
    assert is_polymorphism(maj, edge_template)


def brute_force_preserves(op, s) -> bool:
    """The raw definition: every combination of tuples maps to a tuple."""
    for rel in s.relations:
        allowed = set(rel.tuples)
        for combo in itertools.product(rel.tuples, repeat=op.arity):
            image = tuple(op(tuple(t[j] for t in combo)) for j in range(rel.arity))
            if image not in allowed:
                return False
    return True


@st.composite
def _structure_and_op(draw):
    """Relations of arity 1-4 over two or three elements, some with a
    constant column, with repeated tuples kept (Relation is built directly,
    not deduplicated), and an op of arity 0-3: mostly a random table, which
    seldom preserves everything, now and then a projection, which does.  A
    4-ary relation over three elements has tuple codes up to 3^4 - 1, with
    the first column weighing n^3; a nullary op has one combination."""
    n = draw(st.integers(2, 3))
    rels = []
    for name in ("R", "S")[: draw(st.integers(1, 2))]:
        k = draw(st.integers(1, 4))
        row = st.tuples(*[st.integers(0, n - 1)] * k)
        rows = sorted(draw(st.sets(row, min_size=1, max_size=6)))
        if draw(st.booleans()):
            j, v = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
            rows = [t[:j] + (v,) + t[j + 1 :] for t in rows]
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
        rels.append(Relation(name, k, tuple(rows)))
    s = RelStructure("s", tuple(str(i) for i in range(n)), tuple(rels))
    m = draw(st.sampled_from((1, 2, 3, 0)))
    if m and draw(st.integers(0, 4)) == 4:  # Hypothesis leans to 0
        i = draw(st.integers(0, m - 1))
        values = tuple(args[i] for args in itertools.product(range(n), repeat=m))
    else:
        # uniform cells from a drawn seed; cells drawn one by one lean to
        # all-zero tables, which preserve any relation holding the zero row
        rnd = random.Random(draw(st.integers(0, 2**32)))
        values = tuple(rnd.randrange(n) for _ in range(n**m))
    return s, OpTable("f", m, n, values)


@given(_structure_and_op())
@settings(max_examples=300, deadline=None)
def test_is_polymorphism_matches_the_definition(pair):
    s, op = pair
    assert is_polymorphism(op, s) == brute_force_preserves(op, s)


def test_constant_map_off_the_relation_is_no_polymorphism(edge_template):
    assert not is_polymorphism(OpTable("c", 3, 2, (0,) * 8), edge_template)
    assert not is_polymorphism(OpTable("swap", 1, 2, (1, 0)), edge_template)
    # a nullary op has the one empty combination to check
    assert not is_polymorphism(OpTable("c", 0, 2, (0,)), edge_template)
    loop = make_structure("loop", ["0", "1"], [("R", 2, [(0, 1), (1, 1)])])
    assert is_polymorphism(OpTable("c", 0, 2, (1,)), loop)


def test_permutability_witnesses_on_the_zigzag():
    sigma = parse_identities(
        "symbol p1 3\nsymbol p2 3\n"
        "identity p1(x,x,x) = x\nidentity p2(x,x,x) = x\n"
        "identity p1(x,y,y) = x\nidentity p2(x,x,y) = y\n"
        "identity p1(x,x,y) = p2(x,y,y)\n"
    )
    tables = {"p1": zz_p1(), "p2": zz_p2()}
    assert is_polymorphism(tables["p1"], zigzag())
    assert is_polymorphism(tables["p2"], zigzag())
    assert satisfies(tables, sigma, 4)


def test_allmin_satisfies_wnu_on_zigzag():
    from cspdigraph.lifting import zz_allmin

    assert satisfies({"w": zz_allmin(3)}, wnu_identities(3), 4)


def test_findops_results_always_verify():
    rng = Lcg64(41)
    for _ in range(10):
        a = random_single_template(rng, max_elems=2, max_arity=2)
        for sigma in (majority_identities(), maltsev_identities()):
            tables = find_operations(a, sigma)
            if tables is not None:
                for op in tables.values():
                    assert is_polymorphism(op, a)
                assert satisfies(tables, sigma, len(a.domain))


def _found_digest(cases) -> str:
    """sha256 over the tables find_operations gives for each (structure,
    sigma) case, in symbol order, or 'none' where it finds none."""
    h = hashlib.sha256()
    for structure, sigma in cases:
        tables = find_operations(structure, sigma)
        if tables is None:
            h.update(b"none\n")
        else:
            for name, _ in sigma.symbols:
                h.update(serialize_op_table(tables[name]).encode())
    return h.hexdigest()


def test_found_tables_on_the_fixtures_are_pinned():
    """Every fixture structure and D(edge) against every fixture identity
    set, except NU-4 and Siggers-4 on D(edge), which take 10-20 s each."""
    edge = parse_structure((FIXTURES / "edge.rel").read_text())
    structures = [
        ("edge", edge),
        ("2cycle", parse_structure((FIXTURES / "2cycle.rel").read_text())),
        ("parity4", parse_structure((FIXTURES / "parity4.rel").read_text())),
        ("zigzag", parse_digraph((FIXTURES / "zigzag.dg").read_text())),
        ("D(edge)", build_digraph(edge).digraph),
    ]
    cases = [
        (s, parse_identities(ids.read_text()))
        for name, s in structures
        for ids in sorted(FIXTURES.glob("*.ids"))
        if not (name == "D(edge)" and ids.stem in ("nu4", "siggers4"))
    ]
    assert len(cases) == 38
    assert _found_digest(cases) == (
        "9732dd0db4c6e6c84879a5704b1abca7d1c0aa7314f8ec46fc03f45213adca2e"
    )


STOCK = (
    majority_identities(),
    maltsev_identities(),
    wnu_identities(3),
    perm3_identities(),
    tsi_identities(3),
)


def test_found_tables_on_random_templates_are_pinned():
    """100 seeded templates, single- and two-relation in turn, against
    the five stock identity sets."""
    rng = Lcg64(5)
    templates = [
        (random_single_template if i % 2 == 0 else random_multi_template)(rng)
        for i in range(100)
    ]
    cases = [(t, sigma) for t in templates for sigma in STOCK]
    assert _found_digest(cases) == (
        "a7b6e5eb529dc6805e567e3985c382be572a9158c14c2a964612177cdf9a2919"
    )


ONE_IN_THREE = make_structure(
    "1in3", ["0", "1"], [("R", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])]
)


def test_witness_search_past_the_bound_is_refused_up_front():
    """NU-4 on D(1-in-3), 47 vertices and 48 edges, is refused before
    anything is built, naming both sizes and the bound."""
    d = build_digraph(ONE_IN_THREE).digraph
    nu4 = parse_identities((FIXTURES / "nu4.ids").read_text())
    start = time.perf_counter()
    with pytest.raises(PreconditionError) as err:
        find_operations(d, nu4)
    assert time.perf_counter() - start < 1
    message = str(err.value)
    assert "4879681 cells" in message and "5308416 rows" in message
    assert str(WITNESS_SEARCH_BOUND) in message


class _Admitted(Exception):
    pass


def _admitted(*args):
    raise _Admitted


def test_the_bound_admits_the_largest_fixture_search(monkeypatch, parity4):
    """jonsson2 on D(parity4), 949104 cells and 1024000 rows, passes the
    guard: the union-find built right after it is stubbed to stop there."""
    monkeypatch.setattr(solver, "UnionFind", _admitted)
    jonsson2 = parse_identities((FIXTURES / "jonsson2.ids").read_text())
    with pytest.raises(_Admitted):
        find_operations(build_digraph(parity4).digraph, jonsson2)


def test_the_bound_counts_cells_plus_rows(monkeypatch, edge_template):
    """Majority on edge: 8 cells and 1 row, so 9 is admitted and 8 is not."""
    monkeypatch.setattr(solver, "WITNESS_SEARCH_BOUND", 9)
    assert find_operations(edge_template, majority_identities()) is not None
    monkeypatch.setattr(solver, "WITNESS_SEARCH_BOUND", 8)
    with pytest.raises(PreconditionError, match="8 cells and 1 rows"):
        find_operations(edge_template, majority_identities())


def test_a_nullary_symbol_is_a_constant_tuple(edge_template):
    sigma = parse_identities("symbol c 0\n")
    assert find_operations(edge_template, sigma) is None
    loop = make_structure("loop", ["0", "1"], [("R", 2, [(0, 1), (0, 0)])])
    assert find_operations(loop, sigma)["c"].values == (0,)


# ---------------------------------------------------------------------------
# Level-restricted interpretability


def _level_restricted_brute(h, level_of, spec, anchors=None):
    path = build_path(spec)
    levels = list(itertools.accumulate(spec.orientations(), initial=0))
    slots = []
    for v in h.vertices:
        options = [i for i in range(len(path.vertices)) if levels[i] == level_of[v]]
        if anchors and v in anchors:
            target = {"iota": path.vertices[0], "tau": path.vertices[-1]}[anchors[v]]
            options = [i for i in options if path.vertices[i] == target]
        slots.append(options)
    edge_set = set(path.edges)
    for choice in itertools.product(*slots):
        assign = dict(zip(h.vertices, choice))
        if all((assign[h.vertices[u]], assign[h.vertices[v]]) in edge_set for u, v in h.edges):
            return True
    return False


def test_zigzag_folds_into_any_segment():
    z = make_digraph("z", ["a", "b", "c", "d"], [(0, 1), (2, 1), (2, 3)])
    level_of = {"a": 1, "b": 2, "c": 1, "d": 2}
    for singles in ([], [1], [2], [1, 2]):
        spec = path_spec(2, singles)
        want = _level_restricted_brute(z, level_of, spec)
        assert interpretable_at_levels(z, level_of, spec) == want
        # a zigzag collapses onto a single edge, so every placement works
        assert want is True


def test_directed_run_blocks_the_zigzag_position():
    run = make_digraph("run", ["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
    for i in (1, 2, 3):
        level_of = {"a": i - 1, "b": i, "c": i + 1, "d": i + 2}
        spec = path_spec(3, set(range(1, 4)) - {i})
        want = _level_restricted_brute(run, level_of, spec)
        assert want is False
        assert interpretable_at_levels(run, level_of, spec) is False


def test_anchored_interpretation_matches_brute_force():
    rng = Lcg64(43)
    for _ in range(40):
        k = rng.randint(1, 3)
        n = rng.randint(2, 6)
        levels = [rng.randint(0, k + 2) for _ in range(n)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if levels[v] == levels[u] + 1 and rng.chance(1, 2)
        ]
        h = make_digraph("h", [f"v{i}" for i in range(n)], edges)
        level_of = {f"v{i}": levels[i] for i in range(n)}
        singles = [i for i in range(1, k + 1) if rng.chance(1, 2)]
        spec = path_spec(k, singles)
        assert interpretable_at_levels(h, level_of, spec) == _level_restricted_brute(
            h, level_of, spec
        )
