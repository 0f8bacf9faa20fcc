import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspdigraph import reverse, solver
from cspdigraph.builder import build_digraph, build_path, path_spec
from cspdigraph.cli import _objects_report
from cspdigraph.errors import (
    InternalInvariantViolation,
    PreconditionError,
    TrivialTemplate,
    Unbalanced,
)
from cspdigraph.forward import forward_instance
from cspdigraph.merge import merge_instance, merge_template
from cspdigraph.reverse import (
    assign_levels,
    boundary_subgraph,
    build_objects,
    components,
    fixed_no,
    fixed_yes,
    gamma,
    internal_components,
    reverse_instance,
    sim_closure,
    stage2_decide,
    assemble_instance,
)
from cspdigraph.rng import Lcg64
from cspdigraph.solver import UnionFind, enumerate_homs, find_hom, interpretable_at_levels
from cspdigraph.structures import (
    Digraph,
    levelled_components,
    make_digraph,
    make_structure,
    parse_digraph,
    parse_structure,
    serialize_structure,
)
from cspdigraph.verify import random_digraph_instance, random_single_template
from oracles import choice, component_levels, incident
from worked_example import EXPECTED_GAMMAS, worked_digraph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _levels(g):
    """(comp, levels, height) of g's first component."""
    comp = components(g)[0]
    return (comp, *component_levels(g, comp))


# ---------------------------------------------------------------------------
# Oracles: the definitions that the production criteria are checked against


def fan_at_element(meta, a):
    # element a is vertex a
    keep = [a]
    keep.extend(meta.tuple_vid[r] for r in meta.tuples)
    keep.extend(v for v, e in enumerate(meta.coords) if e and e[0] == a)
    return meta.digraph.induced(keep)


def fan_at_tuple(meta, r):
    keep = [meta.tuple_vid[r]]
    keep.extend(range(len(meta.template.domain)))
    keep.extend(v for v, e in enumerate(meta.coords) if e and e[1:] == r)
    return meta.digraph.induced(keep)


def stage2_decide_fans(component, meta):
    """A low component maps into the encoding iff it maps into some fan of
    paths sharing an element or sharing a tuple."""
    for a in range(len(meta.template.domain)):
        if find_hom(component, fan_at_element(meta, a)) is not None:
            return True
    for r in meta.tuples:
        if find_hom(component, fan_at_tuple(meta, r)) is not None:
            return True
    return False


def gamma_by_search(g, c, levels, k):
    """Position j is forced exactly when the component (with its base and
    top attached at their true levels) does not map into the path that is
    single everywhere except a zigzag at j."""
    sub, level_of = boundary_subgraph(g, c, levels)
    forced = []
    for j in range(1, k + 1):
        spec = path_spec(k, set(range(1, k + 1)) - {j})
        if not interpretable_at_levels(sub, level_of, spec):
            forced.append(j)
    return frozenset(forced)


def edges_by_scan(g, c):
    """Edges with an endpoint in the component and both endpoints in the
    component, its base or its top, found by scanning every edge of g."""
    member = set(c.vertices)
    near = member | set(c.base) | set(c.top)
    return [
        (u, v)
        for u, v in g.edges
        if (u in member or v in member) and u in near and v in near
    ]


# ---------------------------------------------------------------------------
# Stage 1


def test_directed_two_cycle_is_unbalanced():
    g = make_digraph("c2", ["u", "v"], [(0, 1), (1, 0)])
    with pytest.raises(Unbalanced) as err:
        assign_levels(g, components(g)[0])
    witness = err.value.witness
    assert witness[0] == witness[-1]
    net = 0
    edges = set(g.edges)
    for a, b in zip(witness, witness[1:]):
        ia, ib = g.vertices.index(a), g.vertices.index(b)
        net += 1 if (ia, ib) in edges else -1
    assert net != 0


def test_self_loop_is_unbalanced():
    g = make_digraph("loop", ["u"], [(0, 0)])
    with pytest.raises(Unbalanced):
        assign_levels(g, components(g)[0])


def test_only_an_unbalanced_component_is_walked_again(monkeypatch):
    """reverse_instance walks a component a second time, for its witness,
    only when it is unbalanced: never on the fixture templates'
    encodings, their forward gadgets or zigzag.dg, and once on an input
    whose second of three components is unbalanced."""
    calls = []
    walk = reverse.assign_levels
    monkeypatch.setattr(reverse, "assign_levels", lambda *a: calls.append(a) or walk(*a))
    templates = [parse_structure(p.read_text()) for p in sorted(FIXTURES.glob("*.rel"))]
    zigzag = parse_digraph((FIXTURES / "zigzag.dg").read_text())
    for t in templates:
        k = t.relations[0].arity
        for g in (build_digraph(t).digraph, forward_instance(t, k), zigzag):
            reverse_instance(g, t)
    assert calls == []
    two_cycle = make_digraph("c2", ["u", "v"], [(0, 1), (1, 0)])
    g = _disjoint_union("mixed", [zigzag, two_cycle, zigzag])
    res = reverse_instance(g, templates[0])
    assert res.mode == "fixed-no" and "unbalanced:" in res.reports[-1].detail
    assert len(calls) == 1


def test_zigzag_levels():
    g = make_digraph("z", ["a", "b", "c", "d"], [(0, 1), (2, 1), (2, 3)])
    comp, levels, height = _levels(g)
    assert height == 1
    assert [levels[v] for v in comp] == [0, 1, 0, 1]


def test_path_height_reaches_the_encoding():
    g = build_path(path_spec(3, [3]))
    _, _, height = _levels(g)
    assert height == 5


# ---------------------------------------------------------------------------
# Stage 2


def test_single_vertex_is_yes(two_cycle):
    meta = build_digraph(two_cycle)
    dot = make_digraph("dot", ["v"], [])
    assert stage2_decide(dot, meta)
    assert stage2_decide_fans(dot, meta)


def test_zigzag_component_is_yes(two_cycle):
    meta = build_digraph(two_cycle)
    z = make_digraph("z", ["a", "b", "c", "d"], [(0, 1), (2, 1), (2, 3)])
    assert stage2_decide(z, meta)
    assert stage2_decide_fans(z, meta)


def test_low_components_pass_the_digraph_checks():
    """reverse builds each low component without Digraph's checks, since a
    component of a valid digraph is valid; the checking constructor
    accepts 100 random ones, and each has the component's induced edges."""
    rng = Lcg64(23)
    done = 0
    while done < 100:
        template = random_single_template(rng, nontrivial=True)
        k = template.relations[0].arity
        g = random_digraph_instance(rng, n_levels=k + 1)
        for comp in components(g):
            names = tuple(g.vertices[v] for v in comp)
            part = reverse._component_digraph(names, reverse._component_edges(g, comp))
            assert Digraph(part.name, part.vertices, part.edges) == part
            induced = g.induced(comp)
            assert part.vertices == induced.vertices
            assert sorted(part.edges) == sorted(induced.edges)
            done += 1


def test_fan_variant_agrees_with_direct_decision():
    """Dual-method agreement on 100 random low components."""
    rng = Lcg64(23)
    done = 0
    while done < 100:
        template = random_single_template(rng, nontrivial=True)
        meta = build_digraph(template)
        g = random_digraph_instance(rng, n_levels=meta.k + 1)
        for comp, height in levelled_components(*g.adjacency)[1]:
            if height is None or height >= meta.k + 2:
                continue
            sub = g.induced(comp)
            assert stage2_decide(sub, meta) == stage2_decide_fans(sub, meta)
            done += 1
            if done >= 100:
                break


# ---------------------------------------------------------------------------
# Stage 3A


def test_path_instance_has_one_internal_component():
    g = build_path(path_spec(2, [1]))
    comp, levels, height = _levels(g)
    parts = internal_components(g, comp, levels, height)
    assert len(parts) == 1
    (c,) = parts
    assert [g.vertices[v] for v in c.base] == ["q0"]
    assert [g.vertices[v] for v in c.top] == [g.vertices[len(g.vertices) - 1]]


def test_encoding_of_two_cycle_has_four_internal_components(two_cycle):
    meta = build_digraph(two_cycle)
    comp, levels, height = _levels(meta.digraph)
    parts = internal_components(meta.digraph, comp, levels, height)
    assert len(parts) == 4
    for c in parts:
        assert len(c.base) == 1 and len(c.top) == 1
        # each interior pins exactly the positions of its connecting path
        # element i is vertex i, tuple t vertex |A| + t
        singles, _ = meta.paths[
            (c.base[0], *meta.tuples[c.top[0] - len(meta.template.domain)])
        ]
        want = {l for l in range(1, meta.k + 1) if singles >> l & 1}
        assert gamma(meta.digraph, c, levels, meta.k) == want


def test_component_with_base_only():
    # a level-1 vertex with one base neighbour and no top, inside a
    # height-4 graph held up by an unrelated chain
    g = make_digraph(
        "g",
        ["b", "v", "c1", "c2", "c3", "e"],
        [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)],
    )
    comp, levels, _ = _levels(g)
    parts = internal_components(g, comp, levels, 4)
    slack = next(c for c in parts if c.vertices == (1,))
    assert [g.vertices[x] for x in slack.base] == ["b"]
    assert slack.top == ()


@pytest.mark.parametrize("singles", [set(), {1}, {2}, {1, 2}, {1, 3}, {1, 2, 3}])
def test_gamma_of_path_interior_is_its_single_set(singles):
    k = max(singles) if singles else 2
    k = max(k, 2)
    g = build_path(path_spec(k, singles))
    comp, levels, height = _levels(g)
    (c,) = internal_components(g, comp, levels, height)
    assert gamma(g, c, levels, k) == frozenset(singles)
    assert gamma_by_search(g, c, levels, k) == frozenset(singles)


def test_gamma_of_slack_vertex_is_empty():
    g = make_digraph("g", ["b", "v", "w", "x", "e"], [(0, 1), (2, 3), (3, 4)])
    # make height n=4 via a second chain so the slack vertex is internal
    g = make_digraph(
        "g",
        ["b", "v", "c1", "c2", "c3", "e"],
        [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)],
    )
    comp, levels, height = _levels(g)
    assert height == 4
    parts = internal_components(g, comp, levels, 4)
    slack = [c for c in parts if c.vertices == (1,)]
    assert len(slack) == 1
    assert gamma(g, slack[0], levels, 2) == frozenset()


def _random_internals(seed, ks, per_k):
    """Internal components of random full-height digraph instances."""
    rng = Lcg64(seed)
    for k in ks:
        found = 0
        while found < per_k:
            g = random_digraph_instance(rng, n_levels=k + 2)
            levels, parts = levelled_components(*g.adjacency)
            for comp, height in parts:
                if height != k + 2:
                    continue
                for c in internal_components(g, comp, levels, k + 2):
                    yield k, g, levels, c
                    found += 1


def test_gamma_matches_fast_criterion_on_random_components():
    """The local criterion in production agrees with the solver-based one."""
    for k, g, levels, c in _random_internals(37, (2, 3, 4), 40):
        assert c.gamma == gamma(g, c, levels, k) == gamma_by_search(g, c, levels, k)


def test_component_edges_match_a_scan_of_every_edge():
    """gamma and boundary_subgraph read a component's edges off the
    neighbour lists of its vertices: each edge once, no edge missed."""
    for _, g, _, c in _random_internals(53, (2, 3, 4), 40):
        own = reverse._own_edges(g, c)
        assert sorted(own) == sorted(edges_by_scan(g, c))
        assert len(set(own)) == len(own)
    g = worked_digraph()
    comp, levels, height = _levels(g)
    for c in internal_components(g, comp, levels, 4):
        assert sorted(reverse._own_edges(g, c)) == sorted(edges_by_scan(g, c))


def test_forced_positions_remain_interpretable_at_their_minimum():
    """Each component maps into the path whose singles are exactly gamma."""
    g = worked_digraph()
    comp, levels, height = _levels(g)
    for c in internal_components(g, comp, levels, 4):
        gm = gamma(g, c, levels, 2)
        sub, level_of = boundary_subgraph(g, c, levels)
        assert interpretable_at_levels(sub, level_of, path_spec(2, gm))


# ---------------------------------------------------------------------------
# The stage walks against the walks they replaced: components, then a
# dict of levels per component, then internal components that keep their
# edges and a gamma read off those edges, kept here as the oracle


def _oracle_components(g):
    nbrs = [incident(g, x) for x in range(len(g.vertices))]
    seen = [False] * len(g.vertices)
    out = []
    for root in range(len(g.vertices)):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for w, _ in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def _oracle_assign_levels(g, comp):
    """(levels, height); raises Unbalanced with the tree-walk witness."""
    nbrs = [incident(g, x) for x in range(len(g.vertices))]
    root = comp[0]
    level = {root: 0}
    parent = {root: root}
    stack = [root]
    while stack:
        u = stack.pop()
        for w, delta in nbrs[u]:
            want = level[u] + delta
            if w not in level:
                level[w] = want
                parent[w] = u
                stack.append(w)
            elif level[w] != want:
                def back(x):
                    trail = [x]
                    while parent[x] != x:
                        x = parent[x]
                        trail.append(x)
                    return trail

                witness = [g.vertices[i] for i in back(u)[::-1] + back(w)]
                raise Unbalanced("no level function", witness)
    low = min(level.values())
    normal = {v: l - low for v, l in level.items()}
    return normal, max(normal.values())


def _oracle_internal_components(g, comp, levels, height):
    """(vertices, base, top, edges) of each internal component."""
    nbrs = [incident(g, x) for x in range(len(g.vertices))]
    seen = set()
    result = []
    for root in comp:
        if root in seen or not 0 < levels[root] < height:
            continue
        comp_vs, base, top, edges = [root], set(), set(), []
        seen.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for w, d in nbrs[u]:
                if d == 1:
                    edges.append((u, w))
                    if levels[w] == height:
                        top.add(w)
                        continue
                elif levels[w] == 0:
                    edges.append((w, u))
                    base.add(w)
                    continue
                if w not in seen:
                    seen.add(w)
                    comp_vs.append(w)
                    stack.append(w)
        result.append((tuple(sorted(comp_vs)), tuple(sorted(base)), tuple(sorted(top)), edges))
    return result


def _oracle_gamma(edges, levels, k):
    tails = {u for u, _ in edges}
    heads = {v for _, v in edges}
    return frozenset(
        levels[u] for u, v in edges if 1 <= levels[u] <= k and u in heads and v in tails
    )


@st.composite
def _stage_inputs(draw):
    """(g, k): one to four parts with shuffled vertex ids.  A part is an
    isolated vertex; a balanced walk of height 0..k+3 with extra edges
    between adjacent levels; such a walk plus one edge against its levels
    (a self-loop, a level kept or skipped, a step down); or a stem that
    zigzags from level 1 to k+1 between bases and tops, possibly none."""
    k = draw(st.integers(2, 4))
    lv: list[int] = []
    edges: list[tuple[int, int]] = []

    def walk(start, stop, floor):
        """A random oriented walk from level start up to stop on fresh
        vertices, never below floor; returns the vertices."""
        vs = [len(lv)]
        lv.append(start)
        downs = draw(st.lists(st.booleans(), max_size=3 * (stop - start)))
        for down in downs + [False] * (stop - start + len(downs)):
            cur = lv[vs[-1]]
            if cur == stop and not down:
                break
            step = -1 if down and cur > floor else 1
            v = len(lv)
            lv.append(cur + step)
            edges.append((vs[-1], v) if step == 1 else (v, vs[-1]))
            vs.append(v)
        return vs

    def extra(vs, count):
        for _ in range(count):
            u = draw(st.sampled_from(vs))
            above = [v for v in vs if lv[v] == lv[u] + 1]
            if above:
                edges.append((u, draw(st.sampled_from(above))))

    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["isolated", "walk", "unbalanced", "stem"]))
        if kind == "isolated":
            lv.append(0)
        elif kind == "stem":
            vs = walk(1, k + 1, 1)
            for level, end in ((0, 1), (k + 2, k + 1)):
                at = [v for v in vs if lv[v] == end]
                for _ in range(draw(st.integers(0, 3))):
                    x = len(lv)
                    lv.append(level)
                    other = draw(st.sampled_from(at))
                    edges.append((x, other) if level == 0 else (other, x))
                    vs.append(x)
            extra(vs, draw(st.integers(0, 3)))
        else:
            vs = walk(0, draw(st.integers(0, k + 3)), 0)
            extra(vs, draw(st.integers(0, 4)))
            if kind == "unbalanced":
                u, v = draw(st.sampled_from(vs)), draw(st.sampled_from(vs))
                if lv[v] == lv[u] + 1:
                    u, v = v, u  # against the levels either way
                edges.append((u, v))
    perm = draw(st.permutations(range(len(lv))))
    names = [""] * len(lv)
    for old, new in enumerate(perm):
        names[new] = f"v{old}"
    return make_digraph("parts", names, [(perm[u], perm[v]) for u, v in edges]), k


@given(_stage_inputs())
@settings(max_examples=300, deadline=None)
def test_stage_walks_match_the_walks_they_replaced(case):
    """levelled_components and internal_components give the oracle's
    component order, heights, normalised levels and unbalanced witness,
    and each internal component's vertices, base, top and gamma."""
    g, k = case
    levels, parts = levelled_components(*g.adjacency)
    assert [comp for comp, _ in parts] == _oracle_components(g)
    for comp, height in parts:
        try:
            want, want_height = _oracle_assign_levels(g, comp)
        except Unbalanced as exc:
            assert height is None
            with pytest.raises(Unbalanced) as err:
                assign_levels(g, comp)
            assert err.value.witness == exc.witness
            continue
        assert height == want_height
        assert {v: levels[v] for v in comp} == want
        got = [
            (c.vertices, c.base, c.top, c.gamma)
            for c in internal_components(g, comp, levels, k + 2)
        ]
        assert got == [
            (vs, base, top, _oracle_gamma(edges, want, k))
            for vs, base, top, edges in _oracle_internal_components(g, comp, want, k + 2)
        ]


def test_objects_for_a_bare_path():
    k = 3
    g = build_path(path_spec(k, {1, 3}))
    comp, levels, height = _levels(g)
    parts = internal_components(g, comp, levels, height)
    obj = build_objects(g, comp, levels, parts, k)
    assert len(obj.type1) == 1
    (t1,) = obj.type1
    top_name = g.vertices[t1.e]
    assert t1.sets == (("q0",), (f"xg:{top_name}:2",), ("q0",))
    assert obj.type2 == []
    assert obj.edges3 == [] and obj.edges4 == []
    partition = sim_closure(obj)
    assert all(len(m) == 1 for m in partition.classes.values())
    domain, rows = assemble_instance(obj, partition)
    assert len(domain) == 1 + (k - 2)
    assert rows == [(0, 1, 0)]


class _UnitesNothing(UnionFind):
    def union(self, i, j):
        pass


def test_closure_check_catches_a_set_that_straddles_classes(monkeypatch):
    """The worked fixture's top e3 has the two-member set (b2, b4); with a
    union-find that unites nothing it spans two classes, and sim_closure
    must say so rather than assemble from it."""
    g = worked_digraph()
    comp, levels, height = _levels(g)
    obj = build_objects(g, comp, levels, internal_components(g, comp, levels, height), 2)
    assert ("b2", "b4") in [s for o in obj.type1 for s in o.sets]
    monkeypatch.setattr(reverse, "UnionFind", _UnitesNothing)
    with pytest.raises(InternalInvariantViolation, match="straddles classes"):
        sim_closure(obj)


def test_closure_check_reads_only_sets_of_two_or_more(monkeypatch):
    """A one-member set cannot straddle classes: the bare path's sets are
    all single, so the check passes however little the closure unites."""
    g = build_path(path_spec(3, {1, 3}))
    comp, levels, height = _levels(g)
    obj = build_objects(g, comp, levels, internal_components(g, comp, levels, height), 3)
    assert all(len(s) == 1 for o in obj.type1 for s in o.sets)
    monkeypatch.setattr(reverse, "UnionFind", _UnitesNothing)
    assert len(sim_closure(obj).classes) == len(obj.x_order)


def test_assembly_offset_shifts_every_row():
    """assemble_instance(objects, partition, d) is the offset-0 assembly
    with d added to every index, over the same domain."""
    g = worked_digraph()
    comp, levels, height = _levels(g)
    obj = build_objects(g, comp, levels, internal_components(g, comp, levels, height), 2)
    partition = sim_closure(obj)
    domain, rows = assemble_instance(obj, partition)
    assert len(rows) == len(obj.type1) + len(obj.type2)
    for d in (1, 7, 1000):
        shifted_domain, shifted = assemble_instance(obj, partition, d)
        assert shifted_domain == domain
        assert shifted == [tuple(i + d for i in t) for t in rows]


def test_shared_base_merges_position_sets():
    # two tops above one base vertex pinning position 1 each
    g = worked_digraph()
    res = reverse_instance(g, make_structure("t", ["0", "1"], [("R", 2, [(0, 1), (1, 0)])]))
    rep = res.reports[0]
    blocks = [m for m in rep.partition.classes.values() if len(m) > 1]
    assert sorted(blocks) == [
        ("b2", "b4", "b5", "b6", "xg:e1:1"),
        ("b3", "xg:e1:2"),
    ]


# ---------------------------------------------------------------------------
# The worked fixture, frozen


def test_worked_fixture_objects(two_cycle):
    g = worked_digraph()
    comp, levels, height = _levels(g)
    assert height == 4
    parts = internal_components(g, comp, levels, 4)
    assert len(parts) == len(EXPECTED_GAMMAS)
    for c in parts:
        first = g.vertices[c.vertices[0]]
        assert c.gamma == frozenset(EXPECTED_GAMMAS[first]), first
        assert gamma(g, c, levels, 2) == c.gamma
        assert gamma_by_search(g, c, levels, 2) == c.gamma

    obj = build_objects(g, comp, levels, parts, 2)
    by_top = {g.vertices[o.e]: o.sets for o in obj.type1}
    assert by_top["e1"] == (("xg:e1:1",), ("xg:e1:2",))
    assert by_top["e2"] == (("b2",), ("b3",))
    assert by_top["e3"] == (("b2", "b4"), ("xg:e3:2",))
    assert by_top["e4"] == (("b4",), ("xb:6:e4:2",))

    type2 = [(g.vertices[o.b], o.sets) for o in obj.type2]
    assert type2 == [
        ("b1", (("b1",), ("xa:7:b1:2",))),
        ("b4", (("xa:8:b4:1",), ("xa:8:b4:2",))),
        ("b5", (("xa:8:b5:1",), ("xa:8:b5:2",))),
        ("b5", (("b5",), ("xa:9:b5:2",))),
        ("b6", (("b6",), ("xa:9:b6:2",))),
    ]

    assert [(g.vertices[e], g.vertices[f]) for e, f in obj.edges3] == [("e1", "e2")]
    assert [(g.vertices[b], g.vertices[d]) for b, d in obj.edges4] == [
        ("b4", "b5"),
        ("b5", "b6"),
    ]


def test_worked_fixture_instance(two_cycle):
    g = worked_digraph()
    res = reverse_instance(g, two_cycle)
    assert res.mode == "assembled"
    out = res.instance
    named = [tuple(out.domain[i] for i in t) for t in out.relations[0].tuples]
    assert named == [
        ("b2", "b3"),
        ("b2", "xg:e3:2"),
        ("b2", "xb:6:e4:2"),
        ("b1", "xa:7:b1:2"),
        ("xa:8:b4:1", "xa:8:b4:2"),
        ("xa:8:b5:1", "xa:8:b5:2"),
        ("b2", "xa:9:b5:2"),
        ("b2", "xa:9:b6:2"),
    ]


def test_worked_fixture_equivalence_across_templates():
    g = worked_digraph()
    for name, dom, tuples in [
        ("2cycle", ["0", "1"], [(0, 1), (1, 0)]),
        ("edge", ["0", "1"], [(0, 1)]),
        ("tri", ["0", "1", "2"], [(0, 1), (1, 2), (2, 0)]),
    ]:
        t = make_structure(name, dom, [("R", 2, tuples)])
        meta = build_digraph(t)
        res = reverse_instance(g, t)
        assert (find_hom(g, meta.digraph) is not None) == (
            find_hom(res.instance, t) is not None
        )


def test_worked_fixture_maps_into_its_own_encoding(two_cycle):
    g = worked_digraph()
    res = reverse_instance(g, two_cycle)
    as_template = make_structure(
        "b", res.instance.domain, [("R", 2, res.instance.relations[0].tuples)]
    )
    assert find_hom(g, build_digraph(as_template).digraph) is not None


# ---------------------------------------------------------------------------
# Pipeline


def test_forward_then_reverse_round_trip(two_cycle):
    x = make_structure("x", ["u", "v", "w"], [("R", 2, [(0, 1), (1, 2)])], role="instance")
    g = forward_instance(x, 2)
    res = reverse_instance(g, two_cycle)
    assert res.mode == "assembled"
    named = {tuple(res.instance.domain[i] for i in t) for t in res.instance.relations[0].tuples}
    assert named == {("u", "v"), ("v", "w")}


def test_fresh_names_avoid_base_vertex_names(two_cycle):
    """A base vertex named xg:q6:2, like the free position 2 of the path's
    top q6, must stay apart from it: the fresh names take a '_' prefix,
    and the YES input stays YES.  The base joins q0's class, as both sit
    below q1."""
    p = build_path(path_spec(2, [1]))
    g = make_digraph("g", [*p.vertices, "xg:q6:2"], [*p.edges, (len(p.vertices), 1)])
    assert find_hom(g, build_digraph(two_cycle).digraph) is not None
    res = reverse_instance(g, two_cycle)
    assert res.mode == "assembled"
    assert res.reports[0].partition.classes["q0"] == ("q0", "xg:q6:2")
    assert serialize_structure(res.instance) == (
        "instance rev:g\ndomain q0 _xg:q6:2\nrelation R 2\ntuple q0 _xg:q6:2\nend\n"
    )
    assert find_hom(res.instance, two_cycle) is not None


def test_unbalanced_gives_fixed_no(two_cycle):
    g = make_digraph("c2", ["u", "v"], [(0, 1), (1, 0)])
    res = reverse_instance(g, two_cycle)
    assert res.mode == "fixed-no"
    assert find_hom(res.instance, two_cycle) is None


def test_too_tall_gives_fixed_no(two_cycle):
    g = build_path(path_spec(3, [1, 2, 3]))  # height 5 > 4
    res = reverse_instance(g, two_cycle)
    assert res.mode == "fixed-no"


def test_single_vertex_gives_fixed_yes(two_cycle):
    g = make_digraph("dot", ["v"], [])
    res = reverse_instance(g, two_cycle)
    assert res.mode == "fixed-yes"
    assert find_hom(res.instance, two_cycle) is not None
    assert res.instance.domain == ("y1", "y2")


def test_trivial_template_raises():
    t = make_structure("t", ["0", "1"], [("R", 2, [(0, 0), (0, 1)])])
    with pytest.raises(TrivialTemplate):
        reverse_instance(make_digraph("dot", ["v"], []), t)


def test_multi_relation_template_is_a_precondition_error_not_trivial():
    """Only a constant tuple makes a template trivial; a second relation
    is refused as build_digraph refuses it, so it is never decided as
    trivial."""
    t = make_structure("ab", ["0", "1"], [("R1", 2, [(0, 1)]), ("R2", 1, [(1,)])])
    with pytest.raises(PreconditionError, match="single relation") as err:
        reverse_instance(make_digraph("dot", ["v"], []), t)
    assert not isinstance(err.value, TrivialTemplate)


def test_fixed_instances(two_cycle):
    assert find_hom(fixed_no(two_cycle), two_cycle) is None
    assert find_hom(fixed_yes(two_cycle), two_cycle) is not None


def test_multi_component_union(two_cycle):
    meta = build_digraph(two_cycle)
    p1 = build_path(path_spec(2, [1]))
    n = len(p1.vertices)
    vertices = list(p1.vertices) + [f"s{i}" for i in range(n)]
    edges = list(p1.edges) + [(u + n, v + n) for u, v in p1.edges]
    g = make_digraph("two", vertices, edges)
    res = reverse_instance(g, two_cycle)
    assert res.mode == "assembled"
    assert len(res.instance.relations[0].tuples) == 2
    assert (find_hom(g, meta.digraph) is not None) == (
        find_hom(res.instance, two_cycle) is not None
    )


def test_second_component_rows_follow_the_first_domain(two_cycle):
    """Two disjoint forward gadgets reversed in one digraph give each
    gadget's own rows, the second's shifted by the first's domain size."""
    x1 = make_structure("x1", ["u", "v", "w"], [("R", 2, [(0, 1), (1, 2)])], role="instance")
    x2 = make_structure(
        "x2", ["p", "q", "r", "s"], [("R", 2, [(0, 1), (2, 1), (3, 0), (2, 3)])], role="instance"
    )
    g1, g2 = forward_instance(x1, 2), forward_instance(x2, 2)
    alone1, alone2 = reverse_instance(g1, two_cycle), reverse_instance(g2, two_cycle)
    res = reverse_instance(_disjoint_union("both", [g1, g2]), two_cycle)
    assert [r.stage for r in res.reports] == ["assembled", "assembled"]
    d = len(alone1.instance.domain)
    assert d == 3 and len(res.instance.domain) == d + len(alone2.instance.domain)
    rows1 = alone1.instance.relations[0].tuples
    rows2 = alone2.instance.relations[0].tuples
    assert res.instance.relations[0].tuples == rows1 + tuple(
        tuple(i + d for i in t) for t in rows2
    )
    named = {tuple(res.instance.domain[i] for i in t) for t in res.instance.relations[0].tuples}
    assert named == {
        ("0.u", "0.v"), ("0.v", "0.w"), ("1.p", "1.q"), ("1.r", "1.q"), ("1.s", "1.p"), ("1.r", "1.s")
    }


def test_identified_base_vertices_agree_under_every_hom(two_cycle):
    """Vertices a ~ b at the base level are forced together by any hom."""
    g = worked_digraph()
    meta = build_digraph(two_cycle)
    res = reverse_instance(g, two_cycle)
    rep = res.reports[0]
    base_classes = [
        [m for m in members if not m.startswith(("xa:", "xb:", "xg:"))]
        for members in rep.partition.classes.values()
    ]
    homs = list(enumerate_homs(g, meta.digraph))
    assert homs
    for hom in homs:
        for members in base_classes:
            assert len({hom[v] for v in members if v in hom}) <= 1


def test_reverse_equivalence_smoke():
    rng = Lcg64(19)
    for _ in range(60):
        template = random_single_template(rng, nontrivial=True)
        meta = build_digraph(template)
        g = random_digraph_instance(rng, n_levels=meta.k + 2)
        res = reverse_instance(g, template)
        assert (find_hom(g, meta.digraph) is not None) == (
            find_hom(res.instance, template) is not None
        )


def test_full_directed_path_forces_a_constant_tuple(two_cycle):
    """The all-singles path compiles to a constant hyperedge: NO without one."""
    g = build_path(path_spec(2, [1, 2]))
    res = reverse_instance(g, two_cycle)
    assert res.mode == "assembled"
    named = [tuple(res.instance.domain[i] for i in t) for t in res.instance.relations[0].tuples]
    assert named == [("q0", "q0")]
    meta = build_digraph(two_cycle)
    assert find_hom(g, meta.digraph) is None
    assert find_hom(res.instance, two_cycle) is None


def test_subgraphs_of_the_encoding_stay_yes():
    """Edge-subgraphs of an encoding map into it, so the output must be YES."""
    rng = Lcg64(77)
    for _ in range(25):
        template = random_single_template(rng, nontrivial=True)
        meta = build_digraph(template)
        edges = [e for e in meta.digraph.edges if rng.chance(4, 5)]
        g = make_digraph("sub", meta.digraph.vertices, edges)
        res = reverse_instance(g, template)
        assert find_hom(res.instance, template) is not None


def test_assembled_instances_receive_their_source():
    """Every full-height input maps into the encoding of its own output."""
    rng = Lcg64(47)
    seen = 0
    while seen < 25:
        template = random_single_template(rng, nontrivial=True)
        g = random_digraph_instance(rng, n_levels=template.relations[0].arity + 2)
        res = reverse_instance(g, template)
        if res.mode != "assembled":
            continue
        rel = res.instance.relations[0]
        as_template = make_structure("b", res.instance.domain, [(rel.name, rel.arity, rel.tuples)])
        assert find_hom(g, build_digraph(as_template).digraph) is not None
        seen += 1


def _disjoint_union(name, parts):
    vertices, edges = [], []
    for j, g in enumerate(parts):
        offset = len(vertices)
        vertices.extend(f"{j}.{v}" for v in g.vertices)
        edges.extend((u + offset, v + offset) for u, v in g.edges)
    return make_digraph(name, vertices, edges)


# sha256 of the outputs below; a change to any byte of them, the order of an
# unbalanced witness included, changes it
REVERSE_CORPUS_DIGEST = "005db60d2e8805ece5848471a472c3b3bf4cb32241131c9fe03553803b24dd53"


def test_reverse_outputs_are_pinned_by_digest():
    """Instance text, mode and objects report of 320 seeded inputs, with
    one to three random parts each, so unbalanced witnesses, low and
    full-height components and their order all enter the digest."""
    rng = Lcg64(59)
    digest = hashlib.sha256()
    modes, unbalanced, multi = {}, 0, 0
    for i in range(320):
        template = random_single_template(rng, nontrivial=True)
        k = template.relations[0].arity
        parts = [random_digraph_instance(rng, n_levels=k + 2) for _ in range(1 + i % 3)]
        g = _disjoint_union(f"g{i}", parts)
        res = reverse_instance(g, template)
        for text in (serialize_structure(res.instance), res.mode, _objects_report(res)):
            digest.update(text.encode() + b"\0")
        modes[res.mode] = modes.get(res.mode, 0) + 1
        unbalanced += any("unbalanced:" in r.detail for r in res.reports)
        multi += res.mode == "assembled" and len(res.reports) > 1
    assert set(modes) == {"assembled", "fixed-no", "fixed-yes"}
    assert unbalanced >= 20 and multi >= 10
    assert digest.hexdigest() == REVERSE_CORPUS_DIGEST


def test_many_low_components_need_no_induced_subgraph(two_cycle, monkeypatch):
    """Stage 2 builds each low component from its own edges: with 2000 of
    them, reverse never asks for an induced subgraph of the whole input."""
    x = make_structure("x", ["u", "v", "w"], [("R", 2, [(0, 1), (1, 2)])], role="instance")
    full = forward_instance(x, 2)
    alone = reverse_instance(full, two_cycle)
    edge = make_digraph("e", ["s", "t"], [(0, 1)])
    g = _disjoint_union(full.name, [full] + [edge] * 2000)

    def refuse(*args, **kwargs):
        raise AssertionError("Digraph.induced called")

    monkeypatch.setattr(Digraph, "induced", refuse)
    res = reverse_instance(g, two_cycle)
    assert res.mode == "assembled"
    assert [r.stage for r in res.reports] == ["low-yes"] * 2000 + ["assembled"]
    assert res.instance.relations == alone.instance.relations
    assert len(res.instance.domain) == len(alone.instance.domain)


def test_low_components_share_one_template_structure(two_cycle, monkeypatch):
    """Stage 2 decides every low component against the encoded digraph
    itself, and every search into it reuses one set of its neighbour
    masks, built once per reverse, not once per component."""
    edge = make_digraph("e", ["s", "t"], [(0, 1)])
    g = _disjoint_union("lows", [edge] * 200)
    masks = []
    neighbour_masks = solver._neighbour_masks
    monkeypatch.setattr(
        solver, "_neighbour_masks", lambda *args: masks.append(1) or neighbour_masks(*args)
    )
    res = reverse_instance(g, two_cycle)
    assert sum(r.stage == "low-yes" for r in res.reports) == 200
    assert len(masks) == 1


def test_low_components_of_many_shapes_share_the_encodings_search_state(
    two_cycle, monkeypatch
):
    """Stage 2 decides 22 distinct low-component shapes in a search each:
    out-stars with 1 to 20 leaves (height 1) and directed paths of
    heights 2 and 3.  Every search reads one set of the encoding's
    neighbour masks, and the level windows of every height come from one
    walk of the encoding, kept for the later searches."""
    stars = [[(0, i) for i in range(1, n + 1)] for n in range(1, 21)]
    paths = [[(i, i + 1) for i in range(n)] for n in (2, 3)]
    g = _disjoint_union(
        "lows",
        [make_digraph("c", [f"v{i}" for i in range(len(e) + 1)], e) for e in stars + paths],
    )
    masks, walks, metas = [], [], []
    neighbour_masks = solver._neighbour_masks
    walk = solver.levelled_components
    build = reverse.build_digraph
    monkeypatch.setattr(
        solver, "_neighbour_masks", lambda *args: masks.append(1) or neighbour_masks(*args)
    )
    monkeypatch.setattr(
        solver, "levelled_components", lambda outs, ins: walks.append(outs) or walk(outs, ins)
    )
    monkeypatch.setattr(reverse, "build_digraph", lambda t: metas.append(build(t)) or metas[-1])
    res = reverse_instance(g, two_cycle)
    assert [r.stage for r in res.reports] == ["low-yes"] * 22 + ["fixed-yes"]
    (encoding,) = [meta.digraph for meta in metas]
    assert len(masks) == 1
    # the encoding once, and each source component in its own search
    assert [outs is encoding.adjacency[0] for outs in walks].count(True) == 1
    assert len(walks) == 1 + 22
    # read again, each height's windows are the kept list, and walk nothing
    for h in (1, 2, 3):
        assert solver._level_windows(encoding, h) is solver._level_windows(encoding, h)
    assert len(walks) == 1 + 22


def _stem(rng, k, names, edges, tag):
    """A random oriented path from level 1 up to level k + 1 on fresh
    vertices; its down-steps make zigzags, so gamma varies. Returns the
    stem's vertices at level 1 and at level k + 1."""
    at = {1: [len(names)]}
    names.append(f"{tag}.0")
    level, last = 1, at[1][0]
    while level <= k:
        step = -1 if level > 1 and rng.chance(1, 3) else 1
        v = len(names)
        names.append(f"{tag}.{v}")
        edges.append((last, v) if step == 1 else (v, last))
        level, last = level + step, v
        at.setdefault(level, []).append(v)
    return at[1], at[k + 1]


def _wide_instance(rng, k, name):
    """One to three gadgets over shared pools of 3-8 bases and 3-8 tops:
    fans (one base, many tops), reversed fans, bowties, and gadgets with
    bases only or tops only, each on its own random stem. Vertex ids are
    shuffled, so ranks and names disagree."""
    bases = list(range(rng.randint(3, 8)))
    tops = list(range(len(bases), len(bases) + rng.randint(3, 8)))
    names = [f"b{v}" for v in bases] + [f"t{v}" for v in tops]
    edges = []

    def some(pool, lo):
        return sorted({choice(rng, pool) for _ in range(rng.randint(lo, 8))})

    for s in range(rng.randint(1, 3)):
        low, high = _stem(rng, k, names, edges, f"s{s}")
        kind = rng.below(6)
        below = [choice(rng, bases)] if kind == 0 else [] if kind == 5 else some(bases, 3)
        above = [choice(rng, tops)] if kind == 1 else [] if kind == 4 else some(tops, 3)
        edges.extend((b, choice(rng, low)) for b in below)
        edges.extend((choice(rng, high), t) for t in above)
    perm = list(range(len(names)))
    for i in range(len(perm) - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    shuffled = [""] * len(names)
    for old, new in enumerate(perm):
        shuffled[new] = names[old]
    return make_digraph(name, shuffled, [(perm[u], perm[v]) for u, v in edges])


# sha256 of the outputs of the wide-component corpus below, fixed before the
# closure united whole groups instead of pairs
WIDE_CORPUS_DIGEST = "dda73c27c0659dc76b898117e5a3145e04cab9bda55a49f2b413c11530d6cded"


def test_wide_components_are_pinned_by_digest():
    """Instance text, mode and objects report of 200 seeded fans and
    bowties, whose internal components have up to eight bases and tops."""
    rng = Lcg64(61)
    digest = hashlib.sha256()
    wide = 0
    for i in range(200):
        template = random_single_template(rng, max_arity=4, nontrivial=True)
        g = _wide_instance(rng, template.relations[0].arity, f"w{i}")
        res = reverse_instance(g, template)
        for text in (serialize_structure(res.instance), res.mode, _objects_report(res)):
            digest.update(text.encode() + b"\0")
        wide += sum(
            len(c.base) >= 3 and len(c.top) >= 3
            for r in res.reports if r.objects for c in r.objects.internals
        )
    assert wide >= 80
    assert digest.hexdigest() == WIDE_CORPUS_DIGEST


def test_closure_of_a_fan_is_linear_in_its_tops(two_cycle, monkeypatch):
    """One base under a directed three-vertex stem with 2000 tops: the
    closure unites the tops' sets once per position, not once per pair
    of tops."""

    class Counting(UnionFind):
        calls = 0

        def union(self, i, j):
            Counting.calls += 1
            super().union(i, j)

    t = 2000
    names = ["b", "s1", "s2", "s3"] + [f"t{j}" for j in range(t)]
    edges = [(0, 1), (1, 2), (2, 3)] + [(3, 4 + j) for j in range(t)]
    monkeypatch.setattr(reverse, "UnionFind", Counting)
    res = reverse_instance(make_digraph("fan", names, edges), two_cycle)
    assert res.mode == "assembled" and res.instance.domain == ("b",)
    assert Counting.calls <= 10 * t


def test_stage2_builds_a_digraph_only_for_a_new_shape(two_cycle, monkeypatch):
    """Stage 2 keys each low component by its vertex count and renumbered
    edges before it builds anything: 200 single edges and 100 two-edge
    paths make two digraphs and two searches."""
    built = []
    component_digraph = reverse._component_digraph
    monkeypatch.setattr(
        reverse, "_component_digraph", lambda *args: built.append(1) or component_digraph(*args)
    )
    edge = make_digraph("e", ["s", "t"], [(0, 1)])
    path = make_digraph("p", ["a", "b", "c"], [(0, 1), (1, 2)])
    res = reverse_instance(_disjoint_union("lows", [edge] * 200 + [path] * 100), two_cycle)
    assert [r.stage for r in res.reports] == ["low-yes"] * 300 + ["fixed-yes"]
    assert len(built) == 2


@st.composite
def _template_and_instance(draw):
    """A non-trivial single-relation template and an instance with a tuple."""
    k = draw(st.integers(2, 3))
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, 5))

    def rows(size, min_size, nonconstant):
        row = st.tuples(*[st.integers(0, size - 1)] * k)
        if nonconstant:
            row = row.filter(lambda r: len(set(r)) > 1)
        return draw(st.lists(row, min_size=min_size, max_size=4))

    template = make_structure("a", [str(i) for i in range(m)], [("R", k, rows(m, 1, True))])
    x = make_structure(
        "x", [f"x{i}" for i in range(n)], [("R", k, rows(n, 1, False))], role="instance"
    )
    return template, x


@given(_template_and_instance())
@settings(max_examples=100, deadline=None)
def test_reverse_of_forward_is_hom_equivalent_to_the_source(pair):
    template, x = pair
    merged, blocks = merge_template(template)
    g = forward_instance(merge_instance(x, blocks), blocks.total)
    y = reverse_instance(g, merged).instance
    assert find_hom(x, y) is not None
    assert find_hom(y, x) is not None
