import hashlib
from itertools import accumulate
from pathlib import Path

import pytest

from cspdigraph.builder import (
    build_digraph,
    build_path,
    dmeta_to_text,
    index_set,
    path_spec,
)
from cspdigraph.errors import PreconditionError
from cspdigraph.rng import Lcg64
from cspdigraph.structures import make_structure, parse_structure
from cspdigraph.verify import random_single_template
from oracles import incident


def _path_levels(spec):
    """The level of each vertex of the spec's path, from the element end."""
    return list(accumulate(spec.orientations(), initial=0))


def _orientation(g):
    """Edge directions along vertex order, +1 forward and -1 backward."""
    out = []
    for i in range(len(g.vertices) - 1):
        if (i, i + 1) in g.edges:
            out.append(1)
        else:
            assert (i + 1, i) in g.edges
            out.append(-1)
    return out


def test_all_singles_path_is_directed():
    spec = path_spec(2, [1, 2])
    g = build_path(spec)
    assert len(g.vertices) == 5
    assert _orientation(g) == [1, 1, 1, 1]
    assert _path_levels(spec) == [0, 1, 2, 3, 4]


def test_all_zigzag_path_k1():
    g = build_path(path_spec(1, []))
    assert len(g.vertices) == 6
    assert len(g.edges) == 5
    assert _orientation(g) == [1, 1, -1, 1, 1]


def test_minimal_path_k3_single_at_3():
    spec = path_spec(3, [3])
    g = build_path(spec)
    assert len(g.vertices) == 10
    assert _orientation(g) == [1, 1, -1, 1, 1, -1, 1, 1, 1]
    assert max(_path_levels(spec)) == 5


def test_index_set():
    assert index_set(0, (0, 1)) == {1}
    assert index_set(1, (0, 0, 0, 1)) == {4}
    assert index_set(2, (0, 1)) == frozenset()


def test_segments_at_position():
    spec = path_spec(3, [3])
    segs = [
        {l for l in range(1, 4) if p in spec.segment_positions(l)}
        for p in range(spec.length() + 1)
    ]
    assert len(segs) == spec.length() + 1
    assert segs[0] == segs[-1] == set()
    assert segs[1] == {1}
    # boundary between segments 1 and 2 of an all-zigzag prefix
    assert segs[4] == {1, 2}
    # zigzag-interior positions belong to one segment
    assert segs[2] == {1}
    assert segs[3] == {1}


@pytest.mark.parametrize(
    "domain, tuples, expect",
    [
        (["0", "1"], [(0, 1), (1, 0)], (24, 24, 4)),
        (["0", "1"], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)], (78, 80, 6)),
        (["a"], [(0,)], (4, 3, 3)),
    ],
)
def test_counts_match_formulas(domain, tuples, expect):
    k = len(tuples[0])
    meta = build_digraph(make_structure("t", domain, [("R", k, tuples)]))
    nv, ne, h, ok = meta.stats()
    assert (nv, ne, h) == expect
    assert ok


def test_unit_template_golden_naming(unit_template):
    meta = build_digraph(unit_template)
    assert meta.digraph.vertices == ("a:a", "r:a", "p:a|a|1", "p:a|a|2")
    assert set(meta.digraph.edges) == {(0, 2), (2, 3), (3, 1)}
    assert meta.lvl == (0, 3, 1, 2)


def test_vertex_order_elements_tuples_interiors(two_cycle):
    meta = build_digraph(two_cycle)
    names = meta.digraph.vertices
    assert names[0] == "a:0" and names[1] == "a:1"
    assert names[2] == "r:0,1" and names[3] == "r:1,0"
    assert names[4].startswith("p:0|0,1|")


def test_multi_relation_template_rejected():
    t = make_structure("t", ["0"], [("R1", 1, [(0,)]), ("R2", 1, [(0,)])])
    with pytest.raises(PreconditionError, match="single relation"):
        build_digraph(t)


def test_every_path_matches_its_spec(two_cycle, parity4):
    for meta in map(build_digraph, (two_cycle, parity4)):
        edge_set = set(meta.digraph.edges)
        assert len(meta.paths) == len(meta.template.domain) * len(meta.tuples)
        for e, (singles, segments) in meta.paths.items():
            a, r = e[0], e[1:]
            # element a is vertex a; interior ids rise with position
            interiors = [v for v, c in enumerate(meta.coords) if c == e]
            vids = [a, *interiors, meta.tuple_vid[r]]
            assert [meta.v_pos[v] for v in interiors] == list(range(1, len(vids) - 1))
            spec = path_spec(meta.k, index_set(a, r))
            assert singles == sum(1 << l for l in spec.singles)
            assert len(vids) == spec.length() + 1
            assert segments[0] == ()
            for l in range(1, meta.k + 1):
                assert segments[l] == tuple(vids[p] for p in spec.segment_positions(l))
            for p, step in enumerate(spec.orientations()):
                if step == 1:
                    assert (vids[p], vids[p + 1]) in edge_set
                else:
                    assert (vids[p + 1], vids[p]) in edge_set


def test_level_map_is_valid_and_height_exact(two_cycle, edge_template, parity4, unit_template):
    """The encoding's levels, kept only in meta.lvl, rise by one along every
    edge, put the elements alone at level 0 and the tuples alone at k+2."""
    rng = Lcg64(11)
    seeded = [random_single_template(rng, max_elems=4, max_arity=4) for _ in range(40)]
    for meta in map(build_digraph, [two_cycle, edge_template, parity4, unit_template, *seeded]):
        lvl, na = meta.lvl, len(meta.template.domain)
        assert len(lvl) == len(meta.digraph.vertices)
        for u, v in meta.digraph.edges:
            assert lvl[v] == lvl[u] + 1
        assert max(lvl) == meta.height == meta.k + 2
        assert [v for v in range(len(lvl)) if lvl[v] == 0] == list(range(na))
        assert [v for v in range(len(lvl)) if lvl[v] == meta.height] == sorted(
            meta.tuple_vid.values()
        )


def test_level_one_interiors_lie_on_segment_one(two_cycle):
    meta = build_digraph(two_cycle)
    level_one = [
        v
        for v in range(len(meta.digraph.vertices))
        if meta.lvl[v] == 1 and meta.coords[v]
    ]
    assert level_one
    for v in level_one:
        assert meta.segs[v] & 1 << 1
    # elements and tuples lie on no path and in no segment
    for v in (*range(len(meta.template.domain)), *meta.tuple_vid.values()):
        assert meta.coords[v] == () and meta.segs[v] == 0


def test_boundary_vertex_reports_two_segments(parity4):
    meta = build_digraph(parity4)
    found = False
    for v in range(len(meta.digraph.vertices)):
        if not meta.coords[v]:
            continue
        segs = meta.segs[v]
        if segs.bit_count() == 2:
            lo, hi = (l for l in range(1, meta.k + 1) if segs >> l & 1)
            assert hi == lo + 1
            assert meta.lvl[v] == hi
            found = True
    assert found


def test_stats_line_for_worked_fixtures(two_cycle, parity4, unit_template):
    assert build_digraph(two_cycle).stats() == (24, 24, 4, True)
    assert build_digraph(parity4).stats() == (78, 80, 6, True)
    assert build_digraph(unit_template).stats() == (4, 3, 3, True)


# sha256 of the annotated digraph file that `cspdg build -o` writes
DMETA_SHA256 = {
    "2cycle": "5e325a6f7c906248f7434cb1b3ff0e235f132b02aa59f278a188dae99b448a9c",
    "edge": "e07745c4a6749bd16a76484642d20055d437601ba9a48b8c2b265ba202fd67c9",
    "parity4": "331206283d438023644ba4864124ef4012bdf8a0d152188918f60950ec62bd8d",
}


@pytest.mark.parametrize("name", sorted(DMETA_SHA256))
def test_dmeta_text_is_pinned(name, two_cycle, edge_template, parity4):
    template = {"2cycle": two_cycle, "edge": edge_template, "parity4": parity4}[name]
    text = dmeta_to_text(build_digraph(template))
    assert hashlib.sha256(text.encode()).hexdigest() == DMETA_SHA256[name]


@pytest.mark.parametrize("name", ["a,b", "a|1"])
def test_element_name_with_a_separator_is_refused(name):
    t = make_structure("s", [name, "c"], [("R", 2, [(0, 1)])])
    with pytest.raises(PreconditionError, match="element name"):
        build_digraph(t)


def test_sides_are_the_edge_directions_at_each_vertex():
    """On each fixture template's encoding, bit 1 of a vertex's sides is
    set when some edge leaves it and bit 2 when some edge enters it, as
    read off the signs of its neighbour list."""
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    templates = sorted(fixtures.glob("*.rel"))
    assert len(templates) == 3
    for path in templates:
        meta = build_digraph(parse_structure(path.read_text()))
        assert meta.sides == tuple(
            sum({1 if d == 1 else 2 for _, d in incident(meta.digraph, x)})
            for x in range(len(meta.digraph.vertices))
        )
