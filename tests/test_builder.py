import hashlib

import pytest

from cspdigraph.builder import (
    build_digraph,
    build_path,
    dmeta_to_text,
    index_set,
    path_spec,
)
from cspdigraph.errors import PreconditionError
from cspdigraph.structures import make_structure


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
    g = build_path(path_spec(2, [1, 2]))
    assert len(g.vertices) == 5
    assert _orientation(g) == [1, 1, 1, 1]
    assert g.levels == (0, 1, 2, 3, 4)


def test_all_zigzag_path_k1():
    g = build_path(path_spec(1, []))
    assert len(g.vertices) == 6
    assert len(g.edges) == 5
    assert _orientation(g) == [1, 1, -1, 1, 1]


def test_minimal_path_k3_single_at_3():
    g = build_path(path_spec(3, [3]))
    assert len(g.vertices) == 10
    assert _orientation(g) == [1, 1, -1, 1, 1, -1, 1, 1, 1]
    assert max(g.levels) == 5


def test_index_set():
    assert index_set(0, (0, 1)) == {1}
    assert index_set(1, (0, 0, 0, 1)) == {4}
    assert index_set(2, (0, 1)) == frozenset()


def test_segments_at_position():
    spec = path_spec(3, [3])
    segs = spec.segment_sets()
    assert len(segs) == spec.length() + 1
    assert segs[0] == segs[-1] == frozenset()
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


def test_every_path_matches_its_spec(two_cycle):
    meta = build_digraph(two_cycle)
    for e, spec in meta.path_specs.items():
        # interior ids rise with position along the path
        interiors = [v for v, path in enumerate(meta.v_path) if path == e]
        vids = [meta.elem_vid[e[0]], *interiors, meta.tuple_vid[e[1]]]
        assert spec.singles == index_set(e[0], e[1])
        fresh = build_path(spec)
        assert len(vids) == len(fresh.vertices)
        edge_set = set(meta.digraph.edges)
        for p in range(len(vids) - 1):
            step = fresh.levels[p + 1] - fresh.levels[p]
            if step == 1:
                assert (vids[p], vids[p + 1]) in edge_set
            else:
                assert (vids[p + 1], vids[p]) in edge_set


def test_level_map_is_valid_and_height_exact(parity4):
    meta = build_digraph(parity4)
    g = meta.digraph
    for u, v in g.edges:
        assert g.levels[v] == g.levels[u] + 1
    assert max(g.levels) == meta.k + 2


def test_level_one_interiors_lie_on_segment_one(two_cycle):
    meta = build_digraph(two_cycle)
    level_one = [
        v
        for v in range(len(meta.digraph.vertices))
        if meta.lvl[v] == 1 and meta.v_path[v] is not None
    ]
    assert level_one
    for v in level_one:
        assert meta.v_segs[v] >= {1}
    # elements and tuples lie on no path and in no segment
    for v in (*meta.elem_vid, *meta.tuple_vid.values()):
        assert meta.v_path[v] is None and meta.v_segs[v] == frozenset()


def test_boundary_vertex_reports_two_segments(parity4):
    meta = build_digraph(parity4)
    found = False
    for v in range(len(meta.digraph.vertices)):
        if meta.v_path[v] is None:
            continue
        segs = meta.v_segs[v]
        if len(segs) == 2:
            lo, hi = sorted(segs)
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
