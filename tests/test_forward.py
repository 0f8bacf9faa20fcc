import hashlib

import pytest

from cspdigraph.builder import PathSpec, build_digraph, build_path
from cspdigraph.errors import ArityMismatch
from cspdigraph.forward import forward_instance, gadget_size
from cspdigraph.merge import merge_instance, merge_template
from cspdigraph.reverse import components
from cspdigraph.rng import Lcg64
from cspdigraph.solver import find_hom
from cspdigraph.structures import (
    Digraph,
    RelStructure,
    make_digraph,
    make_structure,
    serialize_digraph,
)
from cspdigraph.verify import random_instance_for, random_multi_template
from oracles import component_levels


def test_one_binary_tuple_gives_thirteen_vertices():
    x = make_structure("x", ["x", "y"], [("R", 2, [(0, 1)])], role="instance")
    g = forward_instance(x, 2)
    assert len(g.vertices) == 13
    assert len(g.edges) == 12
    assert gadget_size(2, 1, 2) == (13, 12)
    assert "y:0" in g.vertices
    assert "q:0:1:1" in g.vertices


def test_fresh_names_take_the_fewest_underscores():
    """An element named <p>y:... or <p>q:... rules out the prefix <p>."""
    x = make_structure(
        "x", ["y:0", "_q:7", "__y", "a"], [("R", 2, [(0, 1), (3, 3)])], role="instance"
    )
    g = forward_instance(x, 2)
    assert g.vertices[:4] == x.domain
    assert g.vertices[4] == "__y:0" and "__q:1:2:5" in g.vertices
    assert (len(g.vertices), len(g.edges)) == gadget_size(4, 2, 2)


def test_gadget_size_formula_matches():
    rng = Lcg64(5)
    for _ in range(20):
        a = random_multi_template(rng)
        x = random_instance_for(rng, a)
        merged_a, blocks = merge_template(a)
        merged_x = merge_instance(x, blocks)
        g = forward_instance(merged_x, blocks.total)
        n_tuples = len(merged_x.relations[0].tuples)
        assert (len(g.vertices), len(g.edges)) == gadget_size(
            len(merged_x.domain), n_tuples, blocks.total
        )


def test_unused_element_stays_isolated():
    x = make_structure("x", ["x", "y", "lonely"], [("R", 2, [(0, 1)])], role="instance")
    g = forward_instance(x, 2)
    i = g.element_index("lonely")
    assert all(i not in e for e in g.edges)


def test_repeated_element_gets_one_path_per_position():
    x = make_structure("x", ["x"], [("R", 2, [(0, 0)])], role="instance")
    g = forward_instance(x, 2)
    # one variable, one apex, two disjoint path interiors
    assert len(g.vertices) == 1 + 1 + 2 * 5


def test_arity_mismatch_rejected():
    x = make_structure("x", ["x"], [("R", 2, [(0, 0)])], role="instance")
    with pytest.raises(ArityMismatch):
        forward_instance(x, 3)


def test_loop_tuple_against_parity4_is_no_on_both_sides(parity4):
    x = make_structure("x", ["x"], [("R", 4, [(0, 0, 0, 0)])], role="instance")
    meta = build_digraph(parity4)
    assert find_hom(x, parity4) is None
    assert find_hom(forward_instance(x, 4), meta.digraph) is None


def test_tuple_components_are_balanced_of_full_height():
    x = make_structure(
        "x", ["x", "y", "z"], [("R", 3, [(0, 1, 2), (2, 2, 0)])], role="instance"
    )
    g = forward_instance(x, 3)
    for comp in components(g):
        has_apex = any(g.vertices[v].startswith("y:") for v in comp)
        if has_apex:
            assert component_levels(g, comp)[1] == 5


def fixed_yes_digraph(template: RelStructure) -> Digraph:
    """A one-vertex digraph; it maps into any nonempty encoded digraph."""
    return make_digraph("yes:vertex", ["v"], [])


def single_edge_probe() -> Digraph:
    """A single directed edge; also always a yes instance of the encoding."""
    return make_digraph("yes:edge", ["u", "v"], [(0, 1)])


def full_path_probe(k: int) -> Digraph:
    """The all-single-edges path; yes exactly when some pair uses it whole."""
    return build_path(PathSpec(k, frozenset(range(1, k + 1))))


def test_probes(two_cycle):
    meta = build_digraph(two_cycle)
    assert find_hom(fixed_yes_digraph(two_cycle), meta.digraph) is not None
    assert find_hom(single_edge_probe(), meta.digraph) is not None
    # the all-singles path embeds exactly when some pair realizes every position
    probe = full_path_probe(2)
    want = any(singles == 0b110 for singles, _ in meta.paths.values())
    assert (find_hom(probe, meta.digraph) is not None) == want


def test_forward_equivalence_smoke():
    rng = Lcg64(17)
    for _ in range(40):
        a = random_multi_template(rng)
        x = random_instance_for(rng, a)
        merged_a, blocks = merge_template(a)
        meta = build_digraph(merged_a)
        gadget = forward_instance(merge_instance(x, blocks), blocks.total)
        assert (find_hom(x, a) is not None) == (
            find_hom(gadget, meta.digraph) is not None
        )


# sha256 of the serialized gadgets of the corpus below; a change to any
# vertex name, the vertex order or the edge order changes it
FORWARD_CORPUS_DIGEST = "a1fef62d33876e11f5ca6840c5fd05a96c925df5abdae8b1ab90b8a4546372b2"


def _forward_corpus():
    """240 seeded single-relation instances of arity 1-4 over up to six
    elements, some with names that lead with '_' or contain ':', so
    repeated entries, unused elements and empty relations all occur."""
    rng = Lcg64(83)
    pool = ["a", "b7", "_y:0", "y", "q", "_q:1:1:1", "v:0", "x_"]
    for i in range(240):
        k = 1 + i % 4
        n = rng.randint(1, 6)
        names = [f"{pool[rng.below(len(pool))]}{j}" for j in range(n)]
        m = 0 if i % 30 == 7 else rng.randint(1, 5)
        tuples = [tuple(rng.below(n) for _ in range(k)) for _ in range(m)]
        yield make_structure(f"x{i}", names, [("R", k, tuples)], role="instance"), k


def test_forward_outputs_are_pinned_by_digest():
    digest = hashlib.sha256()
    repeated = unused = empty = 0
    for x, k in _forward_corpus():
        tuples = x.relations[0].tuples
        repeated += any(len(set(t)) < k for t in tuples)
        unused += len({i for t in tuples for i in t}) < len(x.domain)
        empty += not tuples
        g = forward_instance(x, k)
        assert (len(g.vertices), len(g.edges)) == gadget_size(len(x.domain), len(tuples), k)
        digest.update(serialize_digraph(g).encode() + b"\0")
    assert repeated >= 100 and unused >= 80 and empty >= 5
    assert digest.hexdigest() == FORWARD_CORPUS_DIGEST


def test_gadgets_pass_the_digraph_checks():
    """forward_instance builds its gadget without Digraph's checks, since
    it is valid by construction; the checking constructor accepts every
    gadget of the corpus, and gadgets whose element names force a fresh
    prefix of one or two underscores."""
    clashing = [["y:0", "a"], ["y:0", "_q:7", "__y", "a"], ["q:", "_y:", "b"]]
    forced = [
        (make_structure("x", names, [("R", 2, [(0, 1), (1, 1), (1, 0)])], role="instance"), 2)
        for names in clashing
    ]
    apexes = []
    for x, k in [*_forward_corpus(), *forced]:
        g = forward_instance(x, k)
        assert Digraph(g.name, g.vertices, g.edges) == g
        apexes.append(g.vertices[len(x.domain)] if x.relations[0].tuples else None)
    assert apexes[-3:] == ["_y:0", "__y:0", "__y:0"]
