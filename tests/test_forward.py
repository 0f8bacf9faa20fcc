import pytest

from cspdigraph.builder import PathSpec, build_digraph, build_path
from cspdigraph.errors import ArityMismatch
from cspdigraph.forward import forward_instance, gadget_size
from cspdigraph.merge import merge_instance, merge_template
from cspdigraph.reverse import assign_levels, components
from cspdigraph.rng import Lcg64
from cspdigraph.solver import find_hom
from cspdigraph.structures import Digraph, RelStructure, make_digraph, make_structure
from cspdigraph.verify import random_instance_for, random_multi_template


def test_one_binary_tuple_gives_thirteen_vertices():
    x = make_structure("x", ["x", "y"], [("R", 2, [(0, 1)])], role="instance")
    g = forward_instance(x, 2)
    assert len(g.vertices) == 13
    assert len(g.edges) == 12
    assert gadget_size(2, 1, 2) == (13, 12)
    assert "y:0" in g.vertices
    assert "q:0:1:1" in g.vertices


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
    i = g.vertex_index("lonely")
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
            assert assign_levels(g, comp).height == 5


def fixed_yes_digraph(template: RelStructure) -> Digraph:
    """A one-vertex digraph; it maps into any nonempty encoded digraph."""
    return make_digraph("yes:vertex", ["v"], [])


def single_edge_probe() -> Digraph:
    """A single directed edge; also always a yes instance of the encoding."""
    return make_digraph("yes:edge", ["u", "v"], [(0, 1)])


def full_path_probe(k: int) -> Digraph:
    """The all-single-edges path; yes exactly when some pair uses it whole."""
    return build_path(PathSpec(k, frozenset(range(1, k + 1))), name="probe:fullpath")


def test_probes(two_cycle):
    meta = build_digraph(two_cycle)
    assert find_hom(fixed_yes_digraph(two_cycle), meta.digraph) is not None
    assert find_hom(single_edge_probe(), meta.digraph) is not None
    # the all-singles path embeds exactly when some pair realizes every position
    probe = full_path_probe(2)
    want = any(spec.singles == {1, 2} for spec in meta.path_specs.values())
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
