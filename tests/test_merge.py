import pytest

from cspdigraph.errors import SignatureMismatch
from cspdigraph.merge import BlockInfo, merge_instance, merge_template, unmerge_instance
from cspdigraph.rng import Lcg64
from cspdigraph.solver import find_hom
from cspdigraph.structures import make_structure
from cspdigraph.verify import random_instance_for, random_multi_template


def test_merge_two_relations():
    a = make_structure("a", ["0", "1"], [("R1", 2, [(0, 1)]), ("R2", 1, [(1,)])])
    merged, blocks = merge_template(a)
    assert blocks.arities == (2, 1)
    assert blocks.offsets == (0, 2)
    assert blocks.total == 3
    assert merged.relations[0].tuples == ((0, 1, 1),)
    assert merged.relations[0].name == "R1*R2"
    assert merged.block_arities == (2, 1)


def test_merge_single_relation_is_identity():
    a = make_structure("a", ["0", "1"], [("R", 2, [(0, 1), (1, 0)])])
    merged, blocks = merge_template(a)
    assert merged.relations[0].tuples == a.relations[0].tuples
    assert merged.relations[0].name == "R"
    assert blocks.arities == (2,)


def test_merge_product_cardinality():
    a = make_structure(
        "a",
        ["0", "1", "2"],
        [("R1", 1, [(0,), (1,)]), ("R2", 1, [(0,), (1,), (2,)])],
    )
    merged, _ = merge_template(a)
    assert len(merged.relations[0].tuples) == 6


def test_merge_then_projecting_blocks_recovers_relations():
    a = make_structure(
        "a", ["0", "1"], [("R1", 2, [(0, 1), (1, 1)]), ("R2", 1, [(0,), (1,)])]
    )
    merged, blocks = merge_template(a)
    for i, rel in enumerate(a.relations):
        rng = blocks.block_range(i)
        projected = {tuple(t[p] for p in rng) for t in merged.relations[0].tuples}
        assert projected == set(rel.tuples)


def test_merge_instance_pads_foreign_blocks():
    x = make_structure(
        "x", ["x", "y"], [("R1", 2, [(0, 1)]), ("R2", 1, [])], role="instance"
    )
    merged = merge_instance(x, BlockInfo((2, 1)))
    assert len(merged.relations[0].tuples) == 1
    (row,) = merged.relations[0].tuples
    assert merged.domain[row[0]] == "x"
    assert merged.domain[row[1]] == "y"
    assert merged.domain[row[2]] == "pad:R1:0:3"
    assert len(merged.domain) == 3


def test_merge_instance_no_tuples_keeps_domain():
    x = make_structure(
        "x", ["x", "y"], [("R1", 2, []), ("R2", 1, [])], role="instance"
    )
    merged = merge_instance(x, BlockInfo((2, 1)))
    assert merged.domain == ("x", "y")
    assert merged.relations[0].tuples == ()


def test_merge_instance_signature_mismatch():
    x = make_structure("x", ["x"], [("R1", 1, [])], role="instance")
    with pytest.raises(SignatureMismatch):
        merge_instance(x, BlockInfo((2, 1)))


def test_unmerge_projects_blocks():
    x = make_structure(
        "x", ["x", "y", "z"], [("R1*R2", 3, [(0, 1, 2)])], role="instance",
        block_arities=(2, 1),
    )
    out = unmerge_instance(x)
    assert out.relations[0].tuples == ((0, 1),)
    assert out.relations[1].tuples == ((2,),)
    assert out.relations[0].name == "R1"
    assert out.domain == x.domain


def test_unmerge_of_merge_gives_back_every_row_of_three_blocks():
    """Blocks of arities (1, 3, 2): each relation's rows read back over
    the original elements, the middle block, at offsets 1-3, included;
    every other row of a block holds a pad."""
    x = make_structure(
        "x",
        ["a", "b", "c", "d"],
        [
            ("U", 1, [(0,), (3,)]),
            ("T", 3, [(0, 1, 2), (3, 3, 0), (2, 1, 0)]),
            ("B", 2, [(1, 3), (2, 2)]),
        ],
        role="instance",
    )
    blocks = BlockInfo((1, 3, 2))
    out = unmerge_instance(merge_instance(x, blocks), blocks)
    assert [(r.name, r.arity) for r in out.relations] == [("U", 1), ("T", 3), ("B", 2)]
    assert out.domain[:4] == x.domain
    for orig, back in zip(x.relations, out.relations):
        assert all(len(t) == orig.arity for t in back.tuples)
        assert [t for t in back.tuples if max(t) < 4] == list(orig.tuples)
        assert all(min(t) >= 4 for t in back.tuples if max(t) >= 4)
        assert len(back.tuples) == 7


def test_unmerge_empty():
    x = make_structure(
        "x", ["x"], [("R1*R2", 3, [])], role="instance", block_arities=(2, 1)
    )
    out = unmerge_instance(x)
    assert all(r.tuples == () for r in out.relations)


def test_merge_round_trip_preserves_decisions():
    """Both translation directions agree with the solver on 50 random pairs."""
    rng = Lcg64(11)
    for _ in range(50):
        a = random_multi_template(rng, max_elems=3, max_total_arity=3)
        x = random_instance_for(rng, a, max_elems=4)
        merged_a, blocks = merge_template(a)
        merged_x = merge_instance(x, blocks)
        direct = find_hom(x, a) is not None
        assert (find_hom(merged_x, merged_a) is not None) == direct
        back = unmerge_instance(merged_x, blocks)
        assert (find_hom(back, a) is not None) == direct
