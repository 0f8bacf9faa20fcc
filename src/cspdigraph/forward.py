"""Instance translation into the digraph side of the encoding.

A single-relation instance becomes a digraph gadget: one vertex per
instance element, and for every tuple an apex plus k connecting paths,
the i-th of which has its single edge at position i and runs from the
tuple's i-th entry up to the apex.  An element repeated in a tuple gets
one path per position.  The gadget admits a homomorphism into the
encoded digraph of a template exactly when the instance maps into the
template.
"""

from __future__ import annotations

from .builder import path_spec
from .errors import ArityMismatch
from .structures import Digraph, RelStructure, make_digraph


def forward_instance(x: RelStructure, k: int) -> Digraph:
    """Gadget digraph for a single-relation instance of arity k.

    Fresh vertices are ``y:<tupleindex>`` for apexes and
    ``q:<tupleindex>:<position>:<j>`` for path interiors, with j counted
    from the element end starting at 1.
    """
    if len(x.relations) != 1:
        raise ArityMismatch("forward translation expects a single-relation instance")
    rel = x.relations[0]
    if rel.arity != k:
        raise ArityMismatch(f"instance arity {rel.arity}, template arity {k}")

    vertices = list(x.domain)
    index = {v: i for i, v in enumerate(vertices)}
    edges: list[tuple[int, int]] = []

    def fresh(name: str) -> int:
        index[name] = len(vertices)
        vertices.append(name)
        return index[name]

    for tidx, t in enumerate(rel.tuples):
        apex = fresh(f"y:{tidx}")
        for pos in range(1, k + 1):
            spec = path_spec(k, [pos])
            steps = spec.orientations()
            chain = [t[pos - 1]]
            for j in range(1, len(steps)):
                chain.append(fresh(f"q:{tidx}:{pos}:{j}"))
            chain.append(apex)
            for p, s in enumerate(steps):
                u, v = chain[p], chain[p + 1]
                edges.append((u, v) if s == 1 else (v, u))
    return make_digraph(f"fwd:{x.name}", vertices, edges)


def gadget_size(n_elements: int, n_tuples: int, k: int) -> tuple[int, int]:
    """Exact (vertices, edges) of the gadget, for cross-checking."""
    per_tuple_vertices = 1 + k * (3 * k - 1)
    per_tuple_edges = 3 * k * k
    return (
        n_elements + n_tuples * per_tuple_vertices,
        n_tuples * per_tuple_edges,
    )
