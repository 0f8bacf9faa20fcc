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
from .structures import Digraph, RelStructure, fresh_prefix


def forward_instance(x: RelStructure, k: int) -> Digraph:
    """Gadget digraph for a single-relation instance of arity k.

    Vertices are the instance's elements, then for each tuple t (by
    index) its apex ``<p>y:<t>`` and the interiors ``<p>q:<t>:<i>:<j>``
    of its paths i = 1..k, with j = 1..3k-1 counted from the element end.
    The prefix <p> is the fewest ``_`` such that no element name starts
    with <p>y: or <p>q: (see fresh_prefix), so fresh names never meet
    element names; it is empty for any other instance.

    One tuple's pattern is built once from the k path specs: the
    interior name suffixes, and each edge as a pair of offsets into
    [the tuple's k entries, apex, interiors].  Every tuple is stamped
    from it, so the edges are distinct by construction: each one has an
    end among its own tuple's apex and interiors.  With the fresh names
    apart from the element names, the gadget is valid as built, and it is
    built without Digraph's checks.
    """
    if len(x.relations) != 1:
        raise ArityMismatch("forward translation expects a single-relation instance")
    rel = x.relations[0]
    if rel.arity != k:
        raise ArityMismatch(f"instance arity {rel.arity}, template arity {k}")

    prefix = fresh_prefix(x.domain, ("y:", "q:"))

    suffixes: list[str] = []
    pattern: list[tuple[int, int]] = []
    for pos in range(1, k + 1):
        spec = path_spec(k, [pos])
        first = k + 1 + len(suffixes)
        chain = [pos - 1, *range(first, first + spec.length() - 1), k]
        suffixes += [f"{pos}:{j}" for j in range(1, spec.length())]
        pattern += spec.edges(chain)

    vertices = list(x.domain)
    edges: list[tuple[int, int]] = []
    for tidx, t in enumerate(rel.tuples):
        base = len(vertices)
        q = f"{prefix}q:{tidx}:"
        vertices.append(f"{prefix}y:{tidx}")
        vertices += [q + s for s in suffixes]
        look = [*t, *range(base, len(vertices))]
        edges += [(look[u], look[v]) for u, v in pattern]
    return Digraph._unchecked(f"fwd:{x.name}", tuple(vertices), tuple(edges))


def gadget_size(n_elements: int, n_tuples: int, k: int) -> tuple[int, int]:
    """Exact (vertices, edges) of the gadget, for cross-checking."""
    per_tuple_vertices = 1 + k * (3 * k - 1)
    per_tuple_edges = 3 * k * k
    return (
        n_elements + n_tuples * per_tuple_vertices,
        n_tuples * per_tuple_edges,
    )
