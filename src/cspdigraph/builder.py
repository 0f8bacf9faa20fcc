"""Construction of connecting paths and the balanced digraph of a template.

A single-relation template (A; R) with R of arity k is encoded as a
balanced digraph of height k+2: one vertex per element, one per tuple,
and for every (element, tuple) pair an oriented connecting path between
them.  The path has k middle segments; segment i is a single edge when
the element sits at position i of the tuple and a zigzag otherwise.

Vertex naming is exact and stable:

    elements   a:<name>
    tuples     r:<name1>,...,<namek>
    interiors  p:<aname>|<name1>,...,<namek>|<j>

with j counted from the element end starting at 1.  Vertex order is all
elements (declaration order), all tuples (tuple-lex), then interiors by
(element, tuple) pair and distance from the element end: element i is
vertex i and tuple t of the sorted relation is vertex |A| + t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import PreconditionError
from .structures import Digraph, RelStructure, make_digraph, serialize_digraph

ZIGZAG = (1, -1, 1)
SINGLE = (1,)


@dataclass(frozen=True)
class PathSpec:
    """Arity k and the subset of [k] whose segment is a single edge."""

    k: int
    singles: frozenset[int]

    def __post_init__(self):
        if self.k < 1:
            raise PreconditionError("path spec needs k >= 1")
        if not all(1 <= i <= self.k for i in self.singles):
            raise PreconditionError(f"singles {set(self.singles)} not within [1..{self.k}]")

    def orientations(self) -> tuple[int, ...]:
        """Edge directions from the element end: +1 up, -1 down."""
        steps: list[int] = [1]
        for l in range(1, self.k + 1):
            steps.extend(SINGLE if l in self.singles else ZIGZAG)
        steps.append(1)
        return tuple(steps)

    def segment_positions(self, l: int) -> range:
        """Vertex positions (inclusive) covered by segment l."""
        if not 1 <= l <= self.k:
            raise PreconditionError(f"segment {l} out of range")
        start = 1
        for j in range(1, l):
            start += 1 if j in self.singles else 3
        width = 1 if l in self.singles else 3
        return range(start, start + width + 1)

    def length(self) -> int:
        """Number of edges; the path has length()+1 vertices."""
        return 2 + self.k + 2 * (self.k - len(self.singles))

    def segment_sets(self) -> tuple[frozenset[int], ...]:
        """For each vertex position, the segments containing it."""
        sets: list[set[int]] = [set() for _ in range(self.length() + 1)]
        for l in range(1, self.k + 1):
            for p in self.segment_positions(l):
                sets[p].add(l)
        return tuple(map(frozenset, sets))


def path_spec(k: int, singles: Iterable[int] = ()) -> PathSpec:
    return PathSpec(k, frozenset(singles))


def build_path(spec: PathSpec, name: str | None = None) -> Digraph:
    """The oriented path of a spec, with levels; q0 is the initial vertex."""
    steps = spec.orientations()
    n = len(steps) + 1
    vertices = [f"q{i}" for i in range(n)]
    levels = [0]
    for s in steps:
        levels.append(levels[-1] + s)
    edges = []
    for i, s in enumerate(steps):
        edges.append((i, i + 1) if s == 1 else (i + 1, i))
    return make_digraph(
        name or f"path:k{spec.k}:" + ",".join(map(str, sorted(spec.singles))),
        vertices,
        edges,
        levels=levels,
    )


def index_set(a: int, r: Sequence[int]) -> frozenset[int]:
    """Positions (1-based) of the tuple holding the given element index."""
    return frozenset(i + 1 for i, ri in enumerate(r) if ri == a)


@dataclass
class TemplateDigraph:
    """The built digraph plus everything needed to navigate it.

    This is the one record of what each vertex is: an element or a tuple
    by its place in the vertex order (see the module docstring), an
    interior by its path and position.  All fields are populated by
    build_digraph and must be treated as read-only; sharing an instance
    across threads is safe.
    """

    template: RelStructure
    digraph: Digraph
    k: int
    tuples: tuple[tuple[int, ...], ...]  # tuple-lex order
    elem_vid: tuple[int, ...]
    tuple_vid: dict[tuple[int, ...], int]
    path_specs: dict[tuple[int, tuple[int, ...]], PathSpec]
    path_vids: dict[tuple[int, tuple[int, ...]], tuple[int, ...]]
    # the vertex ids of segment l of path e, keyed (e, l)
    segments: dict[tuple[tuple[int, tuple[int, ...]], int], tuple[int, ...]]
    # per-vertex arrays; elements are exactly the vertices at level 0 and
    # tuples exactly those at level k+2
    lvl: tuple[int, ...]
    v_path: tuple[tuple[int, tuple[int, ...]] | None, ...]
    v_pos: tuple[int | None, ...]
    v_segs: tuple[frozenset[int], ...]  # segments holding the vertex; empty off paths
    sides: tuple[int, ...]  # bit 1: an outgoing edge; bit 2: an incoming one

    @property
    def height(self) -> int:
        return self.k + 2

    @cached_property
    def digraph_structure(self) -> RelStructure:
        """The digraph as a template structure, built once per instance."""
        return self.digraph.as_structure("template")

    def stats(self) -> tuple[int, int, int, bool]:
        """(vertices, edges, height, counts-match-the-closed-formulas)."""
        na, nr, k = len(self.template.domain), len(self.tuples), self.k
        want_v = (3 * k + 1) * nr * na + (1 - 2 * k) * nr + na
        want_e = (3 * k + 2) * nr * na - 2 * k * nr
        nv, ne = len(self.digraph.vertices), len(self.digraph.edges)
        height = max(self.lvl) if self.lvl else 0
        return nv, ne, height, (nv, ne, height) == (want_v, want_e, k + 2)


def _tuple_name(template: RelStructure, r: tuple[int, ...]) -> str:
    return ",".join(template.domain[i] for i in r)


def build_digraph(template: RelStructure) -> TemplateDigraph:
    """Encode a single-relation template as its balanced digraph."""
    if len(template.relations) != 1:
        raise PreconditionError(
            f"template {template.name!r} must have a single relation; merge first"
        )
    rel = template.relations[0]
    k = rel.arity
    tuples = tuple(sorted(rel.tuples))

    vertices: list[str] = []
    levels: list[int] = []

    def add(name: str, lvl: int) -> int:
        vertices.append(name)
        levels.append(lvl)
        return len(vertices) - 1

    elem_vid = tuple(add(f"a:{name}", 0) for name in template.domain)
    tuple_vid = {r: add(f"r:{_tuple_name(template, r)}", k + 2) for r in tuples}

    edges: list[tuple[int, int]] = []
    path_specs: dict[tuple[int, tuple[int, ...]], PathSpec] = {}
    path_vids: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    segments: dict[tuple[tuple[int, tuple[int, ...]], int], tuple[int, ...]] = {}
    v_path: list[tuple[int, tuple[int, ...]] | None] = [None] * len(vertices)
    v_pos: list[int | None] = [None] * len(vertices)
    v_segs: list[frozenset[int]] = [frozenset()] * len(vertices)

    for a in range(len(template.domain)):
        aname = template.domain[a]
        for r in tuples:
            e = (a, r)
            spec = PathSpec(k, index_set(a, r))
            path_specs[e] = spec
            steps = spec.orientations()
            segs = spec.segment_sets()
            vids = [elem_vid[a]]
            level = 0
            for j, s in enumerate(steps[:-1], start=1):
                level += s
                vid = add(f"p:{aname}|{_tuple_name(template, r)}|{j}", level)
                v_path.append(e)
                v_pos.append(j)
                v_segs.append(segs[j])
                vids.append(vid)
            vids.append(tuple_vid[r])
            path_vids[e] = tuple(vids)
            for l in range(1, k + 1):
                segments[e, l] = tuple(vids[p] for p in spec.segment_positions(l))
            for p, s in enumerate(steps):
                u, v = vids[p], vids[p + 1]
                edges.append((u, v) if s == 1 else (v, u))

    g = make_digraph(f"dg:{template.name}", vertices, edges, levels)
    return TemplateDigraph(
        template=template,
        digraph=g,
        k=k,
        tuples=tuples,
        elem_vid=elem_vid,
        tuple_vid=tuple_vid,
        path_specs=path_specs,
        path_vids=path_vids,
        segments=segments,
        lvl=tuple(levels),
        v_path=tuple(v_path),
        v_pos=tuple(v_pos),
        v_segs=tuple(v_segs),
        sides=tuple(sum({1 if d == 1 else 2 for _, d in nbrs}) for nbrs in g.neighbours),
    )


# ---------------------------------------------------------------------------
# Digraph file with provenance comments: each vertex's level and role.


def dmeta_to_text(meta: TemplateDigraph) -> str:
    """The digraph file with the provenance comments after its header line."""
    g, template = meta.digraph, meta.template
    na = len(template.domain)
    notes = [
        f"# template {template.name}",
        "# relation " + template.relations[0].name,
    ]
    for i, v in enumerate(g.vertices):
        if meta.v_path[i] is not None:
            a, r = meta.v_path[i]
            note = (
                f"internal {template.domain[a]} "
                f"{_tuple_name(template, r)} {meta.v_pos[i]}"
            )
        elif i < na:
            note = f"element {template.domain[i]}"
        else:
            note = "tuple " + _tuple_name(template, meta.tuples[i - na])
        notes.append(f"# provenance {v} level {g.levels[i]} {note}")
    head, body = serialize_digraph(g).split("\n", 1)
    return "\n".join([head, *notes, body])
