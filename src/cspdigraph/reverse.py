"""Translate a digraph instance back into an instance of the template side.

The pipeline, per connected component of the input digraph; every
stage walks the out- and in-lists of the digraph's cached adjacency:

  stage 1   one walk per component, from its least vertex, finds it
            and writes its levels into one per-vertex list, normalised
            per component; anything unbalanced (walked again, only for
            the witness) or taller than the encoding's height means a
            fixed NO instance overall.  The walk is
            structures.levelled_components, over the out- and in-lists;
            the solver runs the same walk for its level windows.
  stage 2   components strictly lower than the encoding are decided
            directly against the encoded digraph, once per shape (the
            vertex count and the edges renumbered in vertex order, read
            before a digraph is built for a new shape); a NO again
            yields the fixed NO instance, a YES constrains nothing
            further.
  stage 3   full-height components are compiled into hyperedges: the
            induced subgraph between the extreme levels splits into
            internal components, each of which pins a set of tuple
            positions (gamma), read in the walk that finds it, no search
            needed: position l <= k is pinned when an internal vertex at
            level l has an in-edge and an out-edge to a vertex that has
            an out-edge, a directed three-edge walk across levels
            l-1..l+2.  Every edge at an internal vertex belongs to its
            component, and an edge leaving level l <= k ends at an
            internal vertex, so whether a vertex's in- or out-list is
            empty decides it.  Objects of four kinds record who
            must share those positions (types III and IV are read off
            the internal components), an equivalence closure unites each
            group once, and class representatives become the elements of
            the output instance.  Only the type-I sets can outgrow the
            input: one component fills them with |bases|·|tops|·k names.

The output is homomorphism-equivalent to the input by construction;
it only exists when the template is not trivially satisfiable, hence
the TrivialTemplate precondition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .builder import TemplateDigraph, build_digraph
from .errors import InternalInvariantViolation, TrivialTemplate, Unbalanced
from .solver import UnionFind, find_hom
from .structures import (
    Digraph,
    RelStructure,
    fresh_prefix,
    levelled_components,
    make_digraph,
    make_structure,
)


# ---------------------------------------------------------------------------
# Stage 1: components and levels


def components(g: Digraph) -> list[list[int]]:
    """Connected components (ignoring orientation), ordered by least
    vertex: those of levelled_components, which reverse_instance reads."""
    return [comp for comp, _ in levelled_components(*g.adjacency)[1]]


def assign_levels(g: Digraph, comp: list[int]) -> None:
    """Raise Unbalanced when the component has no level function.

    Levels propagate from the least vertex over each vertex's edges in
    edge order, (w, 1) for an edge to w and (w, -1) for one from w,
    listed here in one pass over the edges.  The witness is a closed
    walk with nonzero net orientation, built from the propagation tree
    plus the offending edge.  reverse_instance calls this only on a
    component that levelled_components found unbalanced, so this
    traversal order alone decides the witness.
    """
    nbrs: list[list[tuple[int, int]]] = [[] for _ in g.vertices]
    for u, v in g.edges:
        nbrs[u].append((v, 1))
        nbrs[v].append((u, -1))
    root = comp[0]
    level = {root: 0}
    parent: dict[int, int] = {root: root}
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

                up = back(u)
                down = back(w)
                witness = [g.vertices[i] for i in up[::-1] + down]
                raise Unbalanced(
                    f"component of {g.vertices[root]} admits no level function",
                    witness,
                )


# ---------------------------------------------------------------------------
# Stage 2: low components against the encoded digraph


def stage2_decide(component: Digraph, meta: TemplateDigraph) -> bool:
    return find_hom(component, meta.digraph) is not None


def _component_edges(g: Digraph, comp: list[int]) -> tuple[tuple[int, int], ...]:
    """One component's edges (sorted vertex ids), from its out-edges,
    renumbered in vertex order.  With the vertex count they are equal
    for equal components, so they key one stage-2 decision."""
    at = {v: i for i, v in enumerate(comp)}
    outs = g.adjacency[0]
    return tuple([(at[u], at[w]) for u in comp for w in outs[u]])


def _component_digraph(names: tuple[str, ...], edges: tuple[tuple[int, int], ...]) -> Digraph:
    """A component on its own, from its vertex names and _component_edges.

    A component of a valid digraph is valid: its names are distinct and
    its edges distinct and within it, so it is built without Digraph's
    checks, and only for a shape that stage 2 has not decided yet."""
    return Digraph._unchecked(f"part:{names[0]}", names, edges)


# ---------------------------------------------------------------------------
# Stage 3A: internal components, gamma, and the four object kinds


@dataclass(slots=True)
class InternalComponent:
    cid: int
    vertices: tuple[int, ...]
    base: tuple[int, ...]
    top: tuple[int, ...]
    gamma: frozenset[int] = frozenset()


def internal_components(
    g: Digraph, comp: list[int], levels: list[int], height: int
) -> list[InternalComponent]:
    """Components of the vertices strictly between levels 0 and height,
    each with its gamma for k = height - 2.

    ``levels[v]`` is v's level, from the per-vertex list.
    An out-neighbour of an internal vertex is internal or a top vertex,
    an in-neighbour internal or a base vertex, so one walk over the out-
    and in-lists finds each component's base and top.  The same walk
    reads gamma: position l is forced when an internal vertex u at level
    l <= k has an in-edge and an out-edge to a vertex that has an
    out-edge.  That is the rule of ``gamma`` over the component's own
    edges, because every edge at an internal vertex is one of them, and
    the head of an edge leaving level l <= k is internal.
    """
    outs, ins = g.adjacency
    pinning = height - 1  # internal levels 1..k pin their position
    seen = bytearray(len(levels))  # 1 once a vertex joins a component
    result = []
    for root in comp:
        if seen[root] or not 0 < levels[root] < height:
            continue
        comp_vs = [root]
        base: list[int] = []  # with repeats, one entry per edge
        top: list[int] = []
        forced: set[int] = set()
        seen[root] = 1
        for u in comp_vs:
            lu = levels[u]
            pins = lu < pinning and ins[u]
            for w in outs[u]:
                if pins and outs[w]:
                    forced.add(lu)
                if levels[w] == height:
                    top.append(w)
                elif not seen[w]:
                    seen[w] = 1
                    comp_vs.append(w)
            for w in ins[u]:
                if levels[w] == 0:
                    base.append(w)
                elif not seen[w]:
                    seen[w] = 1
                    comp_vs.append(w)
        comp_vs.sort()
        result.append(
            InternalComponent(
                len(result),
                tuple(comp_vs),
                tuple(sorted(set(base))) if len(base) > 1 else tuple(base),
                tuple(sorted(set(top))) if len(top) > 1 else tuple(top),
                frozenset(forced),
            )
        )
    return result


def _own_edges(g: Digraph, c: InternalComponent) -> list[tuple[int, int]]:
    """Every edge of g with an endpoint among the component's vertices,
    its out-edges and then its in-edges from outside; the other endpoint
    is then a vertex, a base or a top vertex."""
    member = set(c.vertices)
    outs, ins = g.adjacency
    return [(u, w) for u in c.vertices for w in outs[u]] + [
        (w, u) for u in c.vertices for w in ins[u] if w not in member
    ]


def boundary_subgraph(
    g: Digraph, c: InternalComponent, levels: list[int]
) -> tuple[Digraph, dict[str, int]]:
    """The component plus its base and top, with only its own edges: the
    input of the tests' solver-based cross-check of gamma."""
    keep = sorted(c.vertices + c.base + c.top)
    names = [g.vertices[v] for v in keep]
    remap = {v: i for i, v in enumerate(keep)}
    edges = [(remap[u], remap[v]) for u, v in _own_edges(g, c)]
    sub = make_digraph(f"around:{names[0]}", names, edges)
    level_of = {g.vertices[v]: levels[v] for v in keep}
    return sub, level_of


def gamma(g: Digraph, c: InternalComponent, levels: list[int], k: int) -> frozenset[int]:
    """Positions whose segment the component forces to be a single edge.

    Position j is forced exactly when the component (with its base and
    top attached at their true levels) does not map into the path that
    is single everywhere except a zigzag at j.  The one obstruction to
    that fold is a directed three-edge walk crossing levels j-1..j+2,
    so j is forced iff some edge leaving level j has an in-edge at its
    tail and an out-edge at its head, all among the component's edges.
    The tests' reference for the gamma that internal_components reads
    in its walk.
    """
    edges = _own_edges(g, c)
    tails = {u for u, _ in edges}
    heads = {v for _, v in edges}
    return frozenset(
        levels[u]
        for u, v in edges
        if 1 <= levels[u] <= k and u in heads and v in tails
    )


@dataclass(slots=True)
class TypeIObject:
    e: int
    sets: tuple[tuple[str, ...], ...]


@dataclass(slots=True)
class TypeIIObject:
    b: int
    cid: int
    sets: tuple[tuple[str, ...], ...]


def _pairs(groups) -> list[tuple[int, int]]:
    return sorted({(u, v) for grp in groups for u in grp for v in grp if u < v})


@dataclass
class ReverseObjects:
    g: Digraph
    k: int
    internals: list[InternalComponent]
    x_order: tuple[str, ...]
    type1: list[TypeIObject]
    type2: list[TypeIIObject]

    @property
    def edges3(self) -> list[tuple[int, int]]:
        """Type-III objects: the pairs of tops of one internal component."""
        return _pairs(c.top for c in self.internals)

    @property
    def edges4(self) -> list[tuple[int, int]]:
        """Type-IV objects: the pairs of bases of one internal component."""
        return _pairs(c.base for c in self.internals)


def build_objects(
    g: Digraph,
    comp: list[int],
    levels: list[int],
    internals: list[InternalComponent],
    k: int,
    prefix: str = "",
) -> ReverseObjects:
    """The type-I and type-II objects over a full-height component's
    variables: its base at level 0, its tops at level k + 2.

    The variables are the base vertices followed by the fresh ones, each
    named once where it is allocated: alpha for the positions a top-free
    component leaves open above a base, beta for the positions a
    base-free component pins below a top, and gamma-kind for the
    positions of a top that nothing pins.  Fresh names start with the
    prefix and then xa:, xb: or xg:; reverse_instance picks a prefix
    that no base vertex name starts with (see fresh_prefix).
    """
    height = k + 2
    g0: list[int] = []
    gn: list[int] = []
    for v in comp:
        lv = levels[v]
        if lv == 0:
            g0.append(v)
        elif lv == height:
            gn.append(v)
    name = g.vertices.__getitem__

    alpha: dict[tuple[int, int, int], str] = {}
    beta: list[str] = []
    # top-free components by base vertex, in internals order
    top_free_on: dict[int, list[InternalComponent]] = {}
    # (top, position) -> the names that pin it, in internals order
    pinned: dict[tuple[int, int], list[str]] = {}
    for c in internals:
        if not c.top:
            for b in c.base:
                top_free_on.setdefault(b, []).append(c)
                for i in range(1, k + 1):
                    if i not in c.gamma:
                        alpha[c.cid, b, i] = f"{prefix}xa:{c.cid}:{name(b)}:{i}"
        for e in c.top:
            if c.base:
                for i in c.gamma:
                    pinned.setdefault((e, i), []).extend(map(name, c.base))
            else:
                for i in sorted(c.gamma):
                    x = f"{prefix}xb:{c.cid}:{name(e)}:{i}"
                    beta.append(x)
                    pinned.setdefault((e, i), []).append(x)

    # the free positions' names are allocated in the order they are read
    free: list[str] = []
    type1: list[TypeIObject] = []
    for e in gn:
        sets = []
        for i in range(1, k + 1):
            members = pinned.get((e, i))
            if members is None:
                x = f"{prefix}xg:{name(e)}:{i}"
                free.append(x)
                sets.append((x,))
            else:
                sets.append(tuple(dict.fromkeys(members)) if len(members) > 1 else tuple(members))
        type1.append(TypeIObject(e, tuple(sets)))
    x_order = tuple([*map(name, g0), *alpha.values(), *beta, *free])

    type2: list[TypeIIObject] = []
    for b in g0:
        for c in top_free_on.get(b, ()):
            sets = tuple(
                (name(b),) if i in c.gamma else (alpha[c.cid, b, i],)
                for i in range(1, k + 1)
            )
            type2.append(TypeIIObject(b, c.cid, sets))
    return ReverseObjects(g, k, internals, x_order, type1, type2)


# ---------------------------------------------------------------------------
# Stage 3B: equivalence closure and assembly


@dataclass
class SimPartition:
    rep: dict[str, str]
    classes: dict[str, tuple[str, ...]]


def sim_closure(objects: ReverseObjects) -> SimPartition:
    """One equivalence closure that unites each group of variables once.

    The groups are each type-I position set, the bases of each internal
    component (its type-IV pairs) and, per position, the type-I sets of
    its tops (its type-III pairs).  Each set is already one class by
    then, so one member of it stands for the set.  Type-II sets are
    single variables and unite nothing.  A class is headed by its first
    member in x_order, the least index and so the union-find root.
    """
    rank = {x: i for i, x in enumerate(objects.x_order)}
    uf = UnionFind(len(objects.x_order))

    def unite(names):
        it = iter(names)
        first = rank[next(it)]
        for x in it:
            uf.union(first, rank[x])

    for o in objects.type1:
        for members in o.sets:
            if len(members) > 1:
                unite(members)
    by_top = {o.e: o.sets for o in objects.type1}
    for c in objects.internals:
        if len(c.base) > 1:
            unite(objects.g.vertices[b] for b in c.base)
        if len(c.top) > 1:
            for i in range(objects.k):
                unite(by_top[e][i][0] for e in c.top)

    classes: dict[int, list[str]] = {}
    for i, x in enumerate(objects.x_order):
        classes.setdefault(uf.find(i), []).append(x)
    rep = {x: members[0] for members in classes.values() for x in members}

    # a one-member set cannot straddle classes
    for o in objects.type1:
        for members in o.sets:
            if len(members) > 1 and len({rep[x] for x in members}) != 1:
                raise InternalInvariantViolation(
                    f"object set {members} straddles classes after closure"
                )
    return SimPartition(rep, {m[0]: tuple(m) for m in classes.values()})


def assemble_instance(
    objects: ReverseObjects, partition: SimPartition, offset: int = 0
) -> tuple[list[str], list[tuple[int, ...]]]:
    """(domain, rows): the class representatives, and one hyperedge of
    them per type-I and type-II object, by index into the domain plus
    offset (where the domain starts in a larger one)."""
    rep = partition.rep
    domain = [x for x in objects.x_order if rep[x] == x]
    head = {x: i for i, x in enumerate(domain, offset)}
    at = {x: head[r] for x, r in rep.items()}
    rows = [tuple([at[s[0]] for s in o.sets]) for o in objects.type1]
    rows += [tuple([at[s[0]] for s in o.sets]) for o in objects.type2]
    return domain, rows


# ---------------------------------------------------------------------------
# Fixed instances and the full pipeline


def template_is_trivial(template: RelStructure) -> bool:
    rel = template.relations[0]
    return any(len(set(t)) == 1 for t in rel.tuples)


def fixed_no(template: RelStructure) -> RelStructure:
    """One element with a loop tuple; unsatisfiable without a constant tuple."""
    rel = template.relations[0]
    return make_structure(
        "fixed-no", ["x"], [(rel.name, rel.arity, [(0,) * rel.arity])], role="instance"
    )


def fixed_yes(template: RelStructure) -> RelStructure:
    rel = template.relations[0]
    k = rel.arity
    return make_structure(
        "fixed-yes",
        [f"y{i}" for i in range(1, k + 1)],
        [(rel.name, k, [tuple(range(k))])],
        role="instance",
    )


@dataclass
class ComponentReport:
    vertices: tuple[str, ...]
    stage: str
    detail: str = ""
    objects: ReverseObjects | None = None
    partition: SimPartition | None = None


@dataclass
class ReverseResult:
    instance: RelStructure
    mode: str  # "assembled" | "fixed-no" | "fixed-yes"
    reports: list[ComponentReport] = field(default_factory=list)


def reverse_instance(g: Digraph, template: RelStructure) -> ReverseResult:
    """Full pipeline; the output is hom-equivalent to the input.

    Raises TrivialTemplate when the template admits a constant tuple, in
    which case no fixed NO instance can exist; build_digraph raises first
    when the template has more than one relation.
    """
    meta = build_digraph(template)
    if template_is_trivial(template):
        raise TrivialTemplate(
            f"template {template.name!r} has a constant tuple; every instance maps"
        )
    k = template.relations[0].arity
    n = k + 2

    reports: list[ComponentReport] = []
    stage3: list[tuple[list[int], tuple[str, ...]]] = []
    levels, parts = levelled_components(*g.adjacency)
    name = g.vertices.__getitem__
    decided: dict[tuple, bool] = {}  # stage 2 answers by component shape
    for comp, height in parts:
        names = tuple(map(name, comp))
        if height is None:
            try:
                assign_levels(g, comp)
            except Unbalanced as exc:
                reports.append(
                    ComponentReport(names, "fixed-no", f"unbalanced: {' '.join(exc.witness)}")
                )
                return ReverseResult(fixed_no(template), "fixed-no", reports)
            raise InternalInvariantViolation(
                f"component of {names[0]} has a level function on a second walk"
            )
        if height > n:
            reports.append(ComponentReport(names, "fixed-no", f"height {height} > {n}"))
            return ReverseResult(fixed_no(template), "fixed-no", reports)
        if height < n:
            edges = _component_edges(g, comp)
            key = (len(comp), edges)
            if key not in decided:
                decided[key] = stage2_decide(_component_digraph(names, edges), meta)
            if not decided[key]:
                reports.append(ComponentReport(names, "fixed-no", "low component, no map"))
                return ReverseResult(fixed_no(template), "fixed-no", reports)
            reports.append(ComponentReport(names, "low-yes"))
        else:
            stage3.append((comp, names))

    if not stage3:
        reports.append(ComponentReport((), "fixed-yes", "no full-height component"))
        return ReverseResult(fixed_yes(template), "fixed-yes", reports)

    # base vertices are the only input names in the output domain
    prefix = fresh_prefix(
        (name(v) for comp, _ in stage3 for v in comp if levels[v] == 0),
        ("xa:", "xb:", "xg:"),
    )
    domains: list[str] = []
    rows: list[tuple[int, ...]] = []
    rel = template.relations[0]
    cid_offset = 0
    for comp, names in stage3:
        internals = internal_components(g, comp, levels, n)
        for c in internals:
            c.cid += cid_offset
        cid_offset += len(internals)
        objects = build_objects(g, comp, levels, internals, k, prefix)
        partition = sim_closure(objects)
        domain, part_rows = assemble_instance(objects, partition, len(domains))
        domains += domain
        rows += part_rows
        reports.append(
            ComponentReport(names, "assembled", objects=objects, partition=partition)
        )
    out = make_structure(
        f"rev:{g.name}", domains, [(rel.name, rel.arity, rows)], role="instance"
    )
    return ReverseResult(out, "assembled", reports)
