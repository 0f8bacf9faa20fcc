"""Zigzag witnesses and the lifting of polymorphisms to the encoded digraph.

The zigzag 00->01<-10->11 carries a distributive lattice under the
order 00 < 01 < 10 < 11, so it has witnesses for most identity sets;
``lift_all`` searches the zigzag for them unless they are supplied.  The
one witness built here is the all-minimum operation of any arity (the
meet, at arity 2), which lifts endomorphisms as its unary case.

An m-ary polymorphism of the template combines with an m-ary zigzag
witness into an m-ary polymorphism of the encoded digraph.  Inputs
split by the connected component of the m-th power they live in: on the
diagonal component the template operation dictates the target path and
the zigzag witness picks within a zigzag segment; everywhere else two
linear orders on the vertices make a uniform choice.  Both orders put
elements before interiors before tuples by level; they differ only in
how same-level interiors on different paths compare, element-major
versus tuple-major.

Endomorphisms lift as the unary case, with the zigzag's identity as the
witness; that is why being a core carries over.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .builder import TemplateDigraph
from .errors import (
    ArityMismatch,
    InternalInvariantViolation,
    NotAPolymorphism,
    NotEndomorphism,
    PreconditionError,
    ShapeViolation,
    ZigzagWitnessFails,
)
from .identities import IdentitySet, OpTable, argument_pattern, check_arguments, check_values
from .solver import find_operations, identity_results, is_hom, is_polymorphism, satisfies
from .structures import Digraph, make_digraph

Z_VERTICES = ("00", "01", "10", "11")
Z_EDGES = ((0, 1), (2, 1), (2, 3))
_LOW = (0, 2)  # vertices with an outgoing edge
_HIGH = (1, 3)


def zigzag() -> Digraph:
    return make_digraph("zigzag", Z_VERTICES, Z_EDGES)


def _zz_table(name: str, arity: int, fn) -> OpTable:
    values = tuple(
        fn(args) for args in itertools.product(range(4), repeat=arity)
    )
    table = OpTable(name, arity, 4, values)
    problem = zigzag_witness_problem(table)
    if problem:
        raise InternalInvariantViolation(f"{name}: {problem}")
    return table


def zigzag_witness_problem(op) -> str | None:
    """Why a table cannot serve as a zigzag witness, or None if it can.

    Idempotency is part of the contract: segment boundaries of a lifted
    operation are fixed points of constant tuples, so a non-idempotent
    witness would break the edge-preservation argument.
    """
    if not is_polymorphism(op, zigzag()):
        return "not a polymorphism of the zigzag"
    if not op.is_idempotent():
        return "not idempotent"
    for block in (_LOW, _HIGH):
        for args in itertools.product(block, repeat=op.arity):
            if op(args) not in block:
                return "does not preserve the out-degree/in-degree classes"
    return None


def zz_allmin(arity: int) -> OpTable:
    return _zz_table("allmin", arity, lambda a: min(a))


# ---------------------------------------------------------------------------
# The two linear orders


def order_key(meta: TemplateDigraph, variant: str = "ar"):
    """Total-order key on vertices; variant 'ar' is element-major on
    interior paths, 'ra' is tuple-major (the starred order)."""
    if variant not in ("ar", "ra"):
        raise PreconditionError(f"unknown order variant {variant!r}")
    lvl, coords = meta.lvl, meta.coords
    if variant == "ar":
        # the vertex order is already element-major: elements, tuples, then
        # the interiors path by path and up each path
        return lambda vid: (lvl[vid], vid)
    na, tuple_vid = len(meta.template.domain), meta.tuple_vid

    def key(vid: int):
        # an interior's path ranked tuple-major (tuple t is vertex |A| + t);
        # elements and tuples are alone on their levels
        e = coords[vid]
        return (lvl[vid], tuple_vid[e[1:]] * na + e[0] if e else 0, vid)

    return key


# ---------------------------------------------------------------------------
# The diagonal component of a power


def in_delta(meta: TemplateDigraph, c: tuple[int, ...]) -> bool:
    """Membership in the connected component of the diagonal of the power.

    Equal-level tuples sit there exactly when they all have an outgoing
    edge or all an incoming one; every other equal-level tuple is isolated
    in its power.  `verify delta` checks this against a search.
    """
    lvl, sides = meta.lvl, meta.sides
    level = lvl[c[0]]
    common = 3
    for v in c:
        if lvl[v] != level:
            return False
        common &= sides[v]
    return common != 0


# ---------------------------------------------------------------------------
# The case analysis, kept as the reference


@dataclass(frozen=True, slots=True)
class CaseData:
    """The case of a vertex tuple, with what its value is computed from.

    Cases 2a-2c carry the carriers' coordinates, the target path's e, the
    common segment l and, for 2b/2c, which carriers zigzag at l; case 3a
    carries its two carriers' coordinates.  The other cases carry only
    their tag.
    """

    tag: str
    paths: tuple | None = None
    e: tuple | None = None
    l: int | None = None
    labels: tuple | None = None


def classify(meta: TemplateDigraph, c: tuple[int, ...], f_a: OpTable) -> CaseData:
    """The case of the lifting proof that a vertex tuple falls in.

    This is the reference, not a production path: LiftedOp never calls
    it, and the tests compute each case's value from it and compare.  It
    stays in the package only while the benchmark's traced pass wraps it
    by name and counts its tags.
    """
    levels = set(map(meta.lvl.__getitem__, c))
    if len(levels) == 2:
        return CaseData("3b")
    if len(levels) != 1:
        return CaseData("3c")
    level = meta.lvl[c[0]]
    if level == 0:
        return CaseData("1a")
    if level == meta.k + 2:
        return CaseData("1b")
    if in_delta(meta, c):
        es = tuple(meta.coords[v] for v in c)
        e = tuple(map(f_a, zip(*es)))
        common = functools.reduce(operator.and_, map(meta.segs.__getitem__, c))
        if not common:
            raise InternalInvariantViolation(
                f"diagonal-component tuple {c} has no common segment"
            )
        l = (common & -common).bit_length() - 1
        if meta.paths[e][0] >> l & 1:
            return CaseData("2a", paths=es, e=e, l=l)
        zig = tuple(not meta.paths[ei][0] >> l & 1 for ei in es)
        return CaseData("2b" if all(zig) else "2c", paths=es, e=e, l=l, labels=zig)
    carriers = {meta.coords[v] for v in c}
    if len(carriers) == 2:
        return CaseData("3a", paths=tuple(sorted(carriers)))
    return CaseData("3c")


# ---------------------------------------------------------------------------
# The lifted operation

# what tabulate does for a last place on a given level: take the 'ar'-least
# or the 'ra'-greatest vertex of the tuple, finish cases 2a-2c from the
# prefix's diagonal state when the tuple is in the diagonal component, or
# evaluate it one by one
_LEAST, _GREATEST, _DIAGONAL, _CALL = range(4)


class _Prefix(NamedTuple):
    """What cases 2a-2c need of every place of a tuple but the last.

    targets memoises the target path: each source path a last vertex is
    on (its coordinates meta.coords[v]) is resolved to the path f_a picks,
    meta.paths[...], the first time a tuple finished from this prefix
    needs it, and read from here for every later tuple on the same path.
    The target depends on the prefix only through coords, so within one
    tabulate every prefix with the same coords holds the same dict.
    """

    values: tuple[int, ...]  # the vertex at each place
    at: tuple[int, ...] | range  # the argument pattern
    sides: int  # AND of the vertices' sides, as in_delta takes it
    segs: int  # AND of the vertices' segment bitmasks
    singles: int  # OR of the vertices' own single segments
    coords: list[int]  # partial flat index into f_a of each path coordinate
    z_sums: list[int]  # per segment: partial flat index into f_z
    least: list[int]  # per segment: least offset of a zigzag carrier, or 4
    a_last: int  # the last place's weight in the flat index of f_a
    z_last: int  # and in that of f_z
    targets: dict  # source path -> (single segments, segments) of its target path


class LiftedOp:
    """Sparse lifted operation over the encoded digraph's vertices.

    One evaluator computes every case of the lifting proof (classify is
    the reference it is tested against) from the encoding's record and
    ints built once here.  A
    tuple in the diagonal component (see in_delta) is case 1a on the
    elements, 1b on the tuples and 2a-2c on an interior level; off it,
    f_z chooses between two classes of argument positions, read from one
    table of f_z over 0/2 labels.  Cases 2a-2c take two steps, a state
    built from every argument but the last and a finish at the last one,
    and tabulate, which computes the values over a whole product of
    vertex sets in bulk, builds that state once for each prefix of the
    product on one interior level and finishes each tuple from it.  It
    evaluates one by one only the tuples on the element or the tuple
    level and those on one level outside the diagonal component; nothing
    the size of |D|^m is ever materialized unless asked for, and no value
    is remembered between calls.  Order-least and order-greatest choices
    are minima over the rank of every vertex under each of the two
    orders, built here too.
    """

    def __init__(self, meta: TemplateDigraph, f_a: OpTable, f_z: OpTable):
        if f_a.arity != f_z.arity:
            raise ArityMismatch(
                f"template witness is {f_a.arity}-ary, zigzag witness {f_z.arity}-ary"
            )
        if f_a.size != len(meta.template.domain):
            raise ArityMismatch("template witness is over the wrong domain")
        if not is_polymorphism(f_a, meta.template):
            raise NotAPolymorphism(f"{f_a.name!r} does not preserve the relation")
        problem = zigzag_witness_problem(f_z)
        if problem:
            raise NotAPolymorphism(f"{f_z.name!r}: {problem}")
        self.meta = meta
        self.f_a = f_a
        self.f_z = f_z
        self.name = f"lift:{f_a.name}"
        self.arity = m = f_a.arity
        self.size = len(meta.digraph.vertices)
        k = meta.k
        # vertices listed in each order, and each vertex's place in it; both
        # orders rank by level first
        self._by_rank = sorted(range(self.size), key=order_key(meta, "ar"))
        self._by_rank_star = sorted(range(self.size), key=order_key(meta, "ra"))
        self._rank = {v: i for i, v in enumerate(self._by_rank)}
        self._rank_star = {v: i for i, v in enumerate(self._by_rank_star)}
        # what the diagonal cases read of each vertex, in one record: its
        # sides, segments, path coordinates and level from meta, its own
        # path's single segments, and its offset within each of its
        # segments, or 4 (past any segment) where its own path is a single
        # edge
        own_singles = [meta.paths[e][0] if e else 0 for e in meta.coords]
        offset = [[0] * (k + 1) for _ in range(self.size)]
        for singles, segments in meta.paths.values():
            for l in range(1, k + 1):
                for o, v in enumerate(segments[l]):
                    offset[v][l] = 4 if singles >> l & 1 else o
        self._vertex = list(
            zip(meta.sides, meta.segs, meta.coords, meta.lvl, own_singles, offset)
        )
        # each argument position's weight in the flat index of f_a and of f_z
        self._a_weight = [f_a.size ** (m - 1 - i) for i in range(m)]
        self._z_weight = [f_z.size ** (m - 1 - i) for i in range(m)]
        # _picks_least[mask]: f_z sends to 0 the labels that are 0 at the
        # argument positions in mask and 2 elsewhere
        self._picks_least = [
            f_z(tuple([0 if mask >> i & 1 else 2 for i in range(m)])) == 0
            for mask in range(1 << m)
        ]

    def _least(self, vids) -> int:
        """The 'ar'-least of the given vertices."""
        return self._by_rank[min(map(self._rank.__getitem__, vids))]

    def _diagonal_prefix(self, values, at, a_weight, z_weight, shared=None) -> _Prefix:
        """The state of cases 2a-2c after every place but the last.

        values holds the vertex at each of those places, all on one
        interior level; at is the argument pattern, and a_weight and
        z_weight give each place's weight in the flat index of f_a and of
        f_z, the sum of the weights of its argument positions.  Per segment
        entries are filled only for the segments every vertex is on, and
        z_sums[l] is read only if no vertex's own path is a single edge at l.
        shared, if given, maps coords to the targets dict of the prefixes
        built before with the same a_weight (see _Prefix).
        """
        k, vertex = self.meta.k, self._vertex
        sides, segs, singles, coords, offsets = 3, -1, 0, [0] * (k + 1), []
        for v, a in zip(values, a_weight):
            v_sides, v_segs, source, _, own_singles, offset = vertex[v]
            sides &= v_sides
            segs &= v_segs
            singles |= own_singles
            coords = [x + y * a for x, y in zip(coords, source)]
            offsets.append(offset)
        z_sums, least = [0] * (k + 1), [4] * (k + 1)
        # the vertices' offsets on each segment, if there are vertices; no
        # vertex's segments hold bit 0
        for l, on_l in enumerate(zip(*offsets)):
            if segs >> l & 1:
                z_sums[l] = sum(map(operator.mul, on_l, z_weight))
                least[l] = min(on_l)
        targets = {} if shared is None else shared.setdefault(tuple(coords), {})
        return _Prefix(
            values, at, sides, segs, singles, coords, z_sums, least,
            a_weight[-1], z_weight[-1], targets,
        )

    def _diagonal_value(self, prefix: _Prefix, v: int) -> int:
        """Cases 2a-2c at the prefix's arguments and v at the last place,
        a tuple in the diagonal component on an interior level: f_a picks
        the target path, the lowest common segment l picks its segment, and
        on that segment the end on the tuple's level is the value (2a, a
        single edge), f_z decides on the offsets (2b, zigzags on every
        carrier) or the least offset of a zigzag carrier wins (2c, which
        is the 'ar'-least candidate).  The target path is looked up once
        per source path and prefix (see _Prefix.targets)."""
        _, _, _, segs, singles, coords, z_sums, least, a, z, targets = prefix
        _, own_segs, source, level, own_singles, offset = self._vertex[v]
        common = segs & own_segs
        if not common:
            c = tuple(map((*prefix.values, v).__getitem__, prefix.at))
            raise InternalInvariantViolation(
                f"diagonal-component tuple {c} has no common segment"
            )
        target = targets.get(source)
        if target is None:
            fa = self.f_a.values
            key = tuple([fa[x + y * a] for x, y in zip(coords, source)])
            target = targets[source] = self.meta.paths[key]
        target_singles, segments = target
        bit = common & -common
        l = bit.bit_length() - 1
        seg = segments[l]
        if target_singles & bit:
            # segment l climbs from level l to level l+1
            return seg[level - l]
        if (singles | own_singles) & bit:
            # a segment's vertices on one level are ordered by position; a
            # carrier that is a single edge at l has offset 4 and never wins
            return seg[min(least[l], offset[l])]
        return seg[self.f_z.values[z_sums[l] + offset[l] * z]]

    def _off_diagonal(self, c: tuple[int, ...]) -> int:
        """Cases 3a-3c: f_z chooses between two classes of c's positions,
        labelled 0 for the class of the 'ar'-least vertex and 2 for the
        other: two levels (3b; the value is the 'ar'-least or the
        'ra'-greatest vertex), two carriers on one level (3a; the lower
        carrier holds the least vertex) or two vertices on one carrier
        (the isolated 3c), where the value is the chosen class's 'ar'-least
        vertex.  Any other tuple takes its 'ar'-least vertex."""
        meta = self.meta
        low = self._least(c)
        several = any(meta.lvl[v] != meta.lvl[low] for v in c)
        classes = list(map((meta.lvl if several else meta.coords).__getitem__, c))
        if len(set(classes)) == 1:
            classes = c
        if len(set(classes)) != 2:
            return low
        mine = classes[c.index(low)]
        if self._picks_least[sum(1 << i for i, x in enumerate(classes) if x == mine)]:
            return low
        if several:
            return self._by_rank_star[max(map(self._rank_star.__getitem__, c))]
        return self._least([v for v, x in zip(c, classes) if x != mine])

    def _value(self, c: tuple[int, ...]) -> int:
        """The value at c, whose arguments are known to be vertices."""
        meta = self.meta
        if in_delta(meta, c):
            level = meta.lvl[c[0]]
            if level == 0:
                # case 1a; element i is vertex i
                return self.f_a(c)
            if level == meta.k + 2:
                # case 1b; tuple t is vertex |A| + t
                rows = [meta.tuples[v - len(meta.template.domain)] for v in c]
                return meta.tuple_vid[tuple(map(self.f_a, zip(*rows)))]
            # cases 2a-2c, the two steps tabulate takes, with each place
            # at one argument position
            prefix = self._diagonal_prefix(
                c[:-1], range(self.arity), self._a_weight, self._z_weight
            )
            return self._diagonal_value(prefix, c[-1])
        return self._off_diagonal(c)

    def __call__(self, c: tuple[int, ...]) -> int:
        """The value at c: arity vertex ids (see check_arguments)."""
        check_arguments(self, c)
        return self._value(c)

    def tabulate(self, values, m: int, at=None) -> list[int]:
        """[self(tuple(env[p] for p in at)) for env in product(values, repeat=P)],
        in bulk, for the pattern at of P places (see argument_pattern).

        The product is walked in order, and each prefix of P-1 places
        carries the levels it meets (a bitmask), its least 'ar' rank, its
        greatest 'ra' rank and the argument positions on its lowest level
        (a bitmask; a place adds all of its positions).  A tuple on three
        or more levels is case 3c, and its value the 'ar'-least vertex.  A
        tuple on two levels is case 3b, and its value the 'ar'-least or the
        'ra'-greatest vertex as f_z decides on the 0/2 labels of the
        lowest-level positions (read from _picks_least, as calls do).  What
        each level's last vertices take, one of those two, the diagonal
        finish or a call, depends only on (levels met, lowest level,
        positions on it), so it is worked out once per such prefix state
        and remembered for the rest of the walk.  A prefix on one interior
        level builds the state of cases 2a-2c once (_diagonal_prefix, with
        per-place weights), and every tuple it makes in the diagonal
        component on that level is finished from it (_diagonal_value), the
        two steps every call takes.  The prefixes with the same partial
        flat index into f_a share their target paths, each source path's
        resolved once (see _Prefix).  Only tuples on the element or the
        tuple level, and tuples on one level outside the diagonal
        component, are evaluated one by one.  The values are checked once,
        not per tuple.
        """
        at, places = argument_pattern(self, m, at)
        values = list(values)
        check_values(self, values)
        lvl, sides, rank, rank_star = self.meta.lvl, self.meta.sides, self._rank, self._rank_star
        picks_least, finish, value = self._picks_least, self._diagonal_value, self._value
        by_rank, by_rank_star = self._by_rank, self._by_rank_star
        # the argument positions of each place, and its weights in the flat
        # indices of f_a and f_z
        masks, a_weight, z_weight = [0] * places, [0] * places, [0] * places
        for i, p in enumerate(at):
            masks[p] |= 1 << i
            a_weight[p] += self._a_weight[i]
            z_weight[p] += self._z_weight[i]
        last = masks[-1]
        columns = [(v, rank[v], rank_star[v], lvl[v]) for v in values]
        levels = sorted({lvl[v] for v in values})
        top = max(levels, default=0) + 1  # past every level of the values
        # the levels of elements and of tuples
        outer = 1 | 1 << (self.meta.k + 2)
        # the state after each place of the current prefix: (levels met as a
        # bitmask, lowest level, positions on it as a bitmask, least 'ar'
        # rank, greatest 'ra' rank)
        states = [(0, top, 0, self.size, -1)]
        # the kinds per level of each (levels met, lowest level, positions
        # on it) a prefix has had so far
        memo: dict[tuple[int, int, int], list[int]] = {}
        # the target paths per partial flat index into f_a (see _Prefix)
        shared: dict[tuple[int, ...], dict] = {}
        out: list[int] = []
        for idx in itertools.product(range(len(values)), repeat=places - 1):
            # in product order the places from the last nonzero index on
            # changed (all of them the first time round)
            start = max(places - 2, 0)
            while start > 0 and idx[start] == 0:
                start -= 1
            del states[start + 1 :]
            for place in range(start, places - 1):
                met, lo, lows, least, greatest = states[-1]
                _, r, rs, lv = columns[idx[place]]
                if lv < lo:
                    lo, lows = lv, masks[place]
                elif lv == lo:
                    lows |= masks[place]
                states.append((met | 1 << lv, lo, lows, min(least, r), max(greatest, rs)))
            met, lo, lows, least, greatest = states[-1]
            kinds = memo.get((met, lo, lows))
            if kinds is None:
                kinds = memo[met, lo, lows] = [_CALL] * top
                for lv in levels:
                    both = met | 1 << lv
                    if both == 1 << lv:
                        kinds[lv] = _CALL if both & outer else _DIAGONAL
                    elif both.bit_count() > 2:
                        kinds[lv] = _LEAST
                    else:
                        on_low = last if lv < lo else lows | last if lv == lo else lows
                        kinds[lv] = _LEAST if picks_least[on_low] else _GREATEST
            least_v = by_rank[least] if met else None
            greatest_v = by_rank_star[greatest] if met else None
            # only a prefix on one level (or none yet, with one place) makes
            # tuples that are finished or called, which read its vertices
            if not met & (met - 1):
                prefix = tuple([values[i] for i in idx])
                if not met & outer:
                    diagonal = self._diagonal_prefix(prefix, at, a_weight, z_weight, shared)
            out.extend(
                [
                    (v if r < least else least_v)
                    if (kind := kinds[lv]) == _LEAST
                    else (v if rs > greatest else greatest_v)
                    if kind == _GREATEST
                    else finish(diagonal, v)
                    if kind == _DIAGONAL and diagonal.sides & sides[v]
                    else value(tuple(map((prefix + (v,)).__getitem__, at)))
                    for v, r, rs, lv in columns
                ]
            )
        return out


# ---------------------------------------------------------------------------
# Whole identity sets, with exhaustive verification


@dataclass
class LiftReport:
    tables: dict[str, LiftedOp]
    lines: list[str] = field(default_factory=list)
    ok: bool = True

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def lift_all(
    meta: TemplateDigraph,
    sigma: IdentitySet,
    witnesses_a: dict[str, OpTable],
    witnesses_z: dict[str, OpTable] | None = None,
) -> LiftReport:
    """Lift witnesses for a whole identity set and verify the results.

    The set must be linear and explicitly idempotent, with every
    identity balanced or in at most two variables.  Zigzag witnesses are
    searched for automatically when not supplied.
    """
    sigma.ensure_linear()
    problem = sigma.liftable_shape()
    if problem:
        raise ShapeViolation(problem)
    arity = dict(sigma.symbols)
    for name in arity:
        if name not in witnesses_a:
            raise PreconditionError(f"missing template witness for {name!r}")
    if not satisfies(witnesses_a, sigma, len(meta.template.domain)):
        raise PreconditionError("template witnesses do not satisfy the identity set")

    if witnesses_z is None:
        witnesses_z = find_operations(zigzag(), sigma)
        if witnesses_z is None:
            raise ZigzagWitnessFails("the zigzag does not satisfy this identity set")
    for name, op in witnesses_z.items():
        bad = zigzag_witness_problem(op)
        if bad:
            raise ZigzagWitnessFails(f"{name!r}: {bad}")
    if not satisfies(witnesses_z, sigma, 4):
        raise ZigzagWitnessFails("zigzag witnesses do not satisfy the identity set")

    report = LiftReport({})
    for name in arity:
        report.tables[name] = LiftedOp(meta, witnesses_a[name], witnesses_z[name])
    for name, op in report.tables.items():
        good = is_polymorphism(op, meta.digraph)
        report.lines.append(
            f"polymorphism {name}: {'ok' if good else 'FAIL'} "
            f"({len(meta.digraph.edges)}^{op.arity} edge tuples)"
        )
        report.ok = report.ok and good
    results = identity_results(report.tables, sigma, len(meta.digraph.vertices))
    for ident, good in zip(sigma.identities, results):
        report.lines.append(f"identity {ident}: {'ok' if good else 'FAIL'}")
        report.ok = report.ok and good
    return report


# ---------------------------------------------------------------------------
# Endomorphism transfer


def lift_endomorphism(meta: TemplateDigraph, phi: dict[str, str]) -> dict[str, str]:
    """Extend an endomorphism of the template over the whole digraph.

    This is the unary case of the lifted operation: phi as a unary
    polymorphism of the template, with the zigzag's identity as its zigzag
    witness.  The map sends each connecting path onto the path of its
    image, folding a zigzag onto a single edge where the image path has
    one.  Vertex names come out in vertex order.
    """
    if not is_hom(meta.template, meta.template, phi):
        raise NotEndomorphism("the map does not preserve the relation")
    dom = meta.template.domain
    f_a = OpTable("phi", 1, len(dom), tuple(dom.index(phi[a]) for a in dom))
    names = meta.digraph.vertices
    images = LiftedOp(meta, f_a, zz_allmin(1)).tabulate(range(len(names)), 1)
    return {names[v]: names[w] for v, w in enumerate(images)}


def restrict_endomorphism(meta: TemplateDigraph, big: dict[str, str]) -> dict[str, str]:
    """Restrict an endomorphism of the digraph to the element vertices."""
    if not is_hom(meta.digraph, meta.digraph, big):
        raise NotEndomorphism("the map does not preserve the edges")
    g, domain = meta.digraph, meta.template.domain
    out = {}
    for a, name in enumerate(domain):
        # element i is vertex i
        w = g.element_index(big[g.vertices[a]])
        if w >= len(domain):
            raise NotEndomorphism("an element vertex leaves the element level")
        out[name] = domain[w]
    return out
