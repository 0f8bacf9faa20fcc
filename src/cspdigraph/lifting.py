"""Zigzag witnesses and the lifting of polymorphisms to the encoded digraph.

The zigzag 00->01<-10->11 carries a distributive lattice under the
order 00 < 01 < 10 < 11, which supplies witnesses for most identity
sets: meet/join, the median, the all-minimum operation for balanced
sets, and the pair p1/p2 chaining three congruence permutations.

An m-ary polymorphism of the template combines with an m-ary zigzag
witness into an m-ary polymorphism of the encoded digraph.  Inputs
split by the connected component of the m-th power they live in: on the
diagonal component the template operation dictates the target path and
the zigzag witness picks within a zigzag segment; everywhere else two
linear orders on the vertices make a uniform choice.  Both orders put
elements before interiors before tuples by level; they differ only in
how same-level interiors on different paths compare, element-major
versus tuple-major.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

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
from .identities import IdentitySet, OpTable, argument_pattern
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
    if any(op((x,) * op.arity) != x for x in range(4)):
        return "not idempotent"
    for block in (_LOW, _HIGH):
        for args in itertools.product(block, repeat=op.arity):
            if op(args) not in block:
                return "does not preserve the out-degree/in-degree classes"
    return None


def zz_meet() -> OpTable:
    return _zz_table("meet", 2, lambda a: min(a))


def zz_join() -> OpTable:
    return _zz_table("join", 2, lambda a: max(a))


def zz_median() -> OpTable:
    return _zz_table("median", 3, lambda a: sorted(a)[1])


def zz_allmin(arity: int) -> OpTable:
    return _zz_table("allmin", arity, lambda a: min(a))


def _p1(a):
    x, y, z = a
    if y != z and 1 in a:
        return 1
    if y != z and 2 in a:
        return 2
    return x


def _p2(a):
    x, y, z = a
    if x != y and 1 in a:
        return 1
    if x != y and 2 in a:
        return 2
    if x == y:
        return z
    return x


def zz_p1() -> OpTable:
    return _zz_table("p1", 3, _p1)


def zz_p2() -> OpTable:
    return _zz_table("p2", 3, _p2)


# ---------------------------------------------------------------------------
# The two linear orders


def order_key(meta: TemplateDigraph, variant: str = "ar"):
    """Total-order key on vertices; variant 'ar' is element-major on
    interior paths, 'ra' is tuple-major (the starred order)."""
    if variant not in ("ar", "ra"):
        raise PreconditionError(f"unknown order variant {variant!r}")
    tuple_rank = {r: i for i, r in enumerate(meta.tuples)}
    nr, na = len(meta.tuples), len(meta.template.domain)

    def key(vid: int):
        e = meta.v_path[vid]
        if e is None:
            # elements (level 0) and tuples (level k+2) are numbered in
            # declaration and tuple-lex order
            return (meta.lvl[vid], vid, 0)
        a, r = e
        if variant == "ar":
            path = a * nr + tuple_rank[r]
        else:
            path = tuple_rank[r] * na + a
        return (meta.lvl[vid], path, meta.v_pos[vid])

    return key


# ---------------------------------------------------------------------------
# The diagonal component of a power


def in_delta(meta: TemplateDigraph, c: tuple[int, ...]) -> bool:
    """Membership in the connected component of the diagonal of the power.

    Equal-level tuples sit there exactly when they have a common
    out-neighbour or a common in-neighbour direction; every other
    equal-level tuple is isolated in its power.
    """
    if len({meta.lvl[v] for v in c}) != 1:
        return False
    return all(meta.has_out[v] for v in c) or all(meta.has_in[v] for v in c)


def delta_bfs(meta: TemplateDigraph, m: int) -> set[tuple[int, ...]]:
    """Oracle: explicit search of the power from the diagonal."""
    nbrs = meta.digraph.neighbours
    start = [tuple([v] * m) for v in range(len(meta.digraph.vertices))]
    seen = set(start)
    stack = list(start)
    while stack:
        cur = stack.pop()
        for direction in (1, -1):
            steps = [[w for w, d in nbrs[v] if d == direction] for v in cur]
            for nxt in itertools.product(*steps):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Case analysis and the lifted operation


@dataclass(frozen=True, slots=True)
class CaseData:
    """The case of a vertex tuple, with what its value is computed from.

    Cases 2a-2c carry the carriers, the target path e, the common segment
    l and, for 2b/2c, which carriers zigzag at l; case 3a carries its two
    carriers.  The other cases carry only their tag.
    """

    tag: str
    paths: tuple | None = None
    e: tuple | None = None
    l: int | None = None
    labels: tuple | None = None


# the tag-only cases, shared by every call
_CASE_1A = CaseData("1a")
_CASE_1B = CaseData("1b")
_CASE_3B = CaseData("3b")
_CASE_3C = CaseData("3c")

# what tabulate does for a last place on a given level: take the 'ar'-least
# or the 'ra'-greatest vertex of the tuple, or evaluate it through __call__
_LEAST, _GREATEST, _CALL = range(3)


def _coordinatewise(f_a: OpTable, tuples):
    return tuple(map(f_a, zip(*tuples)))


def classify(
    meta: TemplateDigraph, c: tuple[int, ...], f_a: OpTable
) -> CaseData:
    """The case of the lifting proof that a vertex tuple falls in.

    LiftedOp evaluates the diagonal cases 2a-2c from its own integer
    arrays without calling this; it classifies every other tuple here.
    """
    levels = set(map(meta.lvl.__getitem__, c))
    if len(levels) == 2:
        return _CASE_3B
    if len(levels) != 1:
        return _CASE_3C
    level = meta.lvl[c[0]]
    if level == 0:
        return _CASE_1A
    if level == meta.k + 2:
        return _CASE_1B
    if in_delta(meta, c):
        es = tuple(meta.v_path[v] for v in c)
        elems, rows = zip(*es)
        e = (f_a(elems), _coordinatewise(f_a, rows))
        common = frozenset.intersection(*(meta.v_segs[v] for v in c))
        if not common:
            raise InternalInvariantViolation(
                f"diagonal-component tuple {c} has no common segment"
            )
        l = min(common)
        if l in meta.path_specs[e].singles:
            return CaseData("2a", paths=es, e=e, l=l)
        zig = tuple(l not in meta.path_specs[ei].singles for ei in es)
        return CaseData("2b" if all(zig) else "2c", paths=es, e=e, l=l, labels=zig)
    carriers = {meta.v_path[v] for v in c}
    if len(carriers) == 2:
        return CaseData("3a", paths=tuple(sorted(carriers)))
    return _CASE_3C


class LiftedOp:
    """Sparse lifted operation over the encoded digraph's vertices.

    A call computes one value.  A tuple on one interior level that lies in
    the diagonal component (cases 2a-2c) is evaluated from ints built once
    here: each vertex's segments as a bitmask and its offset within each
    of them, each path's single segments as a bitmask, its segment
    vertices, and the flat index weights of f_a and f_z.  Every other
    tuple goes through classify.  tabulate computes the values over a
    whole product of vertex sets in bulk and evaluates only the tuples
    that lie on one level one by one; nothing the size of |D|^m is ever
    materialized unless asked for, and no value is remembered between
    calls.  Order-least and order-greatest choices are minima over the
    rank of every vertex under each of the two orders, built here too.
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
        # for the diagonal cases: each path, keyed by its coordinates
        # (a, r1..rk), with its single segments as a bitmask and its
        # segments' vertices by index; each vertex's segments as a bitmask,
        # its offset within each of them and its own path's single segments
        singles = {e: sum(1 << l for l in s.singles) for e, s in meta.path_specs.items()}
        self._paths = {
            (e[0], *e[1]): (bits, [()] + [meta.segments[e, l] for l in range(1, k + 1)])
            for e, bits in singles.items()
        }
        self._segs = [sum(1 << l for l in segs) for segs in meta.v_segs]
        self._offset = [[0] * (k + 1) for _ in range(self.size)]
        for (e, l), vids in meta.segments.items():
            for o, v in enumerate(vids):
                self._offset[v][l] = o
        self._own_singles = [0 if e is None else singles[e] for e in meta.v_path]
        # 1 for an outgoing edge, 2 for an incoming one
        self._sides = [int(o) | int(i) << 1 for o, i in zip(meta.has_out, meta.has_in)]
        # per argument position, each vertex's path coordinates times the
        # position's weight in the flat index of f_a; the weights of f_z
        coords = [() if e is None else (e[0], *e[1]) for e in meta.v_path]
        self._weighted = [
            [tuple(x * f_a.size ** (m - 1 - i) for x in xs) for xs in coords]
            for i in range(m)
        ]
        self._z_weight = [f_z.size ** (m - 1 - i) for i in range(m)]

    def _least(self, vids) -> int:
        """The 'ar'-least of the given vertices."""
        return self._by_rank[min(map(self._rank.__getitem__, vids))]

    def _diagonal(self, c: tuple[int, ...], level: int) -> int:
        """Cases 2a-2c: f_a picks the target path, the lowest common
        segment l of c picks its segment, and on that segment the end on
        c's level is the value (2a, a single edge), f_z decides on the
        offsets of c (2b, zigzags on every carrier) or the least offset of
        a zigzag carrier wins (2c, which is the 'ar'-least candidate)."""
        fa = self.f_a.values
        weighted = map(list.__getitem__, self._weighted, c)
        singles, segments = self._paths[tuple([fa[x] for x in map(sum, zip(*weighted))])]
        common = -1
        for v in c:
            common &= self._segs[v]
        if not common:
            raise InternalInvariantViolation(
                f"diagonal-component tuple {c} has no common segment"
            )
        bit = common & -common
        l = bit.bit_length() - 1
        seg = segments[l]
        if singles & bit:
            return seg[0] if self.meta.lvl[seg[0]] == level else seg[1]
        own, offset = self._own_singles, self._offset
        offsets = [None if own[v] & bit else offset[v][l] for v in c]
        if None in offsets:
            # a segment's vertices on one level are ordered by position
            return seg[min([o for o in offsets if o is not None])]
        return seg[self.f_z.values[sum(map(operator.mul, offsets, self._z_weight))]]

    def __call__(self, c: tuple[int, ...]) -> int:
        meta = self.meta
        lvl = meta.lvl
        level = lvl[c[0]]
        if 0 < level < meta.k + 2:
            sides = 3
            for v in c:
                if lvl[v] != level:
                    break
                sides &= self._sides[v]
            else:
                if sides:
                    return self._diagonal(c, level)
        case = classify(meta, c, self.f_a)
        tag = case.tag
        if tag == "3b":
            # the least vertex overall lies on the lower level, the greatest
            # on the higher one, in either order
            low = self._least(c)
            lo = lvl[low]
            if self.f_z(tuple([0 if lvl[v] == lo else 2 for v in c])) == 0:
                return low
            return self._by_rank_star[max(map(self._rank_star.__getitem__, c))]
        if tag == "3c":
            low = self._least(c)
            distinct = set(c)
            if len(distinct) == 2:
                # two vertices on one carrier and level: label them like 3a so
                # the zigzag witness decides, which keeps the identities of
                # f_z on such (isolated) tuples
                labels = tuple([0 if v == low else 2 for v in c])
                if self.f_z(labels) == 0:
                    return low
                distinct.discard(low)
                return distinct.pop()
            return low
        if tag == "1a":
            # element i is vertex i
            return meta.elem_vid[self.f_a(c)]
        if tag == "1b":
            # tuple t is vertex |A| + t
            na = len(meta.elem_vid)
            rows = [meta.tuples[v - na] for v in c]
            return meta.tuple_vid[_coordinatewise(self.f_a, rows)]
        if tag != "3a":
            raise InternalInvariantViolation(f"diagonal case {tag} for {c} off the fast path")
        low_path = case.paths[0]
        labels = tuple(0 if meta.v_path[v] == low_path else 2 for v in c)
        z = self.f_z(labels)
        return self._least([v for v, lab in zip(c, labels) if lab == z])

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
        lowest-level positions; f_z is evaluated once per label pattern.
        Only tuples on one level go through self(c).
        """
        at, places = argument_pattern(self, m, at)
        values = list(values)
        lvl, rank, rank_star = self.meta.lvl, self._rank, self._rank_star
        # the argument positions of each place
        masks = [0] * places
        for i, p in enumerate(at):
            masks[p] |= 1 << i
        last = masks[-1]
        # picks_least[mask]: f_z sends to 0 the labels that are 0 at the
        # positions in mask and 2 elsewhere
        picks_least = [
            self.f_z(tuple([0 if mask >> i & 1 else 2 for i in range(m)])) == 0
            for mask in range(1 << m)
        ]
        columns = [(v, rank[v], rank_star[v], lvl[v]) for v in values]
        levels = sorted({lvl[v] for v in values})
        kinds = [_CALL] * (max(levels, default=0) + 1)
        # the state after each place of the current prefix: (levels met as a
        # bitmask, lowest level, positions on it as a bitmask, least 'ar'
        # rank, greatest 'ra' rank)
        states = [(0, len(kinds), 0, self.size, -1)]
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
            for lv in levels:
                both = met | 1 << lv
                if both == 1 << lv:
                    kinds[lv] = _CALL
                elif both.bit_count() > 2:
                    kinds[lv] = _LEAST
                else:
                    on_low = last if lv < lo else lows | last if lv == lo else lows
                    kinds[lv] = _LEAST if picks_least[on_low] else _GREATEST
            least_v = self._by_rank[least] if met else None
            greatest_v = self._by_rank_star[greatest] if met else None
            prefix = tuple([values[i] for i in idx])
            out.extend(
                [
                    (v if r < least else least_v)
                    if (kind := kinds[lv]) == _LEAST
                    else (v if rs > greatest else greatest_v)
                    if kind == _GREATEST
                    else self(tuple(map((prefix + (v,)).__getitem__, at)))
                    for v, r, rs, lv in columns
                ]
            )
        return out


def lift_op(meta: TemplateDigraph, f_a: OpTable, f_z: OpTable) -> LiftedOp:
    """Lift a template polymorphism along a zigzag witness of equal arity."""
    return LiftedOp(meta, f_a, f_z)


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
        report.tables[name] = lift_op(meta, witnesses_a[name], witnesses_z[name])
    for name, op in report.tables.items():
        good = is_polymorphism(op, meta.digraph_structure)
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


def _path_position_map(meta: TemplateDigraph, e, e_target) -> dict[int, int]:
    """Positions of one connecting path onto another with more singles."""
    spec_s = meta.path_specs[e]
    spec_t = meta.path_specs[e_target]
    if not spec_s.singles <= spec_t.singles:
        raise NotEndomorphism("image path misses a single edge of the source")
    mapping = {0: 0, 1: 1}
    ps, pt = 1, 1
    for l in range(1, meta.k + 1):
        ws = 1 if l in spec_s.singles else 3
        wt = 1 if l in spec_t.singles else 3
        if ws == wt:
            offsets = {o: o for o in range(ws + 1)}
        else:  # zigzag folds onto a single edge
            offsets = {0: 0, 1: 1, 2: 0, 3: 1}
        for o_s, o_t in offsets.items():
            mapping[ps + o_s] = pt + o_t
        ps += ws
        pt += wt
    mapping[ps + 1] = pt + 1
    return mapping


def lift_endomorphism(meta: TemplateDigraph, phi: dict[str, str]) -> dict[str, str]:
    """Extend an endomorphism of the template over the whole digraph."""
    if not is_hom(meta.template, meta.template, phi):
        raise NotEndomorphism("the map does not preserve the relation")
    dom = meta.template.domain
    fi = {dom.index(a): dom.index(b) for a, b in phi.items()}
    names = meta.digraph.vertices
    out: dict[str, str] = {}
    for a in range(len(dom)):
        out[names[meta.elem_vid[a]]] = names[meta.elem_vid[fi[a]]]
    for r in meta.tuples:
        image = tuple(fi[x] for x in r)
        out[names[meta.tuple_vid[r]]] = names[meta.tuple_vid[image]]
    for (a, r), vids in meta.path_vids.items():
        target = (fi[a], tuple(fi[x] for x in r))
        pos_map = _path_position_map(meta, (a, r), target)
        target_vids = meta.path_vids[target]
        for pos in range(1, len(vids) - 1):
            out[names[vids[pos]]] = names[target_vids[pos_map[pos]]]
    return out


def restrict_endomorphism(meta: TemplateDigraph, big: dict[str, str]) -> dict[str, str]:
    """Restrict an endomorphism of the digraph to the element vertices."""
    if not is_hom(meta.digraph, meta.digraph, big):
        raise NotEndomorphism("the map does not preserve the edges")
    out = {}
    for a, name in enumerate(meta.template.domain):
        image = big[meta.digraph.vertices[meta.elem_vid[a]]]
        if not image.startswith("a:"):
            raise NotEndomorphism("an element vertex leaves the element level")
        out[name] = image[2:]
    return out
