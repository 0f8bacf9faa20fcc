"""Complete homomorphism search between finite relational structures.

Backtracking over a smallest-domain-first variable order with
generalized arc consistency maintained on every relation constraint.
Domains are bitmasks over target elements.  A binary constraint over
two distinct variables is revised with neighbour masks of the target
relation, built once per search: the values of one variable that keep a
support are the OR of the in- or out-neighbour masks over the set bits
of the other variable's domain (bitwise arc consistency), and each OR is
remembered per domain mask.  Every other constraint, k-ary or with a
repeated variable, is revised by scanning the target tuples; the two
revisions prune exactly the same values.

The search is iterative: an explicit stack of branching points and a
trail that records every domain write as (variable, old mask), so that
backtracking pops the trail back to the node's mark.  Depth is bounded
by memory, not by the interpreter's recursion limit.  The search is
deterministic: ties break on variable index and values are tried in
target declaration order, which keeps every downstream artifact
byte-reproducible.

Each search owns its mutable state; structures themselves are never
modified, so concurrent searches over shared inputs are safe.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Mapping, Sequence

from .builder import PathSpec, build_path
from .errors import (
    ArityMismatch,
    SignatureMismatch,
    UnbalancedInput,
)
from .identities import IdentitySet, OpTable
from .structures import Digraph, RelStructure, make_structure

Hom = dict[str, str]
Restriction = Mapping[str, Sequence[str]]


def _as_structure(x, role):
    return x.as_structure(role) if isinstance(x, Digraph) else x


# distinct domain masks remembered per side of a binary relation; the
# bound keeps a long search's memory flat
_MEMO_LIMIT = 1 << 14


class _Neighbours:
    """One side of a binary target relation as neighbour masks.

    ``rows[a]`` is the mask of the values adjacent to ``a``; ``union``
    ORs the rows over the set bits of a domain and remembers the result
    per domain mask, since the same masks recur across constraints.
    """

    __slots__ = ("rows", "memo")

    def __init__(self, rows: list[int]):
        self.rows = rows
        self.memo: dict[int, int] = {}

    def union(self, dom: int) -> int:
        sup = self.memo.get(dom)
        if sup is None:
            rows = self.rows
            sup = 0
            rest = dom
            while rest:
                low = rest & -rest
                sup |= rows[low.bit_length() - 1]
                rest ^= low
            if len(self.memo) >= _MEMO_LIMIT:
                self.memo.clear()
            self.memo[dom] = sup
        return sup


def _neighbour_masks(
    tuples: Iterable[tuple[int, ...]], n_vals: int
) -> tuple[_Neighbours, _Neighbours]:
    """(out, inn): out[a] holds every b and inn[b] every a with (a, b) in R."""
    out = [0] * n_vals
    inn = [0] * n_vals
    for a, b in tuples:
        out[a] |= 1 << b
        inn[b] |= 1 << a
    return _Neighbours(out), _Neighbours(inn)


class _Constraint:
    __slots__ = ("scope", "tuples", "masks", "requeue")

    def __init__(
        self,
        scope: tuple[int, ...],
        tuples: frozenset[tuple[int, ...]],
        masks: tuple[_Neighbours, _Neighbours] | None,
    ):
        self.scope = scope
        self.tuples = tuples
        # (out, inn) of the target relation when the scope is two distinct
        # variables; None sends the constraint to the tuple scan
        self.masks = masks
        # with a repeated variable, the constraint's own pruning can take
        # away supports it counted, so it is revised again after a change
        self.requeue = len(set(scope)) != len(scope)


class _Search:
    def __init__(
        self,
        source: RelStructure,
        target: RelStructure,
        restriction: Restriction | None = None,
    ):
        if dict(source.signature()) != dict(target.signature()):
            raise SignatureMismatch(
                f"signatures differ: {source.signature()} vs {target.signature()}"
            )
        self.source = source
        self.target = target
        self.n_vars = len(source.domain)
        self.n_vals = len(target.domain)
        full = (1 << self.n_vals) - 1

        self.domains = [full] * self.n_vars
        if restriction:
            for name, allowed in restriction.items():
                mask = 0
                for el in allowed:
                    mask |= 1 << target.element_index(el)
                self.domains[source.element_index(name)] = mask
        # (var, old mask) for every domain write, oldest first
        self.trail: list[tuple[int, int]] = []

        self.constraints: list[_Constraint] = []
        for rel in source.relations:
            target_rel = target.relation(rel.name)
            tuples = frozenset(target_rel.tuples)
            masks = None
            for t in rel.tuples:
                binary = len(t) == 2 and t[0] != t[1]
                if binary and masks is None:
                    masks = _neighbour_masks(tuples, self.n_vals)
                self.constraints.append(
                    _Constraint(t, tuples, masks if binary else None)
                )
        self.by_var: list[list[int]] = [[] for _ in range(self.n_vars)]
        for ci, c in enumerate(self.constraints):
            for v in set(c.scope):
                self.by_var[v].append(ci)
        degree = [len(cs) for cs in self.by_var]
        # branching order among equal domain sizes: higher degree first,
        # then lower index
        self.order = sorted(range(self.n_vars), key=lambda v: (-degree[v], v))

    # -- propagation ------------------------------------------------------

    def _set(self, var: int, mask: int) -> None:
        self.trail.append((var, self.domains[var]))
        self.domains[var] = mask

    def _revise(self, c: _Constraint) -> list[int] | None:
        """Prune unsupported values by a scan of the target tuples.

        Returns the changed vars, or None on wipeout.
        """
        doms = self.domains
        support = [0] * len(c.scope)
        for t in c.tuples:
            for pos, val in zip(c.scope, t):
                if not doms[pos] >> val & 1:
                    break
            else:
                for i, val in enumerate(t):
                    support[i] |= 1 << val
        changed = []
        for i, var in enumerate(c.scope):
            new = doms[var] & support[i]
            if new != doms[var]:
                if new == 0:
                    return None
                self._set(var, new)
                changed.append(var)
        return changed

    def _revise_pair(self, c: _Constraint) -> list[int] | None:
        """The same pruning as ``_revise``, from the neighbour masks.

        For scope (u, v) the values of u that keep a support are the
        in-neighbours of v's domain, and those of v the out-neighbours of
        what is left of u's.
        """
        doms = self.domains
        u, v = c.scope
        out, inn = c.masks
        du = doms[u]
        dv = doms[v]
        nu = du & inn.union(dv)
        if not nu:
            return None
        nv = dv & out.union(nu)
        if not nv:
            return None
        changed = []
        if nu != du:
            self._set(u, nu)
            changed.append(u)
        if nv != dv:
            self._set(v, nv)
            changed.append(v)
        return changed

    def _achieve_gac(self, queue: Iterable[int]) -> bool:
        constraints = self.constraints
        by_var = self.by_var
        pending = set(queue)
        while pending:
            ci = pending.pop()
            c = constraints[ci]
            changed = self._revise(c) if c.masks is None else self._revise_pair(c)
            if changed is None:
                return False
            if changed:
                for var in changed:
                    pending.update(by_var[var])
                # without a repeated variable every surviving value keeps
                # the support it was found with, so a second revise of the
                # same constraint would prune nothing
                if not c.requeue:
                    pending.discard(ci)
        return True

    # -- search -----------------------------------------------------------

    def _pick(self, start: int) -> tuple[int | None, int]:
        """The branching variable and the position of the first unfixed one.

        The smallest domain wins, ties going to the earlier variable of
        ``self.order``.  Every variable before position ``start`` of the
        order must be fixed already; domains only shrink below a node, so
        a child starts where its parent's scan found the first open one.
        """
        doms = self.domains
        order = self.order
        n = len(order)
        first = start
        while first < n and doms[order[first]].bit_count() <= 1:
            first += 1
        best, best_size = None, 0
        for i in range(first, n):
            size = doms[order[i]].bit_count()
            if size > 1 and (best is None or size < best_size):
                best, best_size = order[i], size
                if size == 2:  # no open domain is smaller
                    break
        return best, first

    def solutions(self) -> Iterator[Hom]:
        if any(d == 0 for d in self.domains):
            return
        if not self._achieve_gac(range(len(self.constraints))):
            return
        yield from self._dfs()

    def _dfs(self) -> Iterator[Hom]:
        """Depth-first over an explicit stack of (var, untried values, mark, first).

        ``mark`` is the trail length when the node was entered: popping
        the trail back to it restores the node's domains before each value.
        """
        var, first = self._pick(0)
        if var is None:
            yield self._extract()
            return
        doms = self.domains
        trail = self.trail
        by_var = self.by_var
        stack = [(var, doms[var], len(trail), first)]
        while stack:
            var, untried, mark, first = stack[-1]
            while len(trail) > mark:
                v, old = trail.pop()
                doms[v] = old
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            stack[-1] = (var, untried ^ low, mark, first)
            self._set(var, low)
            if not self._achieve_gac(by_var[var]):
                continue
            nxt, nxt_first = self._pick(first)
            if nxt is None:
                yield self._extract()
            else:
                stack.append((nxt, doms[nxt], len(trail), nxt_first))

    def _extract(self) -> Hom:
        return {
            self.source.domain[v]: self.target.domain[self.domains[v].bit_length() - 1]
            for v in range(self.n_vars)
        }


# ---------------------------------------------------------------------------
# Public operations


def find_hom(source, target, restriction=None) -> Hom | None:
    """One homomorphism respecting the restriction, or None if none exists.

    The search maintains generalized arc consistency at every node; the
    homomorphism is the first that ``enumerate_homs`` would give.
    """
    return next(enumerate_homs(source, target, restriction), None)


def enumerate_homs(source, target, restriction=None) -> Iterator[Hom]:
    """All homomorphisms, duplicate-free, in deterministic order."""
    if isinstance(source, Digraph) and not source.vertices:
        return iter([{}])
    s = _as_structure(source, "instance")
    t = _as_structure(target, "template")
    return _Search(s, t, restriction).solutions()


def is_hom(source, target, mapping: Mapping[str, str]) -> bool:
    """Check a candidate map against the raw preservation definition."""
    s = _as_structure(source, "instance")
    t = _as_structure(target, "template")
    img = {s.element_index(a): t.element_index(b) for a, b in mapping.items()}
    if len(img) != len(s.domain):
        return False
    for rel in s.relations:
        allowed = set(t.relation(rel.name).tuples)
        for tup in rel.tuples:
            if tuple(img[i] for i in tup) not in allowed:
                return False
    return True


def endomorphisms(structure) -> list[Hom]:
    s = _as_structure(structure, "template")
    return list(enumerate_homs(s, s))


def _non_surjective_endo(s: RelStructure) -> Hom | None:
    """An endomorphism that misses an element, or None if all are onto.

    The elements are tried as the one missed in declaration order; the
    first that can be missed gives the first such endomorphism found.
    """
    for avoided in s.domain:
        rest = {x: [y for y in s.domain if y != avoided] for x in s.domain}
        hom = find_hom(s, s, rest)
        if hom is not None:
            return hom
    return None


def is_core(structure) -> bool:
    """True iff every endomorphism is surjective (complete search)."""
    return _non_surjective_endo(_as_structure(structure, "template")) is None


def _idempotent_power(mapping: Hom) -> Hom:
    power = dict(mapping)
    while any(power[power[x]] != power[x] for x in power):
        power = {x: mapping[power[x]] for x in power}
    return power


def _induced_on(s: RelStructure, keep: list[str]) -> RelStructure:
    idx = [s.element_index(x) for x in keep]
    remap = {old: new for new, old in enumerate(idx)}
    rels = []
    for rel in s.relations:
        rels.append(
            (
                rel.name,
                rel.arity,
                [
                    tuple(remap[i] for i in t)
                    for t in rel.tuples
                    if all(i in remap for i in t)
                ],
            )
        )
    return make_structure(s.name, keep, rels, role=s.role)


def core_of(structure) -> RelStructure:
    """The induced substructure of minimum size that the input retracts onto."""
    s = _as_structure(structure, "template")
    while (witness := _non_surjective_endo(s)) is not None:
        retraction = _idempotent_power(witness)
        s = _induced_on(s, [x for x in s.domain if retraction[x] == x])
    return s


# ---------------------------------------------------------------------------
# Operation search (the indicator construction)


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving; the least index is the root."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _cells(symbols: Sequence[tuple[str, int]], n: int):
    order = []
    for name, arity in symbols:
        for args in itertools.product(range(n), repeat=arity):
            order.append((name, args))
    return order


def find_operations(structure, sigma: IdentitySet) -> dict[str, OpTable] | None:
    """Search for operation tables witnessing a linear identity set.

    Every table cell is a variable of one big instance: identities merge
    cells (or pin them to constants), and preservation of each relation
    contributes one constraint per choice of input tuples.  Solving that
    instance against the structure itself yields the tables, and a None
    answer is a proof that no witnesses exist.  Each table has the arity
    its symbol declares in ``sigma``; a symbol that is undeclared or used
    at another arity raises from ``sigma.ensure_linear()`` first.
    """
    s = _as_structure(structure, "template")
    sigma.ensure_linear()
    n = len(s.domain)

    cells = _cells(sigma.symbols, n)
    cell_id = {c: i for i, c in enumerate(cells)}

    uf = UnionFind(len(cells))
    constant: dict[int, int] = {}

    def eval_side(term, env):
        if term.symbol is None:
            return ("const", env[term.args[0]])
        return ("cell", cell_id[(term.symbol, tuple(env[v] for v in term.args))])

    pending_consts: list[tuple[int, int]] = []
    for ident in sigma.identities:
        variables = sorted(ident.variables())
        for values in itertools.product(range(n), repeat=len(variables)):
            env = dict(zip(variables, values))
            lhs = eval_side(ident.lhs, env)
            rhs = eval_side(ident.rhs, env)
            if lhs[0] == "cell" and rhs[0] == "cell":
                uf.union(lhs[1], rhs[1])
            elif lhs[0] == "cell":
                pending_consts.append((lhs[1], rhs[1]))
            elif rhs[0] == "cell":
                pending_consts.append((rhs[1], lhs[1]))
            elif lhs[1] != rhs[1]:
                return None
    for cell, value in pending_consts:
        root = uf.find(cell)
        if constant.setdefault(root, value) != value:
            return None

    reps = sorted({uf.find(i) for i in range(len(cells))})
    var_name = {r: f"c{r}" for r in reps}
    rel_tuples: dict[str, list[tuple[int, ...]]] = {r.name: [] for r in s.relations}
    rep_pos = {r: i for i, r in enumerate(reps)}
    for rel in s.relations:
        for name, arity in sigma.symbols:
            for combo in itertools.product(rel.tuples, repeat=arity):
                row = tuple(
                    rep_pos[uf.find(cell_id[(name, tuple(t[j] for t in combo))])]
                    for j in range(rel.arity)
                )
                rel_tuples[rel.name].append(row)

    indicator = make_structure(
        "indicator",
        [var_name[r] for r in reps],
        [(rn, s.relation(rn).arity, rows) for rn, rows in rel_tuples.items()],
        role="instance",
    )
    restriction = {
        var_name[root]: [s.domain[value]] for root, value in constant.items()
    }
    hom = find_hom(indicator, s, restriction)
    if hom is None:
        return None

    tables: dict[str, OpTable] = {}
    for name, arity in sigma.symbols:
        values = []
        for args in itertools.product(range(n), repeat=arity):
            rep = uf.find(cell_id[(name, args)])
            values.append(s.element_index(hom[var_name[rep]]))
        tables[name] = OpTable(name, arity, n, tuple(values))
    return tables


def _column_images(op, tuples, j: int):
    """Images of column j under op, one chunk per tuple at the first place.

    op.tabulate(C, m) gives op over C^m in itertools.product order, with
    C the sorted values occurring in column j; every tuple of C^m occurs
    in some combination of m tuples, so nothing is evaluated that the
    check does not need.  Chunk i holds the images, read off the table,
    of the combinations whose first tuple is tuples[i], in
    itertools.product order.
    """
    m = op.arity
    values = sorted({t[j] for t in tuples})
    place = {v: i for i, v in enumerate(values)}
    table = op.tabulate(values, m)
    if m == 0:
        yield table  # the one, empty, combination
        return
    col = [place[t[j]] for t in tuples]
    n = len(values)
    rest = [0]  # table offsets of the last m-1 places, over all combinations
    for _ in range(m - 1):
        rest = [r * n + p for r in rest for p in col]
    stride = n ** (m - 1)
    for p in col:
        yield map(table.__getitem__, map((p * stride).__add__, rest))


def is_polymorphism(op, structure) -> bool:
    """Exhaustive preservation check over all tuple combinations.

    Each column of each relation gets its own table of op over the values
    that occur in that column (see _column_images), and every one of the
    |R|^m combinations is then checked by lookups.  op is evaluated at
    most once per table entry, and a table is never larger than the set
    of combinations it serves; besides the tables, memory holds the
    images of the |R|^(m-1) combinations that share a first tuple.
    Nothing outlives the call.
    """
    s = _as_structure(structure, "template")
    if op.size != len(s.domain):
        raise ArityMismatch("operation domain does not match the structure")
    for rel in s.relations:
        allowed = set(rel.tuples)
        columns = [_column_images(op, rel.tuples, j) for j in range(rel.arity)]
        for chunk in zip(*columns):
            if not allowed.issuperset(zip(*chunk)):
                return False
    return True


def satisfies(tables: Mapping[str, OpTable], sigma: IdentitySet, size: int) -> bool:
    """Does every identity of the set hold over all evaluations?  Stops at
    the first that fails."""
    return all(identity_results(tables, sigma, size))


def identity_results(
    tables: Mapping[str, OpTable], sigma: IdentitySet, size: int
) -> Iterator[bool]:
    """Whether each identity of the set holds, in order, after checking
    each table's arity and size once (a table checks only that its own
    arguments are in range).

    Every side is read by offsets from a table.  A side f(v1..vm) reads
    f.tabulate(range(size), m, pattern), with the identity's variables
    numbered by first occurrence in the side: c(x,y,z) and c(y,z,x) share
    the pattern (0,1,2), w(x,x,y) has (0,0,1).  Each (symbol, pattern)
    table is built at most once per call, so identities that share a side
    pattern share its table.  A bare variable reads range(size).  Memory
    is size^n per side for an identity in n variables.
    """
    for name, arity in sigma.symbols:
        op = tables.get(name)
        if op is not None and (op.arity, op.size) != (arity, size):
            raise ArityMismatch(
                f"table {name!r} is {op.arity}-ary over {op.size} values, "
                f"symbol {name!r} needs {arity}-ary over {size}"
            )
    built: dict[tuple[str, tuple[int, ...]], list[int]] = {}

    def side_values(term, variables):
        """The side's values over range(size)^variables in product order."""
        at = [variables.index(v) for v in term.args]
        # the identity's variables in the order the side first uses them
        order = list(dict.fromkeys(at))
        if term.symbol is None:
            table = range(size)
        else:
            key = (term.symbol, tuple(map(order.index, at)))
            if key not in built:
                built[key] = tables[term.symbol].tabulate(range(size), len(at), key[1])
            table = built[key]
        # the table offset of each evaluation, in product order
        weight = [0] * len(variables)
        for place, i in enumerate(order):
            weight[i] = size ** (len(order) - 1 - place)
        offsets = [0]
        for w in weight:
            offsets = [o + x * w for o in offsets for x in range(size)]
        return map(table.__getitem__, offsets)

    for ident in sigma.identities:
        variables = sorted(ident.variables())
        lhs = side_values(ident.lhs, variables)
        rhs = side_values(ident.rhs, variables)
        yield all(map(operator.eq, lhs, rhs))


# ---------------------------------------------------------------------------
# Level-restricted interpretability into connecting paths


def interpretable_at_levels(
    h: Digraph,
    level_of: Mapping[str, int],
    spec: PathSpec,
    anchors: Mapping[str, str] | None = None,
) -> bool:
    """Is there a hom into the spec's path sending each vertex to its level?

    Anchors pin vertices to named path vertices ("iota"/"tau" or a
    concrete q<i> name) on top of the level restriction.
    """
    for u, v in h.edges:
        if level_of[h.vertices[v]] != level_of[h.vertices[u]] + 1:
            raise UnbalancedInput(
                f"edge {h.vertices[u]}->{h.vertices[v]} violates the level map"
            )
    path = build_path(spec)
    by_level: dict[int, list[str]] = {}
    for i, name in enumerate(path.vertices):
        by_level.setdefault(path.levels[i], []).append(name)
    last = len(path.vertices) - 1
    named = {"iota": path.vertices[0], "tau": path.vertices[last]}
    restriction: dict[str, list[str]] = {}
    for v in h.vertices:
        restriction[v] = by_level.get(level_of[v], [])
    if anchors:
        for v, target in anchors.items():
            restriction[v] = [named.get(target, target)]
    return find_hom(h, path, restriction) is not None
