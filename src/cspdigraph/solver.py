"""Complete homomorphism search between finite relational structures.

Backtracking over a smallest-domain-first variable order with
generalized arc consistency maintained on every relation constraint.
Domains are bitmasks over target elements.  A binary constraint over
two distinct variables is a pair of arcs, propagated from a queue of
changed variables (a variable-oriented AC-3): for each side of a target
relation, the values a popped variable's domain supports are the OR of
the side's out- or in-neighbour masks over its set bits (bitwise arc
consistency), computed once and ANDed into every neighbour on that
side; each OR is remembered per domain mask.  Every other constraint,
k-ary or with a repeated variable, is revised by scanning the target
tuples from a queue of its own.  The fixpoint is the same whatever the
order of revisions, and both kinds prune exactly what a scan of every
constraint would.

The search is iterative: an explicit stack of branching points and a
flat trail of ints that records every domain write as two entries, the
variable and then its old mask, so a write allocates nothing and
backtracking pops the trail back to the node's mark, two ints per write.
Depth is bounded by memory, not by the interpreter's recursion limit.
The search is deterministic: ties break on variable index and values
are tried in target declaration order, which keeps every downstream
artifact byte-reproducible.

The search core works on integers only: initial domain masks in, image
lists out.  Names meet it only in ``enumerate_homs``, which resolves them
once; the core and witness searches pass masks and rows directly.  Each
search owns its domains, trail and queues.  What it reads of a target
relation, a binary relation's neighbour masks with their memos and, on
the E of a digraph (kept on the digraph), the level windows, is built
once per relation and value count by ``_target`` and kept on the
relation (``Relation.prepared``), so every search into one target shares
it.  A memo entry is a fixed function of its domain mask, so sharing it
changes no answer, and interleaved searches stay safe.

A search of a digraph into a digraph starts from level windows.  A
homomorphism between connected balanced digraphs shifts every level by
one constant, so a source vertex at level l of a balanced component of
height h may take a target vertex w only if w's component is unbalanced,
or balanced of some height H >= h with w's level in [l, l + H - h].  The
source's levels come from the walk of ``levelled_components`` over the
arc lists the search builds anyway (a component with a loop counts as
unbalanced), the target's from ``_level_windows``.  The windows change
no answer: a value outside its window fails arc consistency, since the
walks from the vertex down to its component's bottom and up to its top
unfold into trees, on which arc consistency is global (Freuder, JACM
1982).  So the root fixpoint, the search tree and the order of the
solutions are those without windows; only the propagation that peels
one level per wave is skipped.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping

from .builder import PathSpec, build_path
from .errors import (
    ArityMismatch,
    PreconditionError,
    SignatureMismatch,
    UnbalancedInput,
)
from .identities import IdentitySet, OpTable, product_offsets
from .structures import Digraph, Relation, levelled_components, make_structure

Hom = dict[str, str]


def _template(target):
    """The target itself; a digraph without edges raises what its template
    copy raises (an empty domain, or an empty relation)."""
    if isinstance(target, Digraph) and not target.edges:
        make_structure(target.name, target.vertices, [("E", 2, ())], role="template")
    return target


# distinct domain masks remembered per side of a binary relation; the
# bound keeps flat what a relation holds, however many searches read it
_MEMO_LIMIT = 1 << 14


class _Neighbours:
    """One side of a binary target relation as neighbour masks.

    ``rows[a]`` is the mask of the values adjacent to ``a``; ``union``
    ORs the rows over the set bits of a domain and remembers the result
    per domain mask, since the same masks recur across variables and
    across searches: a side lives as long as its target relation, and
    every search into that relation reads the same memo.  The
    propagation reads ``memo`` itself and calls ``union`` only on a miss,
    so the memo is cleared in place, never replaced.
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


def _target(rel: Relation, n_vals: int) -> tuple[tuple, tuple | None, dict]:
    """(tuples, sides, windows): the relation as searches over n_vals
    values read it, with its (out, inn) neighbour masks if binary and a
    digraph E's ``_level_windows``; built once, kept on the relation."""
    prepared = rel.prepared
    if n_vals not in prepared:
        sides = _neighbour_masks(rel.tuples, n_vals) if rel.arity == 2 else None
        prepared[n_vals] = rel.tuples, sides, {}
    return prepared[n_vals]


def _level_windows(target: Digraph, h: int) -> list[int]:
    """For a balanced component of height h searched into the digraph
    target, the mask of the vertices that its level l may take, for
    l = 0..h: those of unbalanced components, and those at levels
    l..l+H-h of balanced components of a height H >= h.  Kept per h in
    the target E's ``_target`` entry, under None the masks of the one walk
    they come from: unbalanced, and per height H one per level."""
    windows = _target(target.relations[0], len(target.vertices))[2]
    if h not in windows:
        if None not in windows:
            level, parts = levelled_components(*target.adjacency)
            unbalanced = 0
            by_height: dict[int, list[int]] = {}
            for comp, height in parts:
                if height is None:
                    for v in comp:
                        unbalanced |= 1 << v
                else:
                    masks = by_height.setdefault(height, [0] * (height + 1))
                    for v in comp:
                        masks[level[v]] |= 1 << v
            windows[None] = unbalanced, by_height
        unbalanced, by_height = windows[None]
        row = windows[h] = [unbalanced] * (h + 1)
        for height, masks in by_height.items():
            for l in range(h + 1) if height >= h else ():
                for mask in masks[l : l + height - h + 1]:
                    row[l] |= mask
    return windows[h]


class _Constraint:
    """A constraint revised by the tuple scan: k-ary, or with a repeated
    variable."""

    __slots__ = ("scope", "tuples", "requeue")

    def __init__(self, scope: tuple[int, ...], tuples: tuple[tuple[int, ...], ...]):
        self.scope = scope
        self.tuples = tuples
        # with a repeated variable, the constraint's own pruning can take
        # away supports it counted, so it is revised again after a change
        self.requeue = len(set(scope)) != len(scope)


class _Search:
    """From elements 0..len(domains)-1, element v starting from the value
    mask domains[v]; a relation is (source rows, its target relation as
    _target gives it for the values the masks range over), and a
    solution is an image list.  ``target`` is given when the source is a
    digraph searched into that digraph: the masks are then cut to the
    level windows."""

    def __init__(
        self, domains: list[int], relations: Iterable[tuple], target: Digraph | None = None
    ):
        self.n_vars = len(domains)
        self.domains = list(domains)
        # var, old mask for every domain write, oldest first
        self.trail: list[int] = []

        # a binary constraint (u, v) over two distinct variables is two
        # arcs: u's domain bounds v's through the out-masks of the target
        # relation, and v's bounds u's through the in-masks.  Each side of
        # a relation is one (memo, union, ends) of self.sides, ends[x]
        # listing the variables that x's domain bounds through it.
        self.sides: list[tuple[dict, Callable, list[list[int]]]] = []
        # every other constraint is scanned; by_var lists them per variable
        self.constraints: list[_Constraint] = []
        self.by_var: list[list[int]] = [[] for _ in range(self.n_vars)]
        for rows, (tuples, target_sides, _) in relations:
            scanned = rows
            if target_sides is not None:
                scanned = [t for t in rows if t[0] == t[1]]
                if len(scanned) < len(rows):
                    heads: list[list[int]] = [[] for _ in range(self.n_vars)]
                    tails: list[list[int]] = [[] for _ in range(self.n_vars)]
                    for u, v in rows:
                        if u != v:
                            heads[u].append(v)
                            tails[v].append(u)
                    out, inn = target_sides
                    self.sides += [(out.memo, out.union, heads), (inn.memo, inn.union, tails)]
            for t in scanned:
                for v in set(t):
                    self.by_var[v].append(len(self.constraints))
                self.constraints.append(_Constraint(t, tuples))
        # a variable's degree counts its scanned constraints and its arcs
        degree = list(map(len, self.by_var))
        for _, _, ends in self.sides:
            degree = list(map(operator.add, degree, map(len, ends)))
        # branching order among equal domain sizes: higher degree first,
        # then lower index (the sort is stable)
        self.order = sorted(range(self.n_vars), key=degree.__getitem__, reverse=True)
        if target is not None and self.sides:
            self._cut_to_windows(target)

    def _cut_to_windows(self, target: Digraph) -> None:
        """AND each source vertex's level window into its mask.  The
        source is a digraph: its arcs are the two sides' lists, and its
        only scanned constraints are its loops."""
        (_, _, heads), (_, _, tails) = self.sides
        level, parts = levelled_components(heads, tails)
        loops = {c.scope[0] for c in self.constraints}
        doms = self.domains
        for comp, h in parts:
            if h is not None and loops.isdisjoint(comp):
                windows = _level_windows(target, h)
                for v in comp:
                    doms[v] &= windows[level[v]]

    # -- propagation ------------------------------------------------------

    def _set(self, var: int, mask: int) -> None:
        self.trail += var, self.domains[var]
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

    def _achieve_gac(self, changed: Iterable[int], pending: Iterable[int]) -> bool:
        """Propagate to the fixpoint from the changed variables and the
        pending scanned constraints; False on a wipeout.

        A popped variable's arcs take one support mask per side, the union
        of that side's rows over its domain, and AND it into every other
        end.  Scanned constraints wait in a set until no variable does.
        """
        doms = self.domains
        push = self.trail.append
        sides = self.sides
        by_var = self.by_var
        queue = set(changed)
        pending = set(pending)
        while True:
            while queue:
                x = queue.pop()
                dx = doms[x]
                for memo, union, ends in sides:
                    others = ends[x]
                    if not others:
                        continue
                    sup = memo.get(dx)
                    if sup is None:
                        sup = union(dx)
                    for y in others:
                        dy = doms[y]
                        new = dy & sup
                        if new != dy:
                            if not new:
                                return False
                            push(y)
                            push(dy)
                            doms[y] = new
                            queue.add(y)
                            if by_var[y]:
                                pending.update(by_var[y])
            if not pending:
                return True
            ci = pending.pop()
            c = self.constraints[ci]
            revised = self._revise(c)
            if revised is None:
                return False
            if revised:
                for var in revised:
                    queue.add(var)
                    pending.update(by_var[var])
                # without a repeated variable every surviving value keeps
                # the support it was found with, so a second revise of the
                # same constraint would prune nothing
                if not c.requeue:
                    pending.discard(ci)

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

    def solutions(self) -> Iterator[list[int]]:
        if any(d == 0 for d in self.domains):
            return
        if not self._achieve_gac(range(self.n_vars), range(len(self.constraints))):
            return
        yield from self._dfs()

    def _dfs(self) -> Iterator[list[int]]:
        """Depth-first over an explicit stack of (var, untried values, mark, first).

        ``mark`` is the trail length when the node was entered: popping
        the trail back to it, an old mask and then its variable at a time,
        restores the node's domains before each value.
        """
        var, first = self._pick(0)
        if var is None:
            yield self._image()
            return
        doms = self.domains
        trail = self.trail
        by_var = self.by_var
        stack = [(var, doms[var], len(trail), first)]
        while stack:
            var, untried, mark, first = stack[-1]
            while len(trail) > mark:
                old = trail.pop()
                doms[trail.pop()] = old
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            stack[-1] = (var, untried ^ low, mark, first)
            self._set(var, low)
            if not self._achieve_gac((var,), by_var[var]):
                continue
            nxt, nxt_first = self._pick(first)
            if nxt is None:
                yield self._image()
            else:
                stack.append((nxt, doms[nxt], len(trail), nxt_first))

    def _image(self) -> list[int]:
        return [d.bit_length() - 1 for d in self.domains]


# ---------------------------------------------------------------------------
# Public operations


def find_hom(source, target, restriction=None) -> Hom | None:
    """One homomorphism respecting the restriction, or None if none exists.

    The search maintains generalized arc consistency at every node; the
    homomorphism is the first that ``enumerate_homs`` would give.
    """
    return next(enumerate_homs(source, target, restriction), None)


def enumerate_homs(source, target, restriction=None) -> Iterator[Hom]:
    """All homomorphisms, duplicate-free, in deterministic order.

    The one place where names meet the search.  At call time the
    signatures are checked, and then the restriction's names are
    resolved into initial domain masks.  A digraph into a digraph starts
    from the level windows, the restriction ANDed in.
    """
    t = _template(target)
    if dict(source.signature()) != dict(t.signature()):
        raise SignatureMismatch(
            f"signatures differ: {source.signature()} vs {t.signature()}"
        )
    domains = [(1 << len(t.domain)) - 1] * len(source.domain)
    for name, allowed in (restriction or {}).items():
        mask = 0
        for el in allowed:
            mask |= 1 << t.element_index(el)
        domains[source.element_index(name)] = mask
    n_vals = len(t.domain)
    relations = [(r.tuples, _target(t.relation(r.name), n_vals)) for r in source.relations]
    windows = t if isinstance(source, Digraph) and isinstance(t, Digraph) else None
    images = _Search(domains, relations, windows).solutions()
    return (dict(zip(source.domain, map(t.domain.__getitem__, image))) for image in images)


def is_hom(source, target, mapping: Mapping[str, str]) -> bool:
    """Check a candidate map against the raw preservation definition."""
    t = _template(target)
    img = {source.element_index(a): t.element_index(b) for a, b in mapping.items()}
    if len(img) != len(source.domain):
        return False
    for rel in source.relations:
        allowed = set(t.relation(rel.name).tuples)
        for tup in rel.tuples:
            if tuple(img[i] for i in tup) not in allowed:
                return False
    return True


def endomorphisms(structure) -> list[Hom]:
    return list(enumerate_homs(structure, structure))


def _non_surjective_endo(s) -> list[int] | None:
    """The image list of an endomorphism that misses an element, or None.

    The elements are tried as the one missed in declaration order; the
    first that can be missed gives the first such endomorphism found.  A
    digraph's searches start from its level windows, cut once.
    """
    n = len(s.domain)
    relations = [(r.tuples, _target(r, n)) for r in s.relations]
    start = _Search([(1 << n) - 1] * n, relations, s if isinstance(s, Digraph) else None).domains
    for avoided in range(n):
        missed = ~(1 << avoided)
        image = next(_Search([d & missed for d in start], relations).solutions(), None)
        if image is not None:
            return image
    return None


def is_core(structure) -> bool:
    """True iff every endomorphism is surjective (complete search)."""
    return _non_surjective_endo(_template(structure)) is None


def _idempotent_power(image: list[int]) -> list[int]:
    power = image
    while any(power[p] != p for p in power):
        power = [image[p] for p in power]
    return power


def core_of(structure):
    """The induced substructure (or subdigraph) of minimum size that the
    input retracts onto."""
    s = _template(structure)
    while (witness := _non_surjective_endo(s)) is not None:
        retraction = _idempotent_power(witness)
        keep = [x for x, y in enumerate(retraction) if x == y]
        s = s.induced(keep)
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


# the most cells plus indicator rows find_operations takes on: about 2M
# (jonsson2 on D(parity4), the largest fixture search) take seconds and
# about 1 GB, about 10M (NU-4 on D(1-in-3)) minutes and 5 GB
WITNESS_SEARCH_BOUND = 1 << 22


def find_operations(structure, sigma: IdentitySet) -> dict[str, OpTable] | None:
    """Search for operation tables witnessing a linear identity set.

    Every table cell is a variable of one big instance: identities merge
    cells (or pin them to constants), and preservation of each relation
    contributes one row per choice of input tuples, each distinct row
    once in first-occurrence order.  The search takes the rows and the
    pinned cells' masks, no names, and its image list fills the tables;
    a None answer is a proof that no witnesses exist.  Each table has the arity
    its symbol declares in ``sigma``; a set without symbols, or a symbol
    that is undeclared or used at another arity, raises from
    ``sigma.ensure_linear()`` first.

    The cell of f(a1..am) is the integer first[f] plus the flat index of
    (a1..am), so an identity side over every assignment, and a relation
    column over every choice of tuples, is one product_offsets call.
    Past WITNESS_SEARCH_BOUND cells (the sum of n**m) plus rows (of
    |R|**m), PreconditionError names both before anything is built.
    """
    s = _template(structure)
    sigma.ensure_linear()
    n = len(s.domain)
    first: dict[str, int] = {}
    n_cells = 0
    for name, arity in sigma.symbols:
        first[name], n_cells = n_cells, n_cells + n**arity
    n_rows = sum(len(r.tuples) ** m for r in s.relations for _, m in sigma.symbols)
    if n_cells + n_rows > WITNESS_SEARCH_BOUND:
        raise PreconditionError(
            f"witness search needs {n_cells} cells and {n_rows} rows, "
            f"more than the bound of {WITNESS_SEARCH_BOUND} together"
        )

    def side(term, variables) -> list[int]:
        """The side's cell, or a bare variable's value, at each assignment."""
        weight = [0] * len(variables)
        for i, v in enumerate(term.args):
            weight[variables.index(v)] += n ** (len(term.args) - 1 - i)
        offsets = product_offsets(weight, range(n))
        if term.symbol is None:
            return offsets
        return [first[term.symbol] + o for o in offsets]

    uf = UnionFind(n_cells)
    pinned: list[tuple[int, int]] = []  # (cell, value)
    for ident in sigma.identities:
        variables = sorted(ident.variables())
        lhs, rhs = sorted((ident.lhs, ident.rhs), key=lambda t: t.symbol is None)
        a, b = side(lhs, variables), side(rhs, variables)
        if rhs.symbol is not None:
            for i, j in zip(a, b):
                uf.union(i, j)
        elif lhs.symbol is not None:
            pinned += zip(a, b)
        elif a != b:
            return None
    root = [uf.find(c) for c in range(n_cells)]
    constant: dict[int, int] = {}
    for cell, value in pinned:
        if constant.setdefault(root[cell], value) != value:
            return None

    reps = sorted(set(root))
    rep_pos = {r: i for i, r in enumerate(reps)}
    domains = [(1 << n) - 1] * len(reps)
    for r, value in constant.items():
        domains[rep_pos[r]] = 1 << value
    # each symbol's cells as indicator variables, in table order
    var_of = {
        name: [rep_pos[r] for r in root[first[name] : first[name] + n**arity]]
        for name, arity in sigma.symbols
    }
    relations = []
    for rel in s.relations:
        rows: list[tuple[int, ...]] = []
        for name, arity in sigma.symbols:
            weights = [n ** (arity - 1 - i) for i in range(arity)]
            columns = (
                product_offsets(weights, [t[j] for t in rel.tuples])
                for j in range(rel.arity)
            )
            rows += zip(*(map(var_of[name].__getitem__, col) for col in columns))
        relations.append((list(dict.fromkeys(rows)), _target(rel, n)))
    image = next(_Search(domains, relations).solutions(), None)
    if image is None:
        return None
    return {
        name: OpTable(name, arity, n, tuple(image[v] for v in var_of[name]))
        for name, arity in sigma.symbols
    }


def _column_images(op, tuples, j: int, weight: int):
    """Images of column j under op, times weight, one chunk per tuple at
    the first place.

    op.tabulate(C, m) gives op over C^m in itertools.product order, with
    C the sorted values occurring in column j; every tuple of C^m occurs
    in some combination of m tuples, so nothing is evaluated that the
    check does not need.  Chunk i holds the images of the combinations
    whose first tuple is tuples[i], in itertools.product order, read from
    the table's row for that tuple's value in column j: the slice of the
    n^(m-1) entries whose first argument is that value.  Only that row is
    scaled by weight, once per run of first tuples sharing the value, so
    no scaled copy of the whole table is ever built; a scaled row refers
    to one int object per value of op rather than holding its own.  A
    chunk is done with once the next one is asked for: its row is
    emptied then.
    """
    m = op.arity
    values = sorted({t[j] for t in tuples})
    place = {v: i for i, v in enumerate(values)}
    table = op.tabulate(values, m)
    if m == 0:
        yield [weight * table[0]]  # the one, empty, combination
        return
    col = [place[t[j]] for t in tuples]
    n = len(values)
    # table offsets within a row of the last m-1 places, over all combinations
    rest = product_offsets([n ** (m - 2 - i) for i in range(m - 1)], col)
    stride = n ** (m - 1)
    scaled = [weight * x for x in range(op.size)]
    last, row = None, []
    for p in col:
        if p != last:
            # the last chunk's map still holds the old row
            row.clear()
            last, row = p, table[p * stride : (p + 1) * stride]
            if weight != 1:
                row = list(map(scaled.__getitem__, row))
        yield map(row.__getitem__, rest)


def is_polymorphism(op, structure) -> bool:
    """Exhaustive preservation check over all tuple combinations.

    A tuple t of an a-ary relation over n elements is coded as the
    integer sum(t[j] * n^(a-1-j)), and the relation as the set of its
    tuples' codes.  Each column of the relation gets its own table of op
    over the values that occur in that column (see _column_images); a
    combination's image is then the sum of its columns' scaled images,
    read off the tables, and every one of the |R|^m combinations is
    checked by looking that one integer up.  The tuples are walked in
    sorted order, so the first column's rows change only n times.  op is
    evaluated at most once per table entry, and a table is never larger
    than the set of combinations it serves; besides the tables, memory
    holds, per column, the offsets within a row of the |R|^(m-1)
    combinations that share a first tuple and the current row.  The codes
    are summed and looked up one by one, never stored.  Nothing outlives
    the call.
    """
    s = _template(structure)
    n = len(s.domain)
    if op.size != n:
        raise ArityMismatch("operation domain does not match the structure")
    for rel in s.relations:
        weights = [n ** (rel.arity - 1 - j) for j in range(rel.arity)]
        allowed = {sum(map(operator.mul, t, weights)) for t in rel.tuples}
        tuples = sorted(rel.tuples)
        columns = [_column_images(op, tuples, j, w) for j, w in enumerate(weights)]
        for chunk in zip(*columns):
            codes = chunk[0]
            for images in chunk[1:]:
                codes = map(operator.add, codes, images)
            if not allowed.issuperset(codes):
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
        return map(table.__getitem__, product_offsets(weight, range(size)))

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
    for name, level in zip(path.vertices, accumulate(spec.orientations(), initial=0)):
        by_level.setdefault(level, []).append(name)
    last = len(path.vertices) - 1
    named = {"iota": path.vertices[0], "tau": path.vertices[last]}
    restriction: dict[str, list[str]] = {}
    for v in h.vertices:
        restriction[v] = by_level.get(level_of[v], [])
    if anchors:
        for v, target in anchors.items():
            restriction[v] = [named.get(target, target)]
    return find_hom(h, path, restriction) is not None
