"""Relational structures, digraphs, and their file formats.

Structure files are line oriented; ``#`` starts a comment, tokens are
whitespace separated::

    structure <name>          (or: instance <name>)
    blocks <k1> <k2> ...      (optional, written by the merge step)
    domain <e1> ... <em>
    relation <Rname> <arity>
    tuple <e_i1> ... <e_ik>
    ...
    end

Digraph files::

    digraph <name>
    vertex <v>
    edge <u> <v>
    end

Every file is read a block of about 64k characters at a time, so no
list of all lines is ever held.  In a digraph file, each run of vertex
lines or of edge lines in the form ``serialize_digraph`` writes is read
in bulk, wherever in a block it starts and ends; every other line, and
every error, goes through the line loop.

All models are immutable after construction.  Element order in a file is
the canonical order used everywhere downstream, so parsing and
serialization are exact inverses.  A digraph answers the same lookups
as a structure, as the structure with one binary relation E over its
edges, so the solver searches it as it is, and its walks read the
out- and in-lists of its cached ``adjacency``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator, Literal, Sequence

from .errors import NonemptyRelationRequired, ParseError

Role = Literal["template", "instance"]


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    tuples: tuple[tuple[int, ...], ...]

    @cached_property
    def prepared(self) -> dict:
        """What the solver builds once to search into this relation, by
        value count: its neighbour masks and, on a digraph's E, its level
        windows; empty until a search first asks (solver._target)."""
        return {}


class _Lookups:
    """Name lookups over ``domain`` and ``relations``."""

    @cached_property
    def _element_at(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.domain)}

    def element_index(self, name: str) -> int:
        try:
            return self._element_at[name]
        except KeyError:
            raise ParseError(f"unknown element name {name!r}") from None

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((r.name, r.arity) for r in self.relations)

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise ParseError(f"unknown relation {name!r}")


@dataclass(frozen=True)
class RelStructure(_Lookups):
    """A finite relational structure over named elements.

    ``role`` distinguishes templates (all relations must be nonempty)
    from instances (empty relations are fine).  ``block_arities``
    remembers the original signature after a merge so that the merged
    file is self-contained.
    """

    name: str
    domain: tuple[str, ...]
    relations: tuple[Relation, ...]
    role: Role = "template"
    block_arities: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(set(self.domain)) != len(self.domain):
            raise ParseError(f"duplicate element name in {self.name!r}")
        if not self.domain:
            raise ParseError(f"empty domain in {self.name!r}")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise ParseError(f"duplicate relation name in {self.name!r}")
        if not self.relations:
            raise ParseError(f"empty signature in {self.name!r}")
        m = len(self.domain)
        for rel in self.relations:
            # one check of the lengths and one range check; the tuples are
            # walked only to name the first offender
            ends = list(chain.from_iterable(rel.tuples))
            if set(map(len, rel.tuples)) - {rel.arity} or (
                ends and (min(ends) < 0 or max(ends) >= m)
            ):
                for t in rel.tuples:
                    if len(t) != rel.arity:
                        raise ParseError(
                            f"tuple {t} has length {len(t)}, relation "
                            f"{rel.name!r} has arity {rel.arity}"
                        )
                    if any(i < 0 or i >= m for i in t):
                        raise ParseError(f"tuple {t} out of range in {rel.name!r}")
            if self.role == "template" and not rel.tuples:
                raise NonemptyRelationRequired(
                    f"relation {rel.name!r} of template {self.name!r} is empty"
                )

    def induced(self, keep: Sequence[int]) -> "RelStructure":
        """The substructure on the elements ``keep`` (ascending ids), with
        this one's name and role."""
        at = {old: new for new, old in enumerate(keep)}
        rels = []
        for r in self.relations:
            kept = [t for t in r.tuples if all(i in at for i in t)]
            rels.append((r.name, r.arity, [tuple(at[i] for i in t) for t in kept]))
        return make_structure(self.name, [self.domain[i] for i in keep], rels, role=self.role)


def make_structure(
    name: str,
    domain: Sequence[str],
    relations: Iterable[tuple[str, int, Iterable[Sequence[int]]]],
    role: Role = "template",
    block_arities: Sequence[int] | None = None,
) -> RelStructure:
    """Build a structure from index tuples, deduplicating silently."""
    rels = tuple(
        Relation(rname, arity, tuple(dict.fromkeys(map(tuple, tuples))))
        for rname, arity, tuples in relations
    )
    return RelStructure(
        name,
        tuple(domain),
        rels,
        role,
        tuple(block_arities) if block_arities is not None else None,
    )


@dataclass(frozen=True)
class Digraph(_Lookups):
    """To the solver, the structure on ``domain`` (the vertices) with one
    binary relation E."""

    name: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ParseError(f"duplicate vertex name in {self.name!r}")
        n = len(self.vertices)
        # one set comparison and one range check; the edges are walked
        # only to name the first offender
        ends = list(chain.from_iterable(self.edges))
        if len(set(self.edges)) != len(self.edges) or (
            ends and (min(ends) < 0 or max(ends) >= n)
        ):
            seen = set()
            for u, v in self.edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ParseError(f"edge ({u},{v}) out of range in {self.name!r}")
                if (u, v) in seen:
                    raise ParseError(f"duplicate edge ({u},{v}) in {self.name!r}")
                seen.add((u, v))

    @classmethod
    def _unchecked(
        cls, name: str, vertices: tuple[str, ...], edges: tuple[tuple[int, int], ...]
    ) -> "Digraph":
        """A digraph built without ``__post_init__``'s checks, for callers
        whose digraph is valid by construction: the reader, which has found
        the vertex names distinct, resolved every edge to them and dropped
        repeated edges already, the forward gadget and a component of a
        valid digraph.  The tests pass each kind through the checks."""
        g = object.__new__(cls)
        g.__dict__.update(name=name, vertices=vertices, edges=edges)
        return g

    @property
    def domain(self) -> tuple[str, ...]:
        return self.vertices

    @cached_property
    def relations(self) -> tuple[Relation, ...]:
        """E over the edge tuple, kept, so searches share its prepared slot."""
        return (Relation("E", 2, self.edges),)

    @cached_property
    def adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """(outs, ins): for each vertex the heads of its out-edges and the
        tails of its in-edges, in edge order; built on first use, for the
        walks over the digraph.  The lists are shared and read only; they
        stay lists, as a copy into tuples costs about half the build again."""
        outs: list[list[int]] = [[] for _ in self.vertices]
        ins: list[list[int]] = [[] for _ in self.vertices]
        for u, v in self.edges:
            outs[u].append(v)
            ins[v].append(u)
        return outs, ins

    def induced(self, vertex_ids: Sequence[int]) -> "Digraph":
        """Induced subgraph, keeping the name, vertex names and relative order."""
        ids = sorted(set(vertex_ids))
        remap = {v: i for i, v in enumerate(ids)}
        return Digraph(
            self.name,
            tuple(self.vertices[v] for v in ids),
            tuple(
                (remap[u], remap[v])
                for u, v in self.edges
                if u in remap and v in remap
            ),
        )


def levelled_components(
    outs: Sequence[Sequence[int]], ins: Sequence[Sequence[int]]
) -> tuple[list, list[tuple[list[int], int | None]]]:
    """(level, parts): one walk per connected component of the digraph
    whose out- and in-lists these are finds it and writes its levels.

    The components come in order of least vertex, each sorted, with its
    height.  Each walk starts at the component's least vertex and writes
    every vertex's level into the one per-vertex list ``level``,
    normalised so that the component's lowest vertex is at 0.  The
    height is None when an edge disagrees with the levels already
    written, a loop's among them.
    """
    level: list = [None] * len(outs)
    parts: list[tuple[list[int], int | None]] = []
    for root in range(len(level)):
        if level[root] is not None:
            continue
        level[root] = 0
        comp = [root]
        balanced = True
        for u in comp:
            up = level[u] + 1
            for w in outs[u]:
                lw = level[w]
                if lw is None:
                    level[w] = up
                    comp.append(w)
                elif lw != up:
                    balanced = False
            down = up - 2
            for w in ins[u]:
                lw = level[w]
                if lw is None:
                    level[w] = down
                    comp.append(w)
                elif lw != down:
                    balanced = False
        comp.sort()
        height = None
        if balanced:
            low = min(map(level.__getitem__, comp))
            if low:
                for v in comp:
                    level[v] -= low
            height = max(map(level.__getitem__, comp))
        parts.append((comp, height))
    return level, parts


def make_digraph(
    name: str,
    vertices: Sequence[str],
    edges: Iterable[tuple[int, int]],
) -> Digraph:
    """Build a digraph from index edges, deduplicating silently."""
    return Digraph(name, tuple(vertices), tuple(dict.fromkeys(edges)))


def fresh_prefix(names: Iterable[str], heads: tuple[str, ...]) -> str:
    """The fewest '_' that no name starts with followed by one of heads:
    a fresh name made of it and a head meets none of the names."""
    # leading '_' counts of the names that would meet a fresh name
    taken = {
        len(e) - len(bare)
        for e in names
        if (bare := e.lstrip("_")).startswith(heads)
    }
    n = 0
    while n in taken:
        n += 1
    return "_" * n


# ---------------------------------------------------------------------------
# Parsing

# characters of text split at a time by the line reader
_CHUNK = 1 << 16

# a run, from a line start, of serialize_digraph's vertex lines or of its
# edge lines: single spaces, '\n' breaks and names free of whitespace; a
# run holding a '#' is not in that form either, which a plain search
# finds faster than a [^\s#] class in the pattern
_BULK = re.compile(r"^(?:(?:vertex \S+\n)+|(?:edge \S+ \S+\n)+)", re.M)


def _blocks(text: str) -> Iterator[str]:
    """The text a block of about ``_CHUNK`` characters at a time, each
    block ending just after a ``\\n``, so no line break runs on past one."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:cut]
        start = cut


def _bodies(rows: list[str], first: int) -> Iterator[tuple[int, str]]:
    """(line number, body) of each row that holds a token, the rows
    numbered from first; the body is the row with its ``#`` comment cut
    and its ends stripped."""
    for lineno, raw in enumerate(rows, first):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        body = raw.strip()
        if body:
            yield lineno, body


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, body) of each line that holds a token, in order.

    Lines are those of ``str.splitlines``, numbered from 1.  The reader
    streams: it splits the text a block at a time (``_blocks``), so it
    holds no list of all lines.  Every other file format reads through
    here; the digraph reader walks the same blocks and bodies itself, so
    that it can read some blocks in bulk.
    """
    first = 1
    for block in _blocks(text):
        rows = block.splitlines()
        yield from _bodies(rows, first)
        first += len(rows)


def parse_structure(text: str) -> RelStructure:
    lines = _lines(text)
    head_line = next(lines, None)
    if head_line is None:
        raise ParseError("empty structure file")
    lineno, body = head_line
    head = body.split()
    if head[0] not in ("structure", "instance") or len(head) != 2:
        raise ParseError("expected 'structure <name>' or 'instance <name>'", lineno)
    role: Role = "template" if head[0] == "structure" else "instance"
    name = head[1]

    domain: list[str] | None = None
    blocks: list[int] | None = None
    relations: list[tuple[str, int, list[tuple[int, ...]]]] = []
    for lineno, body in lines:
        toks = body.split()
        kw = toks[0]
        if kw == "domain":
            if domain is not None:
                raise ParseError("second 'domain' line", lineno)
            if len(toks) < 2:
                raise ParseError("empty domain", lineno)
            domain = toks[1:]
            index: dict[str, int] = {}
            for t in domain:
                if t in index:
                    raise ParseError(f"duplicate element name {t!r}", lineno)
                index[t] = len(index)
        elif kw == "blocks":
            if blocks is not None:
                raise ParseError("second 'blocks' line", lineno)
            try:
                blocks = [int(t) for t in toks[1:]]
            except ValueError:
                raise ParseError("blocks line must list arities", lineno) from None
            if not blocks:
                raise ParseError("blocks line must list arities", lineno)
            if min(blocks) < 1:
                raise ParseError("block arities must be positive", lineno)
        elif kw == "relation":
            if len(toks) != 3:
                raise ParseError("expected 'relation <name> <arity>'", lineno)
            try:
                arity = int(toks[2])
            except ValueError:
                raise ParseError(f"bad arity {toks[2]!r}", lineno) from None
            if arity < 1:
                raise ParseError("arity must be positive", lineno)
            if any(r[0] == toks[1] for r in relations):
                raise ParseError(f"duplicate relation name {toks[1]!r}", lineno)
            relations.append((toks[1], arity, []))
        elif kw == "tuple":
            if not relations:
                raise ParseError("'tuple' before any 'relation'", lineno)
            if domain is None:
                raise ParseError("'tuple' before 'domain'", lineno)
            rname, arity, tuples = relations[-1]
            if len(toks) - 1 != arity:
                raise ParseError(
                    f"tuple has {len(toks) - 1} entries, relation {rname!r} "
                    f"has arity {arity}",
                    lineno,
                )
            idx = []
            for t in toks[1:]:
                if t not in index:
                    raise ParseError(f"unknown element name {t!r}", lineno)
                idx.append(index[t])
            tuples.append(tuple(idx))
        elif kw == "end":
            break
        else:
            raise ParseError(f"unknown keyword {kw!r}", lineno)
    else:
        raise ParseError("missing 'end'")
    for lineno, _ in lines:
        raise ParseError("content after 'end'", lineno)
    if domain is None:
        raise ParseError("missing 'domain'")
    return make_structure(name, domain, relations, role=role, block_arities=blocks)


def serialize_structure(s: RelStructure) -> str:
    out = [f"{'structure' if s.role == 'template' else 'instance'} {s.name}"]
    if s.block_arities is not None:
        out.append("blocks " + " ".join(str(k) for k in s.block_arities))
    out.append("domain " + " ".join(s.domain))
    for rel in s.relations:
        out.append(f"relation {rel.name} {rel.arity}")
        for t in rel.tuples:
            out.append("tuple " + " ".join(s.domain[i] for i in t))
    out.append("end")
    return "\n".join(out) + "\n"


def parse_digraph(text: str) -> Digraph:
    """Read a digraph file, a block (``_blocks``) at a time.

    After the head line and before ``end``, each longest run of lines that
    ``_BULK`` matches at a line start, vertex lines only or edge lines
    only, each exactly as ``serialize_digraph`` writes it, is read in bulk
    (``_read_bulk``).  Everything else goes through the line loop below,
    numbered as it goes: the head line, ``end``, comments, blanks, other
    spacing and line breaks, and a run that ``_read_bulk`` refuses (it
    holds a ``#``, repeats a vertex or names an unknown one), so the line
    loop names every error with its line number.  Either way no list of
    all lines is held.
    """
    name: str | None = None  # set by the head line
    ended = False
    index: dict[str, int] = {}  # vertex name -> index, in file order
    edges: list[tuple[int, int]] = []
    first = 1  # number of the next line
    for block in _blocks(text):
        pos = 0
        while pos < len(block):
            # the line loop reads block[pos:stop]: up to the head line a
            # line at a time, after `end` the rest, in between what comes
            # before the next run or a run that _read_bulk refuses
            if name is None:
                stop = block.find("\n", pos) + 1 or len(block)
            elif ended:
                stop = len(block)
            else:
                run = _BULK.search(block, pos)
                if run is None:
                    stop = len(block)
                elif run.start() > pos:
                    stop = run.start()
                else:
                    stop = run.end()
                    read = _read_bulk(run[0], index, edges)
                    if read:
                        first += read
                        pos = stop
                        continue
            rows = block[pos:stop].splitlines()
            for lineno, body in _bodies(rows, first):
                toks = body.split()
                kw = toks[0]
                if name is None or ended:
                    if ended:
                        raise ParseError("content after 'end'", lineno)
                    if kw != "digraph" or len(toks) != 2:
                        raise ParseError("expected 'digraph <name>'", lineno)
                    name = toks[1]
                elif kw == "edge":
                    if len(toks) != 3:
                        raise ParseError("expected 'edge <u> <v>'", lineno)
                    try:
                        edges.append((index[toks[1]], index[toks[2]]))
                    except KeyError:
                        unknown = toks[1] if toks[1] not in index else toks[2]
                        raise ParseError(f"unknown vertex {unknown!r}", lineno) from None
                elif kw == "vertex":
                    if len(toks) != 2:
                        raise ParseError("expected 'vertex <v>'", lineno)
                    if toks[1] in index:
                        raise ParseError(f"duplicate vertex {toks[1]!r}", lineno)
                    index[toks[1]] = len(index)
                elif kw == "end":
                    ended = True
                else:
                    raise ParseError(f"unknown keyword {kw!r}", lineno)
            first += len(rows)
            pos = stop
    if name is None:
        raise ParseError("empty digraph file")
    if not ended:
        raise ParseError("missing 'end'")
    return Digraph._unchecked(name, tuple(index), tuple(dict.fromkeys(edges)))


def _read_bulk(run: str, index: dict[str, int], edges: list[tuple[int, int]]) -> int:
    """Read a run that ``_BULK`` matched and return its number of lines;
    return 0, leaving index and edges as they were, when the run holds a
    ``#``, repeats a vertex or names an unknown one."""
    if "#" in run:
        return 0
    # the splits below make the name strings alone, not the keyword
    # strings that run.split() would make and drop again
    if run[0] == "v":
        names = run[7:-1].split("\nvertex ")  # 'vertex a\nvertex b\n'
        n0 = len(index)
        index.update(zip(names, range(n0, n0 + len(names))))
        if len(index) < n0 + len(names):
            # a name repeats: each value was its key's insertion rank, and
            # update keeps a present key where it stands, so the first n0
            # keys, ranked again, are the index as it was
            old = list(islice(index, n0))
            index.clear()
            index.update(zip(old, range(n0)))
            return 0
        return len(names)
    toks = run[5:-1].replace("\nedge ", " ").split(" ")  # 'edge a b\nedge c d\n'
    ends = map(index.__getitem__, toks)  # one iterator: zip pairs it with itself
    n0 = len(edges)
    try:
        edges += zip(ends, ends)
    except KeyError:
        del edges[n0:]
        return 0
    return len(edges) - n0


def serialize_digraph(g: Digraph) -> str:
    out = [f"digraph {g.name}"]
    for v in g.vertices:
        out.append(f"vertex {v}")
    for u, v in g.edges:
        out.append(f"edge {g.vertices[u]} {g.vertices[v]}")
    out.append("end")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def export_dot(g: Digraph, levels: Sequence[int] | None = None) -> str:
    """One DOT digraph; vertices grouped by level when given one per vertex."""

    def q(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    out = [f"digraph {q(g.name)} {{"]
    if levels is not None:
        by_level: dict[int, list[str]] = {}
        for i, v in enumerate(g.vertices):
            by_level.setdefault(levels[i], []).append(v)
        for lvl in sorted(by_level):
            members = " ".join(f"{q(v)};" for v in by_level[lvl])
            out.append(f"  {{ rank=same; {members} }}")
    for v in g.vertices:
        out.append(f"  {q(v)};")
    for u, v in g.edges:
        out.append(f"  {q(g.vertices[u])} -> {q(g.vertices[v])};")
    out.append("}")
    return "\n".join(out) + "\n"
