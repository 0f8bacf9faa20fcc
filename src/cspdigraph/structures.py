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

All models are immutable after construction.  Element order in a file is
the canonical order used everywhere downstream, so parsing and
serialization are exact inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Literal, Sequence

from .errors import NonemptyRelationRequired, ParseError

Role = Literal["template", "instance"]


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    tuples: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RelStructure:
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
class Digraph:
    name: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    levels: tuple[int, ...] | None = None

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
        if self.levels is not None:
            if len(self.levels) != n:
                raise ParseError("level map does not cover all vertices")
            for u, v in self.edges:
                if self.levels[v] != self.levels[u] + 1:
                    raise ParseError(
                        f"edge {self.vertices[u]}->{self.vertices[v]} does not "
                        "increment the level by one"
                    )

    @cached_property
    def _vertex_at(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.vertices)}

    def vertex_index(self, name: str) -> int:
        try:
            return self._vertex_at[name]
        except KeyError:
            raise ParseError(f"unknown vertex {name!r}") from None

    @cached_property
    def neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each vertex, (w, 1) per edge to w and (w, -1) per edge from w,
        in edge order; built on first use, for every walk over the digraph."""
        nbrs: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for u, v in self.edges:
            nbrs[u].append((v, 1))
            nbrs[v].append((u, -1))
        return tuple(map(tuple, nbrs))

    def induced(self, vertex_ids: Sequence[int], name: str | None = None) -> "Digraph":
        """Induced subgraph, keeping vertex names and relative order."""
        ids = sorted(set(vertex_ids))
        remap = {v: i for i, v in enumerate(ids)}
        return Digraph(
            name or self.name,
            tuple(self.vertices[v] for v in ids),
            tuple(
                (remap[u], remap[v])
                for u, v in self.edges
                if u in remap and v in remap
            ),
            levels=tuple(self.levels[v] for v in ids) if self.levels else None,
        )

    def as_structure(self, role: Role = "instance") -> RelStructure:
        """View the digraph as a structure with one binary relation E."""
        return make_structure(
            self.name, self.vertices, [("E", 2, self.edges)], role=role
        )


def make_digraph(
    name: str,
    vertices: Sequence[str],
    edges: Iterable[tuple[int, int]],
    levels: Sequence[int] | None = None,
) -> Digraph:
    """Build a digraph from index edges, deduplicating silently."""
    return Digraph(
        name,
        tuple(vertices),
        tuple(dict.fromkeys(edges)),
        tuple(levels) if levels is not None else None,
    )


# ---------------------------------------------------------------------------
# Parsing

# characters of text split at a time by the line reader
_CHUNK = 1 << 16


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, body) of each line that holds a token, in order.

    The body is the line with its ``#`` comment cut and its ends
    stripped; lines are those of ``str.splitlines``, numbered from 1.
    The reader streams: it splits the text a chunk at a time, each chunk
    ending just after a ``\\n`` (no line break runs on past one), so it
    holds no list of all lines.  Every file format reads through here.
    """
    start, first = 0, 1
    while start < len(text):
        cut = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:cut].splitlines()
        for lineno, raw in enumerate(chunk, first):
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            body = raw.strip()
            if body:
                yield lineno, body
        start, first = cut, first + len(chunk)


def parse_structure(text: str) -> RelStructure:
    return _structure_from(_lines(text))


def _structure_from(lines: Iterator[tuple[int, str]]) -> RelStructure:
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
            try:
                blocks = [int(t) for t in toks[1:]]
            except ValueError:
                raise ParseError("blocks line must list arities", lineno) from None
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
    return _digraph_from(_lines(text))


def _digraph_from(lines: Iterator[tuple[int, str]]) -> Digraph:
    head_line = next(lines, None)
    if head_line is None:
        raise ParseError("empty digraph file")
    lineno, body = head_line
    head = body.split()
    if head[0] != "digraph" or len(head) != 2:
        raise ParseError("expected 'digraph <name>'", lineno)
    name = head[1]
    index: dict[str, int] = {}  # vertex name -> index, in file order
    edges: list[tuple[int, int]] = []
    for lineno, body in lines:
        toks = body.split()
        kw = toks[0]
        if kw == "edge":
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
            break
        else:
            raise ParseError(f"unknown keyword {kw!r}", lineno)
    else:
        raise ParseError("missing 'end'")
    for lineno, _ in lines:
        raise ParseError("content after 'end'", lineno)
    return make_digraph(name, tuple(index), edges)


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


def export_dot(g: Digraph) -> str:
    """One DOT digraph; vertices grouped by level when levels exist."""
    out = [f'digraph "{g.name}" {{']
    if g.levels is not None:
        by_level: dict[int, list[str]] = {}
        for i, v in enumerate(g.vertices):
            by_level.setdefault(g.levels[i], []).append(v)
        for lvl in sorted(by_level):
            members = " ".join(f'"{v}";' for v in by_level[lvl])
            out.append(f"  {{ rank=same; {members} }}")
    for v in g.vertices:
        out.append(f'  "{v}";')
    for u, v in g.edges:
        out.append(f'  "{g.vertices[u]}" -> "{g.vertices[v]}";')
    out.append("}")
    return "\n".join(out) + "\n"
