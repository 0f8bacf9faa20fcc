import itertools
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from cspdigraph import structures as structures_mod
from cspdigraph.builder import build_digraph
from cspdigraph.errors import NonemptyRelationRequired, ParseError
from cspdigraph.forward import forward_instance
from cspdigraph.lifting import order_key
from cspdigraph.rng import Lcg64
from cspdigraph.structures import (
    _CHUNK,
    Digraph,
    Relation,
    RelStructure,
    _blocks,
    _lines,
    export_dot,
    make_digraph,
    make_structure,
    parse_digraph,
    parse_structure,
    serialize_digraph,
    serialize_structure,
)
from oracles import choice, incident

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TWO_CYCLE_TEXT = """\
# the directed two-cycle
structure 2cycle
domain 0 1
relation R 2
tuple 0 1
tuple 1 0
end
"""


def test_parse_two_cycle():
    s = parse_structure(TWO_CYCLE_TEXT)
    assert s.domain == ("0", "1")
    assert s.relations[0].tuples == ((0, 1), (1, 0))
    assert s.role == "template"


def test_template_rejects_empty_relation():
    text = "structure t\ndomain a\nrelation R 1\nend\n"
    with pytest.raises(NonemptyRelationRequired):
        parse_structure(text)


def test_instance_accepts_empty_relation():
    text = "instance x\ndomain a\nrelation R 1\nend\n"
    s = parse_structure(text)
    assert s.role == "instance"
    assert s.relations[0].tuples == ()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("structure t\ndomain a\nrelation R 2\ntuple a\nend\n", "arity"),
        ("structure t\ndomain a\nrelation R 1\ntuple b\nend\n", "unknown element"),
        ("structure t\ndomain a a\nrelation R 1\ntuple a\nend\n", "duplicate"),
        ("structure t\ndomain a\nrelation R 1\ntuple a\n", "missing 'end'"),
        ("digraph g\nvertex v\nedge v w\nend\n", "unknown vertex"),
        ("structure t\ndomain a b a\nrelation R 1\ntuple a\nend\n",
         "^line 2: duplicate element name 'a'$"),
        ("structure t\ndomain a\nrelation R 1\ntuple a\nrelation R 2\nend\n",
         "^line 5: duplicate relation name 'R'$"),
        ("instance x\nblocks 1 1\nblocks 2\ndomain a\nrelation R 2\nend\n",
         "^line 3: second 'blocks' line$"),
        ("instance x\nblocks\ndomain a\nrelation R 2\nend\n",
         "^line 2: blocks line must list arities$"),
        ("instance x\nblocks 2 0\ndomain a\nrelation R 2\nend\n",
         "^line 2: block arities must be positive$"),
        ("instance x\nblocks -1 3\ndomain a\nrelation R 2\nend\n",
         "^line 2: block arities must be positive$"),
        # a tuple before any relation and before the domain: the relation
        # is missed first
        ("structure t\n\ntuple a\ndomain a\nrelation R 1\nend\n",
         "^line 3: 'tuple' before any 'relation'$"),
        ("structure t\nrelation R 1\n# no domain yet\ntuple a\ndomain a\nend\n",
         "^line 4: 'tuple' before 'domain'$"),
        # the first unknown element of a tuple, left to right
        ("structure t\ndomain a\nrelation R 3\ntuple a b c\nend\n",
         "^line 4: unknown element name 'b'$"),
        ("structure t\ndomain a b\nrelation R 3\ntuple a b c\nend\n",
         "^line 4: unknown element name 'c'$"),
    ],
)
def test_parse_errors(text, fragment):
    parse = parse_digraph if text.startswith("digraph") else parse_structure
    with pytest.raises(ParseError, match=fragment):
        parse(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 4"):
        parse_structure("structure t\ndomain a\nrelation R 1\ntuple b\nend\n")


def test_duplicate_tuples_dedupe_silently():
    s = make_structure("t", ["a"], [("R", 1, [(0,), (0,)])])
    assert s.relations[0].tuples == ((0,),)
    # repeated out of sorted order: each row stays where it first occurs
    s = make_structure("t", ["a", "b"], [("R", 1, [(1,), (0,), (1,)])])
    assert s.relations[0].tuples == ((1,), (0,))


def test_digraph_round_trip_minimal():
    g = parse_digraph("digraph g\nvertex v0\nend\n")
    assert g.vertices == ("v0",)
    assert g.edges == ()
    assert parse_digraph(serialize_digraph(g)) == g


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 1), (0, 1)), "duplicate edge (0,1) in 'g'"),
        (((0, 1), (0, 2)), "edge (0,2) out of range in 'g'"),
        (((-1, 0),), "edge (-1,0) out of range in 'g'"),
        (((1, 0), (1, 0), (0, 5)), "duplicate edge (1,0) in 'g'"),
        (((0, 5), (1, 0), (1, 0)), "edge (0,5) out of range in 'g'"),
    ],
    ids=["duplicate", "out-of-range", "negative", "duplicate-first", "range-first"],
)
def test_direct_digraph_construction_names_the_first_bad_edge(edges, message):
    with pytest.raises(ParseError) as info:
        Digraph("g", ("a", "b"), edges)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "tuples, message",
    [
        (((0, 1), (0,), (0, 5)), "tuple (0,) has length 1, relation 'R' has arity 2"),
        (((0, 1), (0, 5), (0,)), "tuple (0, 5) out of range in 'R'"),
        (((0, 1), (-1, 0)), "tuple (-1, 0) out of range in 'R'"),
        (((0, 1, 1), (0, 1)), "tuple (0, 1, 1) has length 3, relation 'R' has arity 2"),
    ],
    ids=["length-first", "range-first", "negative", "too-long"],
)
def test_direct_structure_construction_names_the_first_bad_tuple(tuples, message):
    with pytest.raises(ParseError) as info:
        RelStructure("s", ("a", "b"), (Relation("R", 2, tuples),))
    assert str(info.value) == message


def test_built_and_parsed_digraphs_drop_repeated_edges_in_first_order():
    """Also where a set of the edges would come out in another order, and
    with the repeats inside one edge run that parse_digraph reads in bulk."""
    for edges, first in [
        ([(1, 2), (0, 1), (1, 2), (2, 0), (0, 1)], ((1, 2), (0, 1), (2, 0))),
        ([(2, 1), (1, 0), (2, 0), (1, 0), (2, 1), (0, 2)], ((2, 1), (1, 0), (2, 0), (0, 2))),
    ]:
        g = make_digraph("g", ["a", "b", "c"], edges)
        assert g.edges == first
        text = "digraph g\nvertex a\nvertex b\nvertex c\n" + "".join(
            f"edge {'abc'[u]} {'abc'[v]}\n" for u, v in edges
        ) + "end\n"
        assert _bulk_share(text) == (len(edges) + 3, len(edges) + 5)
        assert parse_digraph(text) == g


_name = st.text(alphabet="abcdefgh012", min_size=1, max_size=4)


@st.composite
def structures(draw):
    domain = draw(st.lists(_name, min_size=1, max_size=5, unique=True))
    n_rel = draw(st.integers(1, 3))
    rels = []
    for i in range(n_rel):
        arity = draw(st.integers(1, 3))
        tuples = draw(
            st.lists(
                st.tuples(*[st.integers(0, len(domain) - 1)] * arity),
                min_size=0,
                max_size=4,
            )
        )
        rels.append((f"R{i}", arity, tuples))
    return make_structure("s", domain, rels, role="instance")


@given(structures())
@settings(max_examples=120, deadline=None)
def test_round_trip_is_identity(s):
    assert parse_structure(serialize_structure(s)) == s


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 6))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)
    )
    return make_digraph("g", [f"v{i}" for i in range(n)], edges)


@given(digraphs())
@example(make_digraph("loops", ["a", "b"], [(0, 0), (1, 0), (0, 1), (1, 1)]))
@settings(max_examples=120, deadline=None)
def test_digraph_round_trip_is_identity(g):
    assert parse_digraph(serialize_digraph(g)) == g


@given(digraphs())
@example(make_digraph("loops", ["a", "b", "c"], [(0, 0), (1, 0), (0, 1), (1, 1)]))
@settings(max_examples=120, deadline=None)
def test_adjacency_is_neighbours_split_by_direction(g):
    """outs and ins are the interleaved incidence lists filtered by sign,
    in edge order: a loop is its own vertex's out- and in-neighbour, and
    an isolated vertex has neither."""
    outs, ins = g.adjacency
    nbrs = [incident(g, x) for x in range(len(g.vertices))]
    assert outs == [[w for w, d in at if d == 1] for at in nbrs]
    assert ins == [[w for w, d in at if d == -1] for at in nbrs]


_pad = st.text(alphabet=" \t", max_size=3)
_gap = st.text(alphabet=" \t", min_size=1, max_size=3)
_comment = st.text(alphabet=" \t#ab:_", max_size=6).map(lambda c: "#" + c)
_break = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x0b"])


@st.composite
def renderings(draw):
    """A digraph and a non-canonical file of it: runs of blanks and tabs,
    comments, blank and comment-only lines, mixed line breaks, and edges
    repeated after their first line."""
    names = draw(st.lists(_name, min_size=1, max_size=6, unique=True))
    n = len(names)
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)
    )
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    rows = [["digraph", "g"], *(["vertex", v] for v in names)]
    rows += [["edge", names[u], names[v]] for u, v in edges] + [["end"], []]
    out = []
    for toks in rows:
        if draw(st.booleans()):
            out.append(draw(_pad) + draw(st.one_of(st.just(""), _comment)) + draw(_break))
        if toks:
            gaps = [draw(_gap) for _ in toks[1:]]
            line = toks[0] + "".join(g + t for g, t in zip(gaps, toks[1:]))
            tail = draw(st.one_of(st.just(""), _comment))
            out.append(draw(_pad) + line + draw(_pad) + tail + draw(_break))
    return make_digraph("g", names, edges), "".join(out)


@given(renderings())
@settings(max_examples=100, deadline=None)
def test_any_rendering_reads_as_the_canonical_file(drawn):
    g, text = drawn
    assert parse_digraph(text) == parse_digraph(serialize_digraph(g)) == g


def _lines_in_one_list(text):
    """The line reader's contract, from one str.splitlines of the text."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def test_line_reader_streams_like_one_split():
    """Several chunks' worth of text with every kind of line break, pairs
    of breaks and comments: the streamed lines and their numbers are those
    of one split."""
    rng = Lcg64(23)
    bodies = ["", "a", " ab\t", "#x", "a b # c", "\t", "edge a b", "v#", "x  y"]
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n\r", "\r\r\n"]
    text = "".join(
        choice(rng, bodies) + choice(rng, breaks) for _ in range(80000)
    ) + "tail"
    assert len(text) > 5 * _CHUNK
    lines = _lines(text)
    want = _lines_in_one_list(text)
    assert next(lines) == want[0]
    assert [want[0], *lines] == want


# ---------------------------------------------------------------------------
# The digraph reader's bulk blocks against a line loop over _lines alone


def _line_loop_digraph(text):
    """The digraph reader with no bulk path: each line from _lines, and
    the digraph built by the validating make_digraph."""
    lines = _lines(text)
    head_line = next(lines, None)
    if head_line is None:
        raise ParseError("empty digraph file")
    lineno, body = head_line
    head = body.split()
    if head[0] != "digraph" or len(head) != 2:
        raise ParseError("expected 'digraph <name>'", lineno)
    index = {}
    edges = []
    for lineno, body in lines:
        toks = body.split()
        if toks[0] == "edge":
            if len(toks) != 3:
                raise ParseError("expected 'edge <u> <v>'", lineno)
            for t in toks[1:]:
                if t not in index:
                    raise ParseError(f"unknown vertex {t!r}", lineno)
            edges.append((index[toks[1]], index[toks[2]]))
        elif toks[0] == "vertex":
            if len(toks) != 2:
                raise ParseError("expected 'vertex <v>'", lineno)
            if toks[1] in index:
                raise ParseError(f"duplicate vertex {toks[1]!r}", lineno)
            index[toks[1]] = len(index)
        elif toks[0] == "end":
            break
        else:
            raise ParseError(f"unknown keyword {toks[0]!r}", lineno)
    else:
        raise ParseError("missing 'end'")
    for lineno, _ in lines:
        raise ParseError("content after 'end'", lineno)
    return make_digraph(head[1], list(index), edges)


def _ends_of_blocks(rows):
    """Indices of the rows that end a block of the reader, for rows that
    each end in one '\\n'."""
    out, start, pos = [], 0, 0
    for i, row in enumerate(rows):
        pos += len(row) + 1
        if pos - 1 >= start + _CHUNK:
            out.append(i)
            start = pos
    return out


@st.composite
def large_digraph_files(draw):
    """(text, line): a digraph file of several blocks in serialize_digraph's
    form, its vertex lines, its edge lines and then up to three runs of
    new vertex lines, each followed by a run of edge lines, the shape of
    a gadget file with low components put in before `end`.  It is edited
    at and next to the ends of blocks and anywhere else: comment and blank
    lines, tabs, indents, padding, double spaces, other line breaks, glued
    comments (`vertex a#b` declares `a`) and repeated edges.  Most files
    also have a fault: a repeated or unknown vertex deep in a block, a
    repeated vertex inside one of the later vertex runs, which start
    mid-block (then line is its line number, else None), or content after
    `end`, sometimes a whole bulk-form block of it."""
    rng = Lcg64(draw(st.integers(0, 2**64 - 1)))
    # long names keep each block to a few thousand lines
    width = draw(st.integers(12, 40))
    n = draw(st.integers(2, 4)) * _CHUNK // (width + 8) + rng.below(500)
    m = draw(st.integers(1, 4)) * _CHUNK // (2 * width + 8) + rng.below(500)
    names = [f"v{i:0{width}d}" for i in range(n)]
    rows = [f"vertex {v}" for v in names]
    rows += [f"edge {names[rng.below(n)]} {names[rng.below(n)]}" for _ in range(m)]
    runs = []  # (first row, rows) of each later vertex run
    for j in range(draw(st.integers(0, 3))):
        fresh = [f"w{j}x{i:0{width}d}" for i in range(2 + rng.below(600))]
        runs.append((len(rows), len(fresh)))
        rows += [f"vertex {v}" for v in fresh]
        names += fresh
        rows += [
            f"edge {names[rng.below(len(names))]} {names[rng.below(len(names))]}"
            for _ in range(1 + rng.below(600))
        ]
    breaks = ["\n"] * len(rows)

    faults = [None, "duplicate", None, "unknown", "after"] + ["in run"] * 3 * bool(runs)
    fault = draw(st.sampled_from(faults))
    line = None
    if fault == "duplicate":
        at = draw(st.integers(n // 2, n - 1))
        rows[at] = f"vertex {names[rng.below(at)]}"
    elif fault == "unknown":
        at = draw(st.integers(n + m // 2, n + m - 1))
        rows[at] = rows[at].rsplit(" ", 1)[0] + " nosuch"
    elif fault == "in run":
        start, size = draw(st.sampled_from(runs))
        at = start + draw(st.integers(1, size - 1))
        # a name from earlier in the run or from before it
        earlier = rows[start + rng.below(at - start)] if draw(st.booleans()) else rows[0]
        rows[at] = earlier
        line = at + 2  # the head is line 1, each row one line

    ends = _ends_of_blocks(["digraph g", *rows])
    near_ends = st.sampled_from(ends).flatmap(lambda e: st.integers(e - 3, e))
    at_rows = draw(st.lists(st.one_of(near_ends, st.integers(0, len(rows) - 1)), max_size=6))
    # a glued comment on a vertex line of the second block, which is all
    # vertex lines when the first block ends before the edges begin
    glued = draw(st.integers(ends[0], max(ends[0], min(ends[1], n) - 1)))
    # edit from the last row back, so that earlier indices stay put
    for at in sorted({*at_rows, glued}, reverse=True):
        size = len(rows)
        edit = "glued" if at == glued else draw(st.sampled_from(
            ["comment", "blank", "tab", "indent", "pad", "double", "break", "glued", "repeat"]
        ))
        if edit == "comment":
            rows.insert(at, draw(_comment))
            breaks.insert(at, "\n")
        elif edit == "blank":
            rows.insert(at, draw(_pad))
            breaks.insert(at, "\n")
        elif edit == "tab":
            rows[at] = rows[at].replace(" ", "\t", 1)
        elif edit == "indent":
            rows[at] = draw(_gap) + rows[at]
        elif edit == "pad":
            rows[at] = draw(_pad) + rows[at] + draw(_pad)
        elif edit == "double":
            rows[at] = rows[at].replace(" ", "  ", 1)
        elif edit == "break":
            breaks[at] = draw(st.sampled_from(["\r\n", "\r", "\x0b", "\x0c", "\u2028"]))
        elif edit == "glued":
            rows[at] += "#" + draw(st.sampled_from(["", "b", "b#c"]))
        elif n < at < n + m:
            rows.insert(at, rows[rng.randint(n, at - 1)])
            breaks.insert(at, "\n")
        # no edit stops a row declaring its vertex; a row put in before
        # the repeated vertex moves it down a line
        if line is not None and len(rows) > size and at <= line - 2:
            line += 1

    body = "digraph g\n" + "".join(r + b for r, b in zip(rows, breaks))
    if fault != "after":
        return body + "end\n", line
    pad = 0
    if draw(st.booleans()):
        # spaces that end a block just after `end`, so that the next
        # block is all content after it
        *_, last = _blocks(body + "end\n")
        pad = max(0, _CHUNK + 1 - len(last))
    after = "".join(f"vertex w{i}\n" for i in range(draw(st.integers(1, 8000))))
    return body + "end" + " " * pad + "\n" + after, line


# no shrinking: a failing file cannot shrink below a block or two, and
# shrinking one of several blocks takes minutes
@given(large_digraph_files())
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_bulk_blocks_read_as_the_line_loop_reads_them(drawn):
    text, line = drawn
    assert len(text) > _CHUNK
    try:
        want = _line_loop_digraph(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_digraph(text)
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
        if line is not None:
            assert exc.line == line and "duplicate vertex" in str(exc)
        return
    assert line is None
    got = parse_digraph(text)
    assert got == want
    assert Digraph(got.name, got.vertices, got.edges) == got


def test_read_fixture_digraphs_pass_the_validating_constructor():
    """The reader builds its digraph unchecked; the digraph files among the
    fixtures and the encodings of the fixture templates read back as
    digraphs that the validating constructor accepts and equals."""
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.dg"))]
    texts += [
        serialize_digraph(build_digraph(parse_structure(p.read_text())).digraph)
        for p in sorted(FIXTURES.glob("*.rel"))
    ]
    assert len(texts) == 4
    for text in texts:
        g = parse_digraph(text)
        assert Digraph(g.name, g.vertices, g.edges) == g


def _bulk_share(text):
    """(lines that _read_bulk reads, lines) when parse_digraph reads text."""
    read = []
    bulk = structures_mod._read_bulk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures_mod, "_read_bulk", lambda *args: read.append(bulk(*args)) or read[-1])
        parse_digraph(text)
    return sum(read), len(text.splitlines())


def _gadget_with_low_lines():
    """A forward gadget's file with a low component's vertex and edge lines
    put in before `end`: the shape of a file that reverse reads."""
    rng = Lcg64(29)
    n = 400
    tuples = [(rng.below(n), rng.below(n)) for _ in range(2 * n)]
    x = make_structure("x", [f"e{i}" for i in range(n)], [("R", 2, tuples)], role="instance")
    body = serialize_digraph(forward_instance(x, 2)).splitlines()
    small = make_structure("s", ["a", "b", "c"], [("R", 2, [(0, 1), (1, 2)])], role="instance")
    full = forward_instance(small, 2)
    low = full.induced([i for i, v in enumerate(full.vertices) if not v.startswith("y:")])
    extra = [f"vertex low:{v}" for v in low.vertices]
    extra += [f"edge low:{low.vertices[u]} low:{low.vertices[v]}" for u, v in low.edges]
    return "\n".join(body[:-1] + extra + body[-1:]) + "\n"


def test_canonical_files_are_read_in_bulk_but_for_head_and_end():
    """Every line of a canonical file but its head line and `end` goes
    through _read_bulk, in whichever block it falls: the first block with
    the head line, the one where the edges begin and the last one with the
    lines put in before `end`."""
    gadget = _gadget_with_low_lines()
    assert len(gadget) > 2 * _CHUNK
    read, lines = _bulk_share(gadget)
    assert read >= 0.99 * lines
    texts = [p.read_text() for p in sorted(FIXTURES.glob("*.dg"))]
    texts += [
        serialize_digraph(build_digraph(parse_structure(p.read_text())).digraph)
        for p in sorted(FIXTURES.glob("*.rel"))
    ]
    for text in [gadget, *texts]:
        read, lines = _bulk_share(text)
        assert read == lines - 2


@pytest.mark.parametrize(
    "run",
    [
        # a name repeated inside the run
        "vertex c\nvertex d\nvertex c\nvertex e\n",
        # a name read by an earlier run
        "vertex c\nvertex b\nvertex d\n",
        # an unknown name as the last token, after many good pairs
        "edge a b\nedge b a\n" * 5000 + "edge b nowhere\n",
        # an unknown name in the middle, with good pairs before and after
        "edge a b\nedge b a\n" * 2500 + "edge nowhere a\n" + "edge b b\n" * 2500,
    ],
    ids=["repeat-in-run", "repeat-of-earlier", "unknown-last", "unknown-middle"],
)
def test_a_refused_run_leaves_index_and_edges_as_they_were(run):
    """_read_bulk reads a run in one pass and, when it refuses the run,
    leaves index and edges as they were, values and order included (an
    edge run appends nothing), so the line loop reads the run from where
    it was."""
    index = {"b": 0, "a": 1}
    edges = [(1, 0), (0, 0)]
    assert structures_mod._read_bulk(run, index, edges) == 0
    assert list(index.items()) == [("b", 0), ("a", 1)]
    assert edges == [(1, 0), (0, 0)]


def canonical_compare(s, x, y, kind: str) -> int:
    """Strict total comparison; returns -1, 0 or 1.

    element: element names in declaration order.
    tuple-lex: tuples of element names, lexicographic by element index.
    A×R-lex: (element, tuple) pairs, element first.
    R×A-lex: (tuple, element) pairs, tuple first.
    """

    def elem_key(name):
        return s.element_index(name)

    def tup_key(t):
        return tuple(s.element_index(n) for n in t)

    if kind == "element":
        kx, ky = elem_key(x), elem_key(y)
    elif kind == "tuple-lex":
        kx, ky = tup_key(x), tup_key(y)
    elif kind == "A×R-lex":
        kx = (elem_key(x[0]), tup_key(x[1]))
        ky = (elem_key(y[0]), tup_key(y[1]))
    elif kind == "R×A-lex":
        kx = (tup_key(x[0]), elem_key(x[1]))
        ky = (tup_key(y[0]), elem_key(y[1]))
    else:
        raise ParseError(f"unknown comparison kind {kind!r}")
    return (kx > ky) - (kx < ky)


def test_compare_elements_by_declaration_order():
    s = make_structure("t", ["0", "1"], [("R", 1, [(0,)])])
    assert canonical_compare(s, "0", "1", "element") == -1
    assert canonical_compare(s, "1", "1", "element") == 0


def test_compare_tuples_lexicographically():
    s = make_structure("t", ["0", "1"], [("R", 2, [(0, 1)])])
    assert canonical_compare(s, ("0", "1"), ("1", "0"), "tuple-lex") == -1


def test_compare_pairs_element_then_tuple():
    s = make_structure("t", ["0", "1"], [("R", 2, [(0, 1)])])
    # first coordinates decide
    left = ("1", ("0", "1"))
    right = ("0", ("1", "0"))
    assert canonical_compare(s, left, right, "A×R-lex") == 1
    assert canonical_compare(s, (left[1], left[0]), (right[1], right[0]), "R×A-lex") == -1


def test_compare_is_strict_total_order_exhaustively():
    s = make_structure("t", list("abcdef"), [("R", 1, [(0,)])])
    pairs = list(itertools.product(s.domain, repeat=2))
    for x, y in pairs:
        c = canonical_compare(s, x, y, "element")
        assert c == -canonical_compare(s, y, x, "element")
        assert (c == 0) == (x == y)
    for x, y, z in itertools.product(s.domain, repeat=3):
        if (
            canonical_compare(s, x, y, "element") < 0
            and canonical_compare(s, y, z, "element") < 0
        ):
            assert canonical_compare(s, x, z, "element") < 0


def test_tuple_compare_is_strict_total_order_exhaustively():
    s = make_structure("t", ["a", "b"], [("R", 2, [(0, 1)])])
    tuples = list(itertools.product(s.domain, repeat=2))
    for x, y in itertools.product(tuples, repeat=2):
        c = canonical_compare(s, x, y, "tuple-lex")
        assert c == -canonical_compare(s, y, x, "tuple-lex")
        assert (c == 0) == (x == y)
    for x, y, z in itertools.product(tuples, repeat=3):
        if (
            canonical_compare(s, x, y, "tuple-lex") < 0
            and canonical_compare(s, y, z, "tuple-lex") < 0
        ):
            assert canonical_compare(s, x, z, "tuple-lex") < 0


def test_order_key_agrees_with_canonical_compare(two_cycle, edge_template, parity4):
    # same-level interiors on different paths compare by their (element,
    # tuple) pair: A×R-lex under 'ar', R×A-lex under 'ra'; on one path, by
    # their distance from the element end
    compared = 0
    for template in (two_cycle, edge_template, parity4):
        meta = build_digraph(template)
        names = template.domain
        interiors = [v for v, e in enumerate(meta.coords) if e]
        for variant, kind in (("ar", "A×R-lex"), ("ra", "R×A-lex")):
            key = order_key(meta, variant)

            def pair(v):
                a, *r = meta.coords[v]
                ea, er = names[a], tuple(names[i] for i in r)
                return (ea, er) if variant == "ar" else (er, ea)

            for u, v in itertools.permutations(interiors, 2):
                if meta.lvl[u] != meta.lvl[v]:
                    continue
                ku, kv = key(u), key(v)
                if meta.coords[u] == meta.coords[v]:
                    pu, pv = meta.v_pos[u], meta.v_pos[v]
                    assert (ku > kv) - (ku < kv) == (pu > pv) - (pu < pv)
                    continue
                assert (ku > kv) - (ku < kv) == canonical_compare(
                    template, pair(u), pair(v), kind
                )
                compared += 1
    assert compared == 2048


# ---------------------------------------------------------------------------
# DOT export


def test_dot_zigzag_shape():
    z = make_digraph("Z", ["00", "01", "10", "11"], [(0, 1), (2, 1), (2, 3)])
    dot = export_dot(z)
    node_lines = [l for l in dot.splitlines() if l.strip().endswith('";') and "->" not in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 4
    assert len(edge_lines) == 3
    assert '"00" -> "01";' in dot
    assert '"10" -> "01";' in dot
    assert '"10" -> "11";' in dot


def test_dot_isolated_vertices():
    g = make_digraph("g", ["a", "b"], [])
    dot = export_dot(g)
    assert '"a";' in dot and '"b";' in dot
    assert "->" not in dot


def test_dot_escapes_every_id_in_rank_groups_too():
    g = make_digraph('say "hi"', ['a"b', "c\\d"], [(0, 1)])
    dot = export_dot(g, [0, 1])
    assert dot.startswith('digraph "say \\"hi\\"" {\n')
    assert '  { rank=same; "a\\"b"; }\n  { rank=same; "c\\\\d"; }\n' in dot
    assert '  "a\\"b" -> "c\\\\d";\n' in dot


def test_dot_two_cycle_encoding_has_24_nodes(two_cycle):
    from cspdigraph.builder import build_digraph

    meta = build_digraph(two_cycle)
    dot = export_dot(meta.digraph, meta.lvl)
    node_lines = [l for l in dot.splitlines() if l.strip().endswith('";') and "->" not in l]
    assert len(node_lines) == 24
    assert "rank=same" in dot
