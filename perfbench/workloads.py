"""Seeded inputs, timed item runners and their oracles, one class per workload.

Every workload turns a seed into a fixed list of items.  An item holds only
text, which is what a user of the package hands it, plus the answer the
oracle expects.  ``run`` is the timed part and goes through the package's
public functions, looked up on the modules at call time so that the tracer
can replace them.  ``check`` runs after the timed pass and compares the
output with the expected answer.

The generators use their own 64-bit linear congruential generator rather
than the package's, so that a change to the package cannot change the
inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

_MASK = (1 << 64) - 1


class Lcg:
    """The Knuth MMIX constants; draws use the high 32 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK
        for _ in range(4):
            self.next()

    def next(self) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) & _MASK
        return self.state

    def below(self, n: int) -> int:
        return (self.next() >> 32) % n

    def distinct(self, n: int, count: int) -> list[int]:
        out: list[int] = []
        while len(out) < count:
            v = self.below(n)
            if v not in out:
                out.append(v)
        return out

    def shuffled(self, seq) -> list:
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


@dataclass
class Item:
    label: str
    inputs: tuple
    expect: object


# ---------------------------------------------------------------------------
# Text generators


def structure_text(role: str, name: str, domain, relations) -> str:
    """relations: (name, arity, rows of element names)."""
    lines = [f"{role} {name}", "domain " + " ".join(domain)]
    for rname, arity, rows in relations:
        lines.append(f"relation {rname} {arity}")
        lines.extend("tuple " + " ".join(row) for row in rows)
    lines.append("end")
    return "\n".join(lines) + "\n"


def k3_template() -> str:
    rows = [(str(a), str(b)) for a in range(3) for b in range(3) if a != b]
    return structure_text("structure", "k3", ["0", "1", "2"], [("E", 2, rows)])


def nae3_template() -> str:
    rows = [
        tuple(map(str, t))
        for t in itertools.product(range(2), repeat=3)
        if len(set(t)) > 1
    ]
    return structure_text("structure", "nae3", ["0", "1"], [("R", 3, rows)])


# Rows (x, x, y) force x != y under not-all-equal, so five of them around a
# cycle of odd length admit no 2-colouring.
ODD_CYCLE = tuple((i, i, (i + 1) % 5) for i in range(5))


def _planted(rng: Lcg, n: int, m: int, arity: int, colours: int, core, core_rows, hub: int):
    """Rows of distinct vertices, none monochromatic under a hidden colouring.

    Such rows satisfy K3 (two colours on an edge) and NAE-3 (not all
    equal).  The core vertices each get ``hub`` extra rows, so the
    solver's degree-first variable order reaches them early; NO instances
    add ``core_rows`` over the core, which no colouring satisfies.  Colour
    classes differ in size by at most one, so proper rows always exist.
    """
    colour = [0] * n
    for rank, v in enumerate(rng.shuffled(range(n))):
        colour[v] = rank % colours

    def proper(row) -> bool:
        return len(set(row)) == arity and len({colour[v] for v in row}) > 1

    rows: dict[tuple[int, ...], None] = dict.fromkeys(core_rows)
    for h in core:
        added = 0
        while added < hub:
            row = (h,) + tuple(rng.below(n) for _ in range(arity - 1))
            if any(v in core for v in row[1:]) or row in rows or not proper(row):
                continue
            rows[row] = None
            added += 1
    while len(rows) < m:
        row = tuple(rng.below(n) for _ in range(arity))
        if row not in rows and proper(row):
            rows[row] = None
    return colour, sorted(rows)


def k3_planted(rng: Lcg, name: str, n: int, yes: bool) -> tuple[str, list[int]]:
    """Random graph with 15n/8 edges, 3-colourable unless a K4 is added.

    The K4 sits on hub vertices of degree at least 8, which the gadget
    search meets first, so a refutation costs about the same on every seed.
    """
    core = rng.distinct(n, 4)
    core_rows = [] if yes else list(itertools.combinations(core, 2))
    colour, rows = _planted(rng, n, 15 * n // 8, 2, 3, core, core_rows, 5)
    names = [f"v{i}" for i in range(n)]
    text = structure_text(
        "instance", name, names, [("E", 2, [(names[u], names[v]) for u, v in rows])]
    )
    return text, colour


def k3_two_tree(rng: Lcg, name: str, n: int, yes: bool) -> tuple[str, list[int]]:
    """A random 2-tree on n vertices, plus one clashing edge when NO.

    Each new vertex joins both ends of an existing edge, so the graph has
    2n-3 edges and one 3-colouring up to renaming colours: once two
    adjacent vertices are coloured, propagation colours the rest, and a
    direct solve never searches.  At n=320, planted graphs of the same
    density had rare seeds on which the direct solve took minutes.  The
    NO edge joins two early vertices of the same colour.
    """
    colour = [0, 1] + [0] * (n - 2)
    edges = [(0, 1)]
    for v in range(2, n):
        a, b = edges[rng.below(len(edges))]
        colour[v] = 3 - colour[a] - colour[b]
        edges += [(a, v), (b, v)]
    if not yes:
        # vertex 0 and its first same-coloured successor have high degree,
        # so the solver's degree-first order meets the clash early
        edges.append((0, next(v for v in range(3, n) if colour[v] == colour[0])))
    # seeded names, so construction order does not decide the solver's order
    label = rng.shuffled(range(n))
    names = [f"v{i}" for i in range(n)]
    rows = sorted((label[a], label[b]) for a, b in edges)
    text = structure_text(
        "instance", name, names, [("E", 2, [(names[u], names[v]) for u, v in rows])]
    )
    named_colour = [0] * n
    for v in range(n):
        named_colour[label[v]] = colour[v]
    return text, named_colour


def nae3_instance(rng: Lcg, name: str, n: int, yes: bool) -> tuple[str, list[int]]:
    core = rng.distinct(n, 5)
    core_rows = [] if yes else [tuple(core[i] for i in row) for row in ODD_CYCLE]
    colour, rows = _planted(rng, n, 3 * n // 2, 3, 2, core, core_rows, 3)
    names = [f"v{i}" for i in range(n)]
    text = structure_text(
        "instance", name, names, [("R", 3, [tuple(names[v] for v in r) for r in rows])]
    )
    return text, colour


K3, NAE3 = k3_template(), nae3_template()


def planted_ok(text: str, colour: list[int]) -> bool:
    """Independent check that the hidden colouring satisfies the instance.

    For both K3 and NAE-3 a row is satisfied exactly when it is not
    monochromatic.
    """
    return all(
        len({colour[int(tok[1:])] for tok in line.split()[1:]}) > 1
        for line in text.splitlines()
        if line.startswith("tuple ")
    )


# ---------------------------------------------------------------------------
# Reference loops
#
# Each workload names one of these as the unit its times are divided by.  A
# busy neighbour on the shared host slows tight interpreter loops more than
# allocation-heavy code, so each loop resembles the work it stands beside:
# arc consistency for the solver, lifting and reverse workloads, building
# and walking a large dict for the bulk translation.  Neither calls the
# package, so no change to the package moves them.


def _reference_csp(variables=60, values=6, constraints=150):
    rng = Lcg(11)
    allowed: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for _ in range(constraints):
        a, b = rng.below(variables), rng.below(variables)
        if a != b:
            pairs = {(x, y) for x in range(values) for y in range(values) if rng.below(10) < 6}
            allowed[(a, b)] = pairs
            allowed[(b, a)] = {(y, x) for x, y in pairs}
    neighbours: dict[int, list[int]] = {}
    for a, b in allowed:
        neighbours.setdefault(a, []).append(b)
    return variables, values, allowed, neighbours


REFERENCE_CSP = _reference_csp()


def ac3_loop() -> int:
    """AC-3 on a fixed random binary CSP from three starting assignments."""
    variables, values, allowed, neighbours = REFERENCE_CSP
    total = 0
    for first in range(3):
        domain = {v: set(range(values)) for v in range(variables)}
        domain[first] = {0}
        queue = list(allowed)
        while queue:
            a, b = queue.pop()
            pairs = allowed[(a, b)]
            keep = {x for x in domain[a] if any((x, y) in pairs for y in domain[b])}
            if keep != domain[a]:
                domain[a] = keep
                queue.extend((c, a) for c in neighbours[a] if c != b)
        total += sum(len(d) for d in domain.values())
    return total


def dict_loop() -> int:
    """A dict of 40,000 tuple keys to small lists, built and then walked."""
    table = {}
    for i in range(40000):
        table[(i, i * 7 % 1009)] = [i, str(i)]
    total = 0
    for key, value in table.items():
        total += key[1] + len(value[1])
    return total


# ---------------------------------------------------------------------------
# Workloads


class ForwardDecide:
    """Template CSP decided on the digraph side: one large GAC search each."""

    name = "forward-decide"
    reference = staticmethod(ac3_loop)
    # (template, instance generator, n elements, YES count, NO count).
    # K3 YES instances are 2-trees, because a planted YES graph now and then
    # needs backtracking that doubles its time; NO instances carry a K4.
    PLAN = (
        (K3, k3_two_tree, 80, 1, 0),
        (K3, k3_planted, 80, 0, 1),
        (NAE3, nae3_instance, 30, 1, 1),
    )

    def setup(self, cs, seed: int) -> list[Item]:
        rng = Lcg(seed)
        items = []
        for ttext, gen, n, n_yes, n_no in self.PLAN:
            template = cs.parse_structure(ttext)
            for i, yes in enumerate([True] * n_yes + [False] * n_no):
                label = f"{template.name}-n{n}-{'yes' if yes else 'no'}{i}"
                text, colour = gen(rng, label, n, yes)
                if yes and not planted_ok(text, colour):
                    raise RuntimeError(f"{label}: planted colouring does not fit")
                direct = cs.find_hom(cs.parse_structure(text), template) is not None
                if direct != yes:
                    raise RuntimeError(f"{label}: direct solve says {direct}, generator {yes}")
                items.append(Item(label, (ttext, text), yes))
        return items

    def run(self, cs, item: Item):
        ttext, itext = item.inputs
        a, blocks = cs.merge_template(cs.parse_structure(ttext))
        x = cs.merge_instance(cs.parse_structure(itext), blocks)
        meta = cs.build_digraph(a)
        gadget = cs.forward_instance(x, blocks.total)
        return gadget, meta.digraph, cs.find_hom(gadget, meta.digraph)

    def check(self, cs, item: Item, output) -> bool:
        gadget, target, hom = output
        if (hom is not None) != item.expect:
            return False
        if hom is None:
            return True
        edges = {(target.vertices[u], target.vertices[v]) for u, v in target.edges}
        names = gadget.vertices
        return len(hom) == len(names) and all(
            (hom[names[u]], hom[names[v]]) in edges for u, v in gadget.edges
        )


def low_component_lines(cs, rng: Lcg, prefix: str, template_text: str, n: int, m: int) -> list[str]:
    """Digraph lines of a YES gadget with its apexes cut off.

    Without apexes the gadget is one level short of the encoding's height,
    so reverse translation decides it in stage 2.  It maps into the
    encoding because its rows follow a hidden colouring.
    """
    template, blocks = cs.merge_template(cs.parse_structure(template_text))
    rel = template.relations[0]
    colours = len(template.domain)
    _, rows = _planted(rng, n, m, rel.arity, colours, (), (), 0)
    names = [f"{prefix}v{i}" for i in range(n)]
    x = cs.parse_structure(
        structure_text("instance", prefix, names, [(rel.name, rel.arity, [[names[v] for v in r] for r in rows])])
    )
    g = cs.forward_instance(cs.merge_instance(x, blocks), blocks.total)
    low = g.induced([i for i, v in enumerate(g.vertices) if not v.startswith("y:")])
    out = [f"vertex {prefix}:{v}" for v in low.vertices]
    out += [f"edge {prefix}:{low.vertices[u]} {prefix}:{low.vertices[v]}" for u, v in low.edges]
    return out


class ReverseCompile:
    """Digraph instances compiled back to the template side."""

    name = "reverse-compile"
    reference = staticmethod(ac3_loop)
    # (template, instance generator, n elements, YES?, low components)
    PLAN = (
        (K3, k3_two_tree, 160, True, 2),
        (K3, k3_two_tree, 160, False, 0),
        (K3, k3_two_tree, 320, True, 2),
        (K3, k3_two_tree, 320, False, 0),
        (NAE3, nae3_instance, 40, True, 1),
    )

    def setup(self, cs, seed: int) -> list[Item]:
        rng = Lcg(seed)
        items = []
        for idx, (ttext, gen, n, yes, lows) in enumerate(self.PLAN):
            template, blocks = cs.merge_template(cs.parse_structure(ttext))
            label = f"{template.name}-n{n}-{'yes' if yes else 'no'}{idx}"
            itext, _ = gen(rng, label, n, yes)
            x = cs.merge_instance(cs.parse_structure(itext), blocks)
            direct = cs.find_hom(x, template) is not None
            if direct != yes:
                raise RuntimeError(f"{label}: direct solve says {direct}, generator {yes}")
            body = cs.serialize_digraph(cs.forward_instance(x, blocks.total)).splitlines()
            extra: list[str] = []
            for j in range(lows):
                extra += low_component_lines(cs, rng, f"low{j}", ttext, 6, 4)
            text = "\n".join(body[:-1] + extra + body[-1:]) + "\n"
            rows = {tuple(x.domain[i] for i in t) for t in x.relations[0].tuples}
            items.append(Item(label, (ttext, text), (yes, rows)))
        return items

    def run(self, cs, item: Item):
        ttext, gtext = item.inputs
        template, _ = cs.merge_template(cs.parse_structure(ttext))
        result = cs.reverse_instance(cs.parse_digraph(gtext), template)
        return template, result.mode, cs.serialize_structure(result.instance)

    def check(self, cs, item: Item, output) -> bool:
        # Reverse translation of a forward gadget gives back the source
        # instance's rows, one per apex; low components add none.
        template, mode, text = output
        yes, rows = item.expect
        if mode != "assembled":
            return False
        out = cs.parse_structure(text)
        if {tuple(out.domain[i] for i in t) for t in out.relations[0].tuples} != rows:
            return False
        return (cs.find_hom(out, template) is not None) == yes


def op_table_text(rng: Lcg, name: str, arity: int, size: int, fn) -> str:
    """A table file with its rows in seeded order; the parser keys rows by input."""
    rows = [
        " ".join(map(str, args)) + f" {fn(args)}"
        for args in itertools.product(range(size), repeat=arity)
    ]
    return "\n".join([f"op {name} {arity} over {size}"] + rng.shuffled(rows)) + "\n"


WNU3 = "symbol w 3\nidentity w(x,x,x) = x\nidentity w(x,x,y) = w(x,y,x)\nidentity w(x,y,x) = w(y,x,x)\n"
MAJORITY = (
    "symbol m 3\nidentity m(x,x,x) = x\nidentity m(x,x,y) = x\n"
    "identity m(x,y,x) = x\nidentity m(y,x,x) = x\n"
)
# Binary relations on {0, 1}, each preserved by majority; NE is also
# preserved by xor3.  Their encodings have 24 (NE), 36 (OR, IMP) and 12
# (edge) edges, so one lift checks at most 36^3 edge triples, in under a
# second; parity4's 80^3 take about 11 s in one call.
BINARY_ROWS = {
    "ne2": (("0", "1"), ("1", "0")),
    "or2": (("0", "1"), ("1", "0"), ("1", "1")),
    "imp2": (("0", "0"), ("0", "1"), ("1", "1")),
    "edge": (("0", "1"),),
}


class LiftCheck:
    """Polymorphism lifting, verified exhaustively by the package."""

    name = "lift-check"
    reference = staticmethod(ac3_loop)
    SAMPLES = 3000  # edge triples the oracle re-checks per lifted operation

    def setup(self, cs, seed: int) -> list[Item]:
        # The seed only reorders template tuples and table rows, which the
        # encoding and the table parser sort away, so every seed asks for
        # the same work on different bytes.
        rng = Lcg(seed)
        t = {
            name: structure_text("structure", name, ["0", "1"], [("R", 2, rng.shuffled(rows))])
            for name, rows in BINARY_ROWS.items()
        }
        xor3 = op_table_text(rng, "w", 3, 2, lambda a: sum(a) % 2)
        maj_w = op_table_text(rng, "w", 3, 2, lambda a: sorted(a)[1])
        allmin = op_table_text(rng, "w", 3, 4, min)
        maj = op_table_text(rng, "m", 3, 2, lambda a: sorted(a)[1])
        # Majority is a WNU, so it is the template witness for WNU3 on OR
        # and IMP.  The majority identities are lifted only with the
        # zigzag witness that find_operations returns.
        # expect: identity lines in the report, and the seed of the sample
        return [
            Item("ne2-wnu3", (t["ne2"], WNU3, xor3, allmin), (3, rng.next())),
            Item("ne2-majority", (t["ne2"], MAJORITY, maj, None), (4, rng.next())),
            Item("or2-wnu3", (t["or2"], WNU3, maj_w, allmin), (3, rng.next())),
            Item("imp2-wnu3", (t["imp2"], WNU3, maj_w, allmin), (3, rng.next())),
            Item("edge-majority", (t["edge"], MAJORITY, maj, None), (4, rng.next())),
        ]

    def run(self, cs, item: Item):
        ttext, sigma_text, wa_text, wz_text = item.inputs
        meta = cs.build_digraph(cs.parse_structure(ttext))
        sigma = cs.parse_identities(sigma_text)
        wa = cs.parse_op_table(wa_text)
        wz = None if wz_text is None else {wa.name: cs.parse_op_table(wz_text)}
        return meta, cs.lifting.lift_all(meta, sigma, {wa.name: wa}, wz)

    def check(self, cs, item: Item, output) -> bool:
        meta, report = output
        identities, sample_seed = item.expect
        if not report.ok or len(report.lines) != 1 + identities:
            return False
        if not all(line.split(": ", 1)[1].startswith("ok") for line in report.lines):
            return False
        # Re-check a seeded sample of edge tuples without the package's
        # is_polymorphism: each image must again be an edge.
        g = meta.digraph
        edges = list(g.edges)
        edge_set = set(edges)
        rng = Lcg(sample_seed)
        for op in report.tables.values():
            for _ in range(self.SAMPLES):
                combo = [edges[rng.below(len(edges))] for _ in range(op.arity)]
                image = tuple(op(tuple(e[j] for e in combo)) for j in range(2))
                if image not in edge_set:
                    return False
        return True


class TranslateBulk:
    """Large sparse two-relation instances through every translation step."""

    name = "translate-bulk"
    reference = staticmethod(dict_loop)
    # Two instances of 2000 elements rather than one of 4000: items of about
    # a second keep the reference loop around each item close in time to it.
    INSTANCES, N, M_E, M_U = 2, 2000, 2000, 500
    TEMPLATE = structure_text(
        "structure", "eu", ["0", "1"], [("E", 2, [("0", "1")]), ("U", 1, [("0",)])]
    )

    def setup(self, cs, seed: int) -> list[Item]:
        rng = Lcg(seed)
        return [self.instance(rng, f"bulk{i}") for i in range(self.INSTANCES)]

    def instance(self, rng: Lcg, label: str) -> Item:
        names = [f"e{i}" for i in rng.shuffled(range(self.N))]
        e_rows: dict[tuple[int, int], None] = {}
        while len(e_rows) < self.M_E:
            e_rows[(rng.below(self.N), rng.below(self.N))] = None
        u_rows = rng.shuffled(range(self.N))[: self.M_U]
        text = structure_text(
            "instance",
            label,
            names,
            [
                ("E", 2, [(names[u], names[v]) for u, v in e_rows]),
                ("U", 1, [(names[u],) for u in u_rows]),
            ],
        )
        # Merged arity 3: an E row gets one pad, a U row two; each merged
        # row becomes an apex and three paths of 3*3-1 interior vertices.
        k, rows = 3, self.M_E + self.M_U
        vertices = self.N + self.M_E + 2 * self.M_U + rows * (1 + k * (3 * k - 1))
        expect = {
            "gadget": (vertices, rows * 3 * k * k),
            "E": {(names[u], names[v]) for u, v in e_rows},
            "U": {(names[u],) for u in u_rows},
        }
        return Item(label, (self.TEMPLATE, text), expect)

    def run(self, cs, item: Item):
        ttext, itext = item.inputs
        _, blocks = cs.merge_template(cs.parse_structure(ttext))
        x = cs.merge_instance(cs.parse_structure(itext), blocks)
        gadget = cs.forward_instance(x, blocks.total)
        reparsed = cs.parse_digraph(cs.serialize_digraph(gadget))
        return x, gadget, reparsed, cs.unmerge_instance(x, blocks)

    def check(self, cs, item: Item, output) -> bool:
        merged, gadget, reparsed, back = output
        rows = len(merged.relations[0].tuples)
        counts = (len(gadget.vertices), len(gadget.edges))
        if counts != item.expect["gadget"] or counts != cs.forward.gadget_size(len(merged.domain), rows, 3):
            return False
        if reparsed != gadget:
            return False
        # Unmerging keeps the pad elements and gives every relation a row
        # per merged row; the rows over original elements must be exactly
        # the input's, and every other row must be pads only.
        for rel in back.relations:
            named = [tuple(back.domain[i] for i in t) for t in rel.tuples]
            original = {t for t in named if not any(v.startswith("pad:") for v in t)}
            if original != item.expect[rel.name]:
                return False
            if any(not all(v.startswith("pad:") for v in t) for t in named if t not in original):
                return False
        return True


WORKLOADS = {w.name: w for w in (ForwardDecide(), ReverseCompile(), LiftCheck(), TranslateBulk())}
