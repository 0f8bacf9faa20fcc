"""Seeded property suites: every module's invariants as runnable sweeps.

Each suite returns a SuiteReport with one line per trial and an overall
verdict; the CLI prints them verbatim and the acceptance tests assert
on them, so the two always agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import lifting
from .builder import TemplateDigraph, build_digraph, build_path, path_spec
from .errors import ParseError
from .forward import forward_instance
from .identities import OpTable, majority_identities, wnu_identities
from .merge import merge_instance, merge_template
from .reverse import reverse_instance
from .rng import Lcg64
from .solver import enumerate_homs, find_hom, is_core
from .structures import Digraph, RelStructure, make_digraph, make_structure


@dataclass
class SuiteReport:
    name: str
    lines: list[str] = field(default_factory=list)
    passed: int = 0
    failed: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, label: str, good: bool, detail: str = "") -> None:
        tail = f" {detail}" if detail else ""
        self.lines.append(f"{label} {'ok' if good else 'FAIL'}{tail}")
        if good:
            self.passed += 1
        else:
            self.failed += 1

    def text(self) -> str:
        summary = f"suite {self.name}: {self.passed}/{self.passed + self.failed} ok"
        return "\n".join(self.lines + [summary]) + "\n"


# ---------------------------------------------------------------------------
# Random inputs


def random_single_template(
    rng: Lcg64, max_elems: int = 3, max_arity: int = 3, nontrivial: bool = False
) -> RelStructure:
    # nontrivial rules out constant tuples, so it needs k >= 2 and m >= 2
    m = rng.randint(2 if nontrivial else 1, max_elems)
    k = rng.randint(2 if nontrivial else 1, max_arity)
    count = rng.randint(1, min(6, m**k))
    rows = []
    for _ in range(count):
        row = tuple(rng.below(m) for _ in range(k))
        if nontrivial and len(set(row)) == 1:
            row = row[:-1] + ((row[-1] + 1) % m,)
        rows.append(row)
    return make_structure(
        "rand", [str(i) for i in range(m)], [("R", k, rows)]
    )


def random_multi_template(
    rng: Lcg64, max_elems: int = 3, max_total_arity: int = 3
) -> RelStructure:
    m = rng.randint(1, max_elems)
    arities = []
    left = rng.randint(1, max_total_arity)
    while left > 0:
        a = rng.randint(1, left)
        arities.append(a)
        left -= a
        if len(arities) == 2:
            break
    rels = []
    for i, a in enumerate(arities):
        count = rng.randint(1, min(4, m**a))
        rels.append(
            (f"R{i + 1}", a, [tuple(rng.below(m) for _ in range(a)) for _ in range(count)])
        )
    return make_structure("rand", [str(i) for i in range(m)], rels)


def random_instance_for(rng: Lcg64, template: RelStructure, max_elems: int = 4):
    m = rng.randint(1, max_elems)
    rels = []
    for rel in template.relations:
        count = rng.below(4)
        rels.append(
            (
                rel.name,
                rel.arity,
                [tuple(rng.below(m) for _ in range(rel.arity)) for _ in range(count)],
            )
        )
    return make_structure(
        "x", [f"v{i}" for i in range(m)], rels, role="instance"
    )


def random_digraph_instance(rng: Lcg64, n_levels: int) -> Digraph:
    """Balanced scaffold with edges kept at one half, or adversarial noise,
    on 1 to 14 vertices."""
    n = rng.randint(1, 14)
    kind = rng.below(3)
    names = [f"g{i}" for i in range(n)]
    if kind == 2:
        edges = []
        for u in range(n):
            for v in range(n):
                if rng.chance(1, max(4, n)):
                    edges.append((u, v))
        return make_digraph("g", names, edges)
    top = n_levels if kind == 0 else max(0, n_levels - 1)
    levels = [rng.randint(0, max(0, top)) for _ in range(n)]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if levels[v] == levels[u] + 1 and rng.chance(1, 2)
    ]
    return make_digraph("g", names, edges)


# ---------------------------------------------------------------------------
# Suites


def suite_counts(seed: int = 7, trials: int = 20) -> SuiteReport:
    rng = Lcg64(seed)
    rep = SuiteReport("counts")
    for t in range(trials):
        template = random_single_template(rng, max_elems=4, max_arity=4)
        meta = build_digraph(template)
        nv, ne, h, match = meta.stats()
        rep.record(f"trial {t:03d}", match, f"{nv} {ne} {h}")
    return rep


def suite_observation(kmax: int = 3) -> SuiteReport:
    rep = SuiteReport("observation")
    for k in range(1, kmax + 1):
        subsets = [
            frozenset(s)
            for r in range(k + 1)
            for s in itertools.combinations(range(1, k + 1), r)
        ]
        for si in subsets:
            for sj in subsets:
                p, q = build_path(path_spec(k, si)), build_path(path_spec(k, sj))
                homs = list(enumerate_homs(p, q))
                want = si <= sj
                good = (len(homs) > 0) == want
                if want and good:
                    good = len(homs) == 1 and set(homs[0].values()) == set(q.vertices)
                rep.record(
                    f"k={k} {sorted(si)}->{sorted(sj)}",
                    good,
                    "hom" if want else "none",
                )
    return rep


def suite_forward_eq(seed: int = 7, trials: int = 200) -> SuiteReport:
    rng = Lcg64(seed)
    rep = SuiteReport("forward-eq")
    for t in range(trials):
        template = random_multi_template(rng)
        instance = random_instance_for(rng, template)
        merged_t, blocks = merge_template(template)
        merged_x = merge_instance(instance, blocks)
        meta = build_digraph(merged_t)
        gadget = forward_instance(merged_x, blocks.total)
        want = find_hom(instance, template) is not None
        got = find_hom(gadget, meta.digraph) is not None
        rep.record(f"trial {t:03d}", want == got, "yes" if want else "no")
    return rep


def suite_reverse_eq(seed: int = 7, trials: int = 300) -> SuiteReport:
    rng = Lcg64(seed)
    rep = SuiteReport("reverse-eq")
    for t in range(trials):
        template = random_single_template(rng, nontrivial=True)
        k = template.relations[0].arity
        g = random_digraph_instance(rng, n_levels=k + 2)
        meta = build_digraph(template)
        want = find_hom(g, meta.digraph) is not None
        result = reverse_instance(g, template)
        got = find_hom(result.instance, template) is not None
        rep.record(f"trial {t:03d}", want == got, f"{result.mode} {'yes' if want else 'no'}")
    return rep


def suite_orders(seed: int = 7, trials: int = 500) -> SuiteReport:
    rng = Lcg64(seed)
    rep = SuiteReport("orders")
    fixtures = [_two_cycle(), _single_edge(), _unit_template()]
    for template in fixtures:
        meta = build_digraph(template)
        for variant in ("ar", "ra"):
            key = lifting.order_key(meta, variant)
            keys = sorted(key(v) for v in range(len(meta.digraph.vertices)))
            strict = all(a < b for a, b in zip(keys, keys[1:]))
            rep.record(f"total-order {template.name} {variant}", strict)
    meta = build_digraph(_two_cycle())
    edges = meta.digraph.edges
    key = lifting.order_key(meta, "ar")
    key_star = lifting.order_key(meta, "ra")
    edge_set = set(edges)
    done = 0
    while done < trials:
        chosen = [e for e in edges if rng.chance(1, 2)]
        if not chosen:
            continue
        c_set = {u for u, _ in chosen}
        d_set = {v for _, v in chosen}
        if any(meta.lvl[v] != meta.height for v in d_set):
            c = min(c_set, key=key)
            d = min(d_set, key=key)
            rep.record(f"minimal {done:03d}", (c, d) in edge_set)
            done += 1
            if done >= trials:
                break
        if any(meta.lvl[v] != 0 for v in c_set):
            c = max(c_set, key=key_star)
            d = max(d_set, key=key_star)
            rep.record(f"maximal {done:03d}", (c, d) in edge_set)
            done += 1
    return rep


def delta_bfs(meta: TemplateDigraph, m: int) -> set[tuple[int, ...]]:
    """Oracle: explicit search of the m-th power from the diagonal."""
    start = [tuple([v] * m) for v in range(len(meta.digraph.vertices))]
    seen = set(start)
    stack = list(start)
    while stack:
        cur = stack.pop()
        for step in meta.digraph.adjacency:
            for nxt in itertools.product(*map(step.__getitem__, cur)):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def suite_delta() -> SuiteReport:
    rep = SuiteReport("delta")
    for template in (_two_cycle(), _single_edge(), _unit_template()):
        meta = build_digraph(template)
        if len(meta.digraph.vertices) > 24:
            continue
        oracle = delta_bfs(meta, 2)
        n = len(meta.digraph.vertices)
        bad = 0
        checked = 0
        for u in range(n):
            for v in range(n):
                if meta.lvl[u] != meta.lvl[v]:
                    continue
                checked += 1
                if lifting.in_delta(meta, (u, v)) != ((u, v) in oracle):
                    bad += 1
        rep.record(f"bfs-agreement {template.name}", bad == 0, f"{checked} pairs")
    return rep


def suite_lift() -> SuiteReport:
    rep = SuiteReport("lift")
    meta = build_digraph(_single_edge())
    maj = OpTable("maj", 3, 2, tuple(sorted(a)[1] for a in itertools.product(range(2), repeat=3)))
    out = lifting.lift_all(meta, majority_identities(), {"m": maj})
    rep.record("majority-on-edge", out.ok, f"{len(meta.digraph.vertices)} vertices")

    meta7 = build_digraph(_parity4())
    xor3 = OpTable(
        "xor3", 3, 2, tuple((a + b + c) % 2 for a, b, c in itertools.product(range(2), repeat=3))
    )
    out7 = lifting.lift_all(
        meta7, wnu_identities(3), {"w": xor3}, {"w": lifting.zz_allmin(3)}
    )
    rep.record("wnu3-on-parity4", out7.ok, f"{len(meta7.digraph.vertices)} vertices")
    return rep


def suite_endo() -> SuiteReport:
    rep = SuiteReport("endo")
    for template in (_two_cycle(), _parity4()):
        meta = build_digraph(template)
        small = list(enumerate_homs(template, template))
        big = list(enumerate_homs(meta.digraph, meta.digraph))
        rep.record(
            f"count {template.name}",
            len(small) == len(big),
            f"{len(small)} = {len(big)}",
        )
        lifted = {
            tuple(sorted(lifting.lift_endomorphism(meta, phi).items())) for phi in small
        }
        raw = {tuple(sorted(b.items())) for b in big}
        rep.record(f"bijection {template.name}", lifted == raw)
    return rep


def suite_core() -> SuiteReport:
    rep = SuiteReport("core")
    for template in (_two_cycle(), _parity4()):
        meta = build_digraph(template)
        rep.record(f"template-core {template.name}", is_core(template))
        rep.record(f"digraph-core {template.name}", is_core(meta.digraph))
    return rep


SUITES = {
    "counts": suite_counts,
    "observation": suite_observation,
    "forward-eq": suite_forward_eq,
    "reverse-eq": suite_reverse_eq,
    "orders": suite_orders,
    "delta": suite_delta,
    "lift": suite_lift,
    "endo": suite_endo,
    "core": suite_core,
}


def run_suite(name: str, seed: int = 7, trials: int | None = None) -> SuiteReport:
    """Run a suite; ParseError if trials is given to a suite without them
    or is not positive."""
    fn = SUITES[name]
    kwargs = {}
    code = fn.__code__
    if "seed" in code.co_varnames[: code.co_argcount]:
        kwargs["seed"] = seed
    if trials is not None:
        if "trials" not in code.co_varnames[: code.co_argcount]:
            raise ParseError(f"suite {name!r} has no trials")
        if trials < 1:
            raise ParseError(f"trials must be a positive integer, not {trials}")
        kwargs["trials"] = trials
    return fn(**kwargs)


# ---------------------------------------------------------------------------
# Shared fixtures


def _two_cycle() -> RelStructure:
    return make_structure("2cycle", ["0", "1"], [("R", 2, [(0, 1), (1, 0)])])


def _single_edge() -> RelStructure:
    return make_structure("edge", ["0", "1"], [("R", 2, [(0, 1)])])


def _unit_template() -> RelStructure:
    return make_structure("unit", ["a"], [("R", 1, [(0,)])])


def _parity4() -> RelStructure:
    return make_structure(
        "parity4",
        ["0", "1"],
        [("R", 4, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)])],
    )
