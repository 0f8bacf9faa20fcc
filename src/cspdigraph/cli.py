"""Command-line front end.

Exit codes: 0 success or YES decision, 1 NO decision, 2 usage or input
errors, 3 precondition violations (trivial template, identity-set shape,
and similar), 4 internal errors (any other exception, reported on one
line, so that a crash never reads as an answer), 141 standard output
closed by its reader (silently, as SIGPIPE would end the process).  All
primary output is byte-deterministic given the same inputs and seed;
diagnostics go to the error stream.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import verify as verify_mod
from .builder import build_digraph, dmeta_to_text
from .errors import ParseError, PreconditionError, TrivialTemplate
from .forward import forward_instance
from .identities import parse_identities, parse_op_table, serialize_op_table
from .lifting import lift_all
from .merge import BlockInfo, merge_instance, merge_template, unmerge_instance
from .reverse import reverse_instance
from .solver import core_of, enumerate_homs, find_hom, find_operations
from .structures import (
    Digraph,
    RelStructure,
    _lines,
    export_dot,
    make_structure,
    parse_digraph,
    parse_structure,
    serialize_digraph,
    serialize_structure,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()  # one decode of the whole file
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 at byte {exc.start}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_any(path: str):
    text = _read(path)
    first = next(_lines(text), None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    reader = parse_digraph if first[1].split()[0] == "digraph" else parse_structure
    return reader(text)


def _load_structure(path: str) -> RelStructure:
    loaded = _load_any(path)
    if isinstance(loaded, Digraph):
        return make_structure(loaded.name, loaded.vertices, [("E", 2, loaded.edges)], "instance")
    return loaded


def _load_restriction(path: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for lineno, body in _lines(_read(path)):
        toks = body.split()
        if toks[0] != "allow" or len(toks) < 3:
            raise ParseError("expected 'allow <x> <a1> <a2> ...'", lineno)
        if toks[1] in out:
            raise ParseError(f"second 'allow' for {toks[1]!r}", lineno)
        out[toks[1]] = toks[2:]
    return out


def _single_relation_template(path: str) -> tuple[RelStructure, RelStructure, BlockInfo]:
    """(original, merged) template; merging is a no-op when already single."""
    original = _load_structure(path)
    merged, blocks = merge_template(original)
    return original, merged, blocks


# ---------------------------------------------------------------------------
# Verbs


def cmd_build(args) -> int:
    _, merged, _ = _single_relation_template(args.template)
    meta = build_digraph(merged)
    _write(args.output, dmeta_to_text(meta))
    if args.dot:
        _write(args.dot, export_dot(meta.digraph, meta.lvl))
    return _print_stats(meta)


def cmd_stats(args) -> int:
    _, merged, _ = _single_relation_template(args.template)
    return _print_stats(build_digraph(merged))


def _print_stats(meta) -> int:
    """The line of build and stats: vertices, edges, height, formula check."""
    nv, ne, h, ok = meta.stats()
    print(f"{nv} {ne} {h} {'ok' if ok else 'MISMATCH'}")
    return 0


def cmd_merge(args) -> int:
    s = _load_structure(args.input)
    if s.role == "template":
        merged, _ = merge_template(s)
    else:
        merged = merge_instance(s, BlockInfo(tuple(r.arity for r in s.relations)))
    _write(args.output, serialize_structure(merged))
    return 0


def cmd_unmerge(args) -> int:
    s = _load_structure(args.input)
    _write(args.output, serialize_structure(unmerge_instance(s)))
    return 0


def cmd_forward(args) -> int:
    _, merged_t, blocks = _single_relation_template(args.template)
    x = _load_structure(args.instance)
    if x.block_arities is None and tuple(r.arity for r in x.relations) == blocks.arities:
        x = merge_instance(x, blocks)
    gadget = forward_instance(x, blocks.total)
    head, body = serialize_digraph(gadget).split("\n", 1)
    notes = [
        f"# tuple {i}: " + " ".join(x.domain[j] for j in t)
        for i, t in enumerate(x.relations[0].tuples)
    ]
    _write(args.output, "\n".join([head, *notes, body]))
    return 0


def cmd_reverse(args) -> int:
    original, merged_t, blocks = _single_relation_template(args.template)
    g = _load_any(args.instance)
    if not isinstance(g, Digraph):
        raise ParseError(f"{args.instance}: reverse expects a digraph instance")
    try:
        result = reverse_instance(g, merged_t)
    except TrivialTemplate as exc:
        print("mode trivial-template", file=sys.stderr)
        print(f"note: {exc}; deciding the instance directly", file=sys.stderr)
        decision = find_hom(g, build_digraph(merged_t).digraph)
        print(f"decision {'YES' if decision is not None else 'NO'} (decided directly)")
        return 3
    out = result.instance
    if len(original.relations) > 1:
        out = unmerge_instance(out, blocks)
    _write(args.output, serialize_structure(out))
    print(f"mode {result.mode}")
    if args.emit_objects:
        print(_objects_report(result))
    return 1 if result.mode == "fixed-no" else 0


def _objects_report(result) -> str:
    lines = []
    for rep in result.reports:
        lines.append(f"component {' '.join(rep.vertices)}: {rep.stage}"
                     + (f" ({rep.detail})" if rep.detail else ""))
        if rep.objects is None:
            continue
        obj, part = rep.objects, rep.partition
        for c in obj.internals:
            lines.append(
                f"  internal {c.cid}: gamma {sorted(c.gamma)} "
                f"base {[obj.g.vertices[v] for v in c.base]} "
                f"top {[obj.g.vertices[v] for v in c.top]}"
            )
        for o in obj.type1:
            lines.append(
                f"  type-I {obj.g.vertices[o.e]}: "
                + " ".join("{" + ",".join(s) + "}" for s in o.sets)
            )
        for o in obj.type2:
            lines.append(
                f"  type-II {obj.g.vertices[o.b]}/{o.cid}: "
                + " ".join("{" + ",".join(s) + "}" for s in o.sets)
            )
        for e, f in obj.edges3:
            lines.append(f"  type-III {obj.g.vertices[e]} {obj.g.vertices[f]}")
        for b, d in obj.edges4:
            lines.append(f"  type-IV {obj.g.vertices[b]} {obj.g.vertices[d]}")
        for head, members in part.classes.items():
            if len(members) > 1:
                lines.append(f"  block {head}: {' '.join(members)}")
    return "\n".join(lines)


def cmd_solve(args) -> int:
    x = _load_any(args.instance)
    a = _load_any(args.template)
    restriction = _load_restriction(args.restrict) if args.restrict else None
    hom = find_hom(x, a, restriction)
    if hom is None:
        print("NO")
        return 1
    for source in sorted(hom):
        print(f"map {source} {hom[source]}")
    return 0


def cmd_core(args) -> int:
    s = _load_structure(args.structure)
    core = core_of(s)
    _write(args.output, serialize_structure(core))
    print(f"core-size {len(core.domain)} of {len(s.domain)}")
    return 0


def cmd_endos(args) -> int:
    s = _load_any(args.structure)
    count = 0
    for phi in enumerate_homs(s, s):
        print("endo " + " ".join(f"{x}={phi[x]}" for x in sorted(phi)))
        count += 1
    print(f"count {count}")
    return 0


def cmd_findops(args) -> int:
    s = _load_any(args.structure)
    sigma = parse_identities(_read(args.sigma))
    tables = find_operations(s, sigma)
    if tables is None:
        print("none")
        return 1
    text = "".join(serialize_op_table(tables[name]) for name, _ in sigma.symbols)
    _write(args.output, text)
    print("found " + " ".join(name for name, _ in sigma.symbols))
    return 0


def cmd_lift(args) -> int:
    _, merged_t, _ = _single_relation_template(args.template)
    sigma = parse_identities(_read(args.sigma))
    meta = build_digraph(merged_t)
    declared = [name for name, _ in sigma.symbols]
    witnesses = {}
    for spec in args.witness or []:
        if "=" not in spec:
            raise ParseError(f"--witness expects <symbol>=<table-file>, got {spec!r}")
        name, path = spec.split("=", 1)
        if name not in declared:
            raise ParseError(f"--witness {name!r}: {args.sigma} declares {' '.join(declared)}")
        witnesses[name] = parse_op_table(_read(path))
    if set(witnesses) != set(declared):
        found = find_operations(merged_t, sigma)
        if found is None:
            print("template-witnesses none")
            return 1
        for name, table in found.items():
            witnesses.setdefault(name, table)
    report = lift_all(meta, sigma, witnesses)
    _write(args.output, report.text())
    print("lift " + ("ok" if report.ok else "FAIL"))
    return 0 if report.ok else 1


def cmd_export_dot(args) -> int:
    g = _load_any(args.digraph)
    if not isinstance(g, Digraph):
        raise ParseError(f"{args.digraph}: export-dot expects a digraph file")
    _write(args.output, export_dot(g))
    return 0


def cmd_verify(args) -> int:
    report = verify_mod.run_suite(args.suite, seed=args.seed, trials=args.trials)
    sys.stdout.write(report.text())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspdg",
        description="Template-to-digraph encoding, both instance reductions, "
        "a complete homomorphism solver, and polymorphism lifting.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build")
    p.add_argument("--template", required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats")
    p.add_argument("--template", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("merge")
    p.add_argument("--input", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("unmerge")
    p.add_argument("--input", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_unmerge)

    p = sub.add_parser("forward")
    p.add_argument("--template", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("reverse")
    p.add_argument("--template", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--emit-objects", action="store_true")
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("solve")
    p.add_argument("--template", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--restrict", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("core")
    p.add_argument("--structure", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("endos")
    p.add_argument("--structure", required=True)
    p.set_defaults(func=cmd_endos)

    p = sub.add_parser("findops")
    p.add_argument("--structure", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_findops)

    p = sub.add_parser("lift")
    p.add_argument("--template", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--witness", action="append", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("export-dot")
    p.add_argument("--digraph", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("verify")
    p.add_argument("suite", choices=sorted(verify_mod.SUITES))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed standard output early (`| head -1`), which is
        # no input error: exit as SIGPIPE would, with standard output on
        # devnull, so that the interpreter's last flush cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
