import argparse
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cspdigraph import cli
from cspdigraph.cli import main
from cspdigraph.errors import ParseError
from cspdigraph.forward import gadget_size
from cspdigraph.identities import parse_identities, parse_op_table
from cspdigraph.structures import parse_digraph, parse_structure

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

PARITY4 = """\
structure parity4
domain 0 1
relation R 4
tuple 0 0 0 1
tuple 0 1 1 1
tuple 1 0 1 1
tuple 1 1 0 1
end
"""

TWO_CYCLE = """\
structure 2cycle
domain 0 1
relation R 2
tuple 0 1
tuple 1 0
end
"""

TWO_RELATIONS = """\
structure ab
domain 0 1
relation R1 2
tuple 0 1
relation R2 1
tuple 1
end
"""

INSTANCE = """\
instance x1
domain u v
relation R 2
tuple u v
end
"""

MAJORITY = """\
symbol m 3
identity m(x,x,x) = x
identity m(x,x,y) = x
identity m(x,y,x) = x
identity m(y,x,x) = x
"""


@pytest.fixture
def ctx(tmp_path):
    files = {
        "parity4.rel": PARITY4,
        "2cycle.rel": TWO_CYCLE,
        "ab.rel": TWO_RELATIONS,
        "x.rel": INSTANCE,
        "majority.ids": MAJORITY,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_prints_stats_line(ctx, capsys):
    out_file = ctx / "p4.dg"
    code, out, _ = run(capsys, "build", "--template", str(ctx / "parity4.rel"), "-o", str(out_file))
    assert code == 0
    assert out == "78 80 6 ok\n"
    text = out_file.read_text()
    assert text.startswith("digraph dg:parity4\n")
    assert "# provenance" in text


def test_build_is_byte_deterministic(ctx, capsys):
    a, b = ctx / "a.dg", ctx / "b.dg"
    run(capsys, "build", "--template", str(ctx / "parity4.rel"), "-o", str(a))
    run(capsys, "build", "--template", str(ctx / "parity4.rel"), "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_stats_verb(ctx, capsys):
    code, out, _ = run(capsys, "stats", "--template", str(ctx / "2cycle.rel"))
    assert code == 0 and out == "24 24 4 ok\n"


def test_merge_and_unmerge_round_trip(ctx, capsys):
    merged = ctx / "ab1.rel"
    code, _, _ = run(capsys, "merge", "--input", str(ctx / "ab.rel"), "-o", str(merged))
    assert code == 0
    text = merged.read_text()
    assert "blocks 2 1" in text
    assert "relation R1*R2 3" in text
    assert "tuple 0 1 1" in text

    x2 = ctx / "x2.rel"
    x2.write_text(
        "instance x2\ndomain u v w\nrelation R1 2\ntuple u v\nrelation R2 1\ntuple w\nend\n"
    )
    merged_x = ctx / "x2m.rel"
    run(capsys, "merge", "--input", str(x2), "-o", str(merged_x))
    back = ctx / "x2b.rel"
    code, _, _ = run(capsys, "unmerge", "--input", str(merged_x), "-o", str(back))
    assert code == 0
    text = back.read_text()
    assert "tuple u v" in text and "tuple w" in text


def test_solve_yes_and_no(ctx, capsys):
    code, out, _ = run(
        capsys, "solve", "--template", str(ctx / "2cycle.rel"),
        "--instance", str(ctx / "x.rel"),
    )
    assert code == 0
    assert out == "map u 0\nmap v 1\n"
    tri = ctx / "tri.rel"
    tri.write_text(
        "instance tri\ndomain a b c\nrelation R 2\n"
        "tuple a b\ntuple b c\ntuple c a\nend\n"
    )
    code, out, _ = run(
        capsys, "solve", "--template", str(ctx / "2cycle.rel"), "--instance", str(tri)
    )
    assert code == 1 and out == "NO\n"


def test_solve_with_restriction(ctx, capsys):
    allow = ctx / "r.allow"
    allow.write_text("allow u 1\n")
    code, out, _ = run(
        capsys, "solve", "--template", str(ctx / "2cycle.rel"),
        "--instance", str(ctx / "x.rel"), "--restrict", str(allow),
    )
    assert code == 0 and out == "map u 1\nmap v 0\n"


@pytest.mark.parametrize(
    "text, template, expected",
    [
        ("digraph g\nend\n", "parity4.rel",
         (3, "", "error: signatures differ: (('E', 2),) vs (('R', 4),)\n")),
        ("digraph g\nvertex a\nend\n", "parity4.rel",
         (3, "", "error: signatures differ: (('E', 2),) vs (('R', 4),)\n")),
        ("digraph g\nend\n", "zigzag.dg", (0, "", "")),
    ],
)
def test_solve_checks_the_signature_of_an_empty_digraph(ctx, capsys, text, template, expected):
    g = ctx / "g.dg"
    g.write_text(text)
    t = ctx / template if (ctx / template).exists() else FIXTURES / template
    assert run(capsys, "solve", "--instance", str(g), "--template", str(t)) == expected


@pytest.mark.parametrize(
    "template, allow, expected",
    [
        ("2cycle.rel", "allow w 0\n", (2, "", "error: unknown element name 'w'\n")),
        ("2cycle.rel", "allow u 0 7\n", (2, "", "error: unknown element name '7'\n")),
        # the signatures are compared before any name is looked up
        ("ab.rel", "allow w 7\n",
         (3, "", "error: signatures differ: (('R', 2),) vs (('R1', 2), ('R2', 1))\n")),
    ],
)
def test_solve_restriction_errors(ctx, capsys, template, allow, expected):
    allow_file = ctx / "r.allow"
    allow_file.write_text(allow)
    got = run(
        capsys, "solve", "--template", str(ctx / template),
        "--instance", str(ctx / "x.rel"), "--restrict", str(allow_file),
    )
    assert got == expected


def test_a_second_allow_for_one_element_is_a_parse_error(ctx, capsys):
    """Two lines for one element would keep only the second; the second
    is refused on its line, as a second symbol declaration is."""
    allow = ctx / "r.allow"
    allow.write_text("allow u 0\n# v is free\nallow u 1\n")
    got = run(
        capsys, "solve", "--template", str(ctx / "2cycle.rel"),
        "--instance", str(ctx / "x.rel"), "--restrict", str(allow),
    )
    assert got == (2, "", "error: line 3: second 'allow' for 'u'\n")


@pytest.mark.parametrize(
    "allow, expected",
    [
        # target names are resolved before the source name
        ("allow nosuch 9\n", (2, "", "error: unknown element name '9'\n")),
        ("allow nosuch 00\n", (2, "", "error: unknown element name 'nosuch'\n")),
    ],
)
def test_empty_digraph_resolves_the_restriction(ctx, capsys, allow, expected):
    allow_file = ctx / "r.allow"
    allow_file.write_text(allow)
    for text in ("digraph g\nend\n", "digraph g\nvertex v\nend\n"):
        g = ctx / "g.dg"
        g.write_text(text)
        got = run(
            capsys, "solve", "--instance", str(g),
            "--template", str(FIXTURES / "zigzag.dg"), "--restrict", str(allow_file),
        )
        assert got == expected, text
    # an empty restriction on the empty digraph: its one empty map
    allow_file.write_text("")
    g.write_text("digraph g\nend\n")
    got = run(
        capsys, "solve", "--instance", str(g),
        "--template", str(FIXTURES / "zigzag.dg"), "--restrict", str(allow_file),
    )
    assert got == (0, "", "")


def test_forward_then_reverse_round_trip(ctx, capsys):
    gadget = ctx / "x.dg"
    code, _, _ = run(
        capsys, "forward", "--template", str(ctx / "2cycle.rel"),
        "--instance", str(ctx / "x.rel"), "-o", str(gadget),
    )
    assert code == 0
    assert "# tuple 0: u v" in gadget.read_text()
    back = ctx / "b.rel"
    code, out, _ = run(
        capsys, "reverse", "--template", str(ctx / "2cycle.rel"),
        "--instance", str(gadget), "-o", str(back), "--emit-objects",
    )
    assert code == 0
    assert out.startswith("mode assembled\n")
    assert "type-I y:0: {u} {v}" in out
    assert "tuple u v" in back.read_text()


@pytest.mark.parametrize("element", ["y:0", "q:0:1:1"])
def test_forward_of_an_element_named_like_a_gadget_vertex(ctx, capsys, element):
    """Fresh gadget names take a '_' prefix rather than meet an element's."""
    inst = ctx / "clash.rel"
    inst.write_text(
        f"instance clash\ndomain {element} w\nrelation R 2\n"
        f"tuple {element} w\ntuple w w\nend\n"
    )
    gadget = ctx / "clash.dg"
    code, out, err = run(
        capsys, "forward", "--template", str(FIXTURES / "edge.rel"),
        "--instance", str(inst), "-o", str(gadget),
    )
    assert (code, out, err) == (0, "", "")
    g = parse_digraph(gadget.read_text())
    assert (len(g.vertices), len(g.edges)) == gadget_size(2, 2, 2)
    assert g.vertices[:2] == (element, "w")
    assert {"_y:0", "_q:0:1:1", "_y:1"} <= set(g.vertices)


def test_reverse_fixed_no_exit_code(ctx, capsys):
    bad = ctx / "c2.dg"
    bad.write_text("digraph c2\nvertex u\nvertex v\nedge u v\nedge v u\nend\n")
    code, out, _ = run(
        capsys, "reverse", "--template", str(ctx / "2cycle.rel"),
        "--instance", str(bad), "-o", str(ctx / "b.rel"),
    )
    assert code == 1
    assert out == "mode fixed-no\n"


def test_reverse_trivial_template_falls_back(ctx, capsys):
    trivial = ctx / "trivial.rel"
    trivial.write_text(
        "structure t\ndomain 0 1\nrelation R 2\ntuple 0 0\ntuple 0 1\nend\n"
    )
    good = ctx / "v.dg"
    good.write_text("digraph v\nvertex v\nend\n")
    code, out, err = run(
        capsys, "reverse", "--template", str(trivial),
        "--instance", str(good), "-o", str(ctx / "b.rel"),
    )
    assert code == 3
    assert out == "decision YES (decided directly)\n"
    assert "trivial" in err


def test_reverse_with_multi_relation_template(ctx, capsys):
    """Merging wraps the translation; the output is in the original signature."""
    x2 = ctx / "x2.rel"
    x2.write_text(
        "instance x2\ndomain u v\nrelation R1 2\ntuple u v\nrelation R2 1\nend\n"
    )
    gadget = ctx / "x2.dg"
    code, _, _ = run(
        capsys, "forward", "--template", str(ctx / "ab.rel"),
        "--instance", str(x2), "-o", str(gadget),
    )
    assert code == 0
    back = ctx / "b2.rel"
    code, out, _ = run(
        capsys, "reverse", "--template", str(ctx / "ab.rel"),
        "--instance", str(gadget), "-o", str(back),
    )
    assert code == 0 and out == "mode assembled\n"
    text = back.read_text()
    assert "relation R1 2" in text and "relation R2 1" in text
    assert "tuple u v" in text


def test_core_verb(ctx, capsys):
    full = ctx / "full.rel"
    full.write_text(
        "structure full\ndomain 0 1\nrelation R 2\n"
        "tuple 0 0\ntuple 0 1\ntuple 1 0\ntuple 1 1\nend\n"
    )
    code, out, _ = run(capsys, "core", "--structure", str(full), "-o", str(ctx / "c.rel"))
    assert code == 0
    assert out == "core-size 1 of 2\n"


def test_endos_verb(ctx, capsys):
    code, out, _ = run(capsys, "endos", "--structure", str(ctx / "2cycle.rel"))
    assert code == 0
    assert out == "endo 0=0 1=1\nendo 0=1 1=0\ncount 2\n"


def test_readme_command_block_names_every_verb_of_the_parser():
    """The verbs of README's `## Command line` block are exactly the
    parser's subcommands, so the docs cannot drift from the parser."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    verbs = [line.split()[1] for line in block.splitlines() if line.strip()]
    (sub,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert len(verbs) == len(set(verbs))
    assert set(verbs) == set(sub.choices)


def test_readme_layout_block_names_every_module_of_the_package():
    """README's `## Layout` block lists exactly the package's modules,
    apart from ``__init__.py``, each once."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = readme.split("## Layout\n", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    package = block.split("src/cspdigraph/\n", 1)[1]
    listed = [w for line in package.splitlines() for w in line.split()[:1] if w.endswith(".py")]
    modules = [p.name for p in (root / "src" / "cspdigraph").glob("*.py")]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(modules) - {"__init__.py"}


def test_endos_prints_each_map_as_it_is_found(capsys, monkeypatch):
    """endos prints each endomorphism before the search yields the next,
    so its memory does not grow with their number; the output is that of
    the unpatched run."""
    zigzag = str(FIXTURES / "zigzag.dg")
    _, want, _ = run(capsys, "endos", "--structure", zigzag)
    out = io.StringIO()
    search = cli.enumerate_homs

    def streamed(source, target):
        for i, phi in enumerate(search(source, target)):
            assert out.getvalue().count("endo ") == i
            yield phi

    monkeypatch.setattr(cli, "enumerate_homs", streamed)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["endos", "--structure", zigzag]) == 0
    assert out.getvalue() == want and want.count("endo ") > 2


# seven vertices and one edge a -> b: 7^5 endomorphisms, far more output
# than a pipe holds, so endos is still writing when its reader stops
SEVEN_ONE_EDGE = "digraph g\n" + "".join(f"vertex {v}\n" for v in "abcdefg") + "edge a b\nend\n"


def test_endos_into_a_closed_pipe_exits_141_silently(tmp_path):
    """`cspdg endos ... | head -1`: once the reader has closed the pipe,
    the process exits 141, as SIGPIPE would end it, and writes nothing
    to stderr, neither its own error line nor a failed last flush."""
    g = tmp_path / "g7.dg"
    g.write_text(SEVEN_ONE_EDGE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cspdigraph.cli", "endos", "--structure", str(g)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"endo a=a b=b c=a d=a e=a f=a g=a\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError;
    its file descriptor is one the test owns."""

    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_broken_pipe_exits_141_with_stdout_on_devnull(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g7.dg"
    g.write_text(SEVEN_ONE_EDGE)
    r, w = os.pipe()
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(w))
        assert main(["endos", "--structure", str(g)]) == 141
        # the interpreter's last flush of stdout goes to devnull
        assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
    finally:
        os.close(r)
        os.close(w)
    assert capsys.readouterr().err == ""


def test_findops_found_and_none(ctx, capsys):
    zz = ctx / "z.dg"
    zz.write_text(
        "digraph z\nvertex 00\nvertex 01\nvertex 10\nvertex 11\n"
        "edge 00 01\nedge 10 01\nedge 10 11\nend\n"
    )
    out_file = ctx / "m.op"
    code, out, _ = run(
        capsys, "findops", "--structure", str(zz),
        "--sigma", str(ctx / "majority.ids"), "-o", str(out_file),
    )
    assert code == 0 and out == "found m\n"
    assert out_file.read_text().startswith("op m 3 over 4\n")
    maltsev = ctx / "maltsev.ids"
    maltsev.write_text(
        "symbol p 3\nidentity p(x,x,x) = x\n"
        "identity p(y,x,x) = y\nidentity p(x,x,y) = y\n"
    )
    code, out, _ = run(
        capsys, "findops", "--structure", str(zz), "--sigma", str(maltsev)
    )
    assert code == 1 and out == "none\n"


def test_findops_past_the_size_bound_exits_3(ctx, capsys):
    """NU-4 on the encoding of 1-in-3 is refused with exit 3, the sizes on
    stderr and nothing on stdout."""
    one_in_three = ctx / "1in3.rel"
    one_in_three.write_text(
        "structure 1in3\ndomain 0 1\nrelation R 3\n"
        "tuple 1 0 0\ntuple 0 1 0\ntuple 0 0 1\nend\n"
    )
    encoding = ctx / "1in3.dg"
    code, out, _ = run(capsys, "build", "--template", str(one_in_three), "-o", str(encoding))
    assert (code, out) == (0, "47 48 5 ok\n")
    code, out, err = run(
        capsys, "findops", "--structure", str(encoding),
        "--sigma", str(FIXTURES / "nu4.ids"), "-o", str(ctx / "nu4.op"),
    )
    assert (code, out) == (3, "")
    assert "4879681 cells" in err and "5308416 rows" in err
    assert not (ctx / "nu4.op").exists()


def test_lift_verb(ctx, capsys):
    edge = ctx / "edge.rel"
    edge.write_text("structure edge\ndomain 0 1\nrelation R 2\ntuple 0 1\nend\n")
    report = ctx / "report.txt"
    code, out, _ = run(
        capsys, "lift", "--template", str(edge),
        "--sigma", str(ctx / "majority.ids"), "-o", str(report),
    )
    assert code == 0 and out == "lift ok\n"
    assert "polymorphism m: ok" in report.read_text()


def test_lift_verb_with_explicit_witness(ctx, capsys):
    edge = ctx / "edge.rel"
    edge.write_text("structure edge\ndomain 0 1\nrelation R 2\ntuple 0 1\nend\n")
    table = ctx / "maj.op"
    rows = ["op m 3 over 2"]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                rows.append(f"{a} {b} {c} {sorted((a, b, c))[1]}")
    table.write_text("\n".join(rows) + "\n")
    code, out, _ = run(
        capsys, "lift", "--template", str(edge),
        "--sigma", str(ctx / "majority.ids"),
        "--witness", f"m={table}", "-o", str(ctx / "r.txt"),
    )
    assert code == 0 and out == "lift ok\n"


def test_lift_witness_for_an_undeclared_symbol_is_usage_error(ctx, capsys):
    """A table under a symbol the identities do not declare is refused,
    not dropped in favour of a witness found by search."""
    edge = ctx / "edge.rel"
    edge.write_text("structure edge\ndomain 0 1\nrelation R 2\ntuple 0 1\nend\n")
    table = ctx / "maj.op"
    rows = [f"{a} {b} {c} {sorted((a, b, c))[1]}" for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    table.write_text("\n".join(["op m 3 over 2"] + rows) + "\n")
    code, out, err = run(
        capsys, "lift", "--template", str(edge),
        "--sigma", str(ctx / "majority.ids"), "--witness", f"M={table}",
    )
    assert code == 2 and out == ""
    assert "'M'" in err and "declares m" in err


@pytest.mark.parametrize(
    "table, line",
    [
        ("op m 3 over 2\n0 0 x 0\n", 2),
        ("op m three over 2\n", 1),
        ("op m -1 over 2\n", 1),
        ("op m 3 over 2\n0 0 0 0\n0 0 1 0\n0 0 0 1\n", 4),
        ("op m 3 over 2\n0 0 0 0\n0 0 7 0\n", 3),
        ("op m 3 over 2\n0 0 0 0\nop m 3 over 3\n", 3),
        ("op m 3 over 2\n0 0 0 0\n0 0 1 5\n", 3),
    ],
    ids=["row", "header", "negative-arity", "repeated-row", "row-out-of-range",
         "second-header", "output-out-of-range"],
)
def test_lift_witness_with_bad_numbers_is_usage_error(ctx, capsys, table, line):
    edge = ctx / "edge.rel"
    edge.write_text("structure edge\ndomain 0 1\nrelation R 2\ntuple 0 1\nend\n")
    bad = ctx / "bad.op"
    bad.write_text(table)
    code, out, err = run(
        capsys, "lift", "--template", str(edge),
        "--sigma", str(ctx / "majority.ids"), "--witness", f"m={bad}",
    )
    assert code == 2 and out == ""
    assert f"line {line}:" in err


@pytest.mark.parametrize(
    "table",
    ["op m 3 over 1\n0 0 0 0\n", "op m 2 over 2\n0 0 0\n0 1 0\n1 0 1\n1 1 1\n"],
    ids=["wrong-size", "wrong-arity"],
)
def test_lift_witness_of_the_wrong_shape_is_precondition_error(ctx, capsys, table):
    edge = ctx / "edge.rel"
    edge.write_text("structure edge\ndomain 0 1\nrelation R 2\ntuple 0 1\nend\n")
    bad = ctx / "bad.op"
    bad.write_text(table)
    code, out, err = run(
        capsys, "lift", "--template", str(edge),
        "--sigma", str(ctx / "majority.ids"), "--witness", f"m={bad}",
    )
    assert code == 3 and out == ""
    assert err.startswith("error: table 'm' is ") and "needs 3-ary over 2" in err


def test_findops_negative_symbol_arity_is_usage_error(ctx, capsys):
    sigma = ctx / "neg.ids"
    sigma.write_text("symbol f -1\n")
    code, out, err = run(
        capsys, "findops", "--structure", str(ctx / "2cycle.rel"), "--sigma", str(sigma)
    )
    assert code == 2 and out == ""
    assert "line 1: arity must be >= 0" in err


@pytest.mark.parametrize("verb, flag", [("findops", "--structure"), ("lift", "--template")])
@pytest.mark.parametrize("text", ["", "identity x = x\n", "identity x = y\n"])
def test_identity_set_without_symbols_is_usage_error(ctx, capsys, verb, flag, text):
    sigma = ctx / "none.ids"
    sigma.write_text(text)
    got = run(capsys, verb, flag, str(ctx / "2cycle.rel"), "--sigma", str(sigma))
    assert got == (2, "", "error: identity set declares no symbol\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("symbol w 3\nidentity w(x,x,x) = q(x)\n", "line 2: undeclared symbol 'q'"),
        ("symbol w 3\nidentity w(x,x) = x\n", "line 2: 'w' is declared with arity 3"),
        ("symbol m 3\n" + MAJORITY, "line 2: symbol 'm' declared twice"),
    ],
    ids=["undeclared", "wrong-arity", "declared-twice"],
)
def test_identity_file_mislabel_is_usage_error(ctx, capsys, text, message):
    sigma = ctx / "bad.ids"
    sigma.write_text(text)
    code, out, err = run(
        capsys, "findops", "--structure", str(ctx / "2cycle.rel"), "--sigma", str(sigma)
    )
    assert code == 2 and out == ""
    assert message in err


def test_crash_is_internal_error_not_a_decision(ctx, capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_stats", crash)
    code, out, err = run(capsys, "stats", "--template", str(ctx / "2cycle.rel"))
    assert code == 4 and out == ""
    assert err.startswith("internal error: RuntimeError(")
    assert err.count("\n") == 1


def test_solve_deep_search_exits_zero(ctx, capsys):
    # one branching level per element: deeper than the recursion limit
    n = 5000
    inst = ctx / "wide.rel"
    inst.write_text(
        "instance wide\ndomain " + " ".join(f"v{i}" for i in range(n))
        + "\nrelation R 2\nend\n"
    )
    edge = ctx / "edge.rel"
    edge.write_text("structure edge\ndomain 0 1\nrelation R 2\ntuple 0 1\nend\n")
    code, out, _ = run(
        capsys, "solve", "--instance", str(inst), "--template", str(edge)
    )
    assert code == 0
    assert len(out.splitlines()) == n


def test_export_dot(ctx, capsys):
    zz = ctx / "z.dg"
    zz.write_text("digraph z\nvertex a\nvertex b\nedge a b\nend\n")
    code, out, _ = run(capsys, "export-dot", "--digraph", str(zz))
    assert code == 0
    assert '"a" -> "b";' in out


def test_export_dot_escapes_quotes_and_backslashes(ctx, capsys):
    zz = ctx / "q.dg"
    zz.write_text('digraph q"1\nvertex a"b\nvertex c\\d\nedge a"b c\\d\nend\n')
    code, out, _ = run(capsys, "export-dot", "--digraph", str(zz))
    assert code == 0
    assert out == (
        'digraph "q\\"1" {\n  "a\\"b";\n  "c\\\\d";\n  "a\\"b" -> "c\\\\d";\n}\n'
    )


def test_verify_verb(ctx, capsys):
    code, out, _ = run(capsys, "verify", "counts", "--seed", "7")
    assert code == 0
    assert out.endswith("suite counts: 20/20 ok\n")


def test_verify_rejects_an_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nosuch" in err
    for name in cli.verify_mod.SUITES:
        assert name in err


def test_missing_file_is_usage_error(ctx, capsys):
    code, _, err = run(capsys, "stats", "--template", str(ctx / "nope.rel"))
    assert code == 2
    assert "error" in err


def test_lift_without_template_witnesses_exits_1(capsys):
    """parity4 has no majority polymorphism, so no witness is lifted."""
    code, out, err = run(
        capsys, "lift", "--template", str(FIXTURES / "parity4.rel"),
        "--sigma", str(FIXTURES / "majority.ids"),
    )
    assert (code, out, err) == (1, "template-witnesses none\n", "")


EDGE, MAJ = str(FIXTURES / "edge.rel"), str(FIXTURES / "majority.ids")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["core", "--structure", "{empty}"], "{empty}: empty file"),
        (["reverse", "--instance", EDGE, "--template", EDGE],
         f"{EDGE}: reverse expects a digraph instance"),
        (["export-dot", "--digraph", EDGE], f"{EDGE}: export-dot expects a digraph file"),
        (["lift", "--template", EDGE, "--sigma", MAJ, "--witness", "m"],
         "--witness expects <symbol>=<table-file>, got 'm'"),
    ],
    ids=["empty-file", "reverse-of-a-structure", "dot-of-a-structure", "witness-without-="],
)
def test_inputs_of_the_wrong_kind_are_usage_errors(ctx, capsys, argv, message):
    empty = ctx / "empty.rel"
    empty.write_text("")
    argv = [a.replace("{empty}", str(empty)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message.replace('{empty}', str(empty))}\n"


PARSERS = {
    "structure": parse_structure,
    "digraph": parse_digraph,
    "identities": parse_identities,
    "op-table": parse_op_table,
}

# Every file format shares one line rule: lines are those of
# str.splitlines (so \r\n, \x0b and \x0c all end a line), numbered from 1
# whether blank or comment-only, and '#' cuts a comment even when glued
# to a token.  Each text has one defect on a known line.
LINE_CASES = [
    ("structure", "crlf",
     "structure t\r\ndomain a b\r\nrelation R 2\r\ntuple a c\r\nend\r\n",
     "line 4: unknown element name 'c'"),
    ("structure", "comments",
     "# header\n\nstructure t\ndomain a b\n   # indented\nrelation R 2\n\ntuple a b\ntuple a\nend\n",
     "line 9: tuple has 1 entries, relation 'R' has arity 2"),
    ("structure", "glued-hash",
     "structure t\ndomain a b#c\nrelation R 2\ntuple a c\nend\n",
     "line 4: unknown element name 'c'"),
    ("structure", "form-feed",
     "structure t\ndomain a b\x0crelation R 2\ntuple a b\nbogus\nend\n",
     "line 5: unknown keyword 'bogus'"),
    ("digraph", "crlf",
     "digraph g\r\nvertex a\r\nvertex b\r\nedge a c\r\nend\r\n",
     "line 4: unknown vertex 'c'"),
    ("digraph", "comments",
     "# c\n\ndigraph g\nvertex a # first\n\n# c\nvertex a\nend\n",
     "line 7: duplicate vertex 'a'"),
    ("digraph", "glued-hash",
     "digraph g\nvertex a#b\nedge a b\nend\n",
     "line 3: unknown vertex 'b'"),
    ("digraph", "vertical-tab",
     "digraph g\nvertex a\x0bvertex b\nedge a b\nedge b x\nend\n",
     "line 5: unknown vertex 'x'"),
    ("identities", "crlf",
     "symbol m 3\r\nidentity m(x,x,x) = x\r\nidentity m(x,,y) = x\r\n",
     "line 3: bad term 'm(x,,y)'"),
    ("identities", "comments",
     "# majority\n\nsymbol m 3 # ternary\n\nidentity m(x,x,x) = x\nbogus line\n",
     "line 6: unknown keyword 'bogus'"),
    ("identities", "glued-hash",
     "symbol m 3\nidentity m(x,x,x)#= x\n",
     "line 2: expected 'identity <lhs> = <rhs>'"),
    ("identities", "form-feed",
     "symbol m 3\x0cidentity m  (x,x,x) = x\n",
     "line 2: bad term 'm  (x,x,x)'"),
    ("op-table", "crlf",
     "op m 1 over 2\r\n0 1\r\n1 x\r\n",
     "line 3: table entries must be integers"),
    ("op-table", "comments",
     "# table\n\nop m 1 over 2\n# rows\n0 1\n\n1 0 1\n",
     "line 7: expected 1 inputs and one output"),
    ("op-table", "glued-hash",
     "op m 2 over 2#3\n0 0 0\n0 1 1#\n1 0\n",
     "line 4: expected 2 inputs and one output"),
    ("op-table", "vertical-tab",
     "op m 1 over 2\x0b0 1\x0b1 1 1\n",
     "line 3: expected 1 inputs and one output"),
    ("--restrict", "crlf",
     "allow 0 1\r\nallow 1\r\n",
     "line 2: expected 'allow <x> <a1> <a2> ...'"),
    ("--restrict", "comments",
     "# restriction\n\nallow 0 1 # only 1\n\ndeny 1 0\n",
     "line 5: expected 'allow <x> <a1> <a2> ...'"),
    ("--restrict", "glued-hash",
     "allow 0 1\nallow 1#0\n",
     "line 2: expected 'allow <x> <a1> <a2> ...'"),
    ("--restrict", "form-feed",
     "allow 0 1\x0callow\n",
     "line 2: expected 'allow <x> <a1> <a2> ...'"),
    ("--instance", "crlf",
     "instance x\r\ndomain u v\r\nrelation R 2\r\ntuple u w\r\nend\r\n",
     "line 4: unknown element name 'w'"),
    ("--instance", "comments",
     "# a digraph\n\ndigraph g\nvertex a\n# note\nedge a a\nbogus\nend\n",
     "line 7: unknown keyword 'bogus'"),
    ("--instance", "glued-hash",
     "digraph g\nvertex a#b\nedge a b\nend\n",
     "line 3: unknown vertex 'b'"),
    ("--instance", "vertical-tab",
     "instance x\ndomain u\x0brelation R 2\ntuple u u\ntuple u\nend\n",
     "line 5: tuple has 1 entries, relation 'R' has arity 2"),
]


@pytest.mark.parametrize(
    "reader, text, message",
    [pytest.param(r, t, m, id=f"{r}-{name}") for r, name, t, m in LINE_CASES],
)
def test_every_reader_numbers_lines_alike(ctx, capsys, reader, text, message):
    if reader in PARSERS:
        with pytest.raises(ParseError) as info:
            PARSERS[reader](text)
        assert str(info.value) == message
        return
    path = ctx / "input.txt"
    path.write_bytes(text.encode())
    template = str(ctx / "2cycle.rel")
    argv = ["solve", "--template", template, "--instance", template]
    if reader == "--instance":
        argv[-1] = str(path)
    else:
        argv += ["--restrict", str(path)]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_parse_error_is_usage_error(ctx, capsys):
    bad = ctx / "bad.rel"
    bad.write_text("structure t\ndomain a\nrelation R 1\ntuple b\nend\n")
    code, _, err = run(capsys, "stats", "--template", str(bad))
    assert code == 2
    assert "line 4" in err


@pytest.mark.parametrize("verb", ["stats", "solve"])
def test_a_file_that_is_not_utf8_is_a_usage_error(ctx, capsys, verb):
    """A file that does not decode as UTF-8 exits 2 with one line naming
    its path and the offset of its first bad byte, past the first read
    buffer here, and echoes none of its contents."""
    bad = ctx / "bad.rel"
    head = b"structure s\n" + b"# padding\n" * 2000
    bad.write_bytes(head + b"domain \xff\nrelation R 1\ntuple a\nend\n")
    argv = ["stats", "--template", str(bad)]
    if verb == "solve":
        argv = ["solve", "--template", str(ctx / "2cycle.rel"), "--instance", str(bad)]
    assert run(capsys, *argv) == (2, "", f"error: {bad}: not UTF-8 at byte {len(head) + 7}\n")


def test_nonempty_relation_is_precondition_error(ctx, capsys):
    empty = ctx / "empty.rel"
    empty.write_text("structure t\ndomain a\nrelation R 1\nend\n")
    code, _, err = run(capsys, "stats", "--template", str(empty))
    assert code == 3


# sha256 of `cspdg build --dot` on the fixtures
DOT_SHA256 = {
    "2cycle": "71360f0401c2ad6dfbac491780960737913cf9a682604a68bcbdaa5720a7c2a8",
    "edge": "2be6f528829b63a6351c4c6d937ec4846a42828d4d09d9076bf6837b64702a7b",
    "parity4": "f02323cc166ff8733450ac76d1deaa5e6f216e692fe46fd630aff2f8cfa27bc3",
}


@pytest.mark.parametrize("name", sorted(DOT_SHA256))
def test_build_dot_is_pinned(ctx, capsys, name):
    dot = ctx / f"{name}.dot"
    code, _, _ = run(
        capsys, "build", "--template", str(FIXTURES / f"{name}.rel"),
        "-o", str(ctx / f"{name}.dg"), "--dot", str(dot),
    )
    assert code == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == DOT_SHA256[name]


@pytest.mark.parametrize("verb", ["build", "stats", "reverse", "lift"])
def test_element_name_with_a_separator_is_refused(ctx, capsys, verb):
    """Element names 'b,c' and 'a,b' would give the tuples (a, b,c) and
    (a,b, c) one vertex name; the encoding refuses them up front."""
    t = ctx / "commas.rel"
    t.write_text("structure s\ndomain a b,c a,b c\nrelation R 2\ntuple a b,c\ntuple a,b c\nend\n")
    (ctx / "v.dg").write_text("digraph v\nvertex v\nend\n")
    extra = {
        "build": ["-o", str(ctx / "s.dg")],
        "stats": [],
        "reverse": ["--instance", str(ctx / "v.dg"), "-o", str(ctx / "b.rel")],
        "lift": ["--sigma", str(ctx / "majority.ids"), "-o", str(ctx / "r.txt")],
    }[verb]
    code, out, err = run(capsys, verb, "--template", str(t), *extra)
    assert (code, out) == (3, "")
    assert err == "error: element name 'b,c' holds ',' or '|', a separator\n"


def test_pad_names_avoid_an_element_named_like_a_pad(ctx, capsys):
    """merge_instance would name the pad of R's tuple 0 at position 2
    pad:R:0:2, which is an element here, so the pads take a '_' prefix."""
    (ctx / "rs.rel").write_text(
        "structure rs\ndomain 0 1\nrelation R 1\ntuple 0\nrelation S 1\ntuple 1\nend\n"
    )
    inst = ctx / "pads.rel"
    inst.write_text(
        "instance p\ndomain pad:R:0:2 w\nrelation R 1\ntuple w\n"
        "relation S 1\ntuple pad:R:0:2\nend\n"
    )
    merged = ctx / "pads1.rel"
    code, _, err = run(capsys, "merge", "--input", str(inst), "-o", str(merged))
    assert (code, err) == (0, "")
    assert "domain pad:R:0:2 w _pad:R:0:2 _pad:S:0:1\n" in merged.read_text()
    code, _, err = run(
        capsys, "forward", "--template", str(ctx / "rs.rel"),
        "--instance", str(inst), "-o", str(ctx / "pads.dg"),
    )
    assert (code, err) == (0, "")
    assert "vertex _pad:R:0:2\n" in (ctx / "pads.dg").read_text()


@pytest.mark.parametrize("value", ["-1", "0"])
def test_verify_trials_must_be_positive(capsys, value):
    code, out, err = run(capsys, "verify", "counts", "--trials", value)
    assert (code, out) == (2, "")
    assert err == f"error: trials must be a positive integer, not {value}\n"


@pytest.mark.parametrize("suite", ["observation", "delta", "lift", "endo", "core"])
def test_verify_trials_is_refused_for_a_suite_without_trials(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--trials", "3")
    assert (code, out) == (2, "")
    assert err == f"error: suite {suite!r} has no trials\n"


def test_verify_trials_sets_the_count(capsys):
    code, out, _ = run(capsys, "verify", "counts", "--trials", "2")
    assert code == 0
    assert out.endswith("suite counts: 2/2 ok\n") and len(out.splitlines()) == 3


def _cli_corpus(tmp):
    """(label, argv, written file or None) of every run of the CLI corpus.

    Each fixture template T gets its encoding D(T) and its gadget, the
    forward image of T read as an instance.  Each gadget and zigzag.dg is
    solved into every D(T), reversed against every T, and put through
    endos, core and forward over zigzag.dg; findops and lift run every
    fixture identity set on edge and 2cycle.  The core of the parity4
    gadget, 182 vertices and as many searches, is pinned on its own by
    test_core_of_the_parity4_gadget_is_pinned.
    """
    templates = ("edge", "2cycle", "parity4")
    for t in templates:
        rel = str(FIXTURES / f"{t}.rel")
        yield f"build {t}", ["build", "--template", rel], tmp / f"D_{t}.dg"
        yield f"forward {t}", ["forward", "--template", rel, "--instance", rel], tmp / f"g_{t}.dg"
    inputs = [(f"g_{t}", tmp / f"g_{t}.dg") for t in templates]
    inputs.append(("zigzag", FIXTURES / "zigzag.dg"))
    for label, g in inputs:
        for t in templates:
            yield (
                f"solve {label} {t}",
                ["solve", "--template", str(tmp / f"D_{t}.dg"), "--instance", str(g)],
                None,
            )
            yield (
                f"reverse {label} {t}",
                ["reverse", "--emit-objects", "--template", str(FIXTURES / f"{t}.rel"),
                 "--instance", str(g)],
                tmp / "rev.rel",
            )
        yield f"endos {label}", ["endos", "--structure", str(g)], None
        if label != "g_parity4":
            yield f"core {label}", ["core", "--structure", str(g)], tmp / "core.rel"
        yield (
            f"forward zigzag {label}",
            ["forward", "--template", str(FIXTURES / "zigzag.dg"), "--instance", str(g)],
            tmp / "fz.dg",
        )
    for t in ("edge", "2cycle"):
        for ids in sorted(FIXTURES.glob("*.ids")):
            for verb in ("findops", "lift"):
                flag = "--structure" if verb == "findops" else "--template"
                yield (
                    f"{verb} {t} {ids.stem}",
                    [verb, flag, str(FIXTURES / f"{t}.rel"), "--sigma", str(ids)],
                    tmp / f"{verb}.txt",
                )


# sha256 of the label, exit code, stdout and written file of each run
CLI_CORPUS_DIGEST = "e61a94148667288c4acf9e46cfc99a44c29cce257a98f915b5422185ac662433"


def test_cli_corpus_is_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = set()
    for label, argv, written in _cli_corpus(tmp_path):
        if written is not None:
            argv += ["-o", str(written)]
            written.unlink(missing_ok=True)
        code, out, _ = run(capsys, *argv)
        codes.add(code)
        # a run that refuses writes nothing
        text = written.read_text() if written is not None and written.exists() else ""
        digest.update(f"{label}\0{code}\0{out}\0{text}\0".encode())
    assert codes == {0, 1, 3}
    assert digest.hexdigest() == CLI_CORPUS_DIGEST


# sha256 of the exit code, stdout and written file of `cspdg core` on the
# forward gadget of parity4 (182 vertices, a core)
PARITY4_GADGET_CORE_SHA256 = "35c9e88ffd90806b06c638b6279837a70f3ffca7eae6900d6ac8f0765b8d03cb"


def test_core_of_the_parity4_gadget_is_pinned(tmp_path, capsys):
    rel = str(FIXTURES / "parity4.rel")
    g, core = tmp_path / "g.dg", tmp_path / "core.rel"
    assert run(capsys, "forward", "--template", rel, "--instance", rel, "-o", str(g))[0] == 0
    code, out, _ = run(capsys, "core", "--structure", str(g), "-o", str(core))
    assert out == "core-size 182 of 182\n"
    digest = hashlib.sha256(f"{code}\0{out}\0{core.read_text()}\0".encode())
    assert digest.hexdigest() == PARITY4_GADGET_CORE_SHA256
