"""File format round-trips, CLI behavior, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigid.cli import build_parser, main
from perigid.colored_graph import ColoredGraph
from perigid.errors import BudgetError, MultiplicityWarning, ParseError
import perigid
from perigid import colored_graph, sparsity
from perigid.fileio import MAX_COLOR, MAX_EDGES, MAX_VERTICES, parse_colored_graph, serialize_colored_graph
from perigid.linear_rep import RankReport, modp_rank, sample_rows

from randgen import random_graph, random_laman_graph

G = ColoredGraph.build

LAMAN1_TEXT = "cg 2 1 3\n0 0 1 0\n0 0 0 1\n0 0 1 1\n"


def run_cli(capsys, *argv) -> tuple[str, int]:
    code = main(list(argv))
    return capsys.readouterr().out, code


@pytest.fixture()
def laman1(tmp_path):
    path = tmp_path / "laman1.cg"
    path.write_text(LAMAN1_TEXT)
    return str(path)


@pytest.fixture()
def two_loops(tmp_path):
    path = tmp_path / "two.cg"
    path.write_text("# circuit\ncg 2 2 2\n0 0 1 0\n1 1 1 0\n")
    return str(path)


def test_the_library_and_the_cli_load_no_numpy(laman1):
    # numpy is a test dependency only: a fresh process that imports the
    # package and runs a check must never load it
    src = Path(perigid.__file__).resolve().parents[1]
    assert not [f.name for f in src.glob("perigid/*.py") if "numpy" in f.read_text()]
    script = (
        "import sys, perigid, perigid.cli\n"
        f"code = perigid.cli.main(['check', {laman1!r}])\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "generically minimally rigid\nn=1 m=3 rank=3 dof=0\n"


def test_parse_fixture():
    g = parse_colored_graph(LAMAN1_TEXT)
    assert g.n == 1 and g.m == 3
    assert [tuple(e.color) for e in g.edges] == [(1, 0), (0, 1), (1, 1)]


def test_parse_single_edge_and_comments():
    g = parse_colored_graph("# hi\ncg 2 2 1  # inline\n0 1 0 0\n")
    assert g.n == 2 and g.m == 1


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as e:
        parse_colored_graph("cg 3 1 0\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_colored_graph("xx 2 1 0\n")
    with pytest.raises(ParseError) as e:
        parse_colored_graph("cg 2 1 1\n0 2 0 0\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_colored_graph("cg 2 1 1\n0 0 a 0\n")
    with pytest.raises(ParseError):
        parse_colored_graph("cg 2 1 2\n0 0 1 0\n")
    with pytest.raises(ParseError):
        parse_colored_graph("")


def test_parse_enforces_the_vertex_budget():
    assert parse_colored_graph(f"cg 2 {MAX_VERTICES} 0\n").n == MAX_VERTICES
    with pytest.raises(BudgetError, match="vertex budget"):
        parse_colored_graph(f"cg 2 {MAX_VERTICES + 1} 0\n")


def test_cli_check_over_the_vertex_budget(capsys, tmp_path):
    path = tmp_path / "huge.cg"
    path.write_text(f"cg 2 {MAX_VERTICES + 1} 0\n")
    out, code = run_cli(capsys, "check", str(path))
    assert code == 2 and "vertex budget" in out


def test_cli_develop_and_cover_over_the_vertex_budget(capsys, laman1, tmp_path):
    # one cell or residue past the budget at n = 1, and at n = 0, whose
    # cell and residue lists are built all the same
    empty = tmp_path / "empty.cg"
    empty.write_text("cg 2 0 0\n")
    for path in (laman1, str(empty)):
        out, code = run_cli(capsys, "develop", path, "--window", f"0:{MAX_VERTICES},0:0")
        assert code == 2 and "vertex budget" in out
        out, code = run_cli(capsys, "cover", path, "--basis", f"{MAX_VERTICES + 1},0,0,1")
        assert code == 2 and "vertex budget" in out


def test_cli_over_the_edge_budget(capsys, tmp_path):
    header = tmp_path / "header.cg"
    header.write_text(f"cg 2 1 {MAX_EDGES + 1}\n")  # refused before the edge count is compared
    out, code = run_cli(capsys, "check", str(header))
    assert code == 2 and "edge budget" in out
    # 64 loops on one vertex: 4097 copies stay inside the vertex budget and
    # make 64 x 4097 = MAX_EDGES + 64 edges
    loops = tmp_path / "loops.cg"
    loops.write_text(f"cg 2 1 64\n" + "0 0 1 0\n" * 64)
    out, code = run_cli(capsys, "cover", str(loops), "--basis", "4097,0,0,1")
    assert code == 2 and "edge budget" in out
    out, code = run_cli(capsys, "develop", str(loops), "--window", "0:4096,0:0")
    assert code == 2 and "edge budget" in out


def test_edge_budget_boundary():
    with pytest.warns(MultiplicityWarning):
        loops = G(1, [(0, 0, (1, 0))] * 64)
    colored_graph._check_budget("cover", loops, MAX_EDGES // 64)
    with pytest.raises(BudgetError, match="edge budget"):
        colored_graph._check_budget("cover", loops, MAX_EDGES // 64 + 1)


def _laman1_with_third_color(tmp_path, g1: int) -> str:
    path = tmp_path / f"color{len(list(tmp_path.iterdir()))}.cg"
    path.write_text(f"cg 2 1 3\n0 0 1 0\n0 0 0 1\n0 0 {g1} 1\n")
    return str(path)


def test_cli_over_the_color_budget(capsys, tmp_path):
    for g1 in (10**400, -(10**400), MAX_COLOR + 1):
        path = _laman1_with_third_color(tmp_path, g1)
        for cmd in ("check", "realize", "sparsity"):
            out, code = run_cli(capsys, cmd, path)
            assert code == 2 and "line 4" in out and "color budget" in out
    with pytest.raises(BudgetError, match="color budget"):
        parse_colored_graph(f"cg 2 2 1\n0 1 0 {-MAX_COLOR - 1}\n")
    assert parse_colored_graph(f"cg 2 2 1\n0 1 {-MAX_COLOR} 0\n").edge(0).color == (-MAX_COLOR, 0)
    out, code = run_cli(capsys, "sparsity", _laman1_with_third_color(tmp_path, MAX_COLOR))
    assert code == 0 and "colored-Laman graph: True" in out
    out, code = run_cli(capsys, "check", _laman1_with_third_color(tmp_path, 2**14))
    assert code == 0 and "generically minimally rigid" in out


def test_cli_check_with_a_color_of_2_to_the_15(capsys, tmp_path):
    out, code = run_cli(capsys, "check", _laman1_with_third_color(tmp_path, 2**15))
    assert code == 0 and "generically minimally rigid" in out


def test_cli_realize_with_a_color_of_2_to_the_15(capsys, tmp_path):
    out, code = run_cli(capsys, "realize", _laman1_with_third_color(tmp_path, 2**15), "--format", "json")
    edges = json.loads(out)["edges"]
    assert code == 0 and len(edges) == 3 and not any(e["collapsed"] for e in edges)


def test_cli_rank_on_the_vertex_budget_with_few_edges(capsys, tmp_path):
    # sparse rows: 40 edges on 2^16 vertices need no row of width 2n + 4
    path = tmp_path / "wide.cg"
    edges = "".join(f"{1637 * i} {1637 * i + 1} {i % 3 - 1} 1\n" for i in range(40))
    path.write_text(f"cg 2 {MAX_VERTICES} 40\n" + edges)
    out, code = run_cli(capsys, "rank", str(path), "--matrix", "M222", "--format", "json")
    assert code == 0 and json.loads(out)["rank"] == 40


def test_round_trip_random():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng)
        text = serialize_colored_graph(g)
        assert parse_colored_graph(text) == g
        assert serialize_colored_graph(parse_colored_graph(text)) == text


def test_parse_refuses_bytes_that_are_not_utf8(capsys, laman1, tmp_path):
    with pytest.raises(ParseError) as e:
        parse_colored_graph(b"cg 2 1 0\n\xff\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_colored_graph(b"cg 2 1 1\n0 0 1 0 # \xc3\xa9\n\n\xc3")
    assert e.value.line == 4
    bad = tmp_path / "bad.cg"
    bad.write_bytes(b"cg 2 1 0\n\xff\n")
    out, code = run_cli(capsys, "check", str(bad), laman1)
    assert code == 2 and "line 2" in out and "generically minimally rigid" in out


@pytest.mark.parametrize("token", ["1_0", "\u0663", "0x1", "1.0", "\uff11"])
def test_parse_refuses_integers_that_are_not_ascii_decimal(token):
    with pytest.raises(ParseError, match="expected an integer") as e:
        parse_colored_graph(f"cg 2 {token} 0\n")
    assert (e.value.line, e.value.column) == (1, 3)
    assert parse_colored_graph("cg 2 +1 0\n").n == 1


_CG_PIECES = [
    b"cg", b"2", b"0", b"1", b"-1", b"+1", b"3", b" ", b"\t", b"\n", b"\r\n", b"\x85", b"#",
    b"\xff", b"\xc3", "\u0663".encode(), b"1_0", b"\x00", b"9" * 30,
    str(MAX_COLOR + 1).encode(), str(MAX_VERTICES + 1).encode(), str(MAX_EDGES + 1).encode(),
]


@st.composite
def _cg_bytes(draw):
    """Raw bytes, or .cg text of a small graph with pieces spliced in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    n = draw(st.integers(0, 3))
    vertex, coord = st.integers(0, max(n - 1, 0)), st.integers(-2, 2)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.tuples(coord, coord)), max_size=6))
    data = serialize_colored_graph(G(n, edges) if n else G(0, [])).encode()
    for piece in draw(st.lists(st.sampled_from(_CG_PIECES), max_size=3)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + piece + data[at:]
    return data


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_cg_bytes())
def test_parse_fuzz_gives_a_graph_or_a_positioned_error(data):
    try:
        g = parse_colored_graph(data)
    except ParseError as exc:
        assert exc.line >= 1 and str(exc).startswith(f"line {exc.line}")
    except BudgetError as exc:
        assert str(exc).startswith("line ")
    else:
        text = serialize_colored_graph(g)
        assert parse_colored_graph(text) == g
        assert serialize_colored_graph(parse_colored_graph(text.encode())) == text


def test_cli_check_exit_codes(capsys, laman1, two_loops):
    out, code = run_cli(capsys, "check", laman1)
    assert code == 0 and "minimally rigid" in out
    out, code = run_cli(capsys, "check", two_loops)
    assert code == 1 and "flexible" in out


def test_cli_check_json(capsys, laman1):
    out, code = run_cli(capsys, "check", laman1, "--format", "json")
    payload = json.loads(out)
    assert payload["status"] == "generically_minimally_rigid"
    assert payload["rank"] == 3
    assert payload["witness"]["n"] == 1


def test_cli_circuit(capsys, two_loops, laman1):
    out, code = run_cli(capsys, "circuit", two_loops)
    assert code == 1 and "circuit: 0 1" in out
    out, code = run_cli(capsys, "circuit", laman1)
    assert code == 0 and "no circuit" in out


def test_cli_sparsity_families(capsys, tmp_path, laman1):
    out, code = run_cli(capsys, "sparsity", laman1)
    assert code == 0 and "colored-Laman graph: True" in out
    ross = tmp_path / "ross.cg"
    ross.write_text("cg 2 2 2\n0 1 0 0\n0 1 1 0\n")
    out, code = run_cli(capsys, "sparsity", str(ross), "--family", "ross")
    assert code == 0
    out, code = run_cli(capsys, "ross", str(ross))
    assert code == 0 and "True" in out


def test_cli_sparsity_beyond_sixteen_edges(capsys, tmp_path):
    laman = random_laman_graph(random.Random(5), 8)
    assert laman.m == 17
    over = G(8, [(e.tail, e.head, tuple(e.color)) for e in laman.edges] + [(0, 1, (1, 1))])
    for name, g, family, expect in [
        ("laman", laman, "laman", 0),
        ("laman", laman, "222", 0),
        ("over", over, "laman", 1),
        ("over", over, "222", 0),
    ]:
        path = tmp_path / f"{name}.cg"
        path.write_text(serialize_colored_graph(g))
        out, code = run_cli(capsys, "sparsity", str(path), "--family", family)
        assert code == expect and f"{family} sparse: {not expect}" in out


@pytest.mark.parametrize("family", ["laman", "222"])
def test_cli_sparsity_routes_cross_checked(capsys, monkeypatch, laman1, family):
    from perigid import cli, rigidity

    if family == "laman":
        # lying counts refuse the F_p basis, for check as for sparsity
        laman_sparse_subset = rigidity.laman_sparse_subset
        monkeypatch.setattr(rigidity, "laman_sparse_subset", lambda g, ids: not laman_sparse_subset(g, ids))
        out, code = run_cli(capsys, "check", laman1)
        assert code == 3 and "internal error" in out
    else:
        monkeypatch.setattr(cli, "rank_mod_p", lambda g, kind, seed: RankReport(kind, 0, 3, seed))
    out, code = run_cli(capsys, "sparsity", laman1, "--family", family)
    assert code == 3 and "internal error" in out


@pytest.mark.parametrize("argv", [["check"], ["circuit"], ["ross"], ["sparsity", "--family", "laman"]])
def test_colored_laman_questions_run_no_greedy_and_no_rank_trials(capsys, monkeypatch, tmp_path, laman1, two_loops, argv):
    from perigid import cli, rigidity

    def refuse(*args, **kwargs):
        raise AssertionError("the certified analysis replaces this call")

    for owner, name in [(sparsity, "max_laman_sparse_subset"), (rigidity, "max_laman_sparse_subset"),
                        (rigidity, "generic_rigidity_rank"), (rigidity, "rank_mod_p"), (cli, "rank_mod_p")]:
        monkeypatch.setattr(owner, name, refuse)
    ross = tmp_path / "ross.cg"
    ross.write_text("cg 2 2 2\n0 1 0 0\n0 1 1 0\n")
    for path in (laman1, two_loops, str(ross)):
        assert run_cli(capsys, argv[0], path, *argv[1:])[1] in (0, 1)


def test_cli_decompose(capsys, tmp_path):
    path = tmp_path / "g4.cg"
    path.write_text("cg 2 1 4\n0 0 1 0\n0 0 0 1\n0 0 1 0\n0 0 0 1\n")
    out, code = run_cli(capsys, "decompose", str(path), "--format", "json")
    parts = json.loads(out)
    assert code == 0
    assert sorted(parts["part1"] + parts["part2"]) == [0, 1, 2, 3]


def test_cli_decompose_domain_error(capsys, laman1, tmp_path):
    out, code = run_cli(capsys, "decompose", laman1)
    assert code == 2 and "error" in out
    overfull = tmp_path / "overfull.cg"  # m = 2n - 2 + 2k, but not (2,2,k)-sparse
    overfull.write_text("cg 1 1 4\n0 0 1 0\n0 0 1 0\n0 0 1 0\n0 0 0 1\n")
    out, code = run_cli(capsys, "decompose", str(overfull))
    assert code == 2 and "error" in out


@pytest.mark.parametrize("argv", [["decompose"], ["sparsity", "--family", "222"]])
def test_one_matroid_union_per_222_question(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "g4.cg"
    path.write_text("cg 2 1 4\n0 0 1 0\n0 0 0 1\n0 0 1 0\n0 0 0 1\n")
    calls = []
    union = sparsity.union_independent
    monkeypatch.setattr(sparsity, "union_independent", lambda sub: calls.append(sub) or union(sub))
    _, code = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 0 and len(calls) == 1


def test_cli_realize_json_schema(capsys, laman1):
    out, code = run_cli(capsys, "realize", laman1, "--seed", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["n", "p", "L", "edges", "seed"]
    assert payload["seed"] == 4
    assert all(not e["collapsed"] for e in payload["edges"])
    assert list(payload["edges"][0]) == ["id", "alpha", "collapsed"]


def test_cli_realize_rejects_flexible(capsys, two_loops):
    out, code = run_cli(capsys, "realize", two_loops)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["realize", "--tol", "1e-9"],
    ["check", "--jobs", "2"],
    ["check", "--trials", "3"],
    ["sparsity", "--trials", "3"],
    ["realize", "--trials", "3"],
], ids=lambda argv: argv[0] + argv[1][1:])
def test_cli_refuses_a_flag_its_command_does_not_read(capsys, laman1, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], laman1, *argv[1:]])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_cli_develop_text_and_json(capsys, tmp_path):
    path = tmp_path / "f.cg"
    path.write_text("cg 2 1 3\n0 0 1 0\n0 0 0 2\n0 0 1 2\n")
    out, code = run_cli(capsys, "develop", str(path), "--window", "-2:2,-2:2")
    assert code == 0 and "k=2 index=2" in out
    out, code = run_cli(capsys, "develop", str(path), "--format", "json")
    payload = json.loads(out)
    assert payload["index"] == 2 and payload["observed_core_components"] == 2


def test_cli_develop_svg(capsys, tmp_path):
    path = tmp_path / "f.cg"
    path.write_text("cg 2 1 3\n0 0 1 0\n0 0 0 2\n0 0 1 2\n")
    out, code = run_cli(capsys, "develop", str(path), "--format", "svg")
    assert code == 0
    assert out.startswith("<?xml") and out.rstrip().endswith("</svg>")
    assert out.count("<circle") == 25
    # two component colors in play
    assert "#1f77b4" in out and "#d62728" in out


def test_cli_develop_svg_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.cg"
    path.write_text("cg 2 0 0\n")
    out, code = run_cli(capsys, "develop", str(path), "--format", "svg")
    assert code == 0 and "<line" in out and "<circle" not in out


def test_cli_realize_refuses_a_graph_that_is_not_colored_laman(capsys, tmp_path):
    # m = 2n + 1 but not sparse, and m != 2n + 1
    not_sparse = tmp_path / "not_sparse.cg"
    not_sparse.write_text("cg 2 1 3\n0 0 1 0\n0 0 1 0\n0 0 0 1\n")
    out, code = run_cli(capsys, "realize", str(not_sparse))
    assert code == 2 and out == "error: faithful_realization needs a colored-Laman graph\n"
    one_loop = tmp_path / "one_loop.cg"
    one_loop.write_text("cg 2 1 1\n0 0 1 0\n")
    out, code = run_cli(capsys, "realize", str(one_loop))
    assert code == 2 and out == "error: faithful_realization needs a colored-Laman graph\n"


@pytest.mark.parametrize("g", [1 << 40, 1 << 53])
def test_cli_realizes_a_one_vertex_graph_with_a_huge_color(capsys, tmp_path, g):
    # a loop of color (g, 1) is some g times longer than the other two, which a float
    # drawing measured against its size as collapsed, resampled and gave up on (exit 3)
    path = tmp_path / "huge.cg"
    path.write_text(f"cg 2 1 3\n0 0 1 0\n0 0 0 1\n0 0 {g} 1\n")
    out, code = run_cli(capsys, "check", str(path))
    assert code == 0 and out.startswith("generically minimally rigid\n")
    out, code = run_cli(capsys, "check", str(path), "--format", "json")
    assert code == 0 and not any(e["collapsed"] for e in json.loads(out)["witness"]["edges"])
    out, code = run_cli(capsys, "realize", str(path))
    assert code == 0 and out.count("collapsed=False") == 3 and "collapsed=True" not in out
    out, code = run_cli(capsys, "realize", str(path), "--format", "json")
    assert code == 0 and not any(e["collapsed"] for e in json.loads(out)["edges"])


def test_cli_realize_svg(capsys, laman1):
    out, code = run_cli(capsys, "realize", laman1, "--format", "svg")
    assert code == 0
    assert out.count("<circle") >= 3  # vertex + lattice arrowheads
    assert "<polygon" in out


# SHA-256 of stdout of every command that prints the witness, on LAMAN1 and on
# a seeded tight graph at n = 8: the writers draw the exact point, and a drift
# in these bytes is a change of output.
WITNESS_DIGESTS = {
    ("laman1", "realize"): "38cbe28d1d5f972871d6796597da23200f3ca067869d18f692a03d9b202e51e3",
    ("laman1", "realize --format json"): "8adda082eedbb65516017fe974481ff80bb9161580808b200bc2e6e930071023",
    ("laman1", "realize --format svg"): "31f63254453915002d972dc16a57c601eb3fdd7776b55d85cc328f1a9886338f",
    ("laman1", "check --format json"): "dafe39744385ee09fa2f56f7e9781e4addfe7c7c42df3bb6d535e450ee6e15bb",
    ("tight8", "realize"): "453c9791881baec77e68f8378224d7fb00c6dd67efa8a9a61d594c574b09627a",
    ("tight8", "realize --format json"): "df79db16ff38ef372acfb2855e16edc2c010042448e331759ba57e5003abcec2",
    ("tight8", "realize --format svg"): "7aa6c21ea8be4789dd5fc364c9def754ff93dbf758c005b3e39e7eb36e1bd24d",
    ("tight8", "check --format json"): "46092aef21685e11e0d83657d881c5b176809b0e060ebbbed03610794e52ce6b",
}


def test_the_witness_writers_keep_their_bytes(capsysbinary, tmp_path, laman1):
    tight8 = tmp_path / "tight8.cg"
    tight8.write_text(serialize_colored_graph(random_laman_graph(random.Random(8), 8)))
    got = {}
    for name, command in WITNESS_DIGESTS:
        assert main([*command.split(), laman1 if name == "laman1" else str(tight8)]) == 0
        got[name, command] = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert got == WITNESS_DIGESTS


def test_cli_cover(capsys, tmp_path):
    path = tmp_path / "f.cg"
    path.write_text("cg 2 1 3\n0 0 1 0\n0 0 0 2\n0 0 1 2\n")
    out, code = run_cli(capsys, "cover", str(path), "--basis", "1,0,0,2")
    assert code == 0
    cover = parse_colored_graph(out)
    assert cover.n == 2 and cover.m == 6


def test_cli_oned(capsys, tmp_path):
    path = tmp_path / "o.cg"
    path.write_text("cg 2 1 1\n0 0 1 0\n")
    out, code = run_cli(capsys, "oned", str(path))
    assert code == 0 and "minimally rigid" in out
    bad = tmp_path / "bad.cg"
    bad.write_text("cg 2 1 1\n0 0 1 1\n")
    out, code = run_cli(capsys, "oned", str(bad))
    assert code == 2
    out, code = run_cli(capsys, "oned", str(path), "--trials", "0")
    assert code == 2 and "trials must be >= 1" in out
    empty = tmp_path / "empty.cg"
    empty.write_text("cg 2 0 0\n")
    out, code = run_cli(capsys, "oned", str(empty))
    assert code == 1 and "generically flexible" in out
    out, code = run_cli(capsys, "check", str(empty))
    assert code == 1 and "generically flexible" in out


def test_cli_refuses_a_trial_count_above_the_budget_at_once(capsys, monkeypatch, tmp_path):
    from perigid import linear_rep

    def refuse(rows):
        raise AssertionError("no sample is drawn for a refused trial count")

    monkeypatch.setattr(linear_rep, "modp_rank", refuse)
    flex = tmp_path / "flex.cg"  # rank-deficient: no sample reaches the ceiling
    flex.write_text("cg 2 2 2\n0 1 0 0\n1 0 0 0\n")
    start = time.perf_counter()
    for argv in (["oned"], *(["rank", "--matrix", m] for m in ("M112", "M222", "M232"))):
        out, code = run_cli(capsys, argv[0], str(flex), *argv[1:], "--trials", "1000000000")
        assert code == 2 and f"trials must be <= {linear_rep.MAX_TRIALS}, got 1000000000" in out
    assert time.perf_counter() - start < 5


def test_cli_rank_dump(capsys, tmp_path, laman1):
    dump = tmp_path / "m.txt"
    out, code = run_cli(capsys, "rank", laman1, "--matrix", "M112", "--dump", str(dump))
    assert code == 0 and "M112 generic rank: 2" in out
    text = dump.read_text()
    assert text.startswith("mat 3 3 fp\n")

    # every matrix dumps the first sample its rank draws; one trial ranks exactly that sample
    graph = parse_colored_graph(LAMAN1_TEXT)
    for matrix, width in (("M112", 3), ("M222", 6), ("M232", 6)):
        want = sample_rows(graph, matrix, random.Random(5))
        out, code = run_cli(capsys, "rank", laman1, "--matrix", matrix, "--seed", "5", "--trials", "1",
                            "--dump", str(dump))
        header, *rows = dump.read_text().splitlines()
        assert code == 0 and header == f"mat 3 {width} fp"
        assert [tuple(int(x) for x in row.split()) for row in rows] == [
            tuple(row.get(j, 0) for j in range(width)) for row in want
        ]
        assert f"{matrix} generic rank: {modp_rank(want)} (mode=fp, trials=1, seed=5)" in out


def test_cli_rank_refuses_one_dump_for_several_inputs(capsys, tmp_path, laman1, two_loops):
    from perigid import cli

    def refuse(*args, **kwargs):
        raise AssertionError("no input runs when the dump is refused")

    dump = tmp_path / "m.txt"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "rank_mod_p", refuse)
        out, code = run_cli(capsys, "rank", laman1, two_loops, "--dump", str(dump))
    assert code == 2 and out == "error: --dump takes one input, got 2\n"
    assert not dump.exists()
    out, code = run_cli(capsys, "rank", laman1, two_loops)  # without a dump both ranks print
    assert code == 0 and out.count("generic rank") == 2


def test_cli_determinism(capsys, laman1):
    a, _ = run_cli(capsys, "realize", laman1, "--seed", "9", "--format", "json")
    b, _ = run_cli(capsys, "realize", laman1, "--seed", "9", "--format", "json")
    assert a == b
    c, _ = run_cli(capsys, "develop", laman1, "--format", "svg")
    d, _ = run_cli(capsys, "develop", laman1, "--format", "svg")
    assert c == d


def test_cli_batch_jobs(capsys, laman1, two_loops):
    out, code = run_cli(capsys, "check", laman1, two_loops)
    assert code == 1
    assert out.index(laman1) < out.index(two_loops)


def test_cli_parser_built_once():
    assert build_parser() is build_parser()


def test_cli_missing_file(capsys):
    out, code = run_cli(capsys, "check", "/nonexistent/file.cg")
    assert code == 2


def test_cli_internal_error_exit_code(capsys, laman1, monkeypatch):
    from perigid import cli
    from perigid.errors import InternalConsistencyError

    def boom(path, args):
        raise InternalConsistencyError("forced disagreement")

    monkeypatch.setitem(cli.COMMANDS, "check", boom)
    out, code = run_cli(capsys, "check", laman1)
    assert code == 3 and "internal error" in out
