"""Round trips and fuzzing of the three text formats, which share one line
reader: comment lines, blank lines, CRLF line ends and padding whitespace
never change what is read, and malformed text raises ParseError only."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duomatch.core import DuoGraph, Edge, ParseError, StringInstance, parse_instance
from duomatch.fileio import (
    format_graph,
    format_instance,
    format_matching,
    is_input_file,
    load_matching_edges,
    load_problem,
    parse_graph,
    parse_matching_edges,
    write_text,
)

from test_core import graphs

# symbols never contain whitespace and never start with "#"
symbol_st = st.text("abcxyz019_#", min_size=1, max_size=3).filter(lambda s: s[0] != "#")
pad_st = st.text(" \t", max_size=3)


@st.composite
def instances(draw):
    a = draw(st.lists(symbol_st, min_size=2, max_size=8))
    return StringInstance(tuple(a), tuple(draw(st.permutations(a))))


@st.composite
def noisy(draw, text):
    """``text`` with comment and blank lines inserted, every line padded
    and the tokens of each line spread apart, and optionally CRLF ends."""
    lines = []
    for ln in text.splitlines():
        while draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "#", "# note 1 2", "  # x y"])) + draw(pad_st))
        gap = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        lines.append(draw(pad_st) + gap.join(ln.split(" ")) + draw(pad_st))
    lines.append(draw(pad_st))
    return ("\r\n" if draw(st.booleans()) else "\n").join(lines)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_instance_round_trip(data):
    inst = data.draw(instances())
    text = data.draw(noisy(format_instance(inst)))
    assert parse_instance(text) == inst


@pytest.mark.parametrize("a, b, bad", [
    (("a", ""), ("", "a"), "''"),
    (("a b", "c"), ("c", "a b"), "'a b'"),
    (("c", "x\ty"), ("x\ty", "c"), "'x\\ty'"),
    (("#a", "b"), ("b", "#a"), "'#a'"),
    (("b", "#a"), ("#a", "b"), "'#a'"),
], ids=["empty", "space", "tab", "hash-first-in-a", "hash-first-in-b"])
def test_format_instance_rejects_unwritable_symbols(a, b, bad):
    with pytest.raises(ValueError) as exc:
        format_instance(StringInstance(a, b))
    assert bad in str(exc.value)


def test_format_instance_writes_hash_symbols_after_the_first():
    inst = StringInstance(("a", "#b"), ("a", "#b"))
    assert parse_instance(format_instance(inst)) == inst


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_graph_round_trip(data):
    g = data.draw(graphs())
    parsed = parse_graph(data.draw(noisy(format_graph(g))))
    assert (parsed.m, parsed.edges) == (g.m, g.edges)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matching_round_trip(data):
    es = data.draw(st.lists(st.builds(Edge, st.integers(1, 99), st.integers(1, 99))))
    assert parse_matching_edges(data.draw(noisy(format_matching(es)))) == sorted(es)


PARSERS = (parse_instance, parse_graph, parse_matching_edges)

line_st = st.one_of(
    st.text(max_size=12),
    st.lists(st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["x", "1.5", "#", "a"])),
             max_size=4).map(" ".join),
)


@pytest.mark.parametrize("parse", PARSERS)
@settings(max_examples=150, deadline=None)
@given(text=st.lists(line_st, max_size=5).map("\n".join))
def test_malformed_text_raises_parse_error_only(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


@pytest.mark.parametrize("parse, text", [
    (parse_instance, "a b\n"),
    (parse_instance, "a b\nb c\n"),
    (parse_graph, ""),
    (parse_graph, "# only a comment\n"),
    (parse_graph, "two\n1 1\n"),
    (parse_graph, "0\n"),
    (parse_graph, "3\n1 4\n"),
    (parse_graph, "3\n1 2 3\n"),
    (parse_matching_edges, "1 x\n"),
    (parse_matching_edges, "1\n"),
])
def test_malformed_examples(parse, text):
    with pytest.raises(ParseError):
        parse(text)


# ---------------------------------------------------------------- loading

def test_load_problem_picks_the_format_by_extension(tmp_path):
    """A ``.mcbm`` path, in any case, is a graph; any other path is a
    ``.duo`` pair.  Only the two suffixes, in any case, name input files."""
    for name in ("lower.mcbm", "upper.MCBM"):
        (tmp_path / name).write_text("3\n1 2\n2 3\n")
        g, inst = load_problem(str(tmp_path / name))
        assert inst is None and (g.m, g.edges) == (3, (Edge(1, 2), Edge(2, 3)))
        assert is_input_file(name)
    for name in ("pair.duo", "upper.DUO", "pair.txt", "pair"):
        (tmp_path / name).write_text("a b a\nb a a\n")
        g, inst = load_problem(str(tmp_path / name))
        assert inst == parse_instance("a b a\nb a a\n")
        assert g.edges == DuoGraph.from_strings(inst).edges
        assert is_input_file(name) == name.lower().endswith(".duo")


TEXT_FILES = {
    "pair.duo": ["# a pair", "a b ä c", "", "  b ä c a  "],
    "graph.mcbm": ["3", "1 2", "# edge 2", "2 3"],
    "edges.matching": ["2 1", "", "3 2 ", "# done"],
}


def _load(path: str):
    """What the loader of ``path``'s kind returns, as comparable values."""
    if path.endswith(".matching"):
        return load_matching_edges(path)
    g, inst = load_problem(path)
    return g.m, g.edges, inst


@pytest.mark.parametrize("ends", [("\r\n",), ("\r",), ("\r\n", "\r", "\n", "\r", "\r\n")],
                         ids=["crlf", "cr", "mixed"])
@pytest.mark.parametrize("name", sorted(TEXT_FILES))
def test_files_load_the_same_with_any_line_end(tmp_path, name, ends):
    """A file whose lines end in CRLF, lone CR or a mix of ends, written as
    bytes, loads as the same file with ``\\n`` ends does."""
    lines = TEXT_FILES[name]
    plain, other = tmp_path / "plain", tmp_path / "other"
    plain.mkdir()
    other.mkdir()
    (plain / name).write_bytes("".join(ln + "\n" for ln in lines).encode("utf-8"))
    (other / name).write_bytes(
        "".join(ln + ends[k % len(ends)] for k, ln in enumerate(lines)).encode("utf-8"))
    assert _load(str(other / name)) == _load(str(plain / name))


@pytest.mark.parametrize("name", sorted(TEXT_FILES))
def test_undecodable_file_raises_parse_error_naming_it(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"3\r\n1 2\r\n2 \xff3\r\n")
    with pytest.raises(ParseError) as exc:
        _load(str(path))
    assert f"{path} is not UTF-8 text" in str(exc.value)


# ---------------------------------------------------------------- writing

def test_write_text_overwrites_a_longer_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("x" * 10_000)
    write_text(str(path), "näive\n")
    assert path.read_bytes() == "näive\n".encode("utf-8")


def test_write_text_creates_a_file_with_the_mode_open_gives(tmp_path):
    ours, theirs = tmp_path / "ours.txt", tmp_path / "theirs.txt"
    write_text(str(ours), "a\n")
    with open(theirs, "w", encoding="utf-8") as fh:
        fh.write("a\n")
    assert os.stat(ours).st_mode == os.stat(theirs).st_mode


def test_write_text_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old old old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text(str(link), "new\n")
    assert link.is_symlink() and target.read_text() == "new\n"


def test_write_text_to_a_device_skips_the_truncation():
    write_text(os.devnull, "discarded\n")


def test_write_text_to_a_directory_raises(tmp_path):
    with pytest.raises(IsADirectoryError):
        write_text(str(tmp_path), "x")
