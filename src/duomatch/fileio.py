"""Text formats for instances, graphs, and matchings.

Three file kinds, all line-oriented and read by the one line reader of
:mod:`duomatch.core`, which ignores ``#`` comments and blank lines:

* ``.duo``    two symbol lines, one per string (see core.parse_instance)
* ``.mcbm``   first line m, then one ``i j`` edge per line
* matching    one ``i j`` edge per line, relative to some graph

Files are read as bytes and decoded as UTF-8 once, by :func:`_read`; any
malformed input, undecodable bytes included, raises
:class:`~duomatch.core.ParseError`.  CRLF and lone-CR line ends need no
newline translation on the way in, since the line reader splits on every
line end.  Every file the command line writes goes through
:func:`write_text`.
"""

from __future__ import annotations

import os
import stat

from .core import DuoGraph, Edge, ParseError, StringInstance, _content_lines, parse_instance


def _parse_edge_line(ln: str) -> Edge:
    parts = ln.split()
    if len(parts) != 2:
        raise ParseError(f"expected 'i j', got {ln!r}")
    try:
        return Edge(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ParseError(f"non-integer edge line {ln!r}") from exc


def parse_graph(text: str) -> DuoGraph:
    """Parse the ``.mcbm`` format: a position count then edge lines."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file")
    try:
        m = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"first line must be the position count, got {lines[0]!r}") from exc
    edges = [_parse_edge_line(ln) for ln in lines[1:]]
    try:
        return DuoGraph(m, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_matching_edges(text: str) -> list[Edge]:
    """Parse raw matching edges; validation against a graph is the caller's
    job so that verification commands can report on invalid inputs."""
    return [_parse_edge_line(ln) for ln in _content_lines(text)]


def format_graph(g: DuoGraph) -> str:
    lines = [str(g.m)]
    lines.extend(str(e) for e in g.edges)
    return "\n".join(lines) + "\n"


def format_matching(edges) -> str:
    return "".join(f"{e}\n" for e in sorted(edges))


def format_instance(inst: StringInstance) -> str:
    """The ``.duo`` text of ``inst``; ValueError names a symbol it cannot
    carry: empty, holding whitespace, or starting a line with ``#``."""
    firsts = (inst.a[0], inst.b[0])
    for sym in inst.a:
        if not sym or any(c.isspace() for c in sym) or (sym[0] == "#" and sym in firsts):
            raise ValueError(f"symbol {sym!r} cannot be written as .duo text")
    return " ".join(inst.a) + "\n" + " ".join(inst.b) + "\n"


def _read(path: str) -> str:
    """The text of the file at ``path``: its bytes, decoded as UTF-8 once.

    The unbuffered binary read takes about half the time of a text-mode open
    on the small files the commands read, which pays for a buffer, an
    incremental decoder and newline translation;
    :func:`~duomatch.core._content_lines` splits on ``\\r\\n`` and lone
    ``\\r`` itself.  Undecodable bytes raise ParseError naming ``path``.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting it in place.

    The file is opened without ``O_TRUNC`` and cut to the new length after
    the write.  On ext4, a regular file truncated to zero and then rewritten
    is flushed to disk when it is closed (``auto_da_alloc``), which costs far
    more than the write itself.  Only a regular file is cut: character
    devices such as ``/dev/null`` and pipes reject ``ftruncate``, and there
    is no old tail to remove on them.  A new file gets the mode ``open()``
    would give it (0o666 less the umask).
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.flush()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _suffix(path: str) -> str:
    """The suffix of ``path`` in lower case, by which the input kinds are
    told apart: ``.mcbm`` is a graph, ``.duo`` a string pair."""
    return os.path.splitext(path)[1].lower()


def is_input_file(path: str) -> bool:
    """Whether ``path`` names an input kind, ``.duo`` or ``.mcbm`` in any
    case: the files ``bench`` takes from a directory."""
    return _suffix(path) in (".duo", ".mcbm")


def load_problem(path: str) -> tuple[DuoGraph, StringInstance | None]:
    """Load either input kind, returning the graph plus the string pair when
    one exists: a ``.mcbm`` path (in any case) is a graph, any other a
    ``.duo`` pair."""
    text = _read(path)
    if _suffix(path) == ".mcbm":
        return parse_graph(text), None
    inst = parse_instance(text)
    return DuoGraph.from_strings(inst), inst


def load_matching_edges(path: str) -> list[Edge]:
    return parse_matching_edges(_read(path))
