import ast
import itertools
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duomatch.core import (
    DuoGraph,
    Edge,
    EdgeNotInGraphError,
    EmptyInstanceError,
    IncompatibleEdgesError,
    LengthMismatchError,
    Matching,
    NotPermutationError,
    ParseError,
    StringInstance,
    _conflicting_pairs,
    _index,
    _lonely,
    _matching_on,
    _union,
    compatible,
    parse_instance,
    partition_from_matching,
    singleton_partition,
)

from conftest import DEMO_EDGES, DEMO_OPT, DEMO_TEXT, edges


def brute_conflict(e: Edge, f: Edge) -> bool:
    """Independent route to the conflict relation: union of the shifted
    same-index families, written without the difference arithmetic."""
    if e == f:
        return False
    for q in (-1, 0, 1):
        if f.i == e.i + q and f.j != e.j + q:
            return True
        if f.j == e.j + q and f.i != e.i + q:
            return True
    return False


edge_st = st.builds(Edge, st.integers(1, 9), st.integers(1, 9))


@st.composite
def graphs(draw, max_m=8, max_edges=14):
    m = draw(st.integers(2, max_m))
    pool = [Edge(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    chosen = draw(st.lists(st.sampled_from(pool), max_size=max_edges, unique=True))
    return DuoGraph(m, chosen)


@st.composite
def string_pairs(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    a = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    b = draw(st.permutations(a))
    return StringInstance(tuple(a), tuple(b))


def greedy_matching_of(g: DuoGraph, order) -> list[Edge]:
    out = []
    for e in order:
        if all(compatible(e, f) for f in out):
            out.append(e)
    return out


# ---------------------------------------------------------------- parsing

def test_parse_demo():
    inst = parse_instance(DEMO_TEXT)
    assert inst.n == 7
    assert set(inst.a) == set("abcd")
    assert inst.occurrence_cap() == 2


def test_parse_compact_equals_spaced():
    assert parse_instance("abc\ncba") == parse_instance("a b c\nc b a")


def test_parse_comments_and_blanks():
    text = "# instance\n\na b a\n# middle\nb a a\n"
    inst = parse_instance(text)
    assert inst.a == ("a", "b", "a")


def test_parse_multichar_symbols():
    inst = parse_instance("s0 s1 s0\ns0 s0 s1")
    assert set(inst.a) == {"s0", "s1"}


def test_parse_rejects_bad_shapes():
    with pytest.raises(LengthMismatchError):
        parse_instance("a b\nb a a")
    with pytest.raises(NotPermutationError):
        parse_instance("a b\nb c")
    with pytest.raises(EmptyInstanceError):
        parse_instance("a\na")
    with pytest.raises(ParseError):
        parse_instance("a b\nb a\na b")


def test_two_identical_symbols_is_valid():
    inst = parse_instance("a a\na a")
    assert inst.n == 2


# ---------------------------------------------------------------- graph build

def test_demo_graph_edges(demo_graph):
    assert [(e.i, e.j) for e in demo_graph.edges] == DEMO_EDGES


@given(string_pairs())
def test_graph_matches_brute_duo_scan(inst):
    """from_strings keeps the edges it builds without the constructor's
    re-wrap, sort and range check, and its graph equals the checked
    constructor's on the brute-force edge set, field by field."""
    g = DuoGraph.from_strings(inst)
    expected = {
        Edge(i, j)
        for i in range(1, inst.n)
        for j in range(1, inst.n)
        if (inst.a[i - 1], inst.a[i]) == (inst.b[j - 1], inst.b[j])
    }
    assert set(g.edges) == expected
    checked = DuoGraph(inst.n - 1, expected)
    assert g.m == checked.m == inst.n - 1
    assert g.edges == checked.edges == tuple(sorted(expected))
    assert all(type(e) is Edge for e in g.edges)
    assert g.index == checked.index


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        DuoGraph(3, [Edge(1, 4)])
    with pytest.raises(ValueError):
        DuoGraph(0, [])


# ---------------------------------------------------------------- edges

@given(edge_st, edge_st)
def test_edge_is_its_position_pair(e, f):
    """Equality, hash and order are those of the tuple (i, j)."""
    assert e == (e.i, e.j) and hash(e) == hash((e.i, e.j))
    assert (e == f) == ((e.i, e.j) == (f.i, f.j))
    assert (e < f) == ((e.i, e.j) < (f.i, f.j))


def test_edge_sort_order():
    es = [Edge(2, 1), Edge(1, 5), Edge(2, 0), Edge(10, 1), Edge(1, 4)]
    assert sorted(es) == [Edge(1, 4), Edge(1, 5), Edge(2, 0), Edge(2, 1), Edge(10, 1)]


def test_edge_text_forms():
    assert str(Edge(3, 12)) == "3 12"
    assert repr(Edge(1, 2)) == "Edge(i=1, j=2)"


def test_edge_pickle_round_trip():
    e = Edge(4, 7)
    back = pickle.loads(pickle.dumps(e))
    assert back == e and type(back) is Edge and (back.i, back.j) == (4, 7)


def test_raw_tuples_find_their_edges(demo_graph):
    """A plain (i, j) tuple equals its edge, so graph and matching
    membership accept it."""
    assert (2, 1) in demo_graph and Edge(2, 1) in demo_graph
    assert (4, 4) not in demo_graph
    m = Matching(edges(DEMO_OPT))
    assert (3, 2) in m and (3, 3) not in m
    assert Matching([(2, 1), Edge(3, 2)]).edges == (Edge(2, 1), Edge(3, 2))


@given(string_pairs())
def test_membership_reads_the_edge_tuple(inst):
    """On graphs from both constructors, every edge is a member as an Edge
    and as a raw (i, j) tuple, every other pair in or just outside 1..m is
    not, and asking builds no conflict index."""
    built = DuoGraph.from_strings(inst)
    for g in (built, DuoGraph(built.m, [(e.i, e.j) for e in built.edges])):
        present = set(g.edges)
        for i in range(-1, g.m + 3):
            for j in range(-1, g.m + 3):
                assert ((i, j) in g) == (Edge(i, j) in g) == ((i, j) in present)
        assert g._index is None


# ---------------------------------------------------------------- compatibility

def test_compatible_frozen_cases():
    assert compatible(Edge(2, 1), Edge(3, 2))        # parallel
    assert not compatible(Edge(2, 1), Edge(6, 1))    # share j
    assert not compatible(Edge(5, 5), Edge(6, 1))    # consecutive i, not parallel
    assert compatible(Edge(1, 5), Edge(3, 2))        # distance >= 2 both sides
    assert compatible(Edge(4, 4), Edge(4, 4))        # self, by convention
    assert not compatible(Edge(3, 3), Edge(4, 2))    # anti-parallel neighbors


@given(edge_st, edge_st)
def test_compatible_matches_brute_conflict(e, f):
    assert compatible(e, f) == (not brute_conflict(e, f))


@given(edge_st, edge_st)
def test_compatible_symmetric(e, f):
    assert compatible(e, f) == compatible(f, e)


# ---------------------------------------------------------------- conflict sets

def test_demo_conflict_set(demo_graph):
    assert demo_graph.conflict_set(Edge(2, 1)) == (Edge(1, 5), Edge(6, 1))


def test_conflict_set_requires_membership(demo_graph):
    with pytest.raises(EdgeNotInGraphError):
        demo_graph.conflict_set(Edge(4, 4))


@given(graphs())
def test_conflict_set_matches_full_scan(g):
    for e in g.edges:
        expected = tuple(f for f in g.edges if not compatible(e, f))
        assert g.conflict_set(e) == expected


@given(graphs())
def test_index_masks_match_full_scan(g):
    assert_index_matches_full_scan(g.edges, g.index)


def assert_index_matches_full_scan(edges, idx):
    assert idx.pos == {e: k for k, e in enumerate(edges)}
    for e, conf, par in zip(edges, idx.conf, idx.par):
        for k, f in enumerate(edges):
            assert (conf >> k & 1) == (not compatible(e, f))
            parallel = (f.i - e.i, f.j - e.j) in ((1, 1), (-1, -1))
            assert (par >> k & 1) == parallel
        assert conf >> len(edges) == 0 and par >> len(edges) == 0


# positions a matching file can hold: outside 1..m, zero and negative
wide_edge_st = st.builds(Edge, st.integers(-3, 12), st.integers(-3, 12))


@given(st.lists(wide_edge_st, max_size=16))
def test_index_of_any_edges_matches_full_scan(es):
    """``_index`` holds the conflict and parallel rules for any offsets."""
    ordered = tuple(sorted(set(es)))
    assert_index_matches_full_scan(ordered, _index(ordered))


@given(st.lists(wide_edge_st, max_size=12))
def test_matching_of_any_edges_reports_first_conflict(es):
    ordered = sorted(set(es))
    first = next(
        ((a, b) for a, b in itertools.combinations(ordered, 2) if not compatible(a, b)),
        None,
    )
    if first is None:
        assert Matching(es).edges == tuple(ordered)
        return
    with pytest.raises(IncompatibleEdgesError) as exc:
        Matching(es)
    assert exc.value.pair == first


@given(st.lists(wide_edge_st, max_size=12))
def test_conflicting_pairs_of_any_list_in_combinations_order(es):
    """Repeated entries are compatible, so the lister gives every
    conflicting pair of the list in ``combinations`` order."""
    expected = [(a, b) for a, b in itertools.combinations(es, 2) if not compatible(a, b)]
    assert list(_conflicting_pairs(es)) == expected


def parallel(e: Edge, f: Edge) -> bool:
    return (f.i - e.i, f.j - e.j) in ((1, 1), (-1, -1))


@given(st.lists(wide_edge_st, max_size=14), st.data())
def test_union_and_lonely_match_their_definitions(es, data):
    """``_union`` over ``conf`` or ``par`` gives the edges conflicting
    with, or parallel to, some edge of a set; ``_lonely`` gives the edges
    of a set with no parallel neighbour in a mask, and on a compatible set
    against itself its singletons."""
    # parallel pairs are rare among drawn edges: give every other one its
    # successor
    ordered = tuple(sorted({*es, *(Edge(i + 1, j + 1) for i, j in es[::2])}))
    idx = _index(ordered)
    bits, among, mask = (data.draw(st.integers(0, (1 << len(ordered)) - 1)) for _ in range(3))

    def of(m):
        return [f for k, f in enumerate(ordered) if m >> k & 1]

    def mask_of(test):
        return sum(1 << k for k, e in enumerate(ordered) if test(e))

    assert _union(idx.conf, bits) == mask_of(
        lambda e: any(not compatible(e, f) for f in of(bits)))
    assert _union(idx.par, bits) == mask_of(lambda e: any(parallel(e, f) for f in of(bits)))
    assert _lonely(idx.par, among, mask) == mask_of(
        lambda e: e in of(among) and not any(parallel(e, f) for f in of(mask)))
    kept = 0
    for k in range(len(ordered)):
        if mask >> k & 1 and not idx.conf[k] & kept:
            kept |= 1 << k
    assert set(of(_lonely(idx.par, kept, kept))) == singleton_partition(of(kept))[0]


def test_index_built_on_first_use(demo_graph):
    assert demo_graph._index is None
    assert demo_graph.index is demo_graph.index


def max_compatible_subset_size(cands: list[Edge]) -> int:
    best = 0
    def rec(idx, chosen):
        nonlocal best
        best = max(best, len(chosen))
        for k in range(idx, len(cands)):
            e = cands[k]
            if all(compatible(e, c) for c in chosen):
                chosen.append(e)
                rec(k + 1, chosen)
                chosen.pop()
    rec(0, [])
    return best


@settings(max_examples=40, deadline=None)
@given(graphs(max_m=10, max_edges=20))
def test_conflict_set_compatible_subsets_capped_at_six(g):
    for e in g.edges:
        assert max_compatible_subset_size(list(g.conflict_set(e))) <= 6


@given(graphs())
def test_conflict_set_size_bound(g):
    for e in g.edges:
        assert len(g.conflict_set(e)) <= 6 * (g.m - 1)


# ---------------------------------------------------------------- matchings

def test_matching_sorts_and_dedupes():
    m = Matching([Edge(5, 5), Edge(2, 1), Edge(2, 1), Edge(3, 2)])
    assert m.edges == (Edge(2, 1), Edge(3, 2), Edge(5, 5))
    assert len(m) == 3 and Edge(5, 5) in m


def test_matching_hash_follows_its_edges(demo_graph):
    """Equal matchings hash equal however they were built, so a set keeps
    one of them."""
    listed = Matching([Edge(3, 2), Edge(2, 1)])
    masked = _matching_on(demo_graph, [Edge(2, 1), Edge(3, 2)])
    assert masked._graph is demo_graph
    assert listed == masked and hash(listed) == hash(masked)
    assert len({listed, masked, Matching([Edge(2, 1)])}) == 2


def test_graph_and_matching_reprs(demo_graph):
    assert repr(demo_graph) == f"DuoGraph(m={demo_graph.m}, |E|={len(demo_graph.edges)})"
    assert repr(Matching([Edge(3, 2), Edge(2, 1)])) == "Matching[(2,1), (3,2)]"
    assert repr(Matching([])) == "Matching[]"


def test_matching_rejects_conflicts():
    with pytest.raises(IncompatibleEdgesError) as exc:
        Matching([Edge(2, 1), Edge(6, 1)])
    assert exc.value.pair == (Edge(2, 1), Edge(6, 1))


@given(st.lists(edge_st, max_size=12))
def test_matching_reports_first_conflict_in_lex_order(es):
    """The bucket scan names the same pair as a scan of all lex-ordered
    pairs, and accepts exactly the pairwise compatible sets."""
    ordered = sorted(set(es))
    first = next(
        ((a, b) for a, b in itertools.combinations(ordered, 2) if not compatible(a, b)),
        None,
    )
    g = DuoGraph(9, es)
    assert (_matching_on(g, es) is not None) == (first is None)
    if first is None:
        assert Matching(es).edges == tuple(ordered)
        return
    with pytest.raises(IncompatibleEdgesError) as exc:
        Matching(es)
    assert exc.value.pair == first


@st.composite
def graph_masks(draw):
    g = draw(graphs(max_m=8, max_edges=16))
    return g, draw(st.integers(0, (1 << len(g.edges)) - 1))


@given(graph_masks())
def test_matching_of_mask_agrees_with_constructor(gm):
    """The mask constructor builds the same matching, or names the same
    first conflicting pair, as the constructor on the same edges."""
    g, mask = gm
    es = [e for k, e in enumerate(g.edges) if mask >> k & 1]
    try:
        expected = Matching(es)
    except IncompatibleEdgesError as exc:
        with pytest.raises(IncompatibleEdgesError) as got:
            Matching._of_mask(g, mask)
        assert got.value.pair == exc.pair
        return
    m = Matching._of_mask(g, mask)
    assert m == expected and m.edges == expected.edges
    assert m._graph is g and m._mask == mask
    assert expected._graph is None and expected._mask == 0


def test_is_compatible_matching_checks_membership(demo_graph):
    """``_matching_on`` builds a matching only when every edge is in the
    graph and no two conflict; plain ``(i, j)`` tuples build the same
    matching as their edges, out of the graph's own Edge objects."""
    built = _matching_on(demo_graph, edges(DEMO_OPT))
    assert built is not None
    assert _matching_on(demo_graph, [Edge(4, 4)]) is None
    assert _matching_on(demo_graph, [Edge(2, 1), Edge(6, 1)]) is None
    from_tuples = _matching_on(demo_graph, list(reversed(DEMO_OPT)))
    assert from_tuples == built and from_tuples._mask == built._mask
    assert from_tuples.edges == tuple(edges(DEMO_OPT))
    assert all(type(e) is Edge for e in from_tuples.edges)
    assert _matching_on(demo_graph, [(4, 4)]) is None
    assert _matching_on(demo_graph, [(2, 1), (6, 1)]) is None


def _position_map(edge_set) -> dict[int, int] | None:
    """The map of A-positions to B-positions that the edges force, edge
    (i, j) sending i to j and i + 1 to j + 1; None when a position gets two
    images or two positions get one."""
    mapping: dict[int, int] = {}
    used: dict[int, int] = {}
    for e in edge_set:
        for src, dst in ((e.i, e.j), (e.i + 1, e.j + 1)):
            if mapping.setdefault(src, dst) != dst or used.setdefault(dst, src) != src:
                return None
    return mapping


@settings(max_examples=30, deadline=None)
@given(graphs(max_m=6, max_edges=12))
def test_matching_iff_injection_without_neighbor_clash(g):
    """Cross-check on all subsets: compatible matching == consistent
    injective position map plus no anti-parallel neighboring pair."""
    for r in range(min(len(g.edges), 12) + 1):
        for subset in itertools.combinations(g.edges, r):
            lhs = _matching_on(g, subset) is not None
            map_ok = _position_map(subset) is not None
            neighbor_clash = any(
                abs(f.i - e.i) == 1 and f.j - e.j != f.i - e.i
                or abs(f.j - e.j) == 1 and f.i - e.i != f.j - e.j
                for e, f in itertools.combinations(subset, 2)
            )
            assert lhs == (map_ok and not neighbor_clash)


# ---------------------------------------------------------------- singletons

def test_singleton_partition_demo():
    singles, parallels = singleton_partition(edges(DEMO_OPT))
    assert singles == {Edge(5, 5)}
    assert parallels == {Edge(2, 1), Edge(3, 2)}


def test_singleton_partition_empty():
    assert singleton_partition([]) == (frozenset(), frozenset())


@given(graphs())
def test_singleton_partition_is_a_partition(g):
    m = greedy_matching_of(g, g.edges)
    singles, parallels = singleton_partition(m)
    assert singles | parallels == set(m)
    assert not singles & parallels
    for e in m:
        has_mate = Edge(e.i - 1, e.j - 1) in set(m) or Edge(e.i + 1, e.j + 1) in set(m)
        assert (e in parallels) == has_mate


# ---------------------------------------------------------------- partitions

def test_partition_demo(demo_instance):
    blocks = partition_from_matching(demo_instance, Matching(edges(DEMO_OPT)))
    assert blocks == [("a",), ("b", "c", "d"), ("a", "b"), ("c",)]


def test_partition_empty_matching(demo_instance):
    blocks = partition_from_matching(demo_instance, Matching())
    assert len(blocks) == demo_instance.n
    assert all(len(b) == 1 for b in blocks)


@given(string_pairs())
def test_partition_block_count_identity(inst):
    g = DuoGraph.from_strings(inst)
    m = Matching(greedy_matching_of(g, g.edges))
    blocks = partition_from_matching(inst, m)
    assert len(blocks) == inst.n - len(m)
    assert tuple(s for b in blocks for s in b) == inst.a


# ---------------------------------------------------------------- the package

def test_package_enforces_invariants_without_assert():
    """``python -O`` strips ``assert`` statements, so the package checks
    its invariants with explicit errors: no module holds an ``assert``."""
    package = Path(__file__).resolve().parent.parent / "src" / "duomatch"
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
