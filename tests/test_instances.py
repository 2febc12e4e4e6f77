import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duomatch import instances
from duomatch.analysis import (
    GUARANTEE_RHO1,
    GUARANTEE_RHO5,
    MAX_TOKEN_TOTAL,
    check_full_token_uniqueness,
    check_heavy_singleton_parallel_support,
    check_parallel_pair_conflict_gap,
    check_parallel_token_bound,
    ratio_report,
    token_profile,
    token_report,
)
from duomatch.core import (
    DuoGraph,
    Edge,
    InvariantError,
    Matching,
    _positions,
    compatible,
    parse_instance,
)
from duomatch.exact import exact_max_matching
from duomatch.fileio import parse_graph, parse_matching_edges
from duomatch.instances import (
    GRAPH_GAP_CAPS,
    STRING_GAP_CAPS,
    ChecklistItem,
    ChecklistReport,
    GapSearchSpec,
    GeneratorSpec,
    InfeasibleSpecError,
    SearchBudgetError,
    SubsetBudgetError,
    gen_random_kduo,
    search_gap_instance,
    string_gap_fixture,
    swap_resistance_checklist,
)
from duomatch.localsearch import (
    SCAN_REVERSE_LEX,
    SolverConfig,
    is_local_optimum,
    local_search,
)

import reference_gap as ref
from conftest import FIXTURES_DIR, balanced_graph


# ---------------------------------------------------------------- generator

def test_spec_validation():
    GeneratorSpec(n=6, k=2, alphabet_size=3, seed=0)
    with pytest.raises(InfeasibleSpecError):
        GeneratorSpec(n=1, k=1, alphabet_size=1, seed=0)
    with pytest.raises(InfeasibleSpecError):
        GeneratorSpec(n=4, k=0, alphabet_size=4, seed=0)
    with pytest.raises(InfeasibleSpecError):
        GeneratorSpec(n=7, k=2, alphabet_size=3, seed=0)


def test_spec_id():
    spec = GeneratorSpec(n=10, k=2, alphabet_size=6, seed=41)
    assert spec.instance_id == "kduo_n10_k2_a6_s41"


def test_generator_deterministic():
    spec = GeneratorSpec(n=12, k=3, alphabet_size=5, seed=7)
    assert gen_random_kduo(spec) == gen_random_kduo(spec)
    other = gen_random_kduo(GeneratorSpec(n=12, k=3, alphabet_size=5, seed=8))
    assert gen_random_kduo(spec) != other


def test_generator_respects_cap_and_permutation():
    for seed in range(20):
        spec = GeneratorSpec(n=11, k=2, alphabet_size=8, seed=seed)
        inst = gen_random_kduo(spec)
        assert inst.n == 11
        assert sorted(inst.a) == sorted(inst.b)
        assert inst.occurrence_cap() <= 2
        assert set(inst.a) <= {f"s{i}" for i in range(8)}


def test_generator_tight_spec():
    # alphabet_size * k == n forces every symbol to its cap
    inst = gen_random_kduo(GeneratorSpec(n=6, k=2, alphabet_size=3, seed=5))
    assert all(inst.a.count(s) == 2 for s in set(inst.a))


# ---------------------------------------------------------------- string fixture

def test_string_gap_fixture_shape():
    inst, m = string_gap_fixture()
    assert inst.a == tuple("abcdefbcdeg")
    assert inst.b == inst.a
    assert [(e.i, e.j) for e in m.edges] == [
        (2, 7), (3, 8), (4, 9), (7, 2), (8, 3), (9, 4)
    ]


def test_string_gap_fixture_gap():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    assert all(e in g for e in m.edges)
    assert exact_max_matching(g).value == 10
    # the default width is the paper's 5
    assert SolverConfig().rho == 5 and is_local_optimum(g, m)


# ---------------------------------------------------------------- checklist

def test_checklist_on_string_fixture():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    report = swap_resistance_checklist(g, m, opt, caps=STRING_GAP_CAPS)
    assert report.passed
    assert [it.name for it in report.items] == [
        "maximal", "all-parallel", "swap-1", "swap-2", "swap-3", "swap-4", "swap-5"
    ]
    observed = tuple(report.item(f"swap-{t}").observed for t in range(1, 6))
    assert observed == STRING_GAP_CAPS


def test_checklist_item_rejects_an_unknown_name():
    report = ChecklistReport((ChecklistItem("maximal", True, 0, 0, ()),))
    assert report.item("maximal").passed
    with pytest.raises(KeyError):
        report.item("swap-6")


def test_checklist_flags_non_maximal():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    smaller = Matching(m.edges[:-1])
    report = swap_resistance_checklist(g, smaller, opt, caps=STRING_GAP_CAPS)
    assert not report.passed
    assert not report.item("maximal").passed


def test_checklist_trivial_when_matching_is_optimum(demo_graph):
    g = parse_graph((FIXTURES_DIR / "graph_gap_26.mcbm").read_text())
    diag = Matching(e for e in g.edges if e.i == e.j)
    report = swap_resistance_checklist(g, diag, diag)
    assert report.passed
    # removing t optimum edges lets exactly those t edges re-enter
    assert all(report.item(f"swap-{t}").observed == t for t in range(1, 6))


def test_checklist_budget():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    with pytest.raises(SubsetBudgetError):
        swap_resistance_checklist(g, m, opt, caps=STRING_GAP_CAPS, subset_budget=3)


@pytest.mark.parametrize("swaps", [True, False], ids=["swaps", "empty-matching"])
def test_checklist_rejects_a_negative_budget(swaps):
    """A budget of -1 raises ValueError whether there are swaps to scan or,
    with an empty matching, none."""
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    with pytest.raises(ValueError, match="subset_budget must be >= 0, got -1"):
        swap_resistance_checklist(g, m if swaps else Matching(()), opt, STRING_GAP_CAPS,
                                  subset_budget=-1)


@pytest.mark.parametrize("n, alphabet", [(60, 4), (100, 5)])
def test_checklist_bounds_a_rho5_local_optimum(n, alphabet):
    """The amortization corpus: five local optima of a balanced pair, each
    checked against one maximum matching O* from an integer program.

    The 35/12 bound charges O*'s tokens to matching edges, so every width-5
    local optimum M must conserve them, hold each edge's total to 10/3 in a
    known share combination and pass the four structural checks.  Against
    any matching O it has swap-t <= t for t <= 5, else M less t edges plus
    t + 1 edges of O would be a width-t replace; the integer program's best
    width-5 swap gain says the same without the checklist.  The optima are
    the rho-5 searches in lex and reverse-lex order and with seeds 1 and 2,
    plus the plain rho-1 hill climber, held to 7/2.  The lex optimum is also
    checked against the rho-1 one, which needs no scipy."""
    g = balanced_graph(n, alphabet, 7)
    lex = local_search(g, SolverConfig(rho=5))[0]
    plain = local_search(g, SolverConfig(rho=1, use_reduce=False))[0]

    def assert_bounded(matching, optimum):
        report = swap_resistance_checklist(g, matching, optimum, GRAPH_GAP_CAPS)
        assert report.item("maximal").passed
        assert all(report.item(f"swap-{t}").observed <= t for t in range(1, 6))

    assert_bounded(lex, plain)
    pytest.importorskip("scipy")
    from milp_oracle import milp_best_swap_gain, milp_max_matching

    optimum = milp_max_matching(g)

    def assert_amortized(matching, guarantee):
        report = token_report(g, matching, optimum)
        assert report.total == len(optimum)
        assert ratio_report(len(matching), len(optimum), guarantee).within_guarantee
        return report

    assert_amortized(plain, GUARANTEE_RHO1)
    others = (SolverConfig(rho=5, scan_order=SCAN_REVERSE_LEX),
              SolverConfig(rho=5, seed=1), SolverConfig(rho=5, seed=2))
    for matching in [lex] + [local_search(g, config)[0] for config in others]:
        report = assert_amortized(matching, GUARANTEE_RHO5)
        assert report.max_total() <= MAX_TOKEN_TOTAL
        assert token_profile(report).combos_ok
        for check in (check_full_token_uniqueness, check_parallel_pair_conflict_gap,
                      check_parallel_token_bound, check_heavy_singleton_parallel_support):
            result = check(g, matching, optimum, report=report)
            assert result.passed, (check.__name__, result.violations)
        assert_bounded(matching, optimum)
        assert milp_best_swap_gain(g, matching, 5) <= 0


# ---------------------------------------------------------------- gap search

def test_search_tiny_family():
    spec = GapSearchSpec(m=7, matching_size=2, anchors=(), caps=(1,))
    found = search_gap_instance(spec)
    assert found is not None
    assert [(e.i, e.j) for e in found.matching.edges] == [(2, 5), (3, 6)]
    assert [(e.i, e.j) for e in found.optimum.edges] == [(i, i) for i in range(1, 8)]
    assert found.checklist.passed
    assert len(found.graph.edges) == 9


def test_search_rejects_checklist_disagreement(monkeypatch):
    real = instances.swap_resistance_checklist

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        return instances.ChecklistReport(
            tuple(replace(item, passed=False) for item in report.items)
        )

    monkeypatch.setattr(instances, "swap_resistance_checklist", failing)
    spec = GapSearchSpec(m=7, matching_size=2, anchors=(), caps=(1,))
    with pytest.raises(InvariantError, match="disagrees with the checklist"):
        search_gap_instance(spec)


def test_string_gap_fixture_rejects_singletons(monkeypatch):
    monkeypatch.setattr(instances, "singleton_partition",
                        lambda es: (frozenset(es[:1]), frozenset(es[1:])))
    with pytest.raises(InvariantError, match="all parallel"):
        string_gap_fixture()


def test_search_infeasible_returns_none():
    spec = GapSearchSpec(m=5, matching_size=12, anchors=(), caps=(1,))
    assert search_gap_instance(spec) is None


def test_search_budget():
    with pytest.raises(SearchBudgetError):
        search_gap_instance(GapSearchSpec(m=26, max_nodes=50))


# ---------------------------------------------------------------- shipped files

def test_shipped_string_fixture_matches_source():
    inst, m = string_gap_fixture()
    assert parse_instance((FIXTURES_DIR / "string_gap.duo").read_text()) == inst
    got = parse_matching_edges((FIXTURES_DIR / "string_gap.matching").read_text())
    assert list(got) == list(m.edges)
    cert = json.loads((FIXTURES_DIR / "string_gap.json").read_text())
    assert cert["exact"] == 10
    assert cert["ratio"] == "5/3"
    assert cert["local_optimum_rho5"] is True


def test_shipped_graph_fixture_certified():
    g = parse_graph((FIXTURES_DIR / "graph_gap_26.mcbm").read_text())
    cert = json.loads((FIXTURES_DIR / "graph_gap_26.json").read_text())
    assert g.m == 26 and len(g.edges) == cert["edges"]
    matching = Matching(
        parse_matching_edges((FIXTURES_DIR / "graph_gap_26.matching").read_text())
    )
    assert len(matching) == 12
    assert exact_max_matching(g).value == 26
    diag = Matching(Edge(i, i) for i in range(1, 27))
    report = swap_resistance_checklist(g, matching, diag)
    assert report.passed
    observed = tuple(report.item(f"swap-{t}").observed for t in range(1, 6))
    assert observed == GRAPH_GAP_CAPS
    assert cert["ratio"] == "13/6"


def test_make_fixtures_rebuilds_the_store_byte_for_byte(tmp_path):
    """The script, run from a copy beside the package source, writes exactly
    the files of fixtures/ with the same bytes."""
    repo = FIXTURES_DIR.parent
    (tmp_path / "scripts").mkdir()
    shutil.copy(repo / "scripts" / "make_fixtures.py", tmp_path / "scripts")
    (tmp_path / "src").symlink_to(repo / "src", target_is_directory=True)
    run = subprocess.run([sys.executable, str(tmp_path / "scripts" / "make_fixtures.py")],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    written = sorted(p.name for p in (tmp_path / "fixtures").iterdir())
    assert written == sorted(p.name for p in FIXTURES_DIR.iterdir())
    for name in written:
        assert (tmp_path / "fixtures" / name).read_bytes() == (FIXTURES_DIR / name).read_bytes(), name


# ---------------------------------------------------------------- against the reference

@st.composite
def checklist_cases(draw):
    """A graph plus a matching and an optimum drawn from all m x m edges,
    so either may hold edges outside the graph."""
    m = draw(st.integers(2, 9))
    pool = [Edge(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    g = DuoGraph(m, draw(st.lists(st.sampled_from(pool), max_size=20, unique=True)))

    def matching():
        chosen: list[Edge] = []
        for e in draw(st.lists(st.sampled_from(list(g.edges) + pool), max_size=12, unique=True)):
            if all(compatible(e, f) for f in chosen):
                chosen.append(e)
        return Matching(chosen)

    caps = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)))
    return g, matching(), matching(), caps


@settings(max_examples=150, deadline=None)
@given(checklist_cases())
def test_checklist_matches_reference(case):
    g, matching, optimum, caps = case
    got = swap_resistance_checklist(g, matching, optimum, caps)
    assert got == ref.swap_resistance_checklist(g, matching, optimum, caps)


@st.composite
def wide_checklist_cases(draw):
    """A graph on 1..6 plus a matching and an optimum with positions from
    -3 to 12, as matching files may hold."""
    g = DuoGraph(6, draw(st.lists(st.builds(Edge, st.integers(1, 6), st.integers(1, 6)),
                                  max_size=16)))

    def matching():
        chosen: list[Edge] = []
        for e in draw(st.lists(st.builds(Edge, st.integers(-3, 12), st.integers(-3, 12)),
                               max_size=12)):
            if all(compatible(e, f) for f in chosen):
                chosen.append(e)
        return Matching(chosen)

    return g, matching(), matching()


@settings(max_examples=100, deadline=None)
@given(wide_checklist_cases())
def test_checklist_matches_reference_off_the_graph(case):
    g, matching, optimum = case
    got = swap_resistance_checklist(g, matching, optimum, GRAPH_GAP_CAPS)
    assert got == ref.swap_resistance_checklist(g, matching, optimum, GRAPH_GAP_CAPS)


def test_checklist_matches_reference_on_fixtures():
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness
    for matching in (m, Matching(m.edges[:-1]), opt):
        got = swap_resistance_checklist(g, matching, opt, STRING_GAP_CAPS)
        assert got == ref.swap_resistance_checklist(g, matching, opt, STRING_GAP_CAPS)


def test_checklist_budget_counts_unions():
    """The budget counts the unions of blocker masks the swap items visit:
    on the string fixture fewer than the 62 subsets of 1-5 of its 6 edges."""
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    opt = exact_max_matching(g).witness

    def passes(budget):
        try:
            swap_resistance_checklist(g, m, opt, STRING_GAP_CAPS, subset_budget=budget)
        except SubsetBudgetError:
            return False
        return True

    least = next(b for b in range(sum(comb(len(m), t) for t in range(1, 6)) + 1) if passes(b))
    assert least <= 62
    with pytest.raises(SubsetBudgetError):
        swap_resistance_checklist(g, m, opt, STRING_GAP_CAPS, subset_budget=least - 1)


@pytest.mark.parametrize("m", range(2, 13))
def test_run_table_rows_match_runs_compatible(m):
    """Rows, anchor masks, coverage, run covers and spreads read off the
    run table agree with the run helpers as first written, with pairs and
    anchors on the first and last rows and columns."""
    table = instances._RunTable(m)
    assert table.runs == sorted((i, j) for i in range(1, m + 1) for j in range(1, m + 1)
                                if i != j and max(i, j) + 1 <= m)
    assert table.all == (1 << len(table.runs)) - 1
    if m >= 3:
        # pairs start on row and column 1 and end on row and column m
        assert 1 in {i for i, _ in table.runs} & {j for _, j in table.runs}
        assert m in {i + 1 for i, _ in table.runs} & {j + 1 for _, j in table.runs}
    runs = [ref._Run(i, j, 2, m) for i, j in table.runs]
    fields = instances._CoverFields(m, 2)
    for k, r in enumerate(runs):
        expected = sum(1 << x for x, s in enumerate(runs) if ref._runs_compatible(r, s))
        assert table.rows[k] == expected
        assert table.covers[k] == r.cover_mask
        spread = sum(1 << fields.width * (p - 1) + t for t, e in enumerate(r.edges)
                     for p in {e.i - 1, e.i, e.i + 1, e.j - 1, e.j, e.j + 1} if 1 <= p <= m)
        assert fields.spread(table.cover(e.i, e.j, 1) for e in r.edges) == spread
    # covering[p]: the runs with an edge on row or column p-1..p+1
    for p in range(1, m + 1):
        near = range(p - 1, p + 2)
        assert table.all & ~table.apart(near, near) == sum(
            1 << k for k, r in enumerate(runs) if r.cover_mask >> p & 1)
    # anchor runs of any length, pairs or not; each is also paired with
    # the anchor before it, as two anchor runs.  Their mask is apart over
    # the rows and columns within 1 of their edges
    last = None
    for i, j in combinations(range(1, m + 1), 2):
        for a, b in ((i, j), (j, i)):
            for ell in (1, 2, 3):
                if max(a, b) + ell - 1 > m:
                    continue
                r = ref._Run(a, b, ell, m)
                rows = {e.i + d for e in r.edges for d in (-1, 0, 1)}
                cols = {e.j + d for e in r.edges for d in (-1, 0, 1)}
                expected = sum(1 << x for x, s in enumerate(runs) if ref._runs_compatible(r, s))
                assert table.apart(rows, cols) == expected
                assert table.cover(a, b, ell) == r.cover_mask
                assert sum(1 << p for p in rows | cols) & table.full == r.cover_mask
                if last is not None:
                    assert table.apart(rows | last[0], cols | last[1]) == expected & last[2]
                last = rows, cols, expected


def test_edge_cover_is_the_diagonal_edges_it_conflicts_with():
    """The closed-form cover of an off-diagonal edge (a, b) is the set of
    positions p whose diagonal edge (p, p) conflicts with it, as
    :func:`compatible` says, for every m up to 12."""
    for m in range(2, 13):
        table = instances._RunTable(m)
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if a != b:
                    expected = sum(1 << p for p in range(1, m + 1)
                                   if not compatible(Edge(a, b), Edge(p, p)))
                    assert table.cover(a, b, 1) == expected


@pytest.mark.parametrize("anchors", [((0, 3), (1, 4)), ((2, 18), (3, 19)), ((4, 4), (5, 5))])
def test_gap_search_rejects_anchors_off_the_grid_or_on_the_diagonal(anchors):
    """A run of two anchors, one of them outside 1..m (m = 18) or both on
    the diagonal, returns None before any node, as the reference does.
    Such anchors pass the parallel and conflict test; the closed-form
    covers would clip them and the column masks end at m + 1."""
    spec = GapSearchSpec(m=18, matching_size=8, anchors=anchors)
    stats: dict = {}
    assert search_gap_instance(spec, stats) is None
    assert stats == {"nodes": 0, "verdicts": 0}
    ref_stats: dict = {}
    assert ref.search_gap_instance(spec, ref_stats) is None
    assert ref_stats == stats


@st.composite
def leaf_cases(draw):
    """Off-diagonal edge lists on 1..m with caps, some not monotone."""
    m = draw(st.integers(4, 16))
    pool = [Edge(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    edges = draw(st.lists(st.sampled_from(pool), max_size=9, unique=True))
    caps = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)))
    return m, edges, caps, draw(st.integers(0, 1000))


@settings(max_examples=300, deadline=None)
@given(leaf_cases())
# no union of covers has two bits, so only {(2, 4)} padded to two edges beats the cap 0
@example((4, [Edge(3, 4), Edge(2, 4), Edge(4, 3)], (3, 0), 0))
# a matching of two edges that holds every cap
@example((6, [Edge(1, 3), Edge(2, 4)], (1, 5), 0))
def test_leaf_witness_contract(case):
    """The full scan's verdict matches the reference, and so does the
    search's leaf test with no hint, a failing hint and a holding one;
    every X either returns fails its cap.  When the edges form a matching,
    the checklist's swap items against the diagonal edges of the covered
    positions agree with the full scan.  On a batch of leaves that add one
    run each at the top two edge indices, the leaf test, which may stop the
    batch early, returns what testing every leaf returns, from hints that
    hold both, one or none of those indices."""
    m, edges, caps, pick = case
    ne = len(edges)
    masks = [0] * m
    for x, e in enumerate(edges):
        for p in (e.i - 1, e.i, e.i + 1, e.j - 1, e.j, e.j + 1):
            if 1 <= p <= m:
                masks[p - 1] |= 1 << x

    def pack(fields, masks):
        return sum(c << fields.width * k for k, c in enumerate(masks))

    def inside(x):
        return sum(1 for c in masks if c and not c & ~x)

    def assert_fails(x):
        assert 0 < x.bit_count() <= len(caps) and not x >> ne
        assert inside(x) > caps[x.bit_count() - 1]

    subsets = [sum(1 << x for x in xs) for t in range(1, min(len(caps), ne) + 1)
               for xs in combinations(range(ne), t)]
    failing = [x for x in subsets if inside(x) > caps[x.bit_count() - 1]]
    holding = [x for x in subsets if inside(x) <= caps[x.bit_count() - 1]]
    holds = ref._diag_caps_hold(edges, m, caps)
    assert holds == (not failing)
    fields = instances._CoverFields(m, ne)
    got = instances._diag_caps_hold(pack(fields, masks), fields, caps)
    assert (got is None) == holds
    if got is not None:
        assert_fails(got)
    if all(compatible(e, f) for e, f in combinations(edges, 2)):
        diagonal = Matching(Edge(p, p) for p in range(1, m + 1) if masks[p - 1])
        report = swap_resistance_checklist(DuoGraph(m, [*diagonal, *edges]), Matching(edges),
                                           diagonal, caps)
        assert all(it.passed for it in report.items if it.name.startswith("swap-")) == (got is None)
    # the search's leaves cover every position: the leaf test gets the
    # positions with a non-empty cover, which are the ones that count
    covered = [c for c in masks if c]
    fields = instances._CoverFields(len(covered), ne)
    leaf = pack(fields, covered)
    hints = [0] + [xs[pick % len(xs)] for xs in (failing, holding) if xs]
    for hint in hints:
        # one leaf, then the same leaf twice, the second tried on the
        # first one's witness
        for hits in (1, 3):
            k, witness = instances._first_passing(leaf, [0, 0], hits, fields, caps, hint)
            assert (k == 0) == holds
            if holds:
                assert witness == hint
            else:
                assert k == -1
                assert_fails(witness)

    # a batch of leaves as the search makes them: the edges above, then one
    # run (i, j), (i + 1, j + 1) per leaf at the top two edge indices, ne
    # and ne + 1, each of its edges covering some position the edges above
    # cover; those positions are the fields
    positions = [p for p in range(1, m + 1) if masks[p - 1]]
    if not positions:
        return
    fields = instances._CoverFields(len(positions), ne + 2)
    runs = []
    for i in range(1, m):
        for j in range(1, m):
            run = [0] * len(positions)
            for t, (a, b) in enumerate(((i, j), (i + 1, j + 1))):
                for x, p in enumerate(positions):
                    if abs(p - a) <= 1 or abs(p - b) <= 1:
                        run[x] |= 1 << ne + t
            if i != j and all(any(c >> ne + t & 1 for c in run) for t in (0, 1)):
                runs.append(run)
    if not runs:
        return
    runs = random.Random(pick).sample(runs, min(4, len(runs)))
    shift = [pack(fields, run) for run in runs]
    leaves = [[c | r for c, r in zip(covered, run)] for run in runs]

    def fails(cs, x):
        return sum(1 for c in cs if not c & ~x) > caps[x.bit_count() - 1]

    def per_leaf(hits, witness):
        """The leaf test one leaf at a time, to the end of the batch."""
        for k in _positions(hits):
            if witness and fails(leaves[k], witness):
                continue
            failing = instances._diag_caps_hold(pack(fields, leaves[k]), fields, caps)
            if failing is None:
                return k, witness
            witness = failing
        return -1, witness

    # hints that fail the first leaf where there are some, holding both,
    # one and none of the run's edge indices
    top = 3 << ne
    subsets = [sum(1 << x for x in xs) for t in range(1, min(len(caps), ne + 2) + 1)
               for xs in combinations(range(ne + 2), t)]
    hints = [0]
    for held in (2, 1, 0):
        xs = [x for x in subsets if (x & top).bit_count() == held]
        xs = [x for x in xs if fails(leaves[0], x)] or xs
        if xs:
            hints.append(xs[pick % len(xs)])
    for hint in hints:
        for hits in {(1 << len(runs)) - 1, (1 << len(runs)) - 2 or 1}:
            assert instances._first_passing(pack(fields, covered), shift, hits, fields, caps,
                                            hint) == per_leaf(hits, hint)


def fillable(spec) -> bool:
    """Whether parallel pairs can make up the room the anchors leave."""
    room = spec.matching_size - len(set(spec.anchors))
    return room >= 0 and room % 2 == 0


def assert_same_instance(got, expected):
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.matching == expected.matching
        assert got.optimum == expected.optimum
        assert (got.graph.m, got.graph.edges) == (expected.graph.m, expected.graph.edges)
        assert got.checklist == expected.checklist


def assert_search_matches_reference(spec):
    """Same result, nodes and leaf tests as the search as first written,
    also at budgets around its node count, and the same result without
    ``stats``.  A spec whose room cannot be filled is the exception: the
    search rejects it before its first node, and the reference exhausts it
    without reaching a leaf."""
    stats: dict = {}
    expected = ref.search_gap_instance(spec, stats)
    counts: dict = {}
    got = search_gap_instance(spec, counts)
    assert_same_instance(got, expected)
    assert_same_instance(search_gap_instance(spec), expected)
    if not fillable(spec):
        assert expected is None and stats["verdicts"] == 0
        assert counts == {"nodes": 0, "verdicts": 0}
        assert search_gap_instance(replace(spec, max_nodes=1)) is None
        return
    assert counts == stats
    nodes = stats["nodes"]
    for budget in sorted({1, nodes // 3, nodes // 2, nodes - 1, nodes, nodes + 1} - {-1, 0}):
        budgeted = replace(spec, max_nodes=budget)
        outcomes = []
        for search in (search_gap_instance, ref.search_gap_instance):
            counts = {}
            try:
                search(budgeted, counts)
                outcomes.append((False, counts))
            except SearchBudgetError:
                outcomes.append((True, counts))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (budget < nodes)


GAP_CASES = [
    GapSearchSpec(m=7, matching_size=2, anchors=(), caps=(1,)),
    GapSearchSpec(m=10, matching_size=4, anchors=(), caps=(1, 2)),
    # the only spec here on which a node leaves more positions uncovered
    # than its room's runs can cover (twice, below the root): the reference
    # exhausts it in 1,338 nodes and 240 leaf tests
    GapSearchSpec(m=13, matching_size=4, anchors=(), caps=(1, 2)),
    GapSearchSpec(m=12, matching_size=6, anchors=(Edge(2, 5), Edge(3, 6)), caps=(1, 2, 3)),
    GapSearchSpec(m=12, matching_size=6, anchors=(Edge(1, 5), Edge(2, 6), Edge(6, 1), Edge(7, 2)),
                  caps=(1, 2)),
    GapSearchSpec(m=14, matching_size=6, anchors=(Edge(2, 8), Edge(3, 9)), caps=(1, 2, 3)),
    GapSearchSpec(m=14, matching_size=4, anchors=(Edge(2, 6), Edge(3, 7), Edge(6, 2), Edge(7, 3)),
                  caps=(1, 2, 3)),
    GapSearchSpec(m=9, matching_size=12, anchors=(), caps=(1,)),
    # certify's second search: a room of 7, which the reference exhausts in
    # 54,746 nodes
    GapSearchSpec(m=20, matching_size=9, anchors=(Edge(2, 8), Edge(3, 9))),
]


def gap_case_id(spec) -> str:
    # L2: every candidate run has two edges
    return f"m{spec.m}-size{spec.matching_size}-a{len(spec.anchors)}-L2"


@pytest.mark.parametrize("spec", GAP_CASES, ids=gap_case_id)
def test_gap_search_matches_reference(spec):
    assert_search_matches_reference(spec)


@pytest.mark.parametrize("spec", [s for s in GAP_CASES if fillable(s)], ids=gap_case_id)
def test_gap_search_raises_at_every_budget_the_reference_does(spec):
    """Every budget from 0 to one past the reference's node count, so that
    each leaf boundary of a batch counted in one step is a budget somewhere.
    The reference counts each node before its budget check, so it raises
    exactly below its node count.  The specs whose room no runs fill are
    left out: the search returns None on them before its first node."""
    stats: dict = {}
    expected = ref.search_gap_instance(spec, stats)
    nodes = stats["nodes"]
    assert nodes <= 1500
    for budget in range(nodes + 2):
        budgeted = replace(spec, max_nodes=budget)
        counts: dict = {}
        if budget < nodes:
            with pytest.raises(SearchBudgetError):
                search_gap_instance(budgeted, counts)
            assert counts["nodes"] == budget + 1
            assert counts["verdicts"] <= stats["verdicts"]
        else:
            assert_same_instance(search_gap_instance(budgeted, counts), expected)
            assert counts == stats


def test_gap_search_matches_reference_on_certify_m18():
    """certify's anchored m=18 size-8 search, nearly all of whose nodes are
    leaves.  The reference takes about 1.5 s, so it runs once and its node
    count gives the budgets at which the search must and must not raise."""
    spec = GapSearchSpec(m=18, matching_size=8, anchors=(Edge(2, 8), Edge(3, 9)))
    stats: dict = {}
    assert ref.search_gap_instance(spec, stats) is None
    assert stats == {"nodes": 20_234, "verdicts": 15_889}
    counts: dict = {}
    assert search_gap_instance(spec, counts) is None
    assert counts == stats
    with pytest.raises(SearchBudgetError):
        search_gap_instance(replace(spec, max_nodes=20_233))
    assert search_gap_instance(replace(spec, max_nodes=20_234)) is None


def test_gap_search_pins_its_work_on_the_m26_rebuild():
    """The m=26 search that rebuilds fixtures/graph_gap_26, too slow for
    the reference in this suite: its node and leaf-test counts are pinned,
    and it finds the shipped matching."""
    stats: dict = {}
    found = search_gap_instance(GapSearchSpec(m=26), stats)
    assert stats == {"nodes": 146_952, "verdicts": 130_227}
    shipped = parse_matching_edges((FIXTURES_DIR / "graph_gap_26.matching").read_text())
    assert found.matching == Matching(shipped)


@st.composite
def gap_specs(draw):
    m = draw(st.integers(6, 12))
    anchors: list[Edge] = []
    # up to two anchor runs; a run of one edge makes the spec infeasible
    for _ in range(draw(st.integers(0, 2))):
        ell = draw(st.integers(1, 3))
        i, j = draw(st.tuples(st.integers(1, m - ell + 1), st.integers(1, m - ell + 1)))
        anchors += [Edge(i + t, j + t) for t in range(ell)]
    return GapSearchSpec(
        m=m,
        # fewer than m/4 edges cannot cover the diagonal
        matching_size=draw(st.integers((m + 3) // 4, 7)),
        anchors=tuple(anchors),
        caps=tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))),
    )


@settings(max_examples=40, deadline=None)
@given(gap_specs())
def test_gap_search_matches_reference_on_random_specs(spec):
    assert_search_matches_reference(spec)


@pytest.mark.parametrize("m", [0, -3])
def test_gap_spec_rejects_m_below_one(m):
    with pytest.raises(ValueError, match=f"m={m}"):
        GapSearchSpec(m=m, matching_size=0, anchors=())


def test_gap_spec_rejects_negative_max_nodes():
    with pytest.raises(ValueError, match="max_nodes=-3"):
        GapSearchSpec(m=7, matching_size=2, anchors=(), max_nodes=-3)


def test_gap_spec_rejects_negative_matching_size():
    with pytest.raises(ValueError, match="matching_size=-1"):
        GapSearchSpec(m=4, matching_size=-1)
    assert search_gap_instance(GapSearchSpec(m=4, matching_size=0, anchors=())) is None


def test_gap_search_on_one_position_finds_nothing():
    assert search_gap_instance(GapSearchSpec(m=1, matching_size=0, anchors=())) is None


def test_gap_spec_takes_raw_tuple_anchors():
    spec = GapSearchSpec(m=12, matching_size=6, anchors=((3, 6), (2, 5)), caps=(1, 2, 3))
    assert spec == GapSearchSpec(m=12, matching_size=6, anchors=(Edge(2, 5), Edge(3, 6)),
                                 caps=(1, 2, 3))
    assert all(type(a) is Edge for a in spec.anchors)
    found = search_gap_instance(spec)
    assert found.matching == Matching([(2, 5), (3, 6), (5, 8), (6, 9), (10, 1), (11, 2)])


def test_gap_spec_ignores_repeated_anchors():
    spec = GapSearchSpec(m=6, matching_size=4, caps=(0,),
                         anchors=(Edge(2, 1), Edge(2, 1), Edge(3, 2)))
    assert spec.anchors == (Edge(2, 1), Edge(3, 2))
    found = search_gap_instance(spec)
    assert found.matching == Matching([(2, 1), (3, 2), (5, 4), (6, 5)])


@pytest.mark.parametrize("anchors", [
    ((2, 5), (3, 6), (2, 8), (3, 9)),  # two runs on A-positions 2 and 3
    ((2, 5), (3, 6), (4, 9), (5, 10)),  # (3, 6) and (4, 9) on consecutive A-positions
])
def test_gap_search_rejects_conflicting_anchor_runs(anchors):
    spec = GapSearchSpec(m=12, matching_size=6, anchors=tuple(Edge(*a) for a in anchors),
                         caps=(1, 2, 3))
    assert search_gap_instance(spec) is None
    assert_search_matches_reference(spec)
