import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_localsearch as ref
from duomatch import localsearch
from duomatch.cli import main as cli_main
from duomatch.core import (
    DuoGraph,
    Edge,
    IncompatibleEdgesError,
    Matching,
    StringInstance,
    compatible,
    singleton_partition,
)
from duomatch.exact import exact_max_matching
from duomatch.instances import string_gap_fixture
from duomatch.localsearch import (
    PHASE_GREEDY,
    PHASE_REDUCE,
    PHASE_REPLACE,
    PHASE_TERMINATE,
    SCAN_LEX,
    SCAN_REVERSE_LEX,
    IterationCapError,
    NotMaximalError,
    SolverConfig,
    greedy_maximal,
    improve_step,
    is_local_optimum,
    local_search,
)

from conftest import DEMO_OPT, balanced_graph, edges
from test_core import graphs

scan_orders = st.sampled_from([SCAN_LEX, SCAN_REVERSE_LEX])

singles_count = lambda es: len(singleton_partition(es)[0])


def maximal_for(g: DuoGraph) -> Matching:
    return greedy_maximal(g)


def step(g: DuoGraph, m: Matching, rho: int, scan_order: str = SCAN_LEX,
         use_reduce: bool = True) -> Matching | None:
    return improve_step(g, m, SolverConfig(rho=rho, scan_order=scan_order, use_reduce=use_reduce))


def reference_step(g: DuoGraph, m: Matching, rho: int, scan_order: str = SCAN_LEX,
                   use_reduce: bool = True) -> Matching | None:
    """The reference scans' move: their replace, else, with ``use_reduce``,
    their reduce."""
    found = ref.replace_step(g, m, rho, scan_order)
    if found is None and use_reduce:
        found = ref.reduce_step(g, m, rho, scan_order)
    return found


def oracle_replace(g: DuoGraph, m: Matching, rho: int) -> bool:
    """Reference for the replace move on a maximal matching: a one-larger
    compatible subset exists, within removal distance rho unless the
    whole-graph branch applies."""
    m_set = set(m.edges)
    small = len(m) <= rho
    for cand in itertools.combinations(g.edges, len(m) + 1):
        if any(not compatible(a, b) for a, b in itertools.combinations(cand, 2)):
            continue
        if small or len(m_set - set(cand)) <= rho:
            return True
    return False


def oracle_reduce(g: DuoGraph, m: Matching, rho: int) -> bool:
    m_set = set(m.edges)
    small = len(m) <= rho
    base = singles_count(m.edges)
    for cand in itertools.combinations(g.edges, len(m)):
        if any(not compatible(a, b) for a, b in itertools.combinations(cand, 2)):
            continue
        if singles_count(cand) >= base:
            continue
        if small or len(m_set - set(cand)) <= rho:
            return True
    return False


# ---------------------------------------------------------------- greedy

def test_greedy_demo_stalls_at_two(demo_graph):
    m = greedy_maximal(demo_graph)
    assert m.edges == (Edge(1, 5), Edge(3, 2))


def test_greedy_idempotent(demo_graph):
    m = greedy_maximal(demo_graph)
    assert greedy_maximal(demo_graph, m) == m


def test_greedy_respects_existing(demo_graph):
    m = greedy_maximal(demo_graph, Matching([Edge(2, 1)]))
    assert Edge(2, 1) in m


def test_greedy_seeded_is_deterministic(demo_graph):
    cfg = SolverConfig(seed=7)
    assert greedy_maximal(demo_graph, config=cfg) == greedy_maximal(demo_graph, config=cfg)


@given(graphs())
def test_greedy_is_maximal(g):
    m = greedy_maximal(g)
    outside = set(g.edges) - set(m.edges)
    assert not any(
        all(compatible(e, f) for f in m.edges) for e in outside
    )


# ---------------------------------------------------------------- replace

def test_replace_exhaustive_branch_demo(demo_graph):
    grown = improve_step(demo_graph, Matching([Edge(2, 1)]))
    assert grown is not None and len(grown) == 2
    assert grown.edges == (Edge(1, 5), Edge(3, 2))


def test_replace_none_at_optimum(demo_graph):
    opt = Matching(edges(DEMO_OPT))
    assert step(demo_graph, opt, 5, use_reduce=False) is None


@settings(max_examples=50, deadline=None)
@given(graphs(max_m=6, max_edges=11), st.integers(1, 5))
def test_replace_agrees_with_oracle(g, rho):
    m = maximal_for(g)
    result = step(g, m, rho, use_reduce=False)
    assert result == reference_step(g, m, rho, use_reduce=False)
    assert (result is not None) == oracle_replace(g, m, rho)
    if result is not None:
        assert len(result) == len(m) + 1
        if len(m) > rho:
            assert len(set(m.edges) - set(result.edges)) <= rho


# ---------------------------------------------------------------- reduce

def test_reduce_none_without_singletons(demo_graph):
    """A matching without singletons gets no reduce: with reduce on, the
    step is the replace alone, through the whole-graph branch (rho 5) and
    through the subset scan (rho 1)."""
    m = Matching([Edge(2, 1), Edge(3, 2)])
    for rho in (1, 5):
        found = step(demo_graph, m, rho)
        assert found == step(demo_graph, m, rho, use_reduce=False)
        assert found == ref.replace_step(demo_graph, m, rho)


@settings(max_examples=50, deadline=None)
@given(graphs(max_m=6, max_edges=11), st.integers(1, 5))
def test_reduce_agrees_with_oracle(g, rho):
    """On the terminal matching of a search without reduce, which admits
    no replace, the step is reduce's."""
    m = local_search(g, SolverConfig(rho=rho, use_reduce=False))[0]
    assert not oracle_replace(g, m, rho)
    result = step(g, m, rho)
    assert result == ref.reduce_step(g, m, rho)
    assert (result is not None) == oracle_reduce(g, m, rho)
    if result is not None:
        assert len(result) == len(m)
        assert singles_count(result.edges) < singles_count(m.edges)
        if len(m) > rho:
            assert len(set(m.edges) - set(result.edges)) <= rho


def test_reduce_fires_on_constructed_case():
    # two stacked parallel pairs vs a singleton-heavy equal-size matching
    g = DuoGraph(9, [Edge(1, 4), Edge(2, 5), Edge(4, 1), Edge(5, 2),
                     Edge(1, 8), Edge(4, 5), Edge(7, 2)])
    m = Matching([Edge(1, 8), Edge(4, 5), Edge(7, 2)])
    assert singles_count(m.edges) == 3
    # at width 2 no replace applies, so the step is a reduce; at width 3
    # the whole-graph branch takes both stacked pairs, a replace, first
    assert step(g, m, 2, use_reduce=False) is None
    swapped = step(g, m, 2)
    assert swapped == reference_step(g, m, 2) is not None
    assert len(swapped) == 3 and singles_count(swapped.edges) < 3
    assert step(g, m, 3) == reference_step(g, m, 3) == Matching(
        edges([(1, 4), (2, 5), (4, 1), (5, 2)]))


# ---------------------------------------------------------------- full loop

def test_demo_reaches_optimum(demo_graph):
    m, trace = local_search(demo_graph)
    assert m == Matching(edges(DEMO_OPT))
    phases = [s.phase for s in trace.steps]
    assert phases == [PHASE_GREEDY, PHASE_REPLACE, PHASE_TERMINATE]


def test_empty_graph_trace():
    m, trace = local_search(DuoGraph(4, []))
    assert len(m) == 0
    assert [s.phase for s in trace.steps] == [PHASE_TERMINATE]


def test_trace_json_lines(demo_graph):
    _, trace = local_search(demo_graph)
    lines = trace.to_json_lines().strip().split("\n")
    assert len(lines) == len(trace.steps)
    first = json.loads(lines[0])
    assert set(first) == {
        "iter", "phase", "size_before", "size_after",
        "singletons_before", "singletons_after", "out", "in",
    }


@settings(max_examples=40, deadline=None)
@given(graphs(), st.integers(1, 5), st.booleans())
def test_loop_invariants(g, rho, use_reduce):
    cfg = SolverConfig(rho=rho, use_reduce=use_reduce)
    m, trace = local_search(g, cfg)
    # terminal matching is maximal and no move applies
    assert is_local_optimum(g, m, cfg) if len(g.edges) else True
    size = 0
    for step in trace.steps:
        assert step.size_before == size
        if step.phase == PHASE_REPLACE:
            assert step.size_after == step.size_before + 1
        elif step.phase == PHASE_REDUCE:
            assert step.size_after == step.size_before
            assert step.singletons_after < step.singletons_before
        elif step.phase == PHASE_GREEDY:
            assert step.size_after > step.size_before
        else:
            assert step.size_after == step.size_before
        size = step.size_after
    assert trace.steps[-1].phase == PHASE_TERMINATE
    assert size == len(m)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_deterministic_repeat(g):
    m1, t1 = local_search(g)
    m2, t2 = local_search(g)
    assert m1 == m2
    assert t1.to_json_lines() == t2.to_json_lines()


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_ls_wide_at_least_narrow(g):
    wide, _ = local_search(g, SolverConfig(rho=5))
    narrow, _ = local_search(g, SolverConfig(rho=1, use_reduce=False))
    assert len(wide) >= len(narrow)


def test_iteration_cap(demo_graph):
    with pytest.raises(IterationCapError) as exc:
        local_search(demo_graph, SolverConfig(max_iterations=0))
    assert len(exc.value.matching) == 0
    m, _ = local_search(demo_graph, SolverConfig(max_iterations=5))
    assert len(m) == 3


# ---------------------------------------------------------------- local optimum

def test_not_maximal_rejected(demo_graph):
    """The error names the lowest graph edge compatible with the matching."""
    with pytest.raises(NotMaximalError, match="^edge 3 2 extends the matching$"):
        is_local_optimum(demo_graph, Matching([Edge(2, 1)]))


def test_certificate_fields(demo_graph):
    opt = Matching(edges(DEMO_OPT))
    assert is_local_optimum(demo_graph, opt) is True
    # 3 <= rho: the whole-graph branch, which searches no rho-subset X
    assert len(opt) <= 5 and singles_count(opt.edges) == 1


def test_certificate_counts_full_scan():
    """No X admits a move on the planted matching; every edge of it is
    parallel, so reduce is not sought."""
    inst, m = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    assert is_local_optimum(g, m)
    assert len(m) > 5 and singles_count(m.edges) == 0
    assert first_x(g, m, 5) == reference_first_x(g, m, 5) == (None, None)


def test_certificate_counts_stop_at_first_hit(demo_graph):
    m = greedy_maximal(demo_graph)
    assert not is_local_optimum(demo_graph, m, SolverConfig(rho=1))
    # dropping (1, 5), the first 1-subset, lets (2, 1) and (5, 5) in
    assert (first_x(demo_graph, m, 1) == reference_first_x(demo_graph, m, 1)
            == ((Edge(1, 5),), None))


def reference_scan(g: DuoGraph, m: Matching, rho: int, scan_order: str,
                   grow: bool) -> tuple[Edge, ...] | None:
    """The first rho-subset X of ``m``, in scan order, whose reference scan
    finds the move (replace with ``grow``, else reduce), as its edges in
    scan order; None when no X does."""
    m_edges = ref._ordered(m.edges, scan_order)
    base = ref._singleton_count(m.edges)
    for removed in itertools.combinations(m_edges, rho):
        kept = [e for e in m_edges if e not in removed]
        pool = ref._ordered(
            list(removed) + ref._swap_candidates(g, removed, kept, scan_order), scan_order)
        for incoming in ref._iter_compatible_subsets(pool, rho + grow):
            if grow or ref._singleton_count(kept + list(incoming)) < base:
                return removed
    return None


def first_x(g: DuoGraph, m: Matching, rho: int, scan_order: str = SCAN_LEX,
            use_reduce: bool = True) -> tuple[tuple[Edge, ...] | None, tuple[Edge, ...] | None]:
    """``(replace_x, reduce_x)`` as ``localsearch._first_x`` finds them on a
    swap state of ``m``, each as its edges in scan order, or None.  As in
    ``_SwapState.improve``, reduce is sought only with ``use_reduce`` and a
    singleton to lose, and its X counts only while no replace applies."""
    state = localsearch._SwapState(g, rho, scan_order, localsearch._mask(g, m))
    lowers = state.lowers if use_reduce and state.singles else None
    found = (localsearch._first_x(g, state.mask, state.inside, state.ent, rho, lowers,
                                  state.reverse)
             if state.ent else (None, None))
    replace_x, reduce_x = (
        None if x is None else
        tuple(ref._ordered([g.edges[k] for k in localsearch._positions(x)], scan_order))
        for x in found)
    return replace_x, None if replace_x else reduce_x


def reference_first_x(g: DuoGraph, m: Matching, rho: int, scan_order: str = SCAN_LEX,
                      use_reduce: bool = True) -> tuple[tuple[Edge, ...] | None,
                                                        tuple[Edge, ...] | None]:
    """What :func:`first_x` gives, from the reference scans: the replace
    scan's first X, and while it has none, with ``use_reduce`` and a
    singleton to lose, the reduce scan's."""
    replace_x = reference_scan(g, m, rho, scan_order, True)
    if replace_x is None and use_reduce and singles_count(m.edges):
        return None, reference_scan(g, m, rho, scan_order, False)
    return replace_x, None


@settings(max_examples=60, deadline=None)
@given(graphs(max_m=8), st.integers(1, 5), scan_orders, st.booleans())
def test_local_optimum_matches_reference_scan(g, rho, scan_order, use_reduce):
    cfg = SolverConfig(rho=rho, scan_order=scan_order, use_reduce=use_reduce)
    m = greedy_maximal(g, config=cfg)
    ok = is_local_optimum(g, m, cfg)
    assert ok == (reference_step(g, m, rho, scan_order, use_reduce) is None)
    if len(m) > rho:
        assert first_x(g, m, rho, scan_order, use_reduce) == reference_first_x(
            g, m, rho, scan_order, use_reduce)


@settings(max_examples=30, deadline=None)
@given(graphs(max_m=6, max_edges=11))
def test_exact_optimum_resists_replace(g):
    """An optimum can still admit a reduce move (fewer singletons at equal
    size), but never a replace."""
    res = exact_max_matching(g)
    if len(res.witness) == 0:
        return
    assert step(g, res.witness, 5, use_reduce=False) is None
    assert is_local_optimum(g, res.witness, SolverConfig(use_reduce=False))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=0)
    with pytest.raises(ValueError):
        SolverConfig(rho=6)
    with pytest.raises(ValueError):
        SolverConfig(scan_order="random")
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=-1)


# ---------------------------------------------------------------- reference

@settings(max_examples=150, deadline=None)
@given(graphs(max_m=8), st.integers(1, 5), scan_orders, st.integers(0, 3),
       st.none() | st.integers(0, 2**16))
def test_moves_match_reference(g, rho, scan_order, cut, seed):
    """The moves return the very matching the plain scans return, on
    maximal matchings and on prefixes of them, with reduce off and on."""
    cfg = SolverConfig(rho=rho, scan_order=scan_order, seed=seed)
    full = greedy_maximal(g, config=cfg)
    assert full == ref.greedy_maximal(g, config=cfg)
    for m in (full, Matching(full.edges[:cut])):
        assert greedy_maximal(g, m, cfg) == ref.greedy_maximal(g, m, cfg)
        for use_reduce in (False, True):
            assert (step(g, m, rho, scan_order, use_reduce)
                    == reference_step(g, m, rho, scan_order, use_reduce))


def seeded_string_pairs(count: int):
    rng = random.Random(20170206)
    for _ in range(count):
        n, alphabet = rng.randint(14, 18), "abcd"[:rng.randint(3, 4)]
        a = [rng.choice(alphabet) for _ in range(n)]
        b = a.copy()
        rng.shuffle(b)
        yield DuoGraph.from_strings(StringInstance(tuple(a), tuple(b)))


def test_traces_match_reference():
    configs = [
        SolverConfig(rho=rho, scan_order=order, use_reduce=use_reduce)
        for rho in (1, 3, 5)
        for order in (SCAN_LEX, SCAN_REVERSE_LEX)
        for use_reduce in (True, False)
    ] + [SolverConfig(seed=11)]
    graphs_ = list(seeded_string_pairs(8))
    ours = [local_search(g, cfg)[1].to_json_lines() for g in graphs_ for cfg in configs]
    theirs = [ref.local_search(g, cfg)[1].to_json_lines() for g in graphs_ for cfg in configs]
    assert ours == theirs
    assert any(PHASE_REDUCE in t for t in ours) and any(PHASE_REPLACE in t for t in ours)


def test_trace_singleton_counts_match_replay():
    """Every step's singleton counts are those of the matching rebuilt from
    the trace's removed and added edges, counted by singleton_partition."""
    steps_seen = set()
    for g in seeded_string_pairs(8):
        for rho in (1, 3, 5):
            for order in (SCAN_LEX, SCAN_REVERSE_LEX):
                matching, trace = local_search(g, SolverConfig(rho=rho, scan_order=order))
                current: set[Edge] = set()
                for step in trace.steps:
                    assert step.size_before == len(current)
                    assert step.singletons_before == singles_count(current)
                    assert set(step.removed) <= current
                    current = current.difference(step.removed).union(step.added)
                    assert step.size_after == len(current)
                    assert step.singletons_after == singles_count(current)
                    steps_seen.add(step.phase)
                assert current == set(matching.edges)
    assert {PHASE_GREEDY, PHASE_REPLACE, PHASE_REDUCE, PHASE_TERMINATE} <= steps_seen


@st.composite
def near_masks(draw):
    """A graph, a maximal matching of it and a mask that differs from the
    matching's in up to six bits."""
    g = draw(graphs(max_edges=20))
    m = greedy_maximal(g, config=SolverConfig(seed=draw(st.integers(0, 99))))
    ks = range(len(g.edges))
    flips = draw(st.sets(st.sampled_from(ks), max_size=6)) if ks else set()
    return g, m, localsearch._mask(g, m) ^ sum(1 << k for k in flips)


@settings(max_examples=300, deadline=None)
@given(near_masks())
def test_reduce_acceptance_reads_changed_edges_exactly(case):
    """The singleton change read off the changed edges equals a full
    recount, and reduce's test on the swap state accepts exactly the masks
    with fewer singletons than the matching; with no singleton to lose, the
    step seeks no reduce: every search it makes accepts replaces only."""
    g, m, mask = case
    m_mask = localsearch._mask(g, m)
    edges_of = lambda bits: [g.edges[k] for k in localsearch._positions(bits)]
    change = localsearch._singleton_change(g.index.par, m_mask, mask)
    assert change == singles_count(edges_of(mask)) - singles_count(edges_of(m_mask))
    state = localsearch._SwapState(g, 1, SCAN_LEX, m_mask)
    assert state.singles == singles_count(m)
    if state.singles == 0:
        first_x, first_subset = localsearch._first_x, localsearch._first_subset
        lowers, accepts = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localsearch, "_first_x",
                       lambda *args: lowers.append(args[5]) or first_x(*args))
            mp.setattr(localsearch, "_first_subset",
                       lambda *args: accepts.append(args[4]) or first_subset(*args))
            assert step(g, m, 1) == ref.replace_step(g, m, 1)
        assert set(lowers) <= {None} and set(accepts) <= {localsearch._grows}
    else:
        assert state.lowers(mask) == (singles_count(edges_of(mask)) < singles_count(m))


def rebuilt_swap_state(g: DuoGraph, rho: int, mask: int) -> tuple[dict[int, int], int]:
    """The entrant map and free mask of ``mask``, from scratch: every edge
    outside the mask whose conflicts with it are non-empty and at most rho
    in number, mapped to them; every edge outside the mask with no conflict
    in it."""
    inside, free = {}, 0
    for k, c in enumerate(g.index.conf):
        c &= mask
        if c and not mask >> k & 1 and c.bit_count() <= rho:
            inside[k] = c
        if not c and not mask >> k & 1:
            free |= 1 << k
    return inside, free


@st.composite
def mask_walks(draw):
    """A graph, a width, and a walk of masks over its edges: a seeded
    greedy matching, up to eight masks, then the empty mask.  Each mask is
    a few bits from the one before (conflicting ones included) or a swap
    from it: an entrant joins and its conflicts in the matching leave."""
    g = draw(graphs(max_edges=20))
    rho = draw(st.integers(1, 5))
    mask = localsearch._mask(g, greedy_maximal(g, config=SolverConfig(seed=draw(st.integers(0, 99)))))
    walk = [mask]
    ks = range(len(g.edges))
    for _ in range(draw(st.integers(0, 8)) if ks else 0):
        inside = rebuilt_swap_state(g, rho, mask)[0]
        if inside and draw(st.booleans()):
            k = draw(st.sampled_from(sorted(inside)))
            mask = mask & ~inside[k] | 1 << k
        else:
            mask ^= sum(1 << k for k in draw(st.sets(st.sampled_from(ks), min_size=1, max_size=4)))
        walk.append(mask)
    return g, rho, walk + [0]


@settings(max_examples=300, deadline=None)
@given(mask_walks())
def test_swap_state_moves_match_a_rebuild(case):
    """After every move, swaps in which entrants join the matching and
    matching edges leave it included, the carried entrant map and mask,
    free edges and singleton count are those rebuilt from scratch on the
    new mask (:func:`rebuilt_swap_state`, and singleton_partition's
    count)."""
    g, rho, walk = case
    state = localsearch._SwapState(g, rho, SCAN_LEX)
    for mask in walk:
        state.move(mask)
        inside, free = rebuilt_swap_state(g, rho, mask)
        assert state.inside == inside
        assert state.ent == sum(1 << k for k in inside)
        assert state.free == free
        edges_in = [g.edges[k] for k in localsearch._positions(mask)]
        assert (state.mask, state.size, state.singles) == (mask, len(edges_in), singles_count(edges_in))


@pytest.mark.parametrize("rho", [1, 5])
def test_each_step_still_checks_compatibility(monkeypatch, demo_graph, rho):
    """A swap search that returns a conflicting edge set makes the run
    raise at the step that took it, through the whole-graph branch (rho 5,
    two-edge matching) and through the connected-swap branch (rho 1).  The
    sets are every graph edge, and the greedy matching {(1, 5), (3, 2)}
    plus (2, 1), which conflicts only with the kept edge (1, 5): the step
    names the added edge first, where a check of the whole matching at the
    end of the run would name (1, 5) first."""
    pos = demo_graph.index.pos
    everything = (1 << len(demo_graph.edges)) - 1
    beside_kept = sum(1 << pos[e] for e in edges([(1, 5), (2, 1), (3, 2)]))
    for returned in (everything, beside_kept):
        calls = []
        monkeypatch.setattr(localsearch, "_first_subset",
                            lambda *args, returned=returned: calls.append(args) or returned)
        with pytest.raises(IncompatibleEdgesError) as exc:
            local_search(demo_graph, SolverConfig(rho=rho, max_iterations=5))
        assert len(calls) == 1
        if returned == beside_kept:
            assert exc.value.pair == (Edge(2, 1), Edge(1, 5))


# ---------------------------------------------------------------- first-X rule

def drawn_pair(seed: int, n: int, alphabet: str) -> DuoGraph:
    rng = random.Random(seed)
    a = [rng.choice(alphabet) for _ in range(n)]
    b = a.copy()
    rng.shuffle(b)
    return DuoGraph.from_strings(StringInstance(tuple(a), tuple(b)))


@pytest.mark.parametrize("seed, n, alphabet, replace_x, reduce_x, rank", [
    # the first improving replace is deep: the 1243rd of the C(14, 5) X
    (198, 24, "abcd", [(4, 23), (6, 5), (7, 6), (16, 21), (23, 18)], None, 1243),
    # no replace in any of the 2002 X; the first reduce is the 1515th
    (83, 30, "abcdef", None, [(6, 3), (14, 5), (15, 6), (26, 11), (29, 16)], 1515),
], ids=["198-24-abcd-1243-0", "83-30-abcdef-2002-1515"])
def test_deep_first_hit_counts_match_reference(seed, n, alphabet, replace_x, reduce_x, rank):
    g = drawn_pair(seed, n, alphabet)
    m, _ = local_search(g, SolverConfig(rho=1))
    assert len(m) == 14
    assert not is_local_optimum(g, m, SolverConfig(rho=5))
    replace_x = replace_x and tuple(edges(replace_x))
    reduce_x = reduce_x and tuple(edges(reduce_x))
    assert list(itertools.combinations(m.edges, 5)).index(replace_x or reduce_x) + 1 == rank
    assert first_x(g, m, 5) == reference_first_x(g, m, 5) == (replace_x, reduce_x)


def improve_states(g: DuoGraph, cfg: SolverConfig):
    """The matchings a run asks for a move on, one per iteration: the
    matching before each step of the reference trace that is not greedy."""
    current: set[Edge] = set()
    for step in ref.local_search(g, cfg)[1].steps:
        if step.phase != PHASE_GREEDY:
            yield Matching(sorted(current))
        current = current.difference(step.removed).union(step.added)


def assert_improve_matches_reference(g: DuoGraph, cfg: SolverConfig) -> set[str]:
    """One enumeration per state gives the move of the reference's
    replace-then-reduce, on every state of a run, and outside the
    whole-graph branch the same first X; returns the kinds of answer
    seen."""
    seen = set()
    for m in improve_states(g, cfg):
        state = localsearch._SwapState(g, cfg.rho, cfg.scan_order, localsearch._mask(g, m))
        found = state.improve(cfg.use_reduce)
        ours = None if found is None else Matching._of_mask(g, found)
        assert ours == reference_step(g, m, cfg.rho, cfg.scan_order, cfg.use_reduce)
        if len(m) > cfg.rho:
            assert first_x(g, m, cfg.rho, cfg.scan_order, cfg.use_reduce) == reference_first_x(
                g, m, cfg.rho, cfg.scan_order, cfg.use_reduce)
        seen.add("none" if ours is None else
                 PHASE_REPLACE if len(ours) > len(m) else PHASE_REDUCE)
    return seen


def test_one_enumeration_matches_replace_then_reduce_on_dense_pairs():
    """Seeded dense alphabet-4 pairs at every width and both scan orders,
    on every state a run reaches: replaces, reduces and terminal states."""
    rng = random.Random(1806)
    seen = set()
    for t in range(6):
        n = 16 + t % 3
        a = ["abcd"[s % 4] for s in range(n)]
        rng.shuffle(a)
        b = a.copy()
        rng.shuffle(b)
        g = DuoGraph.from_strings(StringInstance(tuple(a), tuple(b)))
        for rho in range(1, 6):
            for order in (SCAN_LEX, SCAN_REVERSE_LEX):
                seen |= assert_improve_matches_reference(g, SolverConfig(rho=rho, scan_order=order))
    assert seen == {"none", PHASE_REPLACE, PHASE_REDUCE}


@settings(max_examples=150, deadline=None)
@given(graphs(max_m=10, max_edges=30), st.integers(1, 5), scan_orders, st.booleans())
def test_one_enumeration_matches_replace_then_reduce(g, rho, scan_order, use_reduce):
    assert_improve_matches_reference(
        g, SolverConfig(rho=rho, scan_order=scan_order, use_reduce=use_reduce))


def test_a_terminal_state_enumerates_its_cores_once(monkeypatch):
    """Certifying a terminal matching that has singletons, so that both
    moves are searched, walks its cores once, where a replace scan and
    then a reduce scan walked them twice."""
    g = drawn_pair(83, 30, "abcdef")
    m = local_search(g, SolverConfig(rho=5))[0]
    found = []
    walk = localsearch._first_x
    monkeypatch.setattr(localsearch, "_first_x",
                        lambda *args: found.append(walk(*args)) or found[-1])
    assert is_local_optimum(g, m, SolverConfig(rho=5))
    assert singles_count(m.edges) > 0 and len(m) > 5
    assert found == [(None, None)]


def test_reduce_where_no_replace_applies_walks_the_cores_once(monkeypatch):
    """On a matching that admits no replace, the step's one "replace, else
    reduce" walk finds the reduce, here a deep one."""
    g = drawn_pair(83, 30, "abcdef")
    m = local_search(g, SolverConfig(rho=1))[0]
    assert len(m) > 5 and step(g, m, 5, use_reduce=False) is None
    first_x = localsearch._first_x
    calls = []
    monkeypatch.setattr(localsearch, "_first_x",
                        lambda *args: calls.append(args) or first_x(*args))
    result = step(g, m, 5)
    assert len(calls) == 1
    assert result == ref.reduce_step(g, m, 5) is not None


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_reduce_step_on_a_matching_without_singletons_searches_nothing(monkeypatch, rho):
    """With no singleton to lose, the step seeks no reduce: it walks the
    cores for a replace alone below width 3 and searches the whole graph at
    width 3.  Two compatible entrants share their one conflict (3, 3), so
    that the matching admits a replace."""
    g = DuoGraph(12, edges([(1, 1), (2, 2), (3, 3), (4, 10), (10, 4)]))
    m = Matching(edges([(1, 1), (2, 2), (3, 3)]))
    assert not singleton_partition(m.edges)[0]
    assert ref.reduce_step(g, m, rho) is None
    first_x = localsearch._first_x
    lowers = []
    monkeypatch.setattr(localsearch, "_first_x",
                        lambda *args: lowers.append(args[5]) or first_x(*args))
    found = step(g, m, rho)
    assert lowers == ([None] if rho < 3 else [])
    assert found == ref.replace_step(g, m, rho) is not None


@settings(max_examples=150, deadline=None)
@given(graphs(max_m=10, max_edges=30), st.integers(1, 5), scan_orders)
def test_reduce_where_no_replace_applies_matches_reference(g, rho, scan_order):
    """Reduce on a matching that no replace improves, where the search
    calls it and cores linked through parallel neighbours decide it."""
    m = local_search(g, SolverConfig(rho=rho, scan_order=scan_order, use_reduce=False))[0]
    assert ref.replace_step(g, m, rho, scan_order) is None
    assert step(g, m, rho, scan_order) == ref.reduce_step(g, m, rho, scan_order)


@pytest.mark.parametrize("m, g_edges, matching, rho, result, x", [
    # (2, 6) and (3, 7) are a parallel pair, each dropped for an edge that
    # flanks the kept singleton (5, 4); X is the first 2-subset
    (8, [(2, 6), (3, 5), (3, 7), (4, 3), (5, 4), (6, 5)], [(2, 6), (3, 7), (5, 4)], 2,
     [(4, 3), (5, 4), (6, 5)], [(2, 6), (3, 7)]),
    # (5, 5) comes in next to the kept (6, 6), whose other neighbour (7, 7)
    # is dropped for (10, 8) and (11, 9); X is the third 4-subset
    (11, [(1, 3), (2, 4), (4, 4), (5, 5), (6, 6), (7, 7), (9, 7), (10, 8), (11, 9), (11, 11)],
     [(1, 3), (2, 4), (6, 6), (7, 7), (11, 11)], 4,
     [(4, 4), (5, 5), (6, 6), (10, 8), (11, 9)], [(1, 3), (2, 4), (7, 7), (11, 11)]),
], ids=["8-g_edges0-matching0-2-result0-1", "11-g_edges1-matching1-4-result1-3"])
def test_reduce_cores_linked_through_parallel_neighbours(m, g_edges, matching, rho, result, x):
    """Singleton counts do not add up over swaps that touch a common
    parallel pair, so such swaps must be grown as one core."""
    g, mat = DuoGraph(m, edges(g_edges)), Matching(edges(matching))
    assert step(g, mat, rho, use_reduce=False) is None
    assert step(g, mat, rho) == ref.reduce_step(g, mat, rho) == Matching(edges(result))
    assert first_x(g, mat, rho) == reference_first_x(g, mat, rho) == (None, tuple(edges(x)))


@st.composite
def long_string_pairs(draw, max_n=24):
    """Pairs with a balanced composition over 4 or 5 symbols, which keeps
    the reference scans of the matchings they give affordable."""
    n, k = draw(st.integers(8, max_n)), draw(st.integers(4, 5))
    a = draw(st.permutations(["abcde"[t % k] for t in range(n)]))
    return DuoGraph.from_strings(StringInstance(tuple(a), tuple(draw(st.permutations(a)))))


@settings(max_examples=25, deadline=None)
@given(long_string_pairs(), st.integers(4, 5), scan_orders, st.integers(0, 3))
def test_wide_certificates_match_reference(g, rho, scan_order, start_rho):
    """Certificates at widths 4 and 5 on a greedy matching (``start_rho``
    0) or on the terminal matching of a narrower search: the verdict and
    the first X of each plain scan."""
    cfg = SolverConfig(rho=rho, scan_order=scan_order)
    if start_rho:
        m = local_search(g, SolverConfig(rho=start_rho, scan_order=scan_order))[0]
    else:
        m = greedy_maximal(g, config=cfg)
    ok = is_local_optimum(g, m, cfg)
    if len(m) <= rho:
        return
    expected = reference_first_x(g, m, rho, scan_order)
    assert ok == (expected == (None, None))
    assert first_x(g, m, rho, scan_order) == expected


def sparse_pair_n312() -> tuple[list[str], list[str]]:
    """The fourth of a seeded series of balanced pairs, n = 312 over 31
    symbols: a width-4 search over C(65, 4) subsets per scan."""
    rng = random.Random("solve-large:131")
    for n in (300, 304, 308, 312):
        a = [f"s{t % (n // 10)}" for t in range(n)]
        rng.shuffle(a)
        b = a.copy()
        rng.shuffle(b)
    return a, b


def test_width_four_on_a_sparse_pair_of_312_symbols(tmp_path, capsys):
    """A plain scan of every 4-subset takes over a minute on this pair; the
    result and the trace are pinned from that scan."""
    a, b = sparse_pair_n312()
    src, trace = tmp_path / "pair.duo", tmp_path / "trace.jsonl"
    src.write_text(" ".join(a) + "\n" + " ".join(b) + "\n")
    t0 = time.perf_counter()
    assert cli_main(["solve", str(src), "--rho", "4", "--trace", str(trace)]) == 0
    assert time.perf_counter() - t0 < 20
    assert "\npreserved 65\n" in capsys.readouterr().out
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "a16c815f568bb0f23530273364bdb87ff035a47e448f483bc06e7bee550e70fd")


def test_local_optimum_agrees_with_milp_swap_gain_at_344_edges():
    """On the balanced pair (1000, 30), seed 2017 (|E| 1106), the reduce-off
    terminal matchings of widths 1 and 5 (|M| 326 and 344) at widths 1 to
    5: ``is_local_optimum`` with reduce off holds iff the best swap gain of
    an integer program, which shares none of the swap state, is at most 0.
    The reference scans stop near |M| 30."""
    pytest.importorskip("scipy")
    from milp_oracle import milp_best_swap_gain

    g = balanced_graph(1000, 30, 2017)
    gains = {}
    for start in (1, 5):
        m = local_search(g, SolverConfig(rho=start, use_reduce=False))[0]
        for rho in range(1, 6):
            gain = milp_best_swap_gain(g, m, rho)
            assert is_local_optimum(g, m, SolverConfig(rho=rho, use_reduce=False)) == (gain <= 0)
            gains[len(m), rho] = gain
    assert gains == {(326, 1): 0, (326, 2): 1, (326, 3): 2, (326, 4): 3, (326, 5): 3,
                     (344, 1): 0, (344, 2): 0, (344, 3): 0, (344, 4): 0, (344, 5): 0}
