"""Shared builders for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from duomatch.core import DuoGraph, Edge, StringInstance, parse_instance

# Small worked example used throughout: 5 edges, optimum 3, and a greedy
# run from scratch that stalls at 2 without the swap machinery.
DEMO_TEXT = "a b c d a b c\nb c d c a b a"
DEMO_EDGES = [(1, 5), (2, 1), (3, 2), (5, 5), (6, 1)]
DEMO_OPT = [(2, 1), (3, 2), (5, 5)]
# A pair whose rho-1 local search stalls at 2 edges, (1,2) and (2,3), below
# the optimum 3, so the branch and bound needs 4 nodes from that matching.
STALL_TEXT = "a b a a b\na a b a b"

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def demo_instance() -> StringInstance:
    return parse_instance(DEMO_TEXT)


@pytest.fixture
def demo_graph(demo_instance) -> DuoGraph:
    return DuoGraph.from_strings(demo_instance)


def edges(pairs) -> list[Edge]:
    return [Edge(i, j) for i, j in pairs]


def balanced_pair(n: int, alphabet: int, seed: int) -> StringInstance:
    """A balanced pair: ``n`` symbols over ``alphabet`` letters shuffled by
    ``random.Random(seed)``, then a copy of them shuffled again."""
    rng = random.Random(seed)
    a = [f"s{t % alphabet}" for t in range(n)]
    rng.shuffle(a)
    b = a.copy()
    rng.shuffle(b)
    return StringInstance(tuple(a), tuple(b))


def balanced_graph(n: int, alphabet: int, seed: int) -> DuoGraph:
    """The duo graph of :func:`balanced_pair`."""
    return DuoGraph.from_strings(balanced_pair(n, alphabet, seed))
