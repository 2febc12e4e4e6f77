#!/usr/bin/env python3
"""Build the locality-gap fixture store under fixtures/.

Each fixture is written as its instance file plus a matching file and a JSON
certificate holding the checklist outcome, the exact optimum, and the ratio.
A fixture whose checklist fails, or whose matching is not a rho-5 local
optimum, stops the run with a non-zero exit before any of its files is
written.  Rerunning reproduces byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from duomatch import (
    DuoGraph,
    GapSearchSpec,
    SolverConfig,
    STRING_GAP_CAPS,
    exact_max_matching,
    fileio,
    format_rational,
    is_local_optimum,
    local_search,
    ratio_report,
    search_gap_instance,
    string_gap_fixture,
    swap_resistance_checklist,
)

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def write_fixture(name: str, head: dict, instance: tuple[str, str], g: DuoGraph,
                  matching, checklist, exact) -> None:
    """Certify ``matching`` on ``g`` and write the three files of ``name``.

    ``head`` opens the certificate, ``instance`` is the instance file's
    extension and text, ``checklist`` the swap-resistance report and
    ``exact`` the exact result on ``g``.  Raises SystemExit, writing
    nothing, unless the checklist passed and ``matching`` is a rho-5 local
    optimum.
    """
    ok = is_local_optimum(g, matching, SolverConfig(rho=5))
    if not (checklist.passed and ok):
        raise SystemExit(f"{name}: not certified (checklist passed: {checklist.passed}, "
                         f"rho-5 local optimum: {ok})")
    cert = {
        **head,
        "edges": len(g.edges),
        "matching_size": len(matching),
        "exact": exact.value,
        "ls_from_empty": len(local_search(g)[0]),
        "ratio": format_rational(ratio_report(len(matching), exact.value).ratio),
        "local_optimum_rho5": ok,
        "checklist": [
            {"name": it.name, "passed": it.passed, "observed": it.observed, "cap": it.cap}
            for it in checklist.items
        ],
    }
    os.makedirs(OUT, exist_ok=True)
    for ext, text in (instance, ("matching", fileio.format_matching(matching)),
                      ("json", json.dumps(cert, indent=2) + "\n")):
        path = os.path.join(OUT, f"{name}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")


def main() -> int:
    # string-pair worst case: 6 preserved duos locally optimal against 10
    inst, matching = string_gap_fixture()
    g = DuoGraph.from_strings(inst)
    res = exact_max_matching(g)
    write_fixture("string_gap", {"kind": "duo", "n": inst.n},
                  ("duo", fileio.format_instance(inst)), g, matching,
                  swap_resistance_checklist(g, matching, res.witness, STRING_GAP_CAPS), res)

    # graph-family worst case at m=26, reconstructed by search
    found = search_gap_instance(GapSearchSpec(m=26))
    if found is None:
        raise SystemExit("graph_gap_26: the gap search found no instance")
    write_fixture("graph_gap_26", {"kind": "mcbm", "m": found.graph.m},
                  ("mcbm", fileio.format_graph(found.graph)), found.graph, found.matching,
                  found.checklist, exact_max_matching(found.graph))
    return 0


if __name__ == "__main__":
    sys.exit(main())
