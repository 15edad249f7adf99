"""Frozen full-sweep reference checks for the differential tests.

Each function here is the plain, whole-state version of a check that the
package now evaluates incrementally. They are kept as they were before the
incremental version replaced them and must not be optimised: the
differential tests require the live checks to return identical Violation
lists.
"""
from __future__ import annotations

from demosim.model import WorldState
from demosim.verification import Violation


def kinship_roots(state: WorldState) -> dict[int, int]:
    """Union-find over the kinship graph, rebuilt from every person on
    record: parent links and every historic partnership. Dead persons
    participate as connectors."""
    parent = {pid: pid for pid in state.persons}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for p in state.persons.values():
        if p.father is not None:
            union(p.id, p.father)
        if p.mother is not None:
            union(p.id, p.mother)
        for ex in p.ever_partners:
            union(p.id, ex)
    return {pid: find(pid) for pid in parent}


def check_housing_kinship(state: WorldState, snaps) -> list[Violation]:
    """a_housing_kinship by full rebuild: co-occupants of every house must
    share one kinship component."""
    roots = kinship_roots(state)
    out = []
    for house in state.houses.values():
        if len(house.occupants) < 2:
            continue
        occ = sorted(house.occupants)
        first = roots[occ[0]]
        if any(roots[pid] != first for pid in occ[1:]):
            out.append(Violation("a_housing_kinship", state.time.step_index,
                                 tuple(occ),
                                 f"house {house.id} mixes unrelated persons"))
    return out
