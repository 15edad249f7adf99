"""The incremental kinship check against the frozen full-rebuild oracle.

Seeded warn-mode runs in three event orders inject kinship faults at seeded
steps through the mutators the events use, as a buggy event would: an
unrelated adult moved into an occupied house (`move_person`), or a
partnership linked across kinship components (`link_partners`). At every
step the live check must return exactly the oracle's Violation list, with
the registry kept for the whole run, with a fresh registry per call, and
with one registry handed two WorldStates in turn. The direct writes of
test_verification.py are compared the same way.
"""
from __future__ import annotations

import random

import pytest

from conftest import family_state
from oracle import check_housing_kinship, kinship_roots
from test_verification import STRUCTURAL_FAULTS
from demosim.cli import build_config
from demosim.events import DEFAULT_EVENT_ORDER, step
from demosim.initialization import init_world
from demosim.model import ADULT_YEARS, link_partners
from demosim.predicates import SnapshotStore
from demosim.rates import RateContext
from demosim.space import move_person
from demosim.verification import build_registry, check_step

ORDERS = (DEFAULT_EVENT_ORDER,
          ("ageing", "births", "deaths", "divorces", "marriages"),
          ("ageing", "divorces", "marriages", "deaths", "births"))
SEEDS = (1, 2, 3, 4)
STEPS = 240  # 20 monthly years
FAULTS = 8   # injections per run, half moves and half links


def kinship_check(registry):
    return next(a.check for a in registry if a.label == "a_housing_kinship")


class SeededRun:
    """A warn-mode run stepped by hand, with a separate fault stream that
    picks the injection steps and the persons involved."""

    def __init__(self, seed: int, order: tuple[str, ...]) -> None:
        config = build_config({"initial_pop": "300", "delta_t": "monthly",
                               "t0": "2020", "t_final": "2040",
                               "seed": str(seed), "verification_mode": "warn",
                               "event_order": ",".join(order)})
        self.order = order
        self.rng = random.Random(seed)
        self.state, _ = init_world(config.model, config.sim, config.data,
                                   config.density, self.rng)
        self.ctx = RateContext(config.model, config.data,
                               config.sim.steps_per_year)
        self.snaps = SnapshotStore()
        self.snaps.freeze(self.state)
        self.faults = random.Random(f"faults-{seed}-{','.join(order)}")
        # each move at an odd step is followed by a link at the next step
        moves = [2 * k + 1 for k in self.faults.sample(range(STEPS // 2),
                                                       FAULTS // 2)]
        self.fault_steps = {**{s: self._move_unrelated_adult for s in moves},
                            **{s + 1: self._link_and_count for s in moves}}
        self.moved = None  # the adult moved by the last move fault
        self.cleared = 0   # link faults that removed an oracle violation

    def advance(self) -> None:
        """One step of events, then this step's fault, if any."""
        step(self.state, self.ctx, self.snaps, self.rng, self.order)
        fault = self.fault_steps.get(self.state.time.step_index)
        if fault is not None:
            fault()

    def _link_and_count(self) -> None:
        before = len(check_housing_kinship(self.state, self.snaps))
        self._link_across_components()
        if len(check_housing_kinship(self.state, self.snaps)) < before:
            self.cleared += 1

    def _singles(self) -> list:
        """Living single adults with a house, ascending id."""
        state = self.state
        adult = ADULT_YEARS * state.time.steps_per_year
        return [p for p in state.persons.values()
                if p.alive and p.partner is None and p.age_steps >= adult
                and p.house in state.houses]

    def _mates(self, a, singles, roots) -> list:
        """Singles of the other gender outside a's kinship component."""
        return [p for p in singles
                if p.gender != a.gender and roots[p.id] != roots[a.id]]

    def _move_unrelated_adult(self) -> None:
        """Move a single adult into a house holding none of their kin,
        preferring one where a possible mate lives."""
        state, roots = self.state, kinship_roots(self.state)
        singles = self._singles()
        a = self.faults.choice(singles)
        targets = [h for h in state.houses.values()
                   if h.id != a.house and h.occupants
                   and all(roots[q] != roots[a.id] for q in h.occupants)]
        mates = {p.house for p in self._mates(a, singles, roots)}
        targets = [h for h in targets if h.id in mates] or targets
        move_person(state, a, self.faults.choice(targets))
        self.moved = a

    def _link_across_components(self) -> None:
        """Marry the last moved adult to a co-occupant mate, which clears
        their house's violation; failing that, any two mates anywhere."""
        roots = kinship_roots(self.state)
        singles = self._singles()
        a = self.moved
        pairs = ([(a, p) for p in self._mates(a, singles, roots)
                  if p.house == a.house] if a in singles else [])
        if not pairs:
            pairs = [(a, p) for a in singles
                     for p in self._mates(a, singles, roots)]
        if pairs:
            link_partners(*self.faults.choice(pairs))


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(o[1:]))
@pytest.mark.parametrize("seed", SEEDS)
def test_kept_and_fresh_registry_match_oracle(seed, order):
    run = SeededRun(seed, order)
    kept = kinship_check(build_registry(order))
    flagged = 0
    for _ in range(STEPS):
        run.advance()
        expected = check_housing_kinship(run.state, run.snaps)
        assert kept(run.state, run.snaps) == expected
        assert kinship_check(build_registry(order))(run.state,
                                                    run.snaps) == expected
        if run.state.time.step_index in run.fault_steps:
            assert [v for v in check_step(run.state, run.snaps)
                    if v.label == "a_housing_kinship"] == expected
        flagged += bool(expected)
    # the injected faults must show, or the comparison proves nothing
    assert flagged > 0
    assert run.cleared > 0


def test_one_registry_handed_two_states():
    """A check handed a different WorldState starts a fresh index, so two
    runs evaluated in turn by one registry each match the oracle."""
    runs = [SeededRun(seed, DEFAULT_EVENT_ORDER) for seed in SEEDS]
    shared = kinship_check(build_registry())
    for _ in range(STEPS // 2):
        for run in runs:
            run.advance()
            assert shared(run.state, run.snaps) == \
                check_housing_kinship(run.state, run.snaps)


def test_state_with_the_same_ids_gets_its_own_index():
    """A second state whose partner lists are as long as the first one's
    passes every sync unchanged, so only the identity test keeps the first
    state's kinship out of its verdict."""
    first, *_ = family_state()
    second, _, _, (dad, mum, kid, _single) = family_state()
    kid.father = kid.mother = None
    dad.children.clear()
    mum.children.clear()
    shared = kinship_check(build_registry())
    assert shared(first, None) == check_housing_kinship(first, None) == []
    expected = check_housing_kinship(second, None)
    assert expected and shared(second, None) == expected


def _unrelated_cohabitants(state, houses, persons):
    (h0, h1), (*_rest, single) = houses, persons
    h1.occupants.discard(single.id)
    single.house = h0.id
    h0.occupants.add(single.id)


def _cohabitant_linked_by_write(state, houses, persons):
    dad, *_rest, single = persons
    _unrelated_cohabitants(state, houses, persons)
    dad.ever_partners.append(single.id)
    single.ever_partners.append(dad.id)


def _partner_lists_shrunk(state, houses, persons):
    """Undo the written link: lists that shrank force a rebuild, which
    must bring the violation back."""
    dad, *_rest, single = persons
    dad.ever_partners.pop()
    single.ever_partners.pop()


def _dead_link_chain(state, houses, persons):
    """The widower's new wife shares the house with his child by the dead
    mother: connected only through the dead."""
    (h0, h1), (dad, mum, kid, single) = houses, persons
    mum.alive = False
    mum.house = None
    h0.occupants.discard(mum.id)
    dad.partner = single.id
    single.partner = dad.id
    dad.ever_partners.append(single.id)
    single.ever_partners.append(dad.id)
    h1.occupants.discard(single.id)
    single.house = h0.id
    h0.occupants.add(single.id)


DIRECT_WRITES = {
    **{name: (inject,) for name, (_, inject) in STRUCTURAL_FAULTS.items()},
    "unrelated_cohabitants": (_unrelated_cohabitants,),
    "cohabitant_linked_by_write": (_cohabitant_linked_by_write,),
    "partner_lists_shrunk": (_cohabitant_linked_by_write,
                             _partner_lists_shrunk),
    "dead_link_chain": (_dead_link_chain,),
}


@pytest.mark.parametrize("case", list(DIRECT_WRITES))
def test_direct_writes_match_oracle(case):
    """Writes that bypass the mutators, applied after the kept check has
    indexed the clean fixture."""
    state, _, houses, persons = family_state()
    snaps = SnapshotStore()
    snaps.freeze(state)
    kept = kinship_check(build_registry())
    assert kept(state, snaps) == check_housing_kinship(state, snaps) == []
    for write in DIRECT_WRITES[case]:
        write(state, houses, persons)
        assert kept(state, snaps) == check_housing_kinship(state, snaps)
