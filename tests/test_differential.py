"""The incremental every-step checks against the frozen full-sweep oracle.

Seeded warn-mode runs in three event orders inject faults at seeded steps
through the mutators the events use, as a buggy event would. The kinship
runs inject an unrelated adult moved into an occupied house
(`move_person`), or a partnership linked across kinship components
(`link_partners`); at every step the live kinship check must return
exactly the oracle's Violation list, with the registry kept for the whole
run, with a fresh registry per call, and with one registry handed two
WorldStates in turn. The fault runs inject one fault per hard every-step
assumption, plus a removed and an overwritten house, once inside a step
(right after ageing, by wrapping that event) and once after `step()`
returns; at every step `check_step` with a kept and with a fresh
registry, and the every-step entries of a third registry called one at a
time, must return exactly the oracle's list, and every fault must be
flagged. The same faults injected
after `check_step` has evaluated a step must match the oracle at the next
step. The direct writes of test_verification.py are compared the same
way, and so are the hourly digest-chain configs, where most steps journal
nothing, and steps with no write that check_step must not pass over.

The lockstep runs step twin worlds from one seed, one with the live event
kernels, which look a rate up only when the draw is below its ceiling, and
one with the oracle's kernels, which look up every rate: after every step
both must hold the same RNG state and the same state digest. The death
screen run makes living men 130 years old mid-run: any draw kills them,
but a screen still bounded by the old oldest birth step passes over most
draws; it compares the dead and the RNG state the same way.

The snapshot runs compare every freeze, which shares the columns no
journaled person changed, with the oracle's full copy, under the fault
runs and on the digest-chain configs; the census runs compare the counts the
person writes keep, and each freeze's gave_birth column, with the
oracle's recount, on the same runs and on a hand-built state written
directly, and so do the empty-house runs the time series' houses_empty;
the roster runs compare every read of an eligibility roster
with the full scans, on the same runs; the direct-write runs write each
person field past every mutator and compare the checks, both snapshots,
the rosters and the census with the oracle at every step, and the
index-write runs, which write a child's birth step or parent links, the
checks; the space-check cases compare the retrospective checks with the
oracle's frozenset diff. The space lockstep runs compare check_space,
which reads the journal and the town write count, with space_changes
between the SpaceDigests of consecutive steps after every step: on the
fault runs, on fault runs that write the space inside a step, after it
and after the check, on the chain configs run by Run with space faults
written between steps, and on the direct space writes, made at step 0,
which the journal forgets, and at a later step. The reaching-window runs
check, on the fault runs and the chain configs, that every changed_since
answer for an earlier step holds every id journaled since that step and
every clock cohort after it. The house-field runs write a stored house's
coordinates or occupant set after an idle hourly step, whose window is
EMPTY_WINDOW, and compare the run's next step with the oracle; the
pickled-registry runs check twin fault runs, one with a registry and one
with its pickled copy, and compare the lists at every step.
"""
from __future__ import annotations

import pickle
import random
from collections import Counter, deque
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import pytest

import oracle
from conftest import DAILY, add_house, add_town, family_state
from oracle import (check_housing_kinship, kinship_roots, marriage_eligible,
                    reproducible_women)
from test_golden import CHAIN_CLOCKS, CHAIN_ORDERS, CHAIN_RUNS, chain_config
from test_verification import STRUCTURAL_FAULTS
from demosim import events
from demosim.cli import build_config
from demosim.engine import (Run, TIMESERIES_HEADER, TimeSeries, _unoccupied,
                            state_digest)
from demosim.events import DEFAULT_EVENT_ORDER, step
from demosim.initialization import init_world
from demosim.model import (ADULT_YEARS, EMPTY_WINDOW, FEMALE, MALE,
                           MOTHER_AGE_LIMIT_YEARS, House, Journal,
                           ModelParams, Town, WorldState, link_partners,
                           mark_dead, unlink_partners)
from demosim.predicates import SnapshotStore
from demosim.rates import RateContext, default_model_data
from demosim.space import create_house, leave_house, move_person
from demosim.verification import (SpaceDigest, build_registry,
                                  check_retrospective, check_space,
                                  check_step, space_changes)

ORDERS = (DEFAULT_EVENT_ORDER,
          ("ageing", "births", "deaths", "divorces", "marriages"),
          ("ageing", "divorces", "marriages", "deaths", "births"))
SEEDS = (1, 2, 3, 4)
STEPS = 240  # 20 monthly years
FAULTS = 8   # injections per run, half moves and half links


def kinship_check(registry):
    return next(a.check for a in registry if a.label == "a_housing_kinship")


def every_step_entries(registry) -> list:
    return [a.check for a in registry if a.scope == "every_step"]


def one_at_a_time(entries, state, snaps) -> list:
    """Each every-step entry called on its own, in registry order, as the
    benchmark's traced run times them: no check_step, so no idle skip."""
    return [v for check in entries for v in check(state, snaps)]


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
            link_partners(self.state, *self.faults.choice(pairs))


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


def test_rewritten_parent_link_is_seen_after_a_gap():
    """A check after a gap builds its kinship index afresh, so the kid's
    parent links, cleared by hand after the check at step 1, no longer join
    it to the parents it lives with, and check_step reports the house as
    the oracle does. The model never rewrites a parent link."""
    state, _, _, (dad, mum, kid, _single) = family_state()
    snaps = SnapshotStore()
    snaps.freeze(state)
    state.time.step_index = 1
    snaps.freeze(state)
    assert check_step(state, snaps) == []
    kid.father = kid.mother = None
    dad.children.clear()
    mum.children.clear()
    state.time.step_index = 5
    snaps.freeze(state)
    expected = oracle.check_step(state, snaps, DEFAULT_EVENT_ORDER)
    assert "a_housing_kinship" in {v.label for v in expected}
    assert check_step(state, snaps) == expected


def test_rewritten_parent_link_is_seen_in_the_window():
    """The kinship index keeps each person's parent links by value, so the
    kid's links, cleared by hand after the checks at steps 1 and 2, differ
    from the absorbed ones when the window hands the kid over at step 3:
    the index is built again and check_step reports the house as the
    oracle does. The model never rewrites a parent link."""
    state, _, _, (dad, mum, kid, _single) = family_state()
    snaps = SnapshotStore()
    snaps.freeze(state)
    for now in (1, 2):
        state.time.step_index = now
        snaps.freeze(state)
        assert check_step(state, snaps) == []
    state.time.step_index = 3
    kid.father = kid.mother = None
    dad.children.clear()
    mum.children.clear()
    snaps.freeze(state)
    expected = oracle.check_step(state, snaps, DEFAULT_EVENT_ORDER)
    assert "a_housing_kinship" in {v.label for v in expected}
    assert check_step(state, snaps) == expected


def test_birth_step_write_refiles_the_person():
    """A born_step write past the age setter refiles the person in the
    birth-step index, so the kid made exactly 18 by one at step 2 is among
    the persons a_adult_moves_out reads there, and staying home is
    reported as the oracle reports it."""
    state, _, _, (_dad, _mum, kid, _single) = family_state()
    snaps, kept = SnapshotStore(), build_registry()
    snaps.freeze(state)
    state.time.step_index = 1
    snaps.freeze(state)
    assert check_step(state, snaps, kept) == []
    state.time.step_index = 2
    kid.born_step = state.time.born_years_ago(ADULT_YEARS)
    snaps.freeze(state)
    expected = oracle.check_step(state, snaps, DEFAULT_EVENT_ORDER)
    assert any(v.label == "a_adult_moves_out" and v.ids == (kid.id,)
               for v in expected)
    assert check_step(state, snaps, kept) == expected


def test_dangling_partner_replaced_matches_oracle():
    """A partner id with nobody on record, written by hand at step 2 and
    cleared at step 4, where the write journals it as the old partner:
    the window names only persons on record, so at every step check_step
    reports what the oracle does and each freeze equals its full copy,
    where the checks used to look the id up and raise KeyError."""
    state, _, _, (*_, single) = family_state()
    snaps, kept = CheckedStore(), build_registry()
    snaps.freeze(state)
    for now in range(1, 7):
        state.time.step_index = now
        if now in (2, 4):
            single.partner = 999 if now == 2 else None
        snaps.freeze(state)
        snaps.assert_matches(now)
        assert check_step(state, snaps, kept) == \
            oracle.check_step(state, snaps, DEFAULT_EVENT_ORDER)


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


def test_partner_list_shrunk_in_the_window_rebuilds_the_index():
    """Past step 1 the kept kinship check syncs only the window. The link
    written at step 2 is absorbed from it; at step 3 the lists shrink back
    and she is journaled by a write of her own, so sync reports the shrunk
    list and the rule builds its index afresh: the violation is back, as
    the oracle reports it."""
    state, _, houses, persons = family_state()
    single = persons[-1]
    snaps = SnapshotStore()
    snaps.freeze(state)
    kept = kinship_check(build_registry())
    writes = {2: _cohabitant_linked_by_write, 3: _partner_lists_shrunk}
    for now in (1, 2, 3):
        state.time.step_index = now
        if now in writes:
            writes[now](state, houses, persons)
        single.house = single.house  # journaled; the lists are not
        expected = check_housing_kinship(state, snaps)
        assert kept(state, snaps) == expected
        assert bool(expected) == (now == 3)


def test_unlink_journals_the_person_it_strands():
    """The wife of a man linked to another woman still points at him. Once
    she is unlinked, his link to the other woman is cut too and no longer
    points back. Written a few quiet steps after the link, so the journal
    holds nothing else on the stranded woman: the kept registry must still
    report her, as the oracle does."""
    state, _, _, (man, wife, _kid, other) = family_state()
    snaps = SnapshotStore()
    snaps.freeze(state)
    kept = build_registry()
    writes = {2: lambda: link_partners(state, man, other),
              5: lambda: unlink_partners(state, wife)}
    for now in range(1, 8):
        state.time.step_index = now
        if now in writes:
            writes[now]()
        snaps.freeze(state)
        expected = oracle.check_step(state, snaps, DEFAULT_EVENT_ORDER)
        assert check_step(state, snaps, kept) == expected
        stranded = [v for v in expected if v.ids == (other.id,)
                    and "not symmetric" in v.detail]
        assert bool(stranded) == (now >= 5)


@pytest.mark.parametrize("case", ["new_adult", "house_removed",
                                  "after_a_gap", "another_state"])
def test_step_with_no_write_is_checked_when_it_must_be(case):
    """check_step calls no check only when its last call, at the previous
    step of the same state, flagged nothing, nothing was journaled since
    and nobody turns 18. The kept registry's call at step 2 flags nothing
    and the clock is moved by hand, so no event runs and nothing is
    journaled after it; each case then breaks one of the conditions (a
    dropped house is journaled with its occupant), and check_step must
    report what the oracle does."""
    state, _, (_, h1), (_, _, kid, single) = family_state()
    if case == "new_adult":  # turns 18 at step 3; at step 0, not journaled
        kid.age_steps = ADULT_YEARS * DAILY - 3
    snaps = SnapshotStore()
    snaps.freeze(state)
    kept = build_registry()
    for now in (1, 2):
        state.time.step_index = now
        snaps.freeze(state)
        assert check_step(state, snaps, kept) == []
    if case == "house_removed":
        _drop_house(state, h1)
    elif case == "after_a_gap":
        leave_house(state, single)  # journaled at step 2, after its check
        state.time.step_index += 1
    elif case == "another_state":
        state, _, _, (*_, single) = family_state()
        leave_house(state, single)  # at step 0, not journaled
        snaps = SnapshotStore()
        snaps.freeze(state)
        state.time.step_index = 2
    state.time.step_index += 1
    snaps.freeze(state)
    expected = oracle.check_step(state, snaps, DEFAULT_EVENT_ORDER)
    assert state.journal.since(state.time.step_index - 1) == (
        ({single.id}, {h1.id}) if case == "house_removed" else (set(), set()))
    assert {v.label for v in expected} == {
        "a_adult_moves_out" if case == "new_adult" else "a_homeless"}
    assert check_step(state, snaps, kept) == expected


class _OffGrid:
    """An rng stand-in whose coordinate draws fall just off the grid."""

    def randint(self, lo: int, hi: int) -> int:
        return hi + 1


def _adults(state, **match) -> list:
    """Living housed adults, ascending id, whose attributes equal `match`."""
    adult = ADULT_YEARS * state.time.steps_per_year
    return [p for p in state.persons.values()
            if p.alive and p.house in state.houses and p.age_steps >= adult
            and all(getattr(p, k) == v for k, v in match.items())]


# Each injection returns the id its violation must name, or None when it
# finds no target at this step.

def _off_grid_house(run):
    town = run.faults.choice(list(run.state.towns.values()))
    return create_house(run.state, town, _OffGrid()).id


def _married_minor(run):
    state = run.state
    adult = ADULT_YEARS * state.time.steps_per_year
    minors = [p for p in state.persons.values()
              if p.alive and p.partner is None and 0 < p.age_steps < adult]
    if not minors:
        return None
    girl = run.faults.choice(minors)
    men = [p for p in _adults(state, partner=None) if p.gender != girl.gender]
    if not men:
        return None
    link_partners(state, run.faults.choice(men), girl)
    return girl.id


def _relinked_spouse(run):
    """A married man linked to a single woman: his wife still points at
    him, so her partnership is no longer symmetric."""
    state = run.state
    men = [p for p in _adults(state, gender=MALE) if p.partner is not None]
    women = _adults(state, gender=FEMALE, partner=None)
    if not men or not women:
        return None
    man = run.faults.choice(men)
    wife = man.partner
    link_partners(state, man, run.faults.choice(women))
    return wife


def _unflagged_birth(run):
    """A neonate added and housed with its mother, who is not flagged."""
    state = run.state
    limit = MOTHER_AGE_LIMIT_YEARS * state.time.steps_per_year
    mothers = [p for p in _adults(state, gender=FEMALE, gave_birth=False)
               if p.partner is not None and p.age_steps < limit]
    if not mothers:
        return None
    mother = run.faults.choice(mothers)
    father = state.persons[mother.partner]
    child = state.add_person(MALE, age_steps=0,
                             born_step=state.time.step_index,
                             father=father.id, mother=mother.id)
    father.children.add(child.id)
    mother.children.add(child.id)
    move_person(state, child, state.houses[mother.house])
    return child.id


def _resurrection(run):
    """No mutator brings the dead back: `alive` is written directly and the
    revived person is re-housed through move_person."""
    state = run.state
    dead = [p for p in state.persons.values()
            if not p.alive and p.house is None and p.partner is None]
    homes = [h for h in state.houses.values() if h.occupants]
    if not dead or not homes:
        return None
    p = run.faults.choice(dead)
    p.alive = True
    move_person(state, p, run.faults.choice(homes))
    return p.id


def _homeless(run):
    p = run.faults.choice(_adults(run.state))
    leave_house(run.state, p)
    return p.id


def _unrelated_move(run):
    run._move_unrelated_adult()
    return run.moved.id


def _adult_stays_home(run):
    """A person who turned 18 this step and moved out is moved back."""
    state = run.state
    adult = ADULT_YEARS * state.time.steps_per_year
    prev = run.snaps.before(state.time.step_index)
    movers = [p for p in state.persons.values()
              if p.alive and p.age_steps == adult and p.id in prev.alive
              and prev.house.get(p.id) in state.houses
              and p.house != prev.house[p.id]]
    if not movers:
        return None
    p = run.faults.choice(movers)
    move_person(state, p, state.houses[prev.house[p.id]])
    return p.id


def _dead_keeps_house(run):
    p = run.faults.choice(_adults(run.state))
    mark_dead(run.state, p)
    return p.id


def _divorce_stays(run):
    """A man married at the previous step is unlinked and left at home."""
    state = run.state
    prev = run.snaps.before(state.time.step_index)
    men = [p for p in _adults(state, gender=MALE)
           if p.partner is not None and p.id in prev.married
           and state.persons[p.partner].alive]
    if not men:
        return None
    man = run.faults.choice(men)
    unlink_partners(state, man)
    return man.id


def _unmerged_marriage(run):
    """Two singles in different houses linked without merging households."""
    state = run.state
    prev = run.snaps.before(state.time.step_index)
    singles = [p for p in _adults(state, partner=None)
               if p.id not in prev.married]
    pairs = [(m, f) for m in singles if m.gender == MALE
             for f in singles if f.gender == FEMALE and f.house != m.house]
    if not pairs:
        return None
    man, woman = run.faults.choice(pairs)
    link_partners(state, man, woman)
    return man.id


def _removed_house(run):
    """No mutator removes a house: an occupied one is dropped directly."""
    state = run.state
    occupied = [h for h in state.houses.values() if h.occupants]
    house = state.houses.pop(run.faults.choice(occupied).id)
    state.towns[house.town].houses.discard(house.id)
    return min(house.occupants)


def _overwritten_house(run):
    """An occupied house's record replaced under its own id, off the
    grid: no mutator writes a house record."""
    state = run.state
    old = run.faults.choice([h for h in state.houses.values()
                             if h.occupants])
    state.houses[old.id] = House(id=old.id, town=old.town, local_xy=(0, 0),
                                 occupants=set(old.occupants))
    return old.id


# fault -> (injection, the label that must flag it)
MUTATOR_FAULTS = {
    "off_grid_house": (_off_grid_house, "a_s_house_xy_bounds"),
    "married_minor": (_married_minor, "a_p_marriage_age"),
    "relinked_spouse": (_relinked_spouse, "a_p_marriage_age"),
    "unflagged_birth": (_unflagged_birth, "a_p_married_gives_birth"),
    "resurrection": (_resurrection, "a_p_no_adoption"),
    "homeless": (_homeless, "a_homeless"),
    "unrelated_move": (_unrelated_move, "a_housing_kinship"),
    "adult_stays_home": (_adult_stays_home, "a_adult_moves_out"),
    "dead_keeps_house": (_dead_keeps_house, "a_dead_no_house"),
    "divorce_stays": (_divorce_stays, "a_divorce_male_moves"),
    "unmerged_marriage": (_unmerged_marriage, "a_marriage_housing"),
    "removed_house": (_removed_house, "a_homeless"),
    "overwritten_house": (_overwritten_house, "a_s_house_xy_bounds"),
}
FAULT_SEEDS = (5, 6)
# seed 22 with births first removes a house that a marriage merges into
FAULT_RUNS = [
    pytest.param(seed, order, id=f"{seed}-{','.join(order[1:])}")
    for seed, order in [*product(FAULT_SEEDS, ORDERS), (22, ORDERS[1])]]


class FaultRun(SeededRun):
    """A warn-mode run that injects every fault of `table` (by default
    MUTATOR_FAULTS) once at each of `timings` (by default right after
    ageing and after step() returns). Each injection has a seeded step;
    one that finds no target there is retried at the next."""

    def __init__(self, seed: int, order: tuple[str, ...],
                 table=MUTATOR_FAULTS, timings=("inside", "after")) -> None:
        super().__init__(seed, order)
        self.table = table
        steps = self.faults.sample(range(2, STEPS - 20),
                                   len(timings) * len(table))
        self.pending = [(at, when, name) for (name, when), at in zip(
            [(n, w) for n in table for w in timings], steps)]
        self.injected: list[tuple[str, int]] = []  # (fault, id) this step

    def inject(self, when: str) -> None:
        now = self.state.time.step_index
        for fault in [f for f in self.pending
                      if f[0] <= now and f[1] == when]:
            key = self.table[fault[2]][0](self)
            if key is not None:
                self.pending.remove(fault)
                self.injected.append((fault[2], key))

    def advance(self) -> None:
        self.injected = []
        step(self.state, self.ctx, self.snaps, self.rng, self.order)
        self.inject("after")


@pytest.mark.parametrize("seed,order", FAULT_RUNS)
def test_mutator_faults_match_oracle(monkeypatch, seed, order):
    run = FaultRun(seed, order)
    real_ageing = events.ageing

    def ageing(state, ctx, rng, outcome):
        real_ageing(state, ctx, rng, outcome)
        run.inject("inside")

    monkeypatch.setattr(events, "ageing", ageing)
    kept = build_registry(order)
    entries = every_step_entries(build_registry(order))
    flagged = set()
    for _ in range(STEPS):
        run.advance()
        expected = oracle.check_step(run.state, run.snaps, order)
        assert check_step(run.state, run.snaps, kept) == expected
        assert check_step(run.state, run.snaps,
                          build_registry(order)) == expected
        assert one_at_a_time(entries, run.state, run.snaps) == expected
        flagged |= {name for name, key in run.injected
                    if any(v.label == MUTATOR_FAULTS[name][1] and key in v.ids
                           for v in expected)}
    assert not run.pending
    # every fault must show, or the comparison proves nothing
    assert flagged == set(MUTATOR_FAULTS)


@pytest.mark.parametrize("order", CHAIN_ORDERS)
@pytest.mark.parametrize("seed", sorted(CHAIN_RUNS))
def test_hourly_chain_checks_match_oracle(seed, order):
    """The hourly config of the per-step digest chains, where most steps
    journal nothing: check_step with a kept registry and the every-step
    entries called one at a time must match the oracle at every step."""
    config = chain_config(seed, "hourly", order)
    rng = random.Random(seed)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    kept = build_registry(config.event_order)
    entries = every_step_entries(build_registry(config.event_order))
    idle = 0
    for i in range(1, CHAIN_CLOCKS["hourly"] + 1):
        step(state, ctx, snaps, rng, config.event_order)
        expected = oracle.check_step(state, snaps, config.event_order)
        assert check_step(state, snaps, kept) == expected
        assert one_at_a_time(entries, state, snaps) == expected
        idle += state.journal.since(i - 1) == (set(), set())
    assert idle > CHAIN_CLOCKS["hourly"] // 2


# the faults still flagged one step after they are written: a birth and an
# 18th birthday are step changes only at the step they happen
PERSISTENT_FAULTS = set(MUTATOR_FAULTS) - {"unflagged_birth",
                                           "adult_stays_home"}


@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_faults_written_after_the_check_match_oracle(seed):
    """Every fault of MUTATOR_FAULTS injected once after check_step has
    evaluated step k, so written at step k but after the kept registry's
    last evaluation: at step k + 1 the kept registry must still return
    exactly the oracle's list."""
    run = FaultRun(seed, DEFAULT_EVENT_ORDER)
    run.pending = [(at, "checked", name) for at, when, name in run.pending
                   if when == "after"]
    kept = build_registry()
    flagged = set()
    for _ in range(STEPS):
        written_after_check = run.injected
        run.advance()
        expected = oracle.check_step(run.state, run.snaps,
                                     DEFAULT_EVENT_ORDER)
        assert check_step(run.state, run.snaps, kept) == expected
        flagged |= {name for name, key in written_after_check
                    if any(v.label == MUTATOR_FAULTS[name][1]
                           and key in v.ids for v in expected)}
        run.inject("checked")
    assert not run.pending
    # faults that still show a step later, or the comparison proves nothing
    assert flagged >= PERSISTENT_FAULTS


# clock -> steps stepped in lockstep
LOCKSTEP_CLOCKS = {"monthly": 180, "weekly": 156, "hourly": 400, "1000": 300}
# seed -> params; seed 2 clamps every woman over 17 to MAX_YEARLY_RATE,
# where the death lookup equals its ceiling, and divorces and marries often
LOCKSTEP_RUNS = {1: {},
                 2: {"female_age_scaling": "2", "basic_divorce_rate": "0.9",
                     "basic_male_marriage_rate": "0.9"}}


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(o[1:]))
@pytest.mark.parametrize("clock", sorted(LOCKSTEP_CLOCKS))
@pytest.mark.parametrize("seed", sorted(LOCKSTEP_RUNS))
def test_screened_kernels_match_oracle_in_lockstep(seed, clock, order):
    config = build_config({"initial_pop": "120", "delta_t": clock,
                           "t0": "2020", "t_final": "2100",
                           "seed": str(seed), **LOCKSTEP_RUNS[seed]})
    spy = config.sim.steps_per_year
    twins = []
    for rates, stepper in ((RateContext, step), (oracle.MemoRates,
                                                 oracle.step)):
        rng = random.Random(seed)
        state, _ = init_world(config.model, config.sim, config.data,
                              config.density, rng)
        snaps = SnapshotStore()
        snaps.freeze(state)
        twins.append((stepper, state, rates(config.model, config.data, spy),
                      snaps, rng))
    live, frozen = twins
    if LOCKSTEP_RUNS[seed]:
        ctx, women = live[2], [p for p in live[1].persons.values()
                               if p.gender == FEMALE and p.age_steps > 0]
        assert any(ctx.death_p_step(p) == ctx.death_ceiling for p in women)
    events_seen = 0
    for _ in range(LOCKSTEP_CLOCKS[clock]):
        outcome, _ = [stepper(state, ctx, snaps, rng, order)
                      for stepper, state, ctx, snaps, rng in twins]
        assert live[4].getstate() == frozen[4].getstate()
        assert state_digest(live[1]) == state_digest(frozen[1])
        events_seen += outcome.deaths + outcome.births + outcome.divorces
    if LOCKSTEP_RUNS[seed]:
        assert events_seen > 0


def test_age_setter_lowers_the_death_screen():
    """Living men made 130 years old by the age setter mid-run, on a
    monthly clock where their band is death_ceiling, 1: each dies at their
    next draw, which the screen passes over unless its bound on the oldest
    birth step is lowered when the roster reads them again. Twin worlds
    stepped by the live kernels and by the oracle's, whose deaths reads
    every rate, must hold the same dead and the same RNG state."""
    config = build_config({"initial_pop": "120", "delta_t": "monthly",
                           "t0": "2020", "t_final": "2100", "seed": "1"})
    spy = config.sim.steps_per_year
    twins = []
    for rates, stepper in ((RateContext, step), (oracle.MemoRates,
                                                 oracle.step)):
        rng = random.Random(1)
        state, _ = init_world(config.model, config.sim, config.data,
                              config.density, rng)
        snaps = SnapshotStore()
        snaps.freeze(state)
        twins.append((stepper, state, rates(config.model, config.data, spy),
                      snaps, rng))
    ctx = twins[0][2]
    assert ctx.death_band(MALE, 130) == ctx.death_ceiling == 1.0
    aged = []
    for i in range(1, 61):
        if i % 12 in (4, 9):  # away from the screen's yearly refresh
            pid = min(pid for pid, p in twins[0][1].persons.items()
                      if p.alive and p.gender == MALE
                      and p.age_steps < 100 * spy)
            for _, state, *_ in twins:
                state.persons[pid].age_steps = 130 * spy
            aged.append(pid)
        for stepper, state, ctx, snaps, rng in twins:
            stepper(state, ctx, snaps, rng, DEFAULT_EVENT_ORDER)
        (_, live, *_, live_rng), (_, frozen, *_, frozen_rng) = twins
        assert live_rng.getstate() == frozen_rng.getstate()
        assert {pid for pid, p in live.persons.items() if not p.alive} == \
            {pid for pid, p in frozen.persons.items() if not p.alive}
    assert aged and not any(live.persons[pid].alive for pid in aged)


# The lockstep snapshot runs freeze, at every step, both the store's
# snapshot, which shares the columns no journaled person changed, and the
# oracle's full copy; after every step the store's newest and previous
# snapshots must equal the full copies taken at their freezes. The other
# tests here hand the oracle the store's own snapshots, so a wrong one
# would go unseen there.

SNAPSHOT_FIELDS = ("step_index", "known", "alive", "partner", "house",
                   "gave_birth")


class CheckedStore(SnapshotStore):
    """A store that takes the oracle's full copy at each freeze too."""

    def __init__(self) -> None:
        super().__init__()
        self.reference: deque = deque(maxlen=2)

    def freeze(self, state):
        self.reference.append(oracle.FullSnapshot(state))
        return super().freeze(state)

    def assert_matches(self, now: int) -> None:
        """The newest snapshot and the one before `now` equal the full
        copies taken when they were frozen."""
        for snap, ref in ((self.newest(), self.reference[-1]),
                          (self.before(now), self.reference[-2])):
            assert {f: getattr(snap, f) for f in SNAPSHOT_FIELDS} == \
                {f: getattr(ref, f) for f in SNAPSHOT_FIELDS}


# the fault runs, and seed 22 births first, which removes an occupied house
@pytest.mark.parametrize("seed,order", FAULT_RUNS)
def test_snapshots_match_full_copies_under_faults(monkeypatch, seed, order):
    """Faults injected after ageing and after the step, as in
    test_mutator_faults_match_oracle."""
    run = FaultRun(seed, order)
    run.snaps = CheckedStore()
    run.snaps.freeze(run.state)
    real_ageing = events.ageing

    def ageing(state, ctx, rng, outcome):
        real_ageing(state, ctx, rng, outcome)
        run.inject("inside")

    monkeypatch.setattr(events, "ageing", ageing)
    for _ in range(STEPS):
        run.advance()
        run.snaps.assert_matches(run.state.time.step_index)
    assert not run.pending


@pytest.mark.parametrize("order", CHAIN_ORDERS)
@pytest.mark.parametrize("clock", sorted(CHAIN_CLOCKS))
@pytest.mark.parametrize("seed", sorted(CHAIN_RUNS))
def test_snapshots_match_full_copies_on_chain_configs(seed, clock, order):
    """The fault-free configs of the per-step digest chains."""
    config = chain_config(seed, clock, order)
    rng = random.Random(seed)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = CheckedStore()
    snaps.freeze(state)
    for _ in range(CHAIN_CLOCKS[clock]):
        step(state, ctx, snaps, rng, config.event_order)
        snaps.assert_matches(state.time.step_index)


def test_idle_steps_share_the_previous_columns():
    """After step 1, a step whose journal window is empty freezes no
    column anew: the newest snapshot holds the previous one's objects."""
    config = build_config({"initial_pop": "200", "delta_t": "hourly",
                           "t0": "2020", "t_final": "2021", "seed": "1"})
    rng = random.Random(1)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    idle = busy = 0
    for i in range(1, 24 * 120 + 1):
        step(state, ctx, snaps, rng)
        new, old = snaps.newest(), snaps.before(i)
        if i == 1 or state.journal.since(i - 1) != (set(), set()):
            busy += 1
            continue
        idle += 1
        assert new.alive is old.alive
        assert new.partner is old.partner
        assert new.house is old.house
    assert idle > 2500 and busy > 3


# The census runs compare, after every step, the counts the person writes
# keep (WorldState.census) with the oracle's recount over everyone on
# record, and each freeze's gave_birth column with the oracle's full copy.

class CensusStore(SnapshotStore):
    """A store that checks the gave_birth column of each freeze."""

    def freeze(self, state):
        snap = super().freeze(state)
        assert snap.gave_birth == oracle.FullSnapshot(state).gave_birth
        return snap


@pytest.mark.parametrize("seed,order", FAULT_RUNS)
def test_census_matches_recount_under_faults(monkeypatch, seed, order):
    """The fault runs, whose resurrection writes `alive` directly."""
    run = FaultRun(seed, order)
    run.snaps = CensusStore()
    run.snaps.freeze(run.state)
    real_ageing = events.ageing

    def ageing(state, ctx, rng, outcome):
        real_ageing(state, ctx, rng, outcome)
        run.inject("inside")

    monkeypatch.setattr(events, "ageing", ageing)
    for _ in range(STEPS):
        run.advance()
        assert run.state.census() == oracle.census(run.state)
    assert not run.pending


@pytest.mark.parametrize("order", CHAIN_ORDERS)
@pytest.mark.parametrize("clock", sorted(CHAIN_CLOCKS))
@pytest.mark.parametrize("seed", sorted(CHAIN_RUNS))
def test_census_matches_recount_on_chain_configs(seed, clock, order):
    config = chain_config(seed, clock, order)
    rng = random.Random(seed)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = CensusStore()
    snaps.freeze(state)
    for _ in range(CHAIN_CLOCKS[clock]):
        step(state, ctx, snaps, rng, config.event_order)
        assert state.census() == oracle.census(state)


# The empty-house runs append a time-series row after every step and
# compare its houses_empty, kept from the change window, with the
# oracle's recount over every house.

_EMPTY = TIMESERIES_HEADER.index("houses_empty")


@pytest.mark.parametrize("seed,order", FAULT_RUNS)
def test_houses_empty_matches_recount_under_faults(monkeypatch, seed, order):
    """The fault runs, whose removed and overwritten houses the house
    records journal."""
    run = FaultRun(seed, order)
    series = TimeSeries()
    series.append(run.state, 0, 0, 0, 0, 0, 0)
    real_ageing = events.ageing

    def ageing(state, ctx, rng, outcome):
        real_ageing(state, ctx, rng, outcome)
        run.inject("inside")

    monkeypatch.setattr(events, "ageing", ageing)
    for i in range(1, STEPS + 1):
        run.advance()
        series.append(run.state, i, 0, 0, 0, 0, 0)
        assert series.rows[-1][_EMPTY] == oracle.houses_empty(run.state)
    assert not run.pending


@pytest.mark.parametrize("order", CHAIN_ORDERS)
@pytest.mark.parametrize("clock", sorted(CHAIN_CLOCKS))
@pytest.mark.parametrize("seed", sorted(CHAIN_RUNS))
def test_houses_empty_matches_recount_on_chain_configs(seed, clock, order):
    config = chain_config(seed, clock, order)
    rng = random.Random(seed)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    series = TimeSeries()
    series.append(state, 0, 0, 0, 0, 0, 0)
    for i in range(1, CHAIN_CLOCKS[clock] + 1):
        step(state, ctx, snaps, rng, config.event_order)
        series.append(state, i, 0, 0, 0, 0, 0)
        assert series.rows[-1][_EMPTY] == oracle.houses_empty(state)


# The reaching-window runs record, at every step, the ids of each
# journal note with the step it is made at, and clock_turned(); then, for
# every earlier step k that changed_since answers, the answer must hold
# every id noted at k or later and every clock cohort of k + 1 to now.

class NoteLog:
    """Records every Journal.note with its step, and each step's clock
    cohorts, and checks each changed_since answer against them."""

    def __init__(self, monkeypatch) -> None:
        self.noted: dict[int, tuple[set, set]] = {}
        self.turned: dict[int, set] = {}
        real = Journal.note

        def note(journal, at, persons=(), houses=()):
            persons, houses = list(persons), list(houses)
            ids = self.noted.setdefault(at, (set(), set()))
            ids[0].update(persons)
            ids[1].update(houses)
            real(journal, at, persons, houses)

        monkeypatch.setattr(Journal, "note", note)

    def assert_reaches(self, state: WorldState) -> int:
        """Check every step the answer reaches back to; return how many."""
        now = state.time.step_index
        self.turned[now] = state.clock_turned()
        persons, houses, reached = set(), set(), 0
        for k in range(now, -1, -1):
            noted = self.noted.get(k, ((), ()))
            persons.update(noted[0])
            houses.update(noted[1])
            window = state.changed_since(k)
            if window is not None:
                assert persons <= window[0] and houses <= window[1], k
                reached += 1
            persons |= self.turned[k] if k in self.turned else set()
        return reached


@pytest.mark.parametrize("seed,order", FAULT_RUNS)
def test_window_reaches_back_soundly_under_faults(monkeypatch, seed, order):
    run = FaultRun(seed, order)
    log = NoteLog(monkeypatch)
    real_ageing = events.ageing

    def ageing(state, ctx, rng, outcome):
        real_ageing(state, ctx, rng, outcome)
        run.inject("inside")

    monkeypatch.setattr(events, "ageing", ageing)
    for _ in range(STEPS):
        run.advance()
        log.assert_reaches(run.state)
    assert not run.pending


@pytest.mark.parametrize("order", CHAIN_ORDERS)
@pytest.mark.parametrize("clock", sorted(CHAIN_CLOCKS))
@pytest.mark.parametrize("seed", sorted(CHAIN_RUNS))
def test_window_reaches_back_soundly_on_chain_configs(monkeypatch, seed,
                                                      clock, order):
    """Where most steps journal nothing, the answer reaches back over
    quiet runs of more than a step."""
    config = chain_config(seed, clock, order)
    log = NoteLog(monkeypatch)
    rng = random.Random(seed)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    deepest = 0
    for _ in range(CHAIN_CLOCKS[clock]):
        step(state, ctx, snaps, rng, config.event_order)
        deepest = max(deepest, log.assert_reaches(state))
    if clock == "hourly":
        assert deepest > 2


def test_one_series_handed_two_states():
    """A series appended from another state recounts, so two runs
    appended in turn to one series each match the oracle."""
    runs = [SeededRun(seed, DEFAULT_EVENT_ORDER) for seed in SEEDS[:2]]
    series = TimeSeries()
    for i in range(1, STEPS // 4):
        for run in runs:
            run.advance()
            series.append(run.state, i, 0, 0, 0, 0, 0)
            assert series.rows[-1][_EMPTY] == oracle.houses_empty(run.state)


# direct writes to the houses on record, which the house records journal
# -> the empty houses after them (family_state, whose two houses are
# occupied, and one empty house)
HOUSE_WRITES = {
    "dropped": (lambda s, t, h0, empty: _drop_house(s, empty), 0),
    "replaced_unallocated": (lambda s, t, h0, empty: _replace_house(s, h0),
                             2),
    "overwritten": (lambda s, t, h0, empty: s.houses.update(
        {h0.id: House(id=h0.id, town=t.id, local_xy=h0.local_xy)}), 2),
    "added": (lambda s, t, h0, empty: add_house(s, t, xy=(4, 4)), 2),
    "dropped_and_added": (lambda s, t, h0, empty: (
        _drop_house(s, h0), add_house(s, t, xy=(4, 4))), 2),
}


@pytest.mark.parametrize("case", sorted(HOUSE_WRITES))
def test_houses_empty_after_a_direct_house_write(case):
    """A house dropped, added, replaced or overwritten by a direct write
    between two rows is in the next row's window, which tests it again."""
    state, town, (h0, _), _ = family_state()
    empty = add_house(state, town, xy=(3, 3))
    write, after = HOUSE_WRITES[case]
    series = TimeSeries()
    for now in range(3):
        state.time.step_index = now
        if now == 2:
            write(state, town, h0, empty)
        series.append(state, now, 0, 0, 0, 0, 0)
        assert series.rows[-1][_EMPTY] == oracle.houses_empty(state)
    assert [row[_EMPTY] for row in series.rows] == [1, 1, after]


def test_a_house_roster_sweep_is_ascending():
    """A house dropped and put back sits last among the house records, so
    a house roster's sweep sorts: its list is in ascending id, as the
    reads of later windows, which bisect it, need."""
    state, town, (h0, _), _ = family_state()
    empty = add_house(state, town, xy=(3, 3))
    _drop_house(state, h0)
    state.houses[h0.id] = House(id=h0.id, town=town.id, local_xy=(1, 1))
    town.houses.add(h0.id)
    assert list(state.houses)[-1] == h0.id
    assert state.roster(_unoccupied, houses=True) == [h0.id, empty.id]


def test_houses_empty_when_the_first_row_is_past_step_0():
    """The first row starts the journal, so a move made at the step of a
    first row past step 0, on a state nothing else has read, is in the
    window of the next row."""
    state, town, _, (_, _, kid, _) = family_state()
    empty = add_house(state, town, xy=(3, 3))
    series = TimeSeries()
    state.time.step_index = 1
    series.append(state, 1, 0, 0, 0, 0, 0)
    move_person(state, kid, empty)
    state.time.step_index = 2
    series.append(state, 2, 0, 0, 0, 0, 0)
    assert [row[_EMPTY] for row in series.rows] == [1, 0]
    assert series.rows[-1][_EMPTY] == oracle.houses_empty(state)


def test_census_follows_direct_writes():
    """A hand-built state written directly after its first freeze, as
    tests and faults do: alive, gender, age and gave_birth, on persons on
    record then and on persons added after."""
    rng = random.Random(7)
    state = WorldState()
    town = add_town(state)
    home = add_house(state, town)
    for _ in range(40):
        age = rng.randrange(80 * DAILY)
        move_person(state, state.add_person(rng.choice((MALE, FEMALE)), age,
                                            -age), home)
    snaps = CensusStore()
    snaps.freeze(state)
    written = Counter()
    for i in range(1, 30):
        state.time.step_index = i
        if rng.random() < 0.5:
            state.add_person(rng.choice((MALE, FEMALE)), 0, i)
        for p in rng.sample(list(state.persons.values()), 6):
            field = rng.choice(("alive", "gender", "age_steps",
                                "gave_birth"))
            written[field] += 1
            value = {"alive": not p.alive,
                     "gender": FEMALE if p.gender == MALE else MALE,
                     "age_steps": rng.randrange(80 * DAILY),
                     "gave_birth": not p.gave_birth}[field]
            setattr(p, field, value)
        assert state.census() == oracle.census(state)
        snaps.freeze(state)
    assert min(written.values()) > 10


# The roster runs wrap WorldState.roster: after every read, the roster
# must equal the full scan over everyone on record with its predicate, and
# each event's roster the full scan the event made before rosters: the
# oracle's reproducible_women, the married-man scan of divorces, the scan
# of the living past their birth step of the oracle's deaths, and
# marriage_eligible, once the previous step's marriages are taken out.

def check_rosters(monkeypatch, snaps: SnapshotStore) -> Counter:
    """Compare every roster read from now on; returns the reads per
    predicate."""
    real, reads = WorldState.roster, Counter()
    single = {events._single_man: MALE, events._single_woman: FEMALE}

    def roster(state, holds):
        ids = real(state, holds)
        persons = state.persons
        assert ids == [pid for pid, p in persons.items() if holds(state, p)]
        if holds is events._fertile_wife:
            assert ids == [p.id for p in reproducible_women(state)]
        elif holds is events._married_man:
            assert ids == [p.id for p in persons.values()
                           if p.partner is not None and p.gender == MALE
                           and p.alive]
        elif holds is events._mortal:
            assert ids == [p.id for p in persons.values()
                           if p.alive and p.age_steps > 0]
        else:
            prev = snaps.before(state.time.step_index)
            assert [pid for pid in ids if pid not in prev.married] == \
                [p.id for p in marriage_eligible(state, prev, single[holds])]
        reads[holds] += 1
        return ids

    monkeypatch.setattr(WorldState, "roster", roster)
    return reads


@pytest.mark.parametrize("seed,order", FAULT_RUNS)
def test_rosters_match_full_scans_under_faults(monkeypatch, seed, order):
    """Faults injected after ageing and after the step, as in
    test_mutator_faults_match_oracle; each of the five event rosters is
    read once a step, so every read after step 1 refreshes from the
    journal."""
    run = FaultRun(seed, order)
    reads = check_rosters(monkeypatch, run.snaps)
    real_ageing = events.ageing

    def ageing(state, ctx, rng, outcome):
        real_ageing(state, ctx, rng, outcome)
        run.inject("inside")

    monkeypatch.setattr(events, "ageing", ageing)
    for _ in range(STEPS):
        run.advance()
    assert not run.pending
    assert sorted(reads.values()) == [STEPS] * 5


@pytest.mark.parametrize("order", CHAIN_ORDERS)
@pytest.mark.parametrize("clock", sorted(CHAIN_CLOCKS))
@pytest.mark.parametrize("seed", sorted(CHAIN_RUNS))
def test_rosters_match_full_scans_on_chain_configs(monkeypatch, seed, clock,
                                                   order):
    """The fault-free configs of the per-step digest chains."""
    config = chain_config(seed, clock, order)
    rng = random.Random(seed)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    reads = check_rosters(monkeypatch, snaps)
    for _ in range(CHAIN_CLOCKS[clock]):
        step(state, ctx, snaps, rng, config.event_order)
    assert sorted(reads.values()) == [CHAIN_CLOCKS[clock]] * 5


def test_idle_roster_refresh_evaluates_nobody():
    """After step 1, a roster refresh evaluates its predicate only for the
    journaled persons, their parents and the cohorts the clock moved, each
    once; so for nobody when all three are empty."""
    config = build_config({"initial_pop": "200", "delta_t": "hourly",
                           "t0": "2020", "t_final": "2021", "seed": "1"})
    rng = random.Random(1)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    evaluated = []

    def fertile_wife(state, p):
        evaluated.append(p.id)
        return events._fertile_wife(state, p)

    idle = busy = 0
    for i in range(1, 24 * 120 + 1):
        step(state, ctx, snaps, rng)
        evaluated.clear()
        state.roster(fertile_wife)
        if i == 1:
            assert len(evaluated) == len(state.persons)
            continue
        written = state.journal.since(i - 1)[0]
        window = written | state.clock_turned() | {
            q for pid in written for q in (state.persons[pid].mother,
                                           state.persons[pid].father)
            if q is not None}
        assert set(evaluated) <= window
        assert len(evaluated) == len(set(evaluated))
        if window:
            busy += 1
        else:
            idle += 1
            assert evaluated == []
    assert idle > 2500 and busy > 3


def test_age_setter_keeps_rosters_current():
    """A roster read after step 1 refreshes from the journal, so the age
    setter journals the person: a single woman made a minor leaves the
    roster of single adults at the next read."""
    state, _, _, (_, _, _, single) = family_state()
    ctx = RateContext(ModelParams(), default_model_data(), DAILY)
    snaps, rng = SnapshotStore(), random.Random(1)
    snaps.freeze(state)
    for _ in range(2):
        step(state, ctx, snaps, rng, ("ageing", "marriages"))
    holds = events._single_woman
    assert state.roster(holds) == [single.id]
    single.age_steps = 17 * DAILY
    state.time.step_index += 1
    assert state.roster(holds) == [
        pid for pid, p in state.persons.items() if holds(state, p)] == []


# The direct-write runs write person fields past every mutator, as a test
# or a buggy event might, once after step() and once after that step's
# check_step. Each write returns the id its violation must name: the
# written person, or the old partner whose link no longer points back.

def _married(run) -> list:
    return [p for p in _adults(run.state) if p.partner is not None]


def _write_dead(run):
    """Dead, but still housed and partnered."""
    p = run.faults.choice(_adults(run.state))
    p.alive = False
    return p.id


def _write_unhoused(run):
    """No house, but still listed by the house left."""
    p = run.faults.choice(_adults(run.state))
    p.house = None
    return p.id


def _write_rehoused(run):
    """Another house's id: not listed there, still listed by the house
    left, whose stale occupant names the person."""
    p = run.faults.choice(_adults(run.state))
    p.house = run.faults.choice([h for h in run.state.houses if h != p.house])
    return p.id


def _write_stolen_partner(run):
    """A married person points at the partner of another of their gender."""
    married = _married(run)
    p = run.faults.choice(married)
    rivals = [q for q in married
              if q.gender == p.gender and q.partner != p.partner]
    if not rivals:
        return None
    old, p.partner = p.partner, run.faults.choice(rivals).partner
    return old


def _write_cleared_partner(run):
    p = run.faults.choice(_married(run))
    old, p.partner = p.partner, None
    return old


def _write_birth_flag(run):
    """A flag with no neonate, which no event clears."""
    p = run.faults.choice(_adults(run.state, gender=FEMALE,
                                  gave_birth=False))
    p.gave_birth = True
    return p.id


def _write_minor_age(run):
    """A married adult made a minor by the age setter."""
    p = run.faults.choice(_married(run))
    p.age_steps = (ADULT_YEARS - 1) * run.state.time.steps_per_year
    return p.id


# write -> (injection, the label that must flag it at its step)
PERSON_WRITES = {
    "dead": (_write_dead, "a_dead_no_house"),
    "unhoused": (_write_unhoused, "a_homeless"),
    "rehoused": (_write_rehoused, "a_dead_no_house"),
    "stolen_partner": (_write_stolen_partner, "a_p_marriage_age"),
    "cleared_partner": (_write_cleared_partner, "a_p_marriage_age"),
    "birth_flag": (_write_birth_flag, "a_p_married_gives_birth"),
    "minor_age": (_write_minor_age, "a_p_marriage_age"),
}


@pytest.mark.parametrize("seed", (3, 5))
def test_direct_person_writes_match_oracle(monkeypatch, seed):
    """After the first freeze every person write is journaled, with the
    old partner and the old house: at every step a kept registry and a
    fresh one return the oracle's list, both snapshots equal the oracle's
    full copies, every roster read equals the oracle's scan and the
    census its recount."""
    run = FaultRun(seed, DEFAULT_EVENT_ORDER, PERSON_WRITES,
                   ("after", "checked"))
    run.snaps = CheckedStore()
    run.snaps.freeze(run.state)
    reads = check_rosters(monkeypatch, run.snaps)
    kept, flagged = build_registry(), set()
    for _ in range(STEPS):
        run.advance()
        now = run.state.time.step_index
        expected = oracle.check_step(run.state, run.snaps,
                                     DEFAULT_EVENT_ORDER)
        assert check_step(run.state, run.snaps, kept) == expected
        assert check_step(run.state, run.snaps, build_registry()) == expected
        run.snaps.assert_matches(now)
        assert run.state.census() == oracle.census(run.state)
        flagged |= {name for name, key in run.injected
                    if any(v.label == PERSON_WRITES[name][1] and key in v.ids
                           for v in expected)}
        run.inject("checked")
    assert not run.pending
    # every write must show, or the comparison proves nothing
    assert flagged == set(PERSON_WRITES)
    assert sorted(reads.values()) == [STEPS] * 5


# The index-write runs write, in the same way, the fields that the
# birth-step index and the kinship index file a person by.

def _children_at_home(run) -> list:
    """Living single minors who share their house with a live parent,
    ascending id."""
    state = run.state
    persons, adult_born = state.persons, state.time.born_years_ago(ADULT_YEARS)
    return [p for p in persons.values()
            if p.alive and p.partner is None and p.born_step > adult_born
            and p.house in state.houses
            and any(q in persons and persons[q].alive
                    and persons[q].house == p.house
                    for q in (p.father, p.mother))]


def _write_adult_birth_step(run):
    """Exactly 18 now by a born_step write, so ageing passed them over."""
    p = run.faults.choice(_children_at_home(run))
    p.born_step = run.state.time.born_years_ago(ADULT_YEARS)
    return p.id


def _write_cleared_parents(run):
    """No parent links, so no kin of the parent they live with."""
    p = run.faults.choice(_children_at_home(run))
    p.father = p.mother = None
    return p.id


# write -> (injection, the label that must flag it at its step)
INDEX_WRITES = {
    "adult_birth_step": (_write_adult_birth_step, "a_adult_moves_out"),
    "cleared_parents": (_write_cleared_parents, "a_housing_kinship"),
}


@pytest.mark.parametrize("seed", (3, 5))
def test_direct_index_writes_match_oracle(seed):
    """A born_step or parent-link write past every mutator refiles the
    person in the birth-step index or rebuilds the kinship index: at every
    step a kept registry and a fresh one return the oracle's list."""
    run = FaultRun(seed, DEFAULT_EVENT_ORDER, INDEX_WRITES,
                   ("after", "checked"))
    kept, flagged = build_registry(), set()
    for _ in range(STEPS):
        run.advance()
        expected = oracle.check_step(run.state, run.snaps,
                                     DEFAULT_EVENT_ORDER)
        assert check_step(run.state, run.snaps, kept) == expected
        assert check_step(run.state, run.snaps, build_registry()) == expected
        flagged |= {name for name, key in run.injected
                    if any(v.label == INDEX_WRITES[name][1] and key in v.ids
                           for v in expected)}
        run.inject("checked")
    assert not run.pending
    # every write must show, or the comparison proves nothing
    assert flagged == set(INDEX_WRITES)


def _rehouse(state, house, **changes):
    """Store a copy of a house with the changed fields under its id."""
    state.houses[house.id] = replace(house, **changes)


# house records rewritten between two steps -> the label that must flag
# them
HOUSE_FIELD_WRITES = {
    "local_xy": (lambda s, h: _rehouse(s, h, local_xy=(0, 0)),
                 "a_s_house_xy_bounds"),
    "occupants": (lambda s, h: _rehouse(s, h, occupants=set()),
                  "a_homeless"),
}


@pytest.mark.parametrize("case", sorted(HOUSE_FIELD_WRITES))
def test_house_field_write_after_an_idle_step_matches_oracle(case):
    """A seed-1 hourly warn-mode Run is idle at step 40: its window is
    EMPTY_WINDOW. The lowest-id occupied house replaced then by a copy with
    one field changed is journaled by the house records, so the run's next
    step reports the oracle's list, which flags the write."""
    run = Run(build_config({"initial_pop": "200", "delta_t": "hourly",
                            "t0": "2020", "t_final": "2021", "seed": "1",
                            "verification_mode": "warn"}))
    for _ in range(40):
        run.advance()
    assert run.state.changed_since(40) is EMPTY_WINDOW
    house = min((h for h in run.state.houses.values() if h.occupants),
                key=lambda h: h.id)
    write, label = HOUSE_FIELD_WRITES[case]
    write(run.state, house)
    before = len(run.violations)
    run.advance()
    expected = oracle.check_step(run.state, run.snaps, DEFAULT_EVENT_ORDER)
    assert any(v.label == label for v in expected)
    assert run.violations[before:] == expected


@pytest.mark.parametrize("order", CHAIN_ORDERS)
def test_pickled_registry_checks_as_the_original(order):
    """A registry is plain data: pickled and loaded back, it returns on a
    warn-mode fault run, at every step, the list the original returns on
    a twin of that run, and the faults show."""
    order = tuple(order.split(","))
    registry = build_registry(order)
    loaded = pickle.loads(pickle.dumps(registry))
    runs = [FaultRun(FAULT_SEEDS[0], order, timings=("after",))
            for _ in range(2)]
    found = 0
    for _ in range(STEPS):
        for run in runs:
            run.advance()
        got = check_step(runs[0].state, runs[0].snaps, registry)
        assert check_step(runs[1].state, runs[1].snaps, loaded) == got
        found += len(got)
    assert found


def _drop_house(state, house):
    del state.houses[house.id]
    state.towns[house.town].houses.discard(house.id)


def _replace_house(state, house):
    """Drop a house and insert one under the next id without allocating
    it, so the count of houses and the next house id stay as they were."""
    _drop_house(state, house)
    hid = state.next_house_id
    state.houses[hid] = House(id=hid, town=house.town, local_xy=(3, 3))
    state.towns[house.town].houses.add(hid)


def _retown(state, town, **changes):
    """Store a copy of a town with the changed fields under its id."""
    state.towns[town.id] = replace(town, **changes)


# direct writes to the space between two steps -> whether a check must fire
SPACE_WRITES = {
    "density": (lambda s, t, h: _retown(s, t, density=0.9), True),
    "grid_xy": (lambda s, t, h: _retown(s, t, grid_xy=(9, 9)), True),
    "density_restored": (lambda s, t, h: _retown(s, t, density=t.density),
                         False),
    "town_added": (lambda s, t, h: add_town(s, grid_xy=(3, 3)), True),
    "town_removed": (lambda s, t, h: s.towns.pop(1), True),
    "town_rekeyed": (lambda s, t, h: s.towns.update({0: s.towns.pop(0)}),
                     False),
    "house_added": (lambda s, t, h: add_house(s, t), False),
    "house_removed": (lambda s, t, h: _drop_house(s, h), True),
    "house_rekeyed": (lambda s, t, h: s.houses.update(
        {h.id: s.houses.pop(h.id)}), False),
    "house_replaced_unallocated": (lambda s, t, h: _replace_house(s, h),
                                   True),
}


@pytest.mark.parametrize("case", sorted(SPACE_WRITES))
def test_space_checks_match_set_diff(case):
    """check_retrospective reports what the frozenset diff of the space
    reports, label for label and id for id."""
    state, town, (h0, _), _ = family_state()
    add_town(state, grid_xy=(2, 2))
    before, sets_before = SpaceDigest.of(state), oracle.SpaceSets.of(state)
    write, fires = SPACE_WRITES[case]
    write(state, town, h0)
    state.time.step_index = 1
    got = check_retrospective(before, state)
    assert got == oracle.space_changes(sets_before,
                                       oracle.SpaceSets.of(state), 1)
    assert bool(got) == fires


# The space lockstep: after every step, check_space, which reads the
# journal and the town write count, must return what space_changes finds
# between the SpaceDigests of this step and the last.

SPACE_LABELS = {"a_s_static_towns", "a_s_house_persistence"}


def _readd_town(state, town, house):
    """Drop a town and add it back under its id as a new record with half
    the density."""
    old = state.towns.pop(town.id)
    state.towns[old.id] = Town(id=old.id, grid_xy=old.grid_xy,
                               density=old.density / 2, houses=old.houses)


def _readd_house(state, town, house):
    """Drop a house and add it back under its id as a new record."""
    old = state.houses.pop(house.id)
    state.houses[old.id] = House(id=old.id, town=old.town,
                                 local_xy=old.local_xy,
                                 occupants=old.occupants)


LOCKSTEP_SPACE_WRITES = {**SPACE_WRITES,
                         "town_readded": (_readd_town, True),
                         "house_readded": (_readd_house, False)}


@pytest.mark.parametrize("at", (0, 3))
@pytest.mark.parametrize("case", sorted(LOCKSTEP_SPACE_WRITES))
def test_check_space_matches_the_digest_on_direct_writes(case, at):
    """A space write made at step 0, which the journal forgets, so that
    check_space compares every house it kept, and at step 3, where it reads
    the window: either way it reports what space_changes reports, and
    nothing again at the step after."""
    state, town, (h0, _), _ = family_state()
    add_town(state, grid_xy=(2, 2))
    state.time.step_index = at
    assert check_space(state) == []
    before = SpaceDigest.of(state)
    write, fires = LOCKSTEP_SPACE_WRITES[case]
    write(state, town, h0)
    state.time.step_index = at + 1
    assert (state.changed_since(at) is None) == (at == 0)
    got = check_space(state)
    assert got == space_changes(before, SpaceDigest.of(state), at + 1)
    assert bool(got) == fires
    state.time.step_index = at + 2
    assert check_space(state) == []


def _halved_density(run):
    town = run.faults.choice(list(run.state.towns.values()))
    _retown(run.state, town, density=town.density / 2)
    return town.id


def _readded_town(run):
    town = run.faults.choice(list(run.state.towns.values()))
    _readd_town(run.state, town, None)
    return town.id


def _added_town(run):
    towns = run.state.towns
    tid = max(towns) + 1
    towns[tid] = Town(id=tid, grid_xy=(20, tid), density=0.5)
    return tid


def _dropped_house(run):
    state = run.state
    house = state.houses.pop(run.faults.choice(sorted(state.houses)))
    state.towns[house.town].houses.discard(house.id)
    return house.id


def _readded_house(run):
    house = run.state.houses[run.faults.choice(sorted(run.state.houses))]
    _readd_house(run.state, None, house)
    return house.id


# space fault -> (injection, the label that must flag it, or None when
# no check may); each returns the id its violation names
SPACE_FAULTS = {
    "halved_density": (_halved_density, "a_s_static_towns"),
    "readded_town": (_readded_town, "a_s_static_towns"),
    "added_town": (_added_town, "a_s_static_towns"),
    "dropped_house": (_dropped_house, "a_s_house_persistence"),
    "readded_house": (_readded_house, None),
}


def space_lockstep(run, monkeypatch) -> tuple[set, list]:
    """Step a FaultRun with its faults injected inside the step (right
    after ageing), after step() returns and, at the timing "checked",
    after check_space has read the step: after every step check_space must
    return what space_changes finds between the digest its last call saw
    and this step's. Returns the faults whose label named their id, and
    every space violation found."""
    real_ageing = events.ageing

    def ageing(state, ctx, rng, outcome):
        real_ageing(state, ctx, rng, outcome)
        run.inject("inside")

    monkeypatch.setattr(events, "ageing", ageing)
    assert check_space(run.state) == []
    flagged, found, before = set(), [], SpaceDigest.of(run.state)
    for i in range(1, STEPS + 1):
        written_after_check = run.injected
        run.advance()
        after = SpaceDigest.of(run.state)
        expected = space_changes(before, after, i)
        assert check_space(run.state) == expected
        found.extend(expected)
        flagged |= {name for name, key in written_after_check + run.injected
                    if any(v.label == run.table[name][1] and key in v.ids
                           for v in expected)}
        run.inject("checked")
        before = after
    assert not run.pending
    return flagged, found


@pytest.mark.parametrize("seed,order", FAULT_RUNS)
def test_check_space_matches_the_digest_under_faults(monkeypatch, seed,
                                                     order):
    """The fault runs, whose removed house, written inside a step and
    after one, is the only space fault among them, and fault runs of the
    space faults at each timing: every fault that drops a house or changes
    a town must show."""
    with monkeypatch.context() as patch:
        _, found = space_lockstep(FaultRun(seed, order), patch)
    assert [v.label for v in found] == ["a_s_house_persistence"] * 2
    flagged, _ = space_lockstep(
        FaultRun(seed, order, SPACE_FAULTS, ("inside", "after", "checked")),
        monkeypatch)
    assert flagged == {name for name, (_, label) in SPACE_FAULTS.items()
                       if label}


@pytest.mark.parametrize("order", CHAIN_ORDERS)
@pytest.mark.parametrize("clock", sorted(CHAIN_CLOCKS))
@pytest.mark.parametrize("seed", sorted(CHAIN_RUNS))
def test_run_space_checks_match_the_digest_on_chain_configs(seed, clock,
                                                            order):
    """The chain configs stepped by Run in warn mode, with a space fault
    written between two steps at seeded steps, most of them idle on the
    hourly clock: the space violations Run.advance reports at each step
    are what space_changes finds, and every fault shows."""
    config = chain_config(seed, clock, order)
    run = Run(replace(config, verification_mode="warn"))
    faults = random.Random(f"space-{seed}-{clock}-{order}")
    at = dict(zip(faults.sample(range(1, CHAIN_CLOCKS[clock]), 10),
                  [name for name in SPACE_FAULTS for _ in range(2)]))
    injector = SimpleNamespace(state=run.state, faults=faults)
    before, flagged = SpaceDigest.of(run.state), set()
    written = None
    for i in range(1, CHAIN_CLOCKS[clock] + 1):
        found = len(run.violations)
        run.advance()
        after = SpaceDigest.of(run.state)
        expected = space_changes(before, after, i)
        assert [v for v in run.violations[found:]
                if v.label in SPACE_LABELS] == expected
        if written is not None:
            name, key = written
            flagged |= {name for v in expected
                        if v.label == SPACE_FAULTS[name][1] and key in v.ids}
        written = None
        if i in at:
            written = (at[i], SPACE_FAULTS[at[i]][0](injector))
        before = after
    assert flagged == {name for name, (_, label) in SPACE_FAULTS.items()
                       if label}
