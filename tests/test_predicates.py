"""Sub-population algebra, snapshots, and the two temporal operators."""
from __future__ import annotations

import random

import pytest

from conftest import add_house, add_person, add_town, make_state, marry
from demosim import events
from demosim.cli import build_config
from demosim.engine import Run
from demosim.model import (FEMALE, MALE, IntegrityError,
                           MissingSnapshotError, mark_dead, unlink_partners)
from demosim.predicates import (SnapshotStore, SubPopulation, children_of,
                                combine, filter_pop, filtered_group,
                                group_of_filtered, has_a_sibling,
                                has_children, is_adult, is_alive, is_female,
                                is_male, is_married, is_single, just, negate,
                                parents_of, pre, siblings_of)


def everyone(state) -> SubPopulation:
    return SubPopulation.of(state.persons)


def test_subpopulation_canonical_form():
    pop = SubPopulation.of([3, 1, 2, 3, 1])
    assert pop.ids == (1, 2, 3)
    assert len(pop) == 3
    assert 2 in pop and 5 not in pop
    assert list(pop) == [1, 2, 3]
    assert pop == SubPopulation.of({1, 2, 3})


def test_combine_ops():
    a = SubPopulation.of([1, 2, 3])
    b = SubPopulation.of([3, 4])
    assert combine("union", a, b).ids == (1, 2, 3, 4)
    assert combine("intersect", a, b).ids == (3,)
    assert combine("difference", a, b).ids == (1, 2)
    with pytest.raises(ValueError):
        combine("xor", a, b)


def test_filter_builtins(family):
    state, _, _, (dad, mum, kid, single) = family
    base = everyone(state)
    assert filter_pop(is_male, base, state).ids == (dad.id,)
    assert filter_pop(is_female, base, state).ids == \
        (mum.id, kid.id, single.id)
    assert filter_pop(is_married, base, state).ids == (dad.id, mum.id)
    assert filter_pop(is_single, base, state).ids == (kid.id, single.id)
    assert filter_pop(is_adult, base, state).ids == \
        (dad.id, mum.id, single.id)
    assert filter_pop(has_children, base, state).ids == (dad.id, mum.id)
    assert filter_pop(has_a_sibling, base, state).ids == ()


def test_filter_pop_keeps_nothing_between_calls(family):
    """filter_pop evaluates its predicate at every call: hasASibling turns
    true for the older child when a sibling is born, a write that journals
    the parents, not the older child, so a roster keyed by it would stay
    stale."""
    state, _, _, (dad, mum, kid, single) = family
    state.time.step_index = 2  # a step whose writes the journal records
    assert filter_pop(has_a_sibling, everyone(state), state).ids == ()
    sis = add_person(state, FEMALE, 0, father=dad.id, mother=mum.id)
    dad.children.add(sis.id)
    mum.children.add(sis.id)
    assert filter_pop(has_a_sibling, everyone(state), state).ids == \
        (kid.id, sis.id)


def test_filter_rejects_unknown_id(family):
    state, *_ = family
    with pytest.raises(IntegrityError):
        filter_pop(is_male, SubPopulation.of([999]), state)


def test_negate_is_relative_complement(family):
    state, _, _, (dad, mum, kid, single) = family
    base = everyone(state)
    not_married = negate(is_married, base, state)
    assert not_married.ids == (kid.id, single.id)
    # negation over a sub-base stays inside that base
    girls = filter_pop(is_female, base, state)
    assert negate(is_adult, girls, state).ids == (kid.id,)


def test_group_predicates(family):
    state, _, _, (dad, mum, kid, _) = family
    assert children_of(state, dad) == {kid.id}
    assert parents_of(state, kid) == {dad.id, mum.id}
    assert siblings_of(state, kid) == set()
    sis = add_person(state, FEMALE, 8, father=dad.id, mother=mum.id)
    dad.children.add(sis.id)
    mum.children.add(sis.id)
    assert siblings_of(state, kid) == {sis.id}
    assert siblings_of(state, kid) == siblings_of(state, sis) \
        - {kid.id} | {sis.id} - {kid.id}


def test_group_of_filtered_and_filtered_group(family):
    state, _, _, (dad, mum, kid, single) = family
    base = everyone(state)
    mothers = filter_pop(is_female, filter_pop(has_children, base, state),
                         state)
    kids = group_of_filtered(children_of, mothers, state)
    assert kids.ids == (kid.id,)
    girls_with_parents = filtered_group(parents_of, base, is_female, state)
    assert girls_with_parents.ids == (mum.id,)


def test_snapshot_store_capacity_two():
    state = make_state()
    snaps = SnapshotStore()
    for i in range(4):
        state.time.step_index = i
        snaps.freeze(state)
    assert len(snaps) == 2
    assert snaps.newest().step_index == 3
    assert snaps.before(3).step_index == 2
    with pytest.raises(MissingSnapshotError):
        snaps.before(2)  # step-1 snapshot already evicted


def test_snapshot_store_before_is_strict():
    state = make_state()
    snaps = SnapshotStore()
    snaps.freeze(state)
    with pytest.raises(MissingSnapshotError):
        snaps.before(0)  # only a snapshot AT step 0 exists
    state.time.step_index = 1
    assert snaps.before(1).step_index == 0


def test_just_married(family):
    state, _, houses, (dad, mum, kid, single) = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    groom = add_person(state, MALE, 30, houses[1])
    state.time.step_index = 1
    marry(state, groom, single)
    snaps.freeze(state)
    assert just("married", state, snaps).ids == \
        tuple(sorted((groom.id, single.id)))
    # steady-state married couple is not "just married"
    assert dad.id not in just("married", state, snaps)


def test_just_negated_catches_divorce(family):
    state, _, _, (dad, mum, kid, single) = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    state.time.step_index = 1
    unlink_partners(state, dad)
    snaps.freeze(state)
    assert just("married", state, snaps, negated=True).ids == \
        (dad.id, mum.id)
    # never-married persons aren't "just unmarried"
    assert single.id not in just("married", state, snaps, negated=True)


def test_just_alive_is_newborns(family):
    state, _, houses, _ = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    state.time.step_index = 1
    baby = add_person(state, MALE, 0, houses[0])
    snaps.freeze(state)
    assert just("alive", state, snaps).ids == (baby.id,)


def test_just_requires_older_snapshot(family):
    state, *_ = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    with pytest.raises(MissingSnapshotError):
        just("married", state, snaps)
    with pytest.raises(ValueError):
        state.time.step_index = 1
        snaps.freeze(state)
        just("height", state, snaps)


def test_pre_attribute_lookup(family):
    state, town, houses, (dad, mum, kid, single) = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    state.time.step_index = 1
    unlink_partners(state, dad)
    snaps.freeze(state)
    assert pre("married", dad.id, snaps, state) is True
    assert pre("partner", dad.id, snaps, state) == mum.id
    assert pre("house", dad.id, snaps, state) == houses[0].id
    assert pre("town", dad.id, snaps, state) == town.id
    assert pre("location", dad.id, snaps, state) == houses[0].local_xy
    assert pre("age_steps", dad.id, snaps, state) == dad.age_steps - 1
    assert pre("gave_birth", mum.id, snaps, state) is False
    with pytest.raises(ValueError):
        pre("favourite_colour", dad.id, snaps, state)


def test_pre_age_of_the_dead(family):
    """A person who died this step had their age at the previous step; one
    who died at or before the previous step keeps the age they died at."""
    state, _, _, (dad, mum, kid, single) = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    state.time.step_index = 1
    mark_dead(state, mum)
    snaps.freeze(state)
    state.time.step_index = 2
    mark_dead(state, dad)
    snaps.freeze(state)
    assert pre("age_steps", dad.id, snaps, state) == 40 * 365 + 1
    assert pre("age_steps", mum.id, snaps, state) == 38 * 365 + 1
    state.time.step_index = 3
    snaps.freeze(state)
    assert pre("age_steps", dad.id, snaps, state) == 40 * 365 + 2
    assert pre("age_steps", mum.id, snaps, state) == 38 * 365 + 1
    assert pre("age_steps", kid.id, snaps, state) == 10 * 365 + 2


def test_pre_unknown_person(family):
    state, *_ = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    state.time.step_index = 1
    newcomer = add_person(state, MALE, 20)
    snaps.freeze(state)
    with pytest.raises(MissingSnapshotError):
        pre("alive", newcomer.id, snaps, state)


def test_pre_not_symmetric_with_just(family):
    # pre(married) true and married now false identifies leavers, which is a
    # different set from just(married): the operators are not inverses
    state, _, _, (dad, mum, kid, single) = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    state.time.step_index = 1
    unlink_partners(state, dad)
    snaps.freeze(state)
    leavers = {pid for pid in state.persons
               if pre("married", pid, snaps, state)
               and state.persons[pid].partner is None}
    assert leavers == {dad.id, mum.id}
    assert just("married", state, snaps).ids == ()


def brute_force_just(attr, state, snaps, negated=False):
    """Oracle: rebuild both sides from raw structures with plain set algebra."""
    live, frozen = {
        "alive": (lambda p: p.alive, lambda s, pid: pid in s.alive),
        "married": (lambda p: p.partner is not None,
                    lambda s, pid: pid in s.married),
        "gave_birth": (lambda p: p.gave_birth,
                       lambda s, pid: pid in s.gave_birth),
    }[attr]
    prev = snaps.before(state.time.step_index)
    now = {pid for pid, p in state.persons.items() if live(p) != negated}
    old = {pid for pid in prev.known if frozen(prev, pid) != negated}
    return tuple(sorted(now - old))


def test_just_matches_brute_force_on_random_mutations():
    rng = random.Random(2024)
    for _ in range(50):
        state = make_state()
        town = add_town(state)
        house = add_house(state, town)
        for _ in range(rng.randrange(2, 12)):
            add_person(state, rng.choice((MALE, FEMALE)),
                       rng.randrange(0, 80), house)
        snaps = SnapshotStore()
        snaps.freeze(state)
        state.time.step_index = 1
        persons = list(state.persons.values())
        for p in rng.sample(persons, k=rng.randrange(len(persons))):
            p.gave_birth = rng.random() < 0.3
            if rng.random() < 0.3:
                p.alive = False
                p.house = None
        snaps.freeze(state)
        for attr in ("alive", "married", "gave_birth"):
            for negated in (False, True):
                assert just(attr, state, snaps, negated).ids == \
                    brute_force_just(attr, state, snaps, negated)


# each event roster key -> its formula in the paper's terms: the atomic
# predicates and named model rules it intersects, and those it takes away
ROSTER_FORMULAS = {
    events._mortal: ((is_alive, events._born_before_now), ()),
    events._fertile_wife: ((is_female, is_married, is_alive, is_adult,
                            events._under_mother_limit, events._spaced), ()),
    events._married_man: ((is_male, is_married, is_alive), ()),
    events._single_man: ((is_male, is_single, is_alive, is_adult),
                         (events._came_of_age_now,)),
    events._single_woman: ((is_female, is_single, is_alive, is_adult), ()),
}


@pytest.mark.parametrize("params", [
    {"initial_pop": "1000", "delta_t": "daily", "t0": "2020",
     "t_final": "2030"},
    {"initial_pop": "200", "delta_t": "hourly", "t0": "2020",
     "t_final": "2021"},
], ids=["daily_decade", "hourly_year"])
def test_event_rosters_equal_their_formulas(params):
    """After each of the first 300 steps of a seed-1 run, every event
    roster equals its formula built with filter_pop and combine over
    everyone on record."""
    run = Run(build_config({**params, "seed": "1"}))
    state = run.state
    for _ in range(300):
        run.advance()
        base, filtered = everyone(state), {}
        for holds, (terms, less) in ROSTER_FORMULAS.items():
            for pred in terms + less:
                if pred not in filtered:
                    filtered[pred] = filter_pop(pred, base, state)
            formula = base
            for pred in terms:
                formula = combine("intersect", formula, filtered[pred])
            for pred in less:
                formula = combine("difference", formula, filtered[pred])
            assert tuple(state.roster(holds)) == formula.ids, holds.__name__
