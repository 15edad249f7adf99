"""Assumption registry and the runtime checks, exercised with clean and
deliberately broken fixtures."""
from __future__ import annotations

import ast
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (add_house, add_person, add_town, family_state,
                      make_state, marry)
from demosim.engine import state_digest
from demosim.events import DEFAULT_EVENT_ORDER, step
from demosim.model import (ADULT_YEARS, FEMALE, MALE, ModelParams,
                           link_partners, validate_world)
from demosim.predicates import SnapshotStore, pre
from demosim.rates import RateContext, default_model_data
from demosim.space import move_person
from demosim.verification import (Assumption, SpaceDigest, Violation,
                                  build_registry, check_initial,
                                  check_retrospective, check_step)

EXPECTED_LABELS = {
    "a0_adults_no_parents", "a0_parents_alive", "a0_siblings_age_free",
    "a0_family_together", "a_s_static_towns", "a_s_house_persistence",
    "a_s_dynamic_space", "a_s_dynamic_houses_per_town", "a_s_house_xy_bounds",
    "a_s_uniform_house_locations", "a_s_empty_house_selection",
    "a_s_weighted_town_selection", "a_p_gender_ratio", "a_p_marriage_age",
    "a_p_married_gives_birth", "a_p_no_adoption", "a_homeless",
    "a_arbitrary_occupants", "a_housing_kinship", "a_adult_moves_out",
    "a_dead_no_house", "a_divorce_male_moves", "a_marriage_housing",
}


def labels_of(violations: list[Violation]) -> set[str]:
    return {v.label for v in violations}


def snaps_after(state, mutate):
    """Freeze step 0, advance (ages follow the clock), apply the mutation,
    freeze step 1."""
    snaps = SnapshotStore()
    snaps.freeze(state)
    state.time.step_index = 1
    mutate()
    snaps.freeze(state)
    return snaps


def test_registry_enumeration():
    registry = build_registry()
    assert len(registry) == 23
    assert {a.label for a in registry} == EXPECTED_LABELS
    assert all(a.scope in ("initial", "every_step", "retrospective")
               for a in registry)
    assert all(a.kind in ("hard", "statistical", "vacuous")
               for a in registry)
    stats = {a.label for a in registry if a.kind == "statistical"}
    assert stats == {"a_s_uniform_house_locations",
                     "a_s_empty_house_selection",
                     "a_s_weighted_town_selection", "a_p_gender_ratio"}
    # every statistical or vacuous entry says where the real coverage lives
    assert all(a.note for a in registry if a.kind != "hard")


def test_initial_checks_clean_family(family):
    state, *_ = family
    assert check_initial(state) == []


def test_initial_adult_with_parent():
    state = make_state()
    town = add_town(state)
    h = add_house(state, town)
    parent = add_person(state, MALE, 60, h)
    grown = add_person(state, FEMALE, 30, h, father=parent.id)
    parent.children.add(grown.id)
    assert check_initial(state) == [
        Violation("a0_adults_no_parents", 0, (grown.id,),
                  "initial adults must carry no parent links"),
        Violation("a0_family_together", 0, (parent.id, grown.id),
                  "house 0: unpartnered co-residents")]


def test_initial_dead_parent():
    state = make_state()
    town = add_town(state)
    h = add_house(state, town)
    dad = add_person(state, MALE, 40)
    dad.alive = False
    kid = add_person(state, FEMALE, 5, h, father=dad.id)
    dad.children.add(kid.id)
    assert check_initial(state) == [
        Violation("a0_parents_alive", 0, (kid.id,),
                  "initial children must have alive parents "
                  "(children without parent links pass vacuously)"),
        Violation("a0_family_together", 0, (kid.id,),
                  f"house 0: child p{kid.id} housed away from its parents"),
        Violation("a0_family_together", 0, (kid.id,),
                  f"child p{kid.id} not housed with its parents")]


def test_initial_family_split_across_houses(family):
    state, town, (h0, h1), (dad, mum, kid, single) = family
    # child moved away from its parents
    h0.occupants.discard(kid.id)
    kid.house = h1.id
    h1.occupants.add(kid.id)
    assert check_initial(state) == [
        Violation("a0_family_together", 0, (kid.id, single.id),
                  "house 1: unpartnered co-residents"),
        Violation("a0_family_together", 0, (kid.id,),
                  f"child p{kid.id} not housed with its parents")]


def test_initial_couple_split_flagged(family):
    state, town, (h0, h1), (dad, mum, kid, single) = family
    h0.occupants.discard(mum.id)
    single.house = h0.id
    h0.occupants.add(single.id)
    mum.house = h1.id
    h1.occupants.add(mum.id)
    assert check_initial(state) == [
        Violation("a0_family_together", 0, (dad.id, kid.id, single.id),
                  "house 0: partners split or mixed"),
        Violation("a0_family_together", 0, (mum.id, single.id),
                  "house 1: partners split or mixed")]


def test_initial_lodger_with_couple_flagged():
    """A house with a couple holds only their children: anyone else is
    named alone, and the check reports the step it ran at."""
    state = make_state(step_index=7)
    town = add_town(state)
    h = add_house(state, town)
    dad = add_person(state, MALE, 40, h)
    mum = add_person(state, FEMALE, 38, h)
    marry(state, dad, mum)
    kid = add_person(state, FEMALE, 10, h, father=dad.id, mother=mum.id)
    dad.children.add(kid.id)
    mum.children.add(kid.id)
    lodger = add_person(state, MALE, 12, h)
    assert check_initial(state) == [
        Violation("a0_family_together", 7, (lodger.id,),
                  f"house {h.id}: occupant p{lodger.id} is not a child of "
                  f"the resident couple")]


def test_step_checks_clean_after_real_step(family):
    state, *_ = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    ctx = RateContext(ModelParams(), default_model_data(), 365)
    step(state, ctx, snaps, random.Random(3))
    assert check_step(state, snaps) == []


def _homeless(state, houses, persons):
    (h0, _), (dad, *_rest) = houses, persons
    h0.occupants.discard(dad.id)
    dad.house = None
    return f"alive person without house: p{dad.id}"


def _dead_with_house(state, houses, persons):
    dad, mum, *_rest = persons
    dad.alive = False  # keeps the house on purpose
    dad.partner = mum.partner = None
    return f"dead person keeps house: p{dad.id}"


def _dead_occupant_reference(state, houses, persons):
    (h0, _), (dad, mum, *_rest) = houses, persons
    dad.alive = False
    dad.house = None  # but the house still lists him
    dad.partner = mum.partner = None
    return f"stale occupant p{dad.id}: h{h0.id}"


def _married_minor(state, houses, persons):
    dad, mum, kid, single = persons
    kid.partner = single.id
    single.partner = kid.id
    return f"married minor: p{kid.id}"


def _house_coordinates_bound(state, houses, persons):
    h0, _ = houses
    state.houses[h0.id] = replace(h0, local_xy=(26, 1))
    return f"house coordinates out of range: h{h0.id}"


def _dead_still_partnered(state, houses, persons):
    (h0, _), (dad, *_rest) = houses, persons
    dad.alive = False  # leaves the house but stays married
    dad.house = None
    h0.occupants.discard(dad.id)
    return f"dead person still partnered: p{dad.id}"


def _listed_in_second_house(state, houses, persons):
    (h0, _), (*_rest, single) = houses, persons
    h0.occupants.add(single.id)  # she still lives in, and is listed by, h1
    return f"stale occupant p{single.id}: h{h0.id}"


# injected fault -> the every-step label that must flag it
STRUCTURAL_FAULTS = {
    "homeless": ("a_homeless", _homeless),
    "dead_with_house": ("a_dead_no_house", _dead_with_house),
    "dead_occupant_reference": ("a_dead_no_house", _dead_occupant_reference),
    "married_minor": ("a_p_marriage_age", _married_minor),
    "house_coordinates_bound": ("a_s_house_xy_bounds",
                                _house_coordinates_bound),
    "dead_still_partnered": ("a_p_marriage_age", _dead_still_partnered),
    "listed_in_second_house": ("a_dead_no_house", _listed_in_second_house),
}


@pytest.mark.parametrize("fault", list(STRUCTURAL_FAULTS))
def test_structural_fault_flagged(family, fault):
    """validate_world and the every-step checks share one rule set, so both
    report each injected fault."""
    label, inject = STRUCTURAL_FAULTS[fault]
    state, _, houses, persons = family
    messages = []
    snaps = snaps_after(state,
                        lambda: messages.append(inject(state, houses, persons)))
    assert label in labels_of(check_step(state, snaps))
    assert messages[0] in validate_world(state)


def test_resurrection_flagged(family):
    state, _, (h0, _), (dad, mum, kid, single) = family
    dad.alive = False
    dad.house = None
    dad.partner = None
    mum.partner = None
    h0.occupants.discard(dad.id)
    def mutate():
        dad.alive = True
        dad.house = h0.id
        h0.occupants.add(dad.id)
    snaps = snaps_after(state, mutate)
    assert "a_p_no_adoption" in labels_of(check_step(state, snaps))


def test_birth_checks(family):
    state, _, (h0, _), (dad, mum, kid, single) = family
    def good_birth():
        baby = state.add_person(MALE, age_steps=0, born_step=1,
                                father=dad.id, mother=mum.id)
        dad.children.add(baby.id)
        mum.children.add(baby.id)
        baby.house = h0.id
        h0.occupants.add(baby.id)
        mum.gave_birth = True
    snaps = snaps_after(state, good_birth)
    assert check_step(state, snaps) == []


def test_birth_missing_flag_flagged(family):
    state, _, (h0, _), (dad, mum, kid, single) = family
    def mutate():
        baby = state.add_person(FEMALE, age_steps=0, born_step=1,
                                father=dad.id, mother=mum.id)
        dad.children.add(baby.id)
        mum.children.add(baby.id)
        baby.house = h0.id
        h0.occupants.add(baby.id)
        # mum.gave_birth deliberately left False
    snaps = snaps_after(state, mutate)
    assert "a_p_married_gives_birth" in labels_of(check_step(state, snaps))


def test_birth_flag_without_neonate_flagged(family):
    state, _, _, (dad, mum, kid, single) = family
    def mutate():
        mum.gave_birth = True
    snaps = snaps_after(state, mutate)
    assert "a_p_married_gives_birth" in labels_of(check_step(state, snaps))


def test_birth_neonate_elsewhere_flagged(family):
    state, _, (h0, h1), (dad, mum, kid, single) = family
    def mutate():
        baby = state.add_person(MALE, age_steps=0, born_step=1,
                                father=dad.id, mother=mum.id)
        dad.children.add(baby.id)
        mum.children.add(baby.id)
        baby.house = h1.id
        h1.occupants.add(baby.id)
        mum.gave_birth = True
    snaps = snaps_after(state, mutate)
    assert "a_p_married_gives_birth" in labels_of(check_step(state, snaps))


def test_housing_kinship_unrelated_cohabitants(family):
    state, _, (h0, h1), (dad, mum, kid, single) = family
    def mutate():
        h1.occupants.discard(single.id)
        single.house = h0.id
        h0.occupants.add(single.id)
    snaps = snaps_after(state, mutate)
    assert "a_housing_kinship" in labels_of(check_step(state, snaps))


def test_housing_kinship_accepts_chain_through_dead_link():
    # child of a dead mother lives with the mother's widower's new wife:
    # no pairwise kin relation, but connected through the kinship graph
    state = make_state()
    town = add_town(state)
    h = add_house(state, town)
    mother = add_person(state, FEMALE, 40)
    mother.alive = False
    widower = add_person(state, MALE, 45, h)
    new_wife = add_person(state, FEMALE, 44, h)
    mother.ever_partners.append(widower.id)
    widower.ever_partners.append(mother.id)
    widower.ever_partners.append(new_wife.id)
    new_wife.ever_partners.append(widower.id)
    widower.partner, new_wife.partner = new_wife.id, widower.id
    child = add_person(state, FEMALE, 9, h, mother=mother.id)
    mother.children.add(child.id)
    def mutate():
        pass
    snaps = snaps_after(state, mutate)
    labels = labels_of(check_step(state, snaps))
    assert "a_housing_kinship" not in labels


def test_adult_move_checks_via_step(family):
    state, _, (h0, _), (dad, mum, kid, single) = family
    spy = state.time.steps_per_year
    kid.age_steps = ADULT_YEARS * spy - 1
    snaps = SnapshotStore()
    snaps.freeze(state)
    ctx = RateContext(ModelParams(), default_model_data(), 365)
    step(state, ctx, snaps, random.Random(1), ("ageing",))
    assert kid.age_steps == ADULT_YEARS * spy
    assert check_step(state, snaps) == []
    # pull the new adult back into the family house: now a violation
    h_new = state.houses[kid.house]
    h_new.occupants.discard(kid.id)
    kid.house = h0.id
    h0.occupants.add(kid.id)
    labels = labels_of(check_step(state, snaps))
    assert "a_adult_moves_out" in labels


def test_orphan_oldest_must_keep_house():
    state = make_state()
    town = add_town(state)
    h = add_house(state, town)
    spy = state.time.steps_per_year
    dead_dad = add_person(state, MALE, 50)
    dead_dad.alive = False
    older = add_person(state, FEMALE, 17, h, father=dead_dad.id)
    younger = add_person(state, MALE, 12, h, father=dead_dad.id)
    dead_dad.children = {older.id, younger.id}
    older.age_steps = ADULT_YEARS * spy - 1
    snaps = SnapshotStore()
    snaps.freeze(state)
    ctx = RateContext(ModelParams(), default_model_data(), 365)
    step(state, ctx, snaps, random.Random(1), ("ageing",))
    assert older.house == h.id
    assert check_step(state, snaps) == []
    # force the orphan out: flagged as breaking the stay-home exception
    h2 = add_house(state, town)
    h.occupants.discard(older.id)
    older.house = h2.id
    h2.occupants.add(older.id)
    assert "a_adult_moves_out" in labels_of(check_step(state, snaps))


def test_divorce_move_checked(family):
    state, _, (h0, _), (dad, mum, kid, single) = family
    def mutate():
        dad.partner = None
        mum.partner = None
        # dad stays in the family house: two rules broken
    snaps = snaps_after(state, mutate)
    labels = labels_of(check_step(state, snaps))
    assert "a_divorce_male_moves" in labels


def test_widower_not_treated_as_divorced(family):
    state, _, (h0, _), (dad, mum, kid, single) = family
    def mutate():
        mum.alive = False
        mum.house = None
        h0.occupants.discard(mum.id)
        dad.partner = None
        mum.partner = None
    snaps = snaps_after(state, mutate)
    labels = labels_of(check_step(state, snaps))
    assert "a_divorce_male_moves" not in labels


def test_marriage_housing_checked_via_step():
    state = make_state()
    town = add_town(state)
    h0 = add_house(state, town)
    h1 = add_house(state, town)
    man = add_person(state, MALE, 30, h0)
    woman = add_person(state, FEMALE, 27, h1)
    snaps = SnapshotStore()
    snaps.freeze(state)
    ctx = RateContext(ModelParams(), default_model_data(), 365)
    rng = random.Random(0)
    # force the marriage by looping until it happens, verifying after each step
    for _ in range(12000):
        step(state, ctx, snaps, rng)
        assert check_step(state, snaps) == []
        if man.partner is not None:
            break
    assert man.partner == woman.id
    # break the merged household and re-check the same step
    h_other = add_house(state, town)
    w = state.persons[woman.id]
    state.houses[w.house].occupants.discard(w.id)
    w.house = h_other.id
    h_other.occupants.add(w.id)
    assert "a_marriage_housing" in labels_of(check_step(state, snaps))


def test_marriage_into_a_removed_house_reported():
    """A couple married this step whose merged house was then removed: the
    marriage check skips the house it cannot read, and a_homeless reports
    both spouses' dangling house refs."""
    state = make_state()
    town = add_town(state)
    h0, h1 = add_house(state, town), add_house(state, town)
    man = add_person(state, MALE, 30, h0)
    woman = add_person(state, FEMALE, 27, h1)

    def mutate():
        link_partners(state, man, woman)
        move_person(state, woman, h0)
        del state.houses[h0.id]
        town.houses.discard(h0.id)

    snaps = snaps_after(state, mutate)
    homeless = [v for v in check_step(state, snaps)
                if v.label == "a_homeless"]
    assert [v.ids for v in homeless] == [(man.id,), (woman.id,)]


def test_retrospective_space_checks(family):
    state, town, (h0, _), _ = family
    before = SpaceDigest.of(state)
    assert check_retrospective(before, state) == []
    state.towns[town.id] = replace(town, density=0.9)
    out = check_retrospective(before, state)
    assert labels_of(out) == {"a_s_static_towns"}
    state.towns[town.id] = town
    # demolish a house (occupants evicted for the fixture's sake)
    for pid in list(h0.occupants):
        state.persons[pid].house = None
        h0.occupants.discard(pid)
    del state.houses[h0.id]
    town.houses.discard(h0.id)
    out = check_retrospective(before, state)
    assert "a_s_house_persistence" in labels_of(out)


def test_house_deleted_between_steps_raises_nothing(family):
    """A house removed between steps leaves the previous town of its former
    occupants unknown: the every-step checks and pre() read it as no town
    instead of raising, and the retrospective check reports the removal."""
    state, town, (h0, _), (dad, mum, kid, single) = family
    kid.age_steps = ADULT_YEARS * state.time.steps_per_year - 1
    before = SpaceDigest.of(state)

    def mutate():
        # the new adult and the divorced father move out, then the family
        # house is demolished with the mother evicted
        dad.partner = mum.partner = None
        for p in (kid, dad):
            h = add_house(state, town)
            h0.occupants.discard(p.id)
            p.house = h.id
            h.occupants.add(p.id)
        mum.house = None
        h0.occupants.discard(mum.id)
        del state.houses[h0.id]
        town.houses.discard(h0.id)

    snaps = snaps_after(state, mutate)
    assert "a_homeless" in labels_of(check_step(state, snaps))
    for p in (dad, mum, kid):
        assert pre("house", p.id, snaps, state) == h0.id
        assert pre("town", p.id, snaps, state) is None
        assert pre("location", p.id, snaps, state) is None
    assert "a_s_house_persistence" in \
        labels_of(check_retrospective(before, state))


def test_checks_do_not_mutate_state(family):
    state, *_ = family
    snaps = SnapshotStore()
    snaps.freeze(state)
    ctx = RateContext(ModelParams(), default_model_data(), 365)
    step(state, ctx, snaps, random.Random(9))
    before = state_digest(state)
    check_step(state, snaps)
    check_initial(state)
    check_retrospective(SpaceDigest.of(state), state)
    assert state_digest(state) == before


def test_violation_fields():
    v = Violation("a_homeless", 7, (3,), "alive person without a house")
    assert (v.label, v.step_index, v.ids, v.detail) == \
        ("a_homeless", 7, (3,), "alive person without a house")


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "demosim"


def test_each_label_is_written_once():
    """Each assumption label is one string literal in the package, the one
    the registry names its entry with; the checks never type it again."""
    labels = {a.label for a in build_registry()}
    written = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in labels:
                written[node.value] += 1
    assert {label: written[label] for label in labels} == \
        dict.fromkeys(labels, 1)
