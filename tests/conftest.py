"""Shared builders for hand-made worlds, and the faults tests write into a
run's world. Tests construct small states directly instead of going
through initialization, so each test controls exactly what the world
contains."""
from __future__ import annotations

import pytest

from demosim.model import (ADULT_YEARS, FEMALE, MALE, House, Person, SimTime,
                           Town, WorldState, link_partners)

DAILY = 365


def make_state(spy: int = DAILY, t0: int = 2020,
               step_index: int = 0) -> WorldState:
    return WorldState(time=SimTime(step_index=step_index, t0_year=t0,
                                   steps_per_year=spy))


def add_town(state: WorldState, grid_xy=(0, 0), density: float = 0.5) -> Town:
    tid = len(state.towns)
    town = Town(id=tid, grid_xy=grid_xy, density=density)
    state.towns[tid] = town
    return town


def add_house(state: WorldState, town: Town, xy=(1, 1)) -> House:
    hid = state.allocate_house_id()
    house = House(id=hid, town=town.id, local_xy=xy)
    state.houses[hid] = house
    town.houses.add(hid)
    return house


def add_person(state: WorldState, gender: str = MALE,
               age_years: float = 30.0, house: House | None = None,
               **overrides) -> Person:
    spy = state.time.steps_per_year
    p = state.add_person(gender=gender, age_steps=int(age_years * spy),
                         born_step=state.time.step_index
                         - int(age_years * spy))
    for key, value in overrides.items():
        setattr(p, key, value)
    if house is not None:
        p.house = house.id
        house.occupants.add(p.id)
    return p


def marry(state: WorldState, a: Person, b: Person) -> None:
    link_partners(state, a, b)


def family_state():
    """One town, two houses: a couple with a child in house 0, a single
    adult woman in house 1. The standard small fixture."""
    state = make_state()
    town = add_town(state)
    h0 = add_house(state, town, xy=(1, 1))
    h1 = add_house(state, town, xy=(2, 2))
    dad = add_person(state, MALE, 40, h0)
    mum = add_person(state, FEMALE, 38, h0)
    marry(state, dad, mum)
    kid = add_person(state, FEMALE, 10, h0, father=dad.id, mother=mum.id)
    dad.children.add(kid.id)
    mum.children.add(kid.id)
    single = add_person(state, FEMALE, 27, h1)
    return state, town, (h0, h1), (dad, mum, kid, single)


def marry_minor(state: WorldState) -> int:
    """Link a single adult man to a single girl of 9 to 15 years, a
    partnership no event makes; return the girl's id."""
    spy = state.time.steps_per_year
    single = [p for p in state.persons.values()
              if p.alive and p.partner is None]
    man = next(p for p in single
               if p.gender == MALE and p.age_steps >= ADULT_YEARS * spy)
    girl = next(p for p in single
                if p.gender == FEMALE and 9 * spy <= p.age_steps < 16 * spy)
    link_partners(state, man, girl)
    return girl.id


def demolish(state: WorldState) -> None:
    """Drop every other occupied house, as no event does."""
    occupied = sorted(h.id for h in state.houses.values() if h.occupants)
    for hid in occupied[::2]:
        house = state.houses.pop(hid)
        state.towns[house.town].houses.discard(hid)


@pytest.fixture
def family():
    return family_state()
