"""Initial world construction: population size and placement, genders, ages,
partnerships, parent assignment, family housing.

Draw order (the determinism contract for initialization): one gender draw per
person in ascending id; one age draw per person in ascending id; partnership
selection and matching per adult male in ascending id (selection draw always,
then candidate sample and weighted pick only when selected); one father draw
per child with any candidate couple, randrange(count) in ascending child id,
the count taken by a sweep over the children in birth-step order; one town
draw plus house draws per family unit in ascending head id.
"""
from __future__ import annotations

import bisect
import math
import random
from dataclasses import asdict, dataclass
from itertools import accumulate

from .events import age_factor, candidate_count, find_bride
from .model import (FEMALE, MALE, ModelParams, Person, SimTime,
                    SimulationParams, WorldState)
from .space import DensityMap, build_towns, create_house, move_person, \
    pick_town


@dataclass(slots=True)
class InitReport:
    """Audit record of what initialization built."""
    per_town: dict[int, int]
    persons_total: int
    adults: int
    children: int
    couples: int
    males_left_single: int
    children_assigned_parents: int
    parentless_children: tuple[int, ...]
    houses_created: int

    def to_dict(self) -> dict:
        """The fields as JSON-ready values: town ids as strings, in order."""
        return dict(asdict(self), per_town={
            str(k): v for k, v in sorted(self.per_town.items())},
            parentless_children=list(self.parentless_children))


def town_population_targets(initial_pop: int,
                            density: DensityMap) -> dict[int, int]:
    """Per-town creation counts: ceil(initial_pop * density / nonzero_count),
    keyed by town id in row-major grid order (matching build_towns)."""
    cells = [v for row in density.rows for v in row if v > 0]
    nonzero = len(cells)
    return {tid: math.ceil(initial_pop * v / nonzero)
            for tid, v in enumerate(cells)}


def draw_gender(rng: random.Random) -> str:
    return MALE if rng.random() < 0.5 else FEMALE


def assign_genders(persons: list[Person], rng: random.Random) -> None:
    for p in persons:
        p.gender = draw_gender(rng)


def sample_age(rng: random.Random, n_per_year: int) -> int:
    """Half-normal age in steps: |floor(Normal(0, 25 years))|."""
    return abs(math.floor(rng.gauss(0.0, 25.0 * n_per_year)))


def init_partnerships(state: WorldState, params: ModelParams,
                      rng: random.Random) -> tuple[int, int]:
    """Marry off adult males: each is selected with probability
    start_married_ratio; a selected male samples candidate brides and picks
    one weighted by ageFactor. Returns (couples formed, selected males left
    single because the pool ran dry or every weight was zero)."""
    spy, now = state.time.steps_per_year, state.time.step_index
    came_of_age = state.time.came_of_age
    males, pool = [], []
    for p in state.persons.values():
        if p.born_step > came_of_age:
            continue
        (males if p.gender == MALE else pool).append(p)
    n_cand = candidate_count(len(pool), params.max_num_marr_cand)

    def weight(m: Person, f: Person) -> float:
        return max(0.0, age_factor((now - m.born_step) / spy,
                                   (now - f.born_step) / spy))

    couples = left_single = 0
    for m in males:
        if rng.random() >= params.start_married_ratio:
            continue
        if find_bride(state, m, pool, n_cand, weight, rng) is None:
            left_single += 1
        else:
            couples += 1
    return couples, left_single


def _live_couples(windows: list[tuple[int, int]], births: list[int]):
    """For each birth step of `births` (ascending), the ascending positions
    of the couples whose window [enter, leave) holds it. Both bounds rise
    with the birth step, so each couple enters and leaves once; a couple
    whose window is empty never enters. One list is yielded, kept in place."""
    opened = [i for i, (enter, leave) in enumerate(windows) if enter < leave]
    enters = sorted(opened, key=lambda i: windows[i][0])
    leaves = sorted(opened, key=lambda i: windows[i][1])
    live: list[int] = []
    a = r = 0
    for b in births:
        while a < len(enters) and windows[enters[a]][0] <= b:
            bisect.insort(live, enters[a])
            a += 1
        # a couple leaving by b entered before it: enter < leave <= b
        while r < len(leaves) and windows[leaves[r]][1] <= b:
            del live[bisect.bisect_left(live, leaves[r])]
            r += 1
        yield live


def assign_parents(state: WorldState,
                   rng: random.Random) -> tuple[int, list[int]]:
    """Give every child a uniformly drawn father from the couples that are old
    enough (both spouses at least 18 years 9 months older than the child) and
    whose wife was younger than the mother age limit at the child's birth.
    Children with no candidates stay parentless and are reported, not
    failed. Compared as birth steps: 18 years 9 months is 75/4 years, so a
    couple can parent a child born at step b exactly when b is in
    [ceil((4 * later birth + 75 * spy) / 4), wife's birth + mother limit).

    A sweep over the children in ascending birth step counts each child's
    candidates; then one randrange(count) is drawn per child with any, in
    ascending child id, and a second sweep takes that candidate, counted in
    ascending husband id. The links are written in ascending child id."""
    spy = state.time.steps_per_year
    came_of_age = state.time.came_of_age
    mother_limit = state.time.mother_limit_steps
    husbands: list[Person] = []
    windows: list[tuple[int, int]] = []  # each couple's [enter, leave)
    for m in state.persons.values():
        if m.gender == MALE and m.partner is not None:
            wife_born = state.persons[m.partner].born_step
            later4 = 4 * max(m.born_step, wife_born)
            husbands.append(m)
            windows.append((-((-later4 - 75 * spy) // 4),
                            wife_born + mother_limit))
    children = [p for p in state.persons.values()
                if p.born_step > came_of_age]
    order = sorted(range(len(children)), key=lambda j: children[j].born_step)
    births = [children[j].born_step for j in order]
    counts = [0] * len(children)
    for j, live in zip(order, _live_couples(windows, births)):
        counts[j] = len(live)
    draws = [rng.randrange(n) if n else -1 for n in counts]
    fathers: list[Person | None] = [None] * len(children)
    for j, live in zip(order, _live_couples(windows, births)):
        if draws[j] >= 0:
            fathers[j] = husbands[live[draws[j]]]
    assigned = 0
    parentless: list[int] = []
    for child, father in zip(children, fathers):
        if father is None:
            parentless.append(child.id)
            continue
        mother = state.persons[father.partner]
        child.father = father.id
        child.mother = mother.id
        father.children.add(child.id)
        mother.children.add(child.id)
        assigned += 1
    return assigned, parentless


def assign_housing(state: WorldState, rng: random.Random) -> int:
    """House each family unit together: a couple with their children, a
    single adult alone, a parentless child alone. Towns are drawn by density
    weight per unit, from one table of running density totals; every unit
    gets a fresh house, as none is ever empty here. Returns the number of
    houses created."""
    came_of_age = state.time.came_of_age
    towns = [state.towns[tid] for tid in sorted(state.towns)]
    totals = list(accumulate(t.density for t in towns))
    for p in state.persons.values():
        if p.partner is not None:
            if p.gender != MALE:
                continue  # the male heads the couple's unit
            unit = [p, state.persons[p.partner]]
            unit.extend(state.persons[c] for c in sorted(p.children))
        elif p.born_step <= came_of_age or p.father is None:
            unit = [p]
        else:
            continue  # children with parents move with the father's unit
        house = create_house(state, pick_town(towns, totals, rng), rng)
        for q in unit:
            move_person(state, q, house)
    return len(state.houses)


def init_world(params: ModelParams, sim: SimulationParams, data,
               density: DensityMap,
               rng: random.Random) -> tuple[WorldState, InitReport]:
    """Build the starting world on a fresh RNG stream; see the module
    docstring for the draw order."""
    spy = sim.steps_per_year
    state = WorldState(time=SimTime(step_index=0, t0_year=sim.t0,
                                    steps_per_year=spy))
    state.towns.update(build_towns(density))
    targets = town_population_targets(params.initial_pop, density)
    for tid in sorted(targets):
        for _ in range(targets[tid]):
            state.add_person(gender="", age_steps=0, born_step=0)
    persons = list(state.persons.values())
    assign_genders(persons, rng)
    for p in persons:  # step 0: a person aged a steps was born at -a
        p.born_step = -sample_age(rng, spy)
    couples, left_single = init_partnerships(state, params, rng)
    assigned, parentless = assign_parents(state, rng)
    houses = assign_housing(state, rng)
    came_of_age = state.time.came_of_age
    adults = sum(1 for p in persons if p.born_step <= came_of_age)
    report = InitReport(
        per_town=targets,
        persons_total=len(persons),
        adults=adults,
        children=len(persons) - adults,
        couples=couples,
        males_left_single=left_single,
        children_assigned_parents=assigned,
        parentless_children=tuple(parentless),
        houses_created=houses,
    )
    return state, report
