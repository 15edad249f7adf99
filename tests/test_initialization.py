"""World construction: targets, sampling, partnerships, parents, housing."""
from __future__ import annotations

import math
import random
from itertools import product

import oracle
import pytest
from conftest import add_person, make_state
from demosim.initialization import (assign_genders, assign_parents,
                                    draw_gender, init_partnerships,
                                    init_world, sample_age,
                                    town_population_targets)
from demosim.model import (ADULT_YEARS, FEMALE, MALE, CountedPerson,
                           ModelParams, SimulationParams, validate_world)
from demosim.rates import default_model_data
from demosim.space import DensityMap

DATA = default_model_data()


def small_world(pop=400, seed=0, **params):
    cfg = ModelParams(initial_pop=pop, **params)
    sim = SimulationParams(t0=2020, t_final=2021, seed=seed)
    return init_world(cfg, sim, DATA, DensityMap.default(),
                      random.Random(seed))


def test_town_targets_ceiling_arithmetic():
    density = DensityMap.default()
    targets = town_population_targets(10000, density)
    assert len(targets) == 48
    positives = [v for row in density.rows for v in row if v > 0]
    for tid, value in enumerate(positives):
        assert targets[tid] == math.ceil(10000 * value / 48)
    # the two densities that dominate the map
    assert math.ceil(10000 * 1.0 / 48) == 209
    assert math.ceil(10000 * 0.5 / 48) == 105
    assert 209 in targets.values() and 105 in targets.values()


def test_town_targets_zero_pop():
    targets = town_population_targets(0, DensityMap.default())
    assert set(targets.values()) == {0}


def test_draw_gender_balance():
    rng = random.Random(31)
    n = 20000
    males = sum(1 for _ in range(n) if draw_gender(rng) == MALE)
    assert abs(males / n - 0.5) < 0.015


def test_sample_age_half_normal():
    rng = random.Random(17)
    spy = 365
    ages = [sample_age(rng, spy) for _ in range(20000)]
    assert all(a >= 0 for a in ages)
    mean_years = sum(ages) / len(ages) / spy
    # half-normal mean = sigma * sqrt(2/pi) = 19.947 for sigma 25
    assert abs(mean_years - 19.947) < 0.5
    assert max(ages) / spy < 150


def test_assign_genders_covers_everyone():
    state = make_state()
    persons = [add_person(state, "", 20) for _ in range(50)]
    assign_genders(persons, random.Random(3))
    assert all(p.gender in (MALE, FEMALE) for p in persons)


def test_init_partnerships_all_or_nothing():
    state = make_state()
    for _ in range(30):
        add_person(state, MALE, 30)
    for _ in range(30):
        add_person(state, FEMALE, 30)
    couples, left = init_partnerships(state, ModelParams(start_married_ratio=0.0),
                                      random.Random(1))
    assert (couples, left) == (0, 0)
    couples, left = init_partnerships(state, ModelParams(start_married_ratio=1.0),
                                      random.Random(1))
    assert couples + left == 30
    assert left == 0  # equal pools, every male finds a bride
    for p in state.persons.values():
        if p.partner is not None:
            q = state.persons[p.partner]
            assert q.partner == p.id and q.gender != p.gender


def test_init_partnerships_pool_exhaustion():
    state = make_state()
    for _ in range(10):
        add_person(state, MALE, 30)
    add_person(state, FEMALE, 30)
    couples, left = init_partnerships(state, ModelParams(start_married_ratio=1.0),
                                      random.Random(7))
    assert couples == 1
    assert left == 9


def test_init_partnerships_ignores_minors():
    state = make_state()
    add_person(state, MALE, 17.9)
    add_person(state, FEMALE, 16)
    couples, left = init_partnerships(state, ModelParams(start_married_ratio=1.0),
                                      random.Random(0))
    assert (couples, left) == (0, 0)
    assert all(p.partner is None for p in state.persons.values())


def couple(state, dad_born, mum_born):
    """A married pair with the given birth steps."""
    dad = add_person(state, MALE, 0, born_step=dad_born)
    mum = add_person(state, FEMALE, 0, born_step=mum_born)
    dad.partner, mum.partner = mum.id, dad.id


def test_assign_parents_age_window():
    state = make_state(spy=12)  # 18.75 years is exactly 225 monthly steps
    spy = state.time.steps_per_year
    dad = add_person(state, MALE, 30)
    mum = add_person(state, FEMALE, 30)
    dad.partner, mum.partner = mum.id, dad.id
    child = add_person(state, FEMALE, 0)
    # exactly 18.75 years older than a newborn: candidate boundary holds
    dad.age_steps = mum.age_steps = 225
    assert 4 * dad.age_steps == 75 * spy
    assigned, parentless = assign_parents(state, random.Random(0))
    assert assigned == 1 and parentless == []
    assert child.father == dad.id and child.mother == mum.id
    assert child.id in dad.children and child.id in mum.children
    # the younger spouse must be at least ceil(75 * spy / 4) steps older
    # than the child, at 365 and 5 steps a year a fraction more than 18.75
    # years; one step fewer leaves the child parentless
    for spy, child_born, younger in product((12, 365, 5), (0, -1, -7),
                                            (MALE, FEMALE)):
        gap = -(-75 * spy // 4)
        for step_gap in (gap - 1, gap, gap + 1):
            state = make_state(spy=spy)
            later = child_born - step_gap
            older = later - 3 * spy
            couple(state, *((later, older) if younger == MALE
                            else (older, later)))
            child = add_person(state, MALE, 0, born_step=child_born)
            assigned, parentless = assign_parents(state, random.Random(0))
            assert (assigned, parentless) == (
                (1, []) if 4 * step_gap >= 75 * spy else (0, [child.id]))


def test_assign_parents_wife_age_cutoff():
    state = make_state()
    dad = add_person(state, MALE, 50)
    mum = add_person(state, FEMALE, 45)  # exactly 45: excluded for a newborn
    dad.partner, mum.partner = mum.id, dad.id
    child = add_person(state, MALE, 0)
    assigned, parentless = assign_parents(state, random.Random(0))
    assert assigned == 0 and parentless == [child.id]
    assert child.father is None and child.mother is None
    mum.age_steps -= 1
    assigned, parentless = assign_parents(state, random.Random(0))
    assert assigned == 1 and parentless == []
    for spy in (12, 365, 5):
        # 45 years at the child's birth, then one step younger
        for wife_age, expected in ((45 * spy, 0), (45 * spy - 1, 1)):
            state = make_state(spy=spy)
            couple(state, -2 - 50 * spy, -2 - wife_age)
            add_person(state, MALE, 0, born_step=-2)
            assert assign_parents(state, random.Random(0))[0] == expected
        # a husband of 19 and a wife of about 45.25 years: she reaches the
        # age limit as he becomes old enough, an empty window; a wife one
        # step younger leaves a window of one step, which holds only a
        # child born on that step
        dad_born = -19 * spy
        enter = dad_born - (-75 * spy // 4)
        births = (0, enter + 1, enter, enter - 1, -17 * spy)
        for wife_born, assigned_on in ((enter - 45 * spy, ()),
                                       (enter - 45 * spy + 1, (enter,))):
            state = make_state(spy=spy)
            couple(state, dad_born, wife_born)
            kids = [add_person(state, FEMALE, 0, born_step=b)
                    for b in births]
            assigned, parentless = assign_parents(state, random.Random(0))
            assert assigned == len(assigned_on)
            assert parentless == [k.id for k in kids
                                  if k.born_step not in assigned_on]


def random_couples_world(spy, seed):
    """A world of 240 persons with random genders and birth steps: random
    ones, ones tied on a few birth steps of the last nine years, and ones
    within a step of 18.75 years or of the mother age limit before such a
    step. Each man of the 18.75 years marries at random a woman of either
    of the last two, so many windows open or close on a child's birth
    step, and no couple parents the older random children."""
    rng = random.Random(seed)
    state = make_state(spy=spy)
    gap = -(-75 * spy // 4)
    anchors = [-rng.randrange(9 * spy) for _ in range(8)]
    men, women = [], []
    for _ in range(240):
        kind = rng.randrange(5)
        if kind == 0:
            born = -rng.randrange(70 * spy)
        elif kind == 1:
            born = -rng.randrange(70) * spy
        else:
            born = rng.choice(anchors) + rng.choice((-1, 0, 1)) \
                - (0, gap, 45 * spy)[kind - 2]
        p = add_person(state, rng.choice((MALE, FEMALE)), 0, born_step=born)
        if p.gender == FEMALE and kind > 2:
            women.append(p)
        elif kind == 3:
            men.append(p)
    rng.shuffle(women)
    for m, f in zip(men, women):
        m.partner, f.partner = f.id, m.id
    return state


@pytest.mark.parametrize("spy", [12, 52, 365, 1000, 8760, 37])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_assign_parents_matches_full_scan(spy, seed):
    """The sweep draws the same father for every child as a scan of every
    couple per child, leaves the same children parentless and the RNG in
    the same state, and fills each children set in the same order."""
    swept, scanned = (random_couples_world(spy, seed) for _ in range(2))
    rng_swept, rng_scanned = random.Random(seed), random.Random(seed)
    got = assign_parents(swept, rng_swept)
    want = oracle.assign_parents(scanned, rng_scanned)
    assert got == want
    assert 0 < got[0] and got[1]
    assert rng_swept.getstate() == rng_scanned.getstate()

    def links(state):
        return [(p.father, p.mother, list(p.children))
                for p in state.persons.values()]
    assert links(swept) == links(scanned)


def test_init_world_structure():
    state, report = small_world(pop=400, seed=5)
    assert validate_world(state) == []
    assert report.persons_total == len(state.persons)
    assert report.persons_total == sum(report.per_town.values())
    assert report.adults + report.children == report.persons_total
    spy = state.time.steps_per_year
    adult_steps = ADULT_YEARS * spy
    for p in state.persons.values():
        assert p.alive and p.house is not None
        assert p.born_step == -p.age_steps
        if p.partner is not None:
            q = state.persons[p.partner]
            assert p.age_steps >= adult_steps and q.age_steps >= adult_steps
            assert q.house == p.house
        if p.age_steps < adult_steps:
            assert (p.father is None) == (p.mother is None)
            if p.father is not None:
                dad = state.persons[p.father]
                assert p.house == dad.house
                # both parents clear the age window
                mum = state.persons[p.mother]
                assert 4 * min(dad.age_steps, mum.age_steps) >= \
                    4 * p.age_steps + 75 * spy
                assert mum.age_steps < 45 * spy + p.age_steps
            else:
                assert state.houses[p.house].occupants == {p.id}
                assert p.id in report.parentless_children


def test_init_world_families_housed_together():
    state, _ = small_world(pop=500, seed=9)
    for p in state.persons.values():
        if p.gender == MALE and p.partner is not None:
            house = state.houses[p.house]
            expected = {p.id, p.partner} | p.children
            assert house.occupants == expected


def test_init_world_deterministic():
    a, _ = small_world(pop=300, seed=42)
    b, _ = small_world(pop=300, seed=42)
    from demosim.engine import state_digest
    assert state_digest(a) == state_digest(b)
    c, _ = small_world(pop=300, seed=43)
    assert state_digest(a) != state_digest(c)


def test_init_world_zero_pop():
    state, report = small_world(pop=0, seed=1)
    assert report.persons_total == 0
    assert len(state.persons) == 0
    assert len(state.towns) == 48
    assert validate_world(state) == []


def test_building_a_world_runs_no_census_hook():
    """init_world's writes stay plain attribute writes: no person is a
    CountedPerson until the first census or freeze, which counts them in
    one pass. The benchmark's copy of init_world writes gender and birth
    step after add_person; a census after that equals the recount."""
    state, _ = small_world(pop=300, seed=1)
    assert state.persons
    assert not any(isinstance(p, CountedPerson)
                   for p in state.persons.values())
    state = make_state()
    rng = random.Random(1)
    persons = [state.add_person(gender="", age_steps=0, born_step=0)
               for _ in range(60)]
    assign_genders(persons, rng)
    for p in persons:
        p.age_steps = sample_age(rng, state.time.steps_per_year)
        p.born_step = -p.age_steps
    assert not any(isinstance(p, CountedPerson) for p in persons)
    assert state.census() == oracle.census(state)
    assert all(isinstance(p, CountedPerson) for p in persons)
