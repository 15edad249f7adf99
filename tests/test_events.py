"""Event transitions. Bernoulli draws are scripted through a Random subclass
whose random() pops from a queue (randint/sample/randrange use getrandbits
underneath, so scripting random() leaves house draws untouched)."""
from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import replace

import pytest

from conftest import add_house, add_person, add_town, family_state, make_state
from oracle import marriage_eligible
from demosim.cli import build_config
from demosim.engine import state_digest
from demosim.events import (DEFAULT_EVENT_ORDER, StepOutcome, _screened,
                            age_factor, ageing, births, candidate_count,
                            children_factor, deaths, divorces, geo_factor,
                            marriage_weight, marriages, step,
                            validate_event_order, weighted_pick)
from demosim.model import (ADULT_YEARS, FEMALE, MALE, ConfigError,
                           ModelParams, mark_dead)
from demosim.predicates import SnapshotStore
from demosim.rates import RateContext, default_model_data
from demosim.verification import build_registry


class ScriptedRandom(random.Random):
    """random() pops scripted values, then falls back to the real stream."""

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls)

    def __init__(self, script, seed=0):
        super().__init__(seed)
        self.script = deque(script)

    def random(self):
        if self.script:
            return self.script.popleft()
        return super().random()


def ctx365() -> RateContext:
    return RateContext(ModelParams(), default_model_data(), 365)


def run_step(state, script, order=DEFAULT_EVENT_ORDER):
    snaps = SnapshotStore()
    snaps.freeze(state)
    rng = ScriptedRandom(script)
    outcome = step(state, ctx365(), snaps, rng, order)
    return outcome, snaps, rng


# weight factors; expectations frozen from the closed forms

def test_age_factor_branches():
    assert age_factor(30, 20) == pytest.approx(1 / 6, rel=1e-12)
    assert age_factor(25, 20) == pytest.approx(1.0, rel=1e-12)
    assert age_factor(24.9, 20) == 1.0
    assert age_factor(20, 20) == 1.0
    assert age_factor(18, 20) == 1.0  # diff -2 lands on the branch edge: 1
    assert age_factor(17, 20) == pytest.approx(1 / 2, rel=1e-12)
    assert age_factor(10, 20) == pytest.approx(1 / 9, rel=1e-12)


def test_children_factor_values():
    assert children_factor(1, 1) == pytest.approx(math.exp(-1), rel=1e-12)
    assert children_factor(2, 3) == pytest.approx(math.exp(1), rel=1e-12)
    assert children_factor(0, 0) == 1.0
    assert children_factor(0, 4) == pytest.approx(math.exp(-4), rel=1e-12)
    assert math.isfinite(children_factor(60, 60))  # exponent capped


def test_geo_factor_distance():
    state = make_state()
    t0 = add_town(state, grid_xy=(1, 1))
    t1 = add_town(state, grid_xy=(1, 2))
    h0 = add_house(state, t0)
    h1 = add_house(state, t1)
    m = add_person(state, MALE, 30, h0)
    f = add_person(state, FEMALE, 28, h1)
    assert geo_factor(state, m, f) == pytest.approx(math.exp(-4), rel=1e-12)
    assert marriage_weight(state, m, f) == \
        pytest.approx(math.exp(-4), rel=1e-12)


def test_marriage_weight_large_age_gaps_stay_positive():
    # both tails of the age factor decay toward zero without crossing it,
    # so the defensive floor in marriage_weight never actually bites
    assert age_factor(20, 60) == pytest.approx(1 / 39, rel=1e-12)
    assert age_factor(60, 20) == pytest.approx(1 / 36, rel=1e-12)
    state = make_state()
    town = add_town(state)
    h0 = add_house(state, town)
    m = add_person(state, MALE, 20, h0)
    f = add_person(state, FEMALE, 60, h0)
    assert 0 < marriage_weight(state, m, f) < 0.05


def test_weighted_pick():
    rng = ScriptedRandom([0.95])
    assert weighted_pick(["a", "b"], [1.0, 9.0], rng) == "b"
    rng = ScriptedRandom([0.05])
    assert weighted_pick(["a", "b"], [1.0, 9.0], rng) == "a"
    assert weighted_pick(["a", "b"], [0.0, 0.0], ScriptedRandom([])) is None
    # zero-weight item is unreachable even when the draw lands on its bound
    rng = ScriptedRandom([0.0])
    assert weighted_pick(["a", "b"], [0.0, 1.0], rng) == "b"
    # a draw that reaches the total takes the last item
    assert weighted_pick(["a", "b"], [1.0, 0.0], ScriptedRandom([1.0])) == "b"


def test_weighted_pick_matches_linear_scan():
    """The running-total bisection picks the item a linear scan for the
    first running total above the draw picks, zero weights included."""
    def linear(items, weights, rng):
        total, cumulative = 0.0, []
        for w in weights:
            total += w
            cumulative.append(total)
        if total <= 0.0:
            return None
        x = rng.random() * total
        return next((item for item, bound in zip(items, cumulative)
                     if x < bound), items[-1])

    gen = random.Random(11)
    for _ in range(2000):
        n = gen.randint(1, 12)
        items = list(range(n))
        weights = [gen.choice((0.0, 0.25, 1.0, gen.random(), 1e300))
                   for _ in range(n)]
        seed = gen.random()
        assert weighted_pick(items, weights, random.Random(seed)) == \
            linear(items, weights, random.Random(seed))


def test_candidate_count():
    assert candidate_count(5, 100) == 1
    assert candidate_count(200, 100) == 20
    assert candidate_count(5000, 100) == 100


def test_validate_event_order():
    validate_event_order(DEFAULT_EVENT_ORDER)
    validate_event_order(("ageing", "deaths"))
    with pytest.raises(ConfigError):
        validate_event_order(("deaths", "ageing"))
    with pytest.raises(ConfigError):
        validate_event_order(("ageing", "weddings"))
    with pytest.raises(ConfigError):
        validate_event_order(("ageing", "deaths", "deaths"))
    with pytest.raises(ConfigError):
        validate_event_order(("ageing", "marriages", "divorces"))


def test_ageing_increments_alive_only():
    state, _, _, (dad, mum, kid, single) = family_state()
    dead = add_person(state, MALE, 80)
    mark_dead(state, dead)
    # mum had a child at step 0, the previous step once the clock advances
    baby = add_person(state, MALE, 0, father=dad.id, mother=mum.id)
    mum.gave_birth = True
    before = {p.id: p.age_steps for p in state.persons.values()}
    state.time.step_index = 1
    ageing(state, ctx365(), random.Random(0), StepOutcome(1))
    assert dad.age_steps == before[dad.id] + 1
    assert baby.age_steps == 1
    assert dead.age_steps == before[dead.id]
    assert mum.gave_birth is False  # the flag lasts one step


def test_ageing_moves_new_adult_out():
    state, town, (h0, h1), (dad, mum, kid, single) = family_state()
    spy = state.time.steps_per_year
    kid.age_steps = ADULT_YEARS * spy - 1
    state.time.step_index = 1
    outcome = StepOutcome(1)
    ageing(state, ctx365(), random.Random(0), outcome)
    assert outcome.adults_moved == [kid.id]
    assert kid.house not in (h0.id, h1.id)
    new_house = state.houses[kid.house]
    assert new_house.occupants == {kid.id}
    assert new_house.town == town.id
    assert h0.occupants == {dad.id, mum.id}


def test_age_set_after_a_step_refiles_the_birth_step():
    """born_at files a person at the first step; an age set after that
    moves them to their new birth step, so ageing finds them at 18."""
    state, town, (h0, h1), (dad, mum, kid, single) = family_state()
    snaps, rng = SnapshotStore(), random.Random(0)
    snaps.freeze(state)
    step(state, ctx365(), snaps, rng, ("ageing",))
    kid.age_steps = ADULT_YEARS * state.time.steps_per_year - 1
    assert state.born_at(kid.born_step) == [kid.id]
    outcome = step(state, ctx365(), snaps, rng, ("ageing",))
    assert outcome.adults_moved == [kid.id]
    assert kid.house not in (h0.id, h1.id)


def test_ageing_orphan_oldest_keeps_house():
    state = make_state()
    town = add_town(state)
    h = add_house(state, town)
    spy = state.time.steps_per_year
    dad = add_person(state, MALE, 50)
    dad.alive = False
    older = add_person(state, FEMALE, 17, h, father=dad.id)
    younger = add_person(state, MALE, 10, h, father=dad.id)
    dad.children = {older.id, younger.id}
    older.age_steps = ADULT_YEARS * spy - 1
    state.time.step_index = 1
    outcome = StepOutcome(1)
    ageing(state, ctx365(), random.Random(0), outcome)
    assert outcome.adults_moved == []
    assert older.house == h.id
    assert h.occupants == {older.id, younger.id}


def test_ageing_orphan_not_oldest_moves():
    state = make_state()
    town = add_town(state)
    h = add_house(state, town)
    spy = state.time.steps_per_year
    dad = add_person(state, MALE, 50)
    dad.alive = False
    older = add_person(state, FEMALE, 19, h, father=dad.id)
    mover = add_person(state, MALE, 17, h, father=dad.id)
    dad.children = {older.id, mover.id}
    mover.age_steps = ADULT_YEARS * spy - 1
    state.time.step_index = 1
    outcome = StepOutcome(1)
    ageing(state, ctx365(), random.Random(0), outcome)
    assert outcome.adults_moved == [mover.id]
    assert mover.house != h.id


def test_deaths_scripted():
    state, _, (h0, _), (dad, mum, kid, single) = family_state()
    # dad's draw hits, the other three miss
    outcome, _, _ = run_step(state, [0.0, 0.999, 0.999, 0.999])
    assert outcome.died == [dad.id]
    assert not dad.alive and dad.house is None
    assert dad.partner is None and mum.partner is None
    assert mum.ever_partners == [dad.id]  # history survives widowhood
    assert h0.occupants == {mum.id, kid.id}
    assert dad.children == {kid.id}  # kinship survives death


def test_newborn_immune_to_death_draw():
    state, _, (h0, _), (dad, mum, kid, single) = family_state()
    baby = add_person(state, MALE, 0, h0, father=dad.id, mother=mum.id)
    assert baby.age_steps == 0
    outcome = StepOutcome(1)
    # ageing has not run in this direct call, so the baby still has age 0
    deaths(state, ctx365(), ScriptedRandom([0.0, 0.0, 0.0, 0.0]), outcome)
    assert baby.alive and baby.id not in outcome.died


def test_births_scripted():
    state, _, (h0, _), (dad, mum, kid, single) = family_state()
    # deaths miss x4; mum conceives; gender draw male; dad's divorce misses
    outcome, _, _ = run_step(state, [0.99] * 4 + [0.0, 0.3, 0.99])
    assert len(outcome.born) == 1
    baby = state.persons[outcome.born[0]]
    assert baby.gender == MALE
    assert baby.age_steps == 0 and baby.born_step == 1
    assert (baby.father, baby.mother) == (dad.id, mum.id)
    assert baby.id in dad.children and baby.id in mum.children
    assert baby.house == h0.id
    assert mum.gave_birth is True


def test_birth_spacing_blocks_next_year():
    state, _, _, (dad, mum, kid, single) = family_state()
    outcome, snaps, _ = run_step(state, [0.99] * 4 + [0.0, 0.3, 0.99])
    assert outcome.births == 1
    # next step: 5 death draws, no birth draw for mum, divorce miss
    rng = ScriptedRandom([0.99] * 5 + [0.99])
    outcome2 = step(state, ctx365(), snaps, rng, DEFAULT_EVENT_ORDER)
    assert outcome2.births == 0
    assert len(rng.script) == 0  # exactly the expected draws consumed


def test_unmarried_woman_never_draws_birth():
    state, _, _, (dad, mum, kid, single) = family_state()
    # 4 death draws + mum's fertility draw + dad's divorce draw = 6 exactly;
    # single (unmarried) and kid (minor) must not consume fertility draws
    outcome, _, rng = run_step(state, [0.99] * 6)
    assert outcome.births == 0
    assert len(rng.script) == 0


def test_divorce_scripted():
    state, town, (h0, _), (dad, mum, kid, single) = family_state()
    outcome, _, _ = run_step(state, [0.99] * 4 + [0.99, 0.0])
    assert outcome.divorced == [(dad.id, mum.id)]
    assert dad.partner is None and mum.partner is None
    assert dad.ever_partners == [mum.id]
    new_house = state.houses[dad.house]
    assert new_house.id != h0.id
    assert new_house.occupants == {dad.id}
    assert new_house.town == town.id
    assert h0.occupants == {mum.id, kid.id}
    assert outcome.houses_created == [new_house.id]


def test_marriage_scripted_tie_moves_bride():
    state = make_state()
    town = add_town(state)
    h0 = add_house(state, town)
    h1 = add_house(state, town)
    man = add_person(state, MALE, 30, h0)
    woman = add_person(state, FEMALE, 27, h1)
    outcome, _, _ = run_step(state, [0.99, 0.99, 0.0])
    assert outcome.married == [(man.id, woman.id)]
    assert man.partner == woman.id and woman.partner == man.id
    # equal household sizes: the bride's side moves
    assert woman.house == h0.id
    assert h0.occupants == {man.id, woman.id}
    assert h1.occupants == set()


def test_marriage_merges_smaller_household():
    state = make_state()
    town = add_town(state)
    h0 = add_house(state, town)
    h1 = add_house(state, town)
    man = add_person(state, MALE, 35, h0)
    woman = add_person(state, FEMALE, 33, h1)
    child = add_person(state, FEMALE, 8, h1, mother=woman.id)
    woman.children.add(child.id)
    # deaths 3 misses; births none (woman unmarried); divorces none;
    # marriage hit
    outcome, _, _ = run_step(state, [0.99] * 3 + [0.0])
    assert outcome.married == [(man.id, woman.id)]
    # his household (1) < hers (2): he moves to her house
    assert man.house == h1.id
    assert h1.occupants == {man.id, woman.id, child.id}
    assert h0.occupants == set()


def test_marriage_draw_consumed_when_pool_empty():
    state = make_state()
    town = add_town(state)
    h0 = add_house(state, town)
    man = add_person(state, MALE, 30, h0)
    outcome, _, rng = run_step(state, [0.99, 0.0])
    assert outcome.marriages == 0
    assert len(rng.script) == 0  # the selection draw still happened


def test_marriage_eligibility_rules():
    state = make_state()
    town = add_town(state)
    h = add_house(state, town)
    spy = state.time.steps_per_year
    adult = ADULT_YEARS * spy
    fresh18 = add_person(state, MALE, 0, h)
    older = add_person(state, MALE, 30, h)
    minor = add_person(state, MALE, 17, h)
    woman18 = add_person(state, FEMALE, 0, h)
    snaps = SnapshotStore()
    state.time.step_index = 0
    snaps.freeze(state)
    state.time.step_index = 1
    # set after the clock moves: age follows it
    fresh18.age_steps = adult
    woman18.age_steps = adult
    prev = snaps.before(1)
    assert [p.id for p in marriage_eligible(state, prev, MALE)] == [older.id]
    # females have no exact-18 exclusion
    assert [p.id for p in marriage_eligible(state, prev, FEMALE)] == \
        [woman18.id]


def test_marriage_excludes_prev_married():
    state = make_state()
    town = add_town(state)
    h0 = add_house(state, town)
    h1 = add_house(state, town)
    man = add_person(state, MALE, 40, h0)
    wife = add_person(state, FEMALE, 38, h0)
    man.partner, wife.partner = wife.id, man.id
    other = add_person(state, FEMALE, 30, h1)
    snaps = SnapshotStore()
    snaps.freeze(state)
    state.time.step_index = 1
    # divorce happened during this step
    man.partner = None
    wife.partner = None
    prev = snaps.before(1)
    assert marriage_eligible(state, prev, MALE) == []
    assert [p.id for p in marriage_eligible(state, prev, FEMALE)] == \
        [other.id]


def test_step_increments_time_and_freezes():
    state, *_ = family_state()
    snaps = SnapshotStore()
    snaps.freeze(state)
    outcome = step(state, ctx365(), snaps, random.Random(0))
    assert state.time.step_index == 1
    assert outcome.step_index == 1
    assert snaps.newest().step_index == 1
    assert len(snaps) == 2


def test_step_with_reduced_event_order():
    state, *_ = family_state()
    snaps = SnapshotStore()
    snaps.freeze(state)
    rng = ScriptedRandom([0.0, 0.0, 0.0, 0.0])  # everyone would die
    outcome = step(state, ctx365(), snaps, rng, ("ageing", "deaths"))
    assert outcome.deaths == 4
    assert outcome.births == outcome.marriages == outcome.divorces == 0


def test_bad_order_rejected_before_the_first_step():
    """step() takes the order as validated: a run's config and its
    registry each reject a bad one once, before any step."""
    config = build_config({"initial_pop": "10"})
    with pytest.raises(ConfigError):
        replace(config, event_order=("deaths", "ageing"))
    with pytest.raises(ConfigError):
        build_registry(("deaths", "ageing"))


# _screened: a step's draws of one event from one getrandbits call

class CountingRandom(random.Random):
    """Overrides random() but not getrandbits(), as ScriptedRandom does."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()


class WordsRandom(random.Random):
    """Overrides getrandbits(), which random() never reads."""

    def getrandbits(self, k):
        raise AssertionError("getrandbits must not be called")


@pytest.mark.parametrize("n", [0, 1, 2, 3, 540])
def test_uniforms_are_the_random_calls(n):
    rng, ref = random.Random(11), random.Random(11)
    drawn = list(_screened(rng, n, 1.0))
    assert drawn == [(i, ref.random()) for i in range(n)]
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("below", [0.0, 1 / 256, 0.01, 0.3, 0.5, 1.0])
def test_uniforms_pass_over_only_top_bytes_at_or_above(below):
    """_screened yields exactly the draws whose top byte, floor(256 u), is
    below 256 x below, so every draw below `below` among them, each as
    random() gave it."""
    n = 540
    source = random.Random(5)
    values = [source.random() for _ in range(n)]
    drawn = list(_screened(random.Random(5), n, below))
    visited = [i for i, _ in drawn]
    assert visited == [k for k, u in enumerate(values)
                       if math.floor(256 * u) < 256 * below]
    assert {k for k, u in enumerate(values) if u < below} <= set(visited)
    assert [u for _, u in drawn] == [values[k] for k in visited]


@pytest.mark.parametrize("below", [255.5 / 256, 1.0, 1.5])
def test_uniforms_at_full_pass_are_read_one_at_a_time(below):
    """Where the screen passes every top byte, _screened reads each draw
    through random(): it yields the random() values, leaves the generator
    where they leave it, and makes no getrandbits() call."""
    rng, ref = random.Random(7), random.Random(7)
    words = []
    rng.getrandbits = lambda k: words.append(k) or ref.getrandbits(k)
    drawn = list(_screened(rng, 300, below))
    assert drawn == [(i, ref.random()) for i in range(300)]
    assert rng.getstate() == ref.getstate()
    assert words == []
    # a screen that passes over the top byte 255 batches them
    _screened(rng, 300, 255 / 256)
    assert words == [64 * 300]


@pytest.mark.parametrize("cls", [CountingRandom, WordsRandom])
def test_uniforms_serve_an_overridden_class_through_random(cls):
    """Random.__init_subclass__ serves _randbelow through an overridden
    random(); _screened does the same, yielding every draw, and never
    calls an overridden getrandbits(), whose words random() does not
    read."""
    rng, ref = cls(3), random.Random(3)
    drawn = list(_screened(rng, 4, 0.0))
    assert drawn == [(i, ref.random()) for i in range(4)]
    assert rng.getstate() == ref.getstate()
    if cls is CountingRandom:
        assert rng.calls == 4


def test_deaths_and_births_draw_through_an_overridden_random():
    state, *_ = family_state()
    twin, *_ = family_state()
    rng, ref = CountingRandom(2), random.Random(2)
    snaps, ref_snaps = SnapshotStore(), SnapshotStore()
    snaps.freeze(state)
    ref_snaps.freeze(twin)
    for _ in range(30):
        step(state, ctx365(), snaps, rng)
        step(twin, ctx365(), ref_snaps, ref)
    assert rng.getstate() == ref.getstate()
    assert state_digest(state) == state_digest(twin)
    # 4 death draws, 1 birth draw and 1 divorce draw a step at least
    assert rng.calls >= 30 * 6
