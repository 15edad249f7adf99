"""The five event transitions applied each step, ageing always first.

Draw order is part of the determinism contract. Within every event, persons
are visited in ascending id; each event's draws per person are documented on
the event function. All draws come from the single run RNG stream.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .model import (ADULT_YEARS, ConfigError, IntegrityError, MALE, FEMALE,
                    MOTHER_AGE_LIMIT_YEARS, Person, WorldState,
                    is_orphan_oldest_sibling, link_partners, unlink_partners)
from .predicates import Snapshot, SnapshotStore
from .rates import RateContext
from .space import (find_or_create_empty_house, leave_house, manhattan,
                    move_person, weighted_pick)

DEFAULT_EVENT_ORDER = ("ageing", "deaths", "births", "divorces", "marriages")
EVENT_NAMES = frozenset(DEFAULT_EVENT_ORDER)

# cap on the childrenFactor exponent; beyond this math.exp overflows a double
_MAX_WEIGHT_EXPONENT = 700.0


@dataclass(slots=True)
class StepOutcome:
    """Per-step event audit: id lists per category; counts derive from them."""
    step_index: int
    born: list[int] = field(default_factory=list)
    died: list[int] = field(default_factory=list)
    married: list[tuple[int, int]] = field(default_factory=list)
    divorced: list[tuple[int, int]] = field(default_factory=list)
    adults_moved: list[int] = field(default_factory=list)
    houses_created: list[int] = field(default_factory=list)

    @property
    def births(self) -> int:
        return len(self.born)

    @property
    def deaths(self) -> int:
        return len(self.died)

    @property
    def marriages(self) -> int:
        return len(self.married)

    @property
    def divorces(self) -> int:
        return len(self.divorced)


def validate_event_order(order) -> tuple[str, ...]:
    order = tuple(order)
    if not order or order[0] != "ageing":
        raise ConfigError(f"event order must begin with ageing, got {order!r}")
    unknown = [e for e in order if e not in EVENT_NAMES]
    if unknown:
        raise ConfigError(f"unknown events in order: {unknown}")
    if len(set(order)) != len(order):
        raise ConfigError(f"duplicate events in order: {order!r}")
    if "divorces" in order and "marriages" in order:
        if order.index("divorces") > order.index("marriages"):
            raise ConfigError("divorces must precede marriages "
                              "(marriage eligibility excludes the just-divorced)")
    return order


def age_factor(age_m: float, age_f: float) -> float:
    diff = age_m - age_f
    if diff >= 5:
        return 1.0 / (diff - 5 + 1)
    if diff <= -2:
        return -1.0 / (diff + 2 - 1)
    return 1.0


def geo_factor(state: WorldState, m: Person, f: Person) -> float:
    """exp(-4 x town distance); 0 when either has no live house."""
    house_m, house_f = state.houses.get(m.house), state.houses.get(f.house)
    if house_m is None or house_f is None:
        return 0.0
    return math.exp(-4.0 * manhattan(state.towns[house_m.town],
                                     state.towns[house_f.town]))


def children_factor(n_children_m: int, n_children_f: int) -> float:
    exponent = n_children_m * n_children_f - n_children_m - n_children_f
    return math.exp(min(exponent, _MAX_WEIGHT_EXPONENT))


def marriage_weight(state: WorldState, m: Person, f: Person) -> float:
    """Full matching weight geoFactor * childrenFactor * ageFactor, floored
    at 0 so weighted sampling stays total."""
    spy = state.time.steps_per_year
    w = (geo_factor(state, m, f)
         * children_factor(len(m.children), len(f.children))
         * age_factor(m.age_steps / spy, f.age_steps / spy))
    return max(0.0, w)


def _move_to_own_empty_house(state: WorldState, person: Person,
                             rng: random.Random, outcome: StepOutcome) -> bool:
    """Relocate one person alone to an empty house in their current town;
    False, with nobody moved, when they have no live house (so no town)."""
    current = state.houses.get(person.house)
    if current is None:
        return False
    town = state.towns[current.town]
    before = state.next_house_id
    house = find_or_create_empty_house(state, town, rng)
    if state.next_house_id != before:
        outcome.houses_created.append(house.id)
    move_person(state, person, house)
    return True


def ageing(state: WorldState, ctx: RateContext, rng: random.Random,
           outcome: StepOutcome) -> None:
    """Increment every alive person's age by one step; persons reaching
    exactly 18 years move alone to an empty house in their town, except an
    orphan who is the oldest alive sibling (they keep the family house).
    Also resets the per-step gave_birth flags. Draws: only the house
    selection for each mover, in ascending id order."""
    adult_steps = ADULT_YEARS * state.time.steps_per_year
    movers: list[Person] = []
    for p in state.persons.values():
        p.gave_birth = False
        if not p.alive:
            continue
        p.age_steps += 1
        if p.age_steps == adult_steps:
            movers.append(p)
    for p in movers:
        if is_orphan_oldest_sibling(state, p,
                                    lambda q: state.persons[q].alive,
                                    lambda q: state.persons[q].age_steps):
            continue
        if _move_to_own_empty_house(state, p, rng, outcome):
            outcome.adults_moved.append(p.id)


def deaths(state: WorldState, ctx: RateContext, rng: random.Random,
           outcome: StepOutcome) -> None:
    """One Bernoulli(death p_step) draw per alive non-neonate, ascending id.
    Dying persons stay on record (kinship intact, age frozen) but leave their
    house and widow their partner."""
    draw, death_p_step = rng.random, ctx.death_p_step
    for p in [q for q in state.persons.values() if q.alive and q.age_steps > 0]:
        if draw() < death_p_step(p):
            unlink_partners(state, p)
            leave_house(state, p)
            p.alive = False
            outcome.died.append(p.id)


def _reproducible_women(state: WorldState) -> list[Person]:
    """Married women below the mother age limit whose latest live birth lies
    more than a year back (time-based, so a child's death cannot freeze the
    spacing rule)."""
    spy = state.time.steps_per_year
    limit = MOTHER_AGE_LIMIT_YEARS * spy
    now = state.time.step_index
    out = []
    for p in state.persons.values():
        if not (p.alive and p.gender == FEMALE and p.partner is not None
                and p.age_steps < limit):
            continue
        if p.children:
            last_birth = max(state.persons[c].born_step for c in p.children)
            if now - last_birth <= spy:
                continue
        out.append(p)
    return out


def births(state: WorldState, ctx: RateContext, rng: random.Random,
           outcome: StepOutcome) -> None:
    """One Bernoulli(fertility p_step) draw per reproducible woman, ascending
    id; on success one gender draw. The neonate starts in the mother's house
    with both parent links set."""
    for mother in _reproducible_women(state):
        if rng.random() >= ctx.fertility_p_step(mother, state.time):
            continue
        if mother.partner is None:
            raise IntegrityError(f"reproducible woman p{mother.id} has no partner")
        father = state.persons[mother.partner]
        gender = MALE if rng.random() < 0.5 else FEMALE
        child = state.add_person(gender, age_steps=0,
                                 born_step=state.time.step_index,
                                 father=father.id, mother=mother.id)
        father.children.add(child.id)
        mother.children.add(child.id)
        home = state.houses.get(mother.house)
        if home is not None:  # a homeless mother's neonate is homeless too
            move_person(state, child, home)
        mother.gave_birth = True
        outcome.born.append(child.id)


def divorces(state: WorldState, ctx: RateContext, rng: random.Random,
             outcome: StepOutcome) -> None:
    """One Bernoulli(divorce p_step) draw per married male not married this
    very step, ascending id; on divorce the male moves alone to an empty
    house in the same town, the rest of the household stays."""
    married_this_step = {m for m, _ in outcome.married}
    eligible = [p for p in state.persons.values()
                if p.alive and p.gender == MALE and p.partner is not None
                and p.id not in married_this_step]
    for man in eligible:
        if rng.random() < ctx.divorce_p_step(man):
            wife_id = man.partner
            unlink_partners(state, man)
            _move_to_own_empty_house(state, man, rng, outcome)
            outcome.divorced.append((man.id, wife_id))


def marriage_eligible(state: WorldState, prev: Snapshot,
                      gender: str) -> list[Person]:
    """Single adults of one gender, excluding those married at the previous
    step (covers the just-divorced and delays widowed persons one step).
    Males who turned exactly 18 this step are excluded too; females are
    not."""
    adult_steps = ADULT_YEARS * state.time.steps_per_year
    return [p for p in state.persons.values()
            if p.alive and p.gender == gender and p.partner is None
            and p.age_steps >= adult_steps and p.id not in prev.married
            and (gender == FEMALE or p.age_steps != adult_steps)]


def candidate_count(pool_size: int, max_num_marr_cand: int) -> int:
    """Number of candidate brides sampled per marrying male: a tenth of the
    pool, at least one, at most max_num_marr_cand."""
    return min(max_num_marr_cand, max(1, pool_size // 10))


def find_bride(man: Person, pool: list[Person], n_cand: int,
               weight: Callable[[Person, Person], float],
               rng: random.Random) -> Person | None:
    """Sample up to n_cand candidate brides from the pool, pick one by
    weight(man, candidate), link the couple and take the bride out of the
    pool. None if the pool is empty (no draw) or every weight is zero."""
    if not pool:
        return None
    candidates = rng.sample(pool, min(n_cand, len(pool)))
    bride = weighted_pick(candidates, [weight(man, f) for f in candidates],
                          rng)
    if bride is not None:
        link_partners(man, bride)
        pool.remove(bride)
    return bride


def marriages(state: WorldState, ctx: RateContext, prev: Snapshot,
              rng: random.Random, outcome: StepOutcome) -> None:
    """One Bernoulli(marriage p_step) draw per eligible male, ascending id
    (drawn even when the bride pool is empty, to keep the stream aligned);
    on success: sample candidates without replacement, pick one by full
    weight, marry, merge households (the smaller household moves, ties move
    the wife's side)."""
    males = marriage_eligible(state, prev, MALE)
    pool = marriage_eligible(state, prev, FEMALE)
    n_cand = candidate_count(len(pool), ctx.params.max_num_marr_cand)
    weight = partial(marriage_weight, state)
    for man in males:
        if rng.random() >= ctx.marriage_p_step(man):
            continue
        bride = find_bride(man, pool, n_cand, weight, rng)
        if bride is None:
            continue
        _merge_households(state, man, bride)
        outcome.married.append((man.id, bride.id))


def _merge_households(state: WorldState, man: Person, bride: Person) -> None:
    his, hers = state.houses.get(man.house), state.houses.get(bride.house)
    if his is None or hers is None or his is hers:
        return
    if len(his.occupants) >= len(hers.occupants):
        source, target = hers, his
    else:
        source, target = his, hers
    for pid in sorted(source.occupants):
        move_person(state, state.persons[pid], target)


_EVENTS = {"deaths": deaths, "births": births, "divorces": divorces}


def step(state: WorldState, ctx: RateContext, snaps: SnapshotStore,
         rng: random.Random, event_order=DEFAULT_EVENT_ORDER) -> StepOutcome:
    """Advance the clock one step, apply the configured events (ageing first),
    freeze the new snapshot, and return the merged outcome."""
    order = validate_event_order(event_order)
    state.time.step_index += 1
    prev = snaps.before(state.time.step_index)
    outcome = StepOutcome(step_index=state.time.step_index)
    ageing(state, ctx, rng, outcome)
    for name in order[1:]:
        if name == "marriages":
            marriages(state, ctx, prev, rng, outcome)
        else:
            _EVENTS[name](state, ctx, rng, outcome)
    snaps.freeze(state)
    return outcome
