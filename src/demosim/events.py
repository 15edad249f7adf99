"""The five event transitions applied each step, ageing always first.

Draw order is part of the determinism contract. Within every event, persons
are visited in ascending id; each event's draws per person are documented on
the event function. All draws come from the single run RNG stream. A
Bernoulli event draws for every eligible person and reads the person's rate
only when the draw is below the event's ceiling in RateContext, which no
rate of that event exceeds; a draw at or above it cannot fire. Deaths
test a draw against the band ceiling of the person's gender and whole year
of age instead (RateContext.death_band), which is at most the event's
ceiling. A screen decides only whether the rate is read, never whether a
draw is made, so the draw order is the same with or without it.

Deaths draws a step's uniforms through _screened: with one getrandbits
call, which leaves the generator exactly as one random() call per draw
would, rebuilding only the draws whose top byte can fall below its
threshold, or, where the threshold passes every top byte, with one
random() call per draw, which a batch would only slow. The other events
draw one random() at a time:
births' roster is too short for a batch to pay for its fixed cost, and a
hit in divorces or marriages draws a variable number of words through
randrange and sample, so a batch drawn ahead of it could not be handed
back.

Every event visits a roster of the persons who can take part
(WorldState.roster), whose key is written in the paper's predicates. On a
step with nothing in the change window (model.EMPTY_WINDOW), the usual one
on a fine clock, each roster read returns the kept list and deaths returns
once its draws pass the screen, so such a step costs little more than its
draws.
"""
from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .model import (ConfigError, IntegrityError, MALE, FEMALE, Person,
                    WorldState, is_orphan_oldest_sibling, link_partners,
                    mark_dead, unlink_partners)
from .predicates import (Snapshot, SnapshotStore, is_adult, is_alive,
                         is_female, is_male, is_married, is_single)
from .rates import RateContext
from .space import (find_or_create_empty_house, leave_house, manhattan,
                    move_person, weighted_pick)

DEFAULT_EVENT_ORDER = ("ageing", "deaths", "births", "divorces", "marriages")
EVENT_NAMES = frozenset(DEFAULT_EVENT_ORDER)

# cap on the childrenFactor exponent; beyond this math.exp overflows a double
_MAX_WEIGHT_EXPONENT = 700.0


@dataclass(slots=True, init=False)
class StepOutcome:
    """Per-step event audit: id lists per category; counts derive from them."""
    step_index: int
    born: list[int]
    died: list[int]
    married: list[tuple[int, int]]
    divorced: list[tuple[int, int]]
    adults_moved: list[int]
    houses_created: list[int]

    # by hand: the generated __init__ calls a factory for each list
    def __init__(self, step_index: int) -> None:
        self.step_index = step_index
        self.born, self.died, self.married = [], [], []
        self.divorced, self.adults_moved, self.houses_created = [], [], []

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
    spy, now = state.time.steps_per_year, state.time.step_index
    w = (geo_factor(state, m, f)
         * children_factor(len(m.children), len(f.children))
         * age_factor((now - m.born_step) / spy, (now - f.born_step) / spy))
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


# random() builds each double from two 32-bit Mersenne Twister words a, b
# as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and getrandbits(64 n) writes
# 2 n words least significant first: in its 8 n little-endian bytes, draw
# i's words are the pair at byte 8 i, and byte 8 i + 3, a's top byte, is
# floor(256 u) of the double u they give.
_WORDS = struct.Struct("<II")
_MT = random.Random
# translate tables for the screen: entry k marks the top bytes below k
_SCREENS = [b"\1" * k + b"\0" * (256 - k) for k in range(256)]


def _screened(rng: random.Random, n: int, below: float):
    """(i, u) for each of n successive rng.random() draws u, in turn, whose
    top byte can put it below `below`; the others are passed over. The n
    draws come from one getrandbits(64 n) call, which leaves rng as n
    random() calls would. Where the screen passes every top byte, or
    rng's class overrides random() or getrandbits(), each draw is read
    through rng.random() instead: a batch then saves nothing, or would
    not give the overridden draws."""
    # rng.random() reads the words getrandbits() returns only when the
    # class overrides neither: Random.__init_subclass__ serves _randbelow
    # through an overridden random() by the same rule, and random() never
    # reads an overridden getrandbits()
    k = math.ceil(256 * below)
    cls = type(rng)
    if (k >= 256 or cls.random is not _MT.random
            or cls.getrandbits is not _MT.getrandbits):
        draw = rng.random
        return [(i, draw()) for i in range(n)]
    buf = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    # 1 for each draw whose top byte c has c < 256 below, else 0
    low = buf[3::8].translate(_SCREENS[k])
    i = low.find(1)
    if i < 0:
        return ()
    passed = []
    while i >= 0:
        a, b = _WORDS.unpack_from(buf, 8 * i)
        passed.append((i, ((a >> 5) * 67108864 + (b >> 6))
                       / 9007199254740992))
        i = low.find(1, i + 1)
    return passed


def ageing(state: WorldState, ctx: RateContext, rng: random.Random,
           outcome: StepOutcome) -> None:
    """Ages follow the clock, so none is written. Clears the gave_birth
    flags births set at the previous step, past CountedPerson's journal
    note: a cleared flag is never a fault, and a note would only keep the
    next step from being idle. Alive persons born exactly 18 years ago
    move alone to an empty house in their town, except an orphan who is
    the oldest alive sibling (they keep the family house). Draws: only the
    house selection for each mover, in ascending id order."""
    now, persons = state.time.step_index, state.persons
    for pid in state.born_at(now - 1):
        mother = persons.get(persons[pid].mother)
        if mother is not None:
            object.__setattr__(mother, "gave_birth", False)
    for pid in state.born_at(state.time.came_of_age):
        p = persons[pid]
        if not p.alive or is_orphan_oldest_sibling(
                state, p, lambda q: persons[q].alive):
            continue
        if _move_to_own_empty_house(state, p, rng, outcome):
            outcome.adults_moved.append(p.id)


# Each roster key, before the event that reads it, is the `and` of the
# paper's Boolean predicates and of named model rules: a module function,
# which pickle and deepcopy keep as itself, as state.kept's key.

def _born_before_now(state: WorldState, p: Person) -> bool:
    """A neonate of this step draws for no death until the next one."""
    return p.born_step < state.time.step_index


def _mortal(state: WorldState, p: Person) -> bool:
    """isAlive and born before now: the persons deaths draws for."""
    return is_alive(state, p) and _born_before_now(state, p)


def _death_threshold(state: WorldState, ctx: RateContext,
                     mortal: list[int]) -> float:
    """A bound on the death_band of everyone on the deaths roster: the
    larger of the two genders' bands at the age of the oldest of them.
    Read from a lower bound on their birth steps, kept in WorldState.kept
    as (the step it was read at, the bound, its band year), lowered for
    every person in the window the roster reads again, as a birth-step
    write and a revival journal the person, and refreshed from the roster
    when its band year goes stale (the oldest may have died)."""
    now, persons = state.time.step_index, state.persons
    spy = ctx.steps_per_year
    read_at, low, year = state.kept.get(_death_threshold, (None, 0, 0))
    changed = state.changed_since(read_at)
    if changed is not None:
        for p in map(persons.__getitem__, changed[0]):
            if p.born_step < low and _mortal(state, p):
                low = p.born_step
    if changed is None or (now - low) // spy != year:
        low = min((persons[pid].born_step for pid in mortal), default=now)
        year = (now - low) // spy
    state.kept[_death_threshold] = (now, low, year)
    return max(ctx.death_band(MALE, year), ctx.death_band(FEMALE, year))


def deaths(state: WorldState, ctx: RateContext, rng: random.Random,
           outcome: StepOutcome) -> None:
    """One Bernoulli(death p_step) draw per alive non-neonate, ascending id,
    all read through _screened: only a draw whose top byte can fall below
    _death_threshold (or death_ceiling, where that is at most 1/256) is
    read, then tested against the person's year band (death_band), which
    is at most death_ceiling, and then death_p_step; each bounds the next,
    so a draw passes both exactly when u < death_p_step. Dying persons stay
    on record (kinship intact, age frozen) but leave their house and widow
    their partner. Visits the roster of the living born before this step
    (WorldState.roster): a death changes only the dying person's `alive`,
    so the roster read before the first draw holds who draws."""
    mortal = state.roster(_mortal)
    # a screen passes whole top bytes: with the ceiling at most 1/256, no
    # lower threshold passes fewer draws, so no bound is kept
    below = ctx.death_ceiling
    if 256 * below > 1:
        below = _death_threshold(state, ctx, mortal)
    passed = _screened(rng, len(mortal), below)
    if not passed:
        return
    persons, death_p_step = state.persons, ctx.death_p_step
    band, now, spy = ctx.death_band, state.time.step_index, ctx.steps_per_year
    for i, u in passed:
        p = persons[mortal[i]]
        if (u < band(p.gender, (now - p.born_step) // spy)
                and u < death_p_step(p)):
            unlink_partners(state, p)
            leave_house(state, p)
            mark_dead(state, p)
            outcome.died.append(p.id)


def _under_mother_limit(state: WorldState, p: Person) -> bool:
    return p.age_steps < state.time.mother_limit_steps


def _spaced(state: WorldState, p: Person) -> bool:
    """No child born within the last year, by birth step: a child's death
    cannot freeze the spacing."""
    year_ago, persons = state.time.year_ago, state.persons
    return all(persons[c].born_step < year_ago for c in p.children)


def _fertile_wife(state: WorldState, p: Person) -> bool:
    """isFemale and isMarried and isAlive and isAdult, under the mother age
    limit and spaced: the women births draws for. isAdult keeps a married
    minor out of the fertility table."""
    return (is_female(state, p) and is_married(state, p)
            and is_alive(state, p) and is_adult(state, p)
            and _under_mother_limit(state, p) and _spaced(state, p))


def births(state: WorldState, ctx: RateContext, rng: random.Random,
           outcome: StepOutcome) -> None:
    """One Bernoulli(fertility p_step) draw per reproducible woman, ascending
    id; on success one gender draw. The neonate starts in the mother's house
    with both parent links set. Visits only the roster of reproducible
    women (WorldState.roster), so no other woman's children are walked."""
    draw, fertility_p_step, time = rng.random, ctx.fertility_p_step, state.time
    ceiling, persons = ctx.fertility_ceiling, state.persons
    for pid in state.roster(_fertile_wife):
        u = draw()
        if u >= ceiling or u >= fertility_p_step(mother := persons[pid], time):
            continue
        if mother.partner is None:
            raise IntegrityError(f"reproducible woman p{mother.id} has no partner")
        father = persons[mother.partner]
        gender = MALE if draw() < 0.5 else FEMALE
        child = state.add_person(gender, age_steps=0,
                                 born_step=time.step_index,
                                 father=father.id, mother=mother.id)
        father.children.add(child.id)
        mother.children.add(child.id)
        home = state.houses.get(mother.house)
        if home is not None:  # a homeless mother's neonate is homeless too
            move_person(state, child, home)
        mother.gave_birth = True
        outcome.born.append(child.id)


def _married_man(state: WorldState, p: Person) -> bool:
    """isMale and isMarried and isAlive: the men divorces draws for."""
    return is_male(state, p) and is_married(state, p) and is_alive(state, p)


def divorces(state: WorldState, ctx: RateContext, rng: random.Random,
             outcome: StepOutcome) -> None:
    """One Bernoulli(divorce p_step) draw per married alive male, ascending
    id; on divorce the male moves alone to an empty house in the same town,
    the rest of the household stays. Divorces precede marriages in every
    valid event order, so none of these males married this step. One pass
    over the married men's roster: a divorce changes only the man, already
    visited, and his wife, who is female."""
    draw, divorce_p_step = rng.random, ctx.divorce_p_step
    ceiling, persons = ctx.divorce_ceiling, state.persons
    for pid in state.roster(_married_man):
        if (u := draw()) < ceiling and u < divorce_p_step(man := persons[pid]):
            wife_id = man.partner
            unlink_partners(state, man)
            _move_to_own_empty_house(state, man, rng, outcome)
            outcome.divorced.append((man.id, wife_id))


def _came_of_age_now(state: WorldState, p: Person) -> bool:
    """Turning adult at this step. A man joins the marriage pool one step
    after that; ageing moves him out at it."""
    return p.born_step == state.time.came_of_age


def _single_man(state: WorldState, p: Person) -> bool:
    """isMale and isSingle and isAlive and isAdult, less those who came of
    age now: the men marriages draws for. marriages also leaves out those
    married at the previous step: that reads a snapshot, which each freeze
    replaces with no journal write, so a roster cannot follow it."""
    return (is_male(state, p) and is_single(state, p) and is_alive(state, p)
            and is_adult(state, p) and not _came_of_age_now(state, p))


def _single_woman(state: WorldState, p: Person) -> bool:
    """isFemale and isSingle and isAlive and isAdult: the bride pool."""
    return (is_female(state, p) and is_single(state, p)
            and is_alive(state, p) and is_adult(state, p))


def candidate_count(pool_size: int, max_num_marr_cand: int) -> int:
    """Number of candidate brides sampled per marrying male: a tenth of the
    pool, at least one, at most max_num_marr_cand."""
    return min(max_num_marr_cand, max(1, pool_size // 10))


def find_bride(state: WorldState, man: Person, pool: list[Person],
               n_cand: int, weight: Callable[[Person, Person], float],
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
        link_partners(state, man, bride)
        pool.remove(bride)
    return bride


def marriages(state: WorldState, ctx: RateContext, prev: Snapshot,
              rng: random.Random, outcome: StepOutcome) -> None:
    """One Bernoulli(marriage p_step) draw per eligible male, ascending id
    (drawn even when the bride pool is empty, to keep the stream aligned);
    on success: sample candidates without replacement, pick one by full
    weight, marry, merge households (the smaller household moves, ties move
    the wife's side). The bride pool is built when a draw first fires:
    before that nobody has married, so it is the pool at the event's
    start. Visits the rosters of single adult men and women
    (WorldState.roster), less those married at the previous step."""
    persons, married = state.persons, prev.married
    males = state.roster(_single_man)
    females = state.roster(_single_woman)
    pool = None
    draw, ceiling = rng.random, ctx.marriage_ceiling
    for pid in males:
        if (pid in married or (u := draw()) >= ceiling
                or u >= ctx.marriage_p_step(man := persons[pid])):
            continue
        if pool is None:
            pool = [persons[pid] for pid in females if pid not in married]
            n_cand = candidate_count(len(pool), ctx.params.max_num_marr_cand)
            weight = partial(marriage_weight, state)
        bride = find_bride(state, man, pool, n_cand, weight, rng)
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
    """Advance the clock one step, apply the events in their validated order
    (ageing first), freeze the new snapshot, and return the merged outcome."""
    time = state.time
    now = time.step_index = time.step_index + 1
    prev = snaps.before(now)
    outcome = StepOutcome(now)
    ageing(state, ctx, rng, outcome)
    for name in event_order[1:]:
        if name == "marriages":
            marriages(state, ctx, prev, rng, outcome)
        else:
            _EVENTS[name](state, ctx, rng, outcome)
    snaps.freeze(state)
    return outcome
