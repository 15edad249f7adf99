"""Frozen full-sweep reference checks for the differential tests.

Each function here is the plain, whole-state version of a check that the
package now evaluates incrementally. They are kept as they were before the
incremental version replaced them and must not be optimised: the
differential tests require the live checks to return identical Violation
lists. The structural rules and the five step-change checks are copied
verbatim from the package as it was before the checks read the change
journal; `check_step` evaluates them, with the kinship check below, in
the registry's order.

The four Bernoulli event kernels (`deaths`, `births`, `divorces`,
`marriages`), `step` and the per-gender death memo (`MemoRates`) are copied
verbatim from the package as it was before the kernels screened each draw
against a rate ceiling: every draw looks its rate up. The lockstep test
steps a world with them beside one stepped by the live kernels. They
find the eligible persons by full scans over everyone on record,
`reproducible_women` and `marriage_eligible`, which the package kept as
references once its kernels read eligibility rosters; the roster tests
compare each roster read with them.

`FullSnapshot` is the snapshot constructor as it was before a freeze
shared the columns no journaled person changed: a full copy of every
column, which the lockstep snapshot test compares each freeze with.
`SpaceSets` and `space_changes` are the retrospective space checks as they
were before the space digest stopped hashing: frozenset diffs.

`assign_parents` is the father draw of initialization as it was before it
swept the children in birth-step order: each child scans every couple,
which the differential initialization test compares the sweep with.

`census` is the recount `TimeSeries.append` made at every step before the
person writes kept its counts: one pass over everyone on record, which the
lockstep census test compares `WorldState.census` with.
"""
from __future__ import annotations

import math
import random
from array import array
from functools import partial
from itertools import repeat
from typing import NamedTuple

from demosim.events import (DEFAULT_EVENT_ORDER, StepOutcome,
                            _merge_households, _move_to_own_empty_house,
                            ageing, candidate_count, find_bride,
                            marriage_weight, validate_event_order)
from demosim.model import (ADULT_YEARS, FEMALE, HOUSE_COORD_BOUNDS, MALE,
                           MOTHER_AGE_LIMIT_YEARS, Fault, IntegrityError,
                           Person, WorldState, is_orphan_oldest_sibling,
                           mark_dead, unlink_partners)
from demosim.predicates import Snapshot, SnapshotStore
from demosim.rates import RateContext, death_rate_yearly_at, instantaneous
from demosim.space import leave_house, move_person
from demosim.verification import Violation


def _adult_steps(state: WorldState) -> int:
    return ADULT_YEARS * state.time.steps_per_year


def _prev(state: WorldState, snaps: SnapshotStore) -> Snapshot:
    return snaps.before(state.time.step_index)


# ------------------------------------------------------ structural rules

def _person_fault(kind: str, pid: int, *others: int) -> Fault:
    return Fault((pid, *others), f"{kind}: p{pid}")


def residence_faults(state: WorldState) -> list[Fault]:
    """Every alive person lives in a house that exists and lists them."""
    out = []
    for pid, p in state.persons.items():
        if not p.alive:
            continue
        if p.house is None:
            out.append(_person_fault("alive person without house", pid))
        elif p.house not in state.houses:
            out.append(_person_fault("dangling house ref", pid))
        elif pid not in state.houses[p.house].occupants:
            out.append(_person_fault("occupant set misses resident", pid))
    return out


def dead_residence_faults(state: WorldState) -> list[Fault]:
    """The dead hold no house, and an occupant set lists only living
    persons who live in that house."""
    out = [_person_fault("dead person keeps house", pid)
           for pid, p in state.persons.items()
           if not p.alive and p.house is not None]
    for hid, h in state.houses.items():
        for pid in h.occupants:
            occ = state.persons.get(pid)
            if occ is None or not occ.alive or occ.house != hid:
                out.append(Fault((pid,), f"stale occupant p{pid}: h{hid}"))
    return out


def partnership_faults(state: WorldState) -> list[Fault]:
    """Partnerships are symmetric, opposite-gender and between living
    adults. Each partner is checked from both sides."""
    adult_steps = ADULT_YEARS * state.time.steps_per_year
    out = []
    for pid, p in state.persons.items():
        if p.partner is None:
            continue
        other = state.persons.get(p.partner)
        if other is None:
            out.append(_person_fault("dangling partner ref", pid))
            continue
        if other.partner != pid:
            out.append(_person_fault("partnership not symmetric", pid))
        if other.gender == p.gender:
            out.append(_person_fault("partners share gender", pid, other.id))
        if not (p.alive and other.alive):
            out.append(_person_fault("dead person still partnered", pid,
                                     other.id))
        if p.age_steps < adult_steps:
            out.append(_person_fault("married minor", pid))
    return out


def house_xy_faults(state: WorldState) -> list[Fault]:
    """House coordinates lie within HOUSE_COORD_BOUNDS on both axes."""
    lo, hi = HOUSE_COORD_BOUNDS
    return [Fault((hid,), f"house coordinates out of range: h{hid}")
            for hid, h in state.houses.items()
            if not (lo <= h.local_xy[0] <= hi and lo <= h.local_xy[1] <= hi)]


# ------------------------------------------------------ step-change checks

def _born_now(state: WorldState) -> list[Person]:
    """Persons born this step, ascending id."""
    now = state.time.step_index
    return [q for q in state.persons.values() if q.born_step == now]


def _died_now(state: WorldState, prev: Snapshot) -> set[int]:
    """Ids alive at the previous step and dead now."""
    return {pid for pid in prev.alive if not state.persons[pid].alive}


def _turned_adult(state: WorldState,
                  prev: Snapshot) -> list[tuple[Person, bool]]:
    """Persons alive at the previous step who are exactly 18 years old now,
    ascending id, each with whether the orphan stay-home exception held when
    ageing ran (parents and siblings as frozen, siblings one step older)."""
    adult = _adult_steps(state)
    return [(p, is_orphan_oldest_sibling(state, p, prev.alive.__contains__))
            for p in state.persons.values()
            if p.age_steps == adult and p.id in prev.alive]


def _divorced_males(state: WorldState, prev: Snapshot) -> list[Person]:
    """Males married at the previous step, alive and single now, whose ex is
    alive (so divorced, not widowed), ascending id."""
    out = []
    for pid in sorted(prev.married):
        p = state.persons[pid]
        if p.gender == MALE and p.alive and p.partner is None \
                and state.persons[prev.partner[pid]].alive:
            out.append(p)
    return out


def _just_married_couples(state: WorldState,
                          prev: Snapshot) -> list[tuple[Person, Person]]:
    """(husband, wife) pairs married this step, ascending husband id."""
    return [(p, state.persons[p.partner]) for p in state.persons.values()
            if p.gender == MALE and p.partner is not None
            and p.id not in prev.married]


def _check_no_adoption(state: WorldState, snaps) -> list[Violation]:
    """Runtime face of the no-adoption assumption: nobody dead at the previous
    step is alive now. Parent links are immutable by construction (set only at
    creation), which unit tests pin; snapshots carry no parent attributes."""
    prev = _prev(state, snaps)
    bad = [pid for pid in prev.known
           if pid not in prev.alive and state.persons[pid].alive]
    if not bad:
        return []
    return [Violation("a_p_no_adoption", state.time.step_index, tuple(bad),
                      "dead persons must stay dead")]


def _check_married_gives_birth(state: WorldState, snaps) -> list[Violation]:
    out = []
    spy = state.time.steps_per_year
    now = state.time.step_index
    mothers_with_neonate = set()
    for q in _born_now(state):
        if q.father is None or q.mother is None:
            out.append(Violation("a_p_married_gives_birth", now, (q.id,),
                                 "neonate lacks a parent link"))
            continue
        mother = state.persons[q.mother]
        mothers_with_neonate.add(mother.id)
        if not mother.gave_birth:
            out.append(Violation("a_p_married_gives_birth", now,
                                 (q.id, mother.id),
                                 "mother not flagged for this birth"))
        if mother.age_steps >= MOTHER_AGE_LIMIT_YEARS * spy:
            out.append(Violation("a_p_married_gives_birth", now, (mother.id,),
                                 f"mother aged {MOTHER_AGE_LIMIT_YEARS} or "
                                 f"older at birth"))
        father_ok = (mother.partner == q.father
                     or (mother.partner is None and mother.ever_partners
                         and mother.ever_partners[-1] == q.father))
        if not father_ok:
            out.append(Violation("a_p_married_gives_birth", now,
                                 (q.id, q.father),
                                 "father is not the mother's partner at birth"))
        if mother.alive and q.house != mother.house:
            out.append(Violation("a_p_married_gives_birth", now, (q.id,),
                                 "neonate not housed with its mother"))
    flagged = {p.id for p in state.persons.values() if p.gave_birth}
    for pid in sorted(flagged - mothers_with_neonate):
        out.append(Violation("a_p_married_gives_birth", now, (pid,),
                             "gave_birth flag without a neonate this step"))
    return out


def _move_out_violations(label: str, who: str, state: WorldState,
                         prev: Snapshot, p: Person) -> list[Violation]:
    """The move-out rule shared by new adults and divorced males: alone in a
    house other than the previous one, in the previous town."""
    house = state.houses.get(p.house) if p.house is not None else None
    if house is None:
        return []  # homeless check reports this
    now = state.time.step_index
    out = []
    if house.occupants != {p.id}:
        out.append(Violation(label, now, (p.id,), f"{who} must live alone"))
    if p.house == prev.house.get(p.id):
        out.append(Violation(label, now, (p.id,),
                             f"{who} must leave the family house"))
    old = prev.old_house(p.id, state)
    if old is None or house.town != old.town:
        out.append(Violation(label, now, (p.id,),
                             f"{who} must stay in the same town"))
    return out


def _check_adult_moves_out(state: WorldState, snaps) -> list[Violation]:
    prev = _prev(state, snaps)
    turned_adult = _turned_adult(state, prev)
    if not turned_adult:
        return []
    just_married = {pid for m, f in _just_married_couples(state, prev)
                    for pid in (m.id, f.id)}
    out = []
    for p, stays_home in turned_adult:
        if not p.alive or p.id in just_married:
            continue  # housing of the just-married is the marriage check's
        if stays_home:
            if p.house != prev.house.get(p.id):
                out.append(Violation("a_adult_moves_out",
                                     state.time.step_index, (p.id,),
                                     "oldest orphan sibling must keep the "
                                     "family house"))
        else:
            out.extend(_move_out_violations("a_adult_moves_out",
                                            "new adult", state, prev, p))
    return out


def _check_divorce_male_moves(state: WorldState, snaps) -> list[Violation]:
    """Checks the move-out rule for this step's divorced males. A male whose
    ex died the same step is classified widowed and skipped: under orders
    where deaths follow divorces this misses the occasional real divorce
    (false negative) but never flags a legal state."""
    prev = _prev(state, snaps)
    out = []
    for p in _divorced_males(state, prev):
        out.extend(_move_out_violations("a_divorce_male_moves",
                                        "divorced male", state, prev, p))
    return out


def _make_marriage_housing_check(event_order: tuple[str, ...]):
    """The marriage-housing rule depends on which events precede marriages in
    the configured order, so the check is built per run. It replays the
    step's occupancy from the previous snapshot (ageing moves, then the
    pre-marriage events, then each merge in ascending groom id) and compares
    the resulting households with the live state."""
    order = validate_event_order(event_order)
    if "marriages" in order:
        pre_marriage = order[1:order.index("marriages")]
    else:
        pre_marriage = ()

    def check(state: WorldState, snaps) -> list[Violation]:
        prev = _prev(state, snaps)
        now = state.time.step_index
        couples = _just_married_couples(state, prev)
        if not couples:
            return []

        slot_of: dict[int, object] = {}
        occ: dict[object, set[int]] = {}

        def move(pid: int, slot) -> None:
            old = slot_of.get(pid)
            if old is not None:
                occ[old].discard(pid)
            slot_of[pid] = slot
            occ.setdefault(slot, set()).add(pid)

        def remove(pid: int) -> None:
            old = slot_of.pop(pid, None)
            if old is not None:
                occ[old].discard(pid)

        for pid in prev.alive & prev.house.keys():
            move(pid, prev.house[pid])

        # ageing always runs first: replicate the 18-year move-outs
        for p, stays_home in _turned_adult(state, prev):
            if not p.alive:
                remove(p.id)  # aged, possibly moved, then died
            elif not stays_home:
                move(p.id, ("new-adult", p.id))

        born_now = _born_now(state)
        died_now = _died_now(state, prev)
        for name in pre_marriage:
            if name == "deaths":
                for pid in died_now:
                    remove(pid)
            elif name == "births":
                for q in born_now:
                    mom_slot = slot_of.get(q.mother)
                    if mom_slot is not None:
                        move(q.id, mom_slot)
            elif name == "divorces":
                for q in _divorced_males(state, prev):
                    move(q.id, ("divorced", q.id))

        out = []
        merged: list[tuple[Person, Person, object]] = []
        for m, f in couples:
            sm, sf = slot_of.get(m.id), slot_of.get(f.id)
            if sm is None or sf is None:
                out.append(Violation("a_marriage_housing", now, (m.id, f.id),
                                     "spouse has no tracked household"))
                continue
            if sm != sf:
                if len(occ[sm]) >= len(occ[sf]):
                    target, source = sm, sf
                else:
                    target, source = sf, sm
                for pid in sorted(occ[source]):
                    move(pid, target)
            else:
                target = sm
            merged.append((m, f, target))

        mask = {q.id for q in born_now} | died_now
        for m, f, target in merged:
            if not isinstance(target, int):
                out.append(Violation("a_marriage_housing", now, (m.id, f.id),
                                     "household merged into a fresh house, "
                                     "which the move rule never produces"))
                continue
            if m.house != target or f.house != target:
                out.append(Violation(
                    "a_marriage_housing", now, (m.id, f.id),
                    f"couple expected in house {target}, found "
                    f"m->{m.house} f->{f.house}"))
                continue
            if target not in state.houses:
                continue  # a_homeless reports the dangling house refs
            expected = occ[target] - mask
            actual = set(state.houses[target].occupants) - mask
            if expected != actual:
                out.append(Violation(
                    "a_marriage_housing", now, tuple(sorted(expected ^ actual)),
                    f"house {target} occupants diverge from the merge rule"))
        return out

    return check


# ---------------------------------------------------------------- kinship

def kinship_roots(state: WorldState) -> dict[int, int]:
    """Union-find over the kinship graph, rebuilt from every person on
    record: parent links and every historic partnership. Dead persons
    participate as connectors."""
    parent = {pid: pid for pid in state.persons}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for p in state.persons.values():
        if p.father is not None:
            union(p.id, p.father)
        if p.mother is not None:
            union(p.id, p.mother)
        for ex in p.ever_partners:
            union(p.id, ex)
    return {pid: find(pid) for pid in parent}


def check_housing_kinship(state: WorldState, snaps) -> list[Violation]:
    """a_housing_kinship by full rebuild: co-occupants of every house must
    share one kinship component."""
    roots = kinship_roots(state)
    out = []
    for house in state.houses.values():
        if len(house.occupants) < 2:
            continue
        occ = sorted(house.occupants)
        first = roots[occ[0]]
        if any(roots[pid] != first for pid in occ[1:]):
            out.append(Violation("a_housing_kinship", state.time.step_index,
                                 tuple(occ),
                                 f"house {house.id} mixes unrelated persons"))
    return out


def check_step(state: WorldState, snaps: SnapshotStore,
               event_order: tuple[str, ...]) -> list[Violation]:
    """Every hard every-step check by full sweep, in the registry's order."""
    def structural(label, rule):
        return [Violation(label, state.time.step_index, f.ids, f.message)
                for f in rule(state)]

    return [*structural("a_s_house_xy_bounds", house_xy_faults),
            *structural("a_p_marriage_age", partnership_faults),
            *_check_married_gives_birth(state, snaps),
            *_check_no_adoption(state, snaps),
            *structural("a_homeless", residence_faults),
            *check_housing_kinship(state, snaps),
            *_check_adult_moves_out(state, snaps),
            *structural("a_dead_no_house", dead_residence_faults),
            *_check_divorce_male_moves(state, snaps),
            *_make_marriage_housing_check(event_order)(state, snaps)]


# --------------------------------------------------------- event kernels

class MemoRates(RateContext):
    """RateContext whose death rates fill one array per gender on first
    use, indexed by age in steps (NaN: not converted yet) and as long as
    the oldest age looked up."""

    def __init__(self, params, data, steps_per_year: int) -> None:
        super().__init__(params, data, steps_per_year)
        self._death = {MALE: array("d"), FEMALE: array("d")}

    def death_p_step(self, person: Person) -> float:
        memo = self._death[person.gender]
        age = person.age_steps
        try:
            p = memo[age]
        except IndexError:  # older than any age looked up so far
            memo.extend(repeat(math.nan, age + 1 - len(memo)))
            p = math.nan
        if p != p:  # NaN: not converted yet
            yearly = death_rate_yearly_at(age / self.steps_per_year,
                                          person.gender, self.params)
            p = memo[age] = instantaneous(yearly, self.steps_per_year)
        return p


def reproducible_women(state: WorldState) -> list[Person]:
    """Married adult women below the mother age limit with no child born
    within the last year (time-based, so a child's death cannot freeze the
    spacing rule). Married implies adult in a correct run; the adult test
    keeps a married minor, which a_p_marriage_age reports, out of the
    fertility table."""
    time = state.time
    # born after `oldest` and at or before `youngest`: aged [adult, limit)
    oldest = time.born_years_ago(MOTHER_AGE_LIMIT_YEARS)
    youngest = time.born_years_ago(ADULT_YEARS)
    recent = time.born_years_ago(1)
    persons = state.persons
    out = []
    for p in persons.values():
        if (p.partner is None or p.gender != FEMALE or not p.alive
                or not oldest < p.born_step <= youngest):
            continue
        for c in p.children:
            if persons[c].born_step >= recent:
                break
        else:
            out.append(p)
    return out


def marriage_eligible(state: WorldState, prev: Snapshot,
                      gender: str) -> list[Person]:
    """Single adults of one gender, excluding those married at the previous
    step (covers the just-divorced and delays widowed persons one step).
    Males who turned exactly 18 this step are excluded too; females are
    not."""
    came_of_age = state.time.born_years_ago(ADULT_YEARS)
    return [p for p in state.persons.values()
            if p.partner is None and p.gender == gender and p.alive
            and p.born_step <= came_of_age and p.id not in prev.married
            and (gender == FEMALE or p.born_step != came_of_age)]


def deaths(state: WorldState, ctx: RateContext, rng: random.Random,
           outcome: StepOutcome) -> None:
    """One Bernoulli(death p_step) draw per alive non-neonate, ascending id.
    Dying persons stay on record (kinship intact, age frozen) but leave their
    house and widow their partner. One pass over the live records: a death
    changes only the dying person's `alive`, so later visits see what a
    list taken before the first draw would hold."""
    draw, death_p_step = rng.random, ctx.death_p_step
    for p in state.persons.values():
        if p.alive and p.age_steps > 0 and draw() < death_p_step(p):
            unlink_partners(state, p)
            leave_house(state, p)
            mark_dead(state, p)
            outcome.died.append(p.id)


def births(state: WorldState, ctx: RateContext, rng: random.Random,
           outcome: StepOutcome) -> None:
    """One Bernoulli(fertility p_step) draw per reproducible woman, ascending
    id; on success one gender draw. The neonate starts in the mother's house
    with both parent links set."""
    draw, fertility_p_step, time = rng.random, ctx.fertility_p_step, state.time
    for mother in reproducible_women(state):
        if draw() >= fertility_p_step(mother, time):
            continue
        if mother.partner is None:
            raise IntegrityError(f"reproducible woman p{mother.id} has no partner")
        father = state.persons[mother.partner]
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


def divorces(state: WorldState, ctx: RateContext, rng: random.Random,
             outcome: StepOutcome) -> None:
    """One Bernoulli(divorce p_step) draw per married male not married this
    very step, ascending id; on divorce the male moves alone to an empty
    house in the same town, the rest of the household stays."""
    married_this_step = {m for m, _ in outcome.married}
    eligible = [p for p in state.persons.values()
                if p.partner is not None and p.gender == MALE and p.alive
                and p.id not in married_this_step]
    for man in eligible:
        if rng.random() < ctx.divorce_p_step(man):
            wife_id = man.partner
            unlink_partners(state, man)
            _move_to_own_empty_house(state, man, rng, outcome)
            outcome.divorced.append((man.id, wife_id))


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
        bride = find_bride(state, man, pool, n_cand, weight, rng)
        if bride is None:
            continue
        _merge_households(state, man, bride)
        outcome.married.append((man.id, bride.id))


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


# ------------------------------------------------------------- snapshot

class FullSnapshot:
    """Every column copied from every person on record."""

    def __init__(self, state: WorldState):
        persons = state.persons.values()
        self.step_index = state.time.step_index
        self.known = range(state.next_person_id)
        self.alive = {p.id for p in persons if p.alive}
        self.partner = {p.id: p.partner for p in persons
                        if p.partner is not None}
        self.house = {p.id: p.house for p in persons if p.house is not None}
        self.gave_birth = {p.id for p in persons if p.gave_birth}


# --------------------------------------------------------- initialization

def assign_parents(state: WorldState,
                   rng: random.Random) -> tuple[int, list[int]]:
    """Give every child a uniformly drawn father from the couples that are old
    enough (both spouses at least 18 years 9 months older than the child) and
    whose wife was younger than the mother age limit at the child's birth.
    Children with no candidates stay parentless and are reported, not
    failed. Compared as birth steps: 18 years 9 months is 75/4 years."""
    spy = state.time.steps_per_year
    came_of_age = state.time.came_of_age
    mother_limit = state.time.mother_limit_steps
    couples = []  # (husband, 4 x the later birth step, the wife's)
    for m in state.persons.values():
        if m.gender == MALE and m.partner is not None:
            wife_born = state.persons[m.partner].born_step
            couples.append((m, 4 * max(m.born_step, wife_born), wife_born))
    assigned = 0
    parentless: list[int] = []
    for child in [p for p in state.persons.values()
                  if p.born_step > came_of_age]:
        latest = 4 * child.born_step - 75 * spy
        earliest = child.born_step - mother_limit
        cands = [m for m, later4, wife_born in couples
                 if later4 <= latest and wife_born > earliest]
        if not cands:
            parentless.append(child.id)
            continue
        father = cands[rng.randrange(len(cands))]
        mother = state.persons[father.partner]
        child.father = father.id
        child.mother = mother.id
        father.children.add(child.id)
        mother.children.add(child.id)
        assigned += 1
    return assigned, parentless


# --------------------------------------------------------------- census

def census(state: WorldState) -> tuple[int, int, int]:
    """The living, the living males and the sum of the living's birth
    steps, recounted over everyone on record."""
    alive = males = born_sum = 0
    for p in state.persons.values():
        if p.alive:
            alive += 1
            born_sum += p.born_step
            if p.gender == MALE:
                males += 1
    return alive, males, born_sum


def houses_empty(state: WorldState) -> int:
    """The houses with no occupant, recounted over every house."""
    return sum(1 for h in state.houses.values() if not h.occupants)


# ---------------------------------------------------------- space digest

class SpaceSets(NamedTuple):
    """The space digest as sets: town entries and house ids."""
    towns: frozenset
    houses: frozenset

    @classmethod
    def of(cls, state: WorldState) -> SpaceSets:
        return cls(
            towns=frozenset((t.id, t.grid_xy, t.density)
                            for t in state.towns.values()),
            houses=frozenset(state.houses))


def space_changes(before: SpaceSets, after: SpaceSets,
                  step_index: int) -> list[Violation]:
    """Post-style space assumptions between two digests: the town set (with
    densities) never changes; houses are never demolished."""
    out = []
    if after.towns != before.towns:
        changed = before.towns ^ after.towns
        ids = tuple(sorted({entry[0] for entry in changed}))
        out.append(Violation("a_s_static_towns", step_index, ids,
                             "town set or densities changed between steps"))
    missing = before.houses - after.houses
    if missing:
        out.append(Violation("a_s_house_persistence", step_index,
                             tuple(sorted(missing)),
                             "houses disappeared between steps"))
    return out
