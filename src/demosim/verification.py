"""Runtime assumption engine.

Every model assumption is registered under a stable label and evaluated as a
Boolean condition over (current state, previous snapshot): initial-scope
checks once after construction, every_step checks after each step, and the
retrospective space checks against a digest of the previous step's id sets.
Statistical assumptions (uniformity, gender ratio, weighted selection) keep
registry entries but no per-step check; they are covered by seeded
distribution tests in the test suite. Checks are read-only by contract:
they never mutate the state. A check may keep its own bookkeeping across
steps, as the kinship check keeps a merge-only union-find (KinshipIndex)
for the run's WorldState, so build_registry builds fresh checks per run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import (ADULT_YEARS, MALE, MOTHER_AGE_LIMIT_YEARS, Person,
                    WorldState, dead_residence_faults, house_xy_faults,
                    is_orphan_oldest_sibling, partnership_faults,
                    residence_faults)
from .predicates import Snapshot, SnapshotStore
from .events import DEFAULT_EVENT_ORDER, validate_event_order


@dataclass(frozen=True, slots=True)
class Violation:
    label: str
    step_index: int
    ids: tuple[int, ...]
    detail: str


@dataclass(frozen=True, slots=True)
class Assumption:
    label: str
    scope: str  # initial | every_step | retrospective
    check: Callable[[WorldState, SnapshotStore | None], list[Violation]]
    kind: str = "hard"  # hard | statistical | vacuous
    note: str = ""


@dataclass(frozen=True, slots=True)
class SpaceDigest:
    """Id-level fingerprint of the space for the retrospective checks."""
    towns: frozenset
    houses: frozenset

    @classmethod
    def of(cls, state: WorldState) -> SpaceDigest:
        return cls(
            towns=frozenset((t.id, t.grid_xy, t.density)
                            for t in state.towns.values()),
            houses=frozenset(state.houses))


def _noop(state: WorldState, snaps) -> list[Violation]:
    return []


def _adult_steps(state: WorldState) -> int:
    return ADULT_YEARS * state.time.steps_per_year


def _prev(state: WorldState, snaps: SnapshotStore) -> Snapshot:
    return snaps.before(state.time.step_index)


# ---------------------------------------------------------------- initial

def _check_adults_no_parents(state: WorldState, snaps) -> list[Violation]:
    adult = _adult_steps(state)
    bad = [p.id for p in state.persons.values()
           if p.age_steps >= adult and (p.father is not None or p.mother is not None)]
    if not bad:
        return []
    return [Violation("a0_adults_no_parents", state.time.step_index, tuple(bad),
                      "initial adults must carry no parent links")]


def _check_parents_alive(state: WorldState, snaps) -> list[Violation]:
    adult = _adult_steps(state)
    bad = []
    for p in state.persons.values():
        if p.age_steps >= adult:
            continue
        for parent_id in (p.father, p.mother):
            if parent_id is not None and not state.persons[parent_id].alive:
                bad.append(p.id)
                break
    if not bad:
        return []
    return [Violation("a0_parents_alive", state.time.step_index, tuple(bad),
                      "initial children must have alive parents "
                      "(children without parent links pass vacuously)")]


def _check_family_together(state: WorldState, snaps) -> list[Violation]:
    """Initial houses hold exactly one family unit: a couple plus their
    children, or one single adult, or one parentless child."""
    out = []
    adult = _adult_steps(state)
    for house in state.houses.values():
        occ = [state.persons[pid] for pid in sorted(house.occupants)]
        if not occ:
            continue
        couple = [p for p in occ if p.partner is not None]
        if couple:
            ids = {p.id for p in occ}
            if len(couple) != 2 or couple[0].partner != couple[1].id:
                out.append(Violation("a0_family_together", state.time.step_index,
                                     tuple(sorted(ids)),
                                     f"house {house.id}: partners split or mixed"))
                continue
            parents = {couple[0].id, couple[1].id}
            for p in occ:
                if p.id in parents:
                    continue
                if p.father not in parents or p.mother not in parents:
                    out.append(Violation(
                        "a0_family_together", state.time.step_index, (p.id,),
                        f"house {house.id}: occupant p{p.id} is not a child "
                        f"of the resident couple"))
        elif len(occ) > 1:
            out.append(Violation("a0_family_together", state.time.step_index,
                                 tuple(p.id for p in occ),
                                 f"house {house.id}: unpartnered co-residents"))
        elif occ[0].age_steps < adult and (occ[0].father is not None
                                           or occ[0].mother is not None):
            out.append(Violation("a0_family_together", state.time.step_index,
                                 (occ[0].id,),
                                 f"house {house.id}: child p{occ[0].id} housed "
                                 f"away from its parents"))
    # child side: children with parents must live with them
    for p in state.persons.values():
        if p.age_steps >= adult or p.father is None:
            continue
        father = state.persons[p.father]
        if p.house != father.house:
            out.append(Violation("a0_family_together", state.time.step_index,
                                 (p.id,),
                                 f"child p{p.id} not housed with its parents"))
    return out


# ------------------------------------------------------------- every step

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
    return [(p, is_orphan_oldest_sibling(state, p, prev.alive.__contains__,
                                         lambda q: prev.age_steps[q] + 1))
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


def _structural(label: str, rule) -> Assumption:
    """Every-step entry for a structural rule of model.py, which
    validate_world applies too; its check reports one Violation per fault."""
    def check(state: WorldState, snaps) -> list[Violation]:
        return [Violation(label, state.time.step_index, f.ids, f.message)
                for f in rule(state)]
    return Assumption(label, "every_step", check)


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


class KinshipIndex:
    """Merge-only union-find over the kinship graph of one WorldState: every
    parent link and every historic partnership, with dead persons as
    connectors (Tarjan 1975).

    Components only ever merge, because parent links are set once when a
    person is created and `ever_partners` only grows. So `sync` keeps the
    index exact by absorbing what is new since the last call: the parent
    links of persons seen for the first time, and the partner entries
    appended since. A partner list that shrank, a write the model never
    makes, rebuilds the index from scratch. A parent link rewritten after
    creation is not seen.
    """

    __slots__ = ("_parent", "_absorbed")

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        # person id -> number of its ever_partners entries already unioned
        self._absorbed: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def sync(self, state: WorldState) -> None:
        """Bring the index up to the kinship graph of `state`."""
        parent, absorbed = self._parent, self._absorbed
        fresh, grown = [], []
        for pid, p in state.persons.items():
            seen = absorbed.get(pid)
            if seen is None:
                parent.setdefault(pid, pid)
                fresh.append(p)
            elif seen != len(p.ever_partners):
                if seen > len(p.ever_partners):
                    parent.clear()
                    absorbed.clear()
                    self.sync(state)
                    return
                grown.append(p)
        # every person on record has an entry now, so links can be unioned
        for p in fresh:
            for kin in (p.father, p.mother):
                if kin is not None:
                    self._union(p.id, kin)
        for p in fresh + grown:
            for ex in p.ever_partners[absorbed.get(p.id, 0):]:
                self._union(p.id, ex)
            absorbed[p.id] = len(p.ever_partners)


def _make_housing_kinship_check():
    """Co-occupants must be mutually reachable through parent/child and
    (possibly historic) partnership links: the pairwise kin list closed under
    chains, with dead relatives as valid intermediates.

    The check keeps one KinshipIndex for the WorldState it last saw and
    syncs it before each evaluation; handed a different state, it starts a
    fresh index. It still visits every house, so an occupant written
    straight into a house is checked like one moved there by an event."""
    index = indexed = None

    def check(state: WorldState, snaps) -> list[Violation]:
        nonlocal index, indexed
        if state is not indexed:
            index, indexed = KinshipIndex(), state
        index.sync(state)
        find = index.find
        out = []
        for house in state.houses.values():
            occ = house.occupants
            if len(occ) >= 2 and len({find(pid) for pid in occ}) > 1:
                out.append(Violation("a_housing_kinship", state.time.step_index,
                                     tuple(sorted(occ)),
                                     f"house {house.id} mixes unrelated persons"))
        return out

    return check


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
            expected = occ[target] - mask
            actual = set(state.houses[target].occupants) - mask
            if expected != actual:
                out.append(Violation(
                    "a_marriage_housing", now, tuple(sorted(expected ^ actual)),
                    f"house {target} occupants diverge from the merge rule"))
        return out

    return check


# ----------------------------------------------------------- registry

def build_registry(event_order=DEFAULT_EVENT_ORDER) -> tuple[Assumption, ...]:
    """All labeled assumptions, built for one run: the marriage-housing
    check follows the event order and the kinship check keeps its own
    index. Statistical and vacuous entries carry no-op runtime checks so
    the registry still enumerates them."""
    return (
        Assumption("a0_adults_no_parents", "initial", _check_adults_no_parents),
        Assumption("a0_parents_alive", "initial", _check_parents_alive),
        Assumption("a0_siblings_age_free", "initial", _noop, kind="vacuous",
                   note="sibling age gaps are unrestricted; nothing to check"),
        Assumption("a0_family_together", "initial", _check_family_together),
        Assumption("a_s_static_towns", "retrospective", _noop,
                   note="enforced by check_retrospective over space digests"),
        Assumption("a_s_house_persistence", "retrospective", _noop,
                   note="enforced by check_retrospective over space digests"),
        Assumption("a_s_dynamic_space", "every_step", _noop, kind="vacuous",
                   note="the house set may grow; growth itself needs no check"),
        Assumption("a_s_dynamic_houses_per_town", "every_step", _noop,
                   kind="vacuous",
                   note="per-town house counts may grow freely"),
        _structural("a_s_house_xy_bounds", house_xy_faults),
        Assumption("a_s_uniform_house_locations", "every_step", _noop,
                   kind="statistical", note="covered by offline uniformity tests"),
        Assumption("a_s_empty_house_selection", "every_step", _noop,
                   kind="statistical", note="covered by offline frequency tests"),
        Assumption("a_s_weighted_town_selection", "every_step", _noop,
                   kind="statistical", note="covered by offline frequency tests"),
        Assumption("a_p_gender_ratio", "every_step", _noop, kind="statistical",
                   note="covered by offline binomial tests"),
        _structural("a_p_marriage_age", partnership_faults),
        Assumption("a_p_married_gives_birth", "every_step",
                   _check_married_gives_birth),
        Assumption("a_p_no_adoption", "every_step", _check_no_adoption,
                   note="runtime face is no-resurrection; parent-link "
                        "immutability is structural and unit-tested"),
        _structural("a_homeless", residence_faults),
        Assumption("a_arbitrary_occupants", "every_step", _noop, kind="vacuous",
                   note="houses have no occupancy cap; nothing to check"),
        Assumption("a_housing_kinship", "every_step",
                   _make_housing_kinship_check()),
        Assumption("a_adult_moves_out", "every_step", _check_adult_moves_out),
        _structural("a_dead_no_house", dead_residence_faults),
        Assumption("a_divorce_male_moves", "every_step",
                   _check_divorce_male_moves),
        Assumption("a_marriage_housing", "every_step",
                   _make_marriage_housing_check(event_order)),
    )


def check_initial(state: WorldState,
                  registry: tuple[Assumption, ...] | None = None) -> list[Violation]:
    registry = build_registry() if registry is None else registry
    out: list[Violation] = []
    for a in registry:
        if a.scope == "initial":
            out.extend(a.check(state, None))
    return out


def check_step(state: WorldState, snaps: SnapshotStore,
               registry: tuple[Assumption, ...] | None = None) -> list[Violation]:
    registry = build_registry() if registry is None else registry
    out: list[Violation] = []
    for a in registry:
        if a.scope == "every_step":
            out.extend(a.check(state, snaps))
    return out


def check_retrospective(prev_digest: SpaceDigest,
                        state: WorldState) -> list[Violation]:
    """Post-style space assumptions, checked one step after the fact: town
    set (with densities) never changes; houses are never demolished."""
    out = []
    cur = SpaceDigest.of(state)
    if cur.towns != prev_digest.towns:
        changed = prev_digest.towns ^ cur.towns
        ids = tuple(sorted({entry[0] for entry in changed}))
        out.append(Violation("a_s_static_towns", state.time.step_index, ids,
                             "town set or densities changed between steps"))
    missing = prev_digest.houses - cur.houses
    if missing:
        out.append(Violation("a_s_house_persistence", state.time.step_index,
                             tuple(sorted(missing)),
                             "houses disappeared between steps"))
    return out
