"""Runtime assumption engine.

Every model assumption is registered under a stable label and evaluated as a
Boolean condition over (current state, previous snapshot): initial-scope
checks once after construction, every_step checks after each step, and the
retrospective space checks (check_space) from what the journal says was
written since. Each check is a rule that returns model.Faults and knows
neither its label nor the step; build_registry binds label and rule to
a module-level check with functools.partial, which names the faults as
Violations, so a registry is plain data that pickles and copies.
Statistical assumptions (uniformity, gender ratio, weighted selection) keep
registry entries but no per-step check; they are covered by seeded
distribution tests in the test suite. Checks are read-only by contract: they
never mutate the world. What they carry from step to step is kept on the
state (WorldState.kept), so a registry holds none of it and a fresh one reads
a state from where the last check of it left off.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .model import (ADULT_YEARS, EMPTY_WINDOW, MALE, MOTHER_AGE_LIMIT_YEARS,
                    Fault, House, Person, WorldState, dead_residence_faults,
                    house_xy_faults, is_orphan_oldest_sibling,
                    partnership_faults, residence_faults)
from .predicates import Snapshot, SnapshotStore
from .events import DEFAULT_EVENT_ORDER, validate_event_order

# the labels of the retrospective space checks, which space_changes reports
_STATIC_TOWNS = "a_s_static_towns"
_HOUSE_PERSISTENCE = "a_s_house_persistence"


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


class SpaceDigest(NamedTuple):
    """Id-level fingerprint of the whole space for check_retrospective: the
    towns' (id, grid_xy, density) entries and the house ids, in dict order."""
    towns: tuple
    houses: tuple

    @classmethod
    def of(cls, state: WorldState) -> SpaceDigest:
        return cls(tuple([(t.id, t.grid_xy, t.density)
                          for t in state.towns.values()]),
                   tuple(state.houses))


def _noop(state: WorldState, snaps) -> list[Violation]:
    return []


def _one_fault(ids: list[int], message: str) -> list[Fault]:
    """One fault naming every id in `ids`, or none when it is empty."""
    return [Fault(tuple(ids), message)] if ids else []


# ---------------------------------------------------------------- initial

def _initial_check(label: str, rule, state: WorldState,
                   snaps) -> list[Violation]:
    """The check of an initial entry: rule(state) returns the faults."""
    return [Violation(label, state.time.step_index, f.ids, f.message)
            for f in rule(state)]


def _adults_no_parents(state: WorldState) -> list[Fault]:
    came_of_age = state.time.born_years_ago(ADULT_YEARS)
    return _one_fault([p.id for p in state.persons.values()
                       if p.born_step <= came_of_age
                       and (p.father is not None or p.mother is not None)],
                      "initial adults must carry no parent links")


def _parents_alive(state: WorldState) -> list[Fault]:
    came_of_age = state.time.born_years_ago(ADULT_YEARS)
    bad = []
    for p in state.persons.values():
        if p.born_step <= came_of_age:
            continue
        for parent_id in (p.father, p.mother):
            if parent_id is not None and not state.persons[parent_id].alive:
                bad.append(p.id)
                break
    return _one_fault(bad, "initial children must have alive parents "
                           "(children without parent links pass vacuously)")


def _family_together(state: WorldState) -> list[Fault]:
    """Initial houses hold exactly one family unit: a couple plus their
    children, or one single adult, or one parentless child."""
    out = []
    came_of_age = state.time.born_years_ago(ADULT_YEARS)
    for house in state.houses.values():
        occ = [state.persons[pid] for pid in sorted(house.occupants)]
        if not occ:
            continue
        couple = [p for p in occ if p.partner is not None]
        if couple:
            if len(couple) != 2 or couple[0].partner != couple[1].id:
                out.append(Fault(tuple(p.id for p in occ),
                                 f"house {house.id}: partners split or mixed"))
                continue
            parents = {couple[0].id, couple[1].id}
            for p in occ:
                if p.id in parents:
                    continue
                if p.father not in parents or p.mother not in parents:
                    out.append(Fault((p.id,), f"house {house.id}: occupant "
                                              f"p{p.id} is not a child of "
                                              f"the resident couple"))
        elif len(occ) > 1:
            out.append(Fault(tuple(p.id for p in occ),
                             f"house {house.id}: unpartnered co-residents"))
        elif occ[0].born_step > came_of_age and (occ[0].father is not None
                                                 or occ[0].mother is not None):
            out.append(Fault((occ[0].id,), f"house {house.id}: child "
                                           f"p{occ[0].id} housed away from "
                                           f"its parents"))
    # child side: children with parents must live with them
    for p in state.persons.values():
        if p.born_step <= came_of_age or p.father is None:
            continue
        father = state.persons[p.father]
        if p.house != father.house:
            out.append(Fault((p.id,),
                             f"child p{p.id} not housed with its parents"))
    return out


# ------------------------------------------------------------- every step

def _named(label: str, state: WorldState,
           faults: list[Fault]) -> list[Violation]:
    """One Violation per fault, at this step. Keeps (step, named) in
    state.kept[label], where named holds the persons the faults on a person
    record named and the houses whose record broke the rest."""
    now = state.time.step_index
    state.kept[label] = (now, (
        {pid for f in faults if f.house is None for pid in f.ids},
        {f.house for f in faults if f.house is not None}))
    return [Violation(label, now, f.ids, f.message) for f in faults]


def _structural_check(label: str, rule, state: WorldState,
                      snaps) -> list[Violation]:
    """The check of an every-step entry for a structural rule: one of
    model.py, which validate_world applies too, or the kinship rule. Unless
    changed_since(the step _named kept) is None and it sweeps, it hands the
    rule, ascending id, the persons and houses in the window, which holds
    the partner and house of each journaled person and the old occupants of
    each house record written, and those named at the last evaluation; a
    dropped house is skipped. Any other record passed at the last
    evaluation, and nothing has touched it or its partner or house since.
    Re-examining what it named keeps a fault that persists reported in warn
    mode."""
    at, named = state.kept.get(label, (None, None))
    written = state.changed_since(at)
    persons, houses = state.persons, state.houses
    if written is None:
        persons, houses = persons.values(), houses.values()
    else:
        persons = [persons[pid] for pid in sorted(written[0] | named[0])]
        houses = [houses[hid] for hid in sorted(written[1] | named[1])
                  if hid in houses]
    return _named(label, state, rule(state, persons, houses))


def _step_change_check(label: str, body, state: WorldState,
                       snaps: SnapshotStore) -> list[Violation]:
    """The check of an every-step entry that compares the state with the
    previous snapshot: body(state, prev, changed) looks for step changes
    only among `changed`, ascending id, and returns their faults. Unless the
    check sweeps, `changed` holds the persons in changed_since(the earlier
    of the step _named kept and the snapshot's), as any other's alive,
    partner, house, birth step and birth flag are as frozen, and those it
    named, as a gave_birth flag with no neonate stays a fault until cleared.
    A body tests every other condition against the snapshot, so a person
    who did not change adds nothing."""
    prev = snaps.before(state.time.step_index)
    at, named = state.kept.get(label, (None, None))
    written = state.changed_since(
        None if at is None else min(at, prev.step_index))
    persons = state.persons
    changed = (persons.values() if written is None else
               [persons[pid] for pid in sorted(written[0] | named[0])])
    return _named(label, state, body(state, prev, changed))


def _born_now(state: WorldState, changed) -> list[Person]:
    """Persons born this step."""
    now = state.time.step_index
    return [q for q in changed if q.born_step == now]


def _turned_adult(state: WorldState,
                  prev: Snapshot) -> list[tuple[Person, bool]]:
    """Persons alive at the previous step who are exactly 18 years old now,
    ascending id, each with whether the orphan stay-home exception held when
    ageing ran (parents and siblings alive as frozen). They are the persons
    born 18 years ago, whom ageing reads from the same birth-step index."""
    persons = state.persons
    return [(persons[pid], is_orphan_oldest_sibling(
                state, persons[pid], prev.alive.__contains__))
            for pid in state.born_at(state.time.born_years_ago(ADULT_YEARS))
            if pid in prev.alive]


def _divorced_males(state: WorldState, prev: Snapshot,
                    changed) -> list[Person]:
    """Males married at the previous step, alive and single now, whose ex is
    alive (so divorced, not widowed)."""
    return [p for p in changed
            if p.id in prev.married and p.gender == MALE and p.alive
            and p.partner is None
            and state.persons[prev.partner[p.id]].alive]


def _just_married_couples(state: WorldState, prev: Snapshot,
                          changed) -> list[tuple[Person, Person]]:
    """(husband, wife) pairs married this step, by husband."""
    return [(p, state.persons[p.partner]) for p in changed
            if p.gender == MALE and p.partner is not None
            and p.id not in prev.married]


def _no_adoption(state: WorldState, prev: Snapshot,
                 changed) -> list[Fault]:
    """Runtime face of the no-adoption assumption: nobody dead at the previous
    step is alive now. Parent links are immutable by construction (set only at
    creation), which unit tests pin; snapshots carry no parent attributes."""
    return _one_fault([p.id for p in changed if p.alive and p.id in prev.known
                       and p.id not in prev.alive],
                      "dead persons must stay dead")


def _married_gives_birth(state: WorldState, prev: Snapshot,
                         changed) -> list[Fault]:
    """Each neonate has a flagged, partnered mother under the age limit and
    shares her house, and each flagged person in `changed` has a neonate:
    the mother births flags is in the window as her neonate's parent."""
    out = []
    limit = MOTHER_AGE_LIMIT_YEARS * state.time.steps_per_year
    mothers_with_neonate = set()
    for q in _born_now(state, changed):
        if q.father is None or q.mother is None:
            out.append(Fault((q.id,), "neonate lacks a parent link"))
            continue
        mother = state.persons[q.mother]
        mothers_with_neonate.add(mother.id)
        if not mother.gave_birth:
            out.append(Fault((q.id, mother.id),
                             "mother not flagged for this birth"))
        if mother.age_steps >= limit:
            out.append(Fault((mother.id,), f"mother aged "
                                           f"{MOTHER_AGE_LIMIT_YEARS} or "
                                           f"older at birth"))
        father_ok = (mother.partner == q.father
                     or (mother.partner is None and mother.ever_partners
                         and mother.ever_partners[-1] == q.father))
        if not father_ok:
            out.append(Fault((q.id, q.father),
                             "father is not the mother's partner at birth"))
        if mother.alive and q.house != mother.house:
            out.append(Fault((q.id,), "neonate not housed with its mother"))
    flagged = {p.id for p in changed if p.gave_birth}
    out.extend(Fault((pid,), "gave_birth flag without a neonate this step")
               for pid in sorted(flagged - mothers_with_neonate))
    return out


class KinshipIndex:
    """Merge-only union-find over the kinship graph of one WorldState: every
    parent link and every historic partnership, with dead persons as
    connectors (Tarjan 1975).

    `sync` keeps the index exact as long as it is handed every person
    written since the last sync. It keeps, for each person absorbed, their
    parent links and the number of their partner entries unioned, and
    unions what is new: the links of a person seen for the first time and
    the partner entries appended since. It returns True, and absorbs no
    further, when a parent link differs from the absorbed one or a partner
    list shrank, writes the model never makes: only then can a component
    have split, and the index must be built again.
    """

    __slots__ = ("_parent", "_absorbed")

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        # person id -> (father, mother, ever_partners entries unioned)
        self._absorbed: dict[int, tuple] = {}

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _union(self, a: int, b: int) -> None:
        ra = self.find(self._parent.setdefault(a, a))
        rb = self.find(self._parent.setdefault(b, b))
        if ra != rb:
            self._parent[rb] = ra

    def sync(self, persons: Iterable[Person]) -> bool:
        """Absorb what is new in `persons`; True when a parent link differs
        from the absorbed one or a partner list shrank."""
        absorbed, union = self._absorbed, self._union
        for p in persons:
            links = (p.father, p.mother, len(p.ever_partners))
            seen = absorbed.get(p.id)
            if seen == links:
                continue
            if seen is None:
                self._parent.setdefault(p.id, p.id)
                for kin in links[:2]:
                    if kin is not None:
                        union(p.id, kin)
            elif seen[:2] != links[:2] or seen[2] > links[2]:
                return True
            for ex in p.ever_partners[seen[2] if seen else 0:]:
                union(p.id, ex)
            absorbed[p.id] = links
        return False


def _kinship_faults(state: WorldState, persons: Iterable[Person],
                    houses: Iterable[House]) -> list[Fault]:
    """Structural rule for a_housing_kinship: co-occupants must be mutually
    reachable through parent/child and (possibly historic) partnership
    links: the pairwise kin list closed under chains, with dead relatives
    as valid intermediates.

    The state's KinshipIndex is kept bare in state.kept[KinshipIndex]. The
    rule syncs it from the persons it is handed and proves the houses it
    is handed: a house that gained an occupant holds a journaled person,
    and one that passed and gained nobody passes still. It needs no step
    of its own: _structural hands it everyone written since its last call,
    which was the index's last sync, or everyone on a sweep. When there is
    no index yet, or sync reports a changed parent link or a shrunk
    partner list, it builds the index afresh from everyone on record and
    proves every house."""
    index = state.kept.get(KinshipIndex)
    if index is None or index.sync(persons):
        index = state.kept[KinshipIndex] = KinshipIndex()
        index.sync(state.persons.values())
        houses = state.houses.values()
    find = index.find
    return [Fault(tuple(sorted(h.occupants)),
                  f"house {h.id} mixes unrelated persons", h.id)
            for h in houses
            if len(h.occupants) > 1
            and len({find(pid) for pid in h.occupants}) > 1]


def _move_out_faults(who: str, state: WorldState, prev: Snapshot,
                     p: Person) -> list[Fault]:
    """The move-out rule shared by new adults and divorced males: alone in a
    house other than the previous one, in the previous town."""
    house = state.houses.get(p.house)
    if house is None:
        return []  # homeless check reports this
    old = prev.old_house(p.id, state)
    return [Fault((p.id,), f"{who} must {rule}") for rule, broken in (
        ("live alone", house.occupants != {p.id}),
        ("leave the family house", p.house == prev.house.get(p.id)),
        ("stay in the same town", old is None or house.town != old.town))
        if broken]


def _adult_moves_out(state: WorldState, prev: Snapshot,
                     changed) -> list[Fault]:
    turned_adult = _turned_adult(state, prev)
    if not turned_adult:
        return []
    just_married = {pid for m, f in _just_married_couples(state, prev, changed)
                    for pid in (m.id, f.id)}
    out = []
    for p, stays_home in turned_adult:
        if not p.alive or p.id in just_married:
            continue  # housing of the just-married is the marriage check's
        if not stays_home:
            out.extend(_move_out_faults("new adult", state, prev, p))
        elif p.house != prev.house.get(p.id):
            out.append(Fault((p.id,), "oldest orphan sibling must keep the "
                                      "family house"))
    return out


def _divorce_male_moves(state: WorldState, prev: Snapshot,
                        changed) -> list[Fault]:
    """Checks the move-out rule for this step's divorced males. A male whose
    ex died the same step is classified widowed and skipped: under orders
    where deaths follow divorces this misses the occasional real divorce
    (false negative) but never flags a legal state."""
    return [f for p in _divorced_males(state, prev, changed)
            for f in _move_out_faults("divorced male", state, prev, p)]


def _marriage_housing(event_order: tuple[str, ...]):
    """The marriage-housing rule depends on which events precede marriages in
    the configured order, so the check is built per run: the body
    _merge_replay with the events between ageing and marriages bound."""
    order = validate_event_order(event_order)
    end = order.index("marriages") if "marriages" in order else 1
    return partial(_merge_replay, order[1:end])


def _merge_replay(pre_marriage: tuple[str, ...], state: WorldState,
                  prev: Snapshot, changed) -> list[Fault]:
    """Replays the step's occupancy from the previous snapshot (ageing
    moves, then the `pre_marriage` events, then each merge in ascending
    groom id) and compares the resulting households with the live state."""
    couples = _just_married_couples(state, prev, changed)
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

    born_now = _born_now(state, changed)
    died_now = {q.id for q in changed if not q.alive and q.id in prev.alive}
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
            for q in _divorced_males(state, prev, changed):
                move(q.id, ("divorced", q.id))

    out: list[Fault] = []
    merged: list[tuple[Person, Person, object]] = []
    for m, f in couples:
        sm, sf = slot_of.get(m.id), slot_of.get(f.id)
        if sm is None or sf is None:
            out.append(Fault((m.id, f.id), "spouse has no tracked household"))
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
            out.append(Fault((m.id, f.id),
                             "household merged into a fresh house, "
                             "which the move rule never produces"))
            continue
        if m.house != target or f.house != target:
            out.append(Fault((m.id, f.id),
                             f"couple expected in house {target}, found "
                             f"m->{m.house} f->{f.house}"))
            continue
        if target not in state.houses:
            continue  # a_homeless reports the dangling house refs
        expected = occ[target] - mask
        actual = set(state.houses[target].occupants) - mask
        if expected != actual:
            out.append(Fault(tuple(sorted(expected ^ actual)),
                             f"house {target} occupants diverge from the "
                             f"merge rule"))
    return out


# ----------------------------------------------------------- registry

def _entry(scope: str, check, label: str, rule, note="") -> Assumption:
    """The entry of `label` whose check is check(label, rule, state, snaps)."""
    return Assumption(label, scope, partial(check, label, rule), note=note)


_initial = partial(_entry, "initial", _initial_check)
_structural = partial(_entry, "every_step", _structural_check)
_step_change = partial(_entry, "every_step", _step_change_check)


def build_registry(event_order=DEFAULT_EVENT_ORDER
                   ) -> tuple[Assumption, ...]:
    """All labeled assumptions, built for one event order: the
    marriage-housing check follows it. Statistical and vacuous entries
    carry no-op runtime checks so the registry still enumerates them;
    check_step does not call them."""
    return (
        _initial("a0_adults_no_parents", _adults_no_parents),
        _initial("a0_parents_alive", _parents_alive),
        Assumption("a0_siblings_age_free", "initial", _noop, kind="vacuous",
                   note="sibling age gaps are unrestricted; nothing to check"),
        _initial("a0_family_together", _family_together),
        Assumption(_STATIC_TOWNS, "retrospective", _noop,
                   note="enforced by check_space from the town writes"),
        Assumption(_HOUSE_PERSISTENCE, "retrospective", _noop,
                   note="enforced by check_space from the journaled houses"),
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
        _step_change("a_p_married_gives_birth", _married_gives_birth),
        _step_change("a_p_no_adoption", _no_adoption,
                     note="runtime face is no-resurrection; parent-link "
                          "immutability is structural and unit-tested"),
        _structural("a_homeless", residence_faults),
        Assumption("a_arbitrary_occupants", "every_step", _noop, kind="vacuous",
                   note="houses have no occupancy cap; nothing to check"),
        _structural("a_housing_kinship", _kinship_faults),
        _step_change("a_adult_moves_out", _adult_moves_out),
        _structural("a_dead_no_house", dead_residence_faults),
        _step_change("a_divorce_male_moves", _divorce_male_moves),
        _step_change("a_marriage_housing", _marriage_housing(event_order)),
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
               registry: tuple[Assumption, ...] | None = None
               ) -> list[Violation]:
    """The every-step violations, in registry order. Only the hard checks
    run, each from where it last read the state. None runs when the last
    call that ran them flagged nothing, changed_since(its step) is
    EMPTY_WINDOW, and its registry is this one. That call's step and
    registry are kept in state.kept[check_step]; a call that runs no check
    writes nothing."""
    registry = build_registry() if registry is None else registry
    at, ran = state.kept.get(check_step, (None, None))
    if state.changed_since(at) is EMPTY_WINDOW and ran is registry:
        return []
    out = [v for a in registry if a.scope == "every_step" and a.kind == "hard"
           for v in a.check(state, snaps)]
    if out:
        state.kept.pop(check_step, None)
    else:
        state.kept[check_step] = (state.time.step_index, registry)
    return out


def _space_violations(moved, missing, step_index: int) -> list[Violation]:
    """A step's space violations: town entries added or gone, houses gone."""
    out = []
    if moved:
        ids = tuple(sorted({entry[0] for entry in moved}))
        out.append(Violation(_STATIC_TOWNS, step_index, ids,
                             "town set or densities changed between steps"))
    if missing:
        out.append(Violation(_HOUSE_PERSISTENCE, step_index,
                             tuple(sorted(missing)),
                             "houses disappeared between steps"))
    return out


def space_changes(before: SpaceDigest, after: SpaceDigest,
                  step_index: int) -> list[Violation]:
    """Post-style space assumptions between two digests: the town set (with
    densities) never changes; houses are never demolished."""
    return _space_violations(set(before.towns) ^ set(after.towns),
                             set(before.houses).difference(after.houses),
                             step_index)


def check_retrospective(prev_digest: SpaceDigest,
                        state: WorldState) -> list[Violation]:
    """The space assumptions, checked one step after the fact against the
    digest of the previous step."""
    return space_changes(prev_digest, SpaceDigest.of(state),
                         state.time.step_index)


def check_space(state: WorldState) -> list[Violation]:
    """space_changes between the SpaceDigests of this call and the last,
    from the town entries, built again only when town_writes moved, and
    the house ids kept with the step: a kept house is missing when gone
    and in changed_since(the step), or that is None. On EMPTY_WINDOW with
    no town write it returns at once and keeps the step."""
    at, counted, entries, ids = state.kept.get(check_space, (None,) * 4)
    window, writes = state.changed_since(at), state.journal.town_writes
    if window is EMPTY_WINDOW and writes == counted:
        return []
    moved = ()
    if writes != counted:
        before, entries = entries, {(t.id, t.grid_xy, t.density)
                                    for t in state.towns.values()}
        moved = () if before is None else before ^ entries
    if window is None:
        missing = () if ids is None else ids.difference(state.houses)
        ids = set(state.houses)
    else:  # EMPTY_WINDOW's sets are empty
        missing = ids.intersection(window[1]).difference(state.houses)
        ids -= missing
        ids.update(hid for hid in window[1] if hid in state.houses)
    state.kept[check_space] = (state.time.step_index, writes, entries, ids)
    return _space_violations(moved, missing, state.time.step_index)
