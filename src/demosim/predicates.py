"""Featured sub-populations: Boolean and group predicates, set composition,
and the temporal operators just/pre over a two-deep snapshot history.

A snapshot freezes only the per-person values that later steps overwrite;
previous town and coordinates are derived from the frozen house id, since
houses never move or change town: House is a frozen record (a removed house
reads as none). A freeze copies only the columns the journaled persons
changed; snapshots share the rest, read-only (see Snapshot).

The Boolean predicates are the terms the events' rosters are written in
(events._single_man is isMale and isSingle and isAlive and isAdult, ...).
filter_pop evaluates its predicate for every member of its base at each
call and keeps nothing: a roster re-tests only the persons a change window
names, which a predicate may leave out of date. hasASibling is one such: a
sibling's birth journals the parents, not the older child.

The post-style assumptions have no forward-looking query here; the
verification module checks them one step later against the stored snapshot.
"""
from __future__ import annotations

import bisect
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from .model import (FEMALE, House, IntegrityError, MALE,
                    MissingSnapshotError, Person, WorldState)


class Snapshot:
    """One step's per-person alive, partner, house id and gave_birth: only
    what the live state cannot give back. `known` holds the ids on record,
    `married` is the key view of `partner`; an age is given back by the
    step index and the birth and death steps (see pre). A previous town or
    location is read from the live house with the frozen id (old_house). A
    person whose alive, partner, house or gave_birth differs from the
    snapshot was written at its step index or later, and so journaled
    (CountedPerson journals every write). So given `written`, those ids
    since `base`'s step, all on record, the columns are `base`'s own,
    shared read-only; one is copied once and patched only where a written
    person differs (path copying, Driscoll et al. 1989). Without it (see
    SnapshotStore.freeze) everyone is patched onto empty columns."""

    __slots__ = ("step_index", "known", "alive", "partner", "house",
                 "gave_birth")

    def __init__(self, state: WorldState, base: Snapshot | None = None,
                 written: Iterable[int] | None = None):
        persons = state.persons
        self.step_index = state.time.step_index
        self.known = range(state.next_person_id)
        if written is None:  # everyone, onto empty columns
            base = SimpleNamespace(alive=set(), partner={}, house={},
                                   gave_birth=set())
            written = persons
        alive, partner, house = base.alive, base.partner, base.house
        gave_birth = base.gave_birth
        for pid in written:
            p = persons[pid]
            alive = _flip(alive, base.alive, pid, p.alive)
            gave_birth = _flip(gave_birth, base.gave_birth, pid, p.gave_birth)
            partner = _patch(partner, base.partner, pid, p.partner)
            house = _patch(house, base.house, pid, p.house)
        self.alive, self.partner, self.house = alive, partner, house
        self.gave_birth = gave_birth

    @property
    def married(self):
        return self.partner.keys()

    def old_house(self, pid: int, state: WorldState) -> House | None:
        """The live house the person lived in at this step; None when they
        had none or it is gone."""
        return state.houses.get(self.house.get(pid))


def _flip(column: set, shared: set, pid: int, member: bool) -> set:
    """Make pid a member or not, copying the column if shared."""
    if (pid in column) != member:
        column = set(column) if column is shared else column
        column ^= {pid}
    return column


def _patch(column: dict, shared: dict, pid: int, value) -> dict:
    """Set pid's entry (None drops it), copying the column if shared."""
    if column.get(pid) != value:
        column = dict(column) if column is shared else column
        column[pid] = value
        if value is None:
            del column[pid]
    return column


class SnapshotStore:
    """Keeps the two most recent snapshots (previous and current) of the
    state it last froze."""

    def __init__(self) -> None:
        self._snaps: deque[Snapshot] = deque(maxlen=2)
        self._state: WorldState | None = None

    def freeze(self, state: WorldState) -> Snapshot:
        """Built on the newest snapshot, patched for the persons in
        state.changed_since(its step); a full copy on the first freeze, for
        another state (changed_since(None), which starts the state's
        journaling writes), or when that window is None."""
        base = (self._snaps[-1] if self._snaps and state is self._state
                else None)
        written = state.changed_since(base and base.step_index)
        self._state = state
        self._snaps.append(Snapshot(state, base, written and written[0]))
        return self._snaps[-1]

    def __len__(self) -> int:
        return len(self._snaps)

    def newest(self) -> Snapshot:
        if not self._snaps:
            raise MissingSnapshotError("no snapshot frozen yet")
        return self._snaps[-1]

    def before(self, step_index: int) -> Snapshot:
        """Newest snapshot strictly older than the given step."""
        snaps = self._snaps
        if snaps and snaps[-1].step_index < step_index:  # the usual case
            return snaps[-1]
        for snap in reversed(snaps):
            if snap.step_index < step_index:
                return snap
        raise MissingSnapshotError(
            f"no snapshot before step {step_index} (history holds "
            f"{[s.step_index for s in self._snaps]})")


@dataclass(frozen=True)
class SubPopulation:
    """Set of person ids in canonical ascending order."""
    ids: tuple[int, ...]

    @classmethod
    def of(cls, iterable) -> SubPopulation:
        return cls(tuple(sorted(set(iterable))))

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, pid: int) -> bool:
        i = bisect.bisect_left(self.ids, pid)
        return i < len(self.ids) and self.ids[i] == pid


# The paper's Boolean predicates (is_male is isMale, ...) are module
# functions (state, person) -> bool, the signature of a WorldState.roster
# key, so the events' roster keys are written as their `and`; a group
# predicate (children_of is childrenOf, ...) maps them to a set of ids.
BooleanPredicate = Callable[[WorldState, Person], bool]
GroupPredicate = Callable[[WorldState, Person], set[int]]


def is_male(state: WorldState, p: Person) -> bool:
    return p.gender == MALE


def is_female(state: WorldState, p: Person) -> bool:
    return p.gender == FEMALE


def is_alive(state: WorldState, p: Person) -> bool:
    return p.alive


def is_married(state: WorldState, p: Person) -> bool:
    return p.partner is not None


def is_single(state: WorldState, p: Person) -> bool:
    return p.partner is None


def is_adult(state: WorldState, p: Person) -> bool:
    """isAdult: at least the adult age, at death for the dead."""
    return p.age_steps >= state.time.adult_steps


def has_children(state: WorldState, p: Person) -> bool:
    return bool(p.children)


def has_a_sibling(state: WorldState, p: Person) -> bool:
    """hasASibling: no roster key (see WorldState.roster)."""
    return bool(siblings_of(state, p))


def children_of(state: WorldState, p: Person) -> set[int]:
    return set(p.children)


def siblings_of(state: WorldState, p: Person) -> set[int]:
    """siblingsOf: the other children of either parent."""
    out: set[int] = set()
    for parent_id in (p.father, p.mother):
        if parent_id is not None:
            out |= state.persons[parent_id].children
    out.discard(p.id)
    return out


def parents_of(state: WorldState, p: Person) -> set[int]:
    return {q for q in (p.father, p.mother) if q is not None}


def filter_pop(pred: BooleanPredicate, base: SubPopulation,
               state: WorldState) -> SubPopulation:
    """The members of `base` for which pred holds, each evaluated now."""
    persons = state.persons
    for pid in base:
        if pid not in persons:
            raise IntegrityError(f"unresolvable person id {pid}")
    return SubPopulation(tuple(pid for pid in base.ids
                               if pred(state, persons[pid])))


def combine(op: str, a: SubPopulation, b: SubPopulation) -> SubPopulation:
    sa, sb = set(a.ids), set(b.ids)
    if op == "union":
        return SubPopulation.of(sa | sb)
    if op == "intersect":
        return SubPopulation.of(sa & sb)
    if op == "difference":
        return SubPopulation.of(sa - sb)
    raise ValueError(f"unknown set operation {op!r}")


def negate(pred: BooleanPredicate, base: SubPopulation,
           state: WorldState) -> SubPopulation:
    return combine("difference", base, filter_pop(pred, base, state))


def group_of_filtered(g: GroupPredicate, base_filtered: SubPopulation,
                      state: WorldState) -> SubPopulation:
    out: set[int] = set()
    for pid in base_filtered:
        out |= g(state, state.persons[pid])
    return SubPopulation.of(out)


def filtered_group(g: GroupPredicate, base: SubPopulation,
                   pred: BooleanPredicate, state: WorldState) -> SubPopulation:
    return filter_pop(pred, group_of_filtered(g, base, state), state)


def _gave_birth(state: WorldState, p: Person) -> bool:
    return p.gave_birth


# the attributes just() and pre() read: the live predicate of each, and its
# snapshot column of the same name
_JUST_ATTRS = {"alive": is_alive, "married": is_married,
               "gave_birth": _gave_birth}


def just(attr: str, state: WorldState, snaps: SnapshotStore,
         negated: bool = False) -> SubPopulation:
    """Persons satisfying the attribute now but not at the previous step.
    With negated=True the attribute test is inverted on both sides, e.g.
    just("married", negated=True) is "just got divorced or widowed"."""
    if attr not in _JUST_ATTRS:
        raise ValueError(f"just() does not support attribute {attr!r}")
    live = _JUST_ATTRS[attr]
    prev = snaps.before(state.time.step_index)
    frozen = getattr(prev, attr)
    now = {pid for pid, p in state.persons.items()
           if live(state, p) != negated}
    before = {pid for pid in prev.known if (pid in frozen) != negated}
    return SubPopulation.of(now - before)


def pre(attr: str, pid: int, snaps: SnapshotStore, state: WorldState):
    """Frozen previous-step value of one attribute. `town` and `location`
    are read through the previous house id (a House is frozen: it never
    moves once built)."""
    prev = snaps.before(state.time.step_index)
    if pid not in prev.known:
        raise MissingSnapshotError(f"person {pid} unknown at step "
                                   f"{prev.step_index}")
    if attr in _JUST_ATTRS:  # alive, married, gave_birth
        return pid in getattr(prev, attr)
    if attr == "partner":
        return prev.partner.get(pid)
    if attr == "house":
        return prev.house.get(pid)
    if attr in ("town", "location"):
        h = prev.old_house(pid, state)
        return None if h is None else (h.town if attr == "town" else h.local_xy)
    if attr == "age_steps":  # at the death step, if that came first
        p, end = state.persons[pid], prev.step_index
        if pid not in prev.alive and p.died_step is not None:
            end = min(p.died_step, end)
        return end - p.born_step
    raise ValueError(f"pre() does not support attribute {attr!r}")
