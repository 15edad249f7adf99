"""Domain types shared by every other module: persons, houses, towns, time,
parameters, the error hierarchy, the per-step change journal and the
person, house and town record write hooks that keep it, the partnership and
death mutators, the structural rules that both validate_world and the
every-step assumption checks apply, and the orphan stay-home rule that
ageing applies and its check replays."""
from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, MutableMapping
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

MALE = "male"
FEMALE = "female"

ADULT_YEARS = 18
# women give birth only while younger than this many years
MOTHER_AGE_LIMIT_YEARS = 45

# house coordinates within a town are integers in [lo, hi] on both axes
HOUSE_COORD_BOUNDS = (1, 25)

# clock-rate labels -> steps per year
STEPS_PER_YEAR = {"monthly": 12, "weekly": 52, "daily": 365, "hourly": 8760}


class SimulationError(Exception):
    """Base for all errors raised by this package."""


class ConfigError(SimulationError):
    """Bad run configuration: unknown key, out-of-range value, bad syntax."""


class DataFormatError(SimulationError):
    """Malformed input data file (fertility table, density map)."""


class IntegrityError(SimulationError):
    """World state violates a structural invariant."""


class MissingSnapshotError(SimulationError):
    """Temporal query needs a snapshot that was never frozen."""


class AssumptionFailure(SimulationError):
    """A registered assumption was violated while running in fail mode."""


def delta_t_spelling(delta_t: str | int) -> str | int:
    """The one spelling of a clock rate, which SimulationParams keeps: a
    STEPS_PER_YEAR label in lower case, or the int count of steps a year,
    positive, which a string of digits also names."""
    if isinstance(delta_t, int) and not isinstance(delta_t, bool):
        if delta_t <= 0:
            raise ConfigError(f"delta_t must be positive, got {delta_t}")
        return delta_t
    label = str(delta_t).strip().lower()
    if label in STEPS_PER_YEAR:
        return label
    # ASCII only: str.isdigit also accepts digits such as "²" that int()
    # rejects
    if label.isascii() and label.isdigit():
        return delta_t_spelling(int(label))
    raise ConfigError(f"unknown delta_t {delta_t!r}; expected one of "
                      f"{sorted(STEPS_PER_YEAR)} or a positive integer")


@dataclass(slots=True)
class SimTime:
    """Simulation clock: integer steps since t0, at steps_per_year per year."""
    step_index: int
    t0_year: int
    steps_per_year: int

    @property
    def year(self) -> int:
        return self.t0_year + self.step_index // self.steps_per_year

    def born_years_ago(self, years: int) -> int:
        """The birth step of a person exactly `years` years old now."""
        return self.step_index - years * self.steps_per_year


@dataclass(slots=True)
class SimulationParams:
    t0: int = 2020
    t_final: int = 2030
    delta_t: str | int = "daily"
    seed: int | str = "random"

    def __post_init__(self) -> None:
        if self.t_final <= self.t0:
            raise ConfigError(f"t_final ({self.t_final}) must exceed t0 ({self.t0})")
        self.delta_t = delta_t_spelling(self.delta_t)

    @property
    def steps_per_year(self) -> int:
        return STEPS_PER_YEAR.get(self.delta_t, self.delta_t)


@dataclass(slots=True)
class ModelParams:
    """Model-level constants. Rates are per-year probabilities."""
    basic_divorce_rate: float = 0.06
    basic_death_rate: float = 0.0001
    basic_male_marriage_rate: float = 0.7
    female_age_death_rate: float = 0.00019
    female_age_scaling: float = 15.5
    initial_pop: int = 10000
    male_age_death_rate: float = 0.00021
    male_age_scaling: float = 14.0
    max_num_marr_cand: int = 100
    start_married_ratio: float = 0.8

    def __post_init__(self) -> None:
        for name in ("basic_divorce_rate", "basic_death_rate",
                     "basic_male_marriage_rate", "female_age_death_rate",
                     "female_age_scaling", "male_age_death_rate",
                     "male_age_scaling", "start_married_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
        for name in ("basic_divorce_rate", "basic_death_rate",
                     "basic_male_marriage_rate", "female_age_death_rate",
                     "male_age_death_rate"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        # a yearly probability on its own; only its sum with an age term is
        # clamped, by design
        if self.basic_death_rate >= 1:
            raise ConfigError("basic_death_rate must be < 1")
        if self.female_age_scaling <= 0 or self.male_age_scaling <= 0:
            raise ConfigError("age scalings must be > 0")
        if not 0 <= self.start_married_ratio <= 1:
            raise ConfigError("start_married_ratio must be in [0, 1]")
        if self.initial_pop < 0:
            raise ConfigError("initial_pop must be >= 0")
        if self.max_num_marr_cand <= 0:
            raise ConfigError("max_num_marr_cand must be positive")


@dataclass(frozen=True, slots=True)
class FertilityTable:
    """Per-year fertility probabilities indexed by (age row, year column)."""
    rows: tuple[tuple[float, ...], ...]
    age_offset: int
    year_offset: int

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise DataFormatError("fertility table is empty")
        width = len(self.rows[0])
        for r, row in enumerate(self.rows):
            if len(row) != width:
                raise DataFormatError(f"fertility row {r} has {len(row)} "
                                      f"columns, expected {width}")
            for value in row:
                # a yearly probability of 1 has no per-step equivalent
                if not 0.0 <= value < 1.0:
                    raise DataFormatError(
                        f"fertility row {r} has value {value} outside [0, 1)")


@dataclass(slots=True)
class ModelData:
    """Input data: fertility table plus the two 16-entry decade modifiers."""
    fertility: FertilityTable
    divorce_modifier_by_decade: tuple[float, ...]
    male_marriage_modifier_by_decade: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("divorce_modifier_by_decade",
                     "male_marriage_modifier_by_decade"):
            vec = tuple(getattr(self, name))
            setattr(self, name, vec)
            if len(vec) != 16:
                raise ConfigError(f"{name} must have 16 entries, got {len(vec)}")
            if not all(math.isfinite(v) for v in vec):
                raise ConfigError(f"{name} entries must be finite")
            if any(v < 0 for v in vec):
                raise ConfigError(f"{name} entries must be >= 0")


@dataclass(slots=True, eq=False)  # ids are unique: compare by identity
class Person:
    """A person on record. The age is not stored but read from the state's
    clock, which every person holds, and the birth and death steps."""
    id: int
    gender: str
    born_step: int
    time: SimTime = field(repr=False)
    alive: bool = True
    died_step: int | None = None  # set by mark_dead
    partner: int | None = None
    father: int | None = None
    mother: int | None = None
    children: set[int] = field(default_factory=set)
    # every partner this person ever had, in order; read only by verification
    ever_partners: list[int] = field(default_factory=list)
    house: int | None = None
    gave_birth: bool = False
    # the birth-step index of the person's state (WorldState.born_at)
    cohorts: dict[int, list[int]] = field(default_factory=dict, repr=False)
    # the change journal of the person's state, which CountedPerson writes
    journal: Journal | None = field(default=None, repr=False)

    @property
    def age_steps(self) -> int:
        """Steps lived: to now while alive, revived too, else to death."""
        if self.alive or self.died_step is None:
            return self.time.step_index - self.born_step
        return self.died_step - self.born_step

    @age_steps.setter
    def age_steps(self, steps: int) -> None:
        """Move the birth step; a CountedPerson's write refiles the person."""
        self.born_step += self.age_steps - steps


# the fields the census reads
_CENSUS_FIELDS = frozenset(("alive", "gender", "born_step"))


class CountedPerson(Person):
    """A Person whose every attribute write is journaled, with the old
    partner on a partner write and the old house on a house write, keeps
    the census on its journal current and refiles the person in the
    birth-step index on a born_step write. WorldState.keep_census switches
    persons to it, and files them, not the constructor: this __setattr__
    would slow every field that Person() and init_world write."""
    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        journal, persons, houses = self.journal, (self.id,), ()
        # the old partner's link no longer points back, and the old
        # house's occupant set may still list the person
        if name == "partner" and self.partner is not None:
            persons = (self.id, self.partner)
        elif name == "house" and self.house is not None:
            houses = (self.house,)
        if name in _CENSUS_FIELDS:
            journal.count(self, -1)
            if name == "born_step":
                self.cohorts[self.born_step].remove(self.id)
                bisect.insort(self.cohorts.setdefault(value, []), self.id)
            object.__setattr__(self, name, value)
            journal.count(self, 1)
        else:
            object.__setattr__(self, name, value)
        journal.note(self.time.step_index, persons, houses)

    def __setstate__(self, state: tuple) -> None:
        # a copy sets its slots past the hook, whose inputs are not set yet
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


@dataclass(slots=True)
class House:
    id: int
    town: int
    local_xy: tuple[int, int]
    occupants: set[int] = field(default_factory=set)
    # the journal and clock its HouseRecords hands it
    journal: Journal | None = field(default=None, init=False, repr=False,
                                    compare=False)
    time: SimTime | None = field(default=None, init=False, repr=False,
                                 compare=False)


class JournaledHouse(House):
    """A House that journals itself and its occupants at its clock's step
    before a town, local_xy or occupants write. HouseRecords, not House(),
    makes a house one: this __setattr__ would slow every house built."""
    __slots__ = ()
    __setstate__ = CountedPerson.__setstate__

    def __setattr__(self, name: str, value) -> None:
        if name in ("town", "local_xy", "occupants"):
            self.journal.note(self.time.step_index, self.occupants, (self.id,))
        object.__setattr__(self, name, value)


@dataclass(slots=True)
class Town:
    id: int
    grid_xy: tuple[int, int]
    density: float
    houses: set[int] = field(default_factory=set)
    # the journal its TownRecords hands it
    journal: Journal | None = field(default=None, init=False, repr=False,
                                    compare=False)


class JournaledTown(Town):
    """A Town whose id, grid_xy and density writes count in town_writes.
    TownRecords, not Town(), makes one, so building a Town runs no hook."""
    __slots__ = ()
    __setstate__ = CountedPerson.__setstate__

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in ("id", "grid_xy", "density"):
            self.journal.town_writes += 1


class _Records(dict, MutableMapping):
    """A dict whose every write calls _note(key, the record it replaces or
    drops or None) first, and _hand(record) on each record it stores or
    starts with. _Records(records, *its slots' values) is built past _note."""
    __slots__ = ()
    # MutableMapping's: they write through __setitem__, __delitem__, popitem
    pop, setdefault = MutableMapping.pop, MutableMapping.setdefault
    update, clear = MutableMapping.update, MutableMapping.clear

    def __init__(self, records, *hook) -> None:
        super().__init__(records)
        for name, value in zip(self.__slots__, hook):
            setattr(self, name, value)
        for record in self.values():
            self._hand(record)

    def __reduce__(self):  # restores past the hook: records, then slots
        return type(self), (dict(self), *[getattr(self, name)
                                          for name in self.__slots__])

    def __setitem__(self, key: int, record) -> None:
        self._note(key, self.get(key))
        self._hand(record)
        dict.__setitem__(self, key, record)

    def __delitem__(self, key: int) -> None:
        self._note(key, dict.pop(self, key))

    def popitem(self) -> tuple:
        key, record = dict.popitem(self)
        self._note(key, record)
        return key, record

    def __ior__(self, other):
        self.update(other)
        return self


class HouseRecords(_Records):
    """A state's house records by id. Every write journals the house id and
    the occupants of the record it replaces or drops, at the clock's step;
    a house stored is handed the journal and clock, as a JournaledHouse."""
    __slots__ = ("journal", "time")

    def _hand(self, house: House) -> None:
        house.journal, house.time = self.journal, self.time
        house.__class__ = JournaledHouse

    def _note(self, hid: int, old: House | None) -> None:
        self.journal.note(self.time.step_index,
                          () if old is None else old.occupants, (hid,))


class TownRecords(_Records):
    """A state's towns by id. Every write counts in journal.town_writes and
    hands the town it stores the journal, as a JournaledTown."""
    __slots__ = ("journal",)

    def _hand(self, town: Town) -> None:
        town.journal = self.journal
        town.__class__ = JournaledTown

    def _note(self, tid: int, old: Town | None) -> None:
        self.journal.town_writes += 1


class _EmptyWindow(tuple):
    """EMPTY_WINDOW's type: a copy or unpickle of it is EMPTY_WINDOW."""
    __slots__ = ()

    def __reduce__(self) -> str:
        return "EMPTY_WINDOW"


# the change window of a step on which nothing was journaled and no clock
# cohort turned: one answer, shared by every reader, which none can change
EMPTY_WINDOW = _EmptyWindow((frozenset(), frozenset()))


class Journal:
    """The ids of the persons and houses written, keyed by the step each
    write is made at: each person added, each CountedPerson attribute
    write with the old partner or house, and each HouseRecords write with
    the old record's occupants. Only a move adds an occupant and only
    births adds a child, so a grown house or parent has a journaled one.

    It holds the writes of the newest step written at and of the step
    written at before it, and forgets older ones. `since(step)`, read by
    WorldState.changed_since alone, answers with every id written at
    `step` or later, or None when writes at or after `step` may have been
    forgotten. `writes` counts the notes. Step 0 counts as forgotten from
    the start, so the writes that build a world there are never recorded.
    `town_writes` counts TownRecords' and JournaledTown's writes, any step.

    It also holds the state's census once WorldState.keep_census has taken
    it: the living, the living males and the sum of the living's birth
    steps, which CountedPerson writes keep current."""

    __slots__ = ("_forgotten", "_step", "_persons", "_houses", "_older",
                 "writes", "town_writes", "living", "males", "born_sum")

    def __init__(self) -> None:
        self._forgotten = 0  # the newest step whose writes were dropped
        self._step = 0  # the newest step written at, and its writes
        self._persons: set[int] = set()
        self._houses: set[int] = set()
        # the step written at before it, and its writes
        self._older: tuple[int, set[int], set[int]] = (0, set(), set())
        self.writes = self.town_writes = 0
        self.living = self.males = self.born_sum = 0

    def count(self, p: Person, sign: int) -> None:
        """Add (sign 1) or take away (sign -1) p's share of the census."""
        if p.alive:
            self.living += sign
            self.born_sum += sign * p.born_step
            if p.gender == MALE:
                self.males += sign

    def note(self, step: int, persons: Iterable[int] = (),
             houses: Iterable[int] = ()) -> None:
        if step <= self._forgotten:
            return
        self.writes += 1
        if step != self._step:
            # max: still sound should a hand-built state's clock go back
            self._forgotten = max(self._forgotten, self._older[0])
            self._older = (self._step, self._persons, self._houses)
            self._step, self._persons, self._houses = step, set(), set()
        self._persons.update(persons)
        self._houses.update(houses)

    def since(self, step: int | None) -> tuple[set[int], set[int]] | None:
        """The person ids and house ids written at `step` or later, in new
        sets, or EMPTY_WINDOW, with no set built, when there are none;
        None when `step` is None or this journal cannot tell."""
        if step is None or step <= self._forgotten:
            return None
        if self._step < step:  # the newest step written at is older
            return EMPTY_WINDOW
        at, persons, houses = self._older
        if at >= step:
            persons, houses = persons | self._persons, houses | self._houses
        else:
            persons, houses = set(self._persons), set(self._houses)
        return (persons, houses) if persons or houses else EMPTY_WINDOW

    def wrote_at(self, step: int) -> bool:
        """Whether anything was written at `step`, or may have been and
        is forgotten."""
        return step <= self._forgotten or step in (self._step,
                                                   self._older[0])


@dataclass(slots=True)
class WorldState:
    persons: dict[int, Person] = field(default_factory=dict)
    houses: dict[int, House] = field(default_factory=dict)
    towns: dict[int, Town] = field(default_factory=dict)
    time: SimTime = field(default_factory=lambda: SimTime(0, 2020, 365))
    next_person_id: int = 0
    next_house_id: int = 0
    journal: Journal = field(default_factory=Journal)
    _born: dict[int, list[int]] = field(default_factory=dict, init=False,
                                        repr=False)
    # what each incremental reader (a roster, the deaths screen, the
    # empty-house count, a hard check, check_step) carries from one step to
    # the next for this state, under a key of its own: the step it last
    # read at, which it hands changed_since, and its data; the kinship
    # index, synced by its check's rule, is kept bare
    kept: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)
    # changed_since's key (the step and the journal's writes), its answer
    # there, the first step of the quiet run that answer reaches back to,
    # and whether that step is quiet: nothing written at the step before
    # it, and no cohort turned at it
    _changed: tuple = field(default=(None, None, None, None, False),
                            init=False, repr=False)
    # whether every person is a CountedPerson (keep_census)
    _counted: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        self.houses = HouseRecords(self.houses, self.journal, self.time)
        self.towns = TownRecords(self.towns, self.journal)

    def add_person(self, gender: str, age_steps: int, born_step: int,
                   father: int | None = None, mother: int | None = None) -> Person:
        if self.time.step_index - born_step != age_steps:
            raise ValueError(f"age {age_steps} disagrees with birth step "
                             f"{born_step} at step {self.time.step_index}")
        pid = self.next_person_id
        self.next_person_id = pid + 1
        person = Person(id=pid, gender=gender, born_step=born_step,
                        time=self.time, father=father, mother=mother,
                        cohorts=self._born, journal=self.journal)
        if self._counted:
            self.journal.count(person, 1)
            self._born.setdefault(born_step, []).append(pid)
            person.__class__ = CountedPerson
        self.persons[pid] = person
        self.journal.note(self.time.step_index, (pid,))
        return person

    def keep_census(self) -> None:
        """Count everyone on record once, file them in the birth-step index
        and switch them to CountedPerson, whose writes keep the count, the
        index and the journal from then on, as add_person does for each
        person added after. Called at the first census, changed_since or
        born_at, so building a world runs unhooked."""
        if not self._counted:
            journal, born = self.journal, self._born
            journal.living = journal.males = journal.born_sum = 0
            for p in self.persons.values():
                journal.count(p, 1)
                born.setdefault(p.born_step, []).append(p.id)
                p.__class__ = CountedPerson
            self._counted = True

    def census(self) -> tuple[int, int, int]:
        """The living, the living males and the sum of the living's birth
        steps, kept by the person writes: no pass over everyone on record."""
        self.keep_census()
        journal = self.journal
        return journal.living, journal.males, journal.born_sum

    def born_at(self, step: int) -> list[int]:
        """The ids of the persons born at `step`, ascending, from the index
        that keep_census builds, which the first call starts: add_person
        files each person added after it (ids only grow), and a
        CountedPerson's born_step write refiles them."""
        self.keep_census()
        return self._born.get(step, [])

    def clock_turned(self) -> set[int]:
        """The persons whose standing the clock alone may flip at this step:
        those turning ADULT_YEARS, a step past it (men join the marriage
        pool then) or MOTHER_AGE_LIMIT_YEARS, and the parents of the
        children a step past their first birthday (the birth spacing)."""
        self.keep_census()
        now, spy = self.time.step_index, self.time.steps_per_year
        persons, cohort = self.persons, self._born.get
        adult = now - ADULT_YEARS * spy
        turned = {*cohort(adult, ()), *cohort(adult - 1, ()),
                  *cohort(now - MOTHER_AGE_LIMIT_YEARS * spy, ())}
        for pid in cohort(now - spy - 1, ()):
            p = persons[pid]
            turned.update(q for q in (p.mother, p.father) if q is not None)
        return turned

    def changed_since(self, step: int | None) -> tuple | None:
        """What a reader that last read this state at `step` must look at
        again: the persons on record and the houses journaled since the
        previous step, the parents, partner and house of each such person,
        and clock_turned; EMPTY_WINDOW, shared and built once, when that
        is nothing. One answer for any `step` from `calm` to now, where `calm`
        is the previous step, or where it was at the previous step when
        that step was quiet: nothing was journaled at the step before it
        and no cohort turned at it. A reader at step k needs the writes
        made from k on and the cohorts of the steps after k; the answer
        holds those of the previous step and this one, and the quiet steps
        from `calm` on add none. None for any other `step`, or when the
        journal cannot tell, and the reader then reads everyone. The first
        call starts keep_census. Kept until the clock moves or the journal
        is written, so readers must not change the sets."""
        at, writes, window, calm, quiet = self._changed
        now, journal = self.time.step_index, self.journal
        if at != now or writes != journal.writes:
            self.keep_census()
            if at != now:
                calm = calm if at == now - 1 and quiet else now - 1
            window = journal.since(now - 1)
            turned = self.clock_turned() if window is not None else ()
            quiet = not (turned or journal.wrote_at(now - 1))
            if window is EMPTY_WINDOW:
                if turned:
                    window = (turned, set())
            elif window is not None:
                persons = self.persons
                pids, hids = window
                pids.difference_update([q for q in pids if q not in persons])
                for p in [persons[q] for q in pids]:
                    pids.update(q for q in (p.mother, p.father, p.partner)
                                if q in persons)
                    hids.add(p.house)
                hids.discard(None)
                pids |= turned
            self._changed = (now, journal.writes, window, calm, quiet)
        return window if step is not None and calm <= step <= now else None

    def roster(self, holds: Callable[[WorldState, Person], bool]) -> list[int]:
        """The ascending ids of the persons on record for whom
        holds(state, person) is true; holds reads only the live state and
        the clock. Kept in `kept` under holds, with the step it was read
        at: only the persons in changed_since(that step) are evaluated
        again, or everyone when that is None; on EMPTY_WINDOW the kept
        list is returned as it is, and its step, which the window reaches
        back to, stays. So a roster sees what a freeze and the checks see.
        Callers must not change the list."""
        persons = self.persons
        read_at, ids = self.kept.get(holds, (None, None))
        changed = self.changed_since(read_at)
        if changed is EMPTY_WINDOW:
            return ids
        if changed is None:
            ids = [pid for pid, p in persons.items() if holds(self, p)]
        else:
            for pid in changed[0]:
                i = bisect.bisect_left(ids, pid)
                there = ids[i:i + 1] == [pid]
                if there != bool(holds(self, persons[pid])):  # add or drop
                    ids[i:i + there] = [] if there else [pid]
        self.kept[holds] = (self.time.step_index, ids)
        return ids

    def allocate_house_id(self) -> int:
        hid = self.next_house_id
        self.next_house_id = hid + 1
        return hid


def link_partners(state: WorldState, a: Person, b: Person) -> None:
    """Partner a and b and append each to the other's history."""
    a.partner = b.id
    b.partner = a.id
    a.ever_partners.append(b.id)
    b.ever_partners.append(a.id)


def unlink_partners(state: WorldState, person: Person) -> None:
    """Clear the partnership on both sides; no-op for a single person."""
    if person.partner is None:
        return
    other = state.persons[person.partner]
    other.partner = None
    person.partner = None


def mark_dead(state: WorldState, person: Person) -> None:
    """Set a person dead at this step. They stay on record; leaving the house
    and widowing the partner are separate writes (deaths makes both first)."""
    person.alive = False
    person.died_step = state.time.step_index


def is_orphan_oldest_sibling(state: WorldState, p: Person,
                             alive: Callable[[int], bool]) -> bool:
    """The stay-home exception at 18: no alive parent, and oldest (born
    first, ties to the smaller id) among their alive siblings. `alive` reads
    relatives as ageing saw them: live during ageing, from the previous
    snapshot when a check replays it."""
    persons = state.persons
    parents = [persons[q] for q in (p.father, p.mother) if q is not None]
    if any(alive(parent.id) for parent in parents):
        return False
    key = (p.born_step, p.id)  # p's own key is not below itself
    return not any(alive(sid) and (persons[sid].born_step, sid) < key
                   for parent in parents for sid in parent.children)


class Fault(NamedTuple):
    """One breach of a structural rule: the persons (or, for the coordinate
    rule, the house) it names, what broke, and the house whose record broke
    it; `house` is None when the broken record is the person ids[0]."""
    ids: tuple[int, ...]
    message: str
    house: int | None = None


def _person_fault(kind: str, pid: int, *others: int) -> Fault:
    return Fault((pid, *others), f"{kind}: p{pid}")


# Each structural rule examines the person and house records it is handed,
# in ascending id, and returns their faults in that order. validate_world
# hands it every person and house; an every-step check hands it those the
# journal says may have changed, and those it flagged.

def residence_faults(state: WorldState, persons: Iterable[Person],
                     houses: Iterable[House]) -> list[Fault]:
    """Every alive person lives in a house that exists and lists them."""
    out = []
    for p in persons:
        if not p.alive:
            continue
        if p.house is None:
            out.append(_person_fault("alive person without house", p.id))
        elif p.house not in state.houses:
            out.append(_person_fault("dangling house ref", p.id))
        elif p.id not in state.houses[p.house].occupants:
            out.append(_person_fault("occupant set misses resident", p.id))
    return out


def dead_residence_faults(state: WorldState, persons: Iterable[Person],
                          houses: Iterable[House]) -> list[Fault]:
    """The dead hold no house, and an occupant set lists only living
    persons who live in that house."""
    out = [_person_fault("dead person keeps house", p.id) for p in persons
           if not p.alive and p.house is not None]
    for h in houses:
        for pid in h.occupants:
            occ = state.persons.get(pid)
            if occ is None or not occ.alive or occ.house != h.id:
                out.append(Fault((pid,), f"stale occupant p{pid}: h{h.id}",
                                 h.id))
    return out


def partnership_faults(state: WorldState, persons: Iterable[Person],
                       houses: Iterable[House]) -> list[Fault]:
    """Partnerships are symmetric, opposite-gender and between living
    adults. Each partner is checked from both sides."""
    adult_steps = ADULT_YEARS * state.time.steps_per_year
    adult_born = state.time.born_years_ago(ADULT_YEARS)  # born later: minor
    out = []
    for p in persons:
        if p.partner is None:
            continue
        pid = p.id
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
        if (p.born_step > adult_born if p.alive
                else p.age_steps < adult_steps):
            out.append(_person_fault("married minor", pid))
    return out


def house_xy_faults(state: WorldState, persons: Iterable[Person],
                    houses: Iterable[House]) -> list[Fault]:
    """House coordinates lie within HOUSE_COORD_BOUNDS on both axes."""
    lo, hi = HOUSE_COORD_BOUNDS
    return [Fault((h.id,), f"house coordinates out of range: h{h.id}", h.id)
            for h in houses
            if not (lo <= h.local_xy[0] <= hi and lo <= h.local_xy[1] <= hi)]


# the structural rules shared by validate_world and the every-step checks
STRUCTURAL_RULES = (residence_faults, dead_residence_faults,
                    partnership_faults, house_xy_faults)


def validate_world(state: WorldState) -> list[str]:
    """Referential-integrity sweep. Returns one message per broken rule,
    empty when every structural invariant holds."""
    problems = [f.message for rule in STRUCTURAL_RULES
                for f in rule(state, state.persons.values(),
                              state.houses.values())]
    for pid, p in state.persons.items():
        if p.father is not None and p.father == p.mother:
            problems.append(f"father equals mother: p{pid}")
        for label, ref in (("father", p.father), ("mother", p.mother)):
            if ref is not None and ref not in state.persons:
                problems.append(f"dangling {label} ref: p{pid}")
        if pid in p.children:
            problems.append(f"person is own child: p{pid}")
        for cid in p.children:
            child = state.persons.get(cid)
            if child is None:
                problems.append(f"dangling child ref: p{pid}")
            elif pid not in (child.father, child.mother):
                problems.append(f"child link not reciprocated: p{pid} -> p{cid}")
    for hid, h in state.houses.items():
        if h.town not in state.towns:
            problems.append(f"dangling town ref: h{hid}")
        elif hid not in state.towns[h.town].houses:
            problems.append(f"town house set misses house: h{hid}")
    for tid, t in state.towns.items():
        if t.density <= 0:
            problems.append(f"town without density: t{tid}")
        for hid in t.houses:
            if hid not in state.houses:
                problems.append(f"dangling house ref: t{tid}")
    return problems
