"""The change journal, its writers and its one reader.

The rosters, the snapshot freeze and the every-step checks read what
changed from WorldState.changed_since, which alone reads the journal.
Once it has been called, every attribute write to a person is journaled
by CountedPerson's write hook; every write to the house records, at any
time, by HouseRecords'; and every town, local_xy or occupants write to a
stored house by JournaledHouse's. The space checks read the town writes,
which TownRecords and JournaledTown's write hook count in
Journal.town_writes. So only a write the hooks cannot see goes unseen by
them: a change to a container, an item write to the person records, a
rebinding of a state's house or town records, or a write past a hook. The writer test walks the
package's source and fails on any such write outside the functions that
journal it; the note test fails on any other caller of Journal.note than
the three hooks and add_person, and the reader test on any other caller
of Journal.since.
"""
from __future__ import annotations

import ast
import copy
import pickle
import random
import sys
from pathlib import Path

import pytest

from conftest import add_house, add_person, add_town, family_state, make_state
from demosim.cli import build_config
from demosim.engine import Run
from demosim.initialization import init_world
from demosim.model import (EMPTY_WINDOW, FEMALE, House, JournaledHouse,
                           JournaledTown, Journal, Town, WorldState,
                           link_partners, mark_dead, unlink_partners)
from demosim.space import create_house, leave_house, move_person

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "demosim"

# the person fields the every-step checks, the rosters and the birth-step
# index read (children: the birth spacing of events._fertile_wife), the
# house fields the checks read, and the town fields the space checks
# read: the hooks journal or count an assignment to one, but not a write
# past them (object.__setattr__, setattr or delattr with the field's name)
FIELDS = {"alive", "partner", "house", "ever_partners", "born_step",
          "died_step", "gave_birth", "children", "local_xy", "town",
          "occupants", "id", "grid_xy", "density"}
# containers the readers read: the hooks see no mutating call or item
# write on one. An assignment to a stored house's occupants is journaled,
# but flagged too: only the mutators change who lives where
CONTAINERS = {"occupants", "children", "ever_partners"}
# the person records: an item write or a mutating call adds or drops one
# (the house and town records journal or count their own item writes)
RECORDS = {"persons"}
# a state's hooked records: binding a new dict to one drops its hook, and
# dict's own writers called on one write past it
HOOKED_RECORDS = {"houses", "towns"}
MUTATING_CALLS = {"add", "append", "clear", "difference_update", "discard",
                  "extend", "insert", "intersection_update", "pop",
                  "popitem", "remove", "reverse", "setdefault", "sort",
                  "symmetric_difference_update", "update"}
# dict's own writers, which called on the hooked records write past their
# hook
DICT_WRITES = MUTATING_CALLS | {"__setitem__", "__delitem__", "__ior__"}
# add_person journals the record it adds; the others change an occupant
# set or a partner history only beside a hooked write to the person (a
# move or leave: the person and the house left; a link: both partners)
JOURNALED = {("model", "WorldState.add_person"), ("model", "link_partners"),
             ("space", "move_person"), ("space", "leave_house")}
# writes no reader needs journaled: ageing only clears a flag, which is
# never a fault, past the hook; births adds the neonate to both parents'
# children, and add_person journals the neonate, whose parents
# WorldState.changed_since brings into every window; assign_parents
# writes at step 0, which the journal forgets
UNJOURNALED = {("events", "ageing"), ("events", "births"),
               ("initialization", "assign_parents")}
# the one binding of a state's records: it wraps them in their hooks
WRAPS = {("model", "WorldState.__post_init__")}


class _Writes(ast.NodeVisitor):
    """Collects (qualified function name, line, field) for every write."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.found: list[tuple[str, int, str]] = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _hit(self, node, name: str) -> None:
        self.found.append((".".join(self.scope), node.lineno, name))

    def _target(self, node) -> None:
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._target(elt)
        elif isinstance(node, ast.Starred):
            self._target(node.value)
        elif (isinstance(node, ast.Attribute)
              and node.attr in HOOKED_RECORDS | {"occupants"}):
            self._hit(node, node.attr)
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr in CONTAINERS | RECORDS):
            self._hit(node, node.value.attr)

    def visit_Assign(self, node) -> None:
        for target in node.targets:
            self._target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node) -> None:
        self._target(node.target)
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    def visit_Delete(self, node) -> None:
        for target in node.targets:
            self._target(target)
        self.generic_visit(node)

    def visit_Call(self, node) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in MUTATING_CALLS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in CONTAINERS | RECORDS):
            self._hit(node, func.value.attr)
        # setattr and delattr, and object.__setattr__, which writes past
        # the hook
        if ((isinstance(func, ast.Name) and func.id in ("setattr", "delattr")
             or isinstance(func, ast.Attribute) and func.attr == "__setattr__")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in FIELDS):
            self._hit(node, node.args[1].value)
        # dict.__setitem__(state.houses, ...) and the like
        if (isinstance(func, ast.Attribute) and func.attr in DICT_WRITES
                and isinstance(func.value, ast.Name)
                and func.value.id == "dict" and node.args
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr in HOOKED_RECORDS):
            self._hit(node, node.args[0].attr)
        self.generic_visit(node)


def package_writes() -> list[tuple[str, str, int, str]]:
    """(module, function, line, field) for every write in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        finder = _Writes()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        out.extend((path.stem, *hit) for hit in finder.found)
    return out


def test_only_journaled_mutators_write_checked_fields():
    writes = package_writes()
    allowed = JOURNALED | UNJOURNALED | WRAPS
    stray = [w for w in writes if (w[0], w[1]) not in allowed]
    assert stray == [], "writes the hook cannot see, outside the mutators"
    # each mutator still writes, so the lists cannot outlive the code
    assert {(w[0], w[1]) for w in writes} == allowed


def test_writes_past_the_town_hooks_are_found():
    """A town field written past JournaledTown.__setattr__, a town record
    written past TownRecords, and a state's records rebound to a new dict
    are each one write the writer test flags: the space checks would not
    see them, so none may stand in the package outside WRAPS. The two
    writes through the hooks are not flagged."""
    finder = _Writes()
    finder.visit(ast.parse(
        "def f(state, town):\n"
        "    object.__setattr__(town, 'density', 0.9)\n"
        "    setattr(town, 'grid_xy', (1, 1))\n"
        "    dict.__setitem__(state.towns, 0, town)\n"
        "    state.towns = build_towns(density)\n"
        "    state.houses = {}\n"
        "    town.density = 0.9\n"  # through the hook
        "    state.towns[0] = town\n"))  # through the hook
    assert finder.found == [("f", 2, "density"), ("f", 3, "grid_xy"),
                            ("f", 4, "towns"), ("f", 5, "towns"),
                            ("f", 6, "houses")]


def test_writes_past_the_house_hook_are_found():
    """A house field written past JournaledHouse.__setattr__ is one write
    the writer test flags; the write through the hook is not."""
    finder = _Writes()
    finder.visit(ast.parse(
        "def f(house):\n"
        "    object.__setattr__(house, 'local_xy', (0, 0))\n"
        "    setattr(house, 'town', 1)\n"
        "    delattr(house, 'occupants')\n"
        "    house.local_xy = (0, 0)\n"))  # through the hook
    assert finder.found == [("f", 2, "local_xy"), ("f", 3, "town"),
                            ("f", 4, "occupants")]


def test_house_field_writes_are_journaled():
    """A house the records store journals its id and its occupants at the
    clock's step on a town, local_xy or occupants write; a write to any
    other field, a change inside its occupant set and a write to a house
    outside any records note nothing."""
    state = make_state()
    town = add_town(state)
    house = add_house(state, town)
    man = add_person(state, age_years=30, house=house)
    assert type(house) is JournaledHouse
    state.time.step_index = 1
    state.changed_since(None)  # starts the person hook
    journal = state.journal

    def written(now, name, value, target=house):
        state.time.step_index = now
        before = journal.writes
        setattr(target, name, value)
        return journal.writes - before, journal.since(now)

    assert written(2, "local_xy", (2, 2)) == (1, ({man.id}, {house.id}))
    assert written(3, "town", town.id) == (1, ({man.id}, {house.id}))
    assert written(4, "occupants", set()) == (1, ({man.id}, {house.id}))
    assert written(5, "local_xy", (1, 1)) == (1, (set(), {house.id}))
    assert written(6, "id", house.id) == (0, EMPTY_WINDOW)
    loose = House(id=9, town=town.id, local_xy=(1, 1))
    assert type(loose) is House
    assert written(7, "local_xy", (0, 0), loose) == (0, EMPTY_WINDOW)
    state.time.step_index = 8
    house.occupants.add(man.id)
    assert journal.since(8) is EMPTY_WINDOW


@pytest.mark.parametrize("copied", [
    copy.deepcopy, lambda run: pickle.loads(pickle.dumps(run))],
    ids=["deepcopy", "pickle"])
def test_a_copy_keeps_the_town_count_and_journals_its_own(copied):
    """A copy of a seed-1 hourly Run after 5 steps restores its towns and
    houses past their hooks: its town_writes is the original's, and a
    house write on the copy is journaled in the copy's journal alone."""
    run = Run(build_config({"initial_pop": "200", "delta_t": "hourly",
                            "t0": "2020", "t_final": "2021", "seed": "1"}))
    for _ in range(5):
        run.advance()
    twin = copied(run)
    assert twin.state.journal.town_writes == run.state.journal.town_writes
    house = min(twin.state.houses.values(), key=lambda h: h.id)
    assert type(house) is JournaledHouse
    assert house.journal is twin.state.journal
    house.local_xy = house.local_xy
    assert house.id in twin.state.journal.since(5)[1]
    assert house.id not in run.state.journal.since(5)[1]


def test_mutators_journal_what_they_change():
    state = make_state()
    town = add_town(state)
    h0, h1 = add_house(state, town), add_house(state, town)
    man = add_person(state, age_years=30)
    wife = add_person(state, age_years=30, gender=FEMALE)
    other = add_person(state, age_years=30, gender=FEMALE)
    state.time.step_index = 1
    # the first read starts the hook: nothing is journaled before it
    assert state.changed_since(None) is None
    assert state.journal.since(1) == (set(), set())
    move_person(state, man, h0)
    assert state.journal.since(1) == ({man.id}, set())

    def written(now, write, *args):
        state.time.step_index = now
        if isinstance(write, str):  # a method of the house records
            getattr(state.houses, write)(*args)
        else:
            write(state, *args)
        return state.journal.since(now)

    everyone = {man.id, wife.id, other.id}
    assert written(2, link_partners, man, wife) == ({man.id, wife.id}, set())
    # displaces the wife, who still points at him
    assert written(3, link_partners, man, other) == (everyone, set())
    # strands the other woman, whom he still points at
    assert written(4, unlink_partners, wife) == (everyone, set())
    # the house left is journaled too
    assert written(5, move_person, man, h1) == ({man.id}, {h0.id})
    assert written(6, leave_house, man) == ({man.id}, {h1.id})
    assert written(7, mark_dead, man) == ({man.id}, set())
    built = state.next_house_id
    assert written(8, create_house, town, random.Random(1)) == (set(), {built})

    # each write to the house records journals the ids it adds, replaces
    # or drops, and the occupants of the record it replaces or drops
    move_person(state, wife, h0)
    move_person(state, other, h1)
    a, b = built + 1, built + 2

    def record(hid, *occupants):
        return House(id=hid, town=town.id, local_xy=(1, 1),
                     occupants=set(occupants))

    houses = state.houses
    assert written(9, "__setitem__", h0.id, record(h0.id)) == (
        {wife.id}, {h0.id})
    assert written(10, "__setitem__", a, record(a)) == (set(), {a})
    assert written(11, "__delitem__", h1.id) == ({other.id}, {h1.id})
    assert written(12, "pop", a) == (set(), {a})
    assert written(13, "pop", a, None) == (set(), set())
    assert written(14, "popitem") == (set(), {built})
    assert written(15, "setdefault", h1.id, record(h1.id, other.id)) == (
        set(), {h1.id})
    assert written(16, "setdefault", h1.id, record(h1.id)) == (set(), set())
    assert written(17, "update", [(a, record(a))]) == (set(), {a})
    assert written(18, "__ior__", {b: record(b)}) == (set(), {b})
    assert written(19, "clear") == ({other.id}, {h0.id, h1.id, a, b})
    assert houses == {}
    houses[a] = record(a, other.id)
    # a read journals nothing
    assert written(20, lambda s: (s.houses.get(a), s.houses[a], a in s.houses,
                                  len(s.houses), list(s.houses))) == (
        set(), set())


def test_town_writes_count_every_town_write():
    """Each write to the town records counts once per town it adds,
    replaces or drops, and hands each town it stores the journal as a
    JournaledTown, whose __setattr__ then counts each id, grid_xy or
    density write to it; a read, a write to a town's house set and a write
    to a town outside any records, a plain Town, count nothing."""
    state = make_state()
    towns, journal = state.towns, state.journal
    t0, t1 = add_town(state), add_town(state)
    assert journal.town_writes == 2 and journal.writes == 0
    assert t0.journal is t1.journal is journal

    def counted(write, *args):
        before = journal.town_writes
        if isinstance(write, str):  # a method of the town records
            getattr(towns, write)(*args)
        else:
            write(*args)
        return journal.town_writes - before

    loose = Town(id=5, grid_xy=(5, 5), density=0.5)
    assert type(loose) is Town
    assert counted(setattr, loose, "density", 0.1) == 0
    assert counted("__setitem__", 2, loose) == 1
    assert type(loose) is JournaledTown and loose.journal is journal
    assert counted(setattr, loose, "density", 0.2) == 1
    assert counted(setattr, t0, "id", 0) == 1
    assert counted(setattr, t0, "grid_xy", (4, 4)) == 1
    assert counted(setattr, t0, "houses", {1}) == 0
    assert counted(t0.houses.add, 2) == 0
    assert counted("__setitem__", 2, Town(id=2, grid_xy=(6, 6),
                                          density=0.3)) == 1
    assert counted("__delitem__", 2) == 1
    assert counted("pop", 1) == 1
    assert counted("pop", 1, None) == 0
    assert counted("setdefault", 1, t1) == 1
    assert counted("setdefault", 1, t1) == 0
    assert counted("update", {2: loose, 3: Town(id=3, grid_xy=(7, 7),
                                                density=0.3)}) == 2
    assert counted("__ior__", {4: Town(id=4, grid_xy=(8, 8),
                                       density=0.3)}) == 1
    assert counted("popitem") == 1
    assert counted(lambda: (towns.get(0), towns[0], 0 in towns, len(towns),
                            list(towns))) == 0
    assert counted("clear") == 4 and towns == {}
    assert journal.writes == 0  # the town writes note nothing


def test_journal_keeps_two_steps_of_writes():
    journal = Journal()
    journal.note(1, persons=(1,))
    journal.note(1, houses=(7,))
    journal.note(2, persons=(2,))
    assert journal.since(1) == ({1, 2}, {7})
    assert journal.since(2) == ({2}, set())
    assert journal.since(3) == (set(), set())
    journal.note(3, persons=(3,))
    # the writes of step 1 are forgotten once step 3 is written
    assert journal.since(1) is None
    assert journal.since(2) == ({2, 3}, set())
    # nothing written at step 4: step 3 is still held when 5 is written
    journal.note(5, persons=(5,))
    assert journal.since(2) is None
    assert journal.since(3) == ({3, 5}, set())
    assert journal.since(4) == ({5}, set())
    assert journal.since(None) is None


def test_building_a_world_records_nothing():
    """The writes that build a world at step 0 count as forgotten, so the
    journal holds nothing after init_world and cannot answer for step 0."""
    config = build_config({"initial_pop": "300", "seed": "1"})
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, random.Random(1))
    assert state.persons and state.houses
    assert not (state.journal._persons or state.journal._houses)
    assert state.journal.since(0) is None
    assert state.journal.since(1) == (set(), set())


class _Calls(ast.NodeVisitor):
    """Collects the qualified function name of every `.<method>(...)` or
    `<method>(...)` call."""

    def __init__(self, method: str) -> None:
        self.method = method
        self.scope: list[str] = []
        self.found: list[str] = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node) -> None:
        if self.method in (getattr(node.func, "attr", None),
                           getattr(node.func, "id", None)):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def package_callers(method: str) -> list[tuple[str, str]]:
    """(module, function) for every `.<method>(...)` or `<method>(...)`
    call in the package."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        finder = _Calls(method)
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        callers.extend((path.stem, name) for name in finder.found)
    return callers


def test_changed_since_is_the_one_reader_of_the_journal():
    assert package_callers("since") == [("model", "WorldState.changed_since")]


def test_the_write_hook_and_the_record_adders_write_the_journal():
    """Every person write is journaled by CountedPerson.__setattr__, every
    house record write by HouseRecords and every house field write by
    JournaledHouse.__setattr__, so only add_person, which adds a person
    record, notes anything else."""
    assert sorted(package_callers("note")) == [
        ("model", "CountedPerson.__setattr__"),
        ("model", "HouseRecords._note"),
        ("model", "JournaledHouse.__setattr__"),
        ("model", "WorldState.add_person")]


def test_window_is_computed_once_per_step(monkeypatch):
    """The rosters, the freeze and the checks of a step share one
    WorldState.changed_since answer, built again only after a journal
    write: over a seed-1 hourly stretch, Journal.since runs at most once a
    step, plus once for each step that journaled anything."""
    run = Run(build_config({"initial_pop": "200", "delta_t": "hourly",
                            "t0": "2020", "t_final": "2021", "seed": "1"}))
    real, calls = Journal.since, []

    def since(journal, at):
        calls.append(at)
        return real(journal, at)

    monkeypatch.setattr(Journal, "since", since)
    steps, busy = 24 * 120, 0
    for _ in range(steps):
        outcome = run.advance()  # fail mode: no violation
        # every journal write comes with an entry in the step's outcome
        busy += any((outcome.born, outcome.died, outcome.married,
                     outcome.divorced, outcome.adults_moved))
    assert busy > 0
    assert len(calls) <= steps + busy


def test_a_quiet_step_shares_one_empty_window(monkeypatch):
    """On a quiet step of a seed-1 hourly stretch (nothing journaled at
    it or the step before, and no cohort turned), every reader of the step
    (the five rosters, the freeze, check_step's idle test, the
    empty-house count and the space checks) gets the one EMPTY_WINDOW,
    and Journal.since answers it itself, with no set built."""
    run = Run(build_config({"initial_pop": "200", "delta_t": "hourly",
                            "t0": "2020", "t_final": "2021", "seed": "1"}))
    answers, journal_answers = [], []
    real_changed, real_since = WorldState.changed_since, Journal.since

    def changed_since(self, at):
        window = real_changed(self, at)
        answers.append((sys._getframe(1).f_code.co_name, window))
        return window

    def since(journal, at):
        window = real_since(journal, at)
        journal_answers.append(window)
        return window

    monkeypatch.setattr(WorldState, "changed_since", changed_since)
    monkeypatch.setattr(Journal, "since", since)
    quiet, wrote_before = 0, True
    for _ in range(24 * 120):
        answers.clear()
        journal_answers.clear()
        outcome = run.advance()  # fail mode: no violation
        wrote = any((outcome.born, outcome.died, outcome.married,
                     outcome.divorced, outcome.adults_moved))
        if not (wrote or wrote_before or run.state.clock_turned()):
            quiet += 1
            assert [w for _, w in answers if w is not EMPTY_WINDOW] == []
            assert sorted(name for name, _ in answers) == sorted(
                ["roster"] * 5 + ["freeze", "check_step", "_empty_houses",
                                  "check_space"])
            assert journal_answers == [EMPTY_WINDOW]
            assert journal_answers[0] is EMPTY_WINDOW
        wrote_before = wrote
    assert quiet > 2500


def test_a_reader_cannot_change_the_shared_window():
    """The empty window is shared by every reader of every state, so a
    reader that tries to add to it raises instead of leaking ids into the
    next reader's window."""
    state, *_ = family_state()
    state.time.step_index = 1
    assert state.changed_since(None) is None  # starts the hook
    state.time.step_index = 3
    window = state.changed_since(2)
    assert window is EMPTY_WINDOW
    persons, houses = window
    with pytest.raises(AttributeError):
        persons.add(1)
    with pytest.raises(AttributeError):
        houses.update({1})
    with pytest.raises(TypeError):
        window[0] = {1}
    assert window == (set(), set())
    assert make_state().journal.since(1) is EMPTY_WINDOW
