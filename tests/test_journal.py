"""The change journal and its writers.

The every-step checks read what changed from the journal, so a write that
bypasses the journaled mutators goes unseen by them. The writer test walks
the package's source and fails on any write to a field those checks read,
or to the person and house records, outside the mutators that journal it.
"""
from __future__ import annotations

import ast
import random
from pathlib import Path

from conftest import add_house, add_person, add_town, make_state
from demosim.cli import build_config
from demosim.initialization import init_world
from demosim.model import (FEMALE, Journal, link_partners, mark_dead,
                           unlink_partners)
from demosim.space import create_house, leave_house, move_person

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "demosim"

# fields the every-step checks and the birth-step index read: an assignment
# to one, or a mutating call on one of the two containers, is a write
FIELDS = {"alive", "partner", "house", "ever_partners", "occupants",
          "born_step", "died_step", "gave_birth"}
# the person and house records: an item write or a mutating call adds or
# drops one
RECORDS = {"persons", "houses"}
MUTATING_CALLS = {"add", "append", "clear", "difference_update", "discard",
                  "extend", "insert", "intersection_update", "pop",
                  "popitem", "remove", "reverse", "setdefault", "sort",
                  "symmetric_difference_update", "update"}
JOURNALED = {("model", "WorldState.add_person"), ("model", "link_partners"),
             ("model", "unlink_partners"), ("model", "mark_dead"),
             ("space", "create_house"), ("space", "move_person"),
             ("space", "leave_house"),
             # journals the mother it flags
             ("events", "births"),
             # journals the person whose birth step it moves
             ("model", "Person.age_steps"),
             # the frozen copy writes its own fields of the same names
             ("predicates", "Snapshot.__init__")}
# writes no check needs journaled: ageing only clears a flag, which is never
# a fault; a birth step is written at step 0, before WorldState.born_at files
# the person
UNJOURNALED = {("events", "ageing"), ("initialization", "init_world")}


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
        elif isinstance(node, ast.Attribute) and node.attr in FIELDS:
            self._hit(node, node.attr)
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr in FIELDS | RECORDS):
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
                and func.value.attr in FIELDS | RECORDS):
            self._hit(node, func.value.attr)
        if (isinstance(func, ast.Name) and func.id in ("setattr", "delattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in FIELDS):
            self._hit(node, node.args[1].value)
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
    stray = [w for w in writes
             if (w[0], w[1]) not in JOURNALED | UNJOURNALED]
    assert stray == [], "writes outside the journaled mutators"
    # each mutator still writes, so the lists cannot outlive the code
    assert {(w[0], w[1]) for w in writes} == JOURNALED | UNJOURNALED


def test_mutators_journal_what_they_change():
    state = make_state()
    town = add_town(state)
    h0, h1 = add_house(state, town), add_house(state, town)
    man = add_person(state, age_years=30)
    wife = add_person(state, age_years=30, gender=FEMALE)
    other = add_person(state, age_years=30, gender=FEMALE)
    state.time.step_index = 1
    assert state.journal.since(1) == (set(), set())
    move_person(state, man, h0)
    assert state.journal.since(1) == ({man.id}, set())
    state.time.step_index = 2
    link_partners(state, man, wife)
    link_partners(state, man, other)  # displaces the wife
    unlink_partners(state, man)
    move_person(state, man, h1)
    leave_house(state, man)
    mark_dead(state, man)
    built = create_house(state, town, random.Random(1))
    assert state.journal.since(2) == ({man.id, wife.id, other.id},
                                      {built.id})
    assert state.journal.since(1) == ({man.id, wife.id, other.id},
                                      {built.id})


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
