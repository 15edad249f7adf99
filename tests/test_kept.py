"""What the hard every-step checks keep on the state they read.

Each hard check keeps the step it last read a state at, and what it
flagged there, in WorldState.kept under its label; check_step keeps there
the step and registry of its last call that ran them. So any registry reads
a state from where the last check of it left off: a fresh registry on a
state checked at the previous step hands its rules only the change
window, and a reader that checks only every so many steps runs no check
when the window reaches back over a quiet run to its last call. A check
with no position that a window reaches back to sweeps everyone on record,
after a gap that was not quiet or when it has never read the state, and
flags what no journal shows. What is kept stays bounded
however many registries read the state, and nothing is kept in a module
global.
"""
from __future__ import annotations

import ast
import copy
import pickle
import random
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
from conftest import family_state
from test_differential import SeededRun, every_step_entries, one_at_a_time
from demosim import engine, verification
from demosim.cli import build_config
from demosim.engine import Run, TimeSeries
from demosim.events import DEFAULT_EVENT_ORDER, step
from demosim.initialization import init_world
from demosim.model import EMPTY_WINDOW, WorldState
from demosim.predicates import SnapshotStore
from demosim.rates import RateContext
from demosim.verification import Assumption, build_registry, check_step

# hard check -> the rule or step-change body it hands its persons to, and
# the position of the persons among that callable's arguments
HANDED_TO = {
    "a_s_house_xy_bounds": ("house_xy_faults", 1),
    "a_p_marriage_age": ("partnership_faults", 1),
    "a_p_married_gives_birth": ("_married_gives_birth", 2),
    "a_p_no_adoption": ("_no_adoption", 2),
    "a_homeless": ("residence_faults", 1),
    "a_housing_kinship": ("_kinship_faults", 1),
    "a_adult_moves_out": ("_adult_moves_out", 2),
    "a_dead_no_house": ("dead_residence_faults", 1),
    "a_divorce_male_moves": ("_divorce_male_moves", 2),
}
HARD = [*HANDED_TO, "a_marriage_housing"]


def handed(monkeypatch) -> defaultdict:
    """Make the registries built from now on record, under each hard
    check's label, the ids of the persons it hands its rule or body at
    each call."""
    assert sorted(HARD) == sorted(a.label for a in build_registry()
                                  if a.scope == "every_step"
                                  and a.kind == "hard")
    seen = defaultdict(list)

    def wrap(label, real, at):
        def recorded(*args):
            args = list(args)
            args[at] = list(args[at])
            seen[label].append([p.id for p in args[at]])
            return real(*args)
        return recorded

    for label, (name, at) in HANDED_TO.items():
        monkeypatch.setattr(verification, name,
                            wrap(label, getattr(verification, name), at))
    factory = verification._marriage_housing
    monkeypatch.setattr(verification, "_marriage_housing", lambda order: wrap(
        "a_marriage_housing", factory(order), 2))
    return seen


def counted(a: Assumption, ran: list) -> Assumption:
    """A hard every-step check that adds its label to `ran` at each call;
    any other entry as it is."""
    if a.scope != "every_step" or a.kind != "hard":
        return a

    def check(state, snaps):
        ran.append(a.label)
        return a.check(state, snaps)
    return replace(a, check=check)


def test_fresh_registry_reads_the_window(monkeypatch):
    """On a state checked at the previous step, a registry built fresh
    hands a_homeless's rule only the persons in the change window, not
    everyone on record, and returns the oracle's list."""
    run = SeededRun(1, DEFAULT_EVENT_ORDER)
    run.advance()
    check_step(run.state, run.snaps)
    seen = handed(monkeypatch)
    read = 0
    for _ in range(60):
        run.advance()
        state = run.state
        window = state.changed_since(state.time.step_index - 1)
        seen.clear()
        expected = oracle.check_step(state, run.snaps, DEFAULT_EVENT_ORDER)
        assert check_step(state, run.snaps, build_registry()) == expected
        if seen:  # not an idle step
            assert seen["a_homeless"] == [sorted(window[0])]
            assert len(window[0]) < len(state.persons)
            read += 1
    assert read > 30


def test_checks_sweep_after_a_gap(monkeypatch):
    """Two steps go unchecked, and inside them an id is added to a house's
    occupant set with no move, which no journal entry shows. No window
    reaches back to the checks' positions, so each sweeps everyone on
    record, and they flag the stale occupant as the oracle does."""
    seen = handed(monkeypatch)
    run = SeededRun(2, DEFAULT_EVENT_ORDER)
    registry = build_registry()
    for _ in range(10):
        run.advance()
        assert check_step(run.state, run.snaps, registry) == \
            oracle.check_step(run.state, run.snaps, DEFAULT_EVENT_ORDER)
    run.advance()
    state = run.state
    stray = next(p for p in state.persons.values()
                 if p.alive and p.age_steps < 12 * state.time.steps_per_year)
    house = next(h for h in state.houses.values()
                 if h.occupants and h.id != stray.house)
    house.occupants.add(stray.id)
    run.advance()
    seen.clear()
    expected = oracle.check_step(state, run.snaps, DEFAULT_EVENT_ORDER)
    assert any(v.label == "a_dead_no_house" and v.ids == (stray.id,)
               for v in expected)
    assert check_step(state, run.snaps, registry) == expected
    assert seen == {label: [sorted(state.persons)] for label in HARD}


def test_check_without_a_position_sweeps_after_a_quiet_call(monkeypatch):
    """check_step's last call, with a registry of only some hard checks,
    was quiet at the previous step, and nothing was journaled since. A
    registry with every hard check still runs the others, which have no
    position on the state, as sweeps: they flag an occupant added with no
    move, as the oracle does, while the checks with a position read the
    empty window."""
    seen = handed(monkeypatch)
    state, _, (_, h1), (_, _, kid, _) = family_state()
    snaps = SnapshotStore()
    snaps.freeze(state)
    full = build_registry()
    sweeping = {"a_dead_no_house", "a_housing_kinship"}
    subset = tuple(a for a in full if a.label not in sweeping)
    for now in (1, 2):
        state.time.step_index = now
        snaps.freeze(state)
        assert check_step(state, snaps, subset) == []
    h1.occupants.add(kid.id)  # kid lives in h0; no journal entry
    state.time.step_index = 3
    snaps.freeze(state)
    seen.clear()
    expected = oracle.check_step(state, snaps, DEFAULT_EVENT_ORDER)
    assert {v.label for v in expected} == sweeping
    assert state.changed_since(3) == (set(), set())
    assert check_step(state, snaps, full) == expected
    assert seen == {label: [sorted(state.persons) if label in sweeping
                            else []] for label in HARD}


def test_sparse_reader_reads_the_quiet_run(monkeypatch):
    """check_step with a kept registry at every 24th step of a seed-1
    hourly_year run, stepped by hand: each result is the oracle's, and no
    check runs on most calls, since nothing was journaled and no cohort
    turned since the last call that ran the checks."""
    seen = handed(monkeypatch)
    config = build_config({**IDLE_RUNS["hourly_year"][0], "seed": "1"})
    rng = random.Random(1)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    registry = build_registry()
    calls = idle = 0
    for i in range(1, 8761):
        step(state, ctx, snaps, rng)
        if i % 24:
            continue
        seen.clear()
        assert check_step(state, snaps, registry) == oracle.check_step(
            state, snaps, DEFAULT_EVENT_ORDER)
        calls += 1
        idle += not seen
    assert calls == 365 and idle >= 300, idle


def test_another_registry_runs_its_hard_checks_on_an_idle_step():
    """On a step where check_step with a kept registry runs no check, a
    registry with one hard check fewer, one more, or the kept one after
    another ran, still runs each of its hard checks: the idle test holds
    only for the registry of the last call that ran them. Each result is
    the oracle's."""
    config = build_config({**IDLE_RUNS["hourly_year"][0], "seed": "1"})
    rng = random.Random(1)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    ran = []
    full = tuple(counted(a, ran) for a in build_registry())
    fewer = tuple(a for a in full if a.label != "a_homeless")
    more = (*full, counted(Assumption("a_extra", "every_step",
                                      lambda state, snaps: []), ran))
    idle = 0
    for _ in range(200):
        step(state, ctx, snaps, rng)
        ran.clear()
        expected = oracle.check_step(state, snaps, DEFAULT_EVENT_ORDER)
        assert check_step(state, snaps, full) == expected
        if ran:
            continue
        idle += 1
        for registry, runs in ((fewer, sorted(set(HARD) - {"a_homeless"})),
                               (full, HARD), (full, []),
                               (more, [*HARD, "a_extra"]), (full, HARD)):
            ran.clear()
            assert check_step(state, snaps, registry) == expected
            assert sorted(ran) == sorted(runs)
    assert idle > 150


@pytest.mark.parametrize("name", ["daily_decade", "hourly_year"])
def test_rosters_read_the_window_after_the_first_step(monkeypatch, name):
    """Stepped by Run, the six rosters (five of persons, one of the empty
    houses) never read everyone after step 1: a roster that returned its
    list on the empty window, and so kept the step it read before, reads
    the window at the next step, even after a write later in the step it
    returned at."""
    run = Run(build_config({**IDLE_RUNS[name][0], "seed": "1"}))
    real, swept = WorldState.changed_since, []

    def changed_since(self, at):
        window = real(self, at)
        if window is None and sys._getframe(1).f_code.co_name == "roster":
            swept.append(self.time.step_index)
        return window

    monkeypatch.setattr(WorldState, "changed_since", changed_since)
    for _ in range(1000):
        run.advance()  # fail mode: no violation
    assert swept == [1] * 6


@pytest.mark.parametrize("copied", [
    copy.deepcopy, lambda run: pickle.loads(pickle.dumps(run))],
    ids=["deepcopy", "pickle"])
def test_a_copy_taken_on_an_idle_step_stays_idle(copied):
    """A Run copied on an idle step of seed-1 hourly_year holds the shared
    EMPTY_WINDOW, not an empty window of its own, and its own registry as
    the kept one, so check_step with that registry runs no check on the
    copy, as on the original: the step each hard check keeps in
    state.kept does not move."""
    run = Run(build_config({**IDLE_RUNS["hourly_year"][0], "seed": "1"}))
    for _ in range(40):
        run.advance()
    for r in (run, copied(run)):
        kept = {label: r.state.kept[label][0] for label in HARD}
        assert max(kept.values()) < 40
        assert check_step(r.state, r.snaps, r.registry) == []
        assert {label: r.state.kept[label][0] for label in HARD} == kept
        assert r.state.changed_since(40) is EMPTY_WINDOW


def test_kept_stays_bounded():
    """Over two monthly years, with a fresh registry per check_step call,
    a third registry's entries called one at a time and a time series
    appended, every reader keeps one entry under its own key: the size
    of state.kept is the same at every step after the second."""
    config = build_config({"initial_pop": "300", "delta_t": "monthly",
                           "t0": "2020", "t_final": "2022", "seed": "3"})
    rng = random.Random(3)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = RateContext(config.model, config.data, config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    entries = every_step_entries(build_registry())
    series, sizes = TimeSeries(), []
    for i in range(1, 25):
        outcome = step(state, ctx, snaps, rng)
        expected = oracle.check_step(state, snaps, DEFAULT_EVENT_ORDER)
        assert check_step(state, snaps, build_registry()) == expected
        assert one_at_a_time(entries, state, snaps) == expected
        series.append(state, i, outcome.births, outcome.deaths,
                      outcome.marriages, outcome.divorces, 0)
        sizes.append(len(state.kept))
    assert len(set(sizes[2:])) == 1, sizes


# workload -> (its config, seed-1 run() digest, the steps on which
# check_step runs no check)
IDLE_RUNS = {
    "daily_decade": ({"initial_pop": "1000", "delta_t": "daily",
                      "t0": "2020", "t_final": "2030"},
                     "ea7df508137a01ac", 2936),
    "hourly_year": ({"initial_pop": "200", "delta_t": "hourly",
                     "t0": "2020", "t_final": "2021"},
                    "acefb3532066fcad", 8739),
}


@pytest.mark.parametrize("name", sorted(IDLE_RUNS))
def test_idle_step_counts(monkeypatch, name):
    """The steps of a seed-1 run() of the benchmark's workloads on which
    check_step runs no check: pinned like the digests, so a change that
    moves them says so."""
    params, digest, idle_steps = IDLE_RUNS[name]
    ran, build = [], engine.build_registry
    monkeypatch.setattr(engine, "build_registry", lambda order: tuple(
        counted(a, ran) for a in build(order)))
    calls = []

    def check_step_counted(state, snaps, registry):
        before = len(ran)
        out = check_step(state, snaps, registry)
        calls.append(len(ran) == before)
        return out

    monkeypatch.setattr(engine, "check_step", check_step_counted)
    result = engine.run(build_config({**params, "seed": "1"}))
    assert result.digest == digest
    assert (sum(calls), len(calls)) == (idle_steps, result.summary[
        "steps_planned"])


def test_the_package_keeps_nothing_in_a_module_global():
    """No function in the package rebinds a module global: what a reader
    carries from step to step is kept on the state it reads, which a copy
    or a pickle carries along."""
    package = Path(__file__).resolve().parent.parent / "src" / "demosim"
    found = [(path.name, node.lineno) for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []


def test_only_the_stepping_modules_read_the_change_window():
    """engine.py and cli.py call no changed_since, touch no `kept` and
    name no EMPTY_WINDOW: reading the change window, and keeping what a
    reader carries from it, stays in model, events, verification and
    predicates, and the time series reads the empty houses as a roster."""
    package = Path(__file__).resolve().parent.parent / "src" / "demosim"
    found = []
    for name in ("engine.py", "cli.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        found += [(name, node.lineno) for node in ast.walk(tree)
                  if getattr(node, "attr", None) in ("changed_since", "kept")
                  or "EMPTY_WINDOW" in (getattr(node, "id", None),
                                        getattr(node, "name", None))]
    assert found == []


def _package_trees() -> dict[str, ast.Module]:
    package = Path(__file__).resolve().parent.parent / "src" / "demosim"
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def test_age_thresholds_are_named_only_on_the_clock():
    """ADULT_YEARS and MOTHER_AGE_LIMIT_YEARS are named in model.py, which
    states them as SimTime's clock values, in rates.py's fertility-coverage
    check and in the package's exports alone: every other module reads the
    clock."""
    thresholds = {"ADULT_YEARS", "MOTHER_AGE_LIMIT_YEARS"}
    found = sorted({name for name, tree in _package_trees().items()
                    for node in ast.walk(tree)
                    if {getattr(node, "id", None), getattr(node, "attr", None),
                        getattr(node, "name", None)} & thresholds})
    assert found == ["__init__.py", "model.py", "rates.py"]


def test_roster_keys_are_module_functions():
    """Every roster read in the package is keyed by a bare name of a
    function defined at its module's top level, which pickle and deepcopy
    keep as itself; a lambda, partial or instance would leave its roster
    behind under a key a copy no longer uses."""
    calls, bad = 0, []
    for name, tree in _package_trees().items():
        top = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "roster"):
                calls += 1
                key = node.args[0] if node.args else None
                if not (isinstance(key, ast.Name) and key.id in top):
                    bad.append((name, node.lineno))
    assert bad == []
    assert calls == 6  # the five event rosters and the empty houses
