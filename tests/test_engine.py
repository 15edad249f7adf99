"""Run orchestration: step counts, conservation, determinism, artifacts,
failure handling, and batch mode."""
from __future__ import annotations

import copy
import json
import os
import pickle
import random

import pytest

from conftest import demolish, marry_minor
from test_journal import package_callers
import demosim.engine as engine
from demosim.engine import (RunConfig, TimeSeries, TIMESERIES_HEADER,
                            resolve_seed, run, run_batch, state_digest,
                            violations_csv)
from demosim.events import step
from demosim.model import (AssumptionFailure, CountedPerson, HouseRecords,
                           IntegrityError, ModelParams, SimulationParams,
                           TownRecords)
from demosim.predicates import SnapshotStore
from demosim.rates import RateContext, default_model_data
from demosim.space import DensityMap
from demosim import verification
from demosim.cli import build_config
from demosim.verification import Violation


def config(pop=200, seed=7, t_final=2021, delta_t="daily",
           **kwargs) -> RunConfig:
    return RunConfig(sim=SimulationParams(t0=2020, t_final=t_final,
                                          delta_t=delta_t, seed=seed),
                     model=ModelParams(initial_pop=pop),
                     data=default_model_data(),
                     density=DensityMap.default(), **kwargs)


def test_resolve_seed():
    assert resolve_seed(42) == 42
    assert resolve_seed("17") == 17
    a, b = resolve_seed("random"), resolve_seed("random")
    assert isinstance(a, int) and isinstance(b, int)
    assert a != b  # 64-bit entropy; collision would be astronomical


def test_run_step_count_exact():
    result = run(config())
    assert result.summary["steps_planned"] == 365
    assert result.summary["steps_completed"] == 365
    assert len(result.timeseries.rows) == 366  # initial row included
    assert result.timeseries.rows[0][0] == 0
    assert result.timeseries.rows[-1][0] == 365
    assert result.state.time.step_index == 365


def test_run_zero_population():
    result = run(config(pop=0))
    assert all(row[2] == 0 for row in result.timeseries.rows)
    assert result.summary["totals"] == \
        {"births": 0, "deaths": 0, "marriages": 0, "divorces": 0,
         "violations": 0}


def test_run_conservation_every_step():
    result = run(config(pop=300, seed=3))
    rows = result.timeseries.rows
    for prev, cur in zip(rows, rows[1:]):
        alive_prev, alive_cur = prev[2], cur[2]
        births, deaths = cur[5], cur[6]
        assert alive_cur - alive_prev == births - deaths
    # house count never decreases
    for prev, cur in zip(rows, rows[1:]):
        assert cur[10] >= prev[10]


def test_run_determinism_digest():
    a = run(config(seed=21))
    b = run(config(seed=21))
    c = run(config(seed=22))
    assert a.digest == b.digest
    assert a.digest != c.digest
    assert a.timeseries.rows == b.timeseries.rows


def test_digest_sensitivity():
    result = run(config(pop=50, seed=1))
    state = result.state
    before = state_digest(state)
    assert state_digest(state) == before  # stable
    next(iter(state.persons.values())).age_steps += 1
    assert state_digest(state) != before


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "arts"
    result = run(config(pop=100, seed=2, out_dir=str(out)))
    names = sorted(os.listdir(out))
    assert names == ["summary.json", "timeseries.csv", "violations.csv"]
    text = (out / "timeseries.csv").read_text()
    assert text.splitlines()[0] == ",".join(TIMESERIES_HEADER)
    assert len(text.splitlines()) == 367  # header + 366 rows
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 2
    assert summary["final_digest"] == result.digest
    assert summary["aborted_on_violation"] is False
    assert "generated_at" in summary
    assert summary["init"]["persons_total"] == result.init_report.persons_total
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


def test_fail_mode_aborts_and_writes_partial(tmp_path, monkeypatch):
    planted = Violation("a_homeless", 0, (1,), "planted for the abort test")
    monkeypatch.setattr(engine, "check_initial",
                        lambda state, registry: [planted])
    out = tmp_path / "failed"
    with pytest.raises(AssumptionFailure):
        run(config(pop=50, seed=4, out_dir=str(out), verification_mode="fail"))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted_on_violation"] is True
    assert summary["steps_completed"] == 0
    vio = (out / "violations.csv").read_text().splitlines()
    assert vio[0] == "step,label,ids,detail"
    assert vio[1].startswith("0,a_homeless,1,")


def test_warn_mode_continues(monkeypatch):
    planted = Violation("a_homeless", 0, (1,), "planted for the warn test")
    monkeypatch.setattr(engine, "check_initial",
                        lambda state, registry: [planted])
    result = run(config(pop=50, seed=4, verification_mode="warn"))
    assert result.summary["steps_completed"] == 365
    assert result.violations == [planted]
    assert result.timeseries.rows[0][-1] == 1  # violation count in row 0


def test_invalid_verification_mode():
    with pytest.raises(ValueError):
        config(verification_mode="strict")


def test_run_batch_seeds_and_isolation(tmp_path):
    out = str(tmp_path / "batch")
    results = run_batch(config(pop=80, seed=100, out_dir=out),
                        replicates=3, base_seed=100)
    assert [r.seed for r in results] == [100, 101, 102]
    assert len({r.digest for r in results}) == 3
    assert sorted(os.listdir(out)) == \
        ["replicate_000", "replicate_001", "replicate_002"]
    # replicate 0 must match a plain run with the same seed
    solo = run(config(pop=80, seed=100))
    assert solo.digest == results[0].digest


@pytest.mark.parametrize("copy_state", [
    copy.deepcopy, lambda state: pickle.loads(pickle.dumps(state))],
    ids=["deepcopy", "pickle"])
def test_run_state_copies_with_its_hooks(copy_state):
    """A run's state copies and round-trips through pickle: same digest,
    and a write to the copy lands in the copy's journal, not the
    original's. After a step on each, the copy's readers have found what
    it kept under the same keys as the original's: its kept data is the
    same size, with no key of the copy's own."""
    cfg = config(pop=300, seed=1, t_final=2022, delta_t="monthly")
    state = run(cfg).state
    twin = copy_state(state)
    assert state_digest(twin) == state_digest(state)
    person = next(p for p in twin.persons.values() if p.alive)
    assert type(person) is CountedPerson and type(twin.houses) is HouseRecords
    assert type(twin.towns) is TownRecords
    assert person.time is twin.time is twin.houses.time
    assert person.journal is twin.journal is twin.houses.journal
    assert twin.towns.journal is twin.journal
    assert all(t.journal is twin.journal for t in twin.towns.values())
    writes = state.journal.writes
    twin.time.step_index += 1
    now = twin.time.step_index
    person.gave_birth = True
    house = twin.houses.pop(person.house)
    assert twin.journal.since(now) == ({person.id, *house.occupants},
                                       {house.id})
    assert state.journal.writes == writes
    assert state.time.step_index == now - 1
    twin = copy_state(state)
    ctx = RateContext(cfg.model, cfg.data, cfg.sim.steps_per_year)
    for stepped in (state, twin):
        snaps = SnapshotStore()
        snaps.freeze(stepped)
        step(stepped, ctx, snaps, random.Random(1))
    assert len(twin.kept) == len(state.kept)
    assert all(key in state.kept for key in twin.kept
               if not isinstance(key, str))


def test_run_batch_rejects_zero():
    with pytest.raises(ValueError):
        run_batch(config(), replicates=0, base_seed=1)


def test_violations_csv_format():
    text = violations_csv([Violation("a_homeless", 3, (7, 9), "two ids")])
    assert text.splitlines() == ["step,label,ids,detail",
                                 "3,a_homeless,7;9,two ids"]


def test_timeseries_rows_cross_check():
    result = run(config(pop=250, seed=12))
    totals = result.summary["totals"]
    rows = result.timeseries.rows
    assert totals["births"] == sum(r[5] for r in rows)
    assert totals["deaths"] == sum(r[6] for r in rows)
    assert totals["marriages"] == sum(r[7] for r in rows)
    assert totals["divorces"] == sum(r[8] for r in rows)
    assert all(r[2] == r[3] + r[4] for r in rows)  # alive = males + females


def test_homeless_persons_do_not_stop_warn_mode(monkeypatch):
    """Every other occupied house is removed after the first step, so half
    the population lives on without a house: a warn-mode run keeps stepping
    (no mover, marriage weight or neonate placement looks the missing house
    up) and flags a_homeless on every step from then on."""
    real_step = engine.step

    def demolishing(state, *args):
        outcome = real_step(state, *args)
        if state.time.step_index == 1:
            demolish(state)
        return outcome

    monkeypatch.setattr(engine, "step", demolishing)
    result = run(config(pop=300, seed=3, verification_mode="warn"))
    assert result.summary["steps_completed"] == 365
    flagged = {v.step_index for v in result.violations
               if v.label == "a_homeless"}
    assert flagged == set(range(1, 366))


def test_married_minor_does_not_stop_warn_mode(monkeypatch):
    """A single adult man is linked to a girl of 9 to 15 years after the
    events of step 2, a partnership no event makes. The girl is never a
    reproducible woman, so births does not look her age up in the
    fertility table; the warn-mode run completes and a_p_marriage_age flags
    her on every step from step 2 on."""
    real_step = engine.step
    minors = []

    def marrying(state, *args):
        outcome = real_step(state, *args)
        if state.time.step_index == 2:
            minors.append(marry_minor(state))
        return outcome

    monkeypatch.setattr(engine, "step", marrying)
    result = run(config(pop=300, seed=1, t_final=2022, delta_t="monthly",
                        verification_mode="warn"))
    assert result.summary["steps_completed"] == 24
    flagged = [v for v in result.violations
               if v.label == "a_p_marriage_age"]
    assert [v.step_index for v in flagged] == list(range(2, 25))
    assert {v.ids for v in flagged} == {tuple(minors)}


@pytest.mark.parametrize("mode", ["warn", "fail"])
def test_conservation_check_fires(monkeypatch, mode):
    """A person who dies without the death being recorded breaks the alive
    count's balance with births - deaths; run() raises IntegrityError in
    either verification mode, before a fail-mode abort on the violations
    the stray death also causes."""
    real_step = engine.step

    def lose_one(state, *args):
        outcome = real_step(state, *args)
        if state.time.step_index == 3:
            next(p for p in state.persons.values() if p.alive).alive = False
        return outcome

    monkeypatch.setattr(engine, "step", lose_one)
    with pytest.raises(IntegrityError, match="step 3: alive delta"):
        run(config(pop=100, seed=5, verification_mode=mode))


def test_one_run_loop():
    """Run.advance is the package's one caller of events.step, and
    Run.__init__ its one maker of a SnapshotStore: no second copy of the
    run loop grows in the package."""
    assert package_callers("step") == [("engine", "Run.advance")]
    assert package_callers("SnapshotStore") == [("engine", "Run.__init__")]


def test_run_checks_the_space_without_a_digest(monkeypatch):
    """Run.advance reads the space checks from the journal: a seed-1
    hourly_year run steps 200 steps with the whole-space digest and its
    comparison made to raise."""
    def refuse(*args):
        raise AssertionError("the space digest is built")

    monkeypatch.setattr(verification.SpaceDigest, "of", refuse)
    monkeypatch.setattr(verification, "space_changes", refuse)
    monkeypatch.setattr(engine, "space_changes", refuse, raising=False)
    r = engine.Run(build_config({"initial_pop": "200", "delta_t": "hourly",
                                 "t0": "2020", "t_final": "2021",
                                 "seed": "1"}))
    for _ in range(200):
        r.advance()  # fail mode: no violation
    assert r.state.time.step_index == 200
