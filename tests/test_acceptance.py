"""Acceptance suite: end-to-end checks of the package's numbered release
criteria. Run `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. Statistical checks run on fixed seeds that were verified in
advance; tolerances are 3-sigma bands of the relevant estimator.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import time

import numpy as np
import pytest

from demosim.engine import RunConfig, TIMESERIES_HEADER, run
from demosim.events import age_factor, children_factor, geo_factor, step
from demosim.initialization import draw_gender, init_world, sample_age
from demosim.model import (FEMALE, MALE, MissingSnapshotError, ModelParams,
                           SimTime, SimulationParams, WorldState,
                           link_partners, unlink_partners)
from demosim.predicates import SnapshotStore, just, pre
from demosim.rates import RateContext, default_model_data, instantaneous
from demosim.space import (DensityMap, House, Town, leave_house, move_person)

SEED = 20260821
P_GRID = (0.01, 0.05, 0.2)
N_GRID = (12, 52, 365)


# --- criterion 1: yearly-probability round trip ---------------------------

def test_c01_round_trip_identity():
    """Compounding round trip: 1 - (1 - p_inst)^n must rebuild p_yearly to
    1e-12 relative. The hazard-form conversion used here satisfies
    1 - exp(-n * p_inst) = p exactly instead; this compounding form deviates
    by up to ~8.4e-3 relative on this grid, so the strict bound fails.
    Kept at the stated tolerance on purpose; see README for the analysis."""
    worst = 0.0
    for p in P_GRID:
        for n in N_GRID:
            p_inst = instantaneous(p, n)
            back = 1.0 - (1.0 - p_inst) ** n
            worst = max(worst, abs(back - p) / p)
    print(f"[C1 identity] worst relative error {worst:.3e} (bound 1e-12)")
    assert worst <= 1e-12


def test_c01_round_trip_monte_carlo():
    """1e5 independent n-step Bernoulli(p_inst) chains per grid cell: the
    fraction that fire within the year reproduces p_yearly within 3 sigma
    of the binomial estimator."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    chains = 100_000
    for p in P_GRID:
        for n in N_GRID:
            p_inst = instantaneous(p, n)
            alive = np.ones(chains, dtype=bool)
            for _ in range(n):
                alive &= rng.random(chains) >= p_inst
            frac = 1.0 - float(alive.mean())
            sigma = math.sqrt(p * (1.0 - p) / chains)
            assert abs(frac - p) <= 3.0 * sigma, \
                f"p={p} n={n}: observed {frac}, want {p} +- {3 * sigma}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[C1 monte carlo] 9 cells within 3 sigma in {elapsed:.2f}s PASS")


# --- criterion 2: death-rate reference values ------------------------------

def test_c02_death_rate_reference_values():
    """Yearly death rates at age 70 under default parameters, checked against
    an independently written arithmetic oracle and the frozen reference
    values male 0.031267 and female 0.017481 (each to 1e-6)."""
    from demosim.rates import death_rate_yearly_at
    params = ModelParams()
    oracle_male = 0.0001 + 0.00021 * math.exp(70.0 / 14.0)
    oracle_female = 0.0001 + 0.00019 * math.exp(70.0 / 15.5)
    assert abs(oracle_male - 0.031267) <= 1e-6
    assert abs(oracle_female - 0.017481) <= 1e-6
    got_male = death_rate_yearly_at(70.0, MALE, params)
    got_female = death_rate_yearly_at(70.0, FEMALE, params)
    assert math.isclose(got_male, oracle_male, rel_tol=1e-12)
    assert math.isclose(got_female, oracle_female, rel_tol=1e-12)
    assert abs(got_male - 0.031267) <= 1e-6
    assert abs(got_female - 0.017481) <= 1e-6
    print(f"[C2] male70={got_male:.9f} female70={got_female:.9f} PASS")


# --- criterion 3: initial spatial distribution -----------------------------

def test_c03_initial_town_counts_exact():
    """initial_pop=10000 with the default density map: per-town creation
    counts equal ceil(10000 * density / 48) exactly, 48 towns in the world,
    and the created total is the sum of the targets."""
    density = DensityMap.default()
    cells = [v for row in density.rows for v in row if v > 0]
    assert len(cells) == 48
    expected = {tid: math.ceil(10000 * v / 48) for tid, v in enumerate(cells)}
    params = ModelParams(initial_pop=10000)
    sim = SimulationParams(seed=7)
    state, report = init_world(params, sim, default_model_data(), density,
                               random.Random(7))
    assert len(state.towns) == 48
    assert report.per_town == expected
    assert report.persons_total == sum(expected.values()) == len(state.persons)
    print(f"[C3] 48 towns, per-town counts exact, "
          f"total={report.persons_total} PASS")


# --- criterion 4: initial-population statistics ----------------------------

def test_c04_initial_population_statistics():
    """1e6 draws: male fraction within 0.5 +- 0.0015 (3 sigma) and mean age
    within 19.95 +- 0.1 years (half-normal sigma=25 oracle)."""
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    n = 1_000_000
    males = sum(1 for _ in range(n) if draw_gender(rng) == MALE)
    total_steps = sum(sample_age(rng, 365) for _ in range(n))
    frac = males / n
    mean_years = total_steps / n / 365
    assert abs(frac - 0.5) <= 0.0015
    assert abs(mean_years - 19.95) <= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[C4] male={frac:.6f} mean_age={mean_years:.4f}y "
          f"in {elapsed:.1f}s PASS")


# --- criteria 5 and 9: decade run, shared ----------------------------------

@pytest.fixture(scope="session")
def decade_run():
    cfg = RunConfig(
        sim=SimulationParams(t0=2020, t_final=2030, delta_t="daily",
                             seed=424242),
        model=ModelParams(initial_pop=1000),
        data=default_model_data(),
        density=DensityMap.default(),
        verification_mode="fail",
    )
    t0 = time.perf_counter()
    result = run(cfg)
    return result, time.perf_counter() - t0


def test_c05_decade_run_zero_violations(decade_run):
    """initial_pop=1000, daily steps, 2020 to 2030 in fail mode: all 3650
    steps complete with zero violations across the assumption registry.
    The final digest and the timeseries.csv sha256 are pinned too: the only
    golden trajectory at daily scale."""
    result, elapsed = decade_run
    assert result.summary["steps_completed"] == 3650
    assert result.summary["aborted_on_violation"] is False
    assert result.violations == []
    assert result.digest == "4c0c4adce606794a"
    assert hashlib.sha256(result.timeseries.to_csv().encode()).hexdigest() \
        == "e88166ae2a8ab158e4918bbb434e837a77e889dfcdde5bda2ef654a7a6cc6cb1"
    assert elapsed < 120.0
    print(f"[C5] 3650 steps, 0 violations, "
          f"alive={result.summary['final_alive']}, {elapsed:.1f}s PASS")


# --- criterion 6: temporal operators vs brute force ------------------------

def _observe(state):
    """Direct per-person attribute readout, kept as this test's own history
    (the oracle side; the operators only ever see the two-deep store)."""
    obs = {}
    for pid, p in state.persons.items():
        if p.house is not None:
            h = state.houses[p.house]
            house, town, location = h.id, h.town, h.local_xy
        else:
            house = town = location = None
        obs[pid] = {"alive": p.alive, "married": p.partner is not None,
                    "partner": p.partner, "house": house, "town": town,
                    "location": location, "age_steps": p.age_steps,
                    "gave_birth": p.gave_birth}
    return obs


def _oracle_just(now, prev, attr, negated):
    def sat(entry):
        v = entry[attr]
        return not v if negated else bool(v)
    return {pid for pid, e in now.items() if sat(e)} \
        - {pid for pid, e in prev.items() if sat(e)}


def _random_mini_world(rng):
    spy = 12
    state = WorldState(time=SimTime(step_index=0, t0_year=2020,
                                    steps_per_year=spy))
    for tid in range(rng.randint(1, 2)):
        state.towns[tid] = Town(id=tid, grid_xy=(1, tid + 1), density=1.0)
    for hid in range(rng.randint(3, 6)):
        tid = rng.randrange(len(state.towns))
        house = House(id=hid, town=tid,
                      local_xy=(rng.randint(1, 25), rng.randint(1, 25)))
        state.houses[hid] = house
        state.towns[tid].houses.add(hid)
    for _ in range(rng.randint(1, 30)):
        gender = rng.choice((MALE, FEMALE))
        age = rng.randrange(60 * spy)
        p = state.add_person(gender=gender, age_steps=age,
                             born_step=-age)
        if rng.random() < 0.8:
            move_person(state, p, state.houses[rng.randrange(len(state.houses))])
    singles_m = [p for p in state.persons.values()
                 if p.gender == MALE and p.age_steps >= 18 * spy]
    singles_f = [p for p in state.persons.values()
                 if p.gender == FEMALE and p.age_steps >= 18 * spy]
    for m, f in zip(singles_m, singles_f):
        if rng.random() < 0.5:
            link_partners(state, m, f)
    return state


def _mutate_mini_world(state, rng):
    spy = state.time.steps_per_year
    for p in list(state.persons.values()):
        p.gave_birth = False
    for p in list(state.persons.values()):
        if p.alive and rng.random() < 0.08:
            unlink_partners(state, p)
            leave_house(state, p)
            p.alive = False
    for p in list(state.persons.values()):
        if p.alive and p.gender == MALE and p.partner is not None \
                and rng.random() < 0.1:
            unlink_partners(state, p)
    adults_m = [p for p in state.persons.values() if p.alive
                and p.gender == MALE and p.partner is None
                and p.age_steps >= 18 * spy]
    adults_f = [p for p in state.persons.values() if p.alive
                and p.gender == FEMALE and p.partner is None
                and p.age_steps >= 18 * spy]
    rng.shuffle(adults_m)
    rng.shuffle(adults_f)
    for m, f in list(zip(adults_m, adults_f))[:2]:
        if rng.random() < 0.6:
            link_partners(state, m, f)
    for p in list(state.persons.values()):
        if p.alive and p.gender == FEMALE and p.partner is not None \
                and rng.random() < 0.15 and len(state.persons) < 50:
            baby = state.add_person(gender=rng.choice((MALE, FEMALE)),
                                    age_steps=0,
                                    born_step=state.time.step_index)
            if p.house is not None:
                move_person(state, baby, state.houses[p.house])
            p.gave_birth = True
    for p in list(state.persons.values()):
        if p.alive and rng.random() < 0.05:
            move_person(state, p,
                        state.houses[rng.randrange(len(state.houses))])


def test_c06_temporal_operators_match_brute_force():
    """500 randomized mini-populations (at most 50 persons, at most 20
    steps): just() for alive/married/gave_birth (plain and negated) equals
    the brute-force set difference over this test's own full history, and
    pre() equals the recorded previous-step value for every person and
    attribute. Exact agreement required in all cases."""
    pre_attrs = ("alive", "married", "partner", "house", "town", "location",
                 "age_steps", "gave_birth")
    checked_just = checked_pre = 0
    for case in range(500):
        rng = random.Random(10_000 + case)
        state = _random_mini_world(rng)
        snaps = SnapshotStore()
        snaps.freeze(state)
        history = [_observe(state)]
        for _ in range(rng.randint(1, 20)):
            # persons hold the clock, so it advances in place; ages follow
            state.time.step_index += 1
            _mutate_mini_world(state, rng)
            snaps.freeze(state)
            history.append(_observe(state))
            now, prev = history[-1], history[-2]
            for attr in ("alive", "married", "gave_birth"):
                for negated in (False, True):
                    got = tuple(just(attr, state, snaps, negated=negated))
                    want = tuple(sorted(_oracle_just(now, prev, attr,
                                                     negated)))
                    assert got == want, (case, attr, negated, got, want)
                    checked_just += 1
            for pid in now:
                if pid not in prev:
                    with pytest.raises(MissingSnapshotError):
                        pre("alive", pid, snaps, state)
                    continue
                for attr in pre_attrs:
                    got = pre(attr, pid, snaps, state)
                    assert got == prev[pid][attr], (case, pid, attr)
                    checked_pre += 1
        assert len(state.persons) <= 50
    print(f"[C6] 500 cases, {checked_just} just() and {checked_pre} pre() "
          f"comparisons, all exact PASS")


# --- criterion 7: marriage-weight reference values --------------------------

def test_c07_marriage_weight_reference_values():
    """Weight factors against frozen oracle values, 1e-12 relative:
    geo at grid distance 1 = e^-4, children(1,1) = e^-1, children(2,3) = e^1,
    age diff +10 = 1/6, age diff -3 = 1/2."""
    state = WorldState(time=SimTime(step_index=0, t0_year=2020,
                                    steps_per_year=365))
    state.towns[0] = Town(id=0, grid_xy=(1, 1), density=1.0)
    state.towns[1] = Town(id=1, grid_xy=(1, 2), density=1.0)
    for hid, tid in ((0, 0), (1, 1)):
        state.houses[hid] = House(id=hid, town=tid, local_xy=(1, 1))
        state.towns[tid].houses.add(hid)
    m = state.add_person(gender=MALE, age_steps=30 * 365,
                         born_step=-30 * 365)
    f = state.add_person(gender=FEMALE, age_steps=28 * 365,
                         born_step=-28 * 365)
    move_person(state, m, state.houses[0])
    move_person(state, f, state.houses[1])
    checks = [
        ("geo d=1", geo_factor(state, m, f), math.exp(-4.0)),
        ("children 1,1", children_factor(1, 1), math.exp(-1.0)),
        ("children 2,3", children_factor(2, 3), math.exp(1.0)),
        ("age diff +10", age_factor(30.0, 20.0), 1.0 / 6.0),
        ("age diff -3", age_factor(17.0, 20.0), 0.5),
    ]
    for name, got, want in checks:
        assert math.isclose(got, want, rel_tol=1e-12), (name, got, want)
    print("[C7] 5 weight reference values exact to 1e-12 PASS")


# --- criterion 8: determinism ----------------------------------------------

def _artifact_run(out_dir, seed):
    cfg = RunConfig(
        sim=SimulationParams(t0=2020, t_final=2021, delta_t="daily",
                             seed=seed),
        model=ModelParams(initial_pop=150),
        data=default_model_data(),
        density=DensityMap.default(),
        out_dir=str(out_dir),
    )
    return run(cfg)


def test_c08_seeded_determinism(tmp_path):
    """Same config and seed twice: byte-identical timeseries.csv, equal
    summary.json apart from the generated_at timestamp, equal state digests.
    A different seed must give a different digest (a collision is flagged,
    not failed)."""
    r1 = _artifact_run(tmp_path / "a", 777)
    r2 = _artifact_run(tmp_path / "b", 777)
    r3 = _artifact_run(tmp_path / "c", 778)
    ts1 = (tmp_path / "a" / "timeseries.csv").read_bytes()
    ts2 = (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert ts1 == ts2
    s1 = json.loads((tmp_path / "a" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "b" / "summary.json").read_text())
    s1.pop("generated_at")
    s2.pop("generated_at")
    assert s1 == s2
    assert r1.digest == r2.digest
    if r3.digest == r1.digest:
        print("[C8] WARNING: digest collision across seeds 777/778")
    else:
        print("[C8] identical-seed runs byte-identical, "
              "different seed diverges PASS")
    assert True


# --- criterion 9: conservation ---------------------------------------------

def test_c09_conservation_and_house_monotonicity(decade_run):
    """On the criterion-5 run: every step satisfies
    alive(t) - alive(t-1) = births(t) - deaths(t), and the total house count
    never decreases."""
    result, _ = decade_run
    rows = result.timeseries.rows
    assert len(rows) == 3651
    col = {name: k for k, name in enumerate(TIMESERIES_HEADER)}
    alive, births = col["alive"], col["births"]
    deaths, houses = col["deaths"], col["houses_total"]
    for prev, cur in zip(rows, rows[1:]):
        assert cur[alive] - prev[alive] == cur[births] - cur[deaths], cur[0]
        assert cur[houses] >= prev[houses], cur[0]
    print(f"[C9] conservation and house monotonicity over "
          f"{len(rows) - 1} steps PASS")


# --- criterion 10: death counts at scale -------------------------------------

def test_c10_death_counts_at_scale():
    """10^4 males aged 70 in one town, births/marriages/divorces disabled,
    one simulated year of daily steps: total deaths within 3 sigma of
    Binomial(10^4, 1 - (1 - p_inst)^365) with the criterion-2 male rate."""
    t0 = time.perf_counter()
    params = ModelParams()
    p_year = params.basic_death_rate + params.male_age_death_rate \
        * math.exp(70.0 / params.male_age_scaling)
    p_inst = instantaneous(p_year, 365)
    q = 1.0 - (1.0 - p_inst) ** 365
    expected = 10_000 * q
    sigma = math.sqrt(10_000 * q * (1.0 - q))

    state = WorldState(time=SimTime(step_index=0, t0_year=2020,
                                    steps_per_year=365))
    state.towns[0] = Town(id=0, grid_xy=(1, 1), density=1.0)
    house = House(id=0, town=0, local_xy=(1, 1))
    state.houses[0] = house
    state.towns[0].houses.add(0)
    for _ in range(10_000):
        p = state.add_person(gender=MALE, age_steps=70 * 365,
                             born_step=-70 * 365)
        p.house = 0
        house.occupants.add(p.id)
    ctx = RateContext(params, default_model_data(), 365)
    rng = random.Random(SEED)
    snaps = SnapshotStore()
    snaps.freeze(state)
    died = 0
    for _ in range(365):
        outcome = step(state, ctx, snaps, rng,
                       event_order=("ageing", "deaths"))
        assert outcome.births == outcome.marriages == outcome.divorces == 0
        died += outcome.deaths
    elapsed = time.perf_counter() - t0
    assert abs(died - expected) <= 3.0 * sigma, (died, expected, 3 * sigma)
    assert elapsed < 30.0
    print(f"[C10] deaths={died} expected={expected:.1f} "
          f"(3 sigma {3 * sigma:.1f}) in {elapsed:.1f}s PASS")
