"""Golden trajectories: the final state digest and the sha256 of
timeseries.csv for a few short configs, the digest right after init, and
per-step digest chains, pinned so that any change to the RNG draw order, a
rate or a rule that shifts a run shows up here.

A change that alters a trajectory on purpose must say so and re-pin these
values. The two `smoke` pins equal the seed 1 and seed 2 replicates pinned
in bench/pins.json.
"""
from __future__ import annotations

import copy
import hashlib
import math
import pickle
import random
from dataclasses import replace

import pytest

from conftest import demolish, marry_minor
from demosim import events
from demosim.cli import build_config
from demosim.engine import Run, run, state_digest, violations_csv
from demosim.initialization import init_world
from demosim.model import TownRecords

_DECADE_MONTHLY = {"initial_pop": "300", "delta_t": "monthly",
                   "t0": "2020", "t_final": "2030"}

GOLDEN = {
    "smoke_seed1": (
        dict(_DECADE_MONTHLY, seed="1"),
        "bb33e3e121103ee2",
        "59ae75b06fd2c4519a94eadf62d357f738245a45f7e9ac6b2afff4b74e9385d4"),
    "smoke_seed2": (
        dict(_DECADE_MONTHLY, seed="2"),
        "32f7e2273c5189c2",
        "83d9940e1061c3ceeeedbb2a8a6598975b32da2501e6639605345bdcd3007ffd"),
    "weekly": (
        {"initial_pop": "200", "delta_t": "weekly", "t0": "2020",
         "t_final": "2025", "seed": "3"},
        "fe268b129b190467",
        "835c372e535b59f27512fd2909e034f3eb5d98cddadb408fa6149ce3e02fe776"),
    "warn_mode": (
        dict(_DECADE_MONTHLY, seed="4", verification_mode="warn"),
        "d435573defe12ed1",
        "5b429d99d894b876d53be1e98630561c62b672608b4ff7148e74d353c8b72e3d"),
    "zero_pop": (
        {"initial_pop": "0", "delta_t": "daily", "t0": "2020",
         "t_final": "2021", "seed": "5"},
        "9b90a8382bc4c445",
        "6916f117c5b37d8ba8581ee4b4a2eabae8cc2c71f16e44f75d8826b2d1db4640"),
    "births_before_deaths": (
        {"initial_pop": "300", "delta_t": "monthly", "t0": "2020",
         "t_final": "2040", "seed": "6",
         "event_order": "ageing,births,deaths,divorces,marriages"},
        "7757cf602a4c323b",
        "714e0f7185cec21477a9c7749fe9ed704a01aecc60ac8a69d61e443bce472df7"),
    "hourly": (
        {"initial_pop": "1", "delta_t": "hourly", "t0": "2020",
         "t_final": "2021", "seed": "7"},
        "ad3412930bc48e23",
        "2de8015f080cfce694ba99f8945b839ff35264737483e8747118adfc44cc22dc"),
    "integer_clock": (
        {"initial_pop": "200", "delta_t": "1000", "t0": "2020",
         "t_final": "2022", "seed": "8"},
        "8bdd6e7ffc5dc7fe",
        "b4e94f2ca05423e401a0662cc57aaa60f07efdb4b61a54fe6f71b7bd8dedea7c"),
    # a frail population on a monthly clock: its deaths screen passes from
    # 11 of the 256 top bytes to all of them, where each draw is read
    # through random() (see test_frail_screen_passes_every_draw)
    "frail_monthly": (
        {"initial_pop": "1000", "delta_t": "monthly", "t0": "2020",
         "t_final": "2040", "basic_death_rate": "0.02",
         "female_age_scaling": "9", "seed": "7"},
        "4904421a407b1fc7",
        "ab63999e0c02d2a2edf2b1706e276c643d545554da72d7b4c3efd56332a39e33"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectory(name):
    pairs, digest, series_sha256 = GOLDEN[name]
    result = run(build_config(pairs))
    assert result.violations == []
    assert result.digest == digest
    assert hashlib.sha256(
        result.timeseries.to_csv().encode()).hexdigest() == series_sha256


def test_frail_screen_passes_every_draw(monkeypatch):
    """The frail_monthly pin reaches the screen's every-draw path: the top
    bytes its deaths screen passes run from 11 to all 256, which they are
    at 62 of its 240 steps."""
    passed = []
    screened = events._screened

    def recorded(rng, n, below):
        passed.append(math.ceil(256 * below))
        return screened(rng, n, below)

    monkeypatch.setattr(events, "_screened", recorded)
    result = run(build_config(GOLDEN["frail_monthly"][0]))
    assert result.digest == GOLDEN["frail_monthly"][1]
    assert (min(passed), max(passed), passed.count(256), len(passed)) == (
        11, 256, 62, 240)


# state_digest right after init_world with seed 1, for the init_20k and
# daily_decade configs of bench/bench.py and at twice and four times
# init_20k's population (17,769 and 35,519 persons), where a faster init must
# still make the same draws: init alone, whose draws every run starts from
INIT_GOLDEN = {
    "init_20k": ({"initial_pop": "20000", "delta_t": "monthly",
                  "t0": "2020", "t_final": "2021"}, "a22e531fb52a3d50"),
    "init_40k": ({"initial_pop": "40000", "delta_t": "monthly",
                  "t0": "2020", "t_final": "2021"}, "a9b5f4a6cd78846d"),
    "init_80k": ({"initial_pop": "80000", "delta_t": "monthly",
                  "t0": "2020", "t_final": "2021"}, "93162aa1ebf626ba"),
    "daily_decade": ({"initial_pop": "1000", "delta_t": "daily",
                      "t0": "2020", "t_final": "2030"}, "60b2ce4338590071"),
}


@pytest.mark.parametrize("name", sorted(INIT_GOLDEN))
def test_golden_init(name):
    pairs, digest = INIT_GOLDEN[name]
    config = build_config(dict(pairs, seed="1"))
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, random.Random(1))
    assert state_digest(state) == digest


# Per-step chains: the state digest after every step of a fault-free run,
# folded into one hash, for each clock x event order x seed. A change that
# keeps every final digest can still move a state in between; these catch
# that too. Every step must pass every check (a fault-free config sweep).
CHAIN_ORDERS = ("ageing,deaths,births,divorces,marriages",
                "ageing,births,deaths,divorces,marriages",
                "ageing,divorces,marriages,deaths,births")
# clock -> steps stepped
CHAIN_CLOCKS = {"monthly": 180, "weekly": 156, "hourly": 400, "1000": 300}
# seed -> params; seed 2 kills women over 17 at the rate clamp, and divorces
# and marries often
CHAIN_RUNS = {1: {},
              2: {"female_age_scaling": "2", "basic_divorce_rate": "0.9",
                  "basic_male_marriage_rate": "0.9"}}
# (seed, clock) -> the chain of each CHAIN_ORDERS entry, in that order
CHAINS = {
    (1, "1000"): ("e3718d1ba1878c04", "37d8720540d039ea",
                  "21489d4d41c80297"),
    (1, "hourly"): ("4c6764e0b74b3d90", "4c6764e0b74b3d90",
                    "4c6764e0b74b3d90"),
    (1, "monthly"): ("9f0c3fab8bdad67f", "8ffb0f4ccfe47e7a",
                     "1b28877357bfe9e1"),
    (1, "weekly"): ("d492d166749c9644", "637caaee9228ec7a",
                    "3c237374d2c1b7e0"),
    (2, "1000"): ("423dc17b5730ede9", "adb9203ac194a74b",
                  "9e92decc69ce83c8"),
    (2, "hourly"): ("f5177d4ce7cbdba2", "fc1d9ea7f0b8f0ed",
                    "8f8782e32ab848ba"),
    (2, "monthly"): ("e3a0a0937598df9e", "3685d951ed615c45",
                     "d3f2973c04e7231a"),
    (2, "weekly"): ("ac5334a3cf96fbfd", "106a1b9b8b79be72",
                    "0ed63095685eee24"),
}


def chain_config(seed: int, clock: str, order: str):
    return build_config({"initial_pop": "120", "delta_t": clock,
                         "t0": "2020", "t_final": "2100",
                         "seed": str(seed), "event_order": order,
                         **CHAIN_RUNS[seed]})


def steps_of(run: Run, count: int) -> list[tuple]:
    """Advance a run `count` steps: per step, the state digest and the
    violations found at it."""
    out = []
    for _ in range(count):
        found = len(run.violations)
        run.advance()
        out.append((state_digest(run.state), run.violations[found:]))
    return out


def digest_chain(seed: int, clock: str, order: str) -> str:
    run = Run(chain_config(seed, clock, order))  # fail mode: no violation
    chain = hashlib.blake2b(state_digest(run.state).encode(), digest_size=8)
    for digest, _ in steps_of(run, CHAIN_CLOCKS[clock]):
        chain.update(digest.encode())
    assert run.violations == []
    return chain.hexdigest()


@pytest.mark.parametrize("order", CHAIN_ORDERS)
@pytest.mark.parametrize("clock", sorted(CHAIN_CLOCKS))
@pytest.mark.parametrize("seed", sorted(CHAIN_RUNS))
def test_per_step_digest_chain(seed, clock, order):
    assert digest_chain(seed, clock, order) == \
        CHAINS[seed, clock][CHAIN_ORDERS.index(order)]


def assert_continues(run: Run, count: int) -> None:
    """A run's future depends only on what its Run holds: a pickled copy
    follows the original for `count` steps, step for step, and writes the
    same timeseries.csv and violations.csv. The original runs to the end
    before the copy starts, so data a reader keeps anywhere but on the Run
    (a module global, say) differs between the two."""
    copy = pickle.dumps(run)
    original = steps_of(run, count)
    again = pickle.loads(copy)
    assert steps_of(again, count) == original
    assert again.series.to_csv() == run.series.to_csv()
    assert violations_csv(again.violations) == violations_csv(run.violations)


@pytest.mark.parametrize("order", CHAIN_ORDERS)
@pytest.mark.parametrize("clock", sorted(CHAIN_CLOCKS))
@pytest.mark.parametrize("seed", sorted(CHAIN_RUNS))
def test_run_continues_from_a_pickled_copy(seed, clock, order):
    """A copy pickled a third of the way through a chain config. On the
    hourly clock under the default order it is taken on an idle step, ten
    steps into a quiet run."""
    run = Run(chain_config(seed, clock, order))
    k = CHAIN_CLOCKS[clock] // 3
    steps_of(run, k)
    if clock == "hourly" and order == CHAIN_ORDERS[0]:
        assert run.state.changed_since(k - 10) == (set(), set())
    assert_continues(run, CHAIN_CLOCKS[clock] - k)


@pytest.mark.parametrize("fault", [marry_minor, demolish])
def test_faulty_run_continues_from_a_pickled_copy(fault):
    """A warn-mode run with a fault written after step 2, pickled after
    step 8 of 24: the copy finds the original's violations at every step
    after it (a_p_marriage_age flags the married minor at each, and
    a_homeless the occupants of the dropped houses)."""
    run = Run(build_config(dict(_DECADE_MONTHLY, t_final="2022", seed="1",
                                verification_mode="warn")))
    steps_of(run, 2)
    fault(run.state)
    steps_of(run, 6)
    assert run.violations
    assert_continues(run, 16)


def test_space_fault_after_a_pickled_copy():
    """A warn-mode run pickled and deep-copied after step 8; then, in the
    original and in each copy, the newest house is dropped and town 0's
    density halved. All three report a_s_static_towns and
    a_s_house_persistence at the next step, naming the same ids, and then
    go on alike: the kept house ids and the TownRecords with its journal
    reference survive pickle and copy.deepcopy."""
    run = Run(build_config(dict(_DECADE_MONTHLY, t_final="2022", seed="1",
                                verification_mode="warn")))
    steps_of(run, 8)
    runs = [run, pickle.loads(pickle.dumps(run)), copy.deepcopy(run)]
    reports = []
    for each in runs:
        state = each.state
        assert type(state.towns) is TownRecords
        assert state.towns.journal is state.journal
        house = state.houses.pop(max(state.houses))
        state.towns[house.town].houses.discard(house.id)
        town = state.towns[0]
        state.towns[0] = replace(town, density=town.density / 2)
        reports.append(steps_of(each, 4))
    assert reports[0] == reports[1] == reports[2]
    (_, found), *after = reports[0]
    assert [(v.label, v.ids) for v in found
            if v.label.startswith("a_s_")] == [
        ("a_s_static_towns", (0,)), ("a_s_house_persistence", (house.id,))]
    assert not any(v.label.startswith("a_s_")
                   for _, later in after for v in later)
