"""Rate formulas, per-step conversion, the fertility table loader, and the
per-run rate context with its ceilings.

Numeric expectations marked "frozen" were computed once with mpmath at 50
digits and pasted in; the formulas here must reproduce them in double
precision.
"""
from __future__ import annotations

import math
import pickle
import random
import re
import tracemalloc
from dataclasses import replace

import pytest

from conftest import add_person, make_state
from demosim.cli import build_config
from demosim.events import step
from demosim.initialization import init_world
from demosim.model import (FEMALE, MALE, DataFormatError, FertilityTable,
                           ModelParams)
from demosim.predicates import SnapshotStore
from demosim.rates import (DEFAULT_DIVORCE_MODIFIERS,
                           DEFAULT_MARRIAGE_MODIFIERS, MAX_YEARLY_RATE,
                           RateContext, death_rate_yearly_at, decade_index,
                           default_fertility, default_model_data,
                           divorce_rate_yearly, fertility_rate_yearly,
                           instantaneous, load_fertility_text,
                           marriage_rate_yearly)

# frozen: -log(1 - 0.05) / 365 and / 12
INST_005_DAILY = 1.40529573664522e-4
INST_005_MONTHLY = 4.27444119896254e-3


def test_instantaneous_frozen_values():
    assert instantaneous(0.05, 365) == pytest.approx(INST_005_DAILY, rel=1e-12)
    assert instantaneous(0.05, 12) == pytest.approx(INST_005_MONTHLY, rel=1e-12)
    assert instantaneous(0.0, 365) == 0.0


def test_instantaneous_clamps_at_one():
    """With one step a year, -ln(1 - p) passes 1 at p = 1 - 1/e; from there
    on the per-step probability is exactly 1.0, as min(1.0, .) gives."""
    edge = -math.expm1(-1.0)
    for p in (0.5, math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0),
              0.7, 0.99, MAX_YEARLY_RATE):
        assert instantaneous(p, 1) == min(1.0, -math.log1p(-p))
    assert instantaneous(0.5, 1) == -math.log1p(-0.5) < 1.0
    assert instantaneous(0.7, 1) == 1.0
    assert instantaneous(MAX_YEARLY_RATE, 1) == 1.0


def test_instantaneous_hazard_identity():
    # n repetitions of the per-step hazard recover the yearly probability
    for p in (0.01, 0.05, 0.2, 0.9):
        for n in (12, 52, 365):
            p_inst = instantaneous(p, n)
            assert 1.0 - math.exp(-n * p_inst) == pytest.approx(p, rel=1e-12)


def test_instantaneous_monotone_in_p():
    last = 0.0
    for p in (0.001, 0.01, 0.1, 0.3, 0.6, 0.9, 0.99):
        cur = instantaneous(p, 365)
        assert cur > last
        last = cur


def test_instantaneous_rejects_bad_input():
    with pytest.raises(ValueError):
        instantaneous(-0.1, 365)
    with pytest.raises(ValueError):
        instantaneous(1.0, 365)
    with pytest.raises(ValueError):
        instantaneous(0.5, 0)


def test_death_rate_values():
    params = ModelParams()
    # frozen: 0.0001 + 0.00021 * e^(70/14) and 0.0001 + 0.00019 * e^(70/15.5)
    assert death_rate_yearly_at(70, MALE, params) == \
        pytest.approx(0.0312667634115411, rel=1e-12)
    assert death_rate_yearly_at(70, FEMALE, params) == \
        pytest.approx(0.0174813505757865, rel=1e-12)
    assert death_rate_yearly_at(0, MALE, params) == \
        pytest.approx(0.00031, rel=1e-12)
    # male mortality exceeds female at equal ages from adulthood on
    for age in range(18, 100, 5):
        assert death_rate_yearly_at(age, MALE, params) > \
            death_rate_yearly_at(age, FEMALE, params)


def test_death_rate_clamped_below_one():
    params = ModelParams()
    assert death_rate_yearly_at(500, MALE, params) == MAX_YEARLY_RATE
    assert instantaneous(death_rate_yearly_at(500, MALE, params), 365) > 0


def test_death_rate_beyond_exp_range():
    """Past exp's range the age term is +inf, which the clamp turns into
    MAX_YEARLY_RATE, or 0 when the age rate is 0; never NaN, which
    instantaneous would turn into a per-step probability of 1."""
    params = ModelParams()
    steep = replace(params, male_age_scaling=0.01)
    # exp(700) is finite, exp(800) is not
    assert death_rate_yearly_at(7, MALE, steep) == MAX_YEARLY_RATE
    assert death_rate_yearly_at(8, MALE, steep) == MAX_YEARLY_RATE
    flat = replace(steep, male_age_death_rate=0.0,
                   female_age_scaling=5e-324, female_age_death_rate=0.0)
    for age in (8, 200):
        # male: exp raises OverflowError; female: age / 5e-324 is inf
        for gender in (MALE, FEMALE):
            assert death_rate_yearly_at(age, gender, flat) == \
                params.basic_death_rate
    assert instantaneous(death_rate_yearly_at(200, FEMALE, flat), 12) < 1e-4


def test_decade_index():
    assert decade_index(0) == 1
    assert decade_index(5) == 1
    assert decade_index(10) == 1
    assert decade_index(10.1) == 2
    assert decade_index(25) == 3
    assert decade_index(159) == 16
    assert decade_index(400) == 16


def test_modifier_vectors():
    assert len(DEFAULT_DIVORCE_MODIFIERS) == 16
    assert len(DEFAULT_MARRIAGE_MODIFIERS) == 16
    assert DEFAULT_DIVORCE_MODIFIERS[2] == 0.9
    assert DEFAULT_MARRIAGE_MODIFIERS[2] == 0.5
    assert DEFAULT_MARRIAGE_MODIFIERS[3] == 1.0


def test_decade_rates():
    params = ModelParams()
    data = default_model_data()
    assert divorce_rate_yearly(decade_index(25), params, data) == \
        pytest.approx(0.06 * 0.9, rel=1e-12)
    assert marriage_rate_yearly(decade_index(25), params, data) == \
        pytest.approx(0.7 * 0.5, rel=1e-12)
    assert marriage_rate_yearly(decade_index(35), params, data) == \
        pytest.approx(0.7 * 1.0, rel=1e-12)


def test_default_fertility_shape():
    fert = default_fertility()
    assert fert.age_offset == 17
    assert len(fert.rows) == 35
    assert all(len(row) == 1 for row in fert.rows)
    # roughly replacement-level total fertility over the reproductive span
    assert 1.5 < sum(row[0] for row in fert.rows) < 2.3


def test_fertility_lookup_strict_age_clamped_year():
    table = default_model_data().fertility
    rate = fertility_rate_yearly(30.5, 2020, table)
    assert rate == table.rows[30 - 17][0]
    # year outside the single-column table clamps to it
    assert fertility_rate_yearly(30.5, 2150, table) == rate
    with pytest.raises(ValueError):
        fertility_rate_yearly(16.0, 2020, table)
    with pytest.raises(ValueError):
        fertility_rate_yearly(60.0, 2020, table)


def test_load_fertility_text():
    table = load_fertility_text(
        "age_offset=20 year_offset=2019\n"
        "0.1, 0.2\n"
        "0.3, 0.4\n")
    assert table.age_offset == 20
    assert table.year_offset == 2019
    assert table.rows == ((0.1, 0.2), (0.3, 0.4))


def test_load_fertility_text_errors():
    with pytest.raises(DataFormatError):
        load_fertility_text("")
    with pytest.raises(DataFormatError):
        load_fertility_text("age_offset=20\n0.1\n")
    with pytest.raises(DataFormatError):
        load_fertility_text("age_offset=20 year_offset=2019\n0.1, x\n")
    with pytest.raises(DataFormatError):
        load_fertility_text("age_offset=20 year_offset=2019\n0.1\n0.1, 0.2\n")
    for header in ("age_offset:20 year_offset=2019", "age_offset=x "
                   "year_offset=2019", "age_offset=17.5 year_offset=2019",
                   "age_offset=20 year_offset=2019 rows=1"):
        with pytest.raises(DataFormatError, match="fertility header"):
            load_fertility_text(f"{header}\n0.1\n")


def test_rate_context_matches_direct_computation():
    """Every lookup is exactly the converted formula: each decade's
    divorce and marriage rate (mid-decade and one step either side of each
    decade bound), each fertility row one step either side of its first
    step and at it, for years below, inside and above a three-column table
    (an age outside the table raising the formula's own error), and death
    at ages spread over 0..120 years, on every label clock and on an
    integer clock."""
    params = ModelParams()
    data = default_model_data()
    table = FertilityTable(
        rows=tuple((v, v / 2, v / 3) for v, in data.fertility.rows),
        age_offset=data.fertility.age_offset, year_offset=2021)
    first = table.age_offset
    after_last = first + len(table.rows)
    calendar_years = (2000, 2020, 2021, 2022, 2023, 2024, 2150)
    for spy in (12, 52, 365, 8760, 1000):
        ctx = RateContext(params, data, spy)
        state = make_state(spy)
        man = add_person(state, MALE, 0)
        for decade in range(1, 17):
            mid = max(1, (decade - 1) * 10 * spy + spy // 2)
            assert decade_index(mid / spy) == decade
            bound = decade * 10 * spy
            for age in (mid, bound - 1, bound, bound + 1):
                man.age_steps = age
                expected = decade_index(age / spy)
                assert ctx.divorce_p_step(man) == instantaneous(
                    divorce_rate_yearly(expected, params, data), spy)
                assert ctx.marriage_p_step(man) == instantaneous(
                    marriage_rate_yearly(expected, params, data), spy)
        fert_ctx = RateContext(params, replace(data, fertility=table), spy)
        woman = add_person(state, FEMALE, 0)
        outside = set()
        for k in range(first, after_last + 1):
            for age in (k * spy - 1, k * spy, k * spy + 1):
                for year in calendar_years:
                    state.time.step_index = (year - state.time.t0_year) * spy
                    assert state.time.year == year
                    woman.age_steps = age  # after the clock: age follows it
                    try:
                        expected = instantaneous(
                            fertility_rate_yearly(age / spy, year, table), spy)
                    except ValueError as exc:
                        outside.add(age)
                        with pytest.raises(ValueError,
                                           match=f"^{re.escape(str(exc))}$"):
                            fert_ctx.fertility_p_step(woman, state.time)
                    else:
                        assert fert_ctx.fertility_p_step(
                            woman, state.time) == expected
        assert outside == {first * spy - 1, after_last * spy,
                           after_last * spy + 1}
        for gender in (MALE, FEMALE):
            person = add_person(state, gender, 0)
            for years in (0, 0.5, 1, 17.99, 18, 35, 64.2, 80, 99.9, 118, 120):
                person.age_steps = int(years * spy)
                assert ctx.death_p_step(person) == instantaneous(
                    death_rate_yearly_at(person.age_steps / spy, gender,
                                         params), spy)


def test_death_lookup_keeps_no_per_age_state():
    """A death lookup converts the rate on the spot: at 100000 steps a year
    one lookup for a 90-year-old allocates a few objects, not an array of
    nine million ages, and lookups over many ages leave the context as it
    was."""
    spy = 100_000
    ctx = RateContext(ModelParams(), default_model_data(), spy)
    state = make_state(spy)
    man = add_person(state, MALE, 90)
    before = pickle.dumps(ctx)
    tracemalloc.start()
    try:
        ctx.death_p_step(man)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    woman = add_person(state, FEMALE, 0)
    for years in (0.5, 3, 42, 90, 117, 150):
        for p in (man, woman):
            p.age_steps = int(years * spy)
            ctx.death_p_step(p)
    assert pickle.dumps(ctx) == before


def test_death_bands_hold_a_float_per_year_looked_up():
    """At 100000 steps a year, the band of a 90-year-old fills the bands of
    years 0..90 of that gender only, and allocates no per-step table."""
    spy = 100_000
    ctx = RateContext(ModelParams(), default_model_data(), spy)
    state = make_state(spy)
    man = add_person(state, MALE, 90)
    tracemalloc.start()
    try:
        band = ctx.death_band(MALE, man.age_steps // spy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert ctx.death_p_step(man) <= band
    assert len(ctx._death_bands[MALE]) <= 91
    assert len(ctx._death_bands.get(FEMALE, ())) <= 91


class CountingRates(RateContext):
    """Counts its death_p_step calls, as the benchmark's traced context
    does to time them."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.death_calls = 0

    def death_p_step(self, person):
        self.death_calls += 1
        return RateContext.death_p_step(self, person)


def test_death_bands_are_filled_through_death_p_step():
    """An hourly run with no death still calls death_p_step: the bands are
    filled through it, so an override of it sees every death rate the run
    computes."""
    config = build_config({"initial_pop": "200", "delta_t": "hourly",
                           "t0": "2020", "t_final": "2021", "seed": "1"})
    rng = random.Random(1)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    ctx = CountingRates(config.model, config.data,
                        config.sim.steps_per_year)
    snaps = SnapshotStore()
    snaps.freeze(state)
    died = 0
    for _ in range(24 * 30):
        died += step(state, ctx, snaps, rng).deaths
    assert died == 0
    assert ctx.death_calls >= 1


@pytest.mark.parametrize("settings", [
    {}, {"female_age_scaling": 2.0},
    # exp(age / 0.01) leaves a double's range past about 7 years
    {"male_age_scaling": 0.01, "male_age_death_rate": 0.5},
    {"male_age_scaling": 0.01, "male_age_death_rate": 0.0,
     "basic_death_rate": 0.3}])
def test_ceilings_bound_every_lookup(settings):
    """Each ceiling is at or above every rate its lookup returns, so a draw
    at or above it cannot fire: deaths at every age step from 0 to 200
    years for both genders (every 7th step at the hourly clock), under the
    band of the age's whole year, itself at or below the death ceiling;
    and divorce and marriage at each decade's first and last step and
    fertility at every cell. Those three ceilings are attained."""
    params = replace(ModelParams(), **settings)
    data = default_model_data()
    table = FertilityTable(
        rows=tuple((v, 2 * v, v / 3) for v, in data.fertility.rows),
        age_offset=data.fertility.age_offset, year_offset=2021)
    data = replace(data, fertility=table)
    for spy in (1, 12, 52, 365, 1000, 8760):
        ctx = RateContext(params, data, spy)
        state = make_state(spy)
        assert ctx.death_ceiling == instantaneous(MAX_YEARLY_RATE, spy)
        for gender in (MALE, FEMALE):
            person = add_person(state, gender, 0)
            for age in range(0, 200 * spy + 1, 7 if spy == 8760 else 1):
                person.age_steps = age
                band = ctx.death_band(gender, age // spy)
                assert ctx.death_p_step(person) <= band <= ctx.death_ceiling
        man = add_person(state, MALE, 0)
        divorce, marriage = set(), set()
        for decade in range(1, 17):
            for age in ((decade - 1) * 10 * spy + 1, decade * 10 * spy):
                man.age_steps = age
                divorce.add(ctx.divorce_p_step(man))
                marriage.add(ctx.marriage_p_step(man))
        assert max(divorce) == ctx.divorce_ceiling
        assert max(marriage) == ctx.marriage_ceiling
        woman = add_person(state, FEMALE, 0)
        fertility = set()
        for row in range(len(table.rows)):
            for year in (2021, 2022, 2023):
                state.time.step_index = (year - state.time.t0_year) * spy
                woman.age_steps = (table.age_offset + row) * spy
                fertility.add(ctx.fertility_p_step(woman, state.time))
        assert len(fertility) > len(table.rows)
        assert max(fertility) == ctx.fertility_ceiling


def test_zero_rate_never_fires():
    ctx = RateContext(ModelParams(), default_model_data(), 365)
    state = make_state()
    baby = add_person(state, MALE, 0)
    baby.age_steps = 0
    # decade 1 divorce modifier is 0, so the per-step rate must be exactly 0
    assert ctx.divorce_p_step(baby) == 0.0
    rng = random.Random(0)
    assert all(rng.random() >= ctx.divorce_p_step(baby) for _ in range(1000))
