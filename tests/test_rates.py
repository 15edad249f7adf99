"""Rate formulas, per-step conversion, the fertility table loader, and the
per-run memo context.

Numeric expectations marked "frozen" were computed once with mpmath at 50
digits and pasted in; the formulas here must reproduce them in double
precision.
"""
from __future__ import annotations

import math
import random

import pytest

from conftest import add_person, make_state
from demosim.model import FEMALE, MALE, DataFormatError, ModelParams
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


def test_rate_context_matches_direct_computation():
    """Every table entry is exactly the converted formula: each decade's
    divorce and marriage rate (mid-decade and one step either side of each
    decade bound), each fertility cell (the year clamped at both table
    edges, an age outside the table raising as the formula does), and death
    at ages spread over 0..120 years on every clock."""
    params = ModelParams()
    data = default_model_data()
    table = data.fertility
    for spy in (12, 52, 365, 8760):
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
        woman = add_person(state, FEMALE, 0)
        for row in range(len(table.rows)):
            woman.age_steps = (table.age_offset + row) * spy + spy // 3
            age = woman.age_steps / spy
            for year in (2000, table.year_offset, 2150):
                state.time.step_index = (year - state.time.t0_year) * spy
                assert ctx.fertility_p_step(woman, state.time) == \
                    instantaneous(fertility_rate_yearly(age, year, table), spy)
        for years in (table.age_offset - 1, table.age_offset + len(table.rows)):
            woman.age_steps = years * spy
            with pytest.raises(ValueError, match="outside fertility table"):
                ctx.fertility_p_step(woman, state.time)
        for gender in (MALE, FEMALE):
            person = add_person(state, gender, 0)
            for years in (0, 0.5, 1, 17.99, 18, 35, 64.2, 80, 99.9, 118, 120):
                person.age_steps = int(years * spy)
                assert ctx.death_p_step(person) == instantaneous(
                    death_rate_yearly_at(person.age_steps / spy, gender,
                                         params), spy)


def test_rate_context_memoizes():
    """The death memo holds one entry per age step up to the oldest age
    looked up, whatever the number of lookups."""
    ctx = RateContext(ModelParams(), default_model_data(), 8760)
    state = make_state(8760)
    a = add_person(state, MALE, 42)
    b = add_person(state, MALE, 42)
    first = ctx.death_p_step(a)
    assert ctx.death_p_step(b) == first
    oldest = a.age_steps
    for _ in range(3):
        for years in (1, 30, 42, 10):
            b.age_steps = int(years * 8760)
            ctx.death_p_step(b)
            oldest = max(oldest, b.age_steps)
    assert len(ctx._death[MALE]) == oldest + 1
    assert len(ctx._death[FEMALE]) == 0
    woman = add_person(state, FEMALE, 7)
    ctx.death_p_step(woman)
    assert len(ctx._death[FEMALE]) == woman.age_steps + 1
    assert len(ctx._death[MALE]) == oldest + 1


def test_zero_rate_never_fires():
    ctx = RateContext(ModelParams(), default_model_data(), 365)
    state = make_state()
    baby = add_person(state, MALE, 0)
    baby.age_steps = 0
    # decade 1 divorce modifier is 0, so the per-step rate must be exactly 0
    assert ctx.divorce_p_step(baby) == 0.0
    rng = random.Random(0)
    assert all(rng.random() >= ctx.divorce_p_step(baby) for _ in range(1000))
