"""Core types: clock resolution, parameter validation, person linkage, and
the referential-integrity sweep."""
from __future__ import annotations

from dataclasses import fields

import pytest

from conftest import add_house, add_person, add_town, make_state, marry
from demosim.engine import RunConfig, run
from demosim.model import (ADULT_YEARS, FEMALE, MALE, ConfigError,
                           DataFormatError, FertilityTable, ModelData,
                           ModelParams, SimTime, SimulationParams,
                           link_partners, unlink_partners, validate_world)
from demosim.predicates import is_adult
from demosim.rates import default_model_data
from demosim.space import DensityMap


def steps_per_year(delta_t) -> int:
    return SimulationParams(delta_t=delta_t).steps_per_year


def test_clock_labels():
    assert steps_per_year("daily") == 365
    assert steps_per_year("weekly") == 52
    assert steps_per_year("monthly") == 12
    assert steps_per_year("hourly") == 8760
    assert steps_per_year(100) == 100


def test_clock_rejects_unknown_label():
    for bad in ("fortnightly", 0, "0", "²", True):
        with pytest.raises(ConfigError, match="delta_t"):
            steps_per_year(bad)


def test_simulation_params_keep_one_delta_t_spelling():
    """A label in any case is kept in lower case, and a string of digits
    as its count."""
    assert SimulationParams(delta_t=" Weekly ").delta_t == "weekly"
    assert SimulationParams(delta_t="0100").delta_t == 100
    assert SimulationParams(delta_t=24).delta_t == 24


def test_sim_time_year():
    t = SimTime(step_index=730, t0_year=2020, steps_per_year=365)
    assert t.year == 2022
    assert SimTime(1, 2020, 365).year == 2020
    assert SimTime(365, 2020, 365).year == 2021


def test_simulation_params_defaults():
    sim = SimulationParams()
    assert (sim.t0, sim.t_final, sim.delta_t, sim.seed) == \
        (2020, 2030, "daily", "random")
    assert sim.steps_per_year == 365


def test_simulation_params_rejects_bad_span():
    with pytest.raises(ConfigError):
        SimulationParams(t0=2030, t_final=2020)
    with pytest.raises(ConfigError):
        SimulationParams(t0=2020, t_final=2020)


@pytest.mark.parametrize("seed", ["abc", "-1", -1, True, 1.5], ids=repr)
def test_simulation_params_reject_a_bad_seed(seed):
    """A seed is "random", an int >= 0 or a string of ASCII digits;
    anything else, a bool and a negative seed in either spelling among
    them, fails at construction, not when a run resolves it."""
    with pytest.raises(ConfigError, match="seed"):
        SimulationParams(seed=seed)


def test_a_digit_string_seed_is_its_int():
    """SimulationParams keeps a seed of ASCII digits as its int, so a run
    with seed "7" is the run with seed 7."""
    assert SimulationParams(seed="7").seed == 7
    assert SimulationParams(seed="random").seed == "random"
    sim = dict(t0=2020, t_final=2021, delta_t="monthly")
    digests = {run(RunConfig(sim=SimulationParams(**sim, seed=seed),
                             model=ModelParams(initial_pop=100),
                             data=default_model_data(),
                             density=DensityMap.default())).digest
               for seed in ("7", 7)}
    assert len(digests) == 1


@pytest.mark.parametrize("params, key, value", [
    (SimulationParams, "t0", 2019.5),
    (SimulationParams, "t_final", 2020.5),
    (SimulationParams, "t_final", "2030"),
    (SimulationParams, "t0", True),
    (ModelParams, "initial_pop", "10"),
    (ModelParams, "initial_pop", 2.0),
    (ModelParams, "max_num_marr_cand", 2.5),
    (ModelParams, "max_num_marr_cand", True),
])
def test_integer_params_reject_other_types(params, key, value):
    """t0, t_final, initial_pop and max_num_marr_cand are ints, not bools:
    any other value fails at construction, not as a TypeError partway
    through init_world or run."""
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        params(**{key: value})


# the float fields of ModelParams, by their annotation
FLOAT_FIELDS = [f.name for f in fields(ModelParams) if f.type == "float"]


@pytest.mark.parametrize("value", [True, None, "0.1"])
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_float_params_reject_other_types(key, value):
    """A rate or scale is an int or a float, not a bool, None or a string:
    any other value fails at construction with a ConfigError that names
    the field, not as a TypeError or as a bool read as 0 or 1."""
    with pytest.raises(ConfigError, match=f"{key} must be a number"):
        ModelParams(**{key: value})


def test_model_params_defaults():
    p = ModelParams()
    assert p.basic_divorce_rate == 0.06
    assert p.basic_death_rate == 0.0001
    assert p.basic_male_marriage_rate == 0.7
    assert p.female_age_death_rate == 0.00019
    assert p.female_age_scaling == 15.5
    assert p.initial_pop == 10000
    assert p.male_age_death_rate == 0.00021
    assert p.male_age_scaling == 14.0
    assert p.max_num_marr_cand == 100
    assert p.start_married_ratio == 0.8


def test_model_params_validation():
    with pytest.raises(ConfigError):
        ModelParams(basic_death_rate=-0.1)
    with pytest.raises(ConfigError):
        ModelParams(start_married_ratio=1.5)
    with pytest.raises(ConfigError):
        ModelParams(male_age_scaling=0)
    ModelParams(initial_pop=0)  # degenerate but allowed


def test_fertility_table_validation():
    FertilityTable(rows=((0.1, 0.2),), age_offset=20, year_offset=2020)
    with pytest.raises(DataFormatError):
        FertilityTable(rows=(), age_offset=20, year_offset=2020)
    with pytest.raises(DataFormatError):
        FertilityTable(rows=((0.1,), (0.1, 0.2)), age_offset=20,
                       year_offset=2020)
    with pytest.raises(DataFormatError):
        FertilityTable(rows=((1.5,),), age_offset=20, year_offset=2020)


def test_model_data_requires_16_modifiers():
    fert = FertilityTable(rows=((0.1,),), age_offset=20, year_offset=2020)
    with pytest.raises(ConfigError):
        ModelData(fertility=fert,
                  divorce_modifier_by_decade=(0.1,) * 15,
                  male_marriage_modifier_by_decade=(0.1,) * 16)


def test_add_person_ids_are_dense_and_ordered():
    state = make_state()
    a = state.add_person(gender=MALE, age_steps=0, born_step=0)
    b = state.add_person(gender=FEMALE, age_steps=0, born_step=0)
    assert (a.id, b.id) == (0, 1)
    assert list(state.persons) == [0, 1]


def test_link_partners_records_history_both_sides():
    state = make_state()
    m = add_person(state, MALE, 30)
    f = add_person(state, FEMALE, 30)
    link_partners(state, m, f)
    assert m.partner == f.id and f.partner == m.id
    assert m.ever_partners == [f.id] and f.ever_partners == [m.id]
    unlink_partners(state, m)
    assert m.partner is None and f.partner is None
    assert m.ever_partners == [f.id] and f.ever_partners == [m.id]


def test_adult_boundary_is_exact():
    state = make_state(spy=12)
    p = add_person(state, MALE, 0)
    p.age_steps = ADULT_YEARS * 12 - 1
    assert not is_adult(state, p)
    p.age_steps = ADULT_YEARS * 12
    assert is_adult(state, p)


def test_validate_world_clean_family(family):
    state, *_ = family
    assert validate_world(state) == []


def test_validate_world_dangling_house_ref():
    state = make_state()
    town = add_town(state)
    house = add_house(state, town)
    p = add_person(state, MALE, 30, house)
    # person 42 does not exist yet; force the id for the message check
    state.persons[42] = state.persons.pop(p.id)
    state.persons[42].id = 42
    house.occupants.clear()
    house.occupants.add(42)
    state.persons[42].house = 999
    problems = validate_world(state)
    assert "dangling house ref: p42" in problems


def test_validate_world_occupant_miss():
    state = make_state()
    town = add_town(state)
    house = add_house(state, town)
    p = add_person(state, MALE, 30, house)
    house.occupants.clear()
    problems = validate_world(state)
    assert any("occupant set misses resident" in msg for msg in problems)
    assert any(f"p{p.id}" in msg for msg in problems)


def test_validate_world_partnership_checks():
    state = make_state()
    town = add_town(state)
    h = add_house(state, town)
    m = add_person(state, MALE, 30, h)
    f = add_person(state, FEMALE, 30, h)
    marry(state, m, f)
    f.partner = None
    assert any("not symmetric" in msg for msg in validate_world(state))
    f.partner = m.id
    f.gender = MALE
    assert any("share gender" in msg for msg in validate_world(state))
    f.gender = FEMALE
    f.age_steps = 17 * 365
    assert any("married minor" in msg for msg in validate_world(state))


def test_validate_world_dead_person_rules():
    state = make_state()
    town = add_town(state)
    h = add_house(state, town)
    p = add_person(state, MALE, 30, h)
    p.alive = False
    problems = validate_world(state)
    assert any("dead person keeps house" in msg for msg in problems)
    assert any("stale occupant" in msg for msg in problems)
