"""Yearly-to-instantaneous rate conversion and the demographic rate formulas.

All *_yearly functions return per-year probabilities; `instantaneous` turns
them into per-step probabilities for a clock running n_per_year steps a year.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import repeat

from .model import (ADULT_YEARS, FEMALE, MALE, MOTHER_AGE_LIMIT_YEARS,
                    DataFormatError, FertilityTable, ModelData, ModelParams,
                    Person, SimTime)

# death rates are clamped to this before conversion; the exponential term
# crosses 1.0 around age 118 for males
MAX_YEARLY_RATE = 1.0 - 1e-12

# built-in decade modifiers, index 1 = ages (0, 10]
DEFAULT_DIVORCE_MODIFIERS = (0.0, 1.0, 0.9, 0.5, 0.4, 0.2, 0.1, 0.03,
                             0.01, 0.001, 0.001, 0.001, 0.0, 0.0, 0.0, 0.0)
DEFAULT_MARRIAGE_MODIFIERS = (0.0, 0.16, 0.5, 1.0, 0.8, 0.7, 0.66, 0.5,
                              0.4, 0.2, 0.1, 0.05, 0.01, 0.0, 0.0, 0.0)

# built-in fertility defaults: ages 17..51, one year column applied to every
# calendar year via column clamping; an ad-hoc hump peaking around age 28-30
DEFAULT_FERTILITY_AGE_OFFSET = 17
DEFAULT_FERTILITY_YEAR_OFFSET = 2020
DEFAULT_FERTILITY_BY_AGE = (
    0.010, 0.025, 0.040, 0.055, 0.065, 0.075, 0.085, 0.095, 0.100,
    0.105, 0.110, 0.115, 0.115, 0.115, 0.110, 0.105, 0.095, 0.085,
    0.075, 0.065, 0.055, 0.045, 0.035, 0.025, 0.018, 0.012, 0.008,
    0.005, 0.003, 0.002, 0.001, 0.001, 0.0005, 0.0002, 0.0001,
)


def instantaneous(p_yearly: float, n_per_year: int) -> float:
    """Per-step probability whose n-fold hazard reproduces the yearly one:
    -ln(1-p)/n, clamped into [0, 1]."""
    if p_yearly < 0:
        raise ValueError(f"yearly rate must be >= 0, got {p_yearly}")
    if p_yearly >= 1:
        raise ValueError(f"yearly rate must be < 1, got {p_yearly}")
    if n_per_year <= 0:
        raise ValueError(f"steps per year must be positive, got {n_per_year}")
    return min(1.0, -math.log1p(-p_yearly) / n_per_year)


def death_rate_yearly_at(age: float, gender: str, params: ModelParams) -> float:
    if gender == MALE:
        rate = (params.basic_death_rate
                + math.exp(age / params.male_age_scaling) * params.male_age_death_rate)
    else:
        rate = (params.basic_death_rate
                + math.exp(age / params.female_age_scaling) * params.female_age_death_rate)
    return min(rate, MAX_YEARLY_RATE)


def decade_index(age: float) -> int:
    """1-based decade of life, clamped into [1, 16] so modifier lookups stay
    total (both modifier tails are zero, so clamping changes nothing)."""
    return min(16, max(1, math.ceil(age / 10)))


def divorce_rate_yearly(decade: int, params: ModelParams,
                        data: ModelData) -> float:
    return params.basic_divorce_rate * data.divorce_modifier_by_decade[decade - 1]


def marriage_rate_yearly(decade: int, params: ModelParams,
                         data: ModelData) -> float:
    return (params.basic_male_marriage_rate
            * data.male_marriage_modifier_by_decade[decade - 1])


def fertility_cell(age: float, year: int,
                   table: FertilityTable) -> tuple[int, int]:
    """(row, column) of the cell for a floored age and a calendar year. The
    year clamps to the table edges; an age outside the table means the
    reproducibility precondition failed upstream, so that raises instead."""
    row = int(age) - table.age_offset
    if not 0 <= row < len(table.rows):
        raise ValueError(f"age {age:.2f} outside fertility table (rows "
                         f"{table.age_offset}.."
                         f"{table.age_offset + len(table.rows) - 1})")
    return row, min(max(year - table.year_offset, 0), len(table.rows[0]) - 1)


def fertility_rate_yearly(age: float, year: int,
                          table: FertilityTable) -> float:
    row, col = fertility_cell(age, year, table)
    return table.rows[row][col]


def load_fertility_text(text: str) -> FertilityTable:
    """Parse the fertility file format: a header line
    "age_offset=<int> year_offset=<int>", then one comma-separated row of
    per-year rates per age."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError("fertility file is empty")
    header = lines[0].split()
    offsets = {}
    for token in header:
        key, sep, value = token.partition("=")
        if sep != "=" or key not in ("age_offset", "year_offset"):
            raise DataFormatError(f"bad fertility header token {token!r}")
        try:
            offsets[key] = int(value)
        except ValueError as exc:
            raise DataFormatError(f"bad fertility header value {token!r}") from exc
    if set(offsets) != {"age_offset", "year_offset"}:
        raise DataFormatError("fertility header must declare age_offset and "
                              "year_offset")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rows.append(tuple(float(tok) for tok in line.split(",")))
        except ValueError as exc:
            raise DataFormatError(f"fertility line {lineno}: {exc}") from exc
    return FertilityTable(rows=tuple(rows), age_offset=offsets["age_offset"],
                          year_offset=offsets["year_offset"])


def default_fertility() -> FertilityTable:
    return FertilityTable(
        rows=tuple((v,) for v in DEFAULT_FERTILITY_BY_AGE),
        age_offset=DEFAULT_FERTILITY_AGE_OFFSET,
        year_offset=DEFAULT_FERTILITY_YEAR_OFFSET)


def default_model_data() -> ModelData:
    return ModelData(fertility=default_fertility(),
                     divorce_modifier_by_decade=DEFAULT_DIVORCE_MODIFIERS,
                     male_marriage_modifier_by_decade=DEFAULT_MARRIAGE_MODIFIERS)


class RateContext:
    """Params + data + per-step probabilities for one run.

    The clock rate is fixed, so each yearly rate has one per-step value. The
    constructor converts every decade's divorce and marriage rate and every
    fertility cell once, and raises ValueError for any rate a run cannot use.
    Death rates fill one array per gender on first use, indexed by age in
    steps (NaN: not converted yet) and as long as the oldest age looked up.
    """

    def __init__(self, params: ModelParams, data: ModelData, steps_per_year: int):
        self.params = params
        self.data = data
        self.steps_per_year = steps_per_year
        # the last age in steps of decades 1..15: bisect_left(bounds, age)
        # is decade_index(age in years) - 1, without float division
        self._decade_bounds = tuple(10 * k * steps_per_year
                                    for k in range(1, 16))
        self._divorce = self._decade_table("divorce", divorce_rate_yearly)
        self._marriage = self._decade_table("marriage", marriage_rate_yearly)
        table = data.fertility
        first, last = table.age_offset, table.age_offset + len(table.rows) - 1
        if first > ADULT_YEARS or last < MOTHER_AGE_LIMIT_YEARS - 1:
            raise ValueError(f"fertility table covers ages {first}..{last}; it "
                             f"must cover {ADULT_YEARS}.."
                             f"{MOTHER_AGE_LIMIT_YEARS - 1}")
        # FertilityTable keeps its values in [0, 1), so each cell converts
        self._fertility = tuple(
            tuple(instantaneous(v, steps_per_year) for v in row)
            for row in table.rows)
        self._death = {MALE: array("d"), FEMALE: array("d")}

    def _decade_table(self, name: str, formula) -> tuple[float, ...]:
        """Per-step rate of decades 1..16, at index decade - 1."""
        table = []
        for decade in range(1, 17):
            rate = formula(decade, self.params, self.data)
            if rate >= 1:
                raise ValueError(f"yearly {name} rate in decade {decade} is "
                                 f"{rate}; base rate x modifier must be < 1")
            table.append(instantaneous(rate, self.steps_per_year))
        return tuple(table)

    def death_p_step(self, person: Person) -> float:
        memo = self._death[person.gender]
        age = person.age_steps
        if age >= len(memo):
            memo.extend(repeat(math.nan, age + 1 - len(memo)))
        p = memo[age]
        if p != p:  # NaN: not converted yet
            yearly = death_rate_yearly_at(age / self.steps_per_year,
                                          person.gender, self.params)
            p = memo[age] = instantaneous(yearly, self.steps_per_year)
        return p

    def divorce_p_step(self, man: Person) -> float:
        return self._divorce[bisect_left(self._decade_bounds, man.age_steps)]

    def marriage_p_step(self, man: Person) -> float:
        return self._marriage[bisect_left(self._decade_bounds, man.age_steps)]

    def fertility_p_step(self, woman: Person, time: SimTime) -> float:
        row, col = fertility_cell(woman.age_steps / self.steps_per_year,
                                  time.year, self.data.fertility)
        return self._fertility[row][col]
