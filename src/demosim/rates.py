"""Yearly-to-instantaneous rate conversion and the demographic rate formulas.

All *_yearly functions return per-year probabilities; `instantaneous` turns
them into per-step probabilities for a clock running n_per_year steps a year.
"""
from __future__ import annotations

import math

from .model import (ADULT_YEARS, MALE, MOTHER_AGE_LIMIT_YEARS,
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


def fertility_rate_yearly(age: float, year: int,
                          table: FertilityTable) -> float:
    """Table lookup by (floored age, calendar year). The year column clamps to
    the table edges; an age outside the table means the reproducibility
    precondition was violated upstream, so that raises instead."""
    row = int(age) - table.age_offset
    if not 0 <= row < len(table.rows):
        raise ValueError(f"age {age:.2f} outside fertility table (rows "
                         f"{table.age_offset}.."
                         f"{table.age_offset + len(table.rows) - 1})")
    col = min(max(year - table.year_offset, 0), len(table.rows[0]) - 1)
    return table.rows[row][col]


def check_yearly_rates(params: ModelParams, data: ModelData) -> None:
    """Raise ValueError unless a run can look up every yearly rate it needs
    and convert it to a per-step one: the divorce and marriage rate of each
    decade must be < 1, and the fertility table must cover each age a mother
    can have (FertilityTable itself keeps its values < 1)."""
    for decade in range(1, 17):
        for name, formula in (("divorce", divorce_rate_yearly),
                              ("marriage", marriage_rate_yearly)):
            rate = formula(decade, params, data)
            if rate >= 1:
                raise ValueError(f"yearly {name} rate in decade {decade} is "
                                 f"{rate}; base rate x modifier must be < 1")
    table = data.fertility
    first, last = table.age_offset, table.age_offset + len(table.rows) - 1
    if first > ADULT_YEARS or last < MOTHER_AGE_LIMIT_YEARS - 1:
        raise ValueError(f"fertility table covers ages {first}..{last}; it "
                         f"must cover {ADULT_YEARS}.."
                         f"{MOTHER_AGE_LIMIT_YEARS - 1}")


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
    """Params + data + per-step-probability caches for one run.

    Every age bucket maps to the same per-step probability for the whole run
    (the clock rate is fixed), so memoizing the converted formulas by
    (gender, age_steps), decade, or (age in years, calendar year) is
    behavior-preserving and keeps the hot event loops cheap.
    """

    def __init__(self, params: ModelParams, data: ModelData, steps_per_year: int):
        self.params = params
        self.data = data
        self.steps_per_year = steps_per_year
        self._death: dict[tuple[str, int], float] = {}
        self._divorce: dict[int, float] = {}
        self._marriage: dict[int, float] = {}
        self._fertility: dict[tuple[int, int], float] = {}

    def death_p_step(self, person: Person) -> float:
        key = (person.gender, person.age_steps)
        p = self._death.get(key)
        if p is None:
            yearly = death_rate_yearly_at(person.age_steps / self.steps_per_year,
                                          person.gender, self.params)
            p = self._death[key] = instantaneous(yearly, self.steps_per_year)
        return p

    def divorce_p_step(self, man: Person) -> float:
        decade = decade_index(man.age_steps / self.steps_per_year)
        p = self._divorce.get(decade)
        if p is None:
            yearly = divorce_rate_yearly(decade, self.params, self.data)
            p = self._divorce[decade] = instantaneous(yearly, self.steps_per_year)
        return p

    def marriage_p_step(self, man: Person) -> float:
        decade = decade_index(man.age_steps / self.steps_per_year)
        p = self._marriage.get(decade)
        if p is None:
            yearly = marriage_rate_yearly(decade, self.params, self.data)
            p = self._marriage[decade] = instantaneous(yearly, self.steps_per_year)
        return p

    def fertility_p_step(self, woman: Person, time: SimTime) -> float:
        age = woman.age_steps / self.steps_per_year
        key = (int(age), time.year)
        p = self._fertility.get(key)
        if p is None:
            yearly = fertility_rate_yearly(age, time.year, self.data.fertility)
            p = self._fertility[key] = instantaneous(yearly, self.steps_per_year)
        return p
