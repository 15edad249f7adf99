"""Yearly-to-instantaneous rate conversion and the demographic rate formulas.

All *_yearly functions return per-year probabilities; `instantaneous` turns
them into per-step probabilities for a clock running n_per_year steps a year.
RateContext composes the two on each lookup, so each formula is written once.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .model import (ADULT_YEARS, MALE, MOTHER_AGE_LIMIT_YEARS,
                    DataFormatError, FertilityTable, ModelData, ModelParams,
                    Person, SimTime)

# death rates are clamped to this before conversion; the exponential term
# crosses 1.0 around age 118 for males
MAX_YEARLY_RATE = 1.0 - 1e-12

# a death band ceiling is the rate at the band's upper end times this, so
# that libm rounding inside the band cannot put a lookup above it
_DEATH_BAND_MARGIN = 1.0 + 1e-9

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
    p = -math.log1p(-p_yearly) / n_per_year
    # min(1.0, p) without the call: the same operand wins, NaN included
    return p if p < 1.0 else 1.0


def death_rate_yearly_at(age: float, gender: str, params: ModelParams) -> float:
    """basic + exp(age / scaling) x age rate, clamped to MAX_YEARLY_RATE. An
    exponential beyond a double's range makes the age term +inf, or 0 when
    the age rate is 0 (never inf x 0, which is NaN)."""
    if gender == MALE:
        scaling, age_rate = params.male_age_scaling, params.male_age_death_rate
    else:
        scaling, age_rate = (params.female_age_scaling,
                             params.female_age_death_rate)
    if not age_rate:
        term = 0.0
    else:
        try:
            term = math.exp(age / scaling) * age_rate
        except OverflowError:
            term = math.inf
    rate = params.basic_death_rate + term
    # min(rate, MAX_YEARLY_RATE) without the call: the same operand wins
    return MAX_YEARLY_RATE if MAX_YEARLY_RATE < rate else rate


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
    """The cell of a floored age and a calendar year. The year clamps to the
    table edges; an age outside the table means the reproducibility
    precondition failed upstream, so that raises instead."""
    row = int(age) - table.age_offset
    if not 0 <= row < len(table.rows):
        raise ValueError(f"age {age:.2f} outside fertility table (rows "
                         f"{table.age_offset}.."
                         f"{table.age_offset + len(table.rows) - 1})")
    cells = table.rows[row]
    return cells[min(max(year - table.year_offset, 0), len(cells) - 1)]


def load_fertility_text(text: str) -> FertilityTable:
    """Parse the fertility file format: a header line
    "age_offset=<int> year_offset=<int>", then one comma-separated row of
    per-year rates per age."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataFormatError("fertility file is empty")
    header = dict(token.partition("=")[::2] for token in lines[0].split())
    if header.keys() != {"age_offset", "year_offset"}:
        raise DataFormatError(f"fertility header must declare age_offset and "
                              f"year_offset alone, got {lines[0]!r}")
    try:
        offsets = {key: int(value) for key, value in header.items()}
    except ValueError as exc:
        raise DataFormatError(f"fertility header: {exc}") from None
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rows.append(tuple(float(tok) for tok in line.split(",")))
        except ValueError as exc:
            raise DataFormatError(f"fertility line {lineno}: {exc}") from exc
    return FertilityTable(rows=tuple(rows), **offsets)


def default_fertility() -> FertilityTable:
    return FertilityTable(
        rows=tuple((v,) for v in DEFAULT_FERTILITY_BY_AGE),
        age_offset=DEFAULT_FERTILITY_AGE_OFFSET,
        year_offset=DEFAULT_FERTILITY_YEAR_OFFSET)


def default_model_data() -> ModelData:
    return ModelData(fertility=default_fertility(),
                     divorce_modifier_by_decade=DEFAULT_DIVORCE_MODIFIERS,
                     male_marriage_modifier_by_decade=DEFAULT_MARRIAGE_MODIFIERS)


class _AgedStandIn(NamedTuple):
    """The two fields death_p_step reads, for a lookup at an age that no
    person on record need have."""
    gender: str
    age_steps: int


class RateContext:
    """Params + data + the clock rate of one run, with per-step lookups.

    The constructor raises ValueError for any rate a run cannot use. Each
    lookup converts its yearly formula with `instantaneous` on the spot, so
    a lookup is the formula itself; only the death bands below are kept.

    Each event also has a ceiling that every one of its lookups is at or
    below: for deaths the converted clamp, MAX_YEARLY_RATE, and for the
    other three the largest converted rate over the decades or the
    fertility cells, which some lookup attains. An event kernel draws u
    first and looks the rate up only when u < ceiling, since u >= ceiling
    already means u >= the rate: the same decision from the same draw.
    Deaths test a draw against death_band instead, the ceiling of the
    person's gender and whole year of age, which is clamped to the deaths
    ceiling; only a draw below it reads death_p_step. This is thinning
    under a piecewise-constant majorant (Lewis and Shedler 1979).
    """

    def __init__(self, params: ModelParams, data: ModelData, steps_per_year: int):
        self.params = params
        self.data = data
        self.steps_per_year = steps_per_year
        self.divorce_ceiling = self._decade_ceiling("divorce",
                                                    divorce_rate_yearly)
        self.marriage_ceiling = self._decade_ceiling("marriage",
                                                     marriage_rate_yearly)
        table = data.fertility
        first, last = table.age_offset, table.age_offset + len(table.rows) - 1
        if first > ADULT_YEARS or last < MOTHER_AGE_LIMIT_YEARS - 1:
            raise ValueError(f"fertility table covers ages {first}..{last}; it "
                             f"must cover {ADULT_YEARS}.."
                             f"{MOTHER_AGE_LIMIT_YEARS - 1}")
        # FertilityTable keeps its values in [0, 1), so each cell converts
        self.fertility_ceiling = max(instantaneous(v, steps_per_year)
                                     for row in table.rows for v in row)
        self.death_ceiling = instantaneous(MAX_YEARLY_RATE, steps_per_year)
        # gender -> death_band of whole years 0, 1, ... up to the oldest
        # year looked up: one float per year at any clock rate
        self._death_bands: dict[str, list[float]] = {}

    def _decade_ceiling(self, name: str, formula) -> float:
        """The largest per-step rate over decades 1..16, taken after the
        conversion so that some decade's lookup returns it exactly."""
        rates = []
        for decade in range(1, 17):
            rate = formula(decade, self.params, self.data)
            if rate >= 1:
                raise ValueError(f"yearly {name} rate in decade {decade} is "
                                 f"{rate}; base rate x modifier must be < 1")
            rates.append(instantaneous(rate, self.steps_per_year))
        return max(rates)

    def death_p_step(self, person: Person) -> float:
        spy = self.steps_per_year
        return instantaneous(death_rate_yearly_at(person.age_steps / spy,
                                                  person.gender, self.params),
                             spy)

    def death_band(self, gender: str, years: int) -> float:
        """A per-step death ceiling for every age of `gender` from `years`
        to just under `years + 1` whole years: death_p_step at the upper
        end, raised by _DEATH_BAND_MARGIN and clamped to death_ceiling. The
        yearly death rate never falls with age, since ModelParams keeps
        the scalings > 0 and the rates >= 0, so the upper end bounds the
        band. The bands are filled through death_p_step when first looked
        up, so the rate formula is written once."""
        try:
            return self._death_bands[gender][years]
        except (KeyError, IndexError):
            pass
        bands = self._death_bands.setdefault(gender, [])
        spy, ceiling = self.steps_per_year, self.death_ceiling
        for year in range(len(bands), years + 1):
            upper = self.death_p_step(_AgedStandIn(gender, (year + 1) * spy))
            bands.append(min(_DEATH_BAND_MARGIN * upper, ceiling))
        return bands[years]

    def divorce_p_step(self, man: Person) -> float:
        spy = self.steps_per_year
        return instantaneous(divorce_rate_yearly(
            decade_index(man.age_steps / spy), self.params, self.data), spy)

    def marriage_p_step(self, man: Person) -> float:
        spy = self.steps_per_year
        return instantaneous(marriage_rate_yearly(
            decade_index(man.age_steps / spy), self.params, self.data), spy)

    def fertility_p_step(self, woman: Person, time: SimTime) -> float:
        spy = self.steps_per_year
        return instantaneous(fertility_rate_yearly(
            woman.age_steps / spy, time.year, self.data.fertility), spy)
