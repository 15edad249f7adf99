"""Town grid and dynamic house set: construction, empty-house selection,
density-weighted town selection, distances."""
from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, fields
from itertools import accumulate

from .model import (HOUSE_COORD_BOUNDS, ConfigError, DataFormatError, House,
                    Person, Range, Town, WorldState, check_grid, ranged)

# built-in population density grid, 12 rows by 8 columns
DEFAULT_DENSITY_ROWS: tuple[tuple[float, ...], ...] = (
    (0.0, 0.1, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0),
    (0.1, 0.1, 0.2, 0.2, 0.3, 0.0, 0.0, 0.0),
    (0.0, 0.2, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.2, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0),
    (0.4, 0.0, 0.2, 0.2, 0.4, 0.0, 0.0, 0.0),
    (0.6, 0.0, 0.0, 0.3, 0.8, 0.2, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.6, 0.8, 0.4, 0.0, 0.0),
    (0.0, 0.0, 0.2, 1.0, 0.8, 0.6, 0.1, 0.0),
    (0.0, 0.0, 0.1, 0.2, 1.0, 0.6, 0.3, 0.4),
    (0.0, 0.0, 0.5, 0.7, 0.5, 1.0, 1.0, 0.0),
    (0.0, 0.0, 0.2, 0.4, 0.6, 1.0, 1.0, 0.0),
    (0.0, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0),
)

DEFAULT_DENSITY_SHAPE = (12, 8)


@dataclass(frozen=True, slots=True)
class DensityMap:
    """Rectangular grid of densities in [0, 1]. Any shape is accepted here;
    the file loader insists on the standard 12x8."""
    rows: tuple[tuple[float, ...], ...] = ranged(float, "[0, 1]")

    def __post_init__(self) -> None:
        check_grid("density map", self.rows, fields(self)[0].metadata[Range])

    @classmethod
    def from_text(cls, text: str) -> DensityMap:
        """Parse the on-disk format: 12 lines of 8 space-separated decimals."""
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rows.append(tuple(float(tok) for tok in line.split()))
            except ValueError as exc:
                raise DataFormatError(f"density map line {lineno}: {exc}") from exc
        n_rows, n_cols = DEFAULT_DENSITY_SHAPE
        if len(rows) != n_rows or any(len(r) != n_cols for r in rows):
            raise DataFormatError(
                f"density map must be {n_rows} rows x {n_cols} columns, got "
                f"{len(rows)} rows of widths {sorted({len(r) for r in rows})}")
        return cls(tuple(rows))

    @classmethod
    def default(cls) -> DensityMap:
        return cls(DEFAULT_DENSITY_ROWS)


def build_towns(density: DensityMap) -> dict[int, Town]:
    """One town per strictly-positive cell, ids assigned in row-major grid
    order. Zero cells are uninhabited and get no town."""
    towns: dict[int, Town] = {}
    for row_idx, row in enumerate(density.rows, start=1):
        for col_idx, value in enumerate(row, start=1):
            if value > 0:
                tid = len(towns)
                towns[tid] = Town(id=tid, grid_xy=(row_idx, col_idx), density=value)
    if not towns:
        raise ConfigError("density map has no positive cell; no towns to build")
    return towns


def manhattan(town_a: Town, town_b: Town) -> int:
    (x1, y1), (x2, y2) = town_a.grid_xy, town_b.grid_xy
    return abs(x1 - x2) + abs(y1 - y2)


def create_house(state: WorldState, town: Town, rng: random.Random) -> House:
    """New empty house in `town` at uniform integer coordinates; x drawn
    before y. The house records journal it."""
    x = rng.randint(*HOUSE_COORD_BOUNDS)
    y = rng.randint(*HOUSE_COORD_BOUNDS)
    house = House(id=state.allocate_house_id(), town=town.id, local_xy=(x, y))
    state.houses[house.id] = house
    town.houses.add(house.id)
    return house


def empty_houses(state: WorldState, town: Town) -> list[House]:
    """Empty (zero alive occupants) houses of a town, ascending id."""
    return [state.houses[hid] for hid in sorted(town.houses)
            if not state.houses[hid].occupants]


def find_or_create_empty_house(state: WorldState, town: Town,
                               rng: random.Random) -> House:
    """Uniform pick among the town's empty houses; builds one if none exist.
    The candidate list is ordered by ascending house id before the draw, which
    pins the draw sequence for reproducibility."""
    empties = empty_houses(state, town)
    if empties:
        return empties[rng.randrange(len(empties))]
    return create_house(state, town, rng)


def pick_by_totals(items: list, totals: list[float], rng: random.Random):
    """One item with probability proportional to its weight, given the
    running totals of the non-negative weights; None, with no draw, when the
    total is zero."""
    if not totals or totals[-1] <= 0.0:
        return None
    x = rng.random() * totals[-1]
    # first index whose running total exceeds x, so a zero-weight item never
    # matches; the last item if x reaches the total (rounded or infinite)
    return items[min(bisect.bisect_right(totals, x), len(items) - 1)]


def weighted_pick(items: list, weights: list[float], rng: random.Random):
    """One item with probability proportional to its non-negative weight;
    None, with no draw, when the total weight is zero."""
    return pick_by_totals(items, list(accumulate(weights)), rng)


def pick_town(towns: list[Town], totals: list[float],
              rng: random.Random) -> Town:
    """Density-weighted town selection, given the running density totals."""
    town = pick_by_totals(towns, totals, rng)
    if town is None:
        raise ConfigError("total town density is zero" if towns
                          else "no towns to select from")
    return town


def weighted_town(towns: list[Town], rng: random.Random) -> Town:
    """Density-weighted town selection."""
    return pick_town(towns, list(accumulate(t.density for t in towns)), rng)


def move_person(state: WorldState, person: Person, house: House) -> None:
    """Re-house a person, keeping both occupant sets consistent."""
    leave_house(state, person)
    person.house = house.id
    house.occupants.add(person.id)


def leave_house(state: WorldState, person: Person) -> None:
    """Drop the person's house reference (used at death)."""
    if person.house is not None and person.house in state.houses:
        state.houses[person.house].occupants.discard(person.id)
    person.house = None
