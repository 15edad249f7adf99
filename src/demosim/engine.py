"""Run orchestration: seed resolution, world construction, the step loop,
verification dispatch, time-series accumulation, and artifact output.

Determinism contract: one RNG stream per run, consumed in a fixed order
(initialization phases first, then per step in the configured event order,
within each event in ascending person id). Same seed + same config gives an
identical draw sequence and byte-identical artifacts apart from the
generated_at timestamp.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import secrets
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from operator import itemgetter

from .events import (DEFAULT_EVENT_ORDER, StepOutcome, step,
                     validate_event_order)
from .initialization import InitReport, init_world
from .model import (EMPTY_WINDOW, AssumptionFailure, IntegrityError,
                    ModelData, ModelParams, SimulationParams, WorldState,
                    validate_world)
from .predicates import SnapshotStore
from .rates import RateContext
from .space import DensityMap, build_towns
from .verification import (Violation, build_registry, check_initial,
                           check_space, check_step)

TIMESERIES_HEADER = ("step", "year", "alive", "males", "females", "births",
                     "deaths", "marriages", "divorces", "mean_age_years",
                     "houses_total", "houses_empty", "violations")


_ALIVE = TIMESERIES_HEADER.index("alive")
# the columns summary.json totals, by their index in a row
_TOTALS = {name: TIMESERIES_HEADER.index(name) for name in (
    "births", "deaths", "marriages", "divorces", "violations")}


@dataclass(slots=True)
class RunConfig:
    sim: SimulationParams
    model: ModelParams
    data: ModelData
    density: DensityMap
    event_order: tuple[str, ...] = DEFAULT_EVENT_ORDER
    verification_mode: str = "fail"
    out_dir: str | None = None
    # effective flat config for the summary echo; CLI fills it, API users may
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_event_order(self.event_order)
        # "" from a config file, --out or the API alike: no artifacts
        self.out_dir = self.out_dir or None
        if self.verification_mode not in ("warn", "fail"):
            raise ValueError(
                f"verification_mode must be warn or fail, "
                f"got {self.verification_mode!r}")
        # building the rate context rejects rates a run cannot use,
        # and building the towns a density map with no inhabited cell
        RateContext(self.model, self.data, self.sim.steps_per_year)
        build_towns(self.density)


def _empty_houses(state: WorldState) -> int:
    """The houses with no occupant, kept in state.kept as (the step they
    were counted at, their ids): only the houses in the change window since
    that step (each house written, left or moved into) are tested again, or
    every house when the window cannot tell. On EMPTY_WINDOW the count
    stands, and so does its step, which the window reaches back to."""
    houses = state.houses
    at, empty = state.kept.get(_empty_houses, (None, None))
    changed = state.changed_since(at)
    if changed is EMPTY_WINDOW:
        return len(empty)
    if changed is None:
        empty = {hid for hid, h in houses.items() if not h.occupants}
    else:
        empty -= changed[1]
        empty |= {hid for hid in changed[1]
                  if hid in houses and not houses[hid].occupants}
    state.kept[_empty_houses] = (state.time.step_index, empty)
    return len(empty)


@dataclass(slots=True)
class TimeSeries:
    """The rows of timeseries.csv, from counts kept on the state."""
    rows: list[tuple] = field(default_factory=list)
    def append(self, state: WorldState, step_index: int, births: int,
               deaths: int, marriages: int, divorces: int,
               violations: int) -> None:
        # Run.advance's conservation check compares consecutive rows, so the
        # counts are kept by the person writes (WorldState.census), not by
        # the events: a death no event reports still moves them
        alive, males, born_sum = state.census()
        time = state.time
        spy = time.steps_per_year
        # each living person's age is now - born_step: the same integer sum
        age_sum = alive * time.step_index - born_sum
        mean_age = age_sum / alive / spy if alive else 0.0
        empty = _empty_houses(state)
        self.rows.append((
            step_index,
            time.t0_year + step_index // spy,
            alive, males, alive - males,
            births, deaths, marriages, divorces,
            round(mean_age, 6),
            len(state.houses), empty, violations,
        ))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TIMESERIES_HEADER)
        writer.writerows(self.rows)
        return buf.getvalue()


@dataclass(slots=True)
class RunResult:
    timeseries: TimeSeries
    digest: str
    violations: list[Violation]
    state: WorldState
    init_report: InitReport
    seed: int
    summary: dict


def resolve_seed(seed: int | str) -> int:
    """A literal seed is used as-is; "random" draws entropy at startup. The
    resolved value is echoed into summary.json either way."""
    if seed == "random":
        return secrets.randbits(64)
    return int(seed)


def state_digest(state: WorldState) -> str:
    """64-bit content hash over a canonical (sorted) serialization of the
    world. Equal states give equal digests regardless of dict history."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((state.time.step_index, state.time.t0_year,
                   state.time.steps_per_year, state.next_person_id,
                   state.next_house_id)).encode())
    for pid in sorted(state.persons):
        p = state.persons[pid]
        h.update(repr((p.id, p.gender, p.age_steps, p.born_step, p.alive,
                       p.partner, p.father, p.mother, sorted(p.children),
                       p.ever_partners, p.house, p.gave_birth)).encode())
    for hid in sorted(state.houses):
        house = state.houses[hid]
        h.update(repr((house.id, house.town, house.local_xy,
                       sorted(house.occupants))).encode())
    for tid in sorted(state.towns):
        t = state.towns[tid]
        h.update(repr((t.id, t.grid_xy, t.density, sorted(t.houses))).encode())
    return h.hexdigest()


def violations_csv(violations: list[Violation]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("step", "label", "ids", "detail"))
    for v in violations:
        writer.writerow((v.step_index, v.label,
                         ";".join(str(i) for i in v.ids), v.detail))
    return buf.getvalue()


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_artifacts(out_dir: str, series: TimeSeries,
                    violations: list[Violation], summary: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "timeseries.csv"), series.to_csv())
    _atomic_write(os.path.join(out_dir, "violations.csv"),
                  violations_csv(violations))
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")


class Run:
    """One run: Run(config) builds and checks the world (step 0), advance()
    runs one step and finish() returns the RunResult. In fail mode the first
    violating step raises AssumptionFailure after writing the artifacts so
    far; warn mode records violations and goes on. A Run pickles and copies."""

    def __init__(self, config: RunConfig) -> None:
        self.config, sim = config, config.sim
        self.seed = resolve_seed(sim.seed)
        self.rng = random.Random(self.seed)
        self.ctx = RateContext(config.model, config.data, sim.steps_per_year)
        self.registry = build_registry(config.event_order)
        self.steps_planned = (sim.t_final - sim.t0) * sim.steps_per_year
        self.state, self.init_report = init_world(
            config.model, sim, config.data, config.density, self.rng)
        if problems := validate_world(self.state):
            raise IntegrityError(
                f"initialization produced a broken world: {problems[:5]}")
        self.series = TimeSeries()
        self.violations = check_initial(self.state, self.registry)
        self.series.append(self.state, 0, 0, 0, 0, 0, len(self.violations))
        if self.violations and config.verification_mode == "fail":
            self.fail()
        self.snaps = SnapshotStore()
        self.snaps.freeze(self.state)
        check_space(self.state)  # keeps the space step 1 is checked against

    def advance(self) -> StepOutcome:
        """One step: the events, the per-step and space checks, the
        time-series row and the conservation check."""
        state, snaps = self.state, self.snaps
        outcome = step(state, self.ctx, snaps, self.rng,
                       self.config.event_order)
        i = outcome.step_index
        found = check_step(state, snaps, self.registry)
        found.extend(check_space(state))
        self.violations.extend(found)
        births, deaths = len(outcome.born), len(outcome.died)
        rows = self.series.rows
        self.series.append(state, i, births, deaths, len(outcome.married),
                           len(outcome.divorced), len(found))
        # checks do not mutate, so the last two rows bracket this step
        delta = rows[-1][_ALIVE] - rows[-2][_ALIVE]
        if delta != births - deaths:
            raise IntegrityError(
                f"step {i}: alive delta {delta} != "
                f"births {births} - deaths {deaths}")
        if found and self.config.verification_mode == "fail":
            self.fail()
        return outcome

    def summarize(self, aborted: bool) -> tuple[str, dict]:
        """The digest and summary so far; writes the artifacts to an out_dir."""
        config, rows = self.config, self.series.rows
        digest = state_digest(self.state)
        # the seed (drawn or not) and directory used, so the echo reruns it
        own = {"seed": self.seed, "out_dir": config.out_dir or ""}
        summary = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "config": {k: own.get(k, v)
                       for k, v in config.config_echo.items()},
            "seed": self.seed,
            "event_order": list(config.event_order),
            "verification_mode": config.verification_mode,
            "steps_completed": self.state.time.step_index,
            "steps_planned": self.steps_planned,
            "aborted_on_violation": aborted,
            "final_digest": digest,
            "totals": {name: sum(map(itemgetter(i), rows))
                       for name, i in _TOTALS.items()},
            "final_alive": rows[-1][_ALIVE],
            "final_houses": len(self.state.houses),
            "init": self.init_report.to_dict(),
        }
        if config.out_dir is not None:
            write_artifacts(config.out_dir, self.series, self.violations,
                            summary)
        return digest, summary

    def fail(self) -> None:
        self.summarize(aborted=True)
        first = self.violations[0]
        raise AssumptionFailure(
            f"{len(self.violations)} violation(s); first: {first.label} at "
            f"step {first.step_index}: {first.detail}")

    def finish(self) -> RunResult:
        digest, summary = self.summarize(aborted=False)
        return RunResult(self.series, digest, self.violations,
                         self.state, self.init_report, self.seed, summary)


def run(config: RunConfig) -> RunResult:
    """Execute one full run: init, initial checks, (t_final - t0) * N steps
    of events + per-step checks + space checks from the journal (see Run)."""
    r = Run(config)
    for _ in range(r.steps_planned):
        r.advance()
    return r.finish()


def run_batch(config: RunConfig, replicates: int,
              base_seed: int) -> list[RunResult]:
    """Run independent replicates one after another, replicate r seeded
    with base_seed + r; no state is shared between them. Each echoes its
    own seed and directory where the config echo has those keys (see
    Run.summarize)."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    results = []
    for r in range(replicates):
        seed = base_seed + r
        out = (os.path.join(config.out_dir, f"replicate_{r:03d}")
               if config.out_dir is not None else None)
        results.append(run(replace(
            config, sim=replace(config.sim, seed=seed), out_dir=out)))
    return results
