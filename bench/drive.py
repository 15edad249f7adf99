"""Child-process side of the benchmark. Each mode runs one demosim workload
in this process and, except `cli`, prints one JSON object on its last
stdout line. bench.py starts it with `src` on PYTHONPATH.

  drive.py cli ARGS...                  demosim.cli.main(ARGS), untraced
  drive.py setup CONFIG SECONDS SEEDS   time the calls run() makes before
                                        step 1, at least once and for at
                                        least SECONDS
  drive.py traced CONFIG OUT SEEDS      the traced run: every layer call
                                        timed from outside, one span each

SEEDS is a comma-separated list, one seed per replicate; replicate r
writes under OUT/replicate_00r when there is more than one, as run_batch
does. The traced run calls each module's public functions in the order
init_world, run and step use them, so it reproduces run()'s draws, state
digest and timeseries.csv; bench.py fails the run if it does not.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import replace
from datetime import datetime, timezone
from time import perf_counter

from demosim.cli import main as cli_main, parse_config
from demosim.engine import (RunConfig, TimeSeries, resolve_seed,
                            state_digest, write_artifacts)
from demosim.events import (StepOutcome, ageing, births, deaths, divorces,
                            marriages, validate_event_order)
from demosim.initialization import (InitReport, assign_genders,
                                    assign_housing, assign_parents,
                                    init_partnerships, init_world, sample_age,
                                    town_population_targets)
from demosim.model import (ADULT_YEARS, AssumptionFailure, IntegrityError,
                           SimTime, WorldState, validate_world)
from demosim.predicates import SnapshotStore
from demosim.rates import RateContext
from demosim.space import build_towns
from demosim.verification import (SpaceDigest, build_registry, check_initial,
                                  check_retrospective)

_EVENTS = {"ageing": ageing, "deaths": deaths, "births": births,
           "divorces": divorces}


class Tracer:
    """Self time per span name. A span's self time is its duration minus
    the time of the spans and leaves recorded inside it, so the self times
    of a run add up to the time covered by any span."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self._child: list[float] = []

    def call(self, name: str, fn, *args):
        self._child.append(0.0)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            inner = self._child.pop()
            self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - inner
            if self._child:
                self._child[-1] += elapsed

    def leaf(self, name: str, elapsed: float) -> None:
        """Record a span that was timed by the caller and has no children."""
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed
        if self._child:
            self._child[-1] += elapsed


class TracedRates(RateContext):
    """RateContext whose lookups are timed as leaves of the calling event,
    with the death-rate calls and distinct keys counted."""

    def __init__(self, params, data, steps_per_year: int,
                 tracer: Tracer) -> None:
        super().__init__(params, data, steps_per_year)
        self._leaf = tracer.leaf
        self.death_calls = 0
        self.death_keys: set[tuple[str, int]] = set()

    def death_p_step(self, person):
        self.death_calls += 1
        self.death_keys.add((person.gender, person.age_steps))
        start = perf_counter()
        p = RateContext.death_p_step(self, person)
        self._leaf("rates.death_p_step_s", perf_counter() - start)
        return p

    def divorce_p_step(self, man):
        start = perf_counter()
        p = RateContext.divorce_p_step(self, man)
        self._leaf("rates.other_p_step_s", perf_counter() - start)
        return p

    def marriage_p_step(self, man):
        start = perf_counter()
        p = RateContext.marriage_p_step(self, man)
        self._leaf("rates.other_p_step_s", perf_counter() - start)
        return p

    def fertility_p_step(self, woman, time):
        start = perf_counter()
        p = RateContext.fertility_p_step(self, woman, time)
        self._leaf("rates.other_p_step_s", perf_counter() - start)
        return p


class Counts:
    """Exact counts gathered at the layer boundaries of a driven run."""

    def __init__(self) -> None:
        self.adult_moves = 0
        self.step_houses = 0
        self.scanned = 0
        self.alive_at_events = 0
        self.records_at_events = 0
        self.snapshot_persons = 0


def _count_alive(state: WorldState) -> int:
    return sum(1 for p in state.persons.values() if p.alive)


def _genders_ages(persons, rng: random.Random, spy: int) -> None:
    assign_genders(persons, rng)
    for p in persons:
        p.age_steps = sample_age(rng, spy)
        p.born_step = -p.age_steps


def traced_init_world(config: RunConfig, rng: random.Random,
                      tracer: Tracer) -> tuple[WorldState, InitReport]:
    """init_world's body, one span per phase. Building towns and empty
    persons is left outside any span."""
    params, sim = config.model, config.sim
    spy = sim.steps_per_year
    state = WorldState(time=SimTime(step_index=0, t0_year=sim.t0,
                                    steps_per_year=spy))
    state.towns = build_towns(config.density)
    targets = town_population_targets(params.initial_pop, config.density)
    for tid in sorted(targets):
        for _ in range(targets[tid]):
            state.add_person(gender="", age_steps=0, born_step=0)
    persons = list(state.persons.values())
    call = tracer.call
    call("initialization.genders_ages_s", _genders_ages, persons, rng, spy)
    couples, left_single = call("initialization.init_partnerships_s",
                                init_partnerships, state, params, rng)
    assigned, parentless = call("initialization.assign_parents_s",
                                assign_parents, state, rng)
    houses = call("initialization.assign_housing_s", assign_housing, state,
                  rng)
    adults = sum(1 for p in persons
                 if p.age_steps >= ADULT_YEARS * spy)
    return state, InitReport(
        per_town=targets, persons_total=len(persons), adults=adults,
        children=len(persons) - adults, couples=couples,
        males_left_single=left_single, children_assigned_parents=assigned,
        parentless_children=tuple(parentless), houses_created=houses)


def _step(state, ctx, snaps, rng, event_order, tracer, counts: Counts,
          alive_before: int) -> StepOutcome:
    """events.step, one span per event and for the snapshot freeze."""
    call = tracer.call
    order = call("engine.validate_event_order_s", validate_event_order,
                 event_order)
    state.time.step_index += 1
    prev = snaps.before(state.time.step_index)
    outcome = StepOutcome(step_index=state.time.step_index)
    for name in order:
        counts.alive_at_events += (alive_before + len(outcome.born)
                                   - len(outcome.died))
        counts.records_at_events += len(state.persons)
        if name == "marriages":
            call("events.marriages_s", marriages, state, ctx, prev, rng,
                 outcome)
        else:
            call(f"events.{name}_s", _EVENTS[name], state, ctx, rng, outcome)
    call("predicates.snapshot_freeze_s", snaps.freeze, state)
    counts.snapshot_persons += len(state.persons)
    counts.adult_moves += len(outcome.adults_moved)
    counts.step_houses += len(outcome.houses_created)
    return outcome


def run_steps(config: RunConfig, state: WorldState, report: InitReport,
              seed: int, ctx: RateContext, rng: random.Random, registry,
              initial_violations: list, tracer, counts: Counts) -> dict:
    """run() from the first time-series row to the artifacts, with one
    span per layer call. Returns the run's digest, time series and workload
    facts."""
    call = tracer.call
    sim = config.sim
    spy = sim.steps_per_year
    series = TimeSeries()
    violations = list(initial_violations)
    totals = {"births": 0, "deaths": 0, "marriages": 0, "divorces": 0}
    call("engine.timeseries_append_s", series.append, state, 0, 0, 0, 0, 0,
         len(initial_violations))
    if violations and config.verification_mode == "fail":
        raise AssumptionFailure(f"initial: {violations[0]}")
    snaps = SnapshotStore()
    call("predicates.snapshot_freeze_s", snaps.freeze, state)
    space_before = call("verification.space_digest_s", SpaceDigest.of, state)
    checks = [(f"verification.{a.label}_s" if a.kind == "hard"
               else "verification.noop_checks_s", a.check)
              for a in registry if a.scope == "every_step"]

    total_steps = (sim.t_final - sim.t0) * spy
    for i in range(1, total_steps + 1):
        alive_before = call("engine.conservation_count_s", _count_alive,
                            state)
        outcome = _step(state, ctx, snaps, rng, config.event_order, tracer,
                        counts, alive_before)
        alive_after = call("engine.conservation_count_s", _count_alive,
                           state)
        if alive_after - alive_before != outcome.births - outcome.deaths:
            raise IntegrityError(f"step {i}: alive delta does not match "
                                 f"births - deaths")
        counts.scanned += len(state.persons) + len(state.houses)
        step_violations = []
        for name, check in checks:
            step_violations.extend(call(name, check, state, snaps))
        step_violations.extend(call("verification.check_retrospective_s",
                                    check_retrospective, space_before,
                                    state))
        space_before = call("verification.space_digest_s", SpaceDigest.of,
                            state)
        violations.extend(step_violations)
        totals["births"] += outcome.births
        totals["deaths"] += outcome.deaths
        totals["marriages"] += outcome.marriages
        totals["divorces"] += outcome.divorces
        call("engine.timeseries_append_s", series.append, state, i,
             outcome.births, outcome.deaths, outcome.marriages,
             outcome.divorces, len(step_violations))
        if step_violations and config.verification_mode == "fail":
            raise AssumptionFailure(f"step {i}: {step_violations[0]}")

    digest = call("engine.state_digest_s", state_digest, state)
    alive = _count_alive(state)
    if config.out_dir is not None:
        summary = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "config": config.config_echo, "seed": seed,
            "event_order": list(config.event_order),
            "verification_mode": config.verification_mode,
            "steps_completed": total_steps, "steps_planned": total_steps,
            "aborted_on_violation": False, "final_digest": digest,
            "totals": dict(totals, violations=len(violations)),
            "final_alive": alive, "final_houses": len(state.houses),
            "init": report.to_dict(),
        }
        call("engine.write_artifacts_s", write_artifacts, config.out_dir,
             series, violations, summary)
    return {
        "digest": digest,
        "series": series,
        "violations": len(violations),
        "facts": {
            "steps": total_steps,
            "persons_start": report.persons_total,
            "persons_ever": len(state.persons),
            "alive_end": alive,
            "person_steps": sum(row[2] for row in series.rows[1:]),
            "births": totals["births"], "deaths": totals["deaths"],
            "marriages": totals["marriages"],
            "divorces": totals["divorces"],
            "adult_moves": counts.adult_moves,
            "houses": len(state.houses),
        },
    }


def _hash_series(result: dict) -> dict:
    """Replace the time series by the sha256 of its timeseries.csv."""
    series = result.pop("series")
    result["timeseries_sha256"] = hashlib.sha256(
        series.to_csv().encode()).hexdigest()
    return result


def _config_for(path: str, seed: int, out_dir: str | None) -> RunConfig:
    """The config `demosim run --config PATH --seed SEED --out OUT` runs."""
    config = parse_config(path)
    config.sim = replace(config.sim, seed=seed)
    config.config_echo["seed"] = seed
    config.out_dir = out_dir
    config.config_echo["out_dir"] = out_dir or ""
    return config


def _set_up(config: RunConfig):
    """The calls run() makes before step 1, timed as one; returns the time
    and the world set up."""
    start = perf_counter()
    rng = random.Random(resolve_seed(config.sim.seed))
    registry = build_registry(config.event_order)
    state, _ = init_world(config.model, config.sim, config.data,
                          config.density, rng)
    problems = validate_world(state)
    if problems:
        raise IntegrityError(f"initialization produced a broken world: "
                             f"{problems[:5]}")
    check_initial(state, registry)
    return perf_counter() - start, state


def set_up_mode(path: str, seconds: float, seeds: list[int]) -> dict:
    """Samples at least once and until `seconds` have passed. A sample sets
    up each replicate in turn and is the sum."""
    setup_s, initial_digests = [], []
    start = perf_counter()
    while not setup_s or perf_counter() - start < seconds:
        digests, setup_total = [], 0.0
        for seed in seeds:
            elapsed, state = _set_up(_config_for(path, seed, None))
            setup_total += elapsed
            digests.append(state_digest(state))
        setup_s.append(setup_total)
        initial_digests.append(digests)
    return {"setup_s": setup_s, "initial_digests": initial_digests}


def traced_mode(path: str, out: str, seeds: list[int]) -> dict:
    """Every replicate in turn, traced. Counts and self times are summed
    over the replicates."""
    tracer = Tracer()
    call = tracer.call
    replicates, counts = [], []
    death_calls = death_keys = 0
    for r, seed in enumerate(seeds):
        out_dir = (os.path.join(out, f"replicate_{r:03d}")
                   if len(seeds) > 1 else out)
        config = call("cli.parse_config_s", _config_for, path, seed, out_dir)
        rng = random.Random(resolve_seed(config.sim.seed))
        ctx = TracedRates(config.model, config.data,
                          config.sim.steps_per_year, tracer)
        registry = build_registry(config.event_order)
        state, report = traced_init_world(config, rng, tracer)
        problems = call("model.validate_world_s", validate_world, state)
        if problems:
            raise IntegrityError(f"initialization produced a broken world: "
                                 f"{problems[:5]}")
        initial = call("verification.check_initial_s", check_initial, state,
                       registry)
        counts.append(Counts())
        result = run_steps(config, state, report, seed, ctx, rng, registry,
                           initial, tracer, counts[-1])
        replicates.append(_hash_series(result))
        death_calls += ctx.death_calls
        death_keys += len(ctx.death_keys)
    totals = {key: sum(getattr(c, key) for c in counts)
              for key in ("scanned", "alive_at_events", "records_at_events",
                          "snapshot_persons", "step_houses")}
    return {"self_s": tracer.self_s, "runs": replicates,
            "counts": dict(totals, death_calls=death_calls,
                           death_keys=death_keys)}


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return cli_main(rest)
    seeds = [int(s) for s in rest[-1].split(",")]
    if mode == "setup":
        result = set_up_mode(rest[0], float(rest[1]), seeds)
    elif mode == "traced":
        result = traced_mode(rest[0], rest[1], seeds)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 64
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
