"""Discrete-time, fixed-step demographic simulation over a town grid, with
snapshot-based temporal predicates and runtime assumption verification."""
from .engine import (Run, RunConfig, RunResult, TimeSeries, resolve_seed,
                     run, run_batch, state_digest)
from .events import (DEFAULT_EVENT_ORDER, StepOutcome, age_factor,
                     children_factor, geo_factor, marriage_weight, step)
from .initialization import InitReport, init_world
from .model import (ADULT_YEARS, FEMALE, MALE, AssumptionFailure, ConfigError,
                    DataFormatError, FertilityTable, House, IntegrityError,
                    MissingSnapshotError, ModelData, ModelParams, Person,
                    SimTime, SimulationError, SimulationParams, Town,
                    WorldState, validate_world)
from .predicates import (BooleanPredicate, GroupPredicate, Snapshot,
                         SnapshotStore, SubPopulation, children_of, combine,
                         filter_pop, filtered_group, group_of_filtered, just,
                         negate, parents_of, pre, siblings_of)
from .rates import (RateContext, default_fertility, default_model_data,
                    instantaneous, load_fertility_text)
from .space import DensityMap, build_towns, manhattan, weighted_town
from .verification import (Assumption, Violation, build_registry,
                           check_initial, check_retrospective, check_step)

__version__ = "0.1.0"

__all__ = [
    "ADULT_YEARS", "Assumption", "AssumptionFailure", "BooleanPredicate",
    "ConfigError", "DEFAULT_EVENT_ORDER", "DataFormatError", "DensityMap",
    "FEMALE", "FertilityTable", "GroupPredicate", "House", "InitReport",
    "IntegrityError", "MALE", "MissingSnapshotError", "ModelData",
    "ModelParams", "Person", "RateContext", "Run", "RunConfig", "RunResult",
    "SimTime", "SimulationError", "SimulationParams", "Snapshot",
    "SnapshotStore", "StepOutcome", "SubPopulation", "TimeSeries", "Town",
    "Violation", "WorldState", "age_factor", "build_registry", "build_towns",
    "check_initial", "check_retrospective", "check_step", "children_factor",
    "children_of", "combine", "default_fertility", "default_model_data",
    "filter_pop", "filtered_group", "geo_factor", "group_of_filtered",
    "init_world", "instantaneous", "just", "load_fertility_text", "manhattan",
    "marriage_weight", "negate", "parents_of", "pre", "resolve_seed", "run",
    "run_batch", "siblings_of", "state_digest", "step", "validate_world",
    "weighted_town",
]
