"""Command-line front end: flat key=value config files, data loading, run
orchestration, and report emission.

Exit codes: 0 clean, 1 invalid config or data, 2 assumption failure during a
run, 64 usage error, 74 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from typing import Callable

from .engine import RunConfig, resolve_seed, run, run_batch
from .events import DEFAULT_EVENT_ORDER
from .initialization import town_population_targets
from .model import (AssumptionFailure, ConfigError, DataFormatError,
                    ModelData, ModelParams, SimulationError,
                    SimulationParams)
from .rates import (DEFAULT_DIVORCE_MODIFIERS, DEFAULT_MARRIAGE_MODIFIERS,
                    default_fertility, load_fertility_text)
from .space import DensityMap


# parsers: (key, the text after "=") -> the key's value
def _text(key: str, value: str) -> str:
    return value


def _number(kind: Callable[[str], object],
            noun: str) -> Callable[[str, str], object]:
    def parse(key: str, value: str):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {noun}, got {value!r}") from None
    return parse


# argument types: argparse reports a ValueError from one as a usage error
# that names the function
def integer_or_random(value: str) -> int | str:
    return value if value == "random" else int(value)


def positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}")
    return n


_int, _float = _number(int, "an integer"), _number(float, "a number")
_seed = _number(integer_or_random, "an integer or random")


def _floats(key: str, value: str) -> tuple[float, ...]:
    return tuple(_float(key, v.strip()) for v in value.split(","))


def _names(key: str, value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(","))


def _echo(value: object) -> object:
    """A value as the echo holds it: a tuple as the comma list its parser
    reads back."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else value


_SIM_PARSERS = {"t0": _int, "t_final": _int, "delta_t": _text, "seed": _seed}
# key -> (its parser, its value when no line sets it), for every key a
# config file may set. An empty path or out_dir is unset: the built-in
# data, no artifacts
_KEYS: dict[str, tuple[Callable[[str, str], object], object]] = {
    **{f.name: (_SIM_PARSERS[f.name], f.default)
       for f in fields(SimulationParams)},
    **{f.name: (_int if f.type in (int, "int") else _float, f.default)
       for f in fields(ModelParams)},
    "fertility_path": (_text, ""),
    "density_path": (_text, ""),
    "divorce_modifiers": (_floats, DEFAULT_DIVORCE_MODIFIERS),
    "marriage_modifiers": (_floats, DEFAULT_MARRIAGE_MODIFIERS),
    "event_order": (_names, DEFAULT_EVENT_ORDER),
    "verification_mode": (_text, "fail"),
    "out_dir": (_text, ""),
}
KNOWN_KEYS = frozenset(_KEYS)


def parse_config_lines(text: str) -> dict[str, str]:
    """key = value lines; blank lines and # comments ignored; later keys
    override earlier ones."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, "
                              f"got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _read_text(path: str, error: type[SimulationError]) -> str:
    """The text of an input file; one that is not UTF-8 is bad input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason} at byte "
                        f"{exc.start})") from None


def _data_file(path: str, load: Callable[[str], object],
               built_in: Callable[[], object]) -> object:
    return load(_read_text(path, DataFormatError)) if path else built_in()


def build_config(pairs: dict[str, str]) -> RunConfig:
    """Resolve a parsed key/value map into a full RunConfig: each key is
    parsed by its row of _KEYS, or takes the row's unset value, and every
    key is echoed in config_echo."""
    values = {key: parse(key, pairs[key]) if key in pairs else unset
              for key, (parse, unset) in _KEYS.items()}
    sim = SimulationParams(**{f.name: values[f.name]
                              for f in fields(SimulationParams)})
    values |= asdict(sim)  # delta_t as SimulationParams spells it
    model = ModelParams(**{f.name: values[f.name]
                           for f in fields(ModelParams)})
    data = ModelData(
        fertility=_data_file(values["fertility_path"], load_fertility_text,
                             default_fertility),
        divorce_modifier_by_decade=values["divorce_modifiers"],
        male_marriage_modifier_by_decade=values["marriage_modifiers"])
    density = _data_file(values["density_path"], DensityMap.from_text,
                         DensityMap.default)
    try:
        return RunConfig(sim=sim, model=model, data=data, density=density,
                         event_order=values["event_order"],
                         verification_mode=values["verification_mode"],
                         out_dir=values["out_dir"],
                         config_echo={key: _echo(value)
                                      for key, value in values.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path: str | None) -> RunConfig:
    """Load a config file (or the full defaults when path is None)."""
    if path is None:
        return build_config({})
    return build_config(parse_config_lines(_read_text(path, ConfigError)))


def _print_config(config: RunConfig) -> None:
    """The effective settings, sorted, then the ages and years the
    fertility table covers and the persons initial_pop builds."""
    for key in sorted(config.config_echo):
        print(f"{key} = {config.config_echo[key]}")
    fert = config.data.fertility
    print(f"fertility table covers ages {fert.age_offset}.."
          f"{fert.age_offset + len(fert.rows) - 1}, years {fert.year_offset}.."
          f"{fert.year_offset + len(fert.rows[0]) - 1}")
    built = sum(town_population_targets(config.model.initial_pop,
                                        config.density).values())
    print(f"initial_pop builds {built} persons (per-town ceil)")


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    # through replace, so RunConfig checks the flags' values as a file's
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    if args.seed is not None:
        config = replace(config, sim=replace(config.sim, seed=args.seed))
    if args.replicates > 1:
        base = resolve_seed(config.sim.seed)
        results = run_batch(config, args.replicates, base)
        for r, res in enumerate(results):
            print(f"replicate {r}: seed={res.seed} "
                  f"alive={res.summary['final_alive']} "
                  f"violations={len(res.violations)} digest={res.digest}")
        return 0
    result = run(config)
    print(f"steps={result.summary['steps_completed']} "
          f"seed={result.seed} alive={result.summary['final_alive']} "
          f"houses={result.summary['final_houses']} "
          f"violations={len(result.violations)} digest={result.digest}")
    if config.out_dir:
        print(f"artifacts written to {config.out_dir}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    _print_config(parse_config(args.config))
    return 0


def _cmd_defaults(args: argparse.Namespace) -> int:
    """validate's lines for the built-in config, then its density grid."""
    _print_config(config := parse_config(None))
    rows = config.density.rows
    towns = sum(v > 0 for row in rows for v in row)
    print(f"density grid {len(rows)}x{len(rows[0])}, {towns} towns")
    for row in rows:
        print(" ".join(f"{v:g}" for v in row))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="demosim",
        description="Discrete-time demographic simulation with runtime "
                    "assumption verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a simulation run")
    run_p.add_argument("--config", help="key = value config file")
    run_p.add_argument("--out", help="artifact output directory")
    run_p.add_argument("--seed", type=integer_or_random,
                       help="override the seed (integer or random)")
    run_p.add_argument("--replicates", type=positive_int, default=1,
                       help="independent replicates, seeds base+0..base+R-1")

    val_p = sub.add_parser("validate",
                           help="check config and data, print effective config")
    val_p.add_argument("--config", help="key = value config file")

    sub.add_parser("defaults", help="print the built-in config and grid")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 64
    try:
        return {"run": _cmd_run, "validate": _cmd_validate,
                "defaults": _cmd_defaults}[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 74
    except (ConfigError, DataFormatError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    except AssumptionFailure as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
