"""Command-line front end: flat key=value config files, data loading, run
orchestration, and report emission.

Exit codes: 0 clean, 1 invalid config or data, 2 assumption failure during a
run, 64 usage error, 74 I/O error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .engine import RunConfig, resolve_seed, run, run_batch
from .events import DEFAULT_EVENT_ORDER
from .initialization import town_population_targets
from .model import (AssumptionFailure, ConfigError, DataFormatError,
                    ModelData, ModelParams, SimulationError,
                    SimulationParams)
from .rates import (DEFAULT_DIVORCE_MODIFIERS, DEFAULT_MARRIAGE_MODIFIERS,
                    default_fertility, load_fertility_text)
from .space import DensityMap

_SIM_KEYS = ("t0", "t_final", "delta_t", "seed")
_MODEL_KEYS = {f.name: f.type for f in fields(ModelParams)}
_OTHER_KEYS = ("fertility_path", "density_path", "divorce_modifiers",
               "marriage_modifiers", "event_order", "verification_mode",
               "out_dir")
KNOWN_KEYS = frozenset(_SIM_KEYS) | set(_MODEL_KEYS) | frozenset(_OTHER_KEYS)


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


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_vector(key: str, value: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, v.strip()) for v in value.split(","))


def _read_text(path: str, error: type[SimulationError]) -> str:
    """The text of an input file; one that is not UTF-8 is bad input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason} at byte "
                        f"{exc.start})") from None


def build_config(pairs: dict[str, str]) -> RunConfig:
    """Resolve a parsed key/value map into a full RunConfig; missing keys
    fall back to the embedded defaults."""
    sim_kwargs: dict = {}
    if "t0" in pairs:
        sim_kwargs["t0"] = _parse_int("t0", pairs["t0"])
    if "t_final" in pairs:
        sim_kwargs["t_final"] = _parse_int("t_final", pairs["t_final"])
    if "delta_t" in pairs:
        v = pairs["delta_t"]
        sim_kwargs["delta_t"] = (int(v) if v.isascii() and v.isdigit()
                                 else v.lower())
    if "seed" in pairs:
        v = pairs["seed"]
        sim_kwargs["seed"] = "random" if v == "random" else _parse_int("seed", v)
    sim = SimulationParams(**sim_kwargs)

    model_kwargs: dict = {}
    for key, typ in _MODEL_KEYS.items():
        if key in pairs:
            parse = _parse_int if typ in (int, "int") else _parse_float
            model_kwargs[key] = parse(key, pairs[key])
    model = ModelParams(**model_kwargs)

    if "fertility_path" in pairs:
        fertility = load_fertility_text(
            _read_text(pairs["fertility_path"], DataFormatError))
    else:
        fertility = default_fertility()
    if "density_path" in pairs:
        density = DensityMap.from_text(
            _read_text(pairs["density_path"], DataFormatError))
    else:
        density = DensityMap.default()
    divorce_mod = (_parse_vector("divorce_modifiers", pairs["divorce_modifiers"])
                   if "divorce_modifiers" in pairs
                   else DEFAULT_DIVORCE_MODIFIERS)
    marriage_mod = (_parse_vector("marriage_modifiers",
                                  pairs["marriage_modifiers"])
                    if "marriage_modifiers" in pairs
                    else DEFAULT_MARRIAGE_MODIFIERS)
    data = ModelData(fertility=fertility,
                     divorce_modifier_by_decade=divorce_mod,
                     male_marriage_modifier_by_decade=marriage_mod)

    event_order = (tuple(v.strip() for v in pairs["event_order"].split(","))
                   if "event_order" in pairs else DEFAULT_EVENT_ORDER)
    mode = pairs.get("verification_mode", "fail")
    out_dir = pairs.get("out_dir")

    echo = {
        "t0": sim.t0, "t_final": sim.t_final, "delta_t": sim.delta_t,
        "seed": sim.seed,
        **{k: getattr(model, k) for k in _MODEL_KEYS},
        "fertility_path": pairs.get("fertility_path", ""),
        "density_path": pairs.get("density_path", ""),
        "divorce_modifiers": ",".join(repr(v) for v in divorce_mod),
        "marriage_modifiers": ",".join(repr(v) for v in marriage_mod),
        "event_order": ",".join(event_order),
        "verification_mode": mode,
        "out_dir": out_dir or "",
    }
    try:
        return RunConfig(sim=sim, model=model, data=data, density=density,
                         event_order=event_order, verification_mode=mode,
                         out_dir=out_dir, config_echo=echo)
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
    if args.out is not None:
        config.out_dir = args.out
    if args.seed is not None:
        config.sim = replace(config.sim, seed=args.seed)
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
