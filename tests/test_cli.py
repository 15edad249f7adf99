"""Config parsing, subcommands, and exit codes."""
from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from demosim import cli, engine
from demosim.cli import (KNOWN_KEYS, build_config, main, parse_config,
                         parse_config_lines)
from demosim.engine import RunConfig, run
from demosim.model import (AssumptionFailure, ConfigError, ModelData,
                           ModelParams, Range, SimulationParams)
from demosim.rates import DEFAULT_DIVORCE_MODIFIERS
from demosim.space import DensityMap


def test_parse_lines_basics():
    pairs = parse_config_lines(
        "# a comment\n"
        "\n"
        "t0 = 2021\n"
        "seed=9\n"
        "t0 = 2022\n")
    assert pairs == {"t0": "2022", "seed": "9"}


def test_parse_lines_syntax_error_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_lines("t0 = 2021\nwhat even is this\n")


def test_parse_lines_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_lines("t_zero = 2021\n")


def test_empty_config_gives_defaults():
    cfg = build_config({})
    assert cfg.sim.t0 == 2020
    assert cfg.sim.t_final == 2030
    assert cfg.sim.delta_t == "daily"
    assert cfg.sim.seed == "random"
    assert cfg.model.initial_pop == 10000
    assert cfg.verification_mode == "fail"
    assert cfg.out_dir is None
    assert cfg.data.divorce_modifier_by_decade == DEFAULT_DIVORCE_MODIFIERS
    assert len(cfg.density.rows) == 12


def test_config_overrides():
    cfg = build_config({"seed": "42", "delta_t": "Weekly",
                        "initial_pop": "500", "start_married_ratio": "0.5",
                        "event_order": "ageing, deaths",
                        "verification_mode": "warn"})
    assert cfg.sim.seed == 42
    assert cfg.sim.delta_t == "weekly"
    assert cfg.sim.steps_per_year == 52
    assert cfg.model.initial_pop == 500
    assert cfg.model.start_married_ratio == 0.5
    assert cfg.event_order == ("ageing", "deaths")
    assert cfg.verification_mode == "warn"


def test_config_numeric_delta_t():
    cfg = build_config({"delta_t": "100"})
    assert cfg.sim.steps_per_year == 100


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        build_config({"t0": "twenty-twenty"})
    with pytest.raises(ConfigError):
        build_config({"start_married_ratio": "1.5"})
    with pytest.raises(ConfigError):
        build_config({"t_final": "2019"})
    with pytest.raises(ConfigError):
        build_config({"event_order": "deaths"})
    with pytest.raises(ConfigError):
        build_config({"verification_mode": "loose"})
    with pytest.raises(ConfigError):
        build_config({"divorce_modifiers": "0.1, 0.2"})  # needs 16 entries


def fertility_text(first_age: int, last_age: int, rate: float = 0.05) -> str:
    return (f"age_offset={first_age} year_offset=2020\n"
            + f"{rate}\n" * (last_age - first_age + 1))


def test_config_data_files(tmp_path):
    fert = tmp_path / "fert.txt"
    fert.write_text(fertility_text(18, 44, 0.5))
    dens = tmp_path / "dens.txt"
    dens.write_text("\n".join(" ".join("0.5" for _ in range(8))
                              for _ in range(12)) + "\n")
    cfg = build_config({"fertility_path": str(fert),
                        "density_path": str(dens)})
    assert cfg.data.fertility.age_offset == 18
    assert len(cfg.data.fertility.rows) == 27
    assert all(row == (0.5,) for row in cfg.data.fertility.rows)
    assert all(v == 0.5 for row in cfg.density.rows for v in row)


def test_config_echo_reproduces_run(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 11\ninitial_pop = 150\nt_final = 2021\n")
    cfg = parse_config(str(path))
    echo = cfg.config_echo
    assert echo["seed"] == 11
    assert echo["initial_pop"] == 150
    assert echo["event_order"] == "ageing,deaths,births,divorces,marriages"


def run_main(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_main_run(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "arts"
    cfg.write_text(f"seed = 5\ninitial_pop = 120\nt_final = 2021\n"
                   f"out_dir = {out}\n")
    rc, stdout, _ = run_main(["run", "--config", str(cfg)], capsys)
    assert rc == 0
    assert "digest=" in stdout
    assert sorted(os.listdir(out)) == \
        ["summary.json", "timeseries.csv", "violations.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["config"]["initial_pop"] == 120


def test_main_run_seed_override(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 5\ninitial_pop = 80\nt_final = 2021\n")
    rc1, out1, _ = run_main(["run", "--config", str(cfg), "--seed", "99"],
                            capsys)
    rc2, out2, _ = run_main(["run", "--config", str(cfg), "--seed", "99"],
                            capsys)
    assert rc1 == rc2 == 0
    digest1 = out1.split("digest=")[1].split()[0]
    digest2 = out2.split("digest=")[1].split()[0]
    assert digest1 == digest2


def test_a_negative_seed_is_invalid(tmp_path, capsys):
    """A negative seed, from the config file or --seed, fails validate and
    run with exit 1: replicates -1 and 1 of `--seed -1 --replicates 3`
    would otherwise draw the same stream."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = -1\ninitial_pop = 40\nt_final = 2021\n")
    for argv in (["validate", "--config", str(cfg)],
                 ["run", "--config", str(cfg)],
                 ["run", "--seed", "-1", "--replicates", "3",
                  "--out", str(tmp_path / "batch")]):
        rc, stdout, stderr = run_main(argv, capsys)
        assert (rc, stdout) == (1, "")
        assert stderr == "invalid: seed must be >= 0, got -1\n"
    assert os.listdir(tmp_path) == ["c.cfg"]


def test_the_module_runs_as_a_script(tmp_path):
    """`python -m demosim.cli` runs main and exits with its code."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    bad = tmp_path / "bad.cfg"
    bad.write_text("t0 = twenty-twenty\n")
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text("seed = 1\ninitial_pop = 40\nt_final = 2021\n"
                    "delta_t = monthly\n")

    def script(*args):
        return subprocess.run([sys.executable, "-m", "demosim.cli", *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)

    done = script("validate", "--config", str(bad))
    assert done.returncode == 1 and done.stderr.startswith("invalid:")
    done = script("run", "--config", str(tiny))
    assert done.returncode == 0 and "digest=" in done.stdout


def test_main_replicates(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "batch"
    cfg.write_text(f"seed = 3\ninitial_pop = 60\nt_final = 2021\n"
                   f"out_dir = {out}\n")
    rc, stdout, _ = run_main(["run", "--config", str(cfg),
                              "--replicates", "2"], capsys)
    assert rc == 0
    assert "replicate 0" in stdout and "replicate 1" in stdout
    assert sorted(os.listdir(out)) == ["replicate_000", "replicate_001"]


def echo_text(echo: dict) -> str:
    """An echo written back as a config file, as written, empty values
    included."""
    return "".join(f"{key} = {value}\n" for key, value in echo.items())


def test_each_replicate_echo_reruns_it(tmp_path, capsys):
    """Each replicate's summary echoes its own seed and directory: written
    back as a config file as it is, empty values included, and run into
    another directory, it reproduces that replicate's digest."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 5\ninitial_pop = 60\nt_final = 2021\n")
    batch = tmp_path / "batch"
    rc, _, _ = run_main(["run", "--config", str(cfg), "--seed", "7",
                         "--replicates", "2", "--out", str(batch)], capsys)
    assert rc == 0
    for r in range(2):
        out = batch / f"replicate_{r:03d}"
        summary = json.loads((out / "summary.json").read_text())
        echo = summary["config"]
        assert echo["seed"] == summary["seed"] == 7 + r
        assert echo["out_dir"] == str(out)
        assert echo["fertility_path"] == echo["density_path"] == ""
        again = tmp_path / f"again_{r}.cfg"
        again.write_text(echo_text(echo))
        rc, stdout, _ = run_main(["run", "--config", str(again),
                                  "--out", str(tmp_path / f"again_{r}")],
                                 capsys)
        assert rc == 0
        assert f"digest={summary['final_digest']}" in stdout.split()


def test_seed_and_out_flags_reach_the_echo(tmp_path, capsys):
    """--seed and --out override the config file's seed and out_dir, and
    summary.json's config echo holds the values the run used."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"seed = 3\ninitial_pop = 60\nt_final = 2021\n"
                   f"out_dir = {tmp_path / 'from_file'}\n")
    out = tmp_path / "D"
    rc, _, _ = run_main(["run", "--config", str(cfg), "--seed", "5",
                         "--out", str(out)], capsys)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == summary["seed"] == 5
    assert summary["config"]["out_dir"] == str(out)
    assert not (tmp_path / "from_file").exists()


def test_main_validate_ok(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 1\n")
    rc, stdout, _ = run_main(["validate", "--config", str(cfg)], capsys)
    assert rc == 0
    assert "t_final = 2030" in stdout
    assert "initial_pop = 10000" in stdout
    assert "fertility table covers ages 17..51, years 2020..2020" in \
        stdout.splitlines()
    # the per-town ceil formula of C3 over the default density map
    assert stdout.splitlines()[-1] == \
        "initial_pop builds 4457 persons (per-town ceil)"


def test_main_validate_reports_fertility_file_coverage(tmp_path, capsys):
    fert = tmp_path / "fert.txt"
    fert.write_text("age_offset=18 year_offset=2019\n"
                    + "0.05, 0.04, 0.03\n" * 27)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"fertility_path = {fert}\n")
    rc, stdout, _ = run_main(["validate", "--config", str(cfg)], capsys)
    assert rc == 0
    assert "fertility table covers ages 18..44, years 2019..2021" in \
        stdout.splitlines()


def test_main_validate_broken_fertility(tmp_path, capsys):
    fert = tmp_path / "fert.txt"
    fert.write_text("age_offset=20 year_offset=2020\n0.5, nope\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"fertility_path = {fert}\n")
    rc, _, stderr = run_main(["validate", "--config", str(cfg)], capsys)
    assert rc == 1
    assert "line" in stderr or "row" in stderr or "fertility" in stderr


def test_main_missing_config_file(capsys):
    rc, _, stderr = run_main(["run", "--config", "/no/such/file.cfg"], capsys)
    assert rc == 74
    rc, _, stderr = run_main(["validate", "--config", "/no/such/file.cfg"],
                             capsys)
    assert rc == 74


def test_main_usage_errors(capsys):
    rc, _, _ = run_main(["frobnicate"], capsys)
    assert rc == 64
    rc, _, _ = run_main([], capsys)
    assert rc == 64


@pytest.mark.parametrize("args", [["--seed", "abc"], ["--seed", "1.5"],
                                  ["--replicates", "0"],
                                  ["--replicates", "-2"],
                                  ["--replicates", "two"]])
def test_main_run_bad_flag_is_usage_error(args, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 1\ninitial_pop = 20\nt_final = 2021\n")
    rc, _, stderr = run_main(["run", "--config", str(cfg), *args], capsys)
    assert rc == 64
    assert "Traceback" not in stderr


def test_main_defaults_lists_vectors(capsys):
    rc, stdout, _ = run_main(["defaults"], capsys)
    assert rc == 0
    expect = ",".join(repr(v) for v in DEFAULT_DIVORCE_MODIFIERS)
    assert f"divorce_modifiers = {expect}" in stdout
    assert "initial_pop = 10000" in stdout
    assert "48 towns" in stdout


def test_main_defaults_is_validate_then_the_grid(capsys):
    """defaults prints exactly what validate prints with no config, then
    the density grid's size and town count and its rows."""
    rc, validated, _ = run_main(["validate"], capsys)
    assert rc == 0
    rc, stdout, _ = run_main(["defaults"], capsys)
    assert rc == 0
    lines = stdout.splitlines()
    head, grid = lines[:-13], lines[-12:]
    assert head == validated.splitlines()
    assert lines[-13] == "density grid 12x8, 48 towns"
    assert [tuple(map(float, line.split())) for line in grid] == \
        [tuple(row) for row in DensityMap.default().rows]


# `demosim defaults` stdout, byte for byte
DEFAULTS_STDOUT = """\
basic_death_rate = 0.0001
basic_divorce_rate = 0.06
basic_male_marriage_rate = 0.7
delta_t = daily
density_path =\x20
divorce_modifiers = 0.0,1.0,0.9,0.5,0.4,0.2,0.1,0.03,0.01,0.001,0.001,0.001,0.0,0.0,0.0,0.0
event_order = ageing,deaths,births,divorces,marriages
female_age_death_rate = 0.00019
female_age_scaling = 15.5
fertility_path =\x20
initial_pop = 10000
male_age_death_rate = 0.00021
male_age_scaling = 14.0
marriage_modifiers = 0.0,0.16,0.5,1.0,0.8,0.7,0.66,0.5,0.4,0.2,0.1,0.05,0.01,0.0,0.0,0.0
max_num_marr_cand = 100
out_dir =\x20
seed = random
start_married_ratio = 0.8
t0 = 2020
t_final = 2030
verification_mode = fail
fertility table covers ages 17..51, years 2020..2020
initial_pop builds 4457 persons (per-town ceil)
density grid 12x8, 48 towns
0 0.1 0.2 0.1 0 0 0 0
0.1 0.1 0.2 0.2 0.3 0 0 0
0 0.2 0.2 0.3 0 0 0 0
0 0.2 1 0.5 0 0 0 0
0.4 0 0.2 0.2 0.4 0 0 0
0.6 0 0 0.3 0.8 0.2 0 0
0 0 0 0.6 0.8 0.4 0 0
0 0 0.2 1 0.8 0.6 0.1 0
0 0 0.1 0.2 1 0.6 0.3 0.4
0 0 0.5 0.7 0.5 1 1 0
0 0 0.2 0.4 0.6 1 1 0
0 0.2 0.3 0 0 0 0 0
"""

# the benchmark's workload configs -> the sha256 of `demosim validate`
# stdout for each (its first 16 hex digits) and its last line
VALIDATE_PINS = {
    "daily_decade": ({"initial_pop": "1000", "delta_t": "daily",
                      "t0": "2020", "t_final": "2030"},
                     "b517f133bad58334", 474),
    "hourly_year": ({"initial_pop": "200", "delta_t": "hourly",
                     "t0": "2020", "t_final": "2021"},
                    "af3bcbdae5ac23a3", 113),
    "init_20k": ({"initial_pop": "20000", "delta_t": "monthly",
                  "t0": "2020", "t_final": "2021"},
                 "062408ad84cbb279", 8894),
    "century_replicates": ({"initial_pop": "1000", "delta_t": "monthly",
                            "t0": "2020", "t_final": "2120",
                            "event_order": "ageing, births, deaths, "
                                           "divorces, marriages"},
                           "025f58013dbe75d1", 474),
    "smoke": ({"initial_pop": "300", "delta_t": "monthly", "t0": "2020",
               "t_final": "2030"}, "176d30f266ec30d7", 158),
}


def test_defaults_stdout_is_pinned(capsys):
    """The built-in settings, as `defaults` prints them, do not move when
    the way the parameters are stated and checked does."""
    assert run_main(["defaults"], capsys) == (0, DEFAULTS_STDOUT, "")


@pytest.mark.parametrize("name", sorted(VALIDATE_PINS))
def test_validate_stdout_is_pinned(tmp_path, capsys, name):
    """`validate` prints the same bytes for each benchmark workload."""
    pairs, digest, built = VALIDATE_PINS[name]
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    rc, stdout, stderr = run_main(["validate", "--config", str(cfg)], capsys)
    assert (rc, stderr) == (0, "")
    assert stdout.splitlines()[-1] == \
        f"initial_pop builds {built} persons (per-town ceil)"
    assert hashlib.sha256(stdout.encode()).hexdigest()[:16] == digest


def test_readme_lists_each_key_with_its_row():
    """The README's list of keys has a line for every key, and the line
    of a numeric key gives the kind and interval its field's Range
    states."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    listed = readme.split("Every key, one a line")[1].split("\n\n")[1]
    lines = {line.split("`")[1]: line for line in listed.splitlines()}
    assert set(lines) == KNOWN_KEYS
    modifiers = {"divorce_modifier_by_decade": "divorce_modifiers",
                 "male_marriage_modifier_by_decade": "marriage_modifiers"}
    for record in (SimulationParams, ModelParams, ModelData):
        for f in fields(record):
            if Range not in f.metadata:
                continue
            kind, interval = f.metadata[Range]
            noun = "an integer" if kind is int else "a real"
            stated = (f"- `{f.name}`: {noun} in {interval}"
                      if f.name in KNOWN_KEYS else
                      f"- `{modifiers[f.name]}`: 16 comma-separated reals, "
                      f"each in {interval}")
            assert lines[modifiers.get(f.name, f.name)].startswith(stated)


def test_each_exit_code_has_its_prefix(tmp_path, capsys, monkeypatch):
    """run and validate print one message prefix per exit code: `error:`
    for I/O (74), `invalid:` for bad config or data (1) and `assumption
    failure:` for a fail-mode abort (2)."""
    bad = tmp_path / "bad.cfg"
    bad.write_text("t0 = twenty-twenty\n")
    for command in ("validate", "run"):
        rc, _, stderr = run_main([command, "--config", "/no/such.cfg"],
                                 capsys)
        assert (rc, stderr.split()[0]) == (74, "error:")
        rc, _, stderr = run_main([command, "--config", str(bad)], capsys)
        assert (rc, stderr.split()[0]) == (1, "invalid:")

    def abort(config):
        raise AssumptionFailure("a_homeless at step 3")

    monkeypatch.setattr(cli, "run", abort)
    rc, _, stderr = run_main(["run"], capsys)
    assert (rc, stderr) == (2, "assumption failure: a_homeless at step 3\n")


@pytest.mark.parametrize("replicates", ["1", "2"])
def test_main_run_unmakeable_out_fails_before_init(replicates, tmp_path,
                                                   capsys, monkeypatch):
    """An --out that cannot be made, a path under a regular file, exits 74
    before the world is built or a step is run, with replicates too."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    calls = []
    monkeypatch.setattr(engine, "init_world",
                        lambda *args: calls.append("init_world"))
    monkeypatch.setattr(engine.Run, "advance",
                        lambda self: calls.append("advance"))
    rc, _, stderr = run_main(["run", "--out", str(blocker / "arts"),
                              "--replicates", replicates], capsys)
    assert (rc, stderr.split()[0]) == (74, "error:")
    assert calls == []
    assert blocker.read_text() == ""


def test_only_main_maps_errors_to_exit_codes():
    """No function in cli.py but main has an except clause for an error
    that main maps to an exit code, or for a class above one of them, so
    each is mapped in one place."""
    mapped = {"OSError", "ConfigError", "DataFormatError",
              "AssumptionFailure", "SimulationError", "Exception",
              "BaseException"}
    catchers = set()
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ExceptHandler) and (
                    node.type is None
                    or mapped & {n.id for n in ast.walk(node.type)
                                 if isinstance(n, ast.Name)}):
                catchers.add(func.name)
    assert catchers == {"main"}


_BAD_RATE_INPUTS = {
    # the table leaves out ages 18 and 19, which a mother can have
    "fertility_from_20": ({"fertility_path": fertility_text(20, 51)},
                          "must cover 18..44"),
    "fertility_cell_one": ({"fertility_path": fertility_text(17, 51, 1.0)},
                           "outside [0, 1)"),
    "divorce_times_modifier": (
        {"basic_divorce_rate": "0.6",
         "divorce_modifiers": ",".join(["2.0"] * 16)},
        "divorce rate"),
    "marriage_times_modifier": (
        {"basic_male_marriage_rate": "0.7",
         "marriage_modifiers": ",".join(["1.5"] * 16)},
        "marriage rate"),
    # non-finite values pass every comparison-based range test
    "death_rate_nan": ({"basic_death_rate": "nan"},
                       "basic_death_rate must be finite"),
    "death_rate_inf": ({"basic_death_rate": "inf"},
                       "basic_death_rate must be finite"),
    # a yearly probability of 1 or more kills everyone at the clamp
    "death_rate_one": ({"basic_death_rate": "1.0"},
                       "basic_death_rate must be < 1"),
    "female_scaling_nan": ({"female_age_scaling": "nan"},
                           "female_age_scaling must be finite"),
    "male_age_death_inf": ({"male_age_death_rate": "inf"},
                           "male_age_death_rate must be finite"),
    "divorce_modifier_nan": (
        {"divorce_modifiers": ",".join(["nan"] + ["0.1"] * 15)},
        "divorce_modifier_by_decade entries must be finite"),
}


@pytest.mark.parametrize("case", sorted(_BAD_RATE_INPUTS))
def test_bad_rate_input_exits_1(tmp_path, capsys, case):
    settings, message = _BAD_RATE_INPUTS[case]
    lines = ["seed = 1", "initial_pop = 50", "t_final = 2021"]
    for key, value in settings.items():
        if key == "fertility_path":
            path = tmp_path / "fert.txt"
            path.write_text(value)
            value = str(path)
        lines.append(f"{key} = {value}")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    for command in ("validate", "run"):
        rc, _, stderr = run_main([command, "--config", str(cfg)], capsys)
        assert rc == 1
        assert message in stderr
        assert "Traceback" not in stderr


@pytest.mark.parametrize("key", ["config", "fertility_path", "density_path"])
def test_non_utf8_input_exits_1(tmp_path, capsys, key):
    """An input file that is not UTF-8 is bad input: exit 1 with a message
    naming the file, not a traceback."""
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# caf\xe9\n".encode("latin-1"))
    cfg = tmp_path / "c.cfg"
    if key == "config":
        cfg = latin1
    else:
        cfg.write_text(f"seed = 1\ninitial_pop = 50\n{key} = {latin1}\n")
    for command in ("validate", "run"):
        rc, _, stderr = run_main([command, "--config", str(cfg)], capsys)
        assert rc == 1
        assert f"{latin1}: not UTF-8 text" in stderr
        assert "Traceback" not in stderr


def test_delta_t_with_non_ascii_digit_exits_1(tmp_path, capsys):
    """"²" passes str.isdigit but not int(): bad input, not a traceback."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 1\ninitial_pop = 50\ndelta_t = ²\n",
                   encoding="utf-8")
    for command in ("validate", "run"):
        rc, _, stderr = run_main([command, "--config", str(cfg)], capsys)
        assert rc == 1
        assert "delta_t" in stderr
        assert "Traceback" not in stderr
    with pytest.raises(ConfigError, match="delta_t"):
        build_config({"delta_t": "²"})


def test_death_rate_beyond_exp_range_runs(tmp_path, capsys):
    """A scaling that puts age / scaling past exp's range clamps the death
    rate instead of raising OverflowError mid-run: every male older than
    about 7 years dies in the first monthly step."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 1\ninitial_pop = 200\ndelta_t = monthly\n"
                   "t_final = 2021\nmale_age_scaling = 0.01\n")
    for command in ("validate", "run"):
        rc, _, stderr = run_main([command, "--config", str(cfg)], capsys)
        assert rc == 0, stderr
        assert "Traceback" not in stderr


def test_density_map_without_towns_exits_1(tmp_path, capsys):
    """A well-formed map with no positive cell has no town to build: bad
    input at validate time, not a traceback when the run builds the world."""
    density = tmp_path / "density.txt"
    density.write_text("\n".join(["0 0 0 0 0 0 0 0"] * 12) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"seed = 1\ninitial_pop = 50\ndensity_path = {density}\n")
    for command in ("validate", "run"):
        rc, _, stderr = run_main([command, "--config", str(cfg)], capsys)
        assert rc == 1
        assert "no positive cell" in stderr
        assert "Traceback" not in stderr


@pytest.mark.parametrize("seed_line", ["seed = random\n", ""],
                         ids=["random", "unset"])
def test_random_seed_echo_reruns_the_run(tmp_path, capsys, seed_line):
    """A single run whose seed is drawn echoes the seed it drew, as
    run_batch echoes each replicate's: written back as a config file, as
    it is, the echo reproduces the run's digest."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{seed_line}initial_pop = 60\nt_final = 2021\n")
    first = tmp_path / "first"
    rc, _, _ = run_main(["run", "--config", str(cfg), "--out", str(first)],
                        capsys)
    assert rc == 0
    summary = json.loads((first / "summary.json").read_text())
    echo = summary["config"]
    assert echo["seed"] == summary["seed"]
    again = tmp_path / "again.cfg"
    again.write_text(echo_text(echo))
    rc, stdout, _ = run_main(["run", "--config", str(again),
                              "--out", str(tmp_path / "again")], capsys)
    assert rc == 0
    assert f"digest={summary['final_digest']}" in stdout.split()


def test_single_run_echo_reruns_as_written(tmp_path, capsys):
    """A single run on the built-in data echoes its unset paths as empty
    values. Its echo, written back as a config file as it is, runs into
    the directory it names and reproduces the run's digest."""
    cfg = tmp_path / "c.cfg"
    first = tmp_path / "first"
    cfg.write_text(f"seed = 5\ninitial_pop = 60\nt_final = 2021\n"
                   f"out_dir = {first}\n")
    rc, _, _ = run_main(["run", "--config", str(cfg)], capsys)
    assert rc == 0
    summary = json.loads((first / "summary.json").read_text())
    echo = summary["config"]
    assert echo["fertility_path"] == echo["density_path"] == ""
    again = tmp_path / "again"
    (tmp_path / "again.cfg").write_text(echo_text({**echo,
                                                   "out_dir": again}))
    rc, stdout, _ = run_main(["run", "--config", str(tmp_path / "again.cfg")],
                             capsys)
    assert rc == 0
    assert f"digest={summary['final_digest']}" in stdout.split()
    rerun = json.loads((again / "summary.json").read_text())
    assert rerun["config"] == {**echo, "out_dir": str(again)}


def test_an_empty_out_dir_writes_nothing(tmp_path, capsys, monkeypatch):
    """An empty out_dir means no directory, whatever its source: a config
    file's out_dir, --out (for a single run and for replicates) and
    RunConfig(out_dir="") each run to the end and write nothing."""
    monkeypatch.chdir(tmp_path)
    pairs = {"seed": "5", "initial_pop": "40", "delta_t": "monthly",
             "t_final": "2021"}
    cfg = tmp_path / "c.cfg"
    cfg.write_text(echo_text({**pairs, "out_dir": ""}))
    for argv in (["run", "--config", str(cfg)],
                 ["run", "--config", str(cfg), "--out", ""],
                 ["run", "--config", str(cfg), "--out", "",
                  "--replicates", "2"]):
        rc, stdout, stderr = run_main(argv, capsys)
        assert rc == 0, stderr
        assert "artifacts written" not in stdout
    built = build_config(pairs)
    config = RunConfig(built.sim, built.model, built.data, built.density,
                       out_dir="")
    assert config.out_dir is None
    assert run(config).summary["steps_completed"] == 12
    assert os.listdir(tmp_path) == ["c.cfg"]


def bench_workloads() -> dict[str, dict[str, str]]:
    """The config of each workload of bench/bench.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).parents[1] / "bench" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return {name: w.config for name, w in module.WORKLOADS.items()}


BENCH_WORKLOADS = bench_workloads()


@pytest.mark.parametrize("name", ["built_in", "data_files",
                                  *BENCH_WORKLOADS])
def test_the_echo_rebuilds_its_config(tmp_path, name):
    """The echo holds every known key, and rendered as text, as validate
    prints it and a config file holds it, it builds the config it echoes:
    for the built-in config, a config with its own fertility and density
    files, and each benchmark workload's config."""
    if name == "data_files":
        (tmp_path / "fert.txt").write_text(fertility_text(18, 44, 0.3))
        (tmp_path / "dens.txt").write_text(
            "\n".join(" ".join(["0.5"] * 8) for _ in range(12)) + "\n")
        pairs = {"fertility_path": str(tmp_path / "fert.txt"),
                 "density_path": str(tmp_path / "dens.txt"),
                 "divorce_modifiers": ",".join(["0.25"] * 16),
                 "delta_t": "Weekly", "seed": "9", "out_dir": str(tmp_path)}
    else:
        pairs = BENCH_WORKLOADS.get(name, {})
    config = build_config(pairs)
    echo = config.config_echo
    assert set(echo) == KNOWN_KEYS
    assert build_config(parse_config_lines(echo_text(echo))) == config
