"""Golden trajectories: the final state digest and the sha256 of
timeseries.csv for a few short configs, pinned so that any change to the
RNG draw order, a rate or a rule that shifts a run shows up here.

A change that alters a trajectory on purpose must say so and re-pin these
values. The two `smoke` pins equal the seed 1 and seed 2 replicates pinned
in bench/pins.json.
"""
from __future__ import annotations

import hashlib

import pytest

from demosim.cli import build_config
from demosim.engine import run

_DECADE_MONTHLY = {"initial_pop": "300", "delta_t": "monthly",
                   "t0": "2020", "t_final": "2030"}

GOLDEN = {
    "smoke_seed1": (
        dict(_DECADE_MONTHLY, seed="1"),
        "bb33e3e121103ee2",
        "59ae75b06fd2c4519a94eadf62d357f738245a45f7e9ac6b2afff4b74e9385d4"),
    "smoke_seed2": (
        dict(_DECADE_MONTHLY, seed="2"),
        "32f7e2273c5189c2",
        "83d9940e1061c3ceeeedbb2a8a6598975b32da2501e6639605345bdcd3007ffd"),
    "weekly": (
        {"initial_pop": "200", "delta_t": "weekly", "t0": "2020",
         "t_final": "2025", "seed": "3"},
        "fe268b129b190467",
        "835c372e535b59f27512fd2909e034f3eb5d98cddadb408fa6149ce3e02fe776"),
    "warn_mode": (
        dict(_DECADE_MONTHLY, seed="4", verification_mode="warn"),
        "d435573defe12ed1",
        "5b429d99d894b876d53be1e98630561c62b672608b4ff7148e74d353c8b72e3d"),
    "zero_pop": (
        {"initial_pop": "0", "delta_t": "daily", "t0": "2020",
         "t_final": "2021", "seed": "5"},
        "9b90a8382bc4c445",
        "6916f117c5b37d8ba8581ee4b4a2eabae8cc2c71f16e44f75d8826b2d1db4640"),
    "births_before_deaths": (
        {"initial_pop": "300", "delta_t": "monthly", "t0": "2020",
         "t_final": "2040", "seed": "6",
         "event_order": "ageing,births,deaths,divorces,marriages"},
        "7757cf602a4c323b",
        "714e0f7185cec21477a9c7749fe9ed704a01aecc60ac8a69d61e443bce472df7"),
    "hourly": (
        {"initial_pop": "1", "delta_t": "hourly", "t0": "2020",
         "t_final": "2021", "seed": "7"},
        "ad3412930bc48e23",
        "2de8015f080cfce694ba99f8945b839ff35264737483e8747118adfc44cc22dc"),
    "integer_clock": (
        {"initial_pop": "200", "delta_t": "1000", "t0": "2020",
         "t_final": "2022", "seed": "8"},
        "8bdd6e7ffc5dc7fe",
        "b4e94f2ca05423e401a0662cc57aaa60f07efdb4b61a54fe6f71b7bd8dedea7c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectory(name):
    pairs, digest, series_sha256 = GOLDEN[name]
    result = run(build_config(pairs))
    assert result.violations == []
    assert result.digest == digest
    assert hashlib.sha256(
        result.timeseries.to_csv().encode()).hexdigest() == series_sha256
