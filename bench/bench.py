"""The demosim benchmark: runs one named workload through `demosim run`,
checks its outputs against pinned digests (or, on another seed, against
itself), and prints the metrics named in BENCHMARK.json.

    python3 bench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics of one traced run with
--trace 1. The line before it is a JSON report with every sample, the
digests and the workload facts. Every run is its own process, started one
at a time (a closed loop with one client). See bench/README.md for what
each workload and metric is for.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVE = os.path.join(HERE, "drive.py")
PINS = os.path.join(HERE, "pins.json")

# a run must exit within 180 s; no child is given time past this
RUN_LIMIT_S = 170.0

# after each timed `demosim run`, one process samples set-up at least once
# and for at least this long: set-up samples then spread over the whole run
# like the wall times do, and a set-up of a few milliseconds is many samples
SETUP_SECONDS = 0.5

# untraced runs a --trace 1 run makes before the traced one
UNTRACED_RUNS = 3

# what calibrate() takes on a host of reference speed; the end-to-end times
# are scaled to such a host (see README.md)
CALIBRATION_REFERENCE_S = 0.1


@dataclass(frozen=True)
class Workload:
    config: dict[str, str]
    replicates: int = 1


WORKLOADS = {
    "daily_decade": Workload({"initial_pop": "1000", "delta_t": "daily",
                              "t0": "2020", "t_final": "2030"}),
    # not in BENCHMARK.json, to be run by hand: it drifts too much on a
    # shared host to hold any bound (see README.md)
    "init_20k": Workload({"initial_pop": "20000", "delta_t": "monthly",
                          "t0": "2020", "t_final": "2021"}),
    # not in BENCHMARK.json either, for the same reason
    "century_replicates": Workload(
        {"initial_pop": "1000", "delta_t": "monthly", "t0": "2020",
         "t_final": "2120",
         "event_order": "ageing, births, deaths, divorces, marriages"},
        replicates=2),
    "hourly_year": Workload({"initial_pop": "200", "delta_t": "hourly",
                             "t0": "2020", "t_final": "2021"}),
    # not in BENCHMARK.json: a tiny config for the benchmark's own tests
    # that goes through every path above in a few seconds
    "smoke": Workload({"initial_pop": "300", "delta_t": "monthly",
                       "t0": "2020", "t_final": "2030"},
                      replicates=2),
}

class _Record:
    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.alive = True


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now, the median of three
    passes. The loop does the kind of work demosim does (objects, dicts,
    attribute reads, random draws, a sort) and never changes, so its time
    tracks the speed of the host and not of the program."""
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        rng = random.Random(1)
        records = {i: _Record(i, rng.random()) for i in range(20000)}
        for _ in range(10):
            for r in records.values():
                if r.alive and rng.random() < 0.01:
                    r.alive = False
            groups: dict[int, list[_Record]] = {}
            for r in records.values():
                groups.setdefault(r.key % 97, []).append(r)
            sorted(records.values(), key=lambda r: r.weight)
        passes.append(time.perf_counter() - start)
    return statistics.median(passes)


class Child:
    """One drive.py process: its wall time, exit code, peak RSS and
    output."""

    def __init__(self, argv: list[str], log: str, deadline: float) -> None:
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, DRIVE, *argv],
                                    stdout=out, stderr=err, env=env)
            killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(log + ".out", encoding="utf-8") as fh:
            self.stdout = fh.read()
        with open(log + ".err", encoding="utf-8") as fh:
            self.stderr = fh.read()

    def result(self) -> dict:
        """The JSON object a driven mode prints on its last line."""
        return json.loads(self.stdout.splitlines()[-1])


def read_cli_run(out_dir: str) -> dict:
    """Digest, timeseries.csv hash, violation count and facts of one run's
    artifacts."""
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "timeseries.csv"), "rb") as fh:
        raw = fh.read()
    rows = list(csv.DictReader(raw.decode().splitlines()))
    totals = summary["totals"]
    persons_start = summary["init"]["persons_total"]
    return {
        "digest": summary["final_digest"],
        "timeseries_sha256": hashlib.sha256(raw).hexdigest(),
        "violations": totals["violations"],
        "aborted": summary["aborted_on_violation"],
        "facts": {
            "steps": summary["steps_completed"],
            "persons_start": persons_start,
            "persons_ever": persons_start + totals["births"],
            "alive_end": summary["final_alive"],
            "person_steps": sum(int(r["alive"]) for r in rows[1:]),
            "births": totals["births"], "deaths": totals["deaths"],
            "marriages": totals["marriages"],
            "divorces": totals["divorces"],
            "houses": summary["final_houses"],
        },
    }


def mismatches(expected: dict, got: dict) -> list[str]:
    """How one replicate's outputs differ from the reference: digest,
    timeseries.csv hash, and every fact both sides have. A run with
    violations or cut short never matches."""
    out = []
    if got.get("violations") or got.get("aborted"):
        out.append(f"{got.get('violations')} violation(s), aborted="
                   f"{got.get('aborted', False)}")
    for key in ("digest", "timeseries_sha256"):
        if expected[key] != got[key]:
            out.append(f"{key} {got[key]} != {expected[key]}")
    for key, value in expected["facts"].items():
        if key in got["facts"] and got["facts"][key] != value:
            out.append(f"fact {key} {got['facts'][key]} != {value}")
    return out


class Bench:
    """One benchmark run of one workload: every child it starts, the gate
    over their outputs, and the samples the metrics come from."""

    def __init__(self, name: str, seed: int, seconds: float,
                 work: str) -> None:
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.seeds = [seed + r for r in range(self.wl.replicates)]
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.initial_digests: list[str] | None = None
        self.children = 0
        with open(PINS, encoding="utf-8") as fh:
            pin = json.load(fh).get(name)
        self.pinned = pin is not None and pin["seed"] == seed
        # per replicate: what every run must reproduce; taken from the pins
        # at the pinned seed, else from the first run that passes
        self.reference: list[dict] | None = (pin["replicates"]
                                             if self.pinned else None)
        self.config = os.path.join(work, "sim.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            for key, value in self.wl.config.items():
                fh.write(f"{key} = {value}\n")

    def child(self, argv: list[str]) -> Child:
        self.children += 1
        return Child(argv, os.path.join(self.work, f"child{self.children}"),
                     self.deadline)

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def check(self, runs: list[dict]) -> list[str]:
        """How one attempt's per-replicate outputs differ from the
        reference. The first clean attempt at an unpinned seed becomes the
        reference."""
        if len(runs) != len(self.seeds):
            return [f"{len(runs)} replicate(s), expected {len(self.seeds)}"]
        clean = not any(r.get("violations") or r.get("aborted")
                        for r in runs)
        if self.reference is None and clean:
            self.reference = runs
            return []
        return [f"replicate {r}: {p}"
                for r, (expected, got) in enumerate(
                    zip(self.reference or runs, runs))
                for p in mismatches(expected, got)]

    def attempt(self, what: str, problems: list[str]) -> bool:
        """Count one attempted process; a failed one is reported, never
        timed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
            print(f"FAILED: {what}: {problems}", file=sys.stderr)
        return not problems

    def exited(self, what: str, child: Child) -> bool:
        """False, with the attempt counted as failed, if the child did not
        exit 0."""
        if child.returncode == 0:
            return True
        print(child.stderr, file=sys.stderr)
        tail = child.stderr.strip().splitlines()[-1:]
        self.attempt(what, [f"exit {child.returncode}: {tail}"])
        return False

    def set_up(self) -> list[float]:
        """The calls run() makes before step 1, sampled in one process;
        returns the samples, none if the process failed."""
        c = self.child(["setup", self.config, str(SETUP_SECONDS),
                        ",".join(map(str, self.seeds))])
        if not self.exited("setup", c):
            return []
        res = c.result()
        if self.initial_digests is None:
            self.initial_digests = res["initial_digests"][0]
        if self.attempt("setup", [] if all(
                d == self.initial_digests for d in res["initial_digests"])
                else ["initial worlds differ between samples"]):
            return res["setup_s"]
        return []

    def calibrated(self, key: str, values: list[float], before: float,
                   after: float) -> None:
        """Record times under key and, scaled to a host of reference speed
        by the calibration taken just before and after them, under
        scaled_<key>."""
        scale = CALIBRATION_REFERENCE_S / ((before + after) / 2)
        for value in values:
            self.sample(key, value)
            self.sample(f"scaled_{key}", value * scale)

    def cli_run(self, what: str, seed: int, replicates: int) -> Child | None:
        """One `demosim run` into a fresh --out dir; returns the child when
        it exited 0 and its outputs pass the gate."""
        out = os.path.join(self.work, f"out{self.children + 1}")
        argv = ["cli", "run", "--config", self.config, "--seed", str(seed),
                "--out", out]
        if replicates > 1:
            argv += ["--replicates", str(replicates)]
        c = self.child(argv)
        try:
            if not self.exited(what, c):
                return None
            dirs = ([os.path.join(out, f"replicate_{r:03d}")
                     for r in range(replicates)] if replicates > 1 else [out])
            runs = [read_cli_run(d) for d in dirs]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if replicates == 1 and len(self.seeds) > 1:
            # one replicate of a batch workload, run alone
            problems = mismatches(self.reference[self.seeds.index(seed)],
                                  runs[0])
        else:
            problems = self.check(runs)
        return c if self.attempt(what, problems) else None

    def untraced(self, min_runs: int, timed: bool, set_up: bool) -> None:
        """`demosim run` on the workload, one process at a time, each
        followed by set-up sampling if asked, until --seconds have passed
        (timed) and at least min_runs are done. Nothing starts that would
        likely end past the deadline."""
        start = time.monotonic()
        n = 0
        host = calibrate()
        self.sample("calibration_s", host)
        while True:
            began = time.monotonic()
            c = self.cli_run(f"run {n}", self.seed, self.wl.replicates)
            n += 1
            before, host = host, calibrate()
            self.sample("calibration_s", host)
            if c is not None:
                self.calibrated("wall_s", [c.wall_s], before, host)
                self.sample("peak_rss_mb", c.peak_rss_mb)
            if set_up:
                samples = self.set_up()
                before, host = host, calibrate()
                self.sample("calibration_s", host)
                self.calibrated("setup_s", samples, before, host)
            now = time.monotonic()
            if now + 1.5 * (now - began) > self.deadline:
                break
            if n >= min_runs and (not timed or now - start >= self.seconds):
                break

    def end_to_end(self) -> dict[str, float]:
        self.untraced(min_runs=2, timed=True, set_up=True)
        if not self.samples.get("wall_s") or not self.samples.get("setup_s"):
            return {}
        wall = statistics.median(self.samples["scaled_wall_s"])
        setup = statistics.median(self.samples["scaled_setup_s"])
        person_steps = sum(r["facts"]["person_steps"]
                           for r in self.reference)
        return {
            "wall_s": wall,
            "setup_s": setup,
            "person_steps_per_s": person_steps / (wall - setup),
            "peak_rss_mb": statistics.median(self.samples["peak_rss_mb"]),
        }

    def per_layer(self) -> dict[str, float]:
        # a few untraced runs, so trace.overhead_s and run_batch.speedup
        # divide by a median and not by one sample of a drifting host
        self.untraced(min_runs=UNTRACED_RUNS, timed=False, set_up=False)
        if not self.samples.get("wall_s"):
            return {}
        wall = statistics.median(self.samples["wall_s"])
        speedup = 1.0
        if len(self.seeds) > 1:
            alone = [self.cli_run(f"replicate {r} alone", s, 1)
                     for r, s in enumerate(self.seeds)]
            if any(c is None for c in alone):
                return {}
            speedup = sum(c.wall_s for c in alone) / wall
        out = os.path.join(self.work, "traced")
        c = self.child(["traced", self.config, out,
                        ",".join(map(str, self.seeds))])
        shutil.rmtree(out, ignore_errors=True)
        if not self.exited("traced run", c):
            return {}
        res = c.result()
        if not self.attempt("traced run", self.check(res["runs"])):
            print("TRACED RUN DOES NOT REPRODUCE THE UNTRACED RUN; its "
                  "layer split would be wrong", file=sys.stderr)
            return {}
        self.sample("traced_wall_s", c.wall_s)
        counts = res["counts"]
        facts = [r["facts"] for r in res["runs"]]
        changes = counts["step_houses"] + sum(
            f[k] for f in facts for k in ("births", "deaths", "marriages",
                                          "divorces", "adult_moves"))
        metrics = dict(res["self_s"])
        metrics.update({
            "verification.scan_per_change":
                counts["scanned"] / max(1, changes),
            "events.alive_share":
                counts["alive_at_events"] / counts["records_at_events"],
            "rates.death_p_step.calls": counts["death_calls"],
            "rates.death_p_step.reuse_ratio":
                1.0 - counts["death_keys"] / max(1, counts["death_calls"]),
            "predicates.snapshot_persons": counts["snapshot_persons"],
            "engine.run_batch.speedup": speedup,
            "space.houses_created": sum(f["houses"] for f in facts),
            "trace.overhead_s": c.wall_s - wall,
            "trace.unattributed_share":
                (c.wall_s - sum(res["self_s"].values())) / c.wall_s,
        })
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through Child so that the running child is killed
    # and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "demosim", "cli.py")):
        print("error: no src/demosim here; run from the root of a demosim "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(root, ".bench_build", "bench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        values = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if values and missing:
        bench.problems.append(f"metrics not measured: {missing}")
    correct = bench.failed == 0 and not bench.problems and bool(values)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(json.dumps({
        "report": {
            "workload": args.workload, "seed": args.seed,
            "pinned": bench.pinned, "samples": bench.samples,
            "replicates": bench.reference, "problems": bench.problems,
        }}))
    print(json.dumps({"correct": correct, "attempted": max(1, bench.attempted),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
