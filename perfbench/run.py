"""diracspace benchmark: seeded workloads, checked verdicts, traced layers.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of that checkout, never from an installed copy.  Diagnostic lines go
first; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``README.md`` here
describes a run and its metrics; ``design.json`` records the design.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
from tracing import (CLI_SUBCOMMANDS, LAYERS, Tracer,  # noqa: E402
                     layer_metrics, unit_of)
from workloads import WORKLOADS  # noqa: E402

SETUP_WARMUP = 2    # set-ups left out while the interpreter warms up
SETUP_REPEATS = 9
POOL_MARGIN = 1.5   # rounds made per round that the first round says fit
GEN_SHARE = 0.05    # generation timed after a round, per second checked
PROBE_TERMS = 150   # size of the probe
PROBE_REF_S = 1.6e-3  # the probe's time on the reference VM at steady speed
FRESH_S = 0.002     # a probe this recent still stands for the next work

# the package as a user imports it, timed in a fresh interpreter
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import diracspace; "
               + "; ".join(f"import diracspace.{m}" for m in LAYERS)
               + "; print(time.perf_counter() - t)")


def import_time() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC],
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout)


def fresh_import():
    """Import the package from ``src/`` anew and return its modules."""
    for name in [m for m in sys.modules
                 if m == "diracspace" or m.startswith("diracspace.")]:
        del sys.modules[name]
    pkg = importlib.import_module("diracspace")
    mods = {layer: importlib.import_module(f"diracspace.{layer}")
            for layer in LAYERS}
    return SimpleNamespace(modules=[pkg, *mods.values()], **mods)


def percentile(xs, q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100)."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python Fraction arithmetic."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_TERMS):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


class Meter:
    """Timings in units of the probe run next to them.

    The 2-core VM this was tuned on changes speed within a second, by up
    to a factor of two, for seconds at a time.  A probe runs before and
    after each timed piece of work, and the work's seconds are divided by
    the mean of the two probes, which takes the machine's speed at that
    moment out.  ``seconds`` turns units back into seconds at the speed of
    the reference VM, where the probe takes PROBE_REF_S."""

    def __init__(self):
        self.probes: list[float] = []
        self.last, self.last_at = 0.0, -math.inf

    def _probe(self) -> float:
        self.last = probe()
        self.last_at = time.perf_counter()
        self.probes.append(self.last)
        return self.last

    def before(self) -> float:
        """The probe that opens a timing: the last one, if it is fresh."""
        if time.perf_counter() - self.last_at < FRESH_S:
            return self.last
        return self._probe()

    def units(self, seconds: float, before: float) -> float:
        """Seconds of work in probe units; a probe closes the timing."""
        return seconds * 2 / (before + self._probe())

    @staticmethod
    def seconds(units: float) -> float:
        return units * PROBE_REF_S


def run_check(check):
    """Time one check; return (seconds, verdict right, result)."""
    t0 = time.perf_counter()
    try:
        res = check.run()
        ok = bool(check.ok(res))
    except Exception:
        dt = time.perf_counter() - t0
        print(f"perfbench: check {check.label} raised\n"
              f"{traceback.format_exc()}", file=sys.stderr)
        return dt, False, None
    return time.perf_counter() - t0, ok, res


def generate(wl, ds, fx, rng, rounds: int):
    """The inputs of ``rounds`` rounds, and the random state each round
    started from."""
    pool, states = [], []
    for _ in range(rounds):
        states.append(rng.getstate())
        pool.append(wl.gen_round(ds, fx, rng))
    return pool, states


def time_generation(wl, ds, fx, state) -> float:
    """Time making one round's inputs again from its random state."""
    rng = random.Random()
    rng.setstate(state)
    t0 = time.perf_counter()
    wl.gen_round(ds, fx, rng)
    return time.perf_counter() - t0


class Tally:
    """Latencies, verdicts and printed results of the checks run."""

    def __init__(self, meter: Meter | None = None):
        self.meter = meter
        self.by_label: dict[str, list[float]] = {}
        self.units: list[float] = []    # latencies in probe units
        self.checks = 0
        self.failed = 0
        self.shown: list[str] = []
        self.report_bytes = 0

    def run_round(self, checks, keep_output: bool = False) -> float:
        spent = 0.0
        for check in checks:
            before = self.meter.before() if self.meter else 0.0
            dt, ok, res = run_check(check)
            if self.meter:
                self.units.append(self.meter.units(dt, before))
            spent += dt
            self.checks += 1
            self.by_label.setdefault(check.label, []).append(dt)
            if not ok:
                self.failed += 1
                print(f"perfbench: wrong verdict on {check.label}",
                      file=sys.stderr)
            if res is not None and check.label.split(":")[0] in \
                    CLI_SUBCOMMANDS:
                self.report_bytes += len(res[1].encode())
            if keep_output:
                self.shown.append(f"{check.label}: "
                                  + (check.show(res) if ok else "FAILED"))
        return spent


def first_round(wl, ds, fx, seed: int, tally: Tally):
    """Check the first round of a seed into ``tally``, keeping its printed
    results.

    Returns its checking time, the random state that goes on to the
    following rounds, and the sha256 digest of the results."""
    rng = random.Random(seed)
    spent = tally.run_round(wl.gen_round(ds, fx, rng), keep_output=True)
    digest = hashlib.sha256("\n".join(tally.shown).encode()).hexdigest()
    return spent, rng, digest


def digest_gate(wl, seed: int, digest: str) -> str:
    """Compare a first round's digest with the one recorded for the seed."""
    try:
        with open(DIGESTS) as fh:
            want = json.load(fh).get(wl.name, {}).get(str(seed))
    except FileNotFoundError:
        want = None
    if want is None:
        return "unrecorded"
    if want != digest:
        print(f"perfbench: printed results of seed {seed} differ from the "
              f"recorded ones (digest {digest}, recorded {want})",
              file=sys.stderr)
        return "mismatch"
    return "match"


def declared(kind: str):
    """Metric names that BENCHMARK.json declares, when it is present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return {m["name"] for m in json.load(fh)[kind]}
    except FileNotFoundError:
        return None


def timed_run(wl, ds, fx, args, meter: Meter, setup_units: float):
    tally = Tally(meter)
    state = random.Random(args.seed).getstate()
    spent, rng, digest = first_round(wl, ds, fx, args.seed, tally)
    gate = digest_gate(wl, args.seed, digest)
    # peak memory of one verdict, before the pool of inputs is made
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the first round's checking time sizes the pool of the rounds after
    # it, so that no round is checked twice
    rounds = max(1, math.ceil(POOL_MARGIN * args.seconds / spent) - 1)
    pool, states = generate(wl, ds, fx, rng, rounds)
    # the pool is input, not garbage: keep the collector off it, as it
    # would be in a process that checks a single round
    gc.collect()
    gc.freeze()
    todo = zip(pool, states)
    gen_units, checked, done = [], 0.0, 0
    while True:
        checked += spent
        done += 1
        # Generation is timed between rounds, so that its samples spread
        # over the run like the checks' do; it is repeated for about
        # GEN_SHARE of the round's checking time, so that inputs made in
        # milliseconds still give enough samples.
        regen = 0.0
        while not regen or regen < GEN_SHARE * spent:
            before = meter.before()
            dt = time_generation(wl, ds, fx, state)
            gen_units.append(meter.units(dt, before))
            regen += dt
        if checked >= args.seconds:
            break
        checks, state = next(todo, (None, None))
        if checks is None:
            print(f"perfbench: all {done} rounds checked in {checked:.1f} s",
                  file=sys.stderr)
            break
        spent = tally.run_round(checks)
    if tally.checks * (1 - wl.tail_pct / 100) < 10:
        print(f"perfbench: only {tally.checks} checks; p{wl.tail_pct:g} has "
              "fewer than ten samples beyond it", file=sys.stderr)
    lat = [meter.seconds(u) for u in tally.units]
    setup_s = meter.seconds(setup_units)
    gen_s = meter.seconds(statistics.median(gen_units))
    metrics = {
        "setup_s": (setup_s, "s"),
        "gen_s": (gen_s, "s"),
        "checks_per_s": (len(lat) / sum(lat), "1/s"),
        "check_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "check_tail_ms": (percentile(lat, wl.tail_pct) * 1e3, "ms"),
        "wall_s": (setup_s + gen_s + sum(lat) / done, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"checks_per_round": tally.checks // done,
            "rounds_generated": rounds + 1, "rounds_checked": done,
            "checks": tally.checks, "checking_s": checked,
            "probe_p50_ms": statistics.median(meter.probes) * 1e3,
            "probes": len(meter.probes),
            "tail_percentile": wl.tail_pct, "digest": digest,
            "digest_gate": gate}
    failed = tally.failed + (gate == "mismatch")
    return failed, tally.checks, metrics, info


def traced_run(wl, ds, fx, args):
    rounds = wl.trace_rounds
    t0 = time.perf_counter()
    plain = Tally()
    _, rng, digest = first_round(wl, ds, fx, args.seed, plain)
    gate = digest_gate(wl, args.seed, digest)
    pool, _ = generate(wl, ds, fx, rng, rounds - 1)
    for checks in pool:
        plain.run_round(checks)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(ds)
    t0 = time.perf_counter()
    pool, _ = generate(wl, ds, fx, random.Random(args.seed), rounds)
    traced = Tally()
    for checks in pool:
        for check in checks:
            tracer.check = traced.checks
            traced.run_round([check])
    traced_s = time.perf_counter() - t0
    tracer.write_spans(os.path.join(WORKDIR, f"spans-{wl.name}.jsonl"))

    wall: dict[str, float] = {}
    for label, xs in plain.by_label.items():
        sub = label.split(":")[0]
        wall[sub] = wall.get(sub, 0.0) + sum(xs)
    m = layer_metrics(tracer, wall, traced.report_bytes,
                      traced_s - untraced_s)
    zero = [name for name in wl.expected if not m[name]]
    if zero:
        sys.exit(f"perfbench: expected hooks recorded no calls on "
                 f"{wl.name}: {', '.join(zero)}")
    selfs = tracer.layer_self()
    total = sum(selfs.values())
    info = {"traced_rounds": rounds, "checks": traced.checks,
            "digest": digest, "digest_gate": gate,
            "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": len(tracer.spans), "spans_dropped": tracer.dropped,
            "layer_share": {k: round(v / total, 4) for k, v in
                            sorted(selfs.items(), key=lambda kv: -kv[1])}}
    metrics = {name: (value, unit_of(name)) for name, value in m.items()}
    failed = plain.failed + traced.failed + (gate == "mismatch")
    return failed, plain.checks + traced.checks, metrics, info


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load(name: str):
    """The workload with the package imported from ``src/``, or exit."""
    if not os.path.isfile(os.path.join(SRC, "diracspace", "__init__.py")):
        sys.exit(f"perfbench: no diracspace package under {SRC}; run from "
                 "the root of a checkout of the repository")
    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)
    ds = fresh_import()
    origin = os.path.dirname(os.path.abspath(ds.poly.__file__))
    if origin != os.path.join(SRC, "diracspace"):
        sys.exit(f"perfbench: imported diracspace from {origin}, not {SRC}")
    return WORKLOADS[name](), ds


def main(argv=None) -> int:
    args = parse_args(argv)
    wl, ds = load(args.workload)
    # set-up is the package import in a fresh interpreter plus building
    # the workload's fixed objects on a freshly imported package
    meter = Meter()
    imports, builds = [], []
    for _ in range(SETUP_WARMUP + SETUP_REPEATS):
        before = meter.before()
        imports.append(meter.units(import_time(), before))
        ds = fresh_import()
        before = meter.before()
        t0 = time.perf_counter()
        fx = wl.setup(ds, WORKDIR)
        builds.append(meter.units(time.perf_counter() - t0, before))
    setup_units = (statistics.median(imports[SETUP_WARMUP:])
                   + statistics.median(builds[SETUP_WARMUP:]))
    if args.trace:
        failed, attempted, metrics, info = traced_run(wl, ds, fx, args)
    else:
        failed, attempted, metrics, info = timed_run(wl, ds, fx, args, meter,
                                                     setup_units)
    want = declared("per_layer" if args.trace else "end_to_end")
    if want is not None and want != set(metrics):
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 f"{sorted(want ^ set(metrics))}")
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "trace": args.trace, **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
