"""dimfox benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; dimfox is imported from its `src/`.
The seed makes the workload's inputs (see workloads.py); the run repeats
that round of inputs, one call at a time, until the next round would
overrun `--seconds` (at least three rounds), with a flagship verdict
every PROBE_EVERY seconds.  Every verdict is checked.

`--trace 0` prints the end-to-end metrics: set-up time in fresh
interpreters (median of several), throughput, time to verdict, memory,
and the flagship verdict time.  Each case is timed by its median
repeat.  Times are in seconds at a fixed reference host speed: a small
pure-Python kernel runs between the calls (reference.py), and each time
is divided by how much slower than nominal the kernel ran around it,
since on a shared host the same verdict takes 1.7x as long in one minute
as in the next.  The raw host slowdown is printed with the metrics.
`--trace 1` runs the same round untraced and then traced (tracer.py)
and prints the per-layer split, the slowest cases with their layer self
times, and the tracing overhead; spans (raw seconds) go to
`.bench_trace/<workload>-<seed>.npz`.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Exit status: 0 when every verdict is right, 1 when any is
wrong or raised, 2 when the program cannot be found or the arguments are
bad (no result line then).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import MIN_SAMPLES, NOMINAL_S, Pacer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
SETUP_REF_WARMUP = 10  # reference kernel calls in each set-up interpreter after its set-up, untimed
SETUP_REF_CALLS = 20  # and timed
MIN_ROUNDS = 3
TAIL_PCT = 95  # higher order statistics of a seeded sample move too much between seeds
TAIL_BEYOND = 10  # the tail percentile has at least this many samples above it
PROBE_EVERY = 2.5  # seconds between flagship verdicts in an end-to-end run
SLOWEST_SHOWN = 5
JOBS2_GROUPS = 4  # groups of order <= 8 in the run_corpus scaling config

END_TO_END = [
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("verdict_s_p50", "s"),
    ("verdict_s_tail", "s"),
    ("verified_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("cases_per_s.Z", "1/s"),
    ("cases_per_s.Zm", "1/s"),
    ("flagship_s", "s"),
]

# (function as the tracer names it, statistics reported for it)
FUNCTION_STATS = [
    ("build_group", ("calls", "self_s")),
    ("generated_subgroup", ("calls", "self_s")),
    ("commutator_subgroup", ("self_s",)),
    ("power_subgroup", ("self_s",)),
    ("lower_central_series", ("calls",)),
    ("quotient_group", ("self_s",)),
    ("subgroup_from_members", ("self_s",)),
    ("U_subgroup", ("calls", "self_s")),
    ("dim3_sigma_route", ("calls",)),
    ("dim3_formula", ("total_s",)),
    ("fox2_formula", ("total_s",)),
    ("fox2_generator_family", ("total_s",)),
    ("remark_lower_bound", ("total_s",)),
    ("nseries_ideal_power", ("total_s",)),
    ("span_product", ("calls", "self_s")),
    ("translate_closure", ("total_s",)),
    ("row_multiply", ("calls", "self_s")),
    ("group_slice", ("total_s",)),
    ("dim_subgroup_brute", ("total_s",)),
    ("fox_subgroup_brute", ("calls",)),
    ("module_quotient_presentation", ("total_s",)),
    ("IntLattice.add", ("calls", "self_s")),
    ("IntLattice.reduce", ("calls", "self_s")),
    ("IntLattice.canonical", ("self_s",)),
    ("smith_normal_form", ("calls", "self_s")),
    ("intersect_lattices", ("total_s",)),
    ("preimage_lattice", ("total_s",)),
    ("left_kernel", ("total_s",)),
    ("check_wedge_kernel_identity", ("total_s",)),
    ("check_torsion_square_kernel", ("total_s",)),
    ("exterior_square", ("total_s",)),
    ("tensor", ("total_s",)),
    ("tor1", ("total_s",)),
    ("connecting_tau", ("total_s",)),
    ("run_case", ("self_s",)),
    ("verify_dim3", ("self_s",)),
    ("verify_fox", ("self_s",)),
    ("verify_four_term", ("self_s",)),
    ("verify_polynomial_sequence", ("self_s",)),
]
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}
LAYER_NAMES = ("groups", "intlinalg", "abelian", "groupring", "formulas", "verify")
DERIVED = [
    ("span_product.rows_in", "count"),
    ("translate_closure.rows_in", "count"),
    ("IntLattice.add.useful_frac", "ratio"),
    ("entry_bits_max.Z", "bits"),
    ("formulas.share", "ratio"),
    *[(f"layer.{layer}.self_frac", "ratio") for layer in LAYER_NAMES],
    ("layer.lattice.self_frac.Z", "ratio"),
    ("run_corpus.serial_s", "s"),
    ("run_corpus.jobs2_s", "s"),
    ("run_corpus.scaling_eff", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    out = [(f"{fn}.{stat}", STAT_UNITS[stat]) for fn, stats in FUNCTION_STATS for stat in stats]
    return out + DERIVED


class Fatal(Exception):
    """The benchmark cannot run here; exit 2 without a result line."""


def import_program():
    if not (SRC / "dimfox" / "__init__.py").is_file():
        raise Fatal(f"dimfox source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import dimfox

    if SRC not in Path(dimfox.__file__).resolve().parents:
        raise Fatal(f"imported dimfox from {dimfox.__file__}, not from {SRC}")
    import workloads

    return workloads


# -- measurement ---------------------------------------------------------------


def tail(sorted_vals: list[float]) -> tuple[float, float]:
    """p TAIL_PCT, or a lower percentile if that leaves fewer than TAIL_BEYOND
    samples above it, but not below the median; returns the percentile and
    its value."""
    n = len(sorted_vals)
    rank = max(n // 2, min(int(n * TAIL_PCT / 100), n - 1 - TAIL_BEYOND))
    return 100 * (rank + 1) / n, sorted_vals[rank]


class Loop:
    """Closed loop over a round of items; keeps verdict times and problems."""

    def __init__(self, workloads, items):
        self.w = workloads
        self.items = items
        self.pacer = Pacer()
        self.times: list[list[float]] = [[] for _ in items]
        self.starts: list[list[float]] = [[] for _ in items]
        self.round_s: list[float] = []
        self.work_s: list[float] = []  # time in the items of each round
        self.digests: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_item(self, item) -> tuple[dict, float, float]:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            record, problem = self.w.execute(item)
        except Exception as exc:  # one raising case is a failed case, not a crashed run
            record, problem = {"error": f"{type(exc).__name__}: {exc}"}, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if self.pacer:
            self.pacer.after(dt)
        if problem:
            self.failed += 1
            self.problems.append(f"item {item['id']}: {problem}")
        return record, t0, dt

    def run_round(self, on_item=None) -> tuple[str, float]:
        """One pass over the items, then more passes over the items that ask
        for them (`passes`): checks of a fraction of a millisecond need more
        samples than one per round for a steady median."""
        records = {}
        work = 0.0
        t0 = time.perf_counter()
        for p in range(max(item.get("passes", 1) for item in self.items)):
            for pos, item in enumerate(self.items):
                if item.get("passes", 1) <= p:
                    continue
                if on_item:
                    on_item(pos)
                record, start, dt = self.run_item(item)
                if records.setdefault(item["id"], record) != record:
                    self.problems.append(f"item {item['id']}: another pass gave another result")
                self.starts[pos].append(start)
                self.times[pos].append(dt)
                work += dt
        self.work_s.append(work)
        return self.w.results_digest(records), time.perf_counter() - t0

    def run(self, seconds: float, on_item=None) -> None:
        """Repeat the round while the next one fits in `seconds`, at least MIN_ROUNDS times."""
        t0 = time.perf_counter()
        while True:
            digest, dur = self.run_round(on_item)
            self.digests.append(digest)
            self.round_s.append(dur)
            elapsed = time.perf_counter() - t0
            if len(self.round_s) >= MIN_ROUNDS and elapsed + dur > seconds:
                break
        if len(set(self.digests)) != 1:
            self.problems.append(f"rounds of the same inputs gave different results: {sorted(set(self.digests))}")

    def scaled(self, t0: float, dt: float) -> float:
        """`dt` in seconds at the reference host speed (reference.py)."""
        return dt / self.pacer.factor(t0, t0 + dt)

    def typical(self) -> list[float]:
        """Each item's median time over its repeats, at the reference host speed."""
        return [statistics.median(self.scaled(t0, dt) for t0, dt in zip(starts, ts))
                for starts, ts in zip(self.starts, self.times)]


def measure_setup(workload: str, seed: int, expected_digest: str) -> tuple[list[float], list[float], list[str]]:
    """Set-up time of fresh interpreters, raw and at the reference host speed.

    Each interpreter times its own import of dimfox and the building of the
    inputs, then runs the reference kernel and reports the kernel's median
    time, which scales its set-up time.  Process start and exit stay out:
    they are not dimfox's, and on a shared host they vary more than the
    set-up itself."""
    raw, scaled, problems = [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != expected_digest:
            problems.append(f"set-up in a fresh interpreter printed {fields[:1]} (exit {proc.returncode}), "
                            f"expected {expected_digest}: {proc.stderr.strip()[-300:]}")
            continue
        setup_s, kernel_median = float(fields[1]), float(fields[2])
        raw.append(setup_s)
        scaled.append(setup_s / (kernel_median / NOMINAL_S))
    if not raw:
        raw = scaled = [float("nan")]
    return raw, scaled, problems


def ring_rate(items, best, ring: str) -> float:
    times = [t for item, t in zip(items, best) if item["ring"] == ring]
    return len(times) / sum(times)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- end-to-end run --------------------------------------------------------------


def end_to_end(w, args, items, digest, loop: Loop) -> dict:
    setup_raw, setup, problems = measure_setup(args.workload, args.seed, digest)
    loop.problems += problems
    flagship_item = w.case_item({**w.FLAGSHIP, "id": "flagship-probe"})
    probes = []  # (start, seconds) of each flagship verdict

    def maybe_probe(pos):
        if not probes or time.perf_counter() - sum(probes[-1]) >= PROBE_EVERY:
            probes.append(loop.run_item(flagship_item)[1:])

    loop.run(args.seconds, on_item=maybe_probe)
    probes += [(t0, dt) for item, starts, ts in zip(items, loop.starts, loop.times)
               if item.get("case", {}).get("kind") == "counterexample" for t0, dt in zip(starts, ts)]
    flagship = [loop.scaled(t0, dt) for t0, dt in probes]
    typical = loop.typical()
    verdicts = sorted(typical)
    n = len(verdicts)
    pct, tail_s = tail(verdicts)
    print(f"rounds={len(loop.round_s)} round_s={[round(r, 3) for r in loop.round_s]}; "
          f"each case timed by its median repeat")
    print(f"host slowdown (reference kernel median / {NOMINAL_S} s): {loop.pacer.overall():.3f} over "
          f"{len(loop.pacer.took)} kernel calls; set-up raw median {statistics.median(setup_raw):.4f} s")
    print(f"times are seconds at the reference host speed; verdict_s_tail is p{pct:.4g} over n={n} cases; "
          f"flagship_s is the median of {len(flagship)} verdicts")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "cases_per_s": metric(n / sum(typical), "1/s"),
        "verdict_s_p50": metric(statistics.median(verdicts), "s"),
        "verdict_s_tail": metric(tail_s, "s"),
        "verified_frac": metric((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cases_per_s.Z": metric(ring_rate(items, typical, "Z"), "1/s"),
        "cases_per_s.Zm": metric(ring_rate(items, typical, "Zm"), "1/s"),
        "flagship_s": metric(statistics.median(flagship), "s"),
    }


# -- traced run ------------------------------------------------------------------


def corpus_scaling(seed: int, loop: Loop) -> tuple[float, float]:
    """run_corpus serial against jobs=2 on a seeded slice of the default config,
    in seconds at the reference host speed (kernel calls before, between, after)."""
    import dimfox.verify as verify
    from dimfox.groups import build_group

    small = [g for g in verify.DEFAULT_GROUPS if build_group(g).order <= 8]
    groups = sorted(random.Random(seed).sample(small, JOBS2_GROUPS))
    cfg = verify.CorpusConfig(groups=groups, include_counterexample=False)
    loop.pacer.sample(MIN_SAMPLES)
    t0 = time.perf_counter()
    serial = verify.run_corpus(cfg)
    serial_s = loop.scaled(t0, time.perf_counter() - t0)
    loop.pacer.sample(MIN_SAMPLES)
    cfg.jobs = 2
    t0 = time.perf_counter()
    parallel = verify.run_corpus(cfg)
    jobs2_s = loop.scaled(t0, time.perf_counter() - t0)
    loop.pacer.sample(MIN_SAMPLES)
    if serial.to_json(include_timings=False) != parallel.to_json(include_timings=False):
        loop.problems.append(f"run_corpus jobs=2 reports differ from serial ones on {groups}")
    if not serial.ok:
        loop.problems.append(f"run_corpus on {groups} reported {len(serial.failures)} failures")
    print(f"run_corpus scaling config: groups={groups} cases={len(serial.reports)}")
    return serial_s, jobs2_s


def describe(item: dict) -> str:
    if item["op"] != "case":
        return f"{item['op']} A={item['shape']}" + (f" m={item['m']}" if "m" in item else "")
    c = item["case"]
    parts = [c["kind"], c.get("group", "")]
    parts += [f"{k}={c[k]}" for k in ("series", "n", "m") if k in c]
    return " ".join(p for p in parts if p)


def traced(w, args, items, loop: Loop) -> dict:
    """Untraced rounds, then one traced round.  Seconds reported here are at
    the reference host speed, like the end-to-end ones; the tracer's span
    times are scaled by the traced round's host slowdown."""
    from tracer import Tracer

    loop.run(args.seconds)
    untraced = loop.typical()
    serial_s, jobs2_s = corpus_scaling(args.seed, loop)

    tracer = Tracer()
    tracer.install()
    leaks = tracer.unwrapped_aliases()
    if leaks:
        loop.problems.append(f"tracer left unwrapped aliases: {leaks}")

    def mark(pos):
        tracer.case = pos

    try:
        digest, _ = loop.run_round(on_item=mark)
    finally:
        tracer.uninstall()
    loop.pacer.sample(MIN_SAMPLES)

    def round_work(r: int) -> float:
        """Time in the items of round r (each item's samples r*passes on)."""
        total = 0.0
        for item, starts, ts in zip(items, loop.starts, loop.times):
            p = item.get("passes", 1)
            total += sum(loop.scaled(t0, dt) for t0, dt in zip(starts[r * p:(r + 1) * p], ts[r * p:(r + 1) * p]))
        return total

    rounds = len(loop.round_s)  # untraced; the traced round is the next one
    untraced_round = statistics.median(round_work(r) for r in range(rounds))
    traced_round = round_work(rounds)
    traced_raw = loop.work_s[-1]
    slowdown = traced_raw / traced_round
    if digest != loop.digests[0]:
        loop.problems.append(f"traced results_sha256 {digest} differs from untraced {loop.digests[0]}")
    s = tracer.summary()
    print(f"results_sha256.traced={digest}")

    out = {}
    for fn, stats in FUNCTION_STATS:
        i = s.index(fn)
        for stat in stats:
            value = None if i is None else getattr(s, stat)[i].item()
            if value is not None and STAT_UNITS[stat] == "s":
                value /= slowdown
            out[f"{fn}.{stat}"] = metric(value, STAT_UNITS[stat])
    root = s.root_s
    c = tracer.counters
    add = s.index("IntLattice.add")
    add_calls = 0 if add is None else int(s.calls[add])
    formula, brute = s.entry_from_verify.get("formulas", 0.0), s.entry_from_verify.get("groupring", 0.0)
    zcases = [pos for pos, item in enumerate(items) if item["ring"] == "Z"]
    z_root = float(sum(s.case_root[p] for p in zcases))
    z_lattice = float(sum(s.case_layer[p][s.layers.index(l)] for p in zcases for l in ("intlinalg", "groupring")))
    derived = {
        "span_product.rows_in": c.get("span_product.rows_in", 0),
        "translate_closure.rows_in": c.get("translate_closure.rows_in", 0),
        "IntLattice.add.useful_frac": c.get("IntLattice.add.useful", 0) / add_calls if add_calls else 0.0,
        "entry_bits_max.Z": tracer.entry_bits_z if c.get("entry_bits.observed") else None,
        "formulas.share": formula / (formula + brute) if formula + brute else 0.0,
        **{f"layer.{l}.self_frac": s.layer_self.get(l, 0.0) / root for l in LAYER_NAMES},
        "layer.lattice.self_frac.Z": z_lattice / z_root if z_root else 0.0,
        "run_corpus.serial_s": serial_s,
        "run_corpus.jobs2_s": jobs2_s,
        "run_corpus.scaling_eff": serial_s / (2 * jobs2_s),
        "trace.overhead_frac": (traced_round - untraced_round) / untraced_round,
        "trace.unattributed_frac": (traced_raw - root) / traced_raw,
    }
    units = dict(DERIVED)
    for name, value in derived.items():
        out[name] = metric(value, units[name])
    for name, m in out.items():
        if m["value"] is None:
            m["absent"] = True

    print(f"traced round {traced_round:.3f}s, median untraced round {untraced_round:.3f}s (time in the items, "
          f"at the reference host speed; host slowdown {slowdown:.3f} in the traced round), "
          f"{len(tracer.span_name)} spans, bookkeeping {s.layer_self.get('trace', 0.0):.3f}s raw")
    for rank, pos in enumerate(sorted(range(len(items)), key=lambda p: -untraced[p])[:SLOWEST_SHOWN], 1):
        passes = items[pos].get("passes", 1)  # the traced round ran the item this many times
        f = loop.pacer.factor(loop.starts[pos][-1], loop.starts[pos][-1] + loop.times[pos][-1]) * passes
        tt = float(s.case_root[pos]) / f
        split = sorted(zip((float(v) / f for v in s.case_layer[pos]), s.layers), reverse=True)
        parts = " | ".join(f"{l} {v:.3f}s {v / tt:.0%}" for v, l in split if v > 0.0005 * tt)
        print(f"slowest {rank}: item {items[pos]['id']} {describe(items[pos])}: untraced {untraced[pos]:.3f}s, "
              f"traced {tt:.3f}s (overhead {tt / untraced[pos] - 1:+.0%}); self time: {parts}")
    trace_file = ROOT / ".bench_trace" / f"{args.workload}-{args.seed}.npz"
    tracer.write(trace_file, {"items": [describe(it) for it in items], "ids": [it["id"] for it in items]})
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return out


# -- entry ---------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="build the inputs, print their sha256 and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        w = import_program()
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in w.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {w.WORKLOADS}", file=sys.stderr)
        return 2
    items = w.build_items(args.workload, args.seed)
    digest = w.items_digest(items)
    if args.setup_only:
        setup_s = time.perf_counter() - t0
        pacer = Pacer()
        pacer.sample(SETUP_REF_WARMUP + SETUP_REF_CALLS)  # a fresh interpreter's first calls run slow
        print(digest, setup_s, statistics.median(pacer.took[SETUP_REF_WARMUP:]))
        return 0
    loop = Loop(w, items)
    loop.problems += w.flagship_facts()
    print(f"workload={args.workload} seed={args.seed} items={len(items)} inputs_sha256={digest}")
    metrics = traced(w, args, items, loop) if args.trace else end_to_end(w, args, items, digest, loop)
    declared = per_layer_metrics() if args.trace else END_TO_END
    if [(n, m["unit"]) for n, m in metrics.items()] != declared:
        loop.problems.append("printed metrics differ from the declared ones")
    print(f"results_sha256={loop.digests[0]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for problem in loop.problems[:20]:
        print(f"PROBLEM {problem}")
    correct = not loop.problems
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
