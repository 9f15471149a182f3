"""Closed-loop benchmark for sparsepaving.

Run from the root of a checkout:

    python3 bench/run.py --workload walks --seed 1 --seconds 15 --trace 0

One client in one process keeps one operation in flight.  Set-up builds
the workload's seeded operation list (workloads.py) from a fresh import
of sparsepaving; the run does it SETUP_REPS times, at the starts of
segments spread over --seconds, and reports the median as setup_s.
Each segment replays the list in passes, and the run ends when
--seconds have gone by, always finishing the pass it is in, so every
pass holds the same operations and the per-layer counts of a pass are
exact.  The run makes at least the workload's fixed number of timed
passes, and every timing comes from those passes only, so both sides of
a comparison pick from samples of the same size however fast the code
is; later passes are checked like the others.

Each operation is timed around its calls into sparsepaving; its output
is kept and checked after the pass, outside the timed interval, by the
benchmark's own certificate (certify.py) on the first pass and by
digest equality with the first pass afterwards, and the digests are
compared with the frozen ones in reference.json.  A failure is an exception, a rejected
certificate, a wrong CLI exit code or stdout, or a digest mismatch.

Fixed work of the benchmark's own (Pace) is timed before each pass
and after every operation, and every reported time is scaled to the
pace that work would run at on a reference host, so that a slow stretch
of a shared machine does not read as slow code.

--trace 0 prints the end-to-end metrics, taken from every attempt in
the timed passes (see end_to_end).
--trace 1 alternates untraced and traced passes: traced passes record a
span around every public call and every operation, the spans are
written to bench/out/ when the run ends, and the per-layer metrics come
from their self time.  The ratio of untraced to traced throughput is
reported as the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller report (environment stamp,
load average, tail percentile and sample count, failure reasons) goes
to bench/out/report-<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import certify as cf
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 5
MIN_TAIL_SAMPLES = 10
PACE_ITERS = 500  # the tight half of a pace sample
PACE_ROUNDS = 9  # the broad half; together about 0.5 ms on a 2-vCPU Xeon guest
PACE_REF_S = 0.5e-3  # the pace the reported times are scaled to
PACE_SIDE = 5  # pace samples on each side of an operation that set its factor

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# every public function the workloads call, by span name
TIMED = (
    "core.validate",
    "core.dual",
    "core.minor",
    "core.relax",
    "construct.graham_sloane",
    "construct.random_sparse_paving",
    "fileio.parse_matroid",
    "fileio.serialize_matroid",
    "cyclic.find_cyclic_order",
    "cyclic.gabow_cycle_any",
    "cyclic.brute_force_order",
    "exchange.bpg_path",
    "exchange.white_moves",
    "exchange.white2_path",
    "exchange.graph_connected.bpg",
    "exchange.graph_connected.white_multiset",
    "exchange.graph_connected.white_tuple",
    "flats.zn_census",
    "flats.cyclic_flats_of",
    "flats.bounds",
) + tuple(f"cli.{sub}" for sub in workloads.CLI_SUBCOMMANDS)

# exact work counts per pass, and the rate each gives over its layer's busy time
COUNTS = {
    "core.validate.sets": "sets_per_s",
    "construct.graham_sloane.sets": "sets_per_s",
    "fileio.parse_matroid.bytes": "bytes_per_s",
    "fileio.serialize_matroid.bytes": "bytes_per_s",
    "exchange.bpg_path.steps": None,
    "exchange.white_moves.moves": None,
    "exchange.white2_path.moves": None,
    "exchange.graph_connected.bpg.vertices": "vertices_per_s",
    "exchange.graph_connected.white_multiset.vertices": "vertices_per_s",
    "exchange.graph_connected.white_tuple.vertices": "vertices_per_s",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in TIMED:
        units[f"{name}.busy_ms"] = "ms"
        units[f"{name}.calls"] = "count"
        units[f"{name}.failed"] = "count"
    for name, rate in COUNTS.items():
        units[name] = "count"
        if rate:
            units[name.rsplit(".", 1)[0] + "." + rate] = "1/s"
    units["exchange.white_moves.bound_ratio_max"] = "ratio"
    units["cli.python_bare_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["bench.verify.busy_ms"] = "ms"
    units["bench.trace_overhead_pct"] = "%"
    return units


PER_LAYER = _per_layer_units()


# -- loading the package under test ---------------------------------------------------


def fresh_import():
    """Import sparsepaving from this checkout's src/, dropping any earlier import."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "sparsepaving" or m.startswith("sparsepaving.")]:
        del sys.modules[name]
    sp = importlib.import_module("sparsepaving")
    if Path(sp.__file__).resolve().parent != (SRC / "sparsepaving").resolve():
        raise ImportError(f"sparsepaving was imported from {sp.__file__}, not from {SRC}")
    return sp


# -- tracing ------------------------------------------------------------------------------


def plain_call(name, fn, *args, **kw):
    return fn(*args, **kw)


class Tracer:
    """Spans kept in memory: (id, name, start, end, parent, op id, ok)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.next_id = 0
        self.parent = None
        self.op = None

    def open_op(self, op_id: str) -> int:
        self.parent, self.op = self.next_id, op_id
        self.next_id += 1
        return self.parent

    def record(self, name: str, t0: float, t1: float, ok: bool, parent=None, sid=None) -> None:
        if sid is None:
            sid = self.next_id
            self.next_id += 1
        self.spans.append((sid, name, t0, t1, parent, self.op, ok))

    def call(self, name, fn, *args, **kw):
        ok = False
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kw)
            ok = True
            return out
        finally:
            self.record(name, t0, time.perf_counter(), ok, self.parent)

    def self_times(self) -> list[tuple[str, float, bool, str]]:
        """(name, self seconds, ok, op id) per span: duration minus its children's."""
        child = defaultdict(float)
        for _sid, _name, t0, t1, parent, _op, _ok in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [(name, t1 - t0 - child[sid], ok, op) for sid, name, t0, t1, _p, op, ok in self.spans]

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "ok")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- the host's pace ---------------------------------------------------------------------


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def key(self) -> int:
        return (self.a ^ self.b) & 7


class Pace:
    """The speed of the machine, sampled between operations.

    On a shared host the same pure-Python work can run 1.7 times as long
    in one stretch of seconds as in another, in CPU time as well as wall
    time, so raw times of two runs compare the host more than
    the code.  A pace sample times fixed work written here and never
    changed by the code under test, in two halves: a tight loop of
    integer, set and dict work, which slows with the host as the long
    exchange walks do, and a broad one (objects, calls, sorting,
    comprehensions, strings), which slows as the sub-millisecond
    operations do.  An operation's factor is PACE_REF_S over the median
    of the PACE_SIDE samples on either side of it, and its reported time
    is its wall time times that factor: the time it would have taken at
    the reference pace.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.table = [(i * 2654435761) & 0xFFFFFF for i in range(1 << 8)]
        self.seen: set[int] = set()
        self.last: dict[int, int] = {}

    def sample(self) -> None:
        table, seen, last = self.table, self.seen, self.last
        seen.clear()
        last.clear()
        x = 1
        total = 0
        t0 = time.perf_counter()
        for _ in range(PACE_ITERS):
            x = (x * 1103515245 + 12345) & 0xFFFF
            y = table[x & 0xFF] ^ (x << 3)
            seen.add(y & 0xFFF)
            last[x & 0x3FF] = y.bit_count()
        for _ in range(PACE_ROUNDS):
            items = [_Item(i, (i * 37) & 63) for i in range(24)]
            items.sort(key=_Item.key)
            by_a = {p.a: p for p in items if p.b & 1}
            packed = frozenset(p.a | (p.b << 6) for p in items)
            text = ",".join(str(p.b) for p in items[:8])
            m = 0
            for i, p in enumerate(items):
                if (i | 64) in packed or p.a in by_a:
                    m |= 1 << i
            total += m.bit_count() + len(text)
        self.times.append(time.perf_counter() - t0)

    def factor(self, before: int, after: int) -> float:
        """Scale for work done between pace samples `before` and `after`."""
        near = self.times[max(before - PACE_SIDE + 1, 0) : after + PACE_SIDE]
        return PACE_REF_S / statistics.median(near)


# -- checking -----------------------------------------------------------------------------


class Checker:
    """Certificate on an op's first success, digest equality on every later run."""

    def __init__(self) -> None:
        self.first: dict[int, str] = {}
        self.counts: dict[int, dict] = {}
        self.reasons: Counter = Counter()
        self.seconds = 0.0

    def verify(self, idx: int, op, out, err) -> bool:
        t0 = time.perf_counter()
        try:
            why = self._verify(idx, op, out, err)
        except Exception as e:  # a crashing check is a rejected result
            why = f"check raised {type(e).__name__}: {e}"
        self.seconds += time.perf_counter() - t0
        if why:
            self.reasons[f"{op.kind}: {why}"] += 1
        return why is None

    def _verify(self, idx, op, out, err):
        if err is not None:
            return f"{type(err).__name__}: {err}"
        d = cf.digest(op.render(out))
        if idx in self.first:
            return None if d == self.first[idx] else "output changed between passes"
        why = op.check(out)
        if why is None:
            self.first[idx] = d
            self.counts[idx] = op.counts(out)
        return why

    def kind_digests(self, ops) -> dict[str, str]:
        by_kind = defaultdict(list)
        for idx, op in enumerate(ops):
            by_kind[op.kind].append(self.first.get(idx, "missing"))
        return {kind: cf.digest("\n".join(ds)) for kind, ds in sorted(by_kind.items())}


def ops_digest(ops) -> str:
    return cf.digest("\n".join(f"{op.kind} {op.spec}" for op in ops))


def load_reference(name: str, seed: int):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))


# -- set-up and measurement ------------------------------------------------------------


def setup(name: str, seed: int, workdir: Path):
    """One set-up from a fresh import: the workload and the seconds it took."""
    t0 = time.perf_counter()
    sp = fresh_import()
    wl = workloads.build(name, sp, seed, ROOT, workdir)
    for op in wl.warmup:
        op.run(plain_call)
    return wl, time.perf_counter() - t0


def min_passes(n_ops: int, tail_pct: float) -> int:
    """Fewest passes that leave MIN_TAIL_SAMPLES samples beyond the tail percentile."""
    p = 1
    while p * n_ops - math.ceil(tail_pct / 100 * p * n_ops) < MIN_TAIL_SAMPLES:
        p += 1
    return p


def timed_passes(wl) -> int:
    """The passes every timing comes from: fixed per workload, never fewer
    than the tail needs, and at least one traced pass in a traced run."""
    return max(wl.passes, min_passes(len(wl.ops), wl.tail_pct), 2)


def measure(build, seconds: float, trace: bool):
    """Replay the op list in passes; returns per-sample records and per-pass stats.

    The run is cut into SETUP_REPS segments spread over `seconds`, each
    started by a fresh `build()` of the same seeded workload, so the
    set-up times are not all taken in one moment of a shared machine and
    only one build is alive at a time.  Every build holds the same
    operations in the same order, so an operation's index names it
    across segments.  Each set-up is bracketed by PACE_SIDE pace samples
    on either side.
    """
    checker = Checker()
    tracer = Tracer()
    pace = Pace()
    samples = []  # (pass, idx, wall s, cpu s, ok, pace index)
    passes = []  # (traced, ok ops)
    baselines = defaultdict(list)
    setups = []  # (seconds, pace index before, pace index after)
    start = time.perf_counter()
    wl = None
    for seg in range(SETUP_REPS):
        # free the previous build before the next one starts, so that no
        # set-up pays for collecting another's garbage
        wl = None
        gc.collect()
        for _ in range(PACE_SIDE):
            pace.sample()
        before = len(pace.times) - 1
        wl, took = build()
        for _ in range(PACE_SIDE):
            pace.sample()
        setups.append((took, before, before + 1))
        while True:
            run_pass(wl, len(passes), trace and len(passes) % 2 == 1, checker, tracer, pace, samples, passes, baselines)
            elapsed = time.perf_counter() - start
            if seg < SETUP_REPS - 1:
                if elapsed >= (seg + 1) * seconds / SETUP_REPS:
                    break
            elif len(passes) >= timed_passes(wl) and elapsed >= seconds:
                break
    return wl, setups, checker, tracer, pace, samples, passes, baselines


def run_pass(wl, p, traced, checker, tracer, pace, samples, passes, baselines) -> None:
    """One pass: pace, op, pace, op, pace, ..., then the checks.

    Every operation lies between two pace samples with nothing else
    between them; the outputs are kept and checked after the pass, so
    the checks neither sit between an operation and its pace samples nor
    evict the package's code and data from the caches between operations.
    """
    call = tracer.call if traced else plain_call
    for label, fn in wl.baselines if traced else ():
        t0 = time.perf_counter()
        fn()
        baselines[label].append(time.perf_counter() - t0)
    done = []
    pace.sample()
    for idx, op in enumerate(wl.ops):
        if traced:
            sid = tracer.open_op(f"{p}:{idx}")
        err = out = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = op.run(call)
        except Exception as e:  # the op failed; counted below
            err = e
        t1 = time.perf_counter()
        c1 = time.process_time()
        pace.sample()
        if traced:
            tracer.record(f"op.{op.kind}", t0, t1, err is None, sid=sid)
        done.append((idx, out, err, t1 - t0, c1 - c0, len(pace.times) - 1))
    ok_ops = 0
    for idx, out, err, wall, cpu, j in done:
        v0 = time.perf_counter()
        ok = checker.verify(idx, wl.ops[idx], out, err)
        if traced:
            tracer.op = f"{p}:{idx}"
            tracer.record("bench.verify", v0, time.perf_counter(), ok)
        samples.append((p, idx, wall, cpu, ok, j))
        ok_ops += ok
    passes.append((traced, ok_ops))


# -- metrics --------------------------------------------------------------------------------


def nearest_rank(sorted_xs: list[float], pct: float) -> float:
    return sorted_xs[max(math.ceil(pct / 100 * len(sorted_xs)) - 1, 0)]


def end_to_end(wl, setups, pace, samples, passes) -> tuple[dict, dict]:
    """Timings at the reference pace, from every attempt in the timed passes.

    Each attempt's wall time is scaled by its pace factor (see Pace).
    Throughput takes each operation's median scaled time; the latency
    percentiles pool every scaled attempt.  The unscaled figures go to
    the report file.
    """
    timed = timed_passes(wl)
    scaled = [[] for _ in wl.ops]
    walls = [[] for _ in wl.ops]
    cpus = [[] for _ in wl.ops]
    for p, idx, wall, cpu, _ok, j in samples:
        if p < timed:
            scaled[idx].append(wall * pace.factor(j - 1, j))
            walls[idx].append(wall)
            cpus[idx].append(cpu)
    pooled = sorted(w for ws in scaled for w in ws)
    certified = sum(s[4] for s in samples) / len(samples)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(took * pace.factor(i, j) for took, i, j in setups),
        "throughput_ops_s": len(wl.ops) * certified / sum(statistics.median(ws) for ws in scaled),
        "latency_p50_ms": statistics.median(pooled) * 1e3,
        "latency_tail_ms": nearest_rank(pooled, wl.tail_pct) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    raw = sorted(w for ws in walls for w in ws)
    info = {
        "timed_passes": timed,
        "tail_percentile": wl.tail_pct,
        "samples": len(pooled),
        "samples_beyond_tail": len(pooled) - math.ceil(wl.tail_pct / 100 * len(pooled)),
        "pace_ms_median": statistics.median(pace.times) * 1e3,
        "pace_ref_ms": PACE_REF_S * 1e3,
        "unscaled": {
            "setup_s": statistics.median(took for took, _i, _j in setups),
            "throughput_ops_s": len(wl.ops) * certified / sum(statistics.median(ws) for ws in walls),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": nearest_rank(raw, wl.tail_pct) * 1e3,
            "cpu_ms_per_op": sum(statistics.median(cs) for cs in cpus) / len(wl.ops) * 1e3,
        },
        "setup_times_s": [took for took, _i, _j in setups],
    }
    return values, info


def per_layer(wl, checker, tracer, pace, samples, passes, baselines) -> dict:
    values = dict.fromkeys(PER_LAYER, 0)
    timed = timed_passes(wl)
    passes = passes[:timed]
    traced_passes = sum(1 for ps in passes if ps[0])
    factor = {f"{p}:{idx}": pace.factor(j - 1, j) for p, idx, _w, _c, _ok, j in samples}
    per_pass = defaultdict(lambda: defaultdict(float))  # name -> pass -> scaled self seconds
    calls, failed = Counter(), Counter()
    for name, self_s, ok, op in tracer.self_times():
        p = op.split(":")[0]
        if int(p) >= timed:
            continue
        per_pass[name][p] += self_s * factor[op]
        calls[name] += 1
        failed[name] += not ok
    for name in TIMED:
        if calls[name]:
            values[f"{name}.busy_ms"] = statistics.median(per_pass[name].values()) * 1e3
            values[f"{name}.calls"] = calls[name] / traced_passes
            values[f"{name}.failed"] = failed[name] / traced_passes
    for counts in checker.counts.values():
        for key, v in counts.items():
            values[key] = max(values[key], v) if key.endswith("_max") else values[key] + v
    for key, rate in COUNTS.items():
        layer = key.rsplit(".", 1)[0]
        busy = values.get(f"{layer}.busy_ms", 0)
        if rate and busy:
            values[f"{layer}.{rate}"] = values[key] / (busy / 1e3)
    if baselines:
        bare = statistics.median(baselines["cli.python_bare_ms"][:traced_passes]) * 1e3
        values["cli.python_bare_ms"] = bare
        values["cli.import_ms"] = statistics.median(baselines["cli.import_with_bare_ms"][:traced_passes]) * 1e3 - bare
    values["bench.verify.busy_ms"] = checker.seconds * 1e3
    pass_s = defaultdict(float)
    for p, idx, wall, _c, _ok, j in samples:
        pass_s[p] += wall * pace.factor(j - 1, j)
    thr = {traced: [] for traced in (False, True)}
    for p, (traced, ok) in enumerate(passes):
        thr[traced].append(ok / pass_s[p])
    values["bench.trace_overhead_pct"] = (statistics.median(thr[False]) / statistics.median(thr[True]) - 1) * 100
    return values


# -- environment stamp -----------------------------------------------------------------


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),  # this checkout only
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    files = sorted((SRC / "sparsepaving").glob("*.py"))
    return cf.digest("".join(f.name + "\n" + f.read_text(encoding="utf-8") for f in files))


def env_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "source_digest": source_digest(),
    }


# -- entry point --------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsepaving" / "__init__.py").is_file():
        print(f"error: no sparsepaving sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"cli-{os.getpid()}"
    try:
        wl, setups, checker, tracer, pace, samples, passes, baselines = measure(
            lambda: setup(args.workload, args.seed, workdir), args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end = os.getloadavg()

    ref = load_reference(args.workload, args.seed)
    kinds = checker.kind_digests(wl.ops)
    digest_ops = ops_digest(wl.ops)
    if ref is None:
        reference = "none recorded for this seed; certificates and pass-to-pass digests only"
    else:
        bad = {k for k, d in kinds.items() if ref["kinds"].get(k) != d}
        if ref["ops"] != digest_ops:
            bad = set(kinds)
            checker.reasons["operation list differs from the reference"] += 1
        for k in sorted(bad):
            checker.reasons[f"{k}: output digest differs from the reference"] += 1
        kind_of = [op.kind for op in wl.ops]
        samples = [s[:4] + (s[4] and kind_of[s[1]] not in bad,) + s[5:] for s in samples]
        reference = "mismatch" if bad else "match"

    attempted = len(samples)
    failed = sum(1 for s in samples if not s[4])
    if args.trace:
        metrics = per_layer(wl, checker, tracer, pace, samples, passes, baselines)
        units = PER_LAYER
        info = {}
    else:
        metrics, info = end_to_end(wl, setups, pace, samples, passes)
        units = END_TO_END
    env = env_stamp()
    cpus = env["cpu_count"] or 1
    overloaded = max(load_start[0], load_end[0]) > cpus
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "overloaded": overloaded,
        "passes": len(passes),
        "ops_per_pass": len(wl.ops),
        "ops_digest": digest_ops,
        "kind_digests": kinds,
        "reference": reference,
        "failures": dict(checker.reasons),
        **info,
        "metrics": metrics,
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    if overloaded:
        print(
            f"warning: load average {max(load_start[0], load_end[0]):.2f} exceeded "
            f"{cpus} CPUs during this run; do not compare it silently",
            file=sys.stderr,
        )
    for why, count in checker.reasons.items():
        print(f"failure x{count}: {why}", file=sys.stderr)
    summary = {k: report[k] for k in ("passes", "ops_per_pass", "reference", "overloaded")}
    print("# env " + json.dumps(env))
    brief = {k: v for k, v in info.items() if not isinstance(v, list)}
    print("# run " + json.dumps({**summary, **brief}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
