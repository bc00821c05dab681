"""The wrapsurg benchmark: end-to-end and per-layer numbers for four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The package is not installed: every child
runs with src/ on PYTHONPATH.  A one-shot CLI process is started as `python
-m wrapsurg.cli` would start it, through launch.py, which also records the
child's peak RSS; a batch child (child.py) calls the CLI's main() on the
batch files in turn.  The benchmark process runs one child at a time (a
closed loop with one client), because the reference machine has two cores.

Workloads (the seed only shapes the generated inputs):
  oneshot     fresh `classify` processes on seeded knots plus the paper
              anchors; start-up, import and the first-call self-check dominate.
  batch_cold  one `batch` run of 20k text requests, each on a distinct random
              knot, so every line pays a cold analysis (diagram building).
  batch_hot   one `batch` run of 20k requests drawn Zipf-style from 64 hot
              knots, half JSON, wide table/predict sweeps: the analysis cache
              answers almost everything, leaving parsing, warm classify, the
              Seifert cross-checks and rendering.
  library_sweep
              in-process, no CLI: make_wrapped + exceptional_slopes over the
              exhaustive k <= 2 grid of the tests (4512 candidates, 2502
              knots), then the deep rows: Fibonacci-ratio entries of ~1k-3k
              continued-fraction terms and entries of ~3500 digits, where
              big-integer arithmetic in slopes and tracing dominates.

With --trace 0 the run reports the end-to-end metrics, measured with no
wrapper installed.  Every time is wall time scaled to a reference machine
speed by the calibration slices run around it (see speed.py); the benchmark
process and its children share one CPU, so that the slices measure the CPU
the work ran on.  The raw wall times go to the record.
  setup_s      median time to `import wrapsurg.cli` in a fresh interpreter
               (measured inside the child, so interpreter start-up is excluded)
  job_p50_ms   median time of one job: a CLI process from spawn to exit
               (oneshot), a batch child's work on all its lines, import
               excluded (batch_*), or one sweep, grid plus deep rows, import
               excluded (library_sweep).  The oneshot 90th percentile goes to
               the record only: on a shared two-core machine its run-to-run
               spread is too wide to bound.
  rps          requests (CLI processes, batch lines, grid candidates plus deep
               rows) completed per second of job time, median over jobs
  peak_rss_mb  mean over jobs of the child's peak RSS (VmHWM after exec)

With --trace 1 the run repeats one job untraced and once more with wrappers
around the public functions of the seven modules, and reports per-layer
metrics: calls, self time and share of wall time per function and module,
cold and warm classify, diagrams per knot, import times per module (from
`-X importtime`), retained memory per knot, exact request counts, and the
tracing overhead.

Every answer is checked against golden/answers.json (recorded at the commit
that added the benchmark), closed formulas for the deep rows, and the paper
anchors.  The last line of stdout is the JSON result; a full record with
provenance goes to bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from check import Tally, check_batch, check_process  # noqa: E402
from speed import SpeedClock, pin_to_one_cpu  # noqa: E402
from inputs import (  # noqa: E402
    HUGE_ENTRY_DIGITS, POOL_SEED, Golden, Workloads, anchor_requests, deep_probe_classes,
    deep_rows, digest, exceptional_view, expect, grid_candidates, grid_is_knot,
)

PY = sys.executable
LAUNCH = HERE / "launch.py"
CHILD = HERE / "child.py"
BATCH_CHUNK = 500           # batch lines timed per stretch
SETUP_PROBES = 15
IMPORT_PROBES = 3
TRACED_ONESHOTS = 20
JOB_TIMEOUT = 100
MODULES = ("slopes", "tangles", "tracing", "wrapped", "seifert", "classify", "cli")
# Modules whose import times set-up reports: the package and the stdlib
# modules it pulls in beyond interpreter start-up.
IMPORTS = (
    "wrapsurg", "wrapsurg.slopes", "wrapsurg.tracing", "wrapsurg.tangles",
    "wrapsurg.wrapped", "wrapsurg.seifert", "wrapsurg.classify", "wrapsurg.cli",
    "dataclasses", "fractions", "json", "shlex",
)
# Job counts are fixed per --seconds, so that inputs and exact counts repeat:
# roughly how long one job, with its checking, took on a two-core machine at
# the commit that added the benchmark.
JOB_SECONDS = {"oneshot": 0.15, "batch_cold": 12.0, "batch_hot": 12.0,
               "library_sweep": 2.1}
# At least 100 processes give the oneshot p90 ten samples beyond it.
MIN_JOBS = {"oneshot": 100, "batch_cold": 1, "batch_hot": 1, "library_sweep": 5}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = child_env()


class Job:
    """One child process: exit code, wall time from spawn to exit, peak RSS.

    The peak RSS is the one the child records itself (see launch.py); wait4's
    figure is only the fallback.  A child still running after JOB_TIMEOUT
    seconds is killed, so that the run ends in time and leaves no process
    behind.
    """

    def __init__(self, argv: list[str], stdout: Path, stderr: Path) -> None:
        peak = scratch("peak_rss_kb")
        peak.unlink(missing_ok=True)
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env={**ENV, "BENCH_PEAK_RSS_FILE": str(peak)}, cwd=ROOT)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(JOB_TIMEOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_kb = int(peak.read_text()) if peak.exists() else usage.ru_maxrss
        self.stdout, self.stderr = stdout, stderr

    def out(self) -> str:
        return self.stdout.read_text(encoding="utf-8", errors="replace")

    def err(self) -> str:
        return self.stderr.read_text(encoding="utf-8", errors="replace")


def scratch(name: str) -> Path:
    return OUT / "tmp" / name


def jobs_for(workload: str, seconds: int) -> int:
    return max(MIN_JOBS[workload], round(seconds / JOB_SECONDS[workload]))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered) + 0.5) - 1))]


# -- set-up -----------------------------------------------------------------

def setup_probes(count: int, clock: SpeedClock) -> tuple[list[float], list[float], list[int]]:
    """Import times, raw and scaled, and peak RSS of fresh interpreters
    importing wrapsurg.cli.  The scale is that of the slices around the
    interpreter's whole run."""
    times, scaled, rss = [], [], []
    for i in range(count + 1):
        job, wall, job_scaled = clock.time(
            Job, [PY, str(LAUNCH), "--import-only"], scratch("setup.out"), scratch("setup.err"))
        if job.code != 0:
            raise SystemExit(f"importing wrapsurg.cli failed:\n{job.err()}")
        if i:          # the first one only fills the bytecode cache, if any
            seconds = float(job.out())
            times.append(seconds)
            scaled.append(seconds * job_scaled / wall)
            rss.append(job.rss_kb)
    return times, scaled, rss


def import_breakdown() -> dict[str, float]:
    """Median self (package) or cumulative (stdlib) import time per module, ms."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    stdlib_total = []
    for _ in range(IMPORT_PROBES):
        job = Job([PY, "-X", "importtime", "-c", "import wrapsurg.cli"],
                  scratch("imp.out"), scratch("imp.err"))
        seen, after_site, total = {}, False, 0.0
        for line in job.err().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            self_us, cum_us, name = int(m[1]), int(m[2]), m[4]
            if after_site and not name.startswith("wrapsurg"):
                total += self_us
            if name == "site":
                after_site = True
            seen[name] = self_us if name.startswith("wrapsurg") else cum_us
        stdlib_total.append(total / 1e3)
        for name in IMPORTS:
            samples[name].append(seen.get(name, 0) / 1e3)
    out = {f"setup.import.{name}_ms": statistics.median(v) for name, v in samples.items()}
    out["setup.import.stdlib_ms"] = statistics.median(stdlib_total)
    return out


# -- workloads ----------------------------------------------------------------


class Result:
    """What the jobs of one run produced."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.walls: list[float] = []        # per job, s
        self.scaled: list[float] = []       # the same at the reference speed
        self.requests: list[int] = []       # per job
        self.distinct: list[int] = []       # distinct knot expressions per job
        self.rss_kb: list[int] = []
        self.parts: list[tuple[float, float]] = []   # library sweep: grid, deep s, scaled
        self.summaries: list[dict] = []     # child summaries of traced jobs
        self.probe: str | None = None


def cli_batch(res: Result, reqs, traced: bool, tag: str) -> None:
    """One batch child over all lines, fed as consecutive files of
    BATCH_CHUNK lines, each checked as a batch run of its own."""
    chunks = [reqs[lo:lo + BATCH_CHUNK] for lo in range(0, len(reqs), BATCH_CHUNK)]
    paths = [scratch(f"{tag}.requests.{k}") for k in range(len(chunks))]
    for path, chunk in zip(paths, chunks):
        path.write_text("".join(r.line() + "\n" for r, _ in chunk))
    summary = scratch(f"{tag}.summary.json")
    argv = [PY, str(CHILD), "batch", "--summary", str(summary)]
    if traced:
        argv += ["--probe", "--spans", str(OUT / f"spans-{tag}.bin")]
    job = Job([*argv, "--", *map(str, paths)], scratch(f"{tag}.stdout"), scratch(f"{tag}.stderr"))
    if job.code != 0:
        res.tally.add(False, f"batch child exited {job.code}: {job.err()[-400:]}")
        return
    data = json.loads(summary.read_text())
    for path, chunk, code in zip(paths, chunks, data["codes"]):
        check_batch(res.tally, chunk, code, read(path.with_name(path.name + ".out")),
                    read(path.with_name(path.name + ".err")))
    res.walls.append(data["wall_s"])
    res.scaled.append(data["scaled_s"])
    res.rss_kb.append(job.rss_kb)
    res.requests.append(len(reqs))
    res.distinct.append(len({r.knot for r, _ in reqs}))
    if traced:
        res.summaries.append(data)
        res.probe = data.get("probe")


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def cli_oneshot(res: Result, reqs, traced: bool, tag: str, clock: SpeedClock) -> None:
    summary = scratch(f"{tag}.summary.json")
    for i, (req, exp) in enumerate(reqs):
        argv = [PY, str(LAUNCH), *req.argv()]
        if traced:
            argv = [PY, str(HERE / "child.py"), "cli", "--summary", str(summary),
                    "--spans", str(OUT / f"spans-{tag}-{i}.bin"),
                    *(["--probe"] if i == 0 else []), "--", *req.argv()]
        job, wall, scaled = clock.time(Job, argv, scratch(f"{tag}.stdout"),
                                       scratch(f"{tag}.stderr"))
        check_process(res.tally, req, exp, job.code, job.out())
        res.walls.append(job.wall)
        res.scaled.append(job.wall * scaled / wall)
        res.rss_kb.append(job.rss_kb)
        res.requests.append(1)
        res.distinct.append(1)
        if traced:
            res.summaries.append(json.loads(summary.read_text()))
            if i == 0:
                res.probe = res.summaries[-1].get("probe")


def sweep(res: Result, golden: Golden, seed: int, traced: bool, tag: str) -> None:
    summary = scratch(f"{tag}.summary.json")
    argv = [PY, str(HERE / "child.py"), "sweep", "--seed", str(seed),
            "--summary", str(summary), "--probe"]
    if traced:
        argv += ["--spans", str(OUT / f"spans-{tag}.bin")]
    job = Job(argv, scratch(f"{tag}.stdout"), scratch(f"{tag}.stderr"))
    if job.code != 0:
        res.tally.add(False, f"sweep child exited {job.code}: {job.err()[-400:]}")
        return
    data = json.loads(summary.read_text())
    tally = res.tally
    candidates = grid_candidates()
    if digest(f"K{a}{t}" for a, t in candidates) != golden.grid_digest:
        raise SystemExit("grid differs from the recorded one")
    for i, ((a, tangle), got) in enumerate(zip(candidates, data["grid"])):
        if not grid_is_knot(a, tangle):
            want = "L"
        else:
            profile = golden.grid.get(i)
            want = "D" if profile == "D" else exceptional_view(golden, profile)
        if isinstance(got, list):
            got = _tuples(got)
        tally.add(got == want, f"grid K{a}{tangle}: {got} != {want}")
    rows = deep_rows(seed)
    for row, got in zip(rows, data["deep"]):
        tally.add(_tuples(got["exc"]) == _tuples(row["exc"])
                  and got["probes"] == deep_probe_classes(row),
                  f"deep row a={row['a']}: {got['exc']} != {row['exc']}")
    for req, (code, out) in zip(anchor_requests(), data["anchors"]):
        check_process(tally, req, expect(golden, req, golden.hot[req.knot]), code, out)
    count = len(candidates) + len(rows)
    res.walls.append(data["grid_s"] + data["deep_s"])
    res.scaled.append(data["grid_scaled_s"] + data["deep_scaled_s"])
    res.parts.append((data["grid_s"], data["deep_s"],
                      data["grid_scaled_s"], data["deep_scaled_s"]))
    res.rss_kb.append(job.rss_kb)
    res.requests.append(count)
    res.distinct.append(count + len({r.knot for r in anchor_requests()}))
    res.probe = data.get("probe")
    if traced:
        res.summaries.append(data)


def run_jobs(workload: str, seed: int, n_jobs: int, traced: bool, golden: Golden,
             gen: Workloads, clock: SpeedClock) -> Result:
    res = Result()
    tag = f"{workload}-{'traced' if traced else 'plain'}"
    if workload == "oneshot":
        cli_oneshot(res, gen.oneshot(seed, n_jobs), traced, tag, clock)
    elif workload.startswith("batch_"):
        reqs = gen.cold(seed) if workload == "batch_cold" else gen.hot(seed)
        for _ in range(n_jobs):
            cli_batch(res, reqs, traced, tag)
    else:
        for _ in range(n_jobs):
            sweep(res, golden, seed, traced, tag)
    return res


def _tuples(entries: list) -> list[tuple]:
    """JSON lists of exceptional slopes back into comparable tuples."""
    return [tuple(tuple(x) if isinstance(x, list) else x for x in e) for e in entries]


# -- metrics ------------------------------------------------------------------


def end_to_end(res: Result, setup_scaled: list[float]) -> dict[str, tuple[float, str]]:
    """The figures at the reference speed (see speed.py)."""
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "job_p50_ms": (statistics.median(res.scaled) * 1e3, "ms"),
        "rps": (statistics.median(n / w for n, w in zip(res.requests, res.scaled)), "1/s"),
        "peak_rss_mb": (statistics.fmean(res.rss_kb) / 1024, "MB"),
    }


def per_layer(plain: Result, traced: Result, setup_rss: list[int],
              imports: dict[str, float]) -> dict[str, tuple[float, str]]:
    funcs: dict[str, list[float]] = {}
    cold, warm, firsts, wall = [0, 0.0], [0, 0.0], [], 0.0
    for summary in traced.summaries:
        trace = summary["trace"]
        wall += trace["wall_s"]
        for name, row in trace["funcs"].items():
            acc = funcs.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        for acc, row in ((cold, trace["cold"]), (warm, trace["warm"])):
            acc[0] += row[0]
            acc[1] += row[1]
        if trace["first_call_s"] is not None:
            firsts.append(trace["first_call_s"])
    names = [f"{m}.{f.rpartition('.')[2]}" for m, fs in _traced_names().items() for f in fs]
    zero = [0, 0.0, 0.0]
    metrics: dict[str, tuple[float, str]] = {}
    for name in names:
        calls, self_s, _ = funcs.get(name, zero)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.share"] = (self_s / wall if wall else 0.0, "ratio")
    for module in MODULES:
        self_s = sum(row[1] for n, row in funcs.items() if n.startswith(module + "."))
        metrics[f"module.{module}.self_s"] = (self_s, "s")
        metrics[f"module.{module}.share"] = (self_s / wall if wall else 0.0, "ratio")
    knots = sum(traced.distinct)
    glue = funcs.get("tracing.glue_horizontally", zero)[0]
    parse_calls, _, parse_total = funcs.get("wrapped.parse_knot", zero)
    rss_growth = statistics.fmean(plain.rss_kb) - statistics.median(setup_rss)
    metrics.update({
        "tracing.diagrams_per_knot": (glue / knots, "ratio"),
        "wrapped.winding_number.total_s": (funcs.get("wrapped.winding_number", zero)[2], "s"),
        "wrapped.parse_knot.us_per_call":
            (parse_total / parse_calls * 1e6 if parse_calls else 0.0, "us"),
        "classify.classify.cold_us": (cold[1] / cold[0] * 1e6 if cold[0] else 0.0, "us"),
        "classify.classify.warm_us": (warm[1] / warm[0] * 1e6 if warm[0] else 0.0, "us"),
        "classify.first_call_ms": (statistics.fmean(firsts) * 1e3 if firsts else 0.0, "ms"),
        "memory.retained_kb_per_knot": (rss_growth / statistics.fmean(plain.distinct), "KB"),
        "trace.overhead": (sum(traced.walls) / sum(plain.walls), "ratio"),
        "workload.reuse_ratio": (sum(plain.requests) / sum(plain.distinct), "ratio"),
        "probe.huge_entry_failures": (0 if plain.probe == "ok" else 1, "count"),
    })
    for code in (0, 2, 3):
        metrics[f"requests.exit{code}"] = (plain.tally.by_code.get(code, 0), "count")
    metrics.update({name: (value, "ms") for name, value in imports.items()})
    return metrics


def _traced_names() -> dict[str, list[str]]:
    from child import TRACED
    return TRACED


def focus(traced: Result) -> list[tuple[str, float]]:
    """Modules and functions ranked by self time in the traced job."""
    funcs: dict[str, float] = {}
    for summary in traced.summaries:
        for name, row in summary["trace"]["funcs"].items():
            funcs[name] = funcs.get(name, 0.0) + row[1]
    return sorted(funcs.items(), key=lambda kv: -kv[1])[:8]


# -- provenance ---------------------------------------------------------------


def provenance(args, n_jobs: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "wrapsurg").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "pool_seed": POOL_SEED,
        "seconds": args.seconds, "trace": args.trace, "jobs": n_jobs,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": commit, "src_sha256": src_hash.hexdigest(),
        "machine": {"platform": platform.platform(), "cpu": cpu,
                    "loadavg_at_start": os.getloadavg()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(JOB_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wrapsurg" / "cli.py").is_file():
        print(f"no package at {SRC / 'wrapsurg'}; run from a full checkout", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if args.trace:
        n_jobs = TRACED_ONESHOTS if args.workload == "oneshot" else 1
    else:
        n_jobs = jobs_for(args.workload, args.seconds)
    record = {"provenance": provenance(args, n_jobs)}
    pin_to_one_cpu()
    golden, started = Golden(), time.perf_counter()
    gen = Workloads(golden)
    clock = SpeedClock()
    setup_times, setup_scaled, setup_rss = setup_probes(
        SETUP_PROBES if not args.trace else IMPORT_PROBES, clock)

    if not args.trace:
        plain = run_jobs(args.workload, args.seed, n_jobs, False, golden, gen, clock)
        tally = plain.tally
        metrics = end_to_end(plain, setup_scaled)
    else:
        imports = import_breakdown()
        plain = run_jobs(args.workload, args.seed, n_jobs, False, golden, gen, clock)
        traced = run_jobs(args.workload, args.seed, n_jobs, True, golden, gen, clock)
        tally = Tally.merged(plain.tally, traced.tally)
        plain.probe = plain.probe or traced.probe
        metrics = per_layer(plain, traced, setup_rss, imports)
        record["focus_self_s"] = focus(traced)
        if traced.summaries and "phase_self_s" in traced.summaries[0]:
            record["focus_by_phase"] = {
                phase: sorted(funcs.items(), key=lambda kv: -kv[1])[:5]
                for phase, funcs in traced.summaries[0]["phase_self_s"].items()
            }

    # The figures under the names that later changes cite, at the reference
    # speed; the raw wall times are recorded beside them.
    record["named_metrics"] = {
        "setup_s": statistics.median(setup_scaled),
        "failed_frac": tally.failed / max(1, tally.attempted),
        "peak_rss_mb": statistics.fmean(plain.rss_kb) / 1024,
        "requests_by_exit_code": plain.tally.by_code,
        "paper_anchor_failures": tally.anchor_failures,
        "huge_entry_probe": plain.probe,
    }
    named = record["named_metrics"]
    if args.workload == "oneshot":
        named["oneshot_p50_ms"] = statistics.median(plain.scaled) * 1e3
        named["oneshot_p90_ms"] = percentile(plain.scaled, 0.9) * 1e3
        named["oneshot_samples"] = len(plain.scaled)
    elif args.workload.startswith("batch_"):
        named["batch_rps"] = sum(plain.requests) / sum(plain.scaled)
    else:
        named["grid_sweep_s"] = statistics.median(p[2] for p in plain.parts)
        named["deep_cf_s"] = statistics.median(p[3] for p in plain.parts)
        record["parts_wall_s"] = [p[:2] for p in plain.parts]
    record["setup_import_s"] = {"wall": setup_times, "scaled": setup_scaled}
    record["job_s"] = {"wall": plain.walls, "scaled": plain.scaled}
    record["failures"] = tally.examples
    record["run_s"] = time.perf_counter() - started
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))

    if plain.probe not in (None, "ok"):
        print(f"known defect: a {HUGE_ENTRY_DIGITS}-digit entry does not end in "
              f"ParseError: {plain.probe}")
    for example in tally.examples:
        print(f"FAILED: {example[:300]}")
    print(f"record: {OUT / name}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
