"""Child process of the benchmark: the in-process sweeps and the traced runs.

    python3 bench/child.py sweep --seed N --summary FILE [--spans FILE] [--probe]
    python3 bench/child.py batch --summary FILE [--spans FILE] [--probe] -- FILE...
    python3 bench/child.py cli --summary FILE [--spans FILE] [--probe] -- ARGS...

`sweep` times the two parts of the library sweep, the grid and the deep rows,
in a fresh interpreter (import excluded), and then asks the paper anchors
through the CLI.  `batch` runs `wrapsurg.cli.main(["batch", FILE])` on each
request file in turn, in one interpreter, so that the analysis cache carries
over as in one batch run of all their lines; the output of file k goes to
FILE.out and FILE.err.  `cli` runs `wrapsurg.cli.main(ARGS)` and exits with
its code.  The sweep parts and the batch files are timed in stretches, each
between two calibration slices (see speed.py).  With --spans, wrappers
around the package's public functions record a span per call; nothing under
src/ is edited.  With --probe, the >4300-digit entry is parsed first, untimed
and untraced.  The summary (timings, answers, per-function aggregates) goes
to FILE as JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time
from array import array
from functools import update_wrapper
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from launch import watch_peak_rss  # noqa: E402
from speed import SpeedClock  # noqa: E402

# Public functions whose calls the traced run times, by module.  Methods are
# written Class.method.  A name a later version drops is skipped.
TRACED = {
    "slopes": ["parse_slope"],
    "tangles": ["normalize", "montesinos_pairing", "parse_tangle"],
    "tracing": ["twist_word", "build_rational_tangle", "glue_horizontally",
                "close_wrapped", "Diagram.closed_walk", "Diagram.open_strands"],
    "wrapped": ["parse_knot", "make_wrapped", "winding_number", "pretzel_slope"],
    "seifert": ["double_branched_cover", "torus_knot_surgery", "sfs_equal"],
    "classify": ["analysis_of", "classify", "exceptional_slopes",
                 "predict_s3_family", "surgery_in_s3"],
    "cli": ["parse", "run"],
}
COLD, NESTED = 1, 2      # span flags
GRID_CHUNK = 150         # grid candidates timed per stretch


class Tracer:
    """Spans (name, start, end, parent) of every traced call, kept in arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self.stack: list[int] = []
        self.seen: set = set()           # knots already given to classify.*
        self.wall_start = 0.0
        self.wall_end = 0.0

    def wrap(self, name: str, fn, first_sight: bool):
        sid = len(self.names)
        self.names.append(name)
        depth = [0]
        names, parents, flags = self.name, self.parent, self.flags
        starts, ends = self.start, self.end
        stack, seen, clock = self.stack, self.seen, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            flag = NESTED if depth[0] else 0
            if first_sight:
                knot = args[0] if args else kwargs.get("knot")
                if knot not in seen:
                    seen.add(knot)
                    flag |= COLD
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            flags.append(flag)
            ends.append(0.0)
            stack.append(i)
            depth[0] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                depth[0] -= 1
                stack.pop()

        return update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap the public functions and rebind every wrapsurg.* reference."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wrapsurg" or n.startswith("wrapsurg.")]
        for modname, functions in TRACED.items():
            module = sys.modules.get(f"wrapsurg.{modname}")
            for qualname in functions:
                owner, _, attr = qualname.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, attr, None) if holder is not None else None
                if original is None:
                    continue
                wrapped = self.wrap(f"{modname}.{attr}", original, modname == "classify")
                if owner:
                    setattr(holder, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        self.wall_start = time.perf_counter()

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-function calls, self and total time; cold/warm classify calls.

        lo and hi select the spans of one phase, which no span straddles.
        """
        n = len(self.start) if hi is None else hi
        inner = [0.0] * n
        for i in range(lo, n):
            p = self.parent[i]
            if p >= 0:
                inner[p] += self.end[i] - self.start[i]
        funcs = {name: [0, 0.0, 0.0] for name in self.names}
        cold, warm = [0, 0.0], [0, 0.0]
        first_call = None
        for i in range(lo, n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            row = funcs[name]
            row[0] += 1
            row[1] += duration - inner[i]
            if not self.flags[i] & NESTED:
                row[2] += duration
            if name.startswith("classify."):
                if first_call is None:
                    first_call = duration
                if self.flags[i] & COLD:
                    cold[0] += 1
                    cold[1] += duration
                elif name == "classify.classify":
                    warm[0] += 1
                    warm[1] += duration
        return {
            "wall_s": self.wall_end - self.wall_start,
            "funcs": funcs,
            "cold": cold,
            "warm": warm,
            "first_call_s": first_call,
            "spans": n,
        }

    def write_spans(self, path: str) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["name:i", "parent:i", "flags:b", "start:d", "end:d"]}
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.flags, self.start, self.end):
                arr.tofile(handle)


def huge_entry_probe(wrapsurg) -> str:
    """'ok' when a >4300-digit entry is refused with ParseError, else what happened."""
    text = "K0[" + "1" * inputs.HUGE_ENTRY_DIGITS + "]"
    try:
        wrapsurg.parse_knot(text)
    except wrapsurg.ParseError:
        return "ok"
    except Exception as err:  # the probe reports whatever escapes
        return f"{type(err).__name__}: {str(err)[:120]}"
    return "accepted without error"


def _exceptional_view(table) -> list:
    out = []
    for r, result in table:
        cert = result.certificate
        view = None
        if cert is not None:
            view = inputs.cert_view(cert.source.value, str(cert.slope), cert.piece)
        fiber = tuple(result.seifert_indices) if result.seifert_indices else None
        out.append((str(r), result.type.value, fiber, view))
    return out


def _grid_chunk(W, chunk) -> list:
    results = []
    for _, (a, tangle) in chunk:
        try:
            knot = W.make_wrapped(a, W.parse_tangle(tangle))
        except W.NotAKnotError:
            results.append("L")
            continue
        try:
            results.append(W.exceptional_slopes(knot))
        except W.DegenerateKnotError:
            results.append("D")
    return results


def sweep_grid(W, seed: int, clock: SpeedClock):
    candidates = list(enumerate(inputs.grid_candidates()))
    random.Random(seed).shuffle(candidates)
    results = []
    for lo in range(0, len(candidates), GRID_CHUNK):
        results += clock.time(_grid_chunk, W, candidates[lo:lo + GRID_CHUNK])[0]
    answers = [None] * len(candidates)
    for (index, _), result in zip(candidates, results):
        answers[index] = result if isinstance(result, str) else _exceptional_view(result)
    return answers


def _deep_row(W, row) -> tuple:
    tangle = W.MontesinosTangle.from_slopes([W.make_slope(p, q) for p, q in row["entries"]])
    knot = W.make_wrapped(row["a"], tangle)
    table = W.exceptional_slopes(knot)
    probes = [W.classify(knot, W.make_slope(r, 1)) for r in row["probes"]]
    return table, probes


def sweep_deep(W, seed: int, clock: SpeedClock):
    results = [clock.time(_deep_row, W, row)[0] for row in inputs.deep_rows(seed)]
    return [
        {"exc": _exceptional_view(table), "probes": [c.type.value for c in probes]}
        for table, probes in results
    ]


def run_batches(cli, files: list[str], clock: SpeedClock) -> list[int]:
    """Exit code of `batch FILE` for each file, its output in FILE.out/.err."""
    codes = []
    for path in files:
        with open(path + ".out", "w", encoding="utf-8") as out, \
                open(path + ".err", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(clock.time(cli.main, ["batch", path])[0])
    return codes


def run_anchors(cli) -> list:
    out = []
    for req in inputs.anchor_requests():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(req.argv())
        out.append([code, buffer.getvalue()])
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("sweep", "batch", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--probe", action="store_true")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    opts = parser.parse_args(argv[:cut])
    opts.args = argv[cut + 1:]
    watch_peak_rss()

    import wrapsurg
    import wrapsurg.cli
    summary: dict = {}
    if opts.probe:
        summary["probe"] = huge_entry_probe(wrapsurg)
    tracer = Tracer() if opts.spans else None
    if tracer:
        tracer.install()

    code = 0
    clock = SpeedClock()
    if opts.mode == "sweep":
        summary["grid"] = sweep_grid(wrapsurg, opts.seed, clock)
        summary["grid_s"], summary["grid_scaled_s"] = clock.wall, clock.scaled
        boundary = len(tracer.start) if tracer else 0
        summary["deep"] = sweep_deep(wrapsurg, opts.seed, clock)
        summary["deep_s"] = clock.wall - summary["grid_s"]
        summary["deep_scaled_s"] = clock.scaled - summary["grid_scaled_s"]
        if tracer:
            phases = {"grid": tracer.summary(0, boundary),
                      "deep": tracer.summary(boundary, len(tracer.start))}
            summary["phase_self_s"] = {
                phase: {name: row[1] for name, row in data["funcs"].items()}
                for phase, data in phases.items()
            }
        summary["anchors"] = run_anchors(wrapsurg.cli)
    elif opts.mode == "batch":
        summary["codes"] = run_batches(wrapsurg.cli, opts.args, clock)
        summary["wall_s"], summary["scaled_s"] = clock.wall, clock.scaled
    else:
        code = wrapsurg.cli.main(opts.args)
        sys.stdout.flush()

    if tracer:
        tracer.wall_end = time.perf_counter()
        summary["trace"] = tracer.summary()
        tracer.write_spans(opts.spans)
    Path(opts.summary).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
