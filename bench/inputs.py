"""Seeded inputs of the wrapsurg benchmark and the answers they must produce.

Nothing here imports the package under test: knots are generated as text,
knot-ness is decided by mod-2 tangle arithmetic, and every expected answer
comes from `golden/answers.json` (recorded from the package once, by
`record_golden.py`), from closed formulas for the deep rows, or from the
paper anchors hard-coded below.
"""
from __future__ import annotations

import hashlib
import json
import random
import shlex
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden") / "answers.json"

# The cold pool is the first POOL_SIZE distinct knots of the candidate stream
# drawn with POOL_SEED, exactly as tests/conftest.py::random_knot draws them.
POOL_SEED = 20110521
POOL_SIZE = 40000
COLD_LINES = 20000
HOT_LINES = 20000
# Hot-set quotas by number of exceptional slopes ("D": degenerate): the
# (-2,3) pretzel class, one toroidal slope, the Whitehead class, none.
HOT_QUOTAS = (("3", 20), ("1", 18), ("5", 18), ("0", 5), ("D", 3))
HOT_KNOTS = sum(quota for _, quota in HOT_QUOTAS)
DEEP_DIGITS = 3500       # about how many digits the many-digit entries have
HOT_N_SPAN = 40          # surgeries in S^3 are recorded for n in [-40, 40]

PRETZEL_PIECE = "essential torus bounding a small Seifert piece with fiber indices {2,4}"
KLEIN_PIECE = "essential torus bounding a twisted I-bundle over the Klein bottle"

# Paper anchors: the Whitehead closure and the wrapped (-2,3) pretzel.
# slope -> (type, fiber indices)
PAPER_ANCHORS = {
    "K0[2]": {
        "0": ("toroidal", None), "1": ("small-seifert", None),
        "2": ("small-seifert", None), "3": ("small-seifert", None),
        "4": ("toroidal", None),
    },
    "K1[-1/2,1/3]": {
        "6": ("toroidal", None), "7": ("small-seifert", (3, 5)),
        "8": ("toroidal", None),
    },
}


# -- knots as text --------------------------------------------------------


def slope_text(p: int, q: int) -> str:
    if q < 0:
        p, q = -p, -q
    g = gcd(abs(p), q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def knot_text(a: int, slopes) -> str:
    return f"K{a}[" + ",".join(slope_text(p, q) for p, q in slopes) + "]"


def knot_entries(text: str) -> tuple[int, list[Fraction]]:
    """Inverse of knot_text for well-formed knots."""
    return int(text[1]), [Fraction(e) for e in text[3:-1].split(",")]


def closes_to_knot(a: int, slopes) -> bool:
    """Whether K^a[slopes] has one component, by mod-2 tangle arithmetic.

    A rational tangle p/q joins its endpoints top-to-top (p even), across
    (p, q odd) or left-to-left (q even); the horizontal sum adds fractions
    mod 2, and two left-to-left summands leave a closed circle (0/0).  The
    wrap arcs then give one component unless they repeat the pairing:
    left-to-left for a = 0, across for a = 1.
    """
    p, q = 0, 1
    for sp, sq in slopes:
        g = gcd(sp, sq)
        sp, sq = sp // g, sq // g
        p, q = (p * sq + sp * q) % 2, (q * sq) % 2
    if (p, q) == (0, 0):
        return False
    return (p, q) != ((1, 0) if a == 0 else (1, 1))


def _candidates(rng: random.Random):
    """The draws of tests/conftest.py::random_knot(rng, 3, 20), links included."""
    while True:
        k = rng.randint(1, 3)
        slopes = [(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(k)]
        a = rng.randint(0, 1)
        yield a, slopes


def cold_pool() -> tuple[list[str], list[str]]:
    """The pool of distinct random knots and the links rejected on the way."""
    knots: list[str] = []
    links: list[str] = []
    seen: set[str] = set()
    for a, slopes in _candidates(random.Random(POOL_SEED)):
        text = knot_text(a, slopes)
        if not closes_to_knot(a, slopes):
            links.append(text)
        elif text not in seen:
            seen.add(text)
            knots.append(text)
            if len(knots) == POOL_SIZE:
                return knots, links


def grid_candidates() -> list[tuple[int, str]]:
    """The exhaustive k <= 2 grid of tests/test_classify.py, links included."""
    entries = [
        slope_text(p, q)
        for q in range(1, 7)
        for p in range(-6, 7)
        if gcd(abs(p), q) == 1
    ]
    out = []
    for a in (0, 1):
        for t1 in entries:
            out.append((a, f"[{t1}]"))
            out.extend((a, f"[{t1},{t2}]") for t2 in entries)
    return out


def grid_is_knot(a: int, tangle: str) -> bool:
    entries = map(Fraction, tangle[1:-1].split(","))
    return closes_to_knot(a, [(f.numerator, f.denominator) for f in entries])


def digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


# -- golden answers ---------------------------------------------------------


class Golden:
    """Answers recorded from the package at the commit that added the benchmark.

    A profile is None (no exceptional slope), "D" (degenerate: every command
    but normalize exits 3) or a list of exceptional slopes
    [slope, type, fiber indices, certificate index, n0].
    """

    def __init__(self, path: Path = GOLDEN) -> None:
        data = json.loads(path.read_text())
        self.certs = [tuple(c) for c in data["certs"]]
        self.pool_digest = data["pool_digest"]
        self.grid_digest = data["grid_digest"]
        self.pool = {int(i): p for i, p in data["pool"].items()}
        self.grid = {int(i): p for i, p in data["grid"].items()}
        self.hot = {k: v for k, v in data["hot"]}
        results = data["s3_results"]
        self.s3 = {
            knot: {r: [None if i is None else results[i] for i in row] for r, row in rows.items()}
            for knot, rows in data["s3"].items()
        }


@dataclass
class Expect:
    """What one request must produce: an exit code and, on 0, an answer."""

    code: int
    answer: dict | None = None


def cert_view(source: str, slope: str, piece: str | None) -> tuple[str, str]:
    """A certificate as both output formats show it."""
    return (source, piece or f"slope {slope}")


def exceptional_view(golden: Golden, profile) -> list[tuple]:
    out = []
    for slope, typ, fiber, cert, _ in profile or []:
        view = None if cert is None else cert_view(*golden.certs[cert])
        out.append((slope, typ, tuple(fiber) if fiber else None, view))
    return out


def classification(golden: Golden, profile, slope: str) -> tuple[tuple, tuple | None]:
    """(type, slope, fiber indices, certificate) and the family prediction."""
    if slope == "inf":
        return ("trivial-filling", slope, None, None), None
    for r, typ, fiber, cert, n0 in profile or []:
        if r == slope:
            fiber = tuple(fiber) if fiber else None
            view = None if cert is None else cert_view(*golden.certs[cert])
            if typ == "small-seifert":
                family = ("seifert-or-reducible", None, fiber)
            else:
                family = ("toroidal-cofinite", n0, None)
            return (typ, slope, fiber, view), family
    return ("hyperbolic", slope, None, None), ("hyperbolic-interior", None, None)


def normal_form(knot: str) -> tuple:
    """(e0, fracs) of the shift-reduced normal form, by exact arithmetic."""
    _, entries = knot_entries(knot)
    e0, fracs = 0, []
    for value in entries:
        floor = value.numerator // value.denominator
        e0 += floor
        if value != floor:
            fracs.append(str(value - floor))
    return e0, tuple(fracs)


# -- requests ---------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    cmd: str
    knot: str
    slope: str | None = None
    span: tuple[int, int] | None = None      # --range
    n_span: tuple[int, int] | None = None    # --n
    json: bool = False
    moves: bool = False

    def argv(self) -> list[str]:
        args = [self.cmd, self.knot]
        if self.slope is not None:
            args.append(self.slope)
        if self.span:
            args += ["--range", f"{self.span[0]}..{self.span[1]}"]
        if self.n_span:
            args += ["--n", f"{self.n_span[0]}..{self.n_span[1]}"]
        if self.json:
            args += ["--format", "json"]
        if self.moves:
            args.append("--moves")
        return args

    def line(self) -> str:
        return shlex.join(self.argv())


def expect(golden: Golden, req: Request, profile) -> Expect:
    """The answer a request on a knot with this profile must produce."""
    if profile == "D" and req.cmd != "normalize":
        return Expect(3)
    answer: dict = {"knot": req.knot}
    if req.cmd == "normalize":
        answer["nf"] = normal_form(req.knot) + (profile == "D",)
    if req.cmd in ("classify", "predict"):
        answer["cls"], family = classification(golden, profile, req.slope)
        answer["family"] = family
    if req.cmd in ("slopes", "table"):
        answer["exc"] = exceptional_view(golden, profile)
    if req.cmd == "table":
        lo, hi = req.span
        answer["sweep"] = [
            (str(v), classification(golden, profile, str(v))[0][0])
            for v in range(lo, hi + 1)
        ]
    if req.cmd == "predict" and req.n_span and req.slope != "inf":
        lo, hi = req.n_span
        known = golden.s3.get(req.knot, {}).get(req.slope)
        answer["surg"] = [
            (n, known[n + HOT_N_SPAN] if known else None) for n in range(lo, hi + 1)
        ]
    return Expect(0, answer)


def anchor_requests() -> list[Request]:
    """The paper anchors, asked through the CLI in every workload."""
    return [
        Request("table", "K0[2]", span=(-1, 5)),
        Request("table", "K1[-1/2,1/3]", span=(5, 9)),
        Request("predict", "K1[-1/2,1/3]", "7", n_span=(0, 4)),
    ]


def paper_anchor_failures(req: Request, answer: dict | None) -> int:
    """1 when an answer about a paper anchor knot contradicts the paper, else 0."""
    facts = PAPER_ANCHORS.get(req.knot)
    if facts is None:
        return 0
    if answer is None:
        return 1
    if req.cmd in ("slopes", "table"):
        got = {r: (t, f) for r, t, f, _ in answer["exc"]}
        if got != facts:
            return 1
    cls = answer.get("cls")
    if cls and cls[1] in facts and (cls[0], cls[2]) != facts[cls[1]]:
        return 1
    return 0


def _random_slope(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return slope_text(rng.randint(-80, 80), rng.choice((2, 3, 5)))
    return str(rng.randint(-40, 40))


def _pick_slope(rng: random.Random, profile, p_exceptional: float) -> str:
    if isinstance(profile, list) and rng.random() < p_exceptional:
        return rng.choice(profile)[0]
    if rng.random() < 0.02:
        return "inf"
    return _random_slope(rng)


# Lines the CLI refuses with exit 2.  A bad slope comes with a knot: the CLI
# reports a link (exit 3) before it reads the slope.
MALFORMED = [
    Request("classify", "K2[1/2]", "3"),
    Request("classify", "K0[1/2", "3"),
    Request("classify", "K0[1/3]", "3/0"),
    Request("slopes", "K0[]"),
    Request("classify", "K0[1/0]", "1"),
    Request("table", "K1[a]", span=(0, 2)),
]


class Workloads:
    """Seeded request lists, each request paired with its expected answer."""

    def __init__(self, golden: Golden) -> None:
        self.golden = golden
        self._pool = None

    def pool(self):
        if self._pool is None:
            knots, links = cold_pool()
            if digest(knots) != self.golden.pool_digest:
                raise SystemExit("cold pool differs from the recorded one; "
                                 "rerun bench/record_golden.py at the parent commit")
            self._pool = knots, links
        return self._pool

    def _anchors(self) -> list[tuple[Request, Expect]]:
        return [(r, expect(self.golden, r, self.golden.hot[r.knot])) for r in anchor_requests()]

    def cold(self, seed: int, count: int = COLD_LINES) -> list[tuple[Request, Expect]]:
        """Distinct random knots, text output, mostly classify."""
        rng = random.Random(seed)
        knots, links = self.pool()
        out = self._anchors()
        for i in rng.sample(range(len(knots)), count):
            knot, profile = knots[i], self.golden.pool.get(i)
            roll = rng.random()
            if roll < 0.6:
                req = Request("classify", knot, _pick_slope(rng, profile, 0.2))
            elif roll < 0.72:
                req = Request("slopes", knot)
            elif roll < 0.82:
                req = Request("normalize", knot)
            elif roll < 0.92:
                lo = rng.randint(-30, 20)
                req = Request("table", knot, span=(lo, lo + rng.randint(5, 20)))
            else:
                req = Request("predict", knot, _pick_slope(rng, profile, 0.3))
            out.append((req, expect(self.golden, req, profile)))
        # A few links (exit 3) and malformed lines (exit 2) at seeded places.
        for _ in range(count // 100):
            req = Request("classify", rng.choice(links), _random_slope(rng))
            out.insert(rng.randint(3, len(out)), (req, Expect(3)))
        for _ in range(count // 400):
            req = rng.choice(MALFORMED)
            out.insert(rng.randint(3, len(out)), (req, Expect(2)))
        return out

    def hot(self, seed: int, count: int = HOT_LINES) -> list[tuple[Request, Expect]]:
        """Zipf-distributed requests on a small hot set; half JSON output."""
        rng = random.Random(seed)
        chosen = self._hot_set(rng)
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(HOT_KNOTS)]
        out = self._anchors()
        for knot in rng.choices(chosen, weights, k=count):
            profile = self.golden.hot[knot]
            fmt_json = rng.random() < 0.5
            moves = rng.random() < 0.1
            roll = rng.random()
            if roll < 0.4:
                req = Request("classify", knot, _pick_slope(rng, profile, 0.5))
            elif roll < 0.6:
                lo = rng.randint(-60, 20)
                req = Request("table", knot, span=(lo, lo + rng.randint(20, 120)))
            elif roll < 0.8:
                slope = _pick_slope(rng, profile, 0.7)
                n_span = None
                if rng.random() < 0.7:
                    lo = rng.randint(-HOT_N_SPAN, HOT_N_SPAN - 30)
                    n_span = (lo, lo + rng.randint(5, 30))
                req = Request("predict", knot, slope, n_span=n_span)
            elif roll < 0.9:
                req = Request("slopes", knot)
            else:
                req = Request("normalize", knot)
            req = replace(req, json=fmt_json, moves=moves)
            out.append((req, expect(self.golden, req, profile)))
        return out

    def _hot_set(self, rng: random.Random) -> list[str]:
        """HOT_KNOTS knots, most popular first, with a fixed class per rank.

        The seed picks which knots of each class take part; fixing how many
        of each class, and their ranks, keeps the work of every seed alike.
        """
        classes: dict[str, list[str]] = {}
        for knot in sorted(self.golden.hot):
            profile = self.golden.hot[knot]
            label = "D" if profile == "D" else str(len(profile or []))
            classes.setdefault(label, []).append(knot)
        picks = {label: rng.sample(classes[label], quota) for label, quota in HOT_QUOTAS}
        ranked = []
        while len(ranked) < HOT_KNOTS:
            for label, _ in HOT_QUOTAS:
                if picks[label]:
                    ranked.append(picks[label].pop())
        return ranked

    def oneshot(self, seed: int, count: int) -> list[tuple[Request, Expect]]:
        """One classify per process on pool knots, plus the paper anchors."""
        rng = random.Random(seed)
        knots, _ = self.pool()
        out = self._anchors()
        for i in rng.sample(range(len(knots)), count - len(out)):
            knot, profile = knots[i], self.golden.pool.get(i)
            req = Request("classify", knot, _pick_slope(rng, profile, 0.3),
                          json=rng.random() < 0.25)
            out.append((req, expect(self.golden, req, profile)))
        rng.shuffle(out)
        return out


# -- deep rows ---------------------------------------------------------------


def _fibonacci_ratio(n: int) -> tuple[int, int]:
    """F(n+1)/F(n), whose continued fraction has about n terms."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = a + b, a
    return a, b


def _digits(rng: random.Random, lo: int, hi: int) -> int:
    d = rng.randint(lo, hi)
    return rng.randint(10 ** (d - 1), 10 ** d - 1)


def deep_rows(seed: int) -> list[dict]:
    """Deep continued fractions and many-digit entries, with their answers.

    Each row: a, entries [(p, q)], the slopes to classify, and the expected
    exceptional set as [slope, type, fiber indices, certificate view].  The
    answers follow from the equivalence moves: K0[2/(4m+1)] is the Whitehead
    closure twisted -m times (winding 0), K0[5/(10m+1)] is the integer entry
    5 twisted -m times (winding 2, so its toroidal slope moves to 4m), and
    K1[-1/2+s, 1/3-s] shifts the (-2,3) pretzel.  Fibonacci-ratio knots have
    no exceptional slope.  Entries stay below 4300 digits, and the seed moves
    sizes only slightly, so that every seed asks for about the same work.
    """
    rng = random.Random(seed)
    rows = _deep_round(rng, set())
    for row in rows:
        probes = [int(e[0]) for e in row["exc"]][:2] + [rng.randint(-40, 40)]
        row["probes"] = probes
    return rows


def _fibonacci_row(rng: random.Random, n: int, second: tuple | None, used: set) -> dict:
    """A Fibonacci-ratio knot not asked before: a repeat would hit the cache.

    Moving n by 3 keeps the parities of F(n+1)/F(n), so a stays valid.
    """
    tail = [second] if second else []
    p, q = _fibonacci_ratio(n)
    choices = [a for a in (0, 1) if closes_to_knot(a, [(p, q)] + tail)]
    while not choices:
        n += 1
        p, q = _fibonacci_ratio(n)
        choices = [a for a in (0, 1) if closes_to_knot(a, [(p, q)] + tail)]
    a = rng.choice(choices)
    while (a, n, second) in used:
        n += 3
    used.add((a, n, second))
    return {"a": a, "entries": [_fibonacci_ratio(n)] + tail, "exc": []}


def _deep_round(rng: random.Random, used: set) -> list[dict]:
    rows = [
        _fibonacci_row(rng, rng.randint(995, 1005), None, used),
        _fibonacci_row(rng, rng.randint(995, 1005), None, used),
        _fibonacci_row(rng, rng.randint(2995, 3005), None, used),
        _fibonacci_row(rng, rng.randint(2995, 3005), None, used),
    ]
    for n in (rng.randint(995, 1005), rng.randint(1995, 2005)):
        rows.append(_fibonacci_row(rng, n, rng.choice([(1, 3), (-1, 5), (2, 7)]), used))
    whitehead = [
        ["0", "toroidal", None, ("whitehead-slope", "slope 0")],
        ["1", "small-seifert", None, None],
        ["2", "small-seifert", None, None],
        ["3", "small-seifert", None, None],
        ["4", "toroidal", None, ("whitehead-slope", "slope 4")],
    ]
    for _ in range(2):
        m = _digits(rng, DEEP_DIGITS - 50, DEEP_DIGITS + 50)
        rows.append({"a": 0, "entries": [(2, 4 * m + 1)], "exc": whitehead})
    for _ in range(2):
        m = _digits(rng, DEEP_DIGITS - 50, DEEP_DIGITS + 50)
        exc = [[str(4 * m), "toroidal", None, ("pretzel-surface", "slope 0")]]
        rows.append({"a": 0, "entries": [(5, 10 * m + 1)], "exc": exc})
    for sign in (1, -1):
        s = _digits(rng, DEEP_DIGITS - 50, DEEP_DIGITS + 50)
        entries = [(sign * (2 * s - 1), 2), (sign * (1 - 3 * s), 3)]
        exc = [
            [str(6 * sign), "toroidal", None, ("torus-piece", PRETZEL_PIECE)],
            [str(7 * sign), "small-seifert", (3, 5), None],
            [str(8 * sign), "toroidal", None, ("torus-piece", KLEIN_PIECE)],
        ]
        rows.append({"a": 1, "entries": entries, "exc": sorted(exc, key=lambda e: int(e[0]))})
    return rows


def deep_probe_classes(row: dict) -> list[str]:
    exc = {e[0]: e[1] for e in row["exc"]}
    return [exc.get(str(r), "hyperbolic") for r in row["probes"]]


# The >4300-digit entry: Python refuses to convert it to int by default, and
# the package should report that as a ParseError (exit 2), not crash.
HUGE_ENTRY_DIGITS = 4400
