"""Golden guard: CLI answers over the exhaustive k<=2 grid, links included.

For each of eleven commands, every grid candidate's knot text, exit code,
stdout and stderr are folded into one sha256 digest.  The first three were
recorded before the closure trace was unified, the `table` and `predict 7`
ones before sweeps were read off the exceptional set, and the `classify 8`,
`classify -8` and `predict -7` ones (the (-2, 3) pretzel's n0 window and S^3
covers, plain and mirrored) before each knot class's table was stated once,
and the `predict 6` and `predict -6` ones (the pretzel's S^3 covers at its
torus-piece slope) before the canonical knot stopped being built, and the
`twist` one before the JSON emitter replaced json.dumps, so any refactor that
changes a single byte of any answer (or of any error message) fails here.
One more digest folds a batch run over every command, quoting style, comment,
blank and error line (`_batch_text`), recorded before the batch tokenizer
took a fast path in front of shlex.split.  One more folds `predict KNOT r --n
-3..3 --format json` at every exceptional slope r of every hyperbolic grid knot
(`_exceptional_digest`): each answer, its notes, its family and its S^3 rows,
for every class with a table, recorded before each table entry stated its
family.  One more folds the benchmark's seed-101 batch_hot request list, run
as batch files of HOT_CHUNK lines (`_hot_digest`), recorded before warm JSON
answers were spliced from pre-rendered pieces.  One more folds the
connectivity oracle itself (`_oracle_digest`): `trace_closure` on every grid
entry list, links included, and `pretzel_framing` on every pretzel shape near
the grid, recorded before the diagram became a list of strand-end mates.
One more folds text answers over the whole grid (`_text_digest`): `normalize
--moves`, `table --range -12..12 --moves`, `twist --n -2..2` and, at every
exceptional slope r of every hyperbolic grid knot, `predict r --n -3..3`,
recorded before text answers stopped being read back from JSON-shaped dicts.

Beside the digests, `_census` writes one readable line per hyperbolic grid
knot with a table: its class, its slope map and, at each exceptional slope,
the answer's type and indices and the family.  It must equal the committed
tests/golden/census.txt, so a change of answers shows knot by knot in a diff;
after a deliberate change, rewrite the file with
`PYTHONPATH=src:tests python -c "import test_golden_cli as g; g.CENSUS.write_text(g._census())"`.
In the same way `_s3_rows` writes one readable line per S^3 row that the
grid's tables reach, for n in -8..8, and per a = 1 `twist` row of K1[m] for
|m| <= 6; it must equal the committed tests/golden/s3_rows.txt (rewrite it
with `g.S3_ROWS.write_text(g._s3_rows())`).  The S^3 covers and the twist
fractions are otherwise seen only inside the digests.

Every JSON answer folded into a digest must also be the text of
json.dumps(json.loads(answer), indent=2, sort_keys=True); `_check_json` raises
`JSONContractError` on the first that is not.  Besides the digests, the two
integer rules that keep the strand tracer off the request path are compared
with it: `_closure_mismatches` compares the parity rule `closure_facts` with
`trace_closure` on every grid entry list, links included, and
`_framing_mismatches` compares the spanning-surface rule
`wrapped.pretzel_slope` with `pretzel_framing` on every pretzel-shaped knot
of `_framing_shapes`.  Beside them `_homology_mismatches` pins the twist half
of the slope map: on every S^3 row of a (-2, 3)-class grid knot, the first
homology of a small Seifert cover has the order |r + n wind^2| of the knot's
own slope r carried by n twists (`transport_slope`).  None rests on assert
statements, so all three check under `python -O` too.

The module imports neither pytest nor hypothesis, so the digests can be checked
on an interpreter without them: `PYTHONPATH=src python tests/test_golden_cli.py`
recomputes all sixteen, checks the JSON answers in them, the parity rule on
the grid, the framing rule on its shapes and the homology orders of the S^3
rows, prints the unified diffs of the
census and the S^3 rows against their files, and exits 1 on a mismatch.
"""
import contextlib
import difflib
import hashlib
import importlib.util
import io
import itertools
import json
import re
import sys
import tempfile
from math import gcd
from pathlib import Path

from wrapsurg import (
    InconsistentCrossCheckError,
    KnotClass,
    MontesinosTangle,
    NotAKnotError,
    WrappedKnot,
    analysis_of,
    closure_facts,
    SFSKind,
    make_slope,
    parse_knot,
    pretzel_slope,
    transport_slope,
    twist,
    two_bridge_fraction,
)
from wrapsurg.classify import _FIXED_TABLES, _reduce
from wrapsurg.cli import main
from wrapsurg.tracing import pretzel_framing, trace_closure

GOLDEN = {
    ("normalize", "--format", "json"): "5ae8aaa7db083b4839c353283355b8712488dece5a627342fa62e607a149005a",
    ("slopes", "--format", "json"): "e3b898e0e8718ac09ebf15fb14c93bbef82cc60358a65bdd4dc04bd049d274ee",
    ("slopes", "--moves"): "467dcee5dafe6ce4f32fe8290c3d83eb61d184a62161dbfccc824e457ef76ba1",
    ("table", "--range", "-12..12", "--format", "json"): "98167b877c0b199434f8c74fbead7e7aafec773b198446cfb9f1dc035d9a4c52",
    ("predict", "7", "--n", "-3..3", "--format", "json"): "6174d5c4b55a47ad0ed42816b695448511f4b3657db90dafa68e52067758d31f",
    ("classify", "8", "--format", "json"): "e8c79cf3dfc5d326709ff600560bb7d085b09d7e1a14b8885c9c93c0d462d539",
    ("classify", "-8", "--format", "json"): "2b815118fad16246403e414a3399008106d4b25004db2331bbb193ea95e72097",
    ("predict", "-7", "--n", "-3..3", "--format", "json"): "83174c945bef2bee65611bcce07f44a6eec1cd69c116656a186c0a20ffae0440",
    ("predict", "6", "--n", "-3..3", "--format", "json"): "ceb5b157db253dd1ade8cb91a806e334f19665dd9c3fbda3b2e527119929ef3e",
    ("predict", "-6", "--n", "-3..3", "--format", "json"): "8fc1f32b7e486f2326451326ff065eb1d3a5dd6c54317b5a14f28d58c225a34c",
    ("twist", "--n", "-2..2", "--format", "json"): "d11f24c861b877910d3cffcfafcf9596294cce66da86cd470131ae22c7536b9f",
}
BATCH_GOLDEN = "1c907c14ce20aabbdc44a07feaa2c9f18dc6378f7ad8416f54f0910192f41244"
EXCEPTIONAL_GOLDEN = "fded5ceab67238c846974e0aae1701a1934394145bc6cb8ce5d8f35239b31199"
HOT_GOLDEN = "e66f391e1aaae2085d80e151037f4fbb87c3e13f6728d3cb7c4d949c5a34a110"
ORACLE_GOLDEN = "0318c88efd0853f6e42b4af09548f18c7fe689f0b6e4b8ce60cda168fba0ebf3"
TEXT_GOLDEN = "7fc538a17cf0ed8e2a67397f13a57fd1e666d96dbe3fb28f007bea784d846636"
# Lines per batch file of the batch_hot digest, as the benchmark feeds them.
HOT_CHUNK = 500
CENSUS = Path(__file__).resolve().parent / "golden" / "census.txt"
S3_ROWS = CENSUS.with_name("s3_rows.txt")
# The twists n of every row of the S^3 rows file.
S3_TWISTS = range(-8, 9)


def _grid_slopes(bound=6):
    """Every p/q in lowest terms with |p| <= bound and 1 <= q <= bound."""
    out = []
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1:
                out.append(make_slope(p, q))
    return out


def _entry_lists():
    """(a, entries) for every grid candidate, in the order of `_candidates`."""
    entries = _grid_slopes()
    for a in (0, 1):
        for e1 in entries:
            yield a, (e1,)
            for e2 in entries:
                yield a, (e1, e2)


def _knot_text(a, entries):
    return f"K{a}[{','.join(map(str, entries))}]"


def _candidates():
    for a, entries in _entry_lists():
        yield _knot_text(a, entries)


class JSONContractError(AssertionError):
    """A JSON answer that is not the text of sorted, indented json.dumps."""


# A JSON answer in a CLI run's stdout: from a line "{" to the next line "}",
# since every nested bracket is indented and strings hold no newline.
_JSON_ANSWER = re.compile(r"^\{\n.*?\n\}$", re.M | re.S)


def _check_json(request, out):
    """Raise `JSONContractError` unless every JSON answer in `out` is the text
    of json.dumps(json.loads(answer), indent=2, sort_keys=True)."""
    for answer in _JSON_ANSWER.findall(out):
        try:
            again = json.dumps(json.loads(answer), indent=2, sort_keys=True)
        except ValueError:
            again = None
        if answer != again:
            raise JSONContractError(f"{request}: a JSON answer is not sorted indented json.dumps")


def _fold(sha, argv):
    """Fold one CLI run into sha: its knot text argv[1], exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    _check_json(" ".join(argv), out.getvalue())
    for part in (argv[1], str(code), out.getvalue(), err.getvalue()):
        sha.update(part.encode())
        sha.update(b"\0")


def _digest(command, *flags):
    sha = hashlib.sha256()
    for knot in _candidates():
        _fold(sha, [command, knot, *flags])
    return sha.hexdigest()


def _exceptional_digest():
    """`predict KNOT r --n -3..3 --format json` at each exceptional slope r of
    each grid knot, links and degenerate knots skipped."""
    sha = hashlib.sha256()
    for knot in _candidates():
        try:
            analysis = analysis_of(parse_knot(knot))
        except NotAKnotError:
            continue
        if analysis.knot_class is KnotClass.DEGENERATE:
            continue
        for r, _ in analysis.exceptional_slopes():
            sha.update(f"{r}\0".encode())
            _fold(sha, ["predict", knot, str(r), "--n", "-3..3", "--format", "json"])
    return sha.hexdigest()


def _text_digest():
    """Text answers for every grid candidate, links and degenerate knots
    included: `normalize --moves`, `table --range -12..12 --moves`, `twist
    --n -2..2` and, at each exceptional slope r of a hyperbolic knot,
    `predict r --n -3..3`."""
    sha = hashlib.sha256()
    for knot in _candidates():
        _fold(sha, ["normalize", knot, "--moves"])
        _fold(sha, ["table", knot, "--range", "-12..12", "--moves"])
        _fold(sha, ["twist", knot, "--n", "-2..2"])
        try:
            analysis = analysis_of(parse_knot(knot))
        except NotAKnotError:
            continue
        if analysis.knot_class is KnotClass.DEGENERATE:
            continue
        for r, _ in analysis.exceptional_slopes():
            _fold(sha, ["predict", knot, str(r), "--n", "-3..3"])
    return sha.hexdigest()


def _oracle_digest():
    """`trace_closure` on every grid entry list, links included, and
    `pretzel_framing` (or the name of the error it raises) on every
    (1/q1,1/q2) with 2 <= |qi| <= 7 and every (m) with |m| <= 9, for a = 0, 1."""
    sha = hashlib.sha256()
    for a, entries in _entry_lists():
        c = trace_closure(entries, a)
        fields = (_knot_text(a, entries), c.components, c.winding, c.pairing.value, c.loops)
        sha.update(f"{fields}\0".encode())
    qs = [q for q in range(-7, 8) if abs(q) >= 2]
    shapes = [(make_slope(1, q1), make_slope(1, q2)) for q1 in qs for q2 in qs]
    shapes += [(make_slope(m, 1),) for m in range(-9, 10)]
    for a, entries in itertools.product((0, 1), shapes):
        try:
            framing = str(pretzel_framing(entries, a))
        except (ValueError, InconsistentCrossCheckError) as err:
            framing = type(err).__name__
        sha.update(f"{_knot_text(a, entries)} {framing}\0".encode())
    return sha.hexdigest()


def _indices(pair):
    return "" if pair is None else " (%d,%d)" % pair


def _census():
    """The census: after a header, for each hyperbolic grid knot with a table,
    in grid order, its text, class and slope map (sigma, twists, and the
    shift of its twist move), then
    at each exceptional slope the type, the fiber indices (of the piece, for a
    toroidal answer) and the family with its n0 and fiber indices."""
    lines = ["# knot class sigma twists shift | slope type (indices) family n0 (fiber indices) | ..."]
    for knot in _candidates():
        try:
            analysis = analysis_of(parse_knot(knot))
        except NotAKnotError:
            continue
        if analysis.knot_class is KnotClass.DEGENERATE or not analysis.exceptional:
            continue
        shift = sum(move.shift for move in analysis.moves)
        fields = [f"{knot} {analysis.knot_class.value} {analysis.slope_map.sigma} "
                  f"{analysis.slope_map.twists} {shift}"]
        for r, (answer, family, _) in analysis.table.items():
            cert = answer.certificate
            indices = answer.seifert_indices or (cert and cert.piece_indices)
            n0 = "" if family.n0 is None else f" n0={family.n0}"
            fields.append(f"{r} {answer.type.value}{_indices(indices)} "
                          f"{family.kind.value}{n0}{_indices(family.fiber_indices)}")
        lines.append(" | ".join(fields))
    return "\n".join(lines) + "\n"


def _s3_rows():
    """The S^3 rows: after a header, for each hyperbolic grid knot in grid
    order, at each table slope whose twisted images have known S^3
    surgeries, one line per n of S3_TWISTS with the knot, slope, n and the
    cover's text, and for a small Seifert cover the order of its first
    homology, `|H1|=m`; then, after a second header, each a = 1 `twist` row of
    K1[m] for |m| <= 6 (odd m closes to a link) with the knot, n, the
    twisted image and its two-bridge fraction."""
    lines = ["# knot slope n | S^3 surgery of the n-twisted image"]
    for knot in _candidates():
        try:
            analysis = analysis_of(parse_knot(knot))
        except NotAKnotError:
            continue
        if analysis.knot_class is KnotClass.DEGENERATE:
            continue
        for r, (_, _, rc) in analysis.table.items():
            if rc is None:
                continue
            for n, cover in analysis.surgeries_in_s3(r, S3_TWISTS):
                order = (f" |H1|={cover.invariants.homology_order()}"
                         if cover.kind is SFSKind.SMALL_SEIFERT else "")
                lines.append(f"{knot} {r} {n} | {cover}{order}")
    lines.append("# knot n | twisted image, two-bridge fraction")
    for m in range(-6, 7):
        try:
            knot = parse_knot(f"K1[{m}]")
        except NotAKnotError:
            continue
        lines += [f"{knot} {n} | {twist(knot, n)} {two_bridge_fraction(knot, n)}"
                  for n in S3_TWISTS]
    return "\n".join(lines) + "\n"


def _golden_diff(path, text):
    """The unified diff from the committed file at `path` to `text`; empty
    when they agree."""
    return "".join(difflib.unified_diff(
        path.read_text(encoding="utf-8").splitlines(True), text.splitlines(True),
        f"tests/golden/{path.name}", "this code's answers"))


def rule_disagrees_with_trace(a, entries):
    """Whether `closure_facts` and `trace_closure` disagree on the closure:
    on knot or link, on the pairing (None for a hidden loop) and, for a
    knot, on the winding number."""
    knot, winding, pairing = closure_facts(entries, a)
    closure = trace_closure(entries, a)
    if knot != (closure.components == 1):
        return True
    if pairing is not (None if closure.loops else closure.pairing):
        return True
    return knot and winding != closure.winding


def _closure_mismatches():
    """The grid closures on which the parity rule and the trace disagree."""
    return [_knot_text(a, entries) for a, entries in _entry_lists()
            if rule_disagrees_with_trace(a, entries)]


def _framing_shapes():
    """(a, entries) of each pretzel shape on which the framing rule is checked,
    links included: (m) with |m| <= 60 and (1/q1,1/q2) with 2 <= |qi| <= 60,
    which hold every pretzel shape of the grid; (1/q1,1/q2) with q1 or q2
    within 1 of +-10**5, +-10**6 or +-10**9 and the other among those or of
    2 <= |q| <= 60; all for a = 0 and 1; and each spanning-surface table
    source that a grid knot reduces to."""
    small = [q for q in range(-60, 61) if abs(q) >= 2]
    big = [sign * (10**k + d) for k in (5, 6, 9) for d in (-1, 0, 1) for sign in (1, -1)]
    pairs = [*itertools.product(small, small), *itertools.product(big, small + big),
             *itertools.product(small, big)]
    shapes = [(make_slope(m, 1),) for m in range(-60, 61)]
    shapes += [(make_slope(1, q1), make_slope(1, q2)) for q1, q2 in pairs]
    yield from itertools.product((0, 1), shapes)
    for knot in _candidates():
        try:
            knot = parse_knot(knot)
        except NotAKnotError:
            continue
        source = _reduce(knot.a, knot.tangle, knot.winding)[2]
        if source is not None and source[0] not in _FIXED_TABLES:
            yield source[1:]


def _framing_mismatches():
    """The knots of `_framing_shapes`, each once, on which `pretzel_slope`
    and `pretzel_framing` disagree, and how many knots were compared."""
    knots = {}
    for a, entries in _framing_shapes():
        try:
            knots[a, entries] = WrappedKnot(a, MontesinosTangle(entries))
        except NotAKnotError:
            continue
    mismatches = [str(knot) for (a, entries), knot in knots.items()
                  if pretzel_slope(knot).p != pretzel_framing(entries, a)]
    return mismatches, len(knots)


def _homology_mismatches():
    """The S^3 rows (knot, slope, n) of the (-2, 3)-class grid knots, at each
    table slope r whose rows are known and each n of S3_TWISTS, whose cover
    is small Seifert with |H1| other than |transport_slope(knot, r, n)|, and
    how many small Seifert rows were compared."""
    mismatches, compared = [], 0
    for knot in _candidates():
        try:
            analysis = analysis_of(parse_knot(knot))
        except NotAKnotError:
            continue
        if analysis.knot_class is not KnotClass.PRETZEL_2_3:
            continue
        for r, (_, _, rc) in analysis.table.items():
            if rc is None:
                continue
            for n, cover in analysis.surgeries_in_s3(r, S3_TWISTS):
                if cover.kind is SFSKind.SMALL_SEIFERT:
                    compared += 1
                    order = abs(transport_slope(analysis.knot, r, n).p)
                    if cover.invariants.homology_order() != order:
                        mismatches.append(f"{knot} {r} {n}")
    return mismatches, compared


def test_golden_oracle_digest():
    assert _oracle_digest() == ORACLE_GOLDEN


def test_parity_rule_equals_the_trace_on_every_grid_entry_list():
    assert _closure_mismatches() == []


def test_framing_rule_equals_the_trace_on_every_pretzel_shape():
    mismatches, compared = _framing_mismatches()
    assert mismatches == []
    assert compared == 19222


def test_every_small_seifert_s3_row_has_the_homology_of_its_knots_slope():
    mismatches, compared = _homology_mismatches()
    assert mismatches == []
    assert compared == 464


def test_census_matches_the_committed_file():
    diff = _golden_diff(CENSUS, _census())
    assert not diff, "the census differs from tests/golden/census.txt:\n" + diff


def test_s3_rows_match_the_committed_file():
    diff = _golden_diff(S3_ROWS, _s3_rows())
    assert not diff, "the S^3 rows differ from tests/golden/s3_rows.txt:\n" + diff


def test_grid_has_all_candidates():
    assert sum(1 for _ in _candidates()) == 4512


def test_golden_cli_digests_on_grid():
    for (command, *flags), expected in GOLDEN.items():
        assert _digest(command, *flags) == expected, (command, flags)


def test_golden_predict_digest_at_every_exceptional_slope():
    assert _exceptional_digest() == EXCEPTIONAL_GOLDEN


def test_golden_text_digest_on_grid():
    assert _text_digest() == TEXT_GOLDEN


def _batch_text():
    """Every command in text and JSON, with and without --moves, on knot words
    written bare, single-quoted, double-quoted and backslash-escaped, among
    comment, blank and failing lines."""
    knots = ["K1[-1/2,1/3]", "K1[1/2,-1/3]", "K0[2]", "K0[5/3,-2/3]", "K0[-1/3,-1/3]",
             "K1[2]", "K0[0]", "K1[-1/2]", "K2[1]"]
    quotings = itertools.cycle([
        lambda k: k, lambda k: f"'{k}'", lambda k: f'"{k}"',
        lambda k: k.replace("[", "\\[").replace(",", "\\,"),
        lambda k: f"K'{k[1:]}'", lambda k: f"'{k[:3]}'{k[3:]}",
    ])
    commands = ["classify {} 7", "classify {} -6", "slopes {}", "normalize {}",
                "twist {} --n -1..1", "predict {} 6 --n -2..2", "table {} --range -2..9"]
    lines = ["# every command, format and quoting", ""]
    for knot, command, fmt, moves in itertools.product(
        knots, commands, ("", " --format json"), ("", " --moves")
    ):
        lines.append(command.format(next(quotings)(knot)) + fmt + moves)
    lines += [
        "   ", "\t# an indented comment", "classify\tK0[2]\t\t1", "bogus",
        "classify", "classify 'K0[2] 1", 'classify "K0[2] 1', "classify K0[2] 1 \\",
        "classify K0[2] '' 1", "classify K0[2] 1 --range 0..1", "table K0[2]",
        "batch other.txt", "slopes K0[2] --format yaml", "classify K0[2] 1/0",
        "twist 'K0[2]' --n 3..1", "classify K0[2]\xa01",
    ]
    return "\n".join(lines) + "\n"


def _batch_digest(directory):
    script = Path(directory) / "requests.txt"
    script.write_text(_batch_text(), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["batch", str(script)])
    _check_json("batch", out.getvalue())
    sha = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        sha.update(part.encode())
        sha.update(b"\0")
    return sha.hexdigest()


def test_golden_batch_digest(tmp_path):
    assert _batch_digest(tmp_path) == BATCH_GOLDEN


def _hot_lines(seed=101):
    """The benchmark's batch_hot request lines for `seed`, from bench/inputs.py,
    which is only imported and imports nothing of the package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses looks its module up
    try:
        spec.loader.exec_module(inputs)
        return [request.line() for request, _ in inputs.Workloads(inputs.Golden()).hot(seed)]
    finally:
        del sys.modules[spec.name]


def _hot_digest(directory):
    """Each batch_hot file of HOT_CHUNK lines run as one batch: its exit code,
    stdout and stderr, in order."""
    lines = _hot_lines()
    sha = hashlib.sha256()
    script = Path(directory) / "hot.txt"
    for lo in range(0, len(lines), HOT_CHUNK):
        script.write_text("".join(line + "\n" for line in lines[lo:lo + HOT_CHUNK]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["batch", str(script)])
        _check_json(f"batch_hot lines {lo + 1}-{lo + HOT_CHUNK}", out.getvalue())
        for part in (str(code), out.getvalue(), err.getvalue()):
            sha.update(part.encode())
            sha.update(b"\0")
    return sha.hexdigest()


def test_golden_batch_hot_digest(tmp_path):
    assert _hot_digest(tmp_path) == HOT_GOLDEN


def _mismatch(name, digest, expected):
    """None if digest() gives expected, else what went wrong."""
    try:
        return None if digest() == expected else name
    except JSONContractError as err:
        return str(err)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        checks = [(" ".join(command), lambda command=command: _digest(*command), expected)
                  for command, expected in GOLDEN.items()]
        checks += [
            ("batch", lambda: _batch_digest(directory), BATCH_GOLDEN),
            ("batch_hot seed 101", lambda: _hot_digest(directory), HOT_GOLDEN),
            ("predict at every exceptional slope", _exceptional_digest, EXCEPTIONAL_GOLDEN),
            ("text answers on the grid", _text_digest, TEXT_GOLDEN),
            ("trace_closure and pretzel_framing", _oracle_digest, ORACLE_GOLDEN),
        ]
        mismatches = [found for found in itertools.starmap(_mismatch, checks) if found]
    total = len(checks)
    print(f"{total - len(mismatches)} of {total} golden digests match"
          + "".join(f"\nmismatch: {name}" for name in mismatches))
    disagreements = _closure_mismatches()
    print(f"parity rule: {len(disagreements)} of 4512 grid closures disagree with trace_closure"
          + "".join(f"\nmismatch: parity rule on {text}" for text in disagreements[:10]))
    framing, compared = _framing_mismatches()
    print(f"framing rule: {len(framing)} of {compared} closures disagree with pretzel_framing"
          + "".join(f"\nmismatch: framing rule on {text}" for text in framing[:10]))
    homology, rows = _homology_mismatches()
    print(f"homology: {len(homology)} of {rows} small Seifert S^3 rows have |H1| other than"
          " the knot's own slope"
          + "".join(f"\nmismatch: homology on {row}" for row in homology[:10]))
    diffs = []
    for name, path, text in (("census", CENSUS, _census()), ("s3 rows", S3_ROWS, _s3_rows())):
        diffs.append(_golden_diff(path, text))
        print(f"{name}: " + (f"differs from tests/golden/{path.name}\n{diffs[-1]}" if diffs[-1]
                             else f"matches tests/golden/{path.name}"), end="" if diffs[-1] else "\n")
    sys.exit(1 if mismatches or disagreements or framing or homology or any(diffs) else 0)
