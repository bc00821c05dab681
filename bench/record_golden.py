"""Record the answers the benchmark checks against into golden/answers.json.

Run once, from the repository root, at the commit whose answers are the
reference:

    python3 bench/record_golden.py

It also checks the benchmark's mod-2 knot test against the package on every
generated candidate, so the generator never hands the package a link where
the recorded answers expect a knot.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from inputs import HOT_N_SPAN, knot_text  # noqa: E402
from wrapsurg import (  # noqa: E402
    DegenerateKnotError,
    NotAKnotError,
    SurgeryType,
    exceptional_slopes,
    make_slope,
    make_wrapped,
    parse_knot,
    parse_tangle,
    predict_s3_family,
    surgery_in_s3,
)


class Recorder:
    def __init__(self) -> None:
        self.certs: list[tuple] = []
        self.results: list[str] = []

    def cert(self, certificate) -> int | None:
        if certificate is None:
            return None
        key = (certificate.source.value, str(certificate.slope), certificate.piece)
        if key not in self.certs:
            self.certs.append(key)
        return self.certs.index(key)

    def result(self, sfs) -> int | None:
        if sfs is None:
            return None
        if str(sfs) not in self.results:
            self.results.append(str(sfs))
        return self.results.index(str(sfs))

    def profile(self, knot):
        try:
            table = exceptional_slopes(knot)
        except DegenerateKnotError:
            return "D"
        out = []
        for r, result in table:
            n0 = None
            if result.type is SurgeryType.TOROIDAL:
                n0 = predict_s3_family(knot, r).n0
            fiber = list(result.seifert_indices) if result.seifert_indices else None
            out.append([str(r), result.type.value, fiber, self.cert(result.certificate), n0])
        return out or None


def _check_knot(text: str, expected: bool) -> None:
    try:
        parse_knot(text)
        is_knot = True
    except NotAKnotError:
        is_knot = False
    if is_knot != expected:
        raise SystemExit(f"mod-2 knot test disagrees with the package on {text}")


def hot_universe() -> list[str]:
    """Knots of every exceptional class, under shifts, reversal, mirror, twist."""
    texts = []
    for m in range(-6, 7):                       # Whitehead closure, twisted
        texts += [knot_text(0, [(2, 4 * m + 1)]), knot_text(0, [(-2, 4 * m + 1)])]
    texts += ["K0[2,0]", "K0[0,2]", "K0[1,1]", "K0[3,-1]"]
    for d in range(-4, 5):                       # the (-2,3) pretzel, shifted
        left, right = (2 * d - 1, 2), (1 - 3 * d, 3)
        texts += [knot_text(1, [left, right]), knot_text(1, [right, left])]
        mleft, mright = (-left[0], 2), (-right[0], 3)
        texts += [knot_text(1, [mleft, mright]), knot_text(1, [mright, mleft])]
    texts += ["K1[-1/2,1/3,0]", "K1[1/2,1/3,-1]"]
    for m in range(3, 9):                        # integer entries
        texts += [f"K0[{m}]", f"K1[{m}]", f"K0[{-m}]"]
    for m in (3, 5):
        for k in (-2, -1, 1, 2):
            texts.append(knot_text(0, [(m, 2 * k * m + 1)]))
    for q1, q2 in [(2, 3), (3, 5), (-3, 5), (2, -5), (3, 3), (4, 5), (-2, 5), (2, 7)]:
        for a in (0, 1):                         # other pretzels
            texts.append(knot_text(a, [(1, q1), (1, q2)]))
    texts += ["K0[3/7]", "K1[5/7]", "K0[7/5]", "K1[-7/3]", "K0[2/5,3/7]",
              "K1[1/3,2/5,-3/4]", "K1[2]", "K1[2/5]",
              "K0[0]", "K1[-1/2]", "K0[1/3]", "K1[1/4]"]
    out = []
    for text in texts:
        try:
            parse_knot(text)
        except NotAKnotError:
            continue
        if text not in out:
            out.append(text)
    return out


def main() -> None:
    rec = Recorder()
    knots, links = inputs.cold_pool()
    for text in links:
        _check_knot(text, False)
    pool = {}
    for i, text in enumerate(knots):
        _check_knot(text, True)
        profile = rec.profile(parse_knot(text))
        if profile is not None:
            pool[i] = profile

    grid_texts, grid = [], {}
    for i, (a, tangle) in enumerate(inputs.grid_candidates()):
        grid_texts.append(f"K{a}{tangle}")
        try:
            knot = make_wrapped(a, parse_tangle(tangle))
        except NotAKnotError:
            if inputs.grid_is_knot(a, tangle):
                raise SystemExit(f"mod-2 knot test disagrees on K{a}{tangle}")
            continue
        if not inputs.grid_is_knot(a, tangle):
            raise SystemExit(f"mod-2 knot test disagrees on K{a}{tangle}")
        profile = rec.profile(knot)
        if profile is not None:
            grid[i] = profile

    hot, s3 = [], {}
    for text in hot_universe():
        knot = parse_knot(text)
        profile = rec.profile(knot)
        hot.append([text, profile])
        for r, *_ in profile if isinstance(profile, list) else []:
            slope = make_slope(int(r), 1)
            known = [surgery_in_s3(knot, slope, n) for n in range(-HOT_N_SPAN, HOT_N_SPAN + 1)]
            if any(known):
                s3.setdefault(text, {})[r] = [rec.result(x) for x in known]

    data = {
        "certs": rec.certs,
        "pool_digest": inputs.digest(knots),
        "grid_digest": inputs.digest(grid_texts),
        "pool": pool,
        "grid": grid,
        "hot": hot,
        "s3": s3,
        "s3_results": rec.results,
    }
    inputs.GOLDEN.parent.mkdir(exist_ok=True)
    inputs.GOLDEN.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"pool {len(knots)} knots ({len(pool)} with a profile), {len(links)} links; "
          f"grid {len(grid_texts)} candidates; hot {len(hot)} knots, {len(s3)} with S^3 data")


if __name__ == "__main__":
    main()
