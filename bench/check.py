"""Read answers back from CLI output (text or JSON) and judge them.

An answer is what a user relies on: the classification type, slope,
certificate and fiber indices, the family prediction, the exceptional
slopes, the sweep, the surgeries in S^3, the normal form and the exit code.
Layout, key order and JSON indentation do not matter.
"""
from __future__ import annotations

import json
import re

from inputs import Expect, Request, paper_anchor_failures

_CLS = re.compile(
    r"(?P<type>[a-z-]+)"
    r"(?: \(fiber indices (?P<f1>-?\d+),(?P<f2>-?\d+)\))?"
    r"(?: \[(?P<src>[a-z-]+): (?P<detail>.*)\])?$"
)
_NF = re.compile(r"e0=(?P<e0>-?\d+) fracs=\[(?P<fracs>[^\]]*)\](?P<deg>\s+\[degenerate\])?")
_ERROR_LINE = re.compile(r"^line (\d+): error:", re.M)


def _cls_text(body: str) -> tuple | None:
    m = _CLS.match(body.strip())
    if m is None:
        return None
    fiber = (int(m["f1"]), int(m["f2"])) if m["f1"] else None
    cert = (m["src"], m["detail"]) if m["src"] else None
    return m["type"], fiber, cert


def _family_text(body: str) -> tuple:
    if body.startswith("every embedding is reducible or small Seifert fibered"):
        m = re.search(r"with fiber indices (-?\d+),(-?\d+)", body)
        return ("seifert-or-reducible", None, (int(m[1]), int(m[2])) if m else None)
    if body.startswith("toroidal for all but at most three embeddings"):
        m = re.search(r"n0=(-?\d+)", body)
        return ("toroidal-cofinite", int(m[1]) if m else None, None)
    return ("hyperbolic-interior", None, None)


def from_text(lines: list[str]) -> dict:
    rec: dict = {"exc": [], "sweep": [], "surg": []}
    for line in lines:
        if line.startswith("knot: "):
            rec["knot"] = line[6:].strip()
        elif line.startswith("normal form: "):
            m = _NF.search(line)
            fracs = tuple(f for f in m["fracs"].split(",") if f) if m else None
            rec["nf"] = (int(m["e0"]), fracs, bool(m["deg"])) if m else None
        elif line.startswith("classification: "):
            body, _, slope = line[16:].rpartition(" at slope ")
            typ, fiber, cert = _cls_text(body) or (None, None, None)
            rec["cls"] = (typ, slope.strip(), fiber, cert)
        elif line.startswith("family: "):
            rec["family"] = _family_text(line[8:])
        elif line.startswith("exceptional slopes:"):
            continue
        elif line.startswith("exceptional "):
            slope, _, body = line[12:].partition(": ")
            rec["exc"].append((slope, *(_cls_text(body) or (None, None, None))))
        elif line.startswith("  r="):
            value, _, typ = line[4:].partition(": ")
            rec["sweep"].append((value, typ.strip()))
        elif line.startswith("  n="):
            n, _, result = line[4:].partition(": ")
            result = result.strip()
            rec["surg"].append((int(n), None if result == "unknown" else result))
    rec.setdefault("family", None)
    return rec


def _cls_json(record: dict) -> tuple:
    cert = record.get("certificate")
    view = (cert["source"], cert.get("piece") or f"slope {cert['slope']}") if cert else None
    fiber = tuple(record["fiber_indices"]) if record.get("fiber_indices") else None
    return record["type"], record["slope"], fiber, view


def from_json(payload: dict) -> dict:
    rec: dict = {"knot": payload.get("input", {}).get("knot")}
    nf = payload.get("normal_form")
    if nf:
        rec["nf"] = (nf["e0"], tuple(nf["fracs"]), bool(nf["degenerate"]))
    if payload.get("classification"):
        rec["cls"] = _cls_json(payload["classification"])
    family = payload.get("family_prediction")
    rec["family"] = (
        (family["kind"], family.get("n0"),
         tuple(family["fiber_indices"]) if family.get("fiber_indices") else None)
        if family else None
    )
    rec["exc"] = []
    for entry in payload.get("exceptional_slopes", []):
        typ, _, fiber, view = _cls_json(entry["classification"])
        rec["exc"].append((entry["slope"], typ, fiber, view))
    rec["sweep"] = [(row["slope"], row["type"]) for row in payload.get("sweep", [])]
    rec["surg"] = [(s["n"], s["result"]) for s in payload.get("surgeries", [])]
    return rec


def matches(expected: dict, got: dict | None) -> bool:
    if got is None:
        return False
    for key, value in expected.items():
        have = got.get(key)
        if isinstance(value, list):
            value = [tuple(v) if isinstance(v, list) else v for v in value]
        if have != value:
            return False
    return True


def split_records(out: str, formats: list[bool]):
    """Yield the parsed answer of each successful request, in order.

    `formats` says, per request that printed something, whether it asked for
    JSON.  A record that cannot be read yields None.
    """
    decoder = json.JSONDecoder()
    pos, end = 0, len(out)
    # Next start of a text or a JSON record; -1 once none is left.
    starts = {marker: out.find(marker, 1) for marker in ("\nknot: ", "\n{")}

    def next_start() -> int:
        for marker, at in starts.items():
            if 0 <= at <= pos:
                starts[marker] = out.find(marker, pos + 1)
        return min((at for at in starts.values() if at > pos), default=end)

    for is_json in formats:
        while pos < end and out[pos].isspace():
            pos += 1
        if pos >= end:
            yield None
            continue
        if is_json:
            try:
                payload, pos = decoder.raw_decode(out, pos)
                yield from_json(payload)
                continue
            except ValueError:
                pass
        stop = next_start()
        chunk = out[pos:stop]
        pos = stop + 1
        yield None if is_json else from_text(chunk.splitlines())


class Tally:
    """Attempted and failed operations, with the requests by exit code."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_code: dict[int, int] = {}
        self.anchor_failures = 0
        self.examples: list[str] = []

    @classmethod
    def merged(cls, *parts: "Tally") -> "Tally":
        total = cls()
        for part in parts:
            total.attempted += part.attempted
            total.failed += part.failed
            total.anchor_failures += part.anchor_failures
            total.examples += part.examples
        return total

    def add(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(what)

    def request(self, req: Request, exp: Expect, code: int, answer: dict | None) -> None:
        self.by_code[exp.code] = self.by_code.get(exp.code, 0) + 1
        ok = code == exp.code and (exp.code != 0 or matches(exp.answer, answer))
        if exp.code == 0:
            bad = paper_anchor_failures(req, answer)
            self.anchor_failures += bad
            ok = ok and not bad
        self.add(ok, f"{req.line()} -> exit {code}, {answer}")


def check_process(tally: Tally, req: Request, exp: Expect, code: int, out: str) -> None:
    answer = None
    if code == 0:
        answer = next(split_records(out, [req.json]))
    tally.request(req, exp, code, answer)


def check_batch(tally: Tally, reqs: list[tuple[Request, Expect]], code: int,
                out: str, err: str) -> None:
    """Judge one batch run: answers on stdout, one error line per failed line."""
    error_lines = {int(n) for n in _ERROR_LINE.findall(err)}
    first_error = next((exp.code for _, exp in reqs if exp.code), 0)
    printed = [(i, r, e) for i, (r, e) in enumerate(reqs, 1) if i not in error_lines]
    answers = split_records(out, [r.json for _, r, _ in printed])
    got = {i: a for (i, _, _), a in zip(printed, answers)}
    for i, (req, exp) in enumerate(reqs, 1):
        # An error line shows that a line failed, not with which code; the
        # batch exit code, checked below, is that of the first failed line.
        line_code = (exp.code or 2) if i in error_lines else 0
        tally.request(req, exp, line_code, got.get(i))
    tally.add(code == first_error, f"batch exit code {code}, expected {first_error}")
