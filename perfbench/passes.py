"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passes.py SPEC.json TRACE RESULT.json

run.py starts this once per pass, so no cache inside covtt outlives a pass,
just as none outlives a user's `covtt` invocation.  The pass imports covtt
from src/ of the checkout, builds every input object, then times each item
from its first call to its verdict and checks the verdict against a
reference that does not come from covtt.  It writes its result as JSON.

Every time is taken on a PassClock (calibrate.py), which runs reference
samples on a timer throughout the pass and leaves their time out, and is
rescaled by the samples taken during and around it.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from calibrate import NOMINAL_S, PassClock  # noqa: E402

# After the closed loop of a plain pass, short items are timed again: the
# machine's slow phases switch within milliseconds, so they average out within
# one timing of a long item but not of a short one.  A library item (a
# persistence code, a CT or minimality check) is run again until its timings
# add up to RETIME_S, at most RETIMES_MAX more times.  A CLI call on a
# judgment file is run again spec["cli_retimes"] times on the lines whose
# records took less than RETIME_S / (1 + cli_retimes), so that no line's
# timings add up to much more than RETIME_S.  Traced passes skip this: their
# counters cover the closed loop only.
RETIME_S = 0.5
RETIMES_MAX = 20

CLOCK = PassClock()
CLOCK.start()
_t = CLOCK.now()
import covtt.kleene  # noqa: E402  (timed: it builds the machine's constant codes)
KLEENE_IMPORT = (_t, CLOCK.now())

from covtt import cli, covers, kernel, kleene, realizability, syntax  # noqa: E402
from tests import test_acceptance as acc  # noqa: E402

from tracer import Tracer  # noqa: E402

# verdicts that are exact answers; "exact" marks records without a verdict
# field (the well-founded part), which are always exact
EXACT = {"accepted", "rejected", "yes", "no", "covered", "not-covered", "ok",
         "minimal", "not-minimal", "exact"}

# Reference functions for corpus/ct.judg, in file order: the Python
# arithmetic each `ct` line's function term is meant to compute.
CT_FUNCTIONS = (
    lambda x: x,
    lambda x: x + 1,
    lambda x: 2 * x,
    lambda x: x + 2,
    lambda x: x * (x + 1) // 2,
)


class Item:
    __slots__ = ("intervals", "verdict", "failed", "wrong", "note", "again")

    def __init__(self, start, end, verdict, failed=False, wrong=False, note="",
                 again=None):
        # the timed intervals: the closed loop's first, then any re-timings
        self.intervals = [(start, end)]
        self.again = again                  # runs a library item again
        self.verdict = verdict
        self.failed, self.wrong, self.note = failed or wrong, wrong, note


class Stamped:
    """The out stream handed to cli.main: keeps the text, stamps each line."""

    def __init__(self, on_line):
        self.parts: list[str] = []
        self.stamps: list[float] = []
        self.on_line = on_line

    def write(self, s: str) -> int:
        self.parts.append(s)
        for _ in range(s.count("\n")):
            self.stamps.append(CLOCK.now())
            self.on_line()
        return len(s)

    def flush(self):
        pass


class Pass:
    """The items of one pass.  Records are checked against their references
    in finish(), after the clock has stopped."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.entries: list = []
        self.digest = hashlib.sha256()

    def item_done(self):
        if self.tracer:
            self.tracer.item_done()

    def record_done(self):
        if self.tracer:
            self.tracer.records += 1
        self.item_done()

    def cli_call(self, call: dict):
        """Run one `covtt` command on a line-stamping out stream."""
        out = Stamped(self.record_done)
        start = CLOCK.now()
        error = None
        try:
            rc = cli.main(call["argv"], out)
        except Exception as e:              # any exception fails the item
            rc, error = None, type(e).__name__
        end = CLOCK.now()
        # each record closed its own item; close the ones that never came
        for _ in range(len(call["records"]) - len(out.stamps)):
            self.item_done()
        self.entries.append((call, out, start, end, rc, error))

    def library_call(self, fn, reference, verdicts=("yes", "no")):
        start = CLOCK.now()
        error = None
        try:
            got = fn()
        except Exception as e:
            got, error = None, type(e).__name__
        end = CLOCK.now()
        self.item_done()
        if error:
            self.entries.append(Item(start, end, "none", failed=True, note=error))
            return
        self.digest.update(repr(got).encode() + b"\x00")
        ok = got == reference
        self.entries.append(Item(start, end, verdicts[0] if got else verdicts[1],
                                 wrong=not ok, note="" if ok else f"got {got!r}", again=fn))

    def finish(self) -> list[Item]:
        items = []
        self.calls = []                     # (call, its items)
        for entry in self.entries:
            if isinstance(entry, Item):
                items.append(entry)
            else:
                self.calls.append((entry[0], self._cli_items(*entry)))
                items.extend(self.calls[-1][1])
        return items

    def retime(self, items: list[Item], cli_retimes: int, work: Path):
        # round robin, so that one item's timings are spread over the phase
        for _ in range(RETIMES_MAX):
            for it in items:
                if it.again and sum(b - a for a, b in it.intervals) < RETIME_S:
                    start = CLOCK.now()
                    it.again()
                    it.intervals.append((start, CLOCK.now()))
        for n, (call, mine) in enumerate(self.calls if cli_retimes else ()):
            keep = [i for i, it in enumerate(mine) if not it.failed and
                    it.intervals[0][1] - it.intervals[0][0] < RETIME_S / (1 + cli_retimes)]
            if not keep or any("src" not in call["records"][i] for i in keep):
                continue
            path = work / f"retime-{n}.judg"
            path.write_text("".join(call["records"][i]["src"] + "\n" for i in keep),
                            encoding="utf-8")
            for _ in range(cli_retimes):
                out = Stamped(lambda: None)
                cli.main([call["argv"][0], str(path)] + call["argv"][2:], out)
                # the first record is dropped: it also carries the call's
                # set-up, which parses the whole (here smaller) file
                prev = None
                for i, stamp in zip(keep, out.stamps):
                    if prev is not None:
                        mine[i].intervals.append((prev, stamp))
                    prev = stamp

    def _cli_items(self, call, out, start, end, rc, error) -> list[Item]:
        """One item per expected record; a record's time is the gap since the
        previous record (or since the call for the first)."""
        expected = call["records"]
        text = "".join(out.parts)
        self.digest.update(text.encode() + b"\x00")
        lines = text.splitlines()
        items = []
        prev = start
        for i, want in enumerate(expected):
            if i < len(lines):
                rec = json.loads(lines[i])
                why = _contradicts(rec, want)
                items.append(Item(prev, out.stamps[i], rec.get("verdict", "exact"),
                                  wrong=bool(why), note=why))
                prev = out.stamps[i]
            else:
                items.append(Item(prev, end, "none", failed=True,
                                  note=error or "missing record"))
                prev = end
        if len(lines) > len(expected):
            items[-1].wrong = items[-1].failed = True
            items[-1].note = "unexpected extra records"
        want_rc = _expected_exit(call, expected)
        if error is None and rc != want_rc:
            items[-1].failed = True
            items[-1].wrong = rc in (0, 1, 2)      # a documented code that contradicts
            items[-1].note = f"exit code {rc}, expected {want_rc}"
        return items


def _expected_exit(call: dict, expected: list) -> int:
    cmd = call["argv"][0]
    if cmd == "check":
        return int(any(w["expect"] == "rejected" for w in expected))
    if cmd == "cover":
        return int(any(w["expect"] == "not-covered" or
                       (w["expect"] == "oracle-set" and not _oracle(w)[0])
                       for w in expected))
    return 0


def _oracle(want: dict) -> tuple[bool, list[str]]:
    """tests/test_acceptance.py's derivation-search oracle on a small axiom set."""
    ax = want["axioms"]
    n = ax["n"]
    index = {p: frozenset(js) for p, js in ((int(p), js) for p, js in ax["index"].items())}
    cover = {tuple(map(int, k.split(","))): frozenset(v) for k, v in ax["cover"].items()}
    for p in range(n):
        index.setdefault(p, frozenset())
    plain = SimpleNamespace(carrier=frozenset(range(n)), index=index, cover=cover)
    elem, v = want["query"]
    sat = acc._oracle_set(plain, frozenset(v))
    return elem in sat, sorted(f"p{p}" for p in sat)


def _contradicts(rec: dict, want: dict) -> str:
    """Why rec contradicts its reference, or '' when it agrees."""
    kind = want["expect"]
    verdict = rec.get("verdict")
    if kind in ("accepted", "rejected"):
        if verdict != kind:
            return f"{verdict}, expected {kind}"
        rule = want.get("rule")
        if "rule_from" in want:
            table, k = want["rule_from"]
            rule = getattr(acc, table)[k]
        if rule is not None and rec.get("rule") != rule:
            return f"rule {rec.get('rule')}, expected {rule}"
        return ""
    if kind == "not-no":
        return "the model says no to a derivable judgment" if verdict == "no" else ""
    if kind == "yes":
        return "" if verdict == "yes" else f"{verdict}, expected yes"
    if kind == "ok":
        ok = verdict == "ok" and rec.get("result") == want["result"]
        return "" if ok else f"{verdict} {rec.get('result')!r}"
    if kind in ("covered", "not-covered"):
        if verdict != kind:
            return f"{verdict}, expected {kind}"
        return "" if rec["saturation"] == want["saturation"] else "saturation differs"
    if kind == "oracle-set":
        covered, sat = _oracle(want)
        ok = verdict == ("covered" if covered else "not-covered") and rec["saturation"] == sat
        return "" if ok else "disagrees with the derivation-search oracle"
    if kind == "wp":
        ok = rec["well_founded_part"] == want["well_founded_part"]
        return "" if ok else "well-founded part differs"
    if kind == "wf-oracle":
        n = want["n"]
        wf = acc._wf_oracle(frozenset(map(tuple, want["rel"])), frozenset(range(n)))
        ok = rec["well_founded_part"] == sorted(f"x{i}" for i in wf)
        return "" if ok else "disagrees with the chain oracle"
    raise ValueError(f"unknown expectation {kind!r}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def prepare_persistence(spec: dict):
    """test_persistence_of_stages, code by code and in the test's order, with
    one Model per code."""
    rng = random.Random(spec["stream_seed"])
    codes = [acc._gen_set_code(rng, rng.randrange(0, 6)) for _ in range(spec["codes"])]
    Model = realizability.Model

    def replay(m):
        model = Model(fuel=10 ** 6)
        stages = []
        first = None
        for k in range(7):
            r = model.set_at(m, k)
            stages.append(r)
            if r.kind == "yes":
                first = k
                break
        violations = 0
        probes = []
        if first is not None:
            for k in (first + 1, first + 2, 8):
                r = model.set_at(m, k)
                stages.append(r)
                if r.kind != "yes" and r.reason not in ("fuel", "cycle"):
                    violations += 1
            for i in range(spec["probes"]):
                base, later = model.mem_at(i, m, first), model.mem_at(i, m, 8)
                probes.append((base, later))
                if (base.reason not in ("fuel", "cycle") and
                        later.reason not in ("fuel", "cycle") and base.kind != later.kind):
                    violations += 1
        return stages, probes, violations

    def one_code(p: Pass, m):
        start = CLOCK.now()
        stages, probes, violations = replay(m)
        end = CLOCK.now()
        p.item_done()
        answers = stages + [a for pair in probes for a in pair]
        decided = all(a.kind != "unknown" for a in answers)
        verdict = "no" if violations else ("yes" if decided else "unknown")
        p.digest.update(repr(([str(a) for a in stages],
                              [(str(b), str(c)) for b, c in probes])).encode())
        p.entries.append(Item(start, end, verdict, wrong=bool(violations),
                              note=f"{violations} persistence violations" if violations else "",
                              again=lambda: replay(m)))

    def go(p: Pass):
        for m in codes:
            one_code(p, m)
    return go


def prepare_cli(spec: dict):
    def go(p: Pass):
        for call in spec["calls"]:
            p.cli_call(call)
    return go


def prepare_verify_corpus(spec: dict):
    """The CLI on both corpora, then the CT realizer checked pointwise (as in
    test_ct_realizer) against the Python function each ct line computes, one
    item per function."""
    cli_part = prepare_cli(spec)
    fns = [ln.split(None, 1)[1] for ln in
           (ROOT / "corpus" / "ct.judg").read_text(encoding="utf-8").splitlines()
           if ln.startswith("ct ")]
    terms = [syntax.parse_term(src) for src in fns]
    n = kleene.ct_realizer()

    def realizer_agrees(term, fn):
        e, w = kleene.unpair(kleene.apply(n, realizability.realize(term), 10 ** 6))
        for x in range(21):
            z, r = kleene.unpair(kleene.apply(w, x, 10 ** 6))
            if not (kleene.kleene_T(e, x, z) and kleene.kleene_U(z) == fn(x) == r):
                return False
        return True

    def go(p: Pass):
        cli_part(p)
        for term, fn in zip(terms, CT_FUNCTIONS):
            p.library_call(lambda term=term, fn=fn: realizer_agrees(term, fn), True)
    return go


def prepare_cover(spec: dict):
    instances = []
    for inst in spec["minimality"]:
        ax = inst["axioms"]
        index = {int(a): frozenset(js) for a, js in ax["index"].items()}
        cover = {tuple(map(int, k.split(","))): frozenset(v) for k, v in ax["cover"].items()}
        instances.append((covers.FiniteAxiomSet(frozenset(range(ax["n"])), index, cover),
                          frozenset(inst["v"])))
    cli_part = prepare_cli(spec)

    def go(p: Pass):
        cli_part(p)
        for ax, v in instances:
            p.library_call(lambda ax=ax, v=v: covers.check_induction_minimality(ax, v), True,
                           verdicts=("minimal", "not-minimal"))
    return go


PREPARE = {"persistence": prepare_persistence, "verify-corpus": prepare_verify_corpus,
           "check-gen": prepare_cli, "cover": prepare_cover}


def main(spec_path: str, trace: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    go = PREPARE[spec["workload"]](spec)
    tracer = Tracer(CLOCK.now) if trace == "1" else None
    if tracer:
        tracer.install({"syntax": syntax, "kernel": kernel, "kleene": kleene,
                        "realizability": realizability, "covers": covers, "cli": cli})
    p = Pass(tracer)
    start = CLOCK.now()
    go(p)
    end = CLOCK.now()
    if tracer:
        tracer.uninstall()
    items = p.finish()
    if not tracer:
        p.retime(items, spec.get("cli_retimes", 0), Path(spec_path).parent)
    CLOCK.stop()
    item_s = [[CLOCK.rescale(a, b) for a, b in it.intervals] for it in items]
    ref = CLOCK.reference()
    factor = NOMINAL_S / ref
    between = (end - start) - sum(b - a for it in items for a, b in it.intervals[:1])
    result = {
        "wall_s": sum(m[0] for m in item_s) + between * factor,
        "raw_wall_s": end - start,
        "ref_ms": 1000 * ref,
        "item_s": item_s,
        "verdicts": [it.verdict for it in items],
        "failed": [i for i, it in enumerate(items) if it.failed],
        "wrong": [[i, it.note] for i, it in enumerate(items) if it.wrong],
        "notes": sorted({it.note for it in items if it.failed}),
        "decided": sum(it.verdict in EXACT for it in items),
        "output_sha256": p.digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kleene_import_s": CLOCK.rescale(*KLEENE_IMPORT),
    }
    if tracer:
        # layer times are rescaled like the items, by the whole pass's samples
        result["layers"] = {k: v / factor if k.endswith("_per_s") else
                            v * factor if k.endswith("_s") else v
                            for k, v in tracer.metrics().items()}
        result["counts"] = tracer.counts()
        tracer.write_spans(Path(result_path).with_suffix(".spans.jsonl"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
