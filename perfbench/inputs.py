"""Seeded input generation for the four workloads.

Everything here is plain Python: no covtt import, so every expected verdict
written next to an input comes from the generator's own arithmetic (or, for
the shipped corpora, from tests/test_acceptance.py, resolved in the pass
process).  The same seed always gives byte-identical files.

Each workload's input composition is fixed (how many items of each kind and
size class); the seed picks the values and the order.  That keeps the cost of
a pass nearly independent of the seed, which the benchmark's run-to-run
spread bound needs.  The persistence workload does not use the seed at all.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# The persistence workload replays test_persistence_of_stages exactly, in the
# test's order, on the first tenth of its 500 codes: the first
# PERSISTENCE_CODES codes of the test's own generator stream (seed 60606).
# A tenth, because the whole test does not fit in one run.  Per-code cost is
# heavy-tailed (a handful of codes take seconds, the median milliseconds), so
# drawing codes from the run seed would make the wall time of a pass depend
# mostly on how many heavy codes the seed drew; and reordering a code's
# probes can change which answers its shared fuel budget leaves unknown.  So
# the run seed is not used here.
PERSISTENCE_STREAM_SEED = 60606
PERSISTENCE_CODES = 50
PROBES = 65

CHECK_GEN_LINES = 1500
# Depths of the `covtt eval` probe on succ(...(0)...): both sides of the
# parser's recursion limit (about 9,000 at this commit), never capped.
DEPTH_LADDER = (2500, 5000, 7500, 12000, 14000)

# The cover workload is mostly queries on one large tree-topology file, the
# case where the parser and saturation cost something.  The small random
# files exist to check covtt against the acceptance tests' oracles, which are
# exponential, so they stay a minority of the items.
TREE_DEPTH = 9
TREE_QUERIES = 64
WP_NODES = 400
MINIMALITY_SIZES = (12, 13, 14)
SMALL_COVER_FILES = 2
SMALL_COVER_QUERIES = 8
SMALL_WP_FILES = 4

TINY = {"persistence_codes": 6, "check_gen_lines": 24, "depths": (50, 12000),
        "tree_depth": 4, "tree_queries": 3, "wp_nodes": 20,
        "minimality_sizes": (5,), "small_files": 2}


def _judgment_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text(encoding="utf-8").splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def persistence(rng: random.Random, root: Path, tiny: bool) -> dict:
    n = TINY["persistence_codes"] if tiny else PERSISTENCE_CODES
    return {"stream_seed": PERSISTENCE_STREAM_SEED, "codes": n, "probes": PROBES}


# ---------------------------------------------------------------------------
# verify-corpus
# ---------------------------------------------------------------------------

def verify_corpus(rng: random.Random, root: Path, work: Path, tiny: bool) -> dict:
    """The shipped golden and ct corpora, each with its lines but the first
    shuffled.

    Every judgment is validated with a fresh Model, so order cannot change a
    verdict; the shuffle only moves where the slow judgments sit.  The first
    record of a call also carries the call's set-up, so the first line stays
    first: otherwise the seed would decide which cheap judgment carries it,
    and with it the rank of every item above.
    """
    calls = []
    for name, expect in (("golden.judg", "not-no"), ("ct.judg", "yes")):
        lines = _judgment_lines(root / "corpus" / name)
        if tiny:
            lines = [ln for ln in lines if "cov(" not in ln][:8]
        rest = lines[1:]
        rng.shuffle(rest)
        lines = lines[:1] + rest
        path = work / f"verify-{name}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls.append({"argv": ["verify", str(path), "--format", "structured"],
                      "records": [{"expect": expect, "src": ln} for ln in lines]})
    # a pass has time for few closed loops (one judgment takes seconds), so
    # its short records are timed again (passes.py)
    return {"calls": calls, "cli_retimes": 10}


# ---------------------------------------------------------------------------
# check-gen
# ---------------------------------------------------------------------------

_COV = ("T(cov(plushat(n1hat, n1hat); x . n1hat; x y . lam z . n0hat; "
        "inl(star); lam z . n1hat))")
_TR = "tr(inl(star), star, lam z . lam h . emptyrec(h))"


def _numeral(rng: random.Random, size_class: int) -> int:
    # the large class is narrow: its items set verdict_tail_ms, which must
    # not depend on how large the seed happened to draw them
    if size_class == 0:
        return rng.randrange(0, 21)
    if size_class == 1:
        return rng.randrange(21, 301)
    return rng.randrange(950, 1001)


def _cons_list(items: list[int]) -> str:
    t = "nil"
    for a in items:
        t = f"cons({t}, {a})"
    return t


def _computation(kind: str, rng: random.Random, n: int):
    """(lhs, value, typed, ill_typed) for one computation-rule instance.

    The value is what lhs computes to, by the rule's own arithmetic.  typed
    and ill_typed are (context, term) pairs of type N, the second with one
    subterm of the wrong type.
    """
    z = rng.randrange(0, 10)
    if kind == "natrec-add":
        lhs = f"natrec({n}; {z}; k r . succ(r))"
        return lhs, z + n, ("[]", lhs), ("[]", f"natrec({n}; {z}; k r . succ(star))")
    if kind == "natrec-double":
        lhs = f"natrec({n}; {z}; k r . succ(succ(r)))"
        return lhs, z + 2 * n, ("[]", lhs), ("[]", f"natrec(star; {z}; k r . succ(r))")
    if kind == "natrec-pred":
        lhs = f"natrec({n}; {z}; k r . k)"
        return lhs, n - 1 if n else z, ("[]", lhs), ("[]", f"natrec({n}; star; k r . k)")
    items = [rng.randrange(0, 50) for _ in range(min(n, 40))]
    lst = _cons_list(items)
    if kind == "listrec-len":
        lhs = f"listrec({lst}; 0; t a r . succ(r))"
        return (lhs, len(items), ("[l : List(N)]", "listrec(l; 0; t a r . succ(r))"),
                ("[]", f"listrec({n}; 0; t a r . succ(r))"))
    if kind == "listrec-last":
        lhs = f"listrec({lst}; {z}; t a r . a)"
        return (lhs, items[-1] if items else z,
                ("[l : List(N)]", f"listrec(l; {z}; t a r . a)"),
                ("[l : List(N)]", "listrec(l; star; t a r . a)"))
    x, y = rng.randrange(0, n + 1), n
    if kind == "split-fst":
        return (f"split(pair({x}, {y}); a b . a)", x,
                ("[p : Sigma u : N . N]", "split(p; a b . a)"),
                ("[]", f"split({x}; a b . a)"))
    if kind == "split-snd":
        return (f"split(pair({x}, {y}); a b . b)", y,
                ("[p : Sigma u : N . N]", "split(p; a b . b)"),
                ("[p : Sigma u : N . N]", "split(p; a b . succ(pair(a, b)))"))
    p, q = rng.randrange(0, n + 1), rng.randrange(0, n + 1)
    ctx = f"[m : {_COV}]"
    good = ("[m : " + _COV + "]", f"ind(m; x w . {p}; x h k f . {q})")
    if kind == "ind-rf":
        return (f"ind(rf(inl(star), star); x w . {p}; x h k f . {q})", p, good,
                (ctx, f"ind(m; x w . star; x h k f . {q})"))
    assert kind == "ind-tr"
    return (f"ind({_TR}; x w . {p}; x h k f . {q})", q, good,
            (ctx, f"ind(m; x w . {p}; x h k f . star)"))


KINDS = ("natrec-add", "natrec-double", "natrec-pred", "listrec-len",
         "listrec-last", "split-fst", "split-snd", "ind-rf", "ind-tr")


def _generated_judgment(i: int, rng: random.Random) -> tuple[str, str]:
    """One judgment and its expected verdict; the kind, variant and numeral
    size class cycle with i so that the mix is the same for every seed."""
    kind = KINDS[i % len(KINDS)]
    variant = (i // len(KINDS)) % 4
    size_class = (0, 0, 0, 0, 0, 0, 0, 1, 1, 2)[(i // (4 * len(KINDS))) % 10]
    lhs, value, typed, ill_typed = _computation(kind, rng, _numeral(rng, size_class))
    if variant == 0:
        return f"termeq [] |- {lhs} == {value} : N", "accepted"
    if variant == 1:
        return f"termeq [] |- {lhs} == {value + rng.randrange(1, 4)} : N", "rejected"
    if variant == 2:
        return f"term {typed[0]} |- {typed[1]} : N", "accepted"
    return f"term {ill_typed[0]} |- {ill_typed[1]} : N", "rejected"


def check_gen(rng: random.Random, root: Path, work: Path, tiny: bool) -> dict:
    n = TINY["check_gen_lines"] if tiny else CHECK_GEN_LINES
    lines, records = [], []
    for i in range(n):
        src, verdict = _generated_judgment(i, rng)
        lines.append(src)
        records.append({"expect": verdict, "src": src})
    order = list(range(n))
    rng.shuffle(order)
    lines = [lines[i] for i in order]
    records = [records[i] for i in order]
    shipped = [("golden.judg", lambda k: {"expect": "accepted"}),
               ("illtyped.judg", lambda k: {"expect": "rejected",
                                            "rule_from": ["ILLTYPED_RULES", k]}),
               ("xi.judg", lambda k: {"expect": "rejected", "rule": "xi"})]
    for name, expect in shipped:
        extra = _judgment_lines(root / "corpus" / name)
        if tiny:
            extra = extra[:3]
        for k, ln in enumerate(extra):
            lines.append(ln)
            records.append(dict(expect(k), src=ln))
    path = work / "check-gen.judg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    calls = [{"argv": ["check", str(path), "--format", "structured"],
              "records": records}]
    ladder = TINY["depths"] if tiny else DEPTH_LADDER
    for d in ladder:
        depth = round(d * rng.uniform(0.95, 1.05))
        term = "succ(" * depth + "0" + ")" * depth
        tpath = work / f"depth-{depth}.term"
        tpath.write_text(term, encoding="utf-8")
        calls.append({"argv": ["eval", "@" + str(tpath), "--format", "structured"],
                      "records": [{"expect": "ok", "result": str(depth)}]})
    return {"calls": calls}


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------

def _word(bits: tuple) -> str:
    return "e" if not bits else "".join("ab"[b] for b in bits)


def _tree_file(rng: random.Random, depth: int, queries: int) -> tuple[str, list]:
    """tree_topology({a, b}, depth) in the cover schema, with leaf queries.

    A word w is covered by a set V of leaves exactly when some prefix of w
    (w included) has every leaf below it in V; the saturation is the set of
    such words.  The expected answers below come from that arithmetic.
    """
    nodes = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [w + (b,) for w in frontier for b in (0, 1)]
        nodes.extend(frontier)
    out = ["carrier " + " ".join(_word(w) for w in nodes)]
    for w in nodes:
        js = ["p" + _word(w[:cut]) for cut in range(len(w))]
        if len(w) < depth:
            js.append("br")
        if js:
            out.append(f"index {_word(w)} : " + " ".join(js))
        for cut in range(len(w)):
            out.append(f"cover {_word(w)} p{_word(w[:cut])} : {_word(w[:cut])}")
        if len(w) < depth:
            out.append(f"cover {_word(w)} br : {_word(w + (0,))} {_word(w + (1,))}")

    def leaves_below(w):
        return {w + tuple((x >> (depth - len(w) - 1 - i)) & 1
                          for i in range(depth - len(w)))
                for x in range(1 << (depth - len(w)))}

    records = []
    for qi in range(queries):
        elem = rng.choice(nodes)
        v = set()
        if qi % 2 == 0:                      # a prefix of elem is fully inside V
            v |= leaves_below(elem[:rng.randrange(len(elem) + 1)])
        for _ in range(rng.randrange(1, 4)):
            v |= leaves_below(rng.choice(nodes[len(nodes) // 4:]))
        leaves = frontier
        v |= set(rng.sample(leaves, len(leaves) // 8))
        if qi % 2 == 1:                      # knock out one leaf below elem
            v.discard(rng.choice(sorted(leaves_below(elem))))
        full = {w for w in nodes if leaves_below(w) <= v}
        sat = {w for w in nodes if any(w[:c] in full for c in range(len(w) + 1))}
        out.append(f"query {_word(elem)} <| " + " ".join(sorted(map(_word, v))))
        records.append({"expect": "covered" if elem in sat else "not-covered",
                        "saturation": sorted(map(_word, sat))})
    return "\n".join(out) + "\n", records


def _wp_file(rng: random.Random, n: int) -> tuple[str, list[str]]:
    """A relation whose well-founded part is known by construction.

    Nodes of A only get predecessors from earlier nodes of A, so A is well
    founded; every node of B gets at least one predecessor in B, so each has
    an infinite descending chain.  Nothing in B lies below a node of A.
    """
    names = [f"x{i}" for i in range(n)]
    rng.shuffle(names)
    a, b = names[: (3 * n) // 5], names[(3 * n) // 5:]
    rel = set()
    for i, x in enumerate(a):
        for _ in range(rng.randrange(0, 4) if i else 0):
            rel.add((rng.choice(a[:i]), x))
    for x in b:
        rel.add((rng.choice(b), x))
        for _ in range(rng.randrange(0, 3)):
            rel.add((rng.choice(names), x) if rng.random() < 0.5
                    else (rng.choice(b), x))
    lines = ["carrier " + " ".join(sorted(names))]
    lines += [f"rel {z} {x}" for z, x in sorted(rel)]
    return "\n".join(lines) + "\n", sorted(a)


def _random_axioms(rng: random.Random, n: int) -> dict:
    """An axiom set shaped like the acceptance tests' random families."""
    index, cover = {}, {}
    for p in range(n):
        js = rng.randrange(0, 3)
        index[p] = list(range(js))
        for j in range(js):
            cover[f"{p},{j}"] = sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
    return {"n": n, "index": index, "cover": cover}


def _axiom_file(ax: dict, queries: list) -> str:
    names = [f"p{i}" for i in range(ax["n"])]
    out = ["carrier " + " ".join(names)]
    for p, js in ax["index"].items():
        if js:
            out.append(f"index p{p} : " + " ".join(f"j{j}" for j in js))
        for j in js:
            members = " ".join(f"p{m}" for m in ax["cover"][f"{p},{j}"])
            out.append(f"cover p{p} j{j} : {members}".rstrip())
    for elem, v in queries:
        out.append(f"query p{elem} <| " + " ".join(f"p{m}" for m in v))
    return "\n".join(line.rstrip() for line in out) + "\n"


def cover(rng: random.Random, root: Path, work: Path, tiny: bool) -> dict:
    depth = TINY["tree_depth"] if tiny else TREE_DEPTH
    nq = TINY["tree_queries"] if tiny else TREE_QUERIES
    text, records = _tree_file(rng, depth, nq)
    (work / "tree.cover").write_text(text, encoding="utf-8")
    calls = [{"argv": ["cover", str(work / "tree.cover"), "--format", "structured"],
              "records": records}]
    text, wf = _wp_file(rng, TINY["wp_nodes"] if tiny else WP_NODES)
    (work / "big.rel").write_text(text, encoding="utf-8")
    calls.append({"argv": ["wp", str(work / "big.rel"), "--format", "structured"],
                  "records": [{"expect": "wp", "well_founded_part": wf}]})
    small = TINY["small_files"] if tiny else SMALL_COVER_FILES
    for f in range(small):
        ax = _random_axioms(rng, rng.randrange(3, 6))
        queries = [(rng.randrange(ax["n"]),
                    sorted(rng.sample(range(ax["n"]), rng.randrange(0, ax["n"] + 1))))
                   for _ in range(SMALL_COVER_QUERIES)]
        path = work / f"small{f}.cover"
        path.write_text(_axiom_file(ax, queries), encoding="utf-8")
        calls.append({"argv": ["cover", str(path), "--format", "structured"],
                      "records": [{"expect": "oracle-set", "axioms": ax,
                                   "query": q} for q in queries]})
    for f in range(TINY["small_files"] if tiny else SMALL_WP_FILES):
        n = rng.randrange(1, 9)
        rel = sorted({(rng.randrange(n), rng.randrange(n))
                      for _ in range(rng.randrange(0, 2 * n))})
        path = work / f"small{f}.rel"
        lines = ["carrier " + " ".join(f"x{i}" for i in range(n))]
        lines += [f"rel x{z} x{x}" for z, x in rel]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls.append({"argv": ["wp", str(path), "--format", "structured"],
                      "records": [{"expect": "wf-oracle", "n": n, "rel": rel}]})
    sizes = TINY["minimality_sizes"] if tiny else MINIMALITY_SIZES
    minimality = []
    for n in sizes:
        ax = _random_axioms(rng, n)
        v = sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
        minimality.append({"axioms": ax, "v": v})
    return {"calls": calls, "minimality": minimality}


# ---------------------------------------------------------------------------

GENERATORS = {"persistence": persistence, "verify-corpus": verify_corpus,
              "check-gen": check_gen, "cover": cover}


def generate(workload: str, seed: int, root: Path, work: Path,
             tiny: bool = False) -> Path:
    """Write the workload's inputs under work/ and return its spec file."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    gen = GENERATORS[workload]
    spec = gen(rng, root, tiny) if workload == "persistence" else gen(rng, root, work, tiny)
    spec.update(workload=workload, seed=seed, tiny=tiny)
    path = work / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path
