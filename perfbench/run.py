"""covtt benchmark: end-to-end verdict metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  One run generates the workload's inputs
from the seed under .perfbench/, then repeats passes (each in a fresh
interpreter, see passes.py) until --seconds have been spent, and reports
medians over passes.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (spans are written
under .perfbench/).  Times are rescaled against a reference loop run in the
same processes (calibrate.py).  `--workload all` runs every workload both
ways, prints a table and writes .perfbench/summary.json.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from calibrate import NOMINAL_S  # noqa: E402

WORKLOADS = ("persistence", "verify-corpus", "check-gen", "cover")
SETUP_SAMPLES = 11
PASS_TIMEOUT_S = 150
# Times one import of covtt.cli between reference samples (calibrate.py) and
# prints it rescaled.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import calibrate; "
                "r = calibrate.samples(4); t = time.perf_counter(); import covtt.cli; "
                "t = time.perf_counter() - t; r += calibrate.samples(4); "
                "print(t * calibrate.NOMINAL_S * len(r) / sum(r))")


class BenchError(Exception):
    pass


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"             # the same dict and set layouts in every pass
    return env


def import_time() -> float:
    """Rescaled seconds for a fresh interpreter to import covtt.cli."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=_python_env(),
                         capture_output=True, text=True, timeout=60, cwd=ROOT)
    if out.returncode != 0:
        raise BenchError(f"cannot import covtt.cli: {out.stderr.strip()[-400:]}")
    return float(out.stdout)


def run_pass(spec: Path, trace: int, tag: str) -> dict:
    result = spec.parent / f"pass-{tag}.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / "passes.py"), str(spec),
                           str(trace), str(result)], env=_python_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"pass failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-800:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth.  Not the median: a short
    item runs either in a slow phase or not, and the mean of its rescaled
    times is what tracks the mean reference it was rescaled by."""
    cut = len(values) // 10
    kept = sorted(values)[cut:len(values) - cut]
    return sum(kept) / len(kept)


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile that still has at least ten items above
    it (nearest-rank), and its value; the maximum when there are ten or
    fewer items."""
    n = len(values)
    q = math.floor(100 * (n - 10) / n) if n > 10 else 100
    ordered = sorted(values)
    rank = max(1, math.ceil(q * n / 100))
    return q, ordered[rank - 1]


def source_digest() -> str:
    """SHA-256 over what the inputs and verdicts depend on."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "corpus").iterdir())
    files += [ROOT / "tests" / "test_acceptance.py"]
    files += sorted(p for p in HERE.iterdir() if p.suffix == ".py")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def metadata(workload: str, seed: int, items: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():            # a plain checkout has no commit to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": workload, "seed": seed, "items": items}


def exactness_check(workload: str, seed: int, trace: int, record: dict,
                    tiny: bool) -> list[str]:
    """Compare this run's exactness record with the last run of the same
    sources, workload, seed and mode; they must be identical."""
    store = WORK / "exact"
    store.mkdir(parents=True, exist_ok=True)
    key = f"{workload}-{seed}-trace{trace}{'-tiny' if tiny else ''}-{source_digest()[:16]}"
    path = store / f"{key}.json"
    problems = []
    if path.exists():
        old = json.loads(path.read_text(encoding="utf-8"))
        for k in sorted(set(old) | set(record)):
            if old.get(k) != record.get(k):
                problems.append(f"exactness: {k} was {old.get(k)!r}, now {record.get(k)!r}")
    else:
        path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict:
    work = WORK / f"{workload}-{seed}{'-tiny' if tiny else ''}"
    spec = inputs.generate(workload, seed, ROOT, work, tiny)
    setup = []
    if not trace:
        import_time()                       # fills the bytecode cache
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        # a traced run alternates plain and traced passes: the plain ones give
        # the tracing overhead
        mode = 1 if trace and len(traced) < len(plain) else 0
        r = run_pass(spec, mode, f"{len(plain) + len(traced)}")
        (traced if mode else plain).append(r)
        if not trace:
            # set-up samples are spread over the run, like the passes, so
            # that both see the same machine
            setup += [import_time(), import_time()]
        elapsed = time.perf_counter() - start
        per_pass = elapsed / (len(plain) + len(traced))
        if (not trace or traced) and elapsed + per_pass > seconds:
            break
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(import_time())
    passes = plain + traced
    first = passes[0]
    problems = [f"item {i}: {why}" for i, why in first["wrong"]]
    for r in passes[1:]:
        for k in ("output_sha256", "verdicts", "failed", "decided"):
            if r[k] != first[k]:
                problems.append(f"exactness: {k} differs between passes of one run")
    record = {"output_sha256": first["output_sha256"], "decided": first["decided"],
              "failed": first["failed"], "items": len(first["item_s"])}
    if traced:
        counts = traced[0]["counts"]
        for r in traced[1:]:
            if r["counts"] != counts:
                problems.append("exactness: layer counts differ between traced passes")
        record["counts"] = counts
    problems += exactness_check(workload, seed, trace, record, tiny)

    n_items = len(first["item_s"])
    # an item's time is the trimmed mean of its measurements over the plain
    # passes; the percentiles are taken over items
    item_ms = [1000 * trimmed_mean([t for r in plain for t in r["item_s"][i]])
               for i in range(n_items)]
    q, tail_ms = tail(item_ms)
    out = {
        "meta": metadata(workload, seed, n_items),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "pass_wall_s": [r["wall_s"] for r in plain],
        "pass_raw_wall_s": [r["raw_wall_s"] for r in plain],
        "pass_ref_ms": [r["ref_ms"] for r in plain],
        "tail_percentile": q,
        "exactness": record,
        "problems": problems,
        "failed_notes": first["notes"],
        "correct": not problems,
        "attempted": n_items * len(passes),
        "failed": len(first["failed"]) * len(passes),
    }
    e2e = {
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "verdict_p50_ms": (statistics.median(item_ms), "ms"),
        "verdict_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        "decided_ratio": (first["decided"] / n_items, "ratio"),
    }
    if setup:
        e2e["setup_s"] = (statistics.median(setup), "s")
    out["failed_ratio"] = len(first["failed"]) / n_items
    out["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    if traced:
        layers = {}
        for name in traced[0]["layers"]:
            vals = [r["layers"][name] for r in traced]
            layers[name] = statistics.median(vals)
        layers["kleene.import_s"] = statistics.median(r["kleene_import_s"] for r in passes)
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        out["per_layer"] = layers
    return out


def benchmark_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _fmt(values: list[float]) -> str:
    return "/".join(f"{v:.3g}" for v in values)


def report(workload: str, trace: int, res: dict, units: dict) -> dict:
    """Print the human-readable lines and return the result object for the last line."""
    meta = res["meta"]
    print(f"# covtt benchmark: workload={workload} seed={meta['seed']} trace={trace} "
          f"items={meta['items']} passes={res['passes']} python={meta['python']} "
          f"nproc={meta['nproc']} commit={meta['commit']} "
          f"source={meta['source_sha256'][:12]}")
    print(f"# verdict_tail_ms is the p{res['tail_percentile']} of {meta['items']} items; "
          f"failed_ratio={res['failed_ratio']:.4f} "
          f"({res['failed'] // max(1, sum(res['passes'].values()))} of {meta['items']} items "
          f"per pass; {', '.join(res['failed_notes']) or 'none'})")
    print(f"# times are rescaled to a {1000 * NOMINAL_S:g} ms reference sample; "
          f"measured per pass: reference {_fmt(res['pass_ref_ms'])} ms, "
          f"raw wall {_fmt(res['pass_raw_wall_s'])} s")
    for p in res["problems"][:20]:
        print(f"# PROBLEM {p}")
    values = res["per_layer"] if trace else {k: v["value"] for k, v in res["end_to_end"].items()}
    kind = "per_layer" if trace else "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units[kind].items()}
    for name, m in metrics.items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def run_all(seed: int, seconds: float, tiny: bool) -> int:
    units = benchmark_metrics()
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            res = run_workload(w, seed, seconds, trace, tiny)
            line = report(w, trace, res, units)
            ok &= line["correct"]
            entry["meta"] = res["meta"]
            entry[f"trace{trace}"] = res
        summary["workloads"][w] = entry
    WORK.mkdir(exist_ok=True)
    (WORK / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"# wrote {WORK / 'summary.json'}")
    print(f"{'workload':15s} " + " ".join(f"{n:>16s}" for n in units["end_to_end"]))
    for w, entry in summary["workloads"].items():
        e2e = entry["trace0"]["end_to_end"]
        print(f"{w:15s} " + " ".join(f"{e2e[n]['value']:16.6g}" for n in units["end_to_end"]))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=inputs.PERSISTENCE_STREAM_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "covtt", ROOT / "corpus",
                   ROOT / "tests" / "test_acceptance.py"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a covtt "
                  f"checkout", file=sys.stderr)
            return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.tiny)
        res = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
        line = report(args.workload, args.trace, res, benchmark_metrics())
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
