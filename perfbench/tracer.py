"""In-memory span tracer wrapped around covtt's layer boundaries.

The tracer patches functions from the outside: every binding of a traced
function in any covtt module namespace is replaced by a wrapper, so calls
that cross a module boundary (and a module's calls to its own public entry
points) open a span.  Nothing under src/ is edited.

A span is [layer, start, time spent in child spans].  On exit its duration
minus its child time is added to the layer's self time, and its duration to
the parent's child time, so self times never double count.  Cold boundaries
(one call per item or per file) are also stored as span records
(name, start, end, parent, item) and written out at the end of the pass;
hot ones (machine applications, model queries, bracket abstraction) only feed
the totals.  A boundary marked ``outer`` is transparent while another call of
its group is open, so recursion through it is counted once.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = ("syntax", "kernel", "kleene", "realizability", "covers", "cli")

# (module, attribute, layer, group, outer, stored)
BOUNDARIES = [
    ("syntax", "parse_file", "syntax", "syntax.parse", True, True),
    ("syntax", "parse", "syntax", "syntax.parse", True, True),
    ("kernel", "check_judgment", "kernel", "kernel.check", True, True),
    ("kernel", "whnf", "kernel", "kernel.whnf", True, True),
    ("kernel", "_whnf", "kernel", "kernel.whnf", True, False),
    ("kleene", "apply", "kleene", "kleene.apply", True, False),
    ("kleene", "apply_many", "kleene", "kleene.apply", True, False),
    ("kleene", "apply_counted", "kleene", "kleene.apply", True, False),
    ("kleene", "eval_kterm", "kleene", "kleene.apply", True, False),
    ("kleene", "lambda_abstract", "kleene", "kleene.abstract", True, False),
    ("kleene", "lambda_abstract_many", "kleene", "kleene.abstract", True, False),
    ("realizability", "validate", "realizability", "realizability.validate", True, True),
    ("realizability", "validate_judgment", "realizability", "realizability.validate", True, True),
    ("realizability", "ct_validate", "realizability", "realizability.validate", True, True),
    ("realizability", "realize", "realizability", "realizability.validate", True, True),
    ("realizability", "Model.set_at", "realizability", "realizability.set_at", False, False),
    ("realizability", "Model.mem_at", "realizability", "realizability.mem_at", False, False),
    ("realizability", "Model.members", "realizability", "realizability.members", False, False),
    ("realizability", "Model.cover_v", "realizability", "realizability.cover_v", False, False),
    ("covers", "parse_axiom_file", "covers", "covers.parse", True, True),
    ("covers", "parse_relation_file", "covers", "covers.parse", True, True),
    ("covers", "saturate", "covers", "covers.saturate", True, True),
    ("covers", "well_founded_part", "covers", "covers.wp", True, True),
    ("covers", "check_induction_minimality", "covers", "covers.minimality", True, True),
    ("cli", "main", "cli", "cli.main", True, True),
]

# model queries whose distinct keys per Model give the memo hit ratios
_KEYED = {"realizability.set_at": "set", "realizability.mem_at": "mem"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [["root", 0.0, 0.0, -1]]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.open = Counter()
        self.spans: list[tuple] = []
        self.item = 0
        self.chars = 0
        self.rejected = 0
        self.subsets = 0
        self.records = 0
        self.models: list = []
        self.model_stats = Counter()
        self._keys: dict = {}
        self._restore: list = []

    # -- patching -------------------------------------------------------------

    def install(self, modules: dict):
        """Wrap every boundary in BOUNDARIES; modules maps short names to
        the imported covtt modules."""
        for mod, attr, layer, group, outer, stored in BOUNDARIES:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[mod], cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, layer, group, outer, stored,
                                                attr, keyed=_KEYED.get(group)))
                continue
            orig = getattr(modules[mod], attr)
            wrapper = self._wrap(orig, layer, group, outer, stored, attr)
            for m in modules.values():
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, name, wrapper)
        model_cls = modules["realizability"].Model
        self._set(model_cls, "__init__", self._model_init(model_cls.__init__))
        self._set(model_cls, "apply", self._model_apply(model_cls.apply))
        covers = modules["covers"]
        self._set(covers, "cont", self._count_subsets(covers.cont))

    def uninstall(self):
        for obj, name, value in reversed(self._restore):
            setattr(obj, name, value)
        self._restore.clear()

    def _set(self, obj, name, value):
        self._restore.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _wrap(self, fn, layer, group, outer, stored, name, keyed=None):
        tracer = self
        clock = self.clock
        stack, open_, calls = self.stack, self.open, self.calls
        self_s, incl_s, spans = self.self_s, self.incl_s, self.spans
        keys = self._keys

        def wrapper(*args, **kwargs):
            if outer and open_[group]:
                return fn(*args, **kwargs)
            if keyed is not None:
                keys.setdefault((keyed, id(args[0])), set()).add(args[1:])
            elif group == "syntax.parse" and args and isinstance(args[0], str):
                tracer.chars += len(args[0])
            parent = stack[-1]
            frame = [layer, clock(), 0.0, len(spans) if stored else parent[3]]
            if stored:
                spans.append(None)
            stack.append(frame)
            open_[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_[group] -= 1
                stack.pop()
                dur = end - frame[1]
                self_s[layer] += dur - frame[2]
                parent[2] += dur
                calls[group] += 1
                if not open_[group]:
                    incl_s[group] += dur
                if stored:
                    spans[frame[3]] = (name, frame[1], end, parent[3], tracer.item)
            if group == "kernel.check" and not result.accepted:
                tracer.rejected += 1
            return result
        return wrapper

    def _model_init(self, init):
        tracer = self

        def wrapper(model, *args, **kwargs):
            init(model, *args, **kwargs)
            tracer.models.append((model, model.budget.steps))
        return wrapper

    def _model_apply(self, apply):
        keys = self._keys
        stats = self.model_stats

        def wrapper(model, e, *args):
            seen = keys.setdefault(("apply", id(model)), set())
            key = (e, args)
            if key in seen:
                stats["apply_repeats"] += 1
            else:
                seen.add(key)
            stats["apply_calls"] += 1
            return apply(model, e, *args)
        return wrapper

    def _count_subsets(self, cont):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.subsets += 1
            return cont(*args, **kwargs)
        return wrapper

    # -- items ----------------------------------------------------------------

    def item_done(self):
        """Close the current item: fold its Models' counters in and drop them."""
        for model, fuel in self.models:
            st = self.model_stats
            st["steps"] += fuel - model.budget.steps
            st["memo_entries"] += sum(len(v) for k, v in vars(model).items()
                                      if k.endswith("_memo") and isinstance(v, dict))
            for kind in ("set", "mem"):
                st[f"{kind}_distinct"] += len(self._keys.pop((kind, id(model)), ()))
            self._keys.pop(("apply", id(model)), None)
        self.models.clear()
        self.item += 1

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, named as in BENCHMARK.json."""
        c, s, st = self.calls, self.incl_s, self.model_stats

        def ratio(a, b):
            return a / b if b else 0.0

        m = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        m.update({
            "syntax.parse_s": s["syntax.parse"],
            "syntax.chars_per_s": ratio(self.chars, s["syntax.parse"]),
            "kernel.check_s": s["kernel.check"],
            "kernel.checks": c["kernel.check"],
            "kernel.rejected": self.rejected,
            "kernel.whnf_s": s["kernel.whnf"],
            "kleene.steps": st["steps"],
            "kleene.apply_calls": c["kleene.apply"],
            "kleene.apply_s": s["kleene.apply"],
            "kleene.steps_per_s": ratio(st["steps"], s["kleene.apply"]),
            "kleene.abstract_calls": c["kleene.abstract"],
            "kleene.abstract_s": s["kleene.abstract"],
            "realizability.validate_s": s["realizability.validate"],
            "realizability.set_at_calls": c["realizability.set_at"],
            "realizability.mem_at_calls": c["realizability.mem_at"],
            "realizability.members_calls": c["realizability.members"],
            "realizability.cover_v_calls": c["realizability.cover_v"],
            "realizability.set_memo_hit_ratio": ratio(
                c["realizability.set_at"] - st["set_distinct"], c["realizability.set_at"]),
            "realizability.mem_memo_hit_ratio": ratio(
                c["realizability.mem_at"] - st["mem_distinct"], c["realizability.mem_at"]),
            "realizability.apply_repeat_ratio": ratio(st["apply_repeats"], st["apply_calls"]),
            "realizability.memo_entries": st["memo_entries"],
            "covers.parse_s": s["covers.parse"],
            "covers.saturate_calls": c["covers.saturate"],
            "covers.saturate_s": s["covers.saturate"],
            "covers.wp_s": s["covers.wp"],
            "covers.minimality_s": s["covers.minimality"],
            "covers.subsets_checked": self.subsets,
            "cli.records": self.records,
        })
        return m

    def counts(self) -> dict:
        """The deterministic counters: identical on every run of one commit."""
        m = self.metrics()
        keep = {k: v for k, v in m.items() if isinstance(v, int)}
        keep["model_apply_calls"] = self.model_stats["apply_calls"]
        keep["model_apply_repeats"] = self.model_stats["apply_repeats"]
        keep["set_distinct"] = self.model_stats["set_distinct"]
        keep["mem_distinct"] = self.model_stats["mem_distinct"]
        keep["syntax_chars"] = self.chars
        return keep

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
