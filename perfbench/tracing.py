"""Spans around forestcodec's layers, recorded from the benchmark's side.

`Tracer.install` wraps the public functions of the six modules wherever
they are bound: each module's own namespace, every `from .forests import`
copy in the others, and the package namespace.  Methods of the forest value
types are wrapped on their classes, which covers the three `__post_init__`
validators the dataclass constructors call.  Generators are timed per
`next()`, not per call.  A call that directly re-enters the function whose
span is open (PlaneNode.size, the Riordan recursion) stays inside that span.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once at the end.  A span's self time is its duration minus the
durations of its child spans.

Two hooks count without timing: SplitMix64 draws, and the oracle budget's
`_Budget.spend` (the one private name read here, for candidates spent).
The cli layer's render span wraps `cli._render`, through which every forest
the CLI prints is formatted, and `print` as the cli module sees it.
"""

from __future__ import annotations

import argparse
import builtins
import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("forests", "bijections", "codec", "enumeration", "counting", "cli")
STEP_FAMILIES = ("plain", "partite", "plane", "leafplane", "colored")
ENUM_FAMILIES = ("plain", "partite", "plane", "leafplane", "kary", "colored", "special-colored")
CODEC_ENTRIES = ("sample_uniform", "encode", "decode")

# Methods and properties of the forest value types that other layers call.
FOREST_METHODS = {
    "RootedForest": ("__post_init__", "roots", "has_standard_roots"),
    "PartAssignment": ("part_of", "respects"),
    "PlaneNode": ("size",),
    "PlaneForest": ("__post_init__", "n_vertices", "leaf_count", "is_fully_labeled", "is_leaf_unlabeled"),
    "EdgeColoredForest": ("__post_init__", "is_special", "colors_at"),
}
VALIDATORS = tuple(
    f"forests.{cls}.__post_init__" for cls in ("RootedForest", "PlaneForest", "EdgeColoredForest")
)
ARGPARSE_METHODS = ("__init__", "add_argument", "add_subparsers", "parse_args")


def public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def caches() -> list:
    """Every lru-cached function of the package, to reset between commands."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"forestcodec.{layer}")
        found += [obj for obj in vars(module).values() if hasattr(obj, "cache_clear")]
    return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.yields: Counter = Counter()  # items yielded, by span name id
        self._undo: list = []

    # ---------------------------------------------------------------- spans

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, suffix=None):
        """A span per call, or per next() of a generator.  `suffix(*args)`
        extends the span name per call (enumerate_family's family)."""
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        fixed = self.nid(name)
        yields = self.yields

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen(*args, **kwargs):
                nid = fixed if suffix is None else self.nid(f"{name}[{suffix(*args, **kwargs)}]")
                it = fn(*args, **kwargs)
                while True:
                    i = len(start)
                    name_id.append(nid)
                    parent.append(stack[-1])
                    end.append(0.0)
                    stack.append(i)
                    start.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yields[nid] += 1
                    yield item

            return gen

        @functools.wraps(fn)
        def call(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == fixed:
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(fixed)
            parent.append(top)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return call

    def counter(self, fn, key: str, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def call(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return call

    def close_open_spans(self) -> None:
        """Close spans an exception left open (a RecursionError can strike
        inside a wrapper) and reset the stack."""
        now = time.perf_counter()
        for i in self.stack[1:]:
            if self.end[i] == 0.0:
                self.end[i] = now
        del self.stack[1:]

    # ------------------------------------------------------------- install

    def _set(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        old = vars(owner).get(name)
        setattr(owner, name, value)
        self._undo.append((owner, name, had, old))

    def install(self, fc) -> None:
        modules = {layer: importlib.import_module(f"forestcodec.{layer}") for layer in LAYERS}
        spaces = [fc, *modules.values()]
        for layer, module in modules.items():
            for name, fn in list(public_functions(module)):
                suffix = (lambda spec, *a, **k: spec.family) if name == "enumerate_family" else None
                wrapped = self.wrap(fn, f"{layer}.{name}", suffix)
                for space in spaces:
                    if vars(space).get(name) is fn:
                        self._set(space, name, wrapped)
        forests = modules["forests"]
        for cls_name, attrs in FOREST_METHODS.items():
            cls = getattr(forests, cls_name, None)
            for attr in attrs if cls is not None else ():
                old = vars(cls).get(attr)
                if old is None:
                    continue
                span = f"forests.{cls_name}.{attr}"
                if isinstance(old, property):
                    self._set(cls, attr, property(self.wrap(old.fget, span)))
                else:
                    self._set(cls, attr, self.wrap(old, span))
        rng = modules["codec"].SplitMix64
        self._set(rng, "next_u64", self.counter(rng.next_u64, "rng_draws"))
        self._set(rng, "below", self.counter(rng.below, "rng_requests"))
        budget = getattr(modules["enumeration"], "_Budget", None)
        if budget is not None:
            spend = self.counter(budget.spend, "candidates", lambda self_, amount=1: amount)
            self._set(budget, "spend", spend)
        cli = modules["cli"]
        if hasattr(cli, "_render"):
            self._set(cli, "_render", self.wrap(cli._render, "cli.render"))
        self._set(cli, "print", self.wrap(builtins.print, "cli.render"))
        for attr in ARGPARSE_METHODS:
            old = getattr(argparse.ArgumentParser, attr)
            self._set(argparse.ArgumentParser, attr, self.wrap(old, "cli.parse_args"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    # ------------------------------------------------------------- results

    def aggregate(self):
        """Count, self time and total time per span name, and per codec entry
        point the self time of the codec spans under it."""
        n = len(self.start)
        names, parent, start, end = self.name_id, self.parent, self.start, self.end
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        count, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        entry_ids = {self._ids.get(f"codec.{e}"): e for e in CODEC_ENTRIES}
        codec_ids = {i for name, i in self._ids.items() if name.startswith("codec.")}
        owner = [None] * n
        codec_self = defaultdict(float)
        for i in range(n):
            nid = names[i]
            dur = end[i] - start[i]
            own = dur - covered[i]
            count[nid] += 1
            self_s[nid] += own
            total_s[nid] += dur
            if nid in codec_ids:
                p = parent[i]
                owner[i] = entry_ids.get(nid) or (owner[p] if p >= 0 else None)
                if owner[i]:
                    codec_self[owner[i]] += own
        by_name = {
            name: (count[i], self_s[i], total_s[i]) for name, i in self._ids.items()
        }
        return by_name, codec_self

    def layer_metrics(self) -> dict[str, float]:
        by_name, codec_self = self.aggregate()

        def pick(pred):
            rows = [v for name, v in by_name.items() if pred(name)]
            return sum(r[0] for r in rows), sum(r[1] for r in rows), sum(r[2] for r in rows)

        m: dict[str, float] = {}
        m["forests.constructed"], m["forests.validate_s"], _ = pick(lambda s: s in VALIDATORS)
        m["forests.children_calls"], m["forests.children_s"], _ = pick(lambda s: s == "forests.children")
        m["forests.subtree_s"] = pick(
            lambda s: s in ("forests.subtree_vertices", "forests.is_descendant")
        )[1]
        m["forests.plane_walk_s"] = pick(
            lambda s: s.startswith("forests.plane_") or s == "forests.PlaneNode.size"
        )[1]
        m["forests.parse_s"] = pick(lambda s: s.startswith("forests.parse_"))[1]
        m["forests.render_s"] = pick(lambda s: s.startswith("forests.render_"))[1]
        for fam in STEP_FAMILIES:
            prefixes = (f"bijections.{fam}_",) + (("bijections.reroot_",) if fam == "partite" else ())
            m[f"bijections.steps.{fam}"] = pick(
                lambda s: s.startswith(prefixes) and s.endswith(("_forward", "_inverse"))
            )[0]
            m[f"bijections.step_s.{fam}"] = pick(lambda s: s.startswith(prefixes))[1]
        for e, metric in zip(CODEC_ENTRIES, ("sample_s", "encode_s", "decode_s")):
            m[f"codec.{metric}"] = codec_self.get(e, 0.0)
        draws, requests = self.counts["rng_draws"], self.counts["rng_requests"]
        m["codec.rng_draws"] = draws
        m["codec.rng_rejections"] = draws - requests
        m["codec.rng_accept_ratio"] = requests / draws if draws else 0.0
        yields = {self.names[i]: c for i, c in self.yields.items()}
        yielded = sum(c for name, c in yields.items() if name.startswith("enumeration.enumerate_family["))
        m["enumeration.candidates"] = self.counts["candidates"]
        m["enumeration.yielded"] = yielded
        m["enumeration.yield_ratio"] = yielded / m["enumeration.candidates"] if m["enumeration.candidates"] else 0.0
        m["enumeration.self_s"] = pick(lambda s: s.startswith("enumeration."))[1]
        for fam in ENUM_FAMILIES:
            name = f"enumeration.enumerate_family[{fam}]"
            busy = by_name.get(name, (0, 0.0, 0.0))[2]
            m[f"enumeration.forests_per_s.{fam}"] = yields.get(name, 0) / busy if busy else 0.0
        m["counting.calls"], m["counting.self_s"], _ = pick(lambda s: s.startswith("counting."))
        m["cli.parse_args_s"] = pick(lambda s: s == "cli.parse_args")[1]
        m["cli.render_s"] = pick(lambda s: s == "cli.render")[1]
        return m

    def write(self, path: Path) -> None:
        """The spans, gzipped: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as out:
            header = {
                "names": self.names,
                "spans": len(self.start),
                "arrays": [("name_id", "i"), ("parent", "i"), ("start", "d"), ("end", "d")],
                "counts": dict(self.counts),
            }
            out.write(json.dumps(header).encode() + b"\n")
            for attr in ("name_id", "parent", "start", "end"):
                out.write(getattr(self, attr).tobytes())
