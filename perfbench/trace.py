"""Outside-in span recorder for the lcm_dilate layers.

Nothing under ``src/`` knows about tracing.  ``Recorder.install`` replaces
each traced callable at the name its caller looks it up by (a module global
for functions imported by name, the class attribute for methods) with a
wrapper, and ``uninstall`` puts the originals back.  A wrapper either records
a span (name, start, end, parent span, solve id) or only counts the call,
for callables too hot to time one by one.

Spans stay in memory; ``solve_summary`` reduces the spans and counts of one
solve to the per-layer metrics.  A span's self time is its duration minus the
durations of its direct children, so a layer's self time excludes the traced
layers it calls.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, solve, nested]
        self.counts: dict = defaultdict(Counter)        # solve -> name -> calls
        self.keys: dict = defaultdict(lambda: defaultdict(set))
        self.values: dict = defaultdict(dict)           # solve -> name -> value
        self.solve = None
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple] = []
        self._serial = weakref.WeakKeyDictionary()
        self._next_serial = 0
        self.memo_sizes: dict = {}

    # -- recording -------------------------------------------------------------

    def serial(self, obj) -> int:
        """A stable number per live object, for distinct-key counts."""
        s = self._serial.get(obj)
        if s is None:
            self._next_serial += 1
            s = self._serial[obj] = self._next_serial
        return s

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.solve,
                           self._active[name] > 0])
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = _clock()
        self._stack.pop()
        self._active[span[0]] -= 1

    def count(self, name: str, key=None) -> None:
        self.counts[self.solve][name] += 1
        if key is not None:
            self.keys[self.solve][name].add(key)

    def value(self, name: str, v) -> None:
        self.values[self.solve][name] = v

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper_of(original)))

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around ``owner.attr``; ``after(rec, args, result)``
        runs once the call returns."""
        rec = self

        def wrapper_of(fn):
            def wrapped(*args, **kwargs):
                idx = rec.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.end(idx)
                if after is not None:
                    after(rec, args, out)
                return out
            return wrapped

        self._patch(owner, attr, wrapper_of)

    def counter(self, owner, attr: str, name: str, key=None) -> None:
        """Count calls of ``owner.attr``; ``key(rec, *args)`` adds a key to
        the set of distinct keys seen for ``name``."""
        rec = self

        def wrapper_of(fn):
            if key is None:
                def wrapped(*args, **kwargs):
                    rec.counts[rec.solve][name] += 1
                    return fn(*args, **kwargs)
            else:
                def wrapped(*args, **kwargs):
                    rec.count(name, key(rec, *args, **kwargs))
                    return fn(*args, **kwargs)
            return wrapped

        self._patch(owner, attr, wrapper_of)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------------

    def solve_summary(self, solve) -> dict:
        """Inclusive time, self time and call count per span name, plus the
        counters, distinct-key counts and values of one solve."""
        idxs = [i for i, s in enumerate(self.spans) if s[4] == solve]
        child = defaultdict(float)
        direct = defaultdict(Counter)
        for i in idxs:
            name, t0, t1, parent = self.spans[i][:4]
            if parent >= 0:
                child[parent] += t1 - t0
                direct[parent][name] += 1
        incl, self_t, calls = Counter(), Counter(), Counter()
        children_of = defaultdict(Counter)
        for i in idxs:
            name, t0, t1, _, _, nested = self.spans[i]
            calls[name] += 1
            self_t[name] += (t1 - t0) - child[i]
            if not nested:
                incl[name] += t1 - t0
            children_of[name].update(direct[i])
        return {
            "incl": incl, "self": self_t, "calls": calls,
            "children": children_of,
            "counts": Counter(self.counts.get(solve, {})),
            "distinct": {k: len(v) for k, v in self.keys.get(solve, {}).items()},
            "values": dict(self.values.get(solve, {})),
        }


# ---------------------------------------------------------------------------
# the traced boundaries of lcm_dilate
# ---------------------------------------------------------------------------


def _nonzero_blocks(rec, args, assembly) -> None:
    gram, h = assembly.gram, assembly.h
    n = gram.shape[0] // h
    nz = np.abs(gram).reshape(n, h, n, h).max(axis=(1, 3)) > 0.0
    rec.value("kernel.gram_dim", int(gram.shape[0]))
    rec.value("kernel.nonzero_blocks", int(np.triu(nz).sum()))


def _pi_hit(rec, args, out) -> None:
    # A call that leaves the result's memo table no larger was served from
    # it; without a memo table every call counts as a miss.
    result = args[0]
    size = len(getattr(result, "_pi_cache", ()))
    key = rec.serial(result)
    if rec.memo_sizes.get(key) == size:
        rec.count("dilation.pi_hit")
    rec.memo_sizes[key] = size


def _rank(rec, args, result) -> None:
    rec.value("dilation.rank", int(result.rank))


def _corner_key(rec, sys_, p, q, depth, *rest, **kw):
    return (rec.serial(sys_), tuple(p), tuple(q), sys_.model.normalize_depth(depth))


def _word_key(rec, family, p):
    return (rec.serial(family), tuple(p))


def install(rec: Recorder, modules) -> None:
    """Wrap every traced boundary of the imported ``lcm_dilate`` modules.

    ``modules`` maps short module names to module objects.  Functions that a
    module imported by name are patched in that module too, since that is
    where its callers look them up.
    """
    cli, kernel, dilation = modules["cli"], modules["kernel"], modules["dilation"]
    cpmaps, systems = modules["cpmaps"], modules["systems"]
    algebras, semigroup = modules["algebras"], modules["semigroup"]

    # cli
    rec.span(cli, "run_command", "cli.command")
    rec.span(cli, "parse_instance", "cli.parse")
    rec.span(cli, "make_report", "cli.report")
    # serialize / persist
    rec.span(cli, "load_json", "serialize.load_json")
    rec.span(cli, "result_payload", "persist.payload")
    rec.span(cli, "verify_result", "persist.verify")
    # cpmaps
    for mod in (cli, cpmaps):
        rec.span(mod, "build_phi_tilde", "cpmaps.lift")
    rec.span(cli, "extend_phi_T", "cpmaps.lift")
    for mod in (cli, dilation):
        rec.span(mod, "is_completely_positive", "cpmaps.cp_test")
        rec.span(mod, "nica_defect", "cpmaps.nica_defect")
    rec.counter(cpmaps.ContractionFamily, "__call__", "cpmaps.word_eval", _word_key)
    # dilation
    rec.span(cli, "covariant_dilate", "dilation.covariant", after=_rank)
    rec.span(dilation, "naimark_dilate", "dilation.naimark")
    rec.span(dilation.DilationResult, "pi", "dilation.pi", after=_pi_hit)
    rec.span(dilation.DilationResult, "v_word", "dilation.v_word")
    # kernel
    for mod in (dilation, kernel):
        rec.span(mod, "assemble_gram", "kernel.assemble", after=_nonzero_blocks)
    rec.span(kernel.KernelSystem, "evaluate", "kernel.evaluate")
    rec.span(kernel.KernelSystem, "validate_covariance", "kernel.covariance")
    # systems
    rec.span(systems.LcmSystem, "corner_basis", "systems.corner_basis")
    rec.counter(systems.LcmSystem, "corner_basis", "systems.corner_key", _corner_key)
    rec.span(systems.LcmSystem, "validate", "systems.validate")
    # algebras
    rec.counter(algebras.LevelledElement, "__mul__", "algebras.mul")
    rec.counter(algebras.LevelledElement, "refine_to", "algebras.refine")
    rec.counter(algebras.LevelledElement, "vec", "algebras.vec")
    # semigroup
    for cls in (semigroup.FreeMonoid, semigroup.FreeAbelian):
        rec.counter(cls, "lcm", "semigroup.lcm")
