"""Per-layer spans and counters, recorded from outside the package.

The tracer replaces the public functions named in ``SPANS`` and ``COUNTED``
with wrappers, in the defining module and in every ``stconv`` module that
imported the same object (``from .x import f`` binds its own name, so
patching the defining module alone would miss those callers).  Spans are
kept in memory as ``(name, start, end, parent, kind)`` and written out
when the workload ends.  Nothing here runs in the timed passes.

Cache hits are judged from outside: a sweep call is a hit when it left
``seq.cache`` unchanged.  Memory figures are read from the arrays the
package holds at the end of the workload.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

# (module, function) pairs that get a span each call
SPANS = (
    ("density", "nth_primes"),
    ("density", "membership_mask"),
    ("density", "density_profile"),
    ("density", "profile_from_mask"),
    ("sequences", "parse_sequence"),
    ("sequences", "norm_sweep"),
    ("sequences", "distance_sweep"),
    ("sequences", "element_block"),
    ("operators", "image_sequence"),
    ("operators", "functional_sweep"),
    ("operators", "operator_norm_estimate"),
    ("stanalysis", "st_converges"),
    ("stanalysis", "st_bounded"),
    ("stanalysis", "st_cauchy"),
    ("stanalysis", "st_converges_search"),
    ("stanalysis", "weakly_st_bounded"),
    ("stanalysis", "find_limit_candidates"),
    ("classify", "classify"),
    ("spaces", "format_element"),
    ("cli", "run"),
)

# called per element, so they are counted but get no span of their own
COUNTED = (
    ("operators", "apply"),
    ("spaces", "norm"),
)

SWEEPS = ("sequences.norm_sweep", "sequences.distance_sweep")
# The per-index fallback of the sweep engine is private; when it exists its
# time is booked to the ``none`` kind rather than to the structure it failed on.
FALLBACK = ("sequences", "_generic_sweep")
SWEEP_KINDS = ("SingleSupport", "PrefixValues", "FixedBasisCombo", "DenseBlock",
               "Reindexed", "Scaled", "none")
CORPORA = ("sparse_corpus", "dense_corpus", "cauchy_corpus")

MB = float(1 << 20)


def _cache_state(seq):
    return {k: id(v) for k, v in seq.cache.items()}


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.spans = []          # [name, start, end, parent, kind]
        self.stack = []
        self.counts = Counter()
        self.hits = Counter()
        self.elements = 0        # sum of horizons handed to profile_from_mask
        self.unstructured = 0    # image sequences without a structure
        self.swept_ids = set()
        self.swept_bytes = 0
        self.corpora = {}
        self.originals = []

    # -- patching ----------------------------------------------------------

    def _modules(self):
        prefix = self.pkg.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _patch(self, module_name, func_name, make):
        module = sys.modules[f"{self.pkg.__name__}.{module_name}"]
        original = getattr(module, func_name, None)
        if original is None:
            return
        wrapper = make(f"{module_name}.{func_name}", original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self.originals.append((mod, attr, original))

    def install(self):
        for module_name, func_name in SPANS:
            self._patch(module_name, func_name, self._span_wrapper)
        self._patch(*FALLBACK, lambda _name, fn: self._span_wrapper("sequences.sweep.none", fn))
        for module_name, func_name in COUNTED:
            self._patch(module_name, func_name, self._count_wrapper)
        for name in CORPORA:
            self._patch("classify", name, self._corpus_wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self.originals):
            setattr(mod, attr, original)
        self.originals.clear()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        is_sweep = name in SWEEPS

        def wrapper(*args, **kwargs):
            counts[name] += 1
            kind = None
            if is_sweep:
                seq = args[0]
                kind = type(seq.structure).__name__ if seq.structure is not None else "none"
                before = _cache_state(seq)
            elif name == "density.profile_from_mask":
                self.elements += int(args[1] if len(args) > 1 else kwargs["horizon"])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, kind]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if is_sweep:
                self._after_sweep(name, seq, before)
            elif name == "operators.image_sequence" and result.structure is None:
                self.unstructured += 1
            return result

        return wrapper

    def _after_sweep(self, name, seq, before):
        if _cache_state(seq) == before:
            self.hits[name] += 1
            return
        for key, value in seq.cache.items():
            if before.get(key) != id(value) and isinstance(value, np.ndarray) \
                    and id(value) not in self.swept_ids:
                self.swept_ids.add(id(value))
                self.swept_bytes += value.nbytes

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _corpus_wrapper(self, name, fn):
        corpora = self.corpora

        def wrapper(*args, **kwargs):
            corpus = fn(*args, **kwargs)
            corpora[corpus.version] = corpus
            return corpus

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time per span: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def memory(self):
        density = sys.modules[f"{self.pkg.__name__}.density"]
        arrays = [v for v in vars(density).values() if isinstance(v, np.ndarray)]
        mask = getattr(density, "_sieve_mask", None)
        entries = len(mask) if mask is not None else max((len(a) for a in arrays), default=0)
        corpus_bytes = sum(
            v.nbytes
            for corpus in self.corpora.values() for member in corpus.members
            for v in member.cache.values() if isinstance(v, np.ndarray)
        )
        return {
            "density.sieve_entries": entries,
            "density.sieve_mb": sum(a.nbytes for a in arrays) / MB,
            "classify.corpus_cache_mb": corpus_bytes / MB,
            "sequences.sweep_mb": self.swept_bytes / MB,
        }

    def metrics(self):
        self_s = Counter()
        kind_s = Counter({kind: 0.0 for kind in SWEEP_KINDS})
        for (name, _, _, _, kind), t in zip(self.spans, self.self_times()):
            self_s[name] += t
            if name in SWEEPS:
                kind_s[kind] += t
            elif name == "sequences.sweep.none":
                kind_s["none"] += t
        out = {}
        for module_name, func_name in SPANS:
            name = f"{module_name}.{func_name}"
            out[f"{name}.calls"] = self.counts[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in SWEEPS:
            calls = self.counts[name]
            out[f"{name}.hit_ratio"] = self.hits[name] / calls if calls else 0.0
        for kind in SWEEP_KINDS:
            out[f"sequences.sweep.{kind}.self_s"] = kind_s[kind]
        out["density.profile_from_mask.elements"] = self.elements
        out["operators.apply.calls"] = self.counts["operators.apply"]
        out["operators.image_unstructured"] = self.unstructured
        out["spaces.norm.calls"] = self.counts["spaces.norm"]
        out.update(self.memory())
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")
