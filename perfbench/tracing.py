"""Spans around oddperfect's layers, installed from outside the package.

Each span records its layer name, start, end and parent span, in memory; the
originals are put back when the traced block ends.  A layer's self time is
its span minus the spans of its direct children.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from array import array

#: (module, name as that module binds it, layer).  A calling module binds
#: its own reference at import, so each binding site is wrapped separately;
#: a name that no longer exists is skipped and its layer records zero calls.
WRAPPED = (
    ("oddperfect.classify", "factorize", "arith.factorize"),
    ("oddperfect.classify", "sigma", "arith.sigma"),
    ("oddperfect.classify", "vp", "arith.vp"),
    ("oddperfect.arith", "is_prime", "arith.is_prime"),
    ("oddperfect.quadratic", "binomial", "arith.binomial"),
    ("oddperfect.quadratic", "vp", "arith.vp"),
    ("oddperfect.quadratic", "is_prime", "arith.is_prime"),
    ("oddperfect.search", "isqrt_exact", "arith.isqrt_exact"),
    ("oddperfect.search", "primes_upto", "arith.primes_upto"),
    ("oddperfect.search", "checkpoint_save", "search.checkpoint_save"),
    ("oddperfect.cli", "run_search", "search.run_search"),
)


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]

    def wrap(self, layer: str, fn):
        """fn, recording one span per call under the given layer name."""
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        layers, parents, starts, ends, opened = (
            self.layer, self.parent, self.start, self.end, self._open
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            layers.append(lid)
            parents.append(opened[-1])
            ends.append(0)
            opened.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                opened.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        restore = []
        try:
            for module_name, name, layer in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, name, None)
                if original is None:
                    continue
                restore.append((module, name, original))
                setattr(module, name, self.wrap(layer, original))
            yield self
        finally:
            for module, name, original in reversed(restore):
                setattr(module, name, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """layer -> (calls, busy seconds, self seconds)."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0] * len(durations)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += durations[i]
        sums = {name: [0, 0, 0] for name in self.layers}
        for i, lid in enumerate(self.layer):
            entry = sums[self.layers[lid]]
            entry[0] += 1
            entry[1] += durations[i]
            entry[2] += durations[i] - children[i]
        return {name: (c, busy / 1e9, own / 1e9) for name, (c, busy, own) in sums.items()}

    def write(self, path) -> None:
        """Save the spans as arrays: layer index, parent index, start and end in ns."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
