"""In-memory span recorder for the traced pass.

``Tracer.installed()`` replaces each layer function of ``linkequiv`` by a
timing wrapper at every module attribute bound to it (``fit_mle`` is
imported by name into ``equiv``, ``concord`` and ``cli``; ``cdf`` into
``fit``, ``equiv``, ``concord`` and ``cli``; and so on), and restores the
originals on exit.  Every call then records its name, start, end and the
span that was open when it began.  Nothing in the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

# layer (module of src/linkequiv) -> functions whose calls become spans named
# "<layer>.<function>".  The private replicate bodies are included so that
# their time counts for their own layer, not for parallel.replicate_map.
LAYER_FUNCTIONS = {
    "links": ("cdf", "density", "density_prime"),
    "fit": ("log_likelihood", "score", "observed_information", "fit_mle"),
    "rng": ("substream",),
    "equiv": ("generate_dataset", "structural_sim", "predictive_sim", "ic_compare",
              "_structural_replicate", "_ic_replicate"),
    "concord": ("split", "test_error", "average_test_error", "_ate_replicate"),
    "parallel": ("replicate_map",),
    "cli": ("main", "read_dataset_csv", "_write_csv"),
}


def _fit_note(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return spec.link.value, result.iterations, result.converged


def _map_note(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["args_list"]


# span name -> function of (args, kwargs, result) whose value is kept with the span
NOTES = {"fit.fit_mle": _fit_note, "parallel.replicate_map": _map_note}


class Tracer:
    """Spans of one traced pass, kept in memory as
    ``[name, parent_index, start_ns, end_ns]`` lists; ``notes`` maps a span
    index to the value its note function returned."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, notes = self.spans, self._stack, self.notes
        note = NOTES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                notes[index] = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers in every loaded ``linkequiv`` module for the
        duration of the block."""
        modules = [m for key, m in sys.modules.items()
                   if key == "linkequiv" or key.startswith("linkequiv.")]
        restore = []
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"linkequiv.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def durations_ns(self) -> dict[str, list[int]]:
        out = defaultdict(list)
        for name, _, start, end in self.spans:
            out[name].append(end - start)
        return out

    def self_ns_by_layer(self) -> dict[str, int]:
        """Per layer, the summed span time not covered by child spans."""
        covered = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(int)
        for (name, _, start, end), child in zip(self.spans, covered):
            out[name.split(".", 1)[0]] += end - start - child
        return out

    def noted(self, name: str) -> list[tuple[int, object]]:
        """``(duration_ns, note)`` of each completed span called ``name``."""
        return [(span[3] - span[2], self.notes[i]) for i, span in enumerate(self.spans)
                if span[0] == name and i in self.notes]

    def write(self, path, rnd: int, mode: str = "wt") -> None:
        """Append the spans as CSV rows ``round,index,name,parent,start_ns,end_ns``."""
        with gzip.open(path, mode, encoding="utf-8", newline="") as out:
            if mode == "wt":
                out.write("round,index,name,parent,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                out.write(f"{rnd},{i},{name},{parent},{start},{end}\n")
