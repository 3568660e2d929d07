"""Layer spans and counters recorded from outside the program.

A :class:`Tracer` wraps the public functions of each ``treebo`` module at
every place a caller looks them up: the defining module and each module that
imported the name directly (``treebo.acquisition`` imports
``component_posterior_batch`` by name, ``treebo.bench`` imports ``propose``
and ``linearize``).  Wrapping only the defining module would miss those
calls.  Kernel methods are wrapped on ``AddTreeKernel`` itself.

Spans are kept in memory as ``[name, start, end, parent]`` rows, where
``parent`` is the row index of the span that was open when the call began
(-1 at top level), and are written out once measurement is over.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# span name -> (defining module, attribute); methods live on AddTreeKernel.
FUNCTIONS = {
    "gp.fit_hyperparameters": ("treebo.gp", "fit_hyperparameters"),
    "gp.fit": ("treebo.gp", "fit"),
    "gp.posterior": ("treebo.gp", "posterior"),
    "gp.component_posterior_batch": ("treebo.gp", "component_posterior_batch"),
    "acquisition.propose": ("treebo.acquisition", "propose"),
    "acquisition.mutual_information": ("treebo.acquisition", "mutual_information"),
    "tree_space.linearize": ("treebo.tree_space", "linearize"),
}
METHODS = {
    "kernels.gram_and_grads": "gram_and_grads",
    "kernels.gram_matrix": "gram_matrix",
    "kernels.component_cross": "component_cross",
}
LOOP = "bench.loop"
OBJECTIVE = "bench.objective"

# A failed L-BFGS start reports this evidence (the objective's 1e25 guard).
_FAILED_EVIDENCE = -1e24
_MB = float(1 << 20)


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.models: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``; ``observe(args, kwargs, out)``
        updates counters after each call that returns."""

        def traced(*args, **kwargs):
            row = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                row[2] = perf_counter()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def is_open(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- counters observed at the wrapped calls ---------------------------

    def _gram_and_grads(self, args, kwargs, out):
        K, grads = out
        self.counts["kernels.gram_and_grads.out_bytes"] += K.nbytes + sum(G.nbytes for G in grads)

    def _fit_hyperparameters(self, args, kwargs, out):
        self.counts["gp.fit_hyperparameters.restarts"] += kwargs.get("restarts", 10)
        self.counts["gp.fit_hyperparameters.restarts_ok"] += sum(
            e > _FAILED_EVIDENCE for e in out.restart_evidences
        )

    def _fit(self, args, kwargs, out):
        self.counts["gp.fit.jittered"] += out.jitter > 0
        self.models.append(out)

    def _component_posterior_batch(self, args, kwargs, out):
        rows = len(out[0])
        self.counts["gp.component_posterior_batch.rows"] += rows
        V = args[2] if len(args) > 2 else kwargs["V"]
        polish = rows == 1 and getattr(V, "size", 0) > 0
        if polish and self.is_open("acquisition.propose"):
            self.counts["acquisition.polish_evals"] += 1

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every layer at every lookup site; restore on exit."""
        from treebo.kernels import AddTreeKernel

        observers = {
            "kernels.gram_and_grads": self._gram_and_grads,
            "gp.fit_hyperparameters": self._fit_hyperparameters,
            "gp.fit": self._fit,
            "gp.component_posterior_batch": self._component_posterior_batch,
        }
        saved: list[tuple[object, str, object]] = []
        for name, attr in METHODS.items():
            orig = getattr(AddTreeKernel, attr)
            saved.append((AddTreeKernel, attr, orig))
            setattr(AddTreeKernel, attr, self.wrap(name, orig, observers.get(name)))
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "treebo"]
        for name, (home, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[home], attr)
            traced = self.wrap(name, orig, observers.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, traced)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-span calls, busy seconds and self seconds, plus counters."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered

        c = self.counts
        out: dict[str, float] = {}
        for name in (*METHODS, *FUNCTIONS, OBJECTIVE):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
        for name in ("gp.fit_hyperparameters", "acquisition.propose", LOOP):
            out[f"{name}.self_s"] = self_s[name]
        out[f"{LOOP}.s"] = busy[LOOP]
        out["kernels.gram_and_grads.out_mb"] = c["kernels.gram_and_grads.out_bytes"] / _MB
        requested = c["gp.fit_hyperparameters.restarts"]
        out["gp.fit_hyperparameters.restarts_ok_frac"] = (
            c["gp.fit_hyperparameters.restarts_ok"] / requested if requested else 1.0
        )
        out["gp.fit.jittered"] = c["gp.fit.jittered"]
        out["gp.component_posterior_batch.rows"] = c["gp.component_posterior_batch.rows"]
        out["acquisition.polish_evals"] = c["acquisition.polish_evals"]
        out["gp.clamps"] = sum(m.clamp_count for m in self.models)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def is_count(metric: str) -> bool:
    """Metrics that repeat exactly for equal inputs (everything but times)."""
    return not (metric.endswith(".s") or metric.endswith(".self_s"))
