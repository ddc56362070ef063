"""Run one ``matprod`` CLI call with spans around the calls into each layer.

Usage: ``python3 perfbench/trace_child.py TRACE.json <matprod arguments>``

The program's sources are not touched.  Before ``cli.main`` runs, every
binding of a traced public function in the loaded ``matprod`` modules is
replaced by a wrapper that records a span, and the block generators that
``chunk_stream`` returns are wrapped so that each draw is counted and timed.
Spans, totals and counters are written to TRACE.json when the call ends,
also when it raises.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``.

    A span's parent is the innermost open span of its own thread or, in a
    worker thread with no open span, the innermost open span of the main
    thread: the call that handed the work out.  Functions called once per
    trial or per layer are "fine": they are not kept one by one but summed
    per (name, parent), and they open no scope of their own.
    """

    def __init__(self):
        self.spans = []
        self.fine = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(float)
        self.largest_draw = 0
        self.lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.get_ident()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run ``fn`` inside a kept span; returns the result."""
        record = {"name": name, "parent": self.parent(), "thread": threading.get_ident()}
        if attrs:
            record.update(attrs)
        with self.lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack = self._stack()
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def call_fine(self, name, fn, args, kwargs):
        """Run ``fn`` and add its duration to the (name, parent) total."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            key = (name, self.parent())
            with self.lock:
                total = self.fine[key]
                total[0] += 1
                total[1] += dt

    def add(self, key, value):
        with self.lock:
            self.counts[key] += value

    def dump(self, path, import_s):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "spans": self.spans,
                    "fine": [
                        {"name": name, "parent": parent, "calls": calls, "total_s": total}
                        for (name, parent), (calls, total) in self.fine.items()
                    ],
                    "counts": dict(self.counts),
                    "largest_draw": self.largest_draw,
                },
                fh,
            )


_DRAW_METHODS = ("random", "standard_normal", "standard_gamma", "integers", "choice")


class CountingGenerator:
    """A block generator that counts and times the numbers it hands out.

    Totals go to ``<layer>.draws`` and to ``<layer>.draw_s@<span id>``, keyed
    by the span that owns the block, so that draw time can be taken out of
    the enclosing call.
    """

    def __init__(self, gen, tracer: Tracer, layer: str):
        self._gen = gen
        self._tracer = tracer
        self._layer = layer

    def __getattr__(self, attr):
        target = getattr(self._gen, attr)
        if attr not in _DRAW_METHODS:
            return target
        tracer, layer = self._tracer, self._layer

        def draw(*args, **kwargs):
            t0 = time.perf_counter()
            out = target(*args, **kwargs)
            dt = time.perf_counter() - t0
            size = int(getattr(out, "size", 1))
            tracer.add(f"{layer}.draws", size)
            tracer.add(f"{layer}.draw_s@{tracer.parent()}", dt)
            if layer == "montecarlo":
                with tracer.lock:
                    tracer.largest_draw = max(tracer.largest_draw, size)
            return out

        return draw


def _rebind(original, wrapper):
    """Point every matprod global bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "matprod" or name.startswith("matprod."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _kept(tracer: Tracer, name: str, fn):
    """Wrapper keeping one span per call, tagged with a ``trials`` argument."""
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        try:
            trials = signature.bind(*args, **kwargs).arguments.get("trials")
        except TypeError:
            trials = None
        attrs = None if trials is None else {"trials": trials}
        return tracer.call(name, fn, args, kwargs, attrs)

    return wrapper


def _fine(tracer: Tracer, name: str, fn):
    return lambda *args, **kwargs: tracer.call_fine(name, fn, args, kwargs)


def install(tracer: Tracer) -> None:
    """Wrap the public functions the per-layer metrics are taken from.

    A function that a later version of the program no longer has is skipped,
    and its metrics read 0.
    """
    import matprod.cli as cli
    from matprod import distributions, ensemble, errors, ksstats, montecarlo, pathsum, relunets

    kept = [
        (montecarlo, "run_trials", "montecarlo.run_trials"),
        (montecarlo, "chi_square_product_sampler", "montecarlo.chi2_sampler"),
        (relunets, "jacobian_batch", "relunets.jacobian_batch"),
        (ksstats, "one_sample_ks", "ksstats.one_sample_ks"),
        (ksstats, "two_sample_ks", "ksstats.two_sample_ks"),
        (ksstats, "summary", "ksstats.summary"),
        (ensemble, "compute_beta", "ensemble.compute_beta"),
        (cli, "parse_config", "cli.parse"),
        (cli, "run", "cli.run"),
    ]
    fine = [
        (relunets, "sample_network", "relunets.sample_network"),
        (relunets, "jacobian_log_norm", "relunets.jacobian_log_norm"),
    ]
    for table, make in ((kept, _kept), (fine, _fine)):
        for module, attr, name in table:
            original = getattr(module, attr, None)
            if original is not None:
                _rebind(original, make(tracer, name, original))

    spec = distributions.DistributionSpec
    spec.sample = _fine(tracer, "distributions.sample", spec.sample)

    # chunk_stream is one function bound in two modules; each binding gets
    # its own counter so that ReLU-net draws stay apart from sampler draws.
    for module, layer in ((montecarlo, "montecarlo"), (relunets, "relunets")):
        stream = getattr(module, "chunk_stream", None)
        if stream is not None:
            setattr(
                module,
                "chunk_stream",
                lambda *a, _s=stream, _l=layer, **kw: CountingGenerator(_s(*a, **kw), tracer, _l),
            )

    original_exact = pathsum.exact_moment
    original_brute = pathsum.brute_force_moment
    budget_exceeded = errors.BudgetExceeded
    seen = set()

    def exact_moment(config, u, k, *args, **kwargs):
        # The first call per (law, p, k) builds the cached transfer ("cold");
        # it is then repeated once to time the same call warm.
        key = (config.entry_law, config.p, k)
        cold = key not in seen
        seen.add(key)
        call_args = (config, u, k) + args
        try:
            result = tracer.call(
                "pathsum.exact_moment", original_exact, call_args, kwargs, {"k": k, "cold": cold}
            )
        except budget_exceeded:
            tracer.add("pathsum.budget_refusals", 1)
            raise
        if cold:
            again = tracer.call(
                "pathsum.exact_moment", original_exact, call_args, kwargs, {"k": k, "cold": False}
            )
            if again != result:
                raise RuntimeError(f"repeated exact_moment k={k} gave {again} after {result}")
        return result

    def brute_force_moment(*args, **kwargs):
        try:
            return tracer.call("pathsum.brute_force", original_brute, args, kwargs)
        except budget_exceeded:
            tracer.add("pathsum.budget_refusals", 1)
            raise

    _rebind(original_exact, exact_moment)
    _rebind(original_brute, brute_force_moment)


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import matprod.cli

    import_s = time.perf_counter() - t0
    install(tracer)
    try:
        return matprod.cli.main(cli_args)
    finally:
        tracer.dump(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
