"""Per-layer metrics from the traces that ``trace_child.py`` writes.

The layers are the program's modules.  Each metric is a total over the calls
of one pass of a workload, and the reported value is its median over rounds.
Times of work that runs in worker threads (draws, distribution sampling and
the propagation left when draws are taken out) come from the 1-thread pass,
where they run serially and add up to ``montecarlo.run_trials_1t_s``; every
other metric comes from the 2-thread pass.
"""

from __future__ import annotations

import statistics

PER_LAYER = (
    ("montecarlo.draws_per_trial", "count"),
    ("montecarlo.draw_s", "s"),
    ("distributions.sample_s", "s"),
    ("montecarlo.propagate_s", "s"),
    ("montecarlo.run_trials_s", "s"),
    ("montecarlo.run_trials_1t_s", "s"),
    ("montecarlo.chi2_sampler_s", "s"),
    ("montecarlo.block_mb", "MB"),
    ("relunets.jacobian_batch_s", "s"),
    ("relunets.sample_network_s", "s"),
    ("relunets.jacobian_log_norm_s", "s"),
    ("relunets.draws_per_trial", "count"),
    ("ksstats.one_sample_ks_s", "s"),
    ("ksstats.two_sample_ks_s", "s"),
    ("ksstats.summary_s", "s"),
    ("pathsum.exact_cold_s", "s"),
    ("pathsum.exact_warm_s", "s"),
    *((f"pathsum.exact_k{k}_s", "s") for k in range(1, 7)),
    ("pathsum.brute_force_s", "s"),
    ("pathsum.budget_refusals", "count"),
    ("cli.import_s", "s"),
    ("cli.parse_s", "s"),
    ("ensemble.compute_beta_s", "s"),
    ("cli.self_s", "s"),
)


def _spans(traces, name, keep=lambda s: True):
    return [s for t in traces for s in t.get("spans", ()) if s["name"] == name and keep(s)]


def _span_s(traces, name, keep=lambda s: True) -> float:
    return sum(s["end"] - s["start"] for s in _spans(traces, name, keep))


def _fine_s(traces, name) -> float:
    return sum(f["total_s"] for t in traces for f in t.get("fine", ()) if f["name"] == name)


def _count(traces, key) -> float:
    return sum(t.get("counts", {}).get(key, 0) for t in traces)


def _draw_s(trace, owner=None) -> float:
    """Montecarlo draw time, all of it or the part owned by span ``owner``."""
    prefix = "montecarlo.draw_s@"
    return sum(
        v for k, v in trace.get("counts", {}).items()
        if k.startswith(prefix) and (owner is None or k == f"{prefix}{owner}")
    )


def _per_trial(traces, draws_key, span_names) -> float:
    trials = sum(s.get("trials", 0) for name in span_names for s in _spans(traces, name))
    return _count(traces, draws_key) / trials if trials else 0.0


def _self_s(trace, name) -> float:
    """Time in spans ``name`` that no direct child span covers."""
    total = 0.0
    for span in _spans([trace], name):
        children = sum(
            s["end"] - s["start"] for s in trace["spans"] if s["parent"] == span["id"]
        )
        children += sum(f["total_s"] for f in trace.get("fine", ()) if f["parent"] == span["id"])
        total += span["end"] - span["start"] - children
    return total


def _cold(span) -> bool:
    return bool(span.get("cold"))


def round_metrics(serial: list[dict], threaded: list[dict]) -> dict[str, float]:
    """Per-layer values of one round from the traces of its two passes."""
    out = {
        "montecarlo.draws_per_trial": _per_trial(
            threaded, "montecarlo.draws", ("montecarlo.run_trials", "montecarlo.chi2_sampler")
        ),
        "montecarlo.draw_s": sum(_draw_s(t) for t in serial),
        "distributions.sample_s": _fine_s(serial, "distributions.sample"),
        "montecarlo.propagate_s": sum(
            s["end"] - s["start"] - _draw_s(t, s["id"])
            for t in serial
            for s in _spans([t], "montecarlo.run_trials")
        ),
        "montecarlo.run_trials_s": _span_s(threaded, "montecarlo.run_trials"),
        "montecarlo.run_trials_1t_s": _span_s(serial, "montecarlo.run_trials"),
        "montecarlo.chi2_sampler_s": _span_s(threaded, "montecarlo.chi2_sampler"),
        # bytes of the largest block, computed from its shape (8-byte floats)
        "montecarlo.block_mb": max((t.get("largest_draw", 0) for t in threaded), default=0) * 8 / 1e6,
        "relunets.jacobian_batch_s": _span_s(threaded, "relunets.jacobian_batch"),
        "relunets.sample_network_s": _fine_s(threaded, "relunets.sample_network"),
        "relunets.jacobian_log_norm_s": _fine_s(threaded, "relunets.jacobian_log_norm"),
        "relunets.draws_per_trial": _per_trial(
            threaded, "relunets.draws", ("relunets.jacobian_batch",)
        ),
        "ksstats.one_sample_ks_s": _span_s(threaded, "ksstats.one_sample_ks"),
        "ksstats.two_sample_ks_s": _span_s(threaded, "ksstats.two_sample_ks"),
        "ksstats.summary_s": _span_s(threaded, "ksstats.summary"),
        "pathsum.exact_cold_s": _span_s(threaded, "pathsum.exact_moment", _cold),
        "pathsum.exact_warm_s": _span_s(
            threaded, "pathsum.exact_moment", lambda s: not _cold(s)
        ),
        "pathsum.brute_force_s": _span_s(threaded, "pathsum.brute_force"),
        "pathsum.budget_refusals": _count(threaded, "pathsum.budget_refusals"),
        "cli.import_s": sum(t.get("import_s", 0.0) for t in threaded),
        "cli.parse_s": _span_s(threaded, "cli.parse"),
        "ensemble.compute_beta_s": _span_s(threaded, "ensemble.compute_beta"),
        "cli.self_s": sum(_self_s(t, "cli.run") for t in threaded),
    }
    for k in range(1, 7):
        out[f"pathsum.exact_k{k}_s"] = _span_s(
            threaded, "pathsum.exact_moment", lambda s, k=k: _cold(s) and s.get("k") == k
        )
    return out


def layer_metrics(rounds) -> dict[str, tuple[float, str]]:
    """Median over rounds of every per-layer metric, with its unit."""
    per_round = [
        round_metrics([c.trace or {} for c in r[1]], [c.trace or {} for c in r[2]])
        for r in rounds
    ]
    return {
        name: (statistics.median(values[name] for values in per_round), unit)
        for name, unit in PER_LAYER
    }
