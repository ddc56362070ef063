"""The benchmark's workloads: fixed sequences of ``matprod`` CLI calls and
the checks that every call's output must pass.

Each check compares the CSV a call wrote with a value from ``reference``
(computed without matprod) or with a property the method must have.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Sample means and variances may sit this many standard errors from the
# reference (a false alarm about once in 1.7 million checks).
Z_TOL = 5.0

# Coordinates of the input vector of exact_moments (d).  They come from a
# fixed seed, not from --seed, so the call is the same in every run.
U_FILE_SEED = 20181214
U_FILE_DIM = 1000


@dataclass(frozen=True)
class Op:
    """One CLI call; ``check`` maps its parsed CSV rows to a list of problems."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[list[dict]], list[str]]


def parse_csv(text: str) -> list[dict]:
    """Rows of a matprod CSV: a ``# fingerprint=...`` line, a header, rows."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# fingerprint="):
        raise ValueError(f"missing provenance line: {lines[:1]}")
    return list(csv.DictReader(lines[1:]))


def _close(name, got, want, rel=1e-12) -> list[str]:
    if abs(got - want) <= rel * abs(want):
        return []
    return [f"{name} {got!r} != reference {want!r}"]


def _within(name, got, want, se) -> list[str]:
    if abs(got - want) <= Z_TOL * se:
        return []
    return [f"{name} {got:.6g} is {abs(got - want) / se:.1f} se from reference {want:.6g}"]


def _binomial(name, count, trials, prob) -> list[str]:
    lo, hi = ref.binomial_interval(trials, prob)
    if lo <= count <= hi:
        return []
    return [f"{name} {count} outside [{lo}, {hi}] for {trials} trials at {prob:.3g}"]


def _ks(row, stat_key, crit_key, left, right) -> list[str]:
    stat, crit = float(row[stat_key]), float(row[crit_key])
    problems = _close(crit_key, crit, 1.358 * math.sqrt((left + right) / (left * right)))
    bound = ref.ks_bound(crit)
    if not stat <= bound:
        problems.append(f"{stat_key} {stat:.4f} above the bound {bound:.4f}")
    return problems


def _log_norm(row, widths, p, samples) -> list[str]:
    mean, var = ref.log_norm_mean_variance(widths, p)
    se_mean, se_var = ref.sample_mean_variance_se(widths, p, samples)
    return _within("mean", float(row["mean"]), mean, se_mean) + _within(
        "variance", float(row["variance"]), var, se_var
    )


def check_simulate(widths, p):
    """Gaussian entries, uniform u: ln Z moments and the zero-event count."""

    def check(rows):
        (row,) = rows
        trials, zeros = int(row["trials"]), int(row["zero_events"])
        problems = _binomial("zero_events", zeros, trials, ref.zero_event_probability(widths, p))
        problems += _log_norm(row, widths, p, trials - zeros)
        problems += _close("beta", float(row["beta"]), ref.beta(widths, p, 3.0, 1.0 / widths[0]))
        return problems

    return check


def check_chi2(widths):
    """p = 1: product side against chi-square moments; two-sample KS."""

    def check(rows):
        (row,) = rows
        trials, zeros = int(row["trials"]), int(row["zero_events"])
        problems = [] if zeros == 0 else [f"zero_events {zeros} at p = 1"]
        problems += _ks(row, "two_sample_ks", "two_sample_critical", trials, trials)
        problems += _log_norm(row, widths, 1, trials)
        problems += _close("beta", float(row["beta"]), ref.beta(widths, 1, 3.0, 1.0 / widths[0]))
        return problems

    return check


def check_jacobian(widths):
    """ReLU Jacobian side against the p = 1/2 product side; zero events of both."""

    def check(rows):
        (row,) = rows
        trials = int(row["trials"])
        q = ref.zero_event_probability(widths, 0.5)
        problems = _binomial("jacobian_zero_events", int(row["jacobian_zero_events"]), trials, q)
        problems += _binomial("product_zero_events", int(row["product_zero_events"]), trials, q)
        # zero events carry no log value, so each side's sample excludes its own
        left = trials - int(row["jacobian_zero_events"])
        right = trials - int(row["product_zero_events"])
        problems += _ks(row, "ks_statistic", "critical_5pct", left, right)
        return problems

    return check


def check_moments(widths, p, want, u_l4, mu4, rel=0.0, need_brute=False):
    """Rows of ``moments --trials 0``: exact (and brute force, when it runs)
    equal the reference ``want[k]``; ``E[Z] = 1``; Monte Carlo skipped with
    its reason.

    ``rel`` is 0 on rational inputs, where the printed doubles must be equal.
    ``need_brute`` makes a refused brute-force oracle a problem.
    """
    b = ref.beta(widths, p, mu4, u_l4)

    def check(rows):
        problems = []
        if [int(r["k"]) for r in rows] != list(want):
            return [f"rows for k = {[r['k'] for r in rows]}, asked {list(want)}"]
        for row in rows:
            k = int(row["k"])
            if k == 1 and want[k] != 1.0:
                problems.append(f"reference E[Z] = {want[k]}")
            if row["exact"] == "":
                problems.append(f"k={k}: exact refused: {row['reason']}")
            else:
                problems += _close(f"k={k} exact", float(row["exact"]), want[k], rel)
            if row["brute_force"] != "":
                problems += _close(f"k={k} brute_force", float(row["brute_force"]), want[k], rel)
            elif need_brute or "brute_force:" not in row["reason"]:
                problems.append(f"k={k}: no brute_force value: {row['reason']}")
            if row["monte_carlo"] != "" or "monte_carlo:" not in row["reason"]:
                problems.append(f"k={k}: Monte Carlo ran at --trials 0")
            problems += _close(f"k={k} beta", float(row["beta"]), b)
            problems += _close(f"k={k} theory", float(row["theory"]), math.exp(math.comb(k, 2) * b))
        return problems

    return check


def _widths(text: str) -> tuple[int, ...]:
    """The CLI's ``--widths`` grammar: ``NxD`` appends D copies of N after
    the first width, so ``128x8`` alone is 9 widths."""
    out = []
    for token in text.split(","):
        n, _, d = token.partition("x")
        copies = int(d) if d else 1
        if d and not out:
            copies += 1
        out += [int(n)] * copies
    return tuple(out)


def _sampler_op(name, argv, seed, check_for):
    widths = _widths(argv[argv.index("--widths") + 1])
    return Op(name, tuple(argv) + ("--seed", str(seed)), check_for(widths))


# Trial counts set the length of a pass; see README.md for the timings.
WIDE_SIMULATE_TRIALS = 512
WIDE_CHI2_TRIALS = 1024
RELU_JACOBIAN_TRIALS = 1000
RELU_SIMULATE_TRIALS = 4096


def wide_sampler(seed: int, out: Path) -> list[Op]:
    return [
        _sampler_op(
            "simulate_128x8",
            ["simulate", "--widths", "128x8", "--p", "0.5", "--u", "uniform",
             "--trials", str(WIDE_SIMULATE_TRIALS)],
            1000 * seed + 1,
            lambda w: check_simulate(w, 0.5),
        ),
        _sampler_op(
            "chi2_check_64x16",
            ["chi2-check", "--widths", "64x16", "--p", "1", "--u", "uniform",
             "--trials", str(WIDE_CHI2_TRIALS)],
            1000 * seed + 2,
            check_chi2,
        ),
    ]


def relu_gradients(seed: int, out: Path) -> list[Op]:
    return [
        _sampler_op(
            "jacobian_compare_16x32",
            ["jacobian-compare", "--widths", "16x32", "--u", "uniform",
             "--trials", str(RELU_JACOBIAN_TRIALS)],
            1000 * seed + 3,
            check_jacobian,
        ),
        _sampler_op(
            "simulate_16x32",
            ["simulate", "--widths", "16x32", "--p", "0.5", "--u", "uniform",
             "--trials", str(RELU_SIMULATE_TRIALS)],
            1000 * seed + 4,
            lambda w: check_simulate(w, 0.5),
        ),
    ]


def write_u_file(path: Path) -> float:
    """Write exact_moments (d)'s input vector; returns its ``||u||_4^4``.

    Standard normal coordinates, printed with 17 digits, so the squared
    coordinates are not rational numbers the program knows exactly and it
    takes its float route.
    """
    coords = np.random.default_rng(U_FILE_SEED).standard_normal(U_FILE_DIM)
    path.write_text("".join(f"{c:.17g}\n" for c in coords))
    unit = coords / np.sqrt(coords @ coords)
    return float(np.sum(unit**4))


def exact_moments(seed: int, out: Path) -> list[Op]:
    del seed  # no Monte Carlo runs: every input is fixed
    half = Fraction(1, 2)
    u_file = str(out / "u_exact_moments_d.txt")
    u_l4 = write_u_file(Path(u_file))
    rad_law = ref.rademacher_law((3, 2, 3, 2), half, "uniform")
    cases = [
        ("a_8x5_e1", "8x5", "gaussian", "e1", (1, 3, 4, 5, 6)),
        ("b_64x50_uniform", "64x50", "gaussian", "uniform", (5,)),
        ("c_3232_rademacher", "3,2,3,2", "rademacher", "uniform", (1, 2)),
        ("d_1000x120_file", "1000x120", "gaussian", u_file, (4,)),
    ]
    ops = []
    for name, widths_text, dist, u, ks in cases:
        widths = _widths(widths_text)
        if dist == "rademacher":
            want, mu4 = {k: float(ref.law_moment(rad_law, k)) for k in ks}, 1.0
        else:
            want, mu4 = {k: float(ref.gaussian_moment(widths, half, k)) for k in ks}, 3.0
        l4 = {"e1": 1.0, "uniform": 1.0 / widths[0]}.get(u, u_l4)
        argv = ("moments", "--widths", widths_text, "--p", "0.5", "--dist", dist,
                "--u", u, "--k", ",".join(map(str, ks)), "--trials", "0")
        # the float route (a file u) is held to rounding error, the rational
        # routes to equality of the printed doubles
        rel = 1e-9 if u == u_file else 0.0
        check = check_moments(widths, half, want, l4, mu4, rel, need_brute=dist == "rademacher")
        ops.append(Op(name, argv, check))
    return ops


WORKLOADS = {
    "wide_sampler": wide_sampler,
    "relu_gradients": relu_gradients,
    "exact_moments": exact_moments,
}
