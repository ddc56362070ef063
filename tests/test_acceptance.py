"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or on
failure).  The Monte Carlo criteria run through the command-line interface so
the determinism criterion can byte-compare the emitted artifacts.
"""

import itertools
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from matprod import (
    EnsembleConfig,
    UnitVector,
    brute_force_moment,
    compute_beta,
    exact_moment,
    rademacher,
    run_trials,
    standard_gaussian,
)
from matprod.cli import main
from matprod.montecarlo import empirical_moment
from oracles import dense_jacobian, forward, sample_network, zero_event_probability

GAUSS = standard_gaussian()
RAD = rademacher()


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def small_instance_grid():
    """d <= 3, widths in {1,2,3}, p in {1, 1/2}, both laws, both inputs."""
    for d in (1, 2, 3):
        for widths in itertools.product((1, 2, 3), repeat=d + 1):
            for p in (F(1), F(1, 2)):
                for law in (GAUSS, RAD):
                    for u_name in ("e1", "uniform"):
                        yield widths, p, law, u_name


def build_u(name: str, dim: int) -> UnitVector:
    return UnitVector.basis(dim) if name == "e1" else UnitVector.uniform(dim)


def read_rows(path):
    import csv

    lines = path.read_text().splitlines()
    return list(csv.DictReader(lines[1:]))


# ---------------------------------------------------------------------------
# CLI artifacts backing criteria 5-8 (and reused by criterion 11)
# ---------------------------------------------------------------------------

ARTIFACT_ARGS = {
    "moments32": [
        "moments", "--widths", "32x8", "--p", "1", "--dist", "gaussian",
        "--u", "uniform", "--k", "2", "--trials", "100000", "--seed", "1205",
    ],
    "chi2check64": [
        "chi2-check", "--widths", "64x16", "--p", "1", "--dist", "gaussian",
        "--u", "uniform", "--trials", "100000", "--seed", "1206",
    ],
    "jaccompare": [
        "jacobian-compare", "--widths", "8,16x3", "--dist", "gaussian",
        "--trials", "20000", "--seed", "1208",
    ],
    "jaccontrol": [
        "jacobian-compare", "--widths", "8,16x3", "--dist", "gaussian",
        "--trials", "20000", "--seed", "1208", "--product-p", "0.9",
    ],
}


@pytest.fixture(scope="session")
def artifacts(tmp_path_factory):
    """Run each CLI configuration once; later tests parse these files."""
    outdir = tmp_path_factory.mktemp("artifacts")
    results = {}
    for name, args in ARTIFACT_ARGS.items():
        path = outdir / f"{name}.csv"
        start = time.perf_counter()
        code = main(args + ["--threads", "1", "--output", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 0
        results[name] = {
            "path": path,
            "rows": read_rows(path),
            "elapsed": elapsed,
            "args": args,
        }
    return results


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for widths, p, law, u_name in small_instance_grid():
        cfg = EnsembleConfig(widths, p, law)
        u = build_u(u_name, widths[0])
        for k in (1, 2):
            exact = exact_moment(cfg, u, k)
            brute = brute_force_moment(cfg, u, k)
            assert isinstance(exact, F) and isinstance(brute, F)
            assert exact == brute, (widths, p, law, u_name, k, exact, brute)
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (oracle equivalence)",
        elapsed < 60.0,
        f"{checked} cases exactly equal in rational arithmetic, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_first_moment_identity():
    worst_exact = 0.0
    worst_sigma = 0.0
    seen = set()
    count = 0
    for widths, p, law, u_name in small_instance_grid():
        cfg = EnsembleConfig(widths, p, law)
        u = build_u(u_name, widths[0])
        exact = exact_moment(cfg, u, 1)
        worst_exact = max(worst_exact, abs(float(exact) - 1.0))
        assert abs(float(exact) - 1.0) <= 1e-12

        key = (widths, p, law, u_name)
        if key in seen:
            continue
        seen.add(key)
        batch = run_trials(cfg, u, 10_000, seed=77)
        estimate = empirical_moment(batch, 1)
        gap = abs(estimate.estimate - 1.0)
        # the 1e-12 absolute floor covers deterministic configs whose only
        # deviation is float roundoff (sample stderr is exactly zero there)
        assert gap <= 5 * estimate.stderr + 1e-12, (key, estimate)
        if estimate.stderr > 0:
            worst_sigma = max(worst_sigma, gap / estimate.stderr)
        count += 1
    report(
        "criterion 2 (first-moment identity)",
        True,
        f"{count} configs; max |exact-1| = {worst_exact:.1e}; "
        f"max empirical deviation {worst_sigma:.2f} of 5 allowed sigma",
    )


def test_criterion_03_chi_square_exactness():
    one_layer = exact_moment(EnsembleConfig((2, 2), 1, GAUSS), UnitVector.basis(2), 2)
    two_layer = exact_moment(EnsembleConfig((2, 2, 2), 1, GAUSS), UnitVector.basis(2), 2)
    report(
        "criterion 3 (chi-square exactness)",
        one_layer == 2 and two_layer == 4,
        f"d=1 gives {one_layer}, d=2 gives {two_layer} (exact rationals)",
    )


def test_criterion_04_deterministic_case():
    cfg = EnsembleConfig((2, 2), 1, RAD)
    u = UnitVector.basis(2)
    beta = compute_beta(cfg, u).beta
    batch = run_trials(cfg, u, 1000, seed=4)
    moments = [exact_moment(cfg, u, k) for k in range(1, 5)]
    ok = (
        beta == 0.0
        and batch.samples.size == 1000
        and bool(np.all(batch.samples == 0.0))
        and all(m == 1 for m in moments)
    )
    report(
        "criterion 4 (deterministic case)",
        ok,
        f"beta={beta}, all 1000 samples exactly 0, moments k=1..4 = {moments}",
    )


def test_criterion_05_moment_asymptotics(artifacts):
    run = artifacts["moments32"]
    row = run["rows"][0]
    beta = float(row["beta"])
    mc = float(row["monte_carlo"])
    target = math.exp(0.5)
    rel = abs(mc - target) / target
    ok = beta == pytest.approx(0.5) and rel <= 0.05 and run["elapsed"] < 120.0
    report(
        "criterion 5 (moment asymptotics)",
        ok,
        f"beta={beta:.3f}, MC fourth-power mean {mc:.4f} vs e^0.5={target:.4f} "
        f"({100 * rel:.2f}% off, 5% allowed), {run['elapsed']:.0f}s < 120s",
    )


def test_criterion_06_log_normality(artifacts):
    run = artifacts["chi2check64"]
    row = run["rows"][0]
    ks = float(row["ks_vs_normal"])
    mean = float(row["mean"])
    var = float(row["variance"])
    ok = (
        ks <= 0.02
        and abs(mean + 0.25) <= 0.02
        and abs(var - 0.5) <= 0.03
        and run["elapsed"] < 300.0
    )
    report(
        "criterion 6 (log-normality)",
        ok,
        f"KS vs Normal(-0.25, 0.5) = {ks:.4f} <= 0.02; mean {mean:.4f} in -0.25+-0.02; "
        f"variance {var:.4f} in 0.5+-0.03; {run['elapsed']:.0f}s < 300s",
    )


def test_criterion_07_exact_law_cross_check(artifacts):
    row = artifacts["chi2check64"]["rows"][0]
    stat = float(row["two_sample_ks"])
    report(
        "criterion 7 (chi-square cross-check)",
        stat <= 0.01,
        f"two-sample KS {stat:.4f} <= 0.01 at 1e5 samples per side "
        f"(5% critical {float(row['two_sample_critical']):.4f})",
    )


def test_criterion_08_jacobian_equivalence(artifacts):
    matched = float(artifacts["jaccompare"]["rows"][0]["ks_statistic"])
    control = float(artifacts["jaccontrol"]["rows"][0]["ks_statistic"])
    ok = matched <= 0.02 and control > 0.05
    report(
        "criterion 8 (Jacobian equivalence)",
        ok,
        f"matched-law KS {matched:.4f} <= 0.02; p=0.9 control KS {control:.4f} > 0.05",
    )


def test_criterion_09_finite_difference_jacobian():
    from matprod import ReluNetConfig

    eps, margin = 1e-6, 1e-4
    rng = np.random.default_rng(5150)
    checked, trial, worst = 0, 0, 0.0
    while checked < 50:
        trial += 1
        widths = tuple(int(w) for w in rng.integers(2, 9, size=int(rng.integers(2, 5))))
        cfg = ReluNetConfig(widths, weight_law=GAUSS)
        weights, biases = sample_network(cfg, 515, trial)
        x = rng.standard_normal(widths[0])
        out, pres = forward(weights, biases, x)
        if min(float(np.min(np.abs(p))) for p in pres) <= margin:
            continue
        direction = rng.standard_normal(widths[0])
        u = UnitVector(direction / np.linalg.norm(direction))
        fd = (forward(weights, biases, x + eps * u.coords)[0] - out) / eps
        ju = dense_jacobian(weights, biases, x) @ u.coords
        err = float(np.max(np.abs(fd - ju)))
        worst = max(worst, err)
        assert err <= 1e-5
        checked += 1
    report(
        "criterion 9 (finite-difference Jacobian)",
        True,
        f"50 nets, worst directional-derivative error {worst:.2e} <= 1e-5",
    )


def test_criterion_10_zero_event_statistics():
    cfg = EnsembleConfig((3, 3, 3, 3, 3), F(1, 2), GAUSS)
    n = 100_000
    batch = run_trials(cfg, UnitVector.uniform(3), n, seed=1210)
    q = zero_event_probability(cfg).probability
    tolerance = 4 * math.sqrt(q * (1 - q) / n)
    gap = abs(batch.zero_event_rate - q)
    report(
        "criterion 10 (zero-event statistics)",
        gap <= tolerance,
        f"frequency {batch.zero_event_rate:.5f} vs 1-(7/8)^4 = {q:.5f}, "
        f"|gap| {gap:.5f} <= {tolerance:.5f} (4 binomial se)",
    )


def test_criterion_11_determinism(artifacts, tmp_path, monkeypatch):
    mismatches = []
    monkeypatch.setenv("MATPROD_THREADS", "2")
    for name, run in artifacts.items():
        rerun_path = tmp_path / f"{name}.rerun.csv"
        args = [a for a in run["args"]] + ["--output", str(rerun_path)]
        # drop the explicit thread pin so the env variable governs the rerun
        code = main(args)
        assert code == 0
        if run["path"].read_bytes() != rerun_path.read_bytes():
            mismatches.append(name)
    report(
        "criterion 11 (determinism)",
        not mismatches,
        "criteria 5-8 artifacts byte-identical under MATPROD_THREADS=2"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
