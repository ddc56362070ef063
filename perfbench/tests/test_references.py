"""The benchmark's references against hand values, and its checks against
wrong results.

Run from the root of a checkout: ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

HALF = Fraction(1, 2)
EULER_GAMMA = 0.5772156649015329


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_one_full_layer_second_moment(n):
    # Z = chi2_n / n, so E[Z^2] = (n + 2) / n
    assert ref.gaussian_moment((5, n), 1, 2) == Fraction(n + 2, n)


def test_chi_square_exactness_values():
    assert ref.gaussian_moment((2, 2), 1, 2) == 2
    assert ref.gaussian_moment((2, 2, 2), 1, 2) == 4


@pytest.mark.parametrize("widths", [(8,) * 6, (64,) * 201, (3, 2, 3, 2), (1000,) * 121])
def test_first_moment_is_one(widths):
    assert ref.gaussian_moment(widths, HALF, 1) == 1


def test_zero_event_probability_value():
    assert ref.zero_event_probability((3,) * 5, HALF) == pytest.approx(1 - (7 / 8) ** 4, rel=1e-15)
    assert ref.zero_event_probability((64,) * 17, 1) == 0.0


def test_log_norm_of_one_exponential_layer():
    # chi2_2 / 2 is Exp(1): ln has mean -gamma and variance pi^2 / 6
    mean, var = ref.log_norm_mean_variance((4, 2), 1)
    assert mean == pytest.approx(-EULER_GAMMA, rel=1e-12)
    assert var == pytest.approx(math.pi**2 / 6, rel=1e-12)


def test_log_norm_mixture_at_depth_128():
    mean, var = ref.log_norm_mean_variance((16,) * 129, 0.5)
    assert mean == pytest.approx(-22.579, abs=5e-4)
    assert var == pytest.approx(53.71, abs=5e-3)


def test_rademacher_deterministic_case():
    # one full ±1 layer on e1: the column has squared norm 2 exactly, Z = 1
    law = ref.rademacher_law((2, 2), 1, "e1")
    assert law == {Fraction(1): Fraction(1)}


def test_rademacher_law_has_mean_one():
    for u in ("e1", "uniform"):
        law = ref.rademacher_law((3, 2, 3, 2), HALF, u)
        assert sum(law.values()) == 1
        assert ref.law_moment(law, 1) == 1


def test_widths_grammar():
    assert workloads._widths("128x8") == (128,) * 9
    assert workloads._widths("8,16x3") == (8, 16, 16, 16)
    assert workloads._widths("3,2,3,2") == (3, 2, 3, 2)


# ---------------------------------------------------------------------------
# the checks catch wrong results
# ---------------------------------------------------------------------------


def _moment_rows(want, b):
    return [
        {
            "k": str(k), "exact": repr(value), "brute_force": "",
            "monte_carlo": "", "mc_stderr": "", "theory": repr(math.exp(math.comb(k, 2) * b)),
            "beta": repr(b), "zero_event_rate": "0",
            "reason": "brute_force: over budget; monte_carlo: needs at least 2 trials",
        }
        for k, value in want.items()
    ]


def test_perturbed_exact_moment_is_caught():
    widths = (8,) * 6
    want = {k: float(ref.gaussian_moment(widths, HALF, k)) for k in (1, 3, 4)}
    b = ref.beta(widths, HALF, 3.0, 1.0)
    check = workloads.check_moments(widths, HALF, want, 1.0, 3.0)
    rows = _moment_rows(want, b)
    assert check(rows) == []
    rows[2]["exact"] = repr(math.nextafter(float(rows[2]["exact"]), math.inf))
    assert any("k=4 exact" in p for p in check(rows))


def test_refused_oracle_is_caught_where_required():
    widths, want = (3, 2, 3, 2), {1: 1.0}
    b = ref.beta(widths, HALF, 1.0, 1 / 3)
    rows = _moment_rows(want, b)
    assert workloads.check_moments(widths, HALF, want, 1 / 3, 1.0)(rows) == []
    assert workloads.check_moments(widths, HALF, want, 1 / 3, 1.0, need_brute=True)(rows)


def _simulate_row(widths, p, trials, shift_se=0.0, zeros=0):
    mean, var = ref.log_norm_mean_variance(widths, p)
    se_mean, _ = ref.sample_mean_variance_se(widths, p, trials - zeros)
    return {
        "trials": str(trials), "zero_events": str(zeros),
        "mean": repr(mean + shift_se * se_mean), "variance": repr(var),
        "beta": repr(ref.beta(widths, p, 3.0, 1.0 / widths[0])),
    }


def test_shifted_sample_mean_is_caught():
    widths = (16,) * 33
    check = workloads.check_simulate(widths, 0.5)
    assert check([_simulate_row(widths, 0.5, 8192, shift_se=4.0)]) == []
    assert any("mean" in p for p in check([_simulate_row(widths, 0.5, 8192, shift_se=6.0)]))


def test_excess_zero_events_are_caught():
    widths = (16,) * 33
    check = workloads.check_simulate(widths, 0.5)
    assert any("zero_events" in p for p in check([_simulate_row(widths, 0.5, 8192, zeros=40)]))


def test_ks_above_bound_is_caught():
    trials, zeros = 2000, 1
    crit = 1.358 * math.sqrt(2 / (trials - zeros))
    row = {"trials": str(trials), "jacobian_zero_events": str(zeros),
           "product_zero_events": str(zeros), "ks_statistic": repr(0.05),
           "critical_5pct": repr(crit)}
    check = workloads.check_jacobian((16,) * 33)
    assert check([row]) == []
    row["ks_statistic"] = repr(ref.ks_bound(crit) * 1.01)
    assert any("above the bound" in p for p in check([row]))


# ---------------------------------------------------------------------------
# the live program: the p = 0.9 product side must fail the checks
# ---------------------------------------------------------------------------


def _cli(*argv) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from matprod.cli import main; sys.exit(main())", *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return workloads.parse_csv(out.stdout)


needs_program = pytest.mark.skipif(
    not (ROOT / "src" / "matprod" / "cli.py").is_file(), reason="no program sources"
)


@needs_program
def test_relu_workload_passes_and_p09_control_fails():
    (op, _) = workloads.relu_gradients(seed=7, out=HERE / "out")
    assert op.check(_cli(*op.argv)) == []
    control = _cli(*op.argv, "--product-p", "0.9")
    problems = op.check(control)
    assert float(control[0]["ks_statistic"]) > 0.05
    assert any("ks_statistic" in p for p in problems)


@needs_program
def test_product_side_at_wrong_p_fails():
    (_, op) = workloads.relu_gradients(seed=7, out=HERE / "out")
    argv = list(op.argv)
    argv[argv.index("--p") + 1] = "0.9"
    assert any("mean" in p for p in op.check(_cli(*argv)))


# ---------------------------------------------------------------------------
# per-layer arithmetic
# ---------------------------------------------------------------------------


def _span(id_, name, parent, start, end, **attrs):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end, **attrs}


def test_self_time_and_propagate_time():
    trace = {
        "import_s": 0.25,
        "spans": [
            _span(0, "cli.run", None, 0.0, 10.0),
            _span(1, "montecarlo.run_trials", 0, 1.0, 7.0, trials=512),
            _span(2, "ksstats.summary", 0, 7.0, 7.5),
        ],
        "fine": [{"name": "distributions.sample", "parent": 1, "calls": 8, "total_s": 4.0}],
        "counts": {"montecarlo.draws": 1024.0, "montecarlo.draw_s@1": 4.5},
    }
    out = layers.round_metrics([trace], [trace])
    assert out["cli.self_s"] == pytest.approx(10.0 - 6.0 - 0.5)
    assert out["montecarlo.propagate_s"] == pytest.approx(6.0 - 4.5)
    assert out["montecarlo.draws_per_trial"] == pytest.approx(2.0)
    assert out["cli.import_s"] == 0.25


@needs_program
def test_float_route_check_holds_where_it_does_not_overflow(tmp_path):
    # exact_moments (d) at 20 layers: the float route ends and is checked as (d) would be
    u_file = tmp_path / "u.txt"
    u_l4 = workloads.write_u_file(u_file)
    widths = (1000,) * 21
    want = {4: float(ref.gaussian_moment(widths, HALF, 4))}
    rows = _cli("moments", "--widths", "1000x20", "--p", "0.5", "--u", str(u_file),
                "--k", "4", "--trials", "0")
    assert workloads.check_moments(widths, HALF, want, u_l4, 3.0, rel=1e-9)(rows) == []
