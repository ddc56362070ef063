"""Command-line experiment runner with CSV / JSON-lines output.

Subcommands
-----------
beta              closed-form variance parameter plus raw error-budget terms
simulate          Monte Carlo batch with summary statistics
moments           exact, brute-force, Monte Carlo and predicted moments side by side
ks-test           one-sample KS of a batch against its predicted normal law
chi2-check        product sampler against the chi-square product law (p=1 Gaussian)
jacobian-compare  ReLU-net Jacobian law against the masked product law

Flags override config-file values; every run with the same config and seed
writes byte-identical output for any MATPROD_THREADS setting.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .distributions import (
    DistributionSpec,
    discrete_symmetric,
    law_from_name,
)
from .ensemble import (
    Architecture,
    UnitVector,
    compute_beta,
    error_budget,
    make_config,
)
from .errors import BudgetExceeded, FloatRangeError, MatprodError, UsageError
from .ksstats import one_sample_critical_5pct, summary, two_sample_ks
from .montecarlo import (
    chi_square_product_sampler,
    empirical_moment,
    ks_to_gaussian,
    run_trials,
)
from .pathsum import brute_force_moment, exact_moment, theory_moment
from .relunets import (
    COMPARISON_MIN_TRIALS,
    ReluNetConfig,
    compare_jacobian_vs_product,
    default_input,
)

_SUBCOMMANDS = (
    "beta",
    "simulate",
    "moments",
    "ks-test",
    "chi2-check",
    "jacobian-compare",
)

DEFAULTS = {
    "trials": 100_000,
    "seed": 0,
    "u": "uniform",
    "format": "csv",
    "p": "1",
    "dist": "gaussian",
    "k": "1,2",
    "product_p": "0.5",
    "bias_scale": 1.0,
    "x": "ones",
}


@dataclass
class ExperimentConfig:
    subcommand: str
    widths: tuple[int, ...]
    p: Fraction
    dist: str
    dist_pairs: str | None
    u: str
    trials: int
    seed: int
    k: tuple[int, ...]
    output: str | None
    format: str
    assert_checks: bool = False
    tolerance: float | None = None
    threads: int | None = None
    product_p: Fraction = Fraction(1, 2)
    bias_scale: float = 1.0
    x: str = "ones"

    def fingerprint(self) -> str:
        payload = {
            "subcommand": self.subcommand,
            "widths": list(self.widths),
            "p": str(self.p),
            "dist": self.dist,
            "dist_pairs": self.dist_pairs,
            "u": self.u,
            "trials": self.trials,
            "seed": self.seed,
            "k": list(self.k),
            "product_p": str(self.product_p),
            "bias_scale": self.bias_scale,
            "x": self.x,
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def parse_widths(text: str) -> tuple[int, ...]:
    """Expand the width list; ``NxD`` appends D copies of N after the first width."""
    out: list[int] = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"--widths has an empty entry in {text!r}")
        if "x" in token:
            try:
                n_str, d_str = token.split("x")
                n, d = int(n_str), int(d_str)
            except ValueError:
                raise UsageError(f"--widths entry {token!r} is not N or NxD") from None
            if n < 1 or d < 1:
                raise UsageError(f"--widths entry {token!r} must be positive")
            if not out:
                out.append(n)
            out.extend([n] * d)
        else:
            try:
                n = int(token)
            except ValueError:
                raise UsageError(f"--widths entry {token!r} is not an integer") from None
            if n < 1:
                raise UsageError(f"--widths entry {token!r} must be positive")
            out.append(n)
    if len(out) < 2:
        raise UsageError("--widths needs at least an input and one layer width")
    return tuple(out)


def parse_probability(text, flag: str = "--p") -> Fraction:
    try:
        value = Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag} value {text!r} is not a number") from None
    if not 0 < value <= 1:
        raise UsageError(f"{flag} must be in (0, 1], got {text}")
    return value


def parse_k_list(text) -> tuple[int, ...]:
    try:
        ks = tuple(int(t) for t in str(text).split(","))
    except ValueError:
        raise UsageError(f"--k list {text!r} must be comma-separated integers") from None
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"--k entries must be >= 1, got {text!r}")
    return ks


def resolve_law(config: ExperimentConfig) -> DistributionSpec:
    if config.dist == "discrete":
        if not config.dist_pairs:
            raise UsageError("--dist discrete needs --dist-pairs value:prob,...")
        pairs = []
        for item in config.dist_pairs.split(","):
            try:
                v, p = item.split(":")
                pairs.append((Fraction(v), Fraction(p)))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"--dist-pairs entry {item!r} is not value:prob") from None
        try:
            return discrete_symmetric(pairs)
        except MatprodError as exc:
            raise UsageError(f"--dist-pairs invalid law: {exc}") from None
    try:
        return law_from_name(config.dist)
    except ValueError:
        raise UsageError(
            f"--dist must be one of gaussian, rademacher, uniform, discrete; got {config.dist!r}"
        ) from None


def resolve_u(spec: str, dim: int) -> UnitVector:
    if spec == "e1":
        return UnitVector.basis(dim)
    if spec == "uniform":
        return UnitVector.uniform(dim)
    try:
        coords = np.loadtxt(spec, dtype=np.float64).reshape(-1)
    except OSError:
        raise UsageError(f"--u must be e1, uniform, or a readable file; got {spec!r}") from None
    if coords.size != dim:
        raise UsageError(f"--u file has {coords.size} coordinates, architecture needs {dim}")
    nrm = float(np.sqrt(coords @ coords))
    if nrm == 0.0:
        raise UsageError("--u file holds the zero vector")
    return UnitVector.from_coords(coords / nrm)


def resolve_x(spec: str, dim: int) -> np.ndarray:
    if spec == "ones":
        return default_input(dim)
    if spec == "e1":
        x = np.zeros(dim)
        x[0] = 1.0
        return x
    try:
        x = np.loadtxt(spec, dtype=np.float64).reshape(-1)
    except OSError:
        raise UsageError(f"--x must be ones, e1, or a readable file; got {spec!r}") from None
    if x.size != dim:
        raise UsageError(f"--x file has {x.size} coordinates, architecture needs {dim}")
    if not np.any(x):
        raise UsageError("--x must be nonzero")
    return x


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matprod",
        description="Masked random-matrix product laboratory",
    )
    parser.add_argument("--version", action="version", version=f"matprod {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON file with flag defaults")
        sp.add_argument("--widths", help="comma list, NxD appends D copies of N")
        sp.add_argument("--p", help="mask probability in (0,1]")
        sp.add_argument("--dist", help="gaussian | rademacher | uniform | discrete")
        sp.add_argument("--dist-pairs", dest="dist_pairs", help="value:prob,... for --dist discrete")
        sp.add_argument("--u", help="e1 | uniform | coordinate file")
        sp.add_argument("--trials", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--k", help="comma list of moment orders")
        sp.add_argument("--output", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--assert", dest="assert_checks", action="store_true",
                        help="exit 1 when the subcommand's check fails")
        sp.add_argument("--tolerance", type=float, help="override the --assert threshold")
        sp.add_argument("--threads", type=int, help="worker threads (default MATPROD_THREADS)")
        if name == "jacobian-compare":
            sp.add_argument("--product-p", dest="product_p", help="mask probability of the product side")
            sp.add_argument("--bias-scale", dest="bias_scale", type=float)
            sp.add_argument("--x", help="ones | e1 | coordinate file")
    return parser


def parse_config(argv, config_file: str | None = None) -> ExperimentConfig:
    """Parse flags (and an optional JSON config file) into an ExperimentConfig.

    Precedence: command-line flags, then config-file entries, then defaults.
    """
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    values = dict(DEFAULTS)
    explicit = {k: v for k, v in vars(namespace).items() if k != "config"}
    file_path = getattr(namespace, "config", None) or config_file
    if file_path:
        try:
            with open(file_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"--config {file_path!r} unreadable: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"--config {file_path!r} must hold a JSON object")
        for key, val in loaded.items():
            values[key.replace("-", "_")] = val
    values.update(explicit)

    if "widths" not in values or values["widths"] in (None, ""):
        raise UsageError("--widths is required")
    try:
        trials = int(values["trials"])
    except (TypeError, ValueError):
        raise UsageError(f"--trials must be an integer, got {values['trials']!r}") from None
    if trials < 0:
        raise UsageError(f"--trials must be >= 0, got {trials}")
    fmt = values["format"]
    if fmt not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {fmt!r}")
    try:
        bias_scale = float(values["bias_scale"])
    except (TypeError, ValueError):
        raise UsageError(f"--bias-scale must be a number, got {values['bias_scale']!r}") from None
    if not bias_scale > 0.0:
        raise UsageError(f"--bias-scale must be positive, got {values['bias_scale']!r}")

    return ExperimentConfig(
        subcommand=values["subcommand"],
        widths=parse_widths(values["widths"]),
        p=parse_probability(values["p"], "--p"),
        dist=str(values["dist"]),
        dist_pairs=values.get("dist_pairs"),
        u=str(values["u"]),
        trials=trials,
        seed=int(values["seed"]),
        k=parse_k_list(values["k"]),
        output=values.get("output"),
        format=fmt,
        assert_checks=bool(values.get("assert_checks", False)),
        tolerance=values.get("tolerance"),
        threads=values.get("threads"),
        product_p=parse_probability(values.get("product_p", "0.5"), "--product-p"),
        bias_scale=bias_scale,
        x=str(values.get("x", "ones")),
    )


def _fmt(value) -> str:
    """Numbers with 17 significant digits; None becomes the empty field."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _checked_double(value, k: int):
    """The k-th moment unchanged, or FloatRangeError if it has no finite double."""
    try:
        float(value)
    except OverflowError:
        exponent = math.floor(math.log10(abs(value.numerator)) - math.log10(value.denominator))
        raise FloatRangeError(f"E[Z^{k}] ~ 1e{exponent} is outside double precision") from None
    return value


def _write_rows(config: ExperimentConfig, columns, rows) -> str:
    meta = f"fingerprint={config.fingerprint()} seed={config.seed} version={__version__}"
    if config.format == "csv":
        buf = io.StringIO()
        buf.write(f"# {meta}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        return buf.getvalue()
    lines = [
        json.dumps(
            {
                "fingerprint": config.fingerprint(),
                "seed": config.seed,
                "version": __version__,
            },
            sort_keys=True,
        )
    ]
    for row in rows:
        parts = []
        for c in columns:
            v = row.get(c)
            if v is None:
                rendered = "null"
            elif isinstance(v, bool):
                rendered = "true" if v else "false"
            elif isinstance(v, (int, np.integer)):
                rendered = str(int(v))
            elif isinstance(v, (float, np.floating, Fraction)):
                rendered = format(float(v), ".17g")
            else:
                rendered = json.dumps(str(v))
            parts.append(f"{json.dumps(c)}: {rendered}")
        lines.append("{" + ", ".join(parts) + "}")
    return "\n".join(lines) + "\n"


def _emit(config: ExperimentConfig, text: str) -> None:
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_beta(config: ExperimentConfig):
    law = resolve_law(config)
    ens = make_config(config.widths, config.p, law)
    u = resolve_u(config.u, config.widths[0])
    params = compute_beta(ens, u)
    budget = error_budget(ens, u)
    columns = [
        "beta", "term_width", "term_fourth", "sum_inv_sq_widths",
        "ks_linear_term", "ks_fifth_root_term", "ks_sqrt_term", "mask_term",
    ]
    rows = [{
        "beta": params.beta,
        "term_width": params.term_width,
        "term_fourth": params.term_fourth,
        "sum_inv_sq_widths": budget.sum_inv_sq_widths,
        "ks_linear_term": budget.linear_term,
        "ks_fifth_root_term": budget.fifth_root_term,
        "ks_sqrt_term": budget.sqrt_term,
        "mask_term": budget.mask_term,
    }]
    return columns, rows, True


def _run_simulate(config: ExperimentConfig):
    law = resolve_law(config)
    ens = make_config(config.widths, config.p, law)
    u = resolve_u(config.u, config.widths[0])
    batch = run_trials(ens, u, config.trials, config.seed, threads=config.threads)
    params = compute_beta(ens, u)
    row = {
        "trials": batch.trials,
        "zero_events": batch.zero_event_count,
        "zero_event_rate": batch.zero_event_rate,
        "beta": params.beta,
        "predicted_mean": params.predicted_mean,
        "predicted_variance": params.predicted_variance,
    }
    if batch.samples.size >= 2:
        stats = summary(batch.samples)
        row.update(
            mean=stats.mean,
            variance=stats.variance,
            skewness=stats.skewness,
            q05=stats.quantiles[0.05],
            q25=stats.quantiles[0.25],
            q50=stats.quantiles[0.5],
            q75=stats.quantiles[0.75],
            q95=stats.quantiles[0.95],
            reason=None,
        )
    else:
        row["reason"] = "fewer than two surviving samples"
    columns = [
        "trials", "zero_events", "zero_event_rate", "mean", "variance", "skewness",
        "q05", "q25", "q50", "q75", "q95", "beta", "predicted_mean",
        "predicted_variance", "reason",
    ]
    return columns, [row], True


def _run_moments(config: ExperimentConfig):
    law = resolve_law(config)
    ens = make_config(config.widths, config.p, law)
    u = resolve_u(config.u, config.widths[0])
    params = compute_beta(ens, u)
    batch = run_trials(ens, u, config.trials, config.seed, threads=config.threads)
    columns = [
        "k", "exact", "brute_force", "monte_carlo", "mc_stderr", "theory",
        "beta", "zero_event_rate", "reason",
    ]
    rows = []
    ok = True
    for k in config.k:
        reasons = []
        exact = brute = theory = None
        try:
            exact = _checked_double(exact_moment(ens, u, k), k)
        except (BudgetExceeded, FloatRangeError) as exc:
            reasons.append(f"exact: {exc}")
        try:
            brute = _checked_double(brute_force_moment(ens, u, k), k)
        except (BudgetExceeded, FloatRangeError) as exc:
            reasons.append(f"brute_force: {exc}")
        try:
            theory = theory_moment(params, k)
        except FloatRangeError as exc:
            reasons.append(f"theory: {exc}")
        estimate = None
        if batch.trials >= 2:
            estimate = empirical_moment(batch, k)
        else:
            reasons.append("monte_carlo: needs at least 2 trials")
        row = {
            "k": k,
            "exact": exact,
            "brute_force": brute,
            "monte_carlo": estimate.estimate if estimate else None,
            "mc_stderr": estimate.stderr if estimate else None,
            "theory": theory,
            "beta": params.beta,
            "zero_event_rate": batch.zero_event_rate,
            "reason": "; ".join(reasons) if reasons else None,
        }
        rows.append(row)
        if exact is not None and brute is not None:
            if exact != brute and abs(float(exact) - float(brute)) > 1e-10 * abs(float(exact)):
                ok = False
        if exact is not None and estimate is not None and estimate.stderr > 0:
            if abs(estimate.estimate - float(exact)) > 5 * estimate.stderr:
                ok = False
    return columns, rows, ok


def _run_ks_test(config: ExperimentConfig):
    law = resolve_law(config)
    ens = make_config(config.widths, config.p, law)
    u = resolve_u(config.u, config.widths[0])
    params = compute_beta(ens, u)
    batch = run_trials(ens, u, config.trials, config.seed, threads=config.threads)
    stat = ks_to_gaussian(batch, params.predicted_mean, params.predicted_variance)
    critical = one_sample_critical_5pct(batch.samples.size)
    threshold = config.tolerance if config.tolerance is not None else critical
    columns = [
        "trials", "samples", "zero_events", "beta", "ref_mean", "ref_variance",
        "ks_statistic", "critical_5pct", "threshold",
    ]
    rows = [{
        "trials": batch.trials,
        "samples": batch.samples.size,
        "zero_events": batch.zero_event_count,
        "beta": params.beta,
        "ref_mean": params.predicted_mean,
        "ref_variance": params.predicted_variance,
        "ks_statistic": stat,
        "critical_5pct": critical,
        "threshold": threshold,
    }]
    return columns, rows, stat <= threshold


def _run_chi2_check(config: ExperimentConfig):
    if config.dist != "gaussian" or config.p != 1:
        raise UsageError("chi2-check requires --dist gaussian and --p 1")
    law = resolve_law(config)
    ens = make_config(config.widths, config.p, law)
    u = resolve_u(config.u, config.widths[0])
    params = compute_beta(ens, u)
    product = run_trials(ens, u, config.trials, config.seed, threads=config.threads)
    reference = chi_square_product_sampler(
        config.widths[1:], config.trials, config.seed, threads=config.threads
    )
    report = two_sample_ks(product.samples, reference.samples)
    ks_normal = ks_to_gaussian(product, params.predicted_mean, params.predicted_variance)
    stats = summary(product.samples)
    threshold = config.tolerance if config.tolerance is not None else report.critical_5pct
    columns = [
        "trials", "zero_events", "two_sample_ks", "two_sample_critical",
        "ks_vs_normal", "one_sample_critical", "mean", "variance", "skewness",
        "beta", "threshold",
    ]
    rows = [{
        "trials": config.trials,
        "zero_events": product.zero_event_count,
        "two_sample_ks": report.statistic,
        "two_sample_critical": report.critical_5pct,
        "ks_vs_normal": ks_normal,
        "one_sample_critical": one_sample_critical_5pct(product.samples.size),
        "mean": stats.mean,
        "variance": stats.variance,
        "skewness": stats.skewness,
        "beta": params.beta,
        "threshold": threshold,
    }]
    return columns, rows, report.statistic <= threshold


def _run_jacobian_compare(config: ExperimentConfig):
    if config.trials < COMPARISON_MIN_TRIALS:
        raise UsageError(
            f"jacobian-compare needs --trials >= {COMPARISON_MIN_TRIALS}, got {config.trials}"
        )
    law = resolve_law(config)
    if not law.atomless:
        raise UsageError("jacobian-compare needs an atomless --dist")
    arch = Architecture(config.widths)
    net_config = ReluNetConfig(
        architecture=arch,
        weight_law=law,
        bias_scale=config.bias_scale,
        seed=config.seed,
    )
    u = resolve_u(config.u, config.widths[0])
    x = resolve_x(config.x, config.widths[0])
    comparison = compare_jacobian_vs_product(
        net_config,
        trials=config.trials,
        seed=config.seed,
        x=x,
        u=u,
        product_p=config.product_p,
        threads=config.threads,
    )
    report = comparison.ks
    threshold = config.tolerance if config.tolerance is not None else report.critical_5pct
    columns = [
        "trials", "ks_statistic", "critical_5pct", "jacobian_zero_events",
        "product_zero_events", "product_p", "threshold",
    ]
    rows = [{
        "trials": config.trials,
        "ks_statistic": report.statistic,
        "critical_5pct": report.critical_5pct,
        "jacobian_zero_events": comparison.jacobian_batch.zero_event_count,
        "product_zero_events": comparison.product_batch.zero_event_count,
        "product_p": float(config.product_p),
        "threshold": threshold,
    }]
    return columns, rows, report.statistic <= threshold


_RUNNERS = {
    "beta": _run_beta,
    "simulate": _run_simulate,
    "moments": _run_moments,
    "ks-test": _run_ks_test,
    "chi2-check": _run_chi2_check,
    "jacobian-compare": _run_jacobian_compare,
}


def run(config: ExperimentConfig) -> int:
    """Execute the experiment; returns the process exit status."""
    columns, rows, ok = _RUNNERS[config.subcommand](config)
    _emit(config, _write_rows(config, columns, rows))
    if config.assert_checks and not ok:
        return 1
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except UsageError as exc:
        print(f"matprod: error: {exc}", file=sys.stderr)
        return 2
    except MatprodError as exc:
        print(f"matprod: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
