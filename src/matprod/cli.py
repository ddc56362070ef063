"""Command-line experiment runner with CSV / JSON-lines output.

Subcommands
-----------
beta              closed-form variance parameter plus raw error-budget terms
simulate          Monte Carlo batch with summary statistics
moments           exact, brute-force, Monte Carlo and predicted moments side by side
ks-test           one-sample KS of a batch against its predicted normal law
chi2-check        product sampler against the chi-square product law (p=1 Gaussian)
jacobian-compare  ReLU-net Jacobian law against the masked product law

Each subcommand accepts only the flags it reads (the table ``_RUNNERS``),
and its ``--config`` file may set only those: a flag the subcommand would
ignore is an error, not a no-op.  Flags override config-file values.
Config-file keys are flag names, and every value, flag or file entry, goes
through that flag's one converter, so a bad value or a key the subcommand
does not read is a usage error (exit 2).  Every run with the same config
and seed writes byte-identical output for any MATPROD_THREADS setting.

Exit status: 0 when the run completes, 1 when an ``--assert`` check fails,
2 on any error (a bad input or a refused request), with one
``matprod: error:`` line on stderr.  ``moments`` also prints one
``matprod: warning:`` line for each k whose comb(k, 2) reaches the smallest
layer width, where the log-normal prediction in its ``theory`` column is
unreliable; the exact moments hold for every k.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .distributions import (
    DistributionSpec,
    discrete_symmetric,
    law_from_name,
)
from .ensemble import EnsembleConfig, UnitVector, compute_beta, error_budget, to_double
from .errors import BudgetExceeded, FloatRangeError, MatprodError, UsageError
from .pathsum import brute_force_moment, exact_moment, theory_moment

# numpy and the samplers load inside the subcommands that use them, so that
# beta and moments --trials 0 start without them.
if TYPE_CHECKING:
    import numpy as np

# ExperimentConfig fields that set where and how a run reports, not what it
# computes; the fingerprint leaves them out.
_RUN_ONLY = ("output", "format", "assert_checks", "tolerance", "threads")


@dataclass
class ExperimentConfig:
    """One run's settings; the field defaults are the CLI defaults."""

    subcommand: str
    widths: tuple[int, ...]
    p: Fraction = Fraction(1)
    dist: str = "gaussian"
    dist_pairs: str | None = None
    u: str = "uniform"
    trials: int = 100_000
    seed: int = 0
    k: tuple[int, ...] = (1, 2)
    output: str | None = None
    format: str = "csv"
    assert_checks: bool = False
    tolerance: float | None = None
    threads: int | None = None
    product_p: Fraction = Fraction(1, 2)
    bias_scale: float = 1.0
    x: str = "ones"

    def fingerprint(self) -> str:
        """The run's identity: a hash of every field that can change its rows."""
        payload = asdict(self)
        for name in _RUN_ONLY:
            del payload[name]
        blob = json.dumps(payload, sort_keys=True, default=str)
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
    # the samplers compare uniforms with float(p) and divide by p * n
    if value < sys.float_info.min:
        raise UsageError(
            f"{flag} must be at least the smallest normal double "
            f"{sys.float_info.min!r}, got {text}"
        )
    return value


def parse_k_list(text) -> tuple[int, ...]:
    try:
        ks = tuple(int(t) for t in str(text).split(","))
    except ValueError:
        raise UsageError(f"--k list {text!r} must be comma-separated integers") from None
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"--k entries must be >= 1, got {text!r}")
    return ks


def _integer(flag: str, minimum: int):
    """Converter to an int >= minimum, from flag text or a JSON integer."""

    def convert(value) -> int:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            try:
                n = int(value)
            except ValueError:
                pass
            else:
                if n < minimum:
                    raise UsageError(f"{flag} must be >= {minimum}, got {n}")
                return n
        raise UsageError(f"{flag} must be an integer, got {value!r}")

    return convert


def _real(flag: str, positive: bool = False):
    """Converter to a finite float, > 0 if positive and otherwise >= 0, from
    flag text or a JSON number."""
    bound = "> 0" if positive else ">= 0"

    def convert(value) -> float:
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            try:
                x = float(value)
            except (ValueError, OverflowError):
                pass
            else:
                if not ((x > 0.0 if positive else x >= 0.0) and x < math.inf):
                    raise UsageError(f"{flag} must be a finite number {bound}, got {value!r}")
                return x
        raise UsageError(f"{flag} must be a number, got {value!r}")

    return convert


def _output_format(value) -> str:
    if value not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {value!r}")
    return value


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise UsageError(f"--assert takes true or false in a config file, got {value!r}")
    return value


def _optional(convert):
    """A converter that keeps a config file's null as "not given"."""
    return lambda value: None if value is None else convert(value)


# flag -> (ExperimentConfig field, converter, help).  Flag values arrive as
# text and config-file values as JSON; both pass through the same converter.
_OPTIONS = {
    "--widths": ("widths", parse_widths, "comma list, NxD appends D copies of N"),
    "--p": ("p", parse_probability, "mask probability in (0,1]"),
    "--dist": ("dist", str, "gaussian | rademacher | uniform | discrete"),
    "--dist-pairs": ("dist_pairs", _optional(str), "value:prob,... for --dist discrete"),
    "--u": ("u", str, "e1 | uniform | coordinate file"),
    "--trials": ("trials", _integer("--trials", 0), None),
    "--seed": ("seed", _integer("--seed", 0), None),
    "--k": ("k", parse_k_list, "comma list of moment orders"),
    "--output": ("output", _optional(str), "output path (default stdout)"),
    "--format": ("format", _output_format, "csv | json"),
    "--assert": ("assert_checks", _switch, "exit 1 when the subcommand's check fails"),
    "--tolerance": ("tolerance", _optional(_real("--tolerance")),
                    "override the --assert threshold"),
    "--threads": ("threads", _optional(_integer("--threads", 1)),
                  "worker threads (default MATPROD_THREADS)"),
    "--product-p": ("product_p", lambda v: parse_probability(v, "--product-p"),
                    "mask probability of the product side"),
    "--bias-scale": ("bias_scale", _real("--bias-scale", positive=True), None),
    "--x": ("x", str, "ones | e1 | coordinate file"),
}
# Fewest trials per side that jacobian-compare accepts.
_JACOBIAN_MIN_TRIALS = 100
_CONVERTERS = {field: convert for field, convert, _ in _OPTIONS.values()}


def resolve_law(config: ExperimentConfig) -> DistributionSpec:
    if config.dist_pairs is not None and config.dist != "discrete":
        raise UsageError("--dist-pairs needs --dist discrete")
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


def _load_coords(spec: str, dim: int, flag: str, names: str) -> list[float]:
    """The coordinates in file spec: dim finite numbers, not all zero.

    Tokens are separated by whitespace and ``#`` starts a comment.
    """
    try:
        with open(spec, encoding="utf-8") as fh:
            coords = [float(token) for line in fh for token in line.split("#")[0].split()]
    except (OSError, ValueError):
        raise UsageError(
            f"{flag} must be {names}, or a readable coordinate file; got {spec!r}"
        ) from None
    if len(coords) != dim:
        raise UsageError(f"{flag} file has {len(coords)} coordinates, architecture needs {dim}")
    if not (all(map(math.isfinite, coords)) and any(coords)):
        raise UsageError(f"{flag} file must hold finite coordinates, not all zero")
    return coords


def resolve_u(spec: str, dim: int) -> UnitVector:
    if spec == "e1":
        return UnitVector.basis(dim)
    if spec == "uniform":
        return UnitVector.uniform(dim)
    coords = _load_coords(spec, dim, "--u", "e1, uniform")
    try:
        nrm = math.sqrt(math.fsum(c * c for c in coords))
    except OverflowError:
        nrm = math.inf
    if not 0.0 < nrm < math.inf:
        raise UsageError(f"--u file norm {nrm} is outside double precision")
    return UnitVector([c / nrm for c in coords])


def resolve_x(spec: str, dim: int) -> np.ndarray:
    import numpy as np

    from .relunets import default_input

    if spec == "ones":
        return default_input(dim)
    if spec == "e1":
        x = np.zeros(dim)
        x[0] = 1.0
        return x
    return np.array(_load_coords(spec, dim, "--x", "ones, e1"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matprod",
        description="Masked random-matrix product laboratory",
    )
    parser.add_argument("--version", action="version", version=f"matprod {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, reads) in _RUNNERS.items():
        # no abbreviations: --p would otherwise stand for --product-p
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        sp.add_argument("--config", help="JSON file with flag defaults")
        for flag in reads:
            field, _, help_text = _OPTIONS[flag]
            action = "store_true" if flag == "--assert" else "store"
            sp.add_argument(flag, dest=field, action=action, help=help_text)
    return parser


def _read_config_file(path: str, subcommand: str) -> dict:
    """The file's entries keyed by ExperimentConfig field; keys are names of
    flags the subcommand reads."""
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"--config {path!r} unreadable: {exc}") from None
    if not isinstance(loaded, dict):
        raise UsageError(f"--config {path!r} must hold a JSON object")
    reads = _RUNNERS[subcommand][1]
    values = {}
    for key, value in loaded.items():
        flag = "--" + key.replace("_", "-")
        if flag not in reads:
            raise UsageError(
                f"--config {path!r} has key {key!r}, which {subcommand} does not read"
            )
        values[_OPTIONS[flag][0]] = value
    return values


def parse_config(argv) -> ExperimentConfig:
    """Parse flags (and a ``--config`` JSON file) into an ExperimentConfig.

    Precedence: command-line flags, then config-file entries, then defaults.
    Each given value, flag or file entry, passes through its flag's converter.
    """
    values = vars(_build_parser().parse_args(argv))
    subcommand = values.pop("subcommand")
    file_path = values.pop("config", None)
    if file_path:
        values = {**_read_config_file(file_path, subcommand), **values}
    if values.get("widths") in (None, ""):
        raise UsageError("--widths is required")
    return ExperimentConfig(
        subcommand, **{field: _CONVERTERS[field](value) for field, value in values.items()}
    )


def _fmt(value) -> str:
    """Numbers with 17 significant digits; None becomes the empty field."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, numbers.Real):
        return format(float(value), ".17g")
    return str(value)


def _json_value(value) -> str:
    """The _fmt text as JSON: null, a bare number or boolean, or a string.

    JSON has no literal for a non-finite float, so it keeps its CSV text
    ("inf", "-inf", "nan") as a string.
    """
    if value is None:
        return "null"
    text = _fmt(value)
    if isinstance(value, str) or text in ("inf", "-inf", "nan"):
        return json.dumps(text)
    return text


def _checked_double(value, k: int):
    """The k-th moment unchanged, or FloatRangeError if it has no finite double."""
    to_double(value, f"E[Z^{k}]")
    return value


def _write_rows(config: ExperimentConfig, rows) -> str:
    """The run's provenance line, then its rows; the first row's keys name
    the columns, in output order."""
    meta = {"fingerprint": config.fingerprint(), "seed": config.seed, "version": __version__}
    if config.format == "csv":
        buf = io.StringIO()
        buf.write("# " + " ".join(f"{key}={value}" for key, value in meta.items()) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_fmt(value) for value in row.values()])
        return buf.getvalue()
    lines = [json.dumps(meta)]
    for row in rows:
        fields = (f"{json.dumps(key)}: {_json_value(value)}" for key, value in row.items())
        lines.append("{" + ", ".join(fields) + "}")
    return "\n".join(lines) + "\n"


def _ensemble(config: ExperimentConfig):
    """The run's EnsembleConfig (entry law, widths, p) and starting vector u."""
    ens = EnsembleConfig(config.widths, config.p, resolve_law(config))
    return ens, resolve_u(config.u, config.widths[0])


def _run_beta(config: ExperimentConfig):
    ens, u = _ensemble(config)
    params = compute_beta(ens, u)
    budget = error_budget(ens, u)
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
    return rows, True


def _run_simulate(config: ExperimentConfig):
    from .ksstats import summary
    from .montecarlo import run_trials

    ens, u = _ensemble(config)
    batch = run_trials(ens, u, config.trials, config.seed, threads=config.threads)
    params = compute_beta(ens, u)
    stats = summary(batch.samples) if batch.samples.size >= 2 else None
    quantiles = stats.quantiles if stats else {}
    rows = [{
        "trials": batch.trials,
        "zero_events": batch.zero_event_count,
        "zero_event_rate": batch.zero_event_rate,
        "mean": stats.mean if stats else None,
        "variance": stats.variance if stats else None,
        "skewness": stats.skewness if stats else None,
        "q05": quantiles.get(0.05),
        "q25": quantiles.get(0.25),
        "q50": quantiles.get(0.5),
        "q75": quantiles.get(0.75),
        "q95": quantiles.get(0.95),
        "beta": params.beta,
        "predicted_mean": params.predicted_mean,
        "predicted_variance": params.predicted_variance,
        "reason": None if stats else "fewer than two surviving samples",
    }]
    return rows, True


def _run_moments(config: ExperimentConfig):
    ens, u = _ensemble(config)
    params = compute_beta(ens, u)
    batch = None
    mc_reason = "monte_carlo: needs at least 2 trials"
    if config.trials >= 2:
        from .montecarlo import empirical_moment, run_trials

        try:
            batch = run_trials(ens, u, config.trials, config.seed, threads=config.threads)
        except BudgetExceeded as exc:
            mc_reason = f"monte_carlo: {exc}"
    min_width = min(config.widths[1:])
    rows = []
    ok = True
    for k in config.k:
        if math.comb(k, 2) >= min_width:
            print(
                f"matprod: warning: k={k} has comb(k,2)={math.comb(k, 2)} >= min width "
                f"{min_width}; the log-normal moment prediction is unreliable here "
                "(the exact value is still exact)",
                file=sys.stderr,
            )
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
            theory = theory_moment(params.beta, k)
        except FloatRangeError as exc:
            reasons.append(f"theory: {exc}")
        estimate = None
        if batch is not None:
            estimate = empirical_moment(batch, k)
        else:
            reasons.append(mc_reason)
        row = {
            "k": k,
            "exact": exact,
            "brute_force": brute,
            "monte_carlo": estimate.estimate if estimate else None,
            "mc_stderr": estimate.stderr if estimate else None,
            "theory": theory,
            "beta": params.beta,
            "zero_event_rate": batch.zero_event_rate if batch else None,
            "reason": "; ".join(reasons) if reasons else None,
        }
        rows.append(row)
        if exact is not None and brute is not None and exact != brute:
            ok = False
        if exact is not None and estimate is not None and estimate.stderr > 0:
            if abs(estimate.estimate - float(exact)) > 5 * estimate.stderr:
                ok = False
    return rows, ok


def _run_ks_test(config: ExperimentConfig):
    from .ksstats import one_sample_ks
    from .montecarlo import run_trials

    ens, u = _ensemble(config)
    params = compute_beta(ens, u)
    if params.beta <= 0.0:
        # the limit is then a point mass, and the KS sup is exact only
        # against a continuous reference
        raise UsageError(f"ks-test needs beta > 0, got beta = {params.beta:.6g}")
    batch = run_trials(ens, u, config.trials, config.seed, threads=config.threads)
    report = one_sample_ks(batch.samples, params.cdf)
    threshold = config.tolerance if config.tolerance is not None else report.critical_5pct
    rows = [{
        "trials": batch.trials,
        "samples": batch.samples.size,
        "zero_events": batch.zero_event_count,
        "beta": params.beta,
        "ref_mean": params.predicted_mean,
        "ref_variance": params.predicted_variance,
        "ks_statistic": report.statistic,
        "critical_5pct": report.critical_5pct,
        "threshold": threshold,
    }]
    return rows, report.statistic <= threshold


def _run_chi2_check(config: ExperimentConfig):
    if config.dist != "gaussian" or config.p != 1:
        raise UsageError("chi2-check requires --dist gaussian and --p 1")
    from .ksstats import one_sample_ks, summary, two_sample_ks
    from .montecarlo import chi_square_product_sampler, run_trials

    ens, u = _ensemble(config)
    params = compute_beta(ens, u)
    product = run_trials(ens, u, config.trials, config.seed, threads=config.threads)
    reference = chi_square_product_sampler(
        config.widths[1:], config.trials, config.seed, threads=config.threads
    )
    report = two_sample_ks(product.samples, reference.samples)
    ks_normal = one_sample_ks(product.samples, params.cdf)
    stats = summary(product.samples)
    threshold = config.tolerance if config.tolerance is not None else report.critical_5pct
    rows = [{
        "trials": config.trials,
        "zero_events": product.zero_event_count,
        "two_sample_ks": report.statistic,
        "two_sample_critical": report.critical_5pct,
        "ks_vs_normal": ks_normal.statistic,
        "one_sample_critical": ks_normal.critical_5pct,
        "mean": stats.mean,
        "variance": stats.variance,
        "skewness": stats.skewness,
        "beta": params.beta,
        "threshold": threshold,
    }]
    return rows, report.statistic <= threshold


def _run_jacobian_compare(config: ExperimentConfig):
    if config.trials < _JACOBIAN_MIN_TRIALS:
        raise UsageError(
            f"jacobian-compare needs --trials >= {_JACOBIAN_MIN_TRIALS}, got {config.trials}"
        )
    from .ksstats import two_sample_ks
    from .montecarlo import check_draws, product_draws, run_trials
    from .relunets import ReluNetConfig, jacobian_batch, jacobian_draws

    ens, u = _ensemble(config)
    net = ReluNetConfig(ens.widths, ens.entry_law, config.bias_scale)
    x = resolve_x(config.x, config.widths[0])
    # the product side: same widths and law; --product-p away from 1/2 is a
    # negative control
    product = EnsembleConfig(ens.widths, config.product_p, ens.entry_law)
    draws = jacobian_draws(net, config.trials) + product_draws(product, u, config.trials)
    check_draws(draws, "Jacobian comparison")
    jac_batch = jacobian_batch(net, config.trials, config.seed, x, u, threads=config.threads)
    product_batch = run_trials(product, u, config.trials, config.seed, threads=config.threads)
    report = two_sample_ks(jac_batch.samples, product_batch.samples)
    threshold = config.tolerance if config.tolerance is not None else report.critical_5pct
    rows = [{
        "trials": config.trials,
        "ks_statistic": report.statistic,
        "critical_5pct": report.critical_5pct,
        "jacobian_zero_events": jac_batch.zero_event_count,
        "product_zero_events": product_batch.zero_event_count,
        "product_p": float(config.product_p),
        "threshold": threshold,
    }]
    return rows, report.statistic <= threshold


_LAW = ("--widths", "--p", "--dist", "--dist-pairs", "--u")
_SAMPLE = ("--trials", "--seed", "--threads")
_REPORT = ("--output", "--format")
_CHECK = ("--assert", "--tolerance")

# subcommand -> (runner, the flags it reads besides --config).  Its parser
# registers these flags alone and its config file may set these keys alone.
_RUNNERS = {
    "beta": (_run_beta, _LAW + _REPORT),
    "simulate": (_run_simulate, _LAW + _SAMPLE + _REPORT),
    "moments": (_run_moments, _LAW + _SAMPLE + ("--k",) + _REPORT + ("--assert",)),
    "ks-test": (_run_ks_test, _LAW + _SAMPLE + _REPORT + _CHECK),
    # the law is fixed: --dist gaussian and --p 1 are all it accepts
    "chi2-check": (_run_chi2_check,
                   ("--widths", "--p", "--dist", "--u") + _SAMPLE + _REPORT + _CHECK),
    # the ReLU side has no mask and an atomless law; --product-p masks the
    # product side
    "jacobian-compare": (_run_jacobian_compare,
                         ("--widths", "--dist", "--u") + _SAMPLE + _REPORT + _CHECK
                         + ("--product-p", "--bias-scale", "--x")),
}


def run(config: ExperimentConfig) -> int:
    """Execute the experiment; returns the process exit status."""
    rows, ok = _RUNNERS[config.subcommand][0](config)
    text = _write_rows(config, rows)
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if config.assert_checks and not ok:
        return 1
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except MatprodError as exc:
        # a refused sampler request is an error too: the exact routes report
        # theirs in moments' reason column
        print(f"matprod: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
