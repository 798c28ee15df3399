"""Batch front-end: problem files in, CSV/JSON reports out.

Commands
--------
frac solve  --config problem.json --out solution.csv [--n N]
    Solve the problem and write one CSV row per node, header "t,psi_t,u0".
    When gamma < 1 a comment line flags node 0 as a display placeholder.

frac verify --config problem.json --out certificate.json [--seed N] [--n N]
    Run the stability certification; writes the certificate JSON and a
    companion CSV (same path with .csv extension) with header
    "t,u0,bound,worst_deviation".

frac sweep  --config problem.json --param alpha --values 0.3,0.5,0.7 --out sweep.csv
    Re-run verification per parameter value; long-format CSV with header
    "param_value,M,q,bound_max,empirical_max,certified,status".  Failed
    rows record the failure in the status column and the run continues.

Exit codes are a stable contract: 0 success/certified, 1 input error,
2 hypothesis failure (divergence, contraction violated, degenerate
denominator, non-convergence), 3 not certified.

Config files are strict JSON: unknown keys are rejected by name, so a
typo like "L_f_" cannot silently weaken a certificate.  All floats in
CSV output carry 17 significant digits and round-trip exactly; identical
config and seed give byte-identical outputs.  Sweep rows run one after
another, in input order.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys

from .exprlang import ExprError, parse
from .psicalc import FractionalOrder, InvalidOrderError
from .solver import NonContractiveError, ProblemSpec, solve
from .stability import (
    ContractionViolatedError,
    DegenerateDenominatorError,
    verify,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_NOT_CERTIFIED = 3

# sweepable parameter -> the problem-file section that holds it
SWEEP_PARAMS = {
    "alpha": "order",
    "beta": "order",
    "T": "domain",
    "epsilon": "constants",
    "n": "domain",
}

# the one exit-code table: (exception classes, exit code, stderr prefix,
# sweep row status), first match wins.  Every input error is an OSError
# or a ValueError; the second row holds the failed hypotheses of the theorem.
FAILURES = (
    ((OSError, ValueError), EXIT_INPUT, "error", "invalid value"),
    (
        (NonContractiveError, ContractionViolatedError, DegenerateDenominatorError),
        EXIT_HYPOTHESIS,
        "hypothesis failure",
        "hypothesis failure",
    ),
)
FAILURE_CLASSES = tuple(cls for classes, *_ in FAILURES for cls in classes)


def _failure(exc):
    """(exit code, stderr prefix, sweep row status) of a caught exception."""
    return next(row[1:] for row in FAILURES if isinstance(exc, row[0]))


class ConfigError(ValueError):
    """Problem-file violation: missing/unknown keys or bad value types."""


def _fmt(x):
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Problem-file loading (strict schema)

_SECTIONS = {
    "order": (True, {"alpha": True, "beta": True}),
    "domain": (True, {"T": True, "n": True}),
    "functions": (True, {"psi": True, "f": True, "k": True, "phi": False}),
    "constants": (
        True,
        {"sigma": True, "L_f": True, "L_k": True, "epsilon": False},
    ),
    "solver": (False, {"tol": False, "max_iter": False}),
    "verify": (False, {"num_perturbations": False, "seed": False}),
}

_VARS = {"psi": {"t"}, "f": {"t", "u"}, "k": {"t", "s", "u"}, "phi": {"t"}}


def _check_keys(doc):
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a JSON object")
    for key in doc:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown section '{key}'")
    for name, (required, keys) in _SECTIONS.items():
        if name not in doc:
            if required:
                raise ConfigError(f"missing required section '{name}'")
            continue
        section = doc[name]
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a JSON object")
        for key in section:
            if key not in keys:
                raise ConfigError(f"unknown key '{key}' in section '{name}'")
        for key, key_required in keys.items():
            if key_required and key not in section:
                raise ConfigError(f"missing key '{key}' in section '{name}'")


def _number(doc, section, key, default=None):
    value = doc.get(section, {}).get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{section}.{key}' must be a number")
    # json accepts NaN, Infinity and integers beyond the float range; the
    # comparisons are exact and false for NaN
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"'{section}.{key}' must be a finite number")
    return float(value)


def _integer(doc, section, key, default=None):
    value = doc.get(section, {}).get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{section}.{key}' must be an integer")
    return int(value)


def _expression(doc, key, required=True):
    value = doc["functions"].get(key)
    if value is None:
        if required:
            raise ConfigError(f"missing key '{key}' in section 'functions'")
        return None
    if not isinstance(value, str):
        raise ConfigError(f"'functions.{key}' must be an expression string")
    try:
        return parse(value, _VARS[key])
    except ExprError as exc:
        raise ConfigError(f"invalid expression 'functions.{key}': {exc}") from exc


def _read_doc(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_problem(path, n_override=None):
    """Load and validate a problem file.

    Returns (spec, options) where options carries tol, max_iter,
    num_perturbations and seed with defaults filled in.
    """
    return problem_from_doc(_read_doc(path), n_override)


def problem_from_doc(doc, n_override=None):
    """Validate an already-parsed problem document; see load_problem."""
    _check_keys(doc)
    try:
        order = FractionalOrder(
            _number(doc, "order", "alpha"), _number(doc, "order", "beta")
        )
    except InvalidOrderError as exc:
        raise ConfigError(str(exc)) from exc
    n = n_override if n_override is not None else _integer(doc, "domain", "n")
    epsilon = _number(doc, "constants", "epsilon")
    try:
        spec = ProblemSpec(
            order=order,
            T=_number(doc, "domain", "T"),
            n=int(n),
            psi=_expression(doc, "psi"),
            f=_expression(doc, "f"),
            k=_expression(doc, "k"),
            sigma=_number(doc, "constants", "sigma"),
            L_f=_number(doc, "constants", "L_f"),
            L_k=_number(doc, "constants", "L_k"),
            phi=_expression(doc, "phi", required=False),
            epsilon=epsilon,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    options = {
        "tol": _number(doc, "solver", "tol", 1e-10),
        "max_iter": _integer(doc, "solver", "max_iter", 200),
        "num_perturbations": _integer(doc, "verify", "num_perturbations", 20),
        "seed": _integer(doc, "verify", "seed", 0),
    }
    if options["tol"] <= 0.0:
        raise ConfigError("'solver.tol' must be positive")
    if options["max_iter"] < 1:
        raise ConfigError("'solver.max_iter' must be at least 1")
    if options["num_perturbations"] < 0:
        raise ConfigError("'verify.num_perturbations' must be nonnegative")
    return spec, options


# ---------------------------------------------------------------------------
# Commands


def _write_csv(path, header, comment, rows=(), columns=()):
    """Write header, the comment line (if any), then the rows of strings.

    String rows get csv quoting (a status can hold a comma).  Each float
    array in columns is one column, written row by row with 17 significant
    digits.
    """
    line = ",".join(["{:.17g}"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        if comment is not None:
            handle.write(f"# {comment}\n")
        csv.writer(handle, lineterminator="\n").writerows(rows)
        handle.writelines(line.format(*row) for row in zip(*(c.tolist() for c in columns)))


def _placeholder_comment(spec, consequence):
    placeholder = "node 0 is a display placeholder (prefactor at t_1/2)"
    return f"{placeholder}: {consequence}" if spec.order.gamma < 1.0 else None


def cmd_solve(config_path, output_path, n_override=None):
    spec, options = load_problem(config_path, n_override)
    report = solve(spec, options["tol"], options["max_iter"])
    grid = report.solution.grid
    _write_csv(
        output_path,
        "t,psi_t,u0",
        _placeholder_comment(spec, "the exact value is unbounded for gamma < 1"),
        columns=(grid.t, grid.psi_values, report.solution.values),
    )
    residual = report.residual_trace[-1] if len(report.residual_trace) else 0.0
    print(f"iterations: {report.iterations}")
    print(f"final residual: {_fmt(residual)}")
    if not report.converged:
        print("did not converge within max_iter", file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _companion_csv_path(output_path):
    root, ext = os.path.splitext(output_path)
    companion = (root if ext else output_path) + ".csv"
    if companion == output_path:
        companion = output_path + ".csv"
    return companion


def _certify(spec, options, seed_override):
    """verify() with the problem file's options; --seed overrides its seed."""
    seed = options["seed"] if seed_override is None else seed_override
    return verify(
        spec,
        options["num_perturbations"],
        seed,
        tol=options["tol"],
        max_iter=options["max_iter"],
    )


def cmd_verify(config_path, output_path, seed_override=None, n_override=None):
    spec, options = load_problem(config_path, n_override)
    certificate = _certify(spec, options, seed_override)
    with open(output_path, "w", encoding="utf-8") as handle:
        handle.write(certificate.to_json())
    _write_csv(
        _companion_csv_path(output_path),
        "t,u0,bound,worst_deviation",
        _placeholder_comment(spec, "excluded from certification checks"),
        columns=(
            certificate.bound.grid.t,
            certificate.u0.values,
            certificate.bound.values,
            certificate.worst_deviation.values,
        ),
    )
    print(f"certified: {str(certificate.certified).lower()}")
    print(f"empirical max deviation: {_fmt(certificate.empirical_max_deviation)}")
    return EXIT_OK if certificate.certified else EXIT_NOT_CERTIFIED


def _sweep_value(raw, param):
    if param == "n":
        value = int(raw)
        if value < 2:
            raise ValueError(f"n must be at least 2, got {value}")
        return value
    return float(raw)


def _sweep_row(base_doc, param, raw_value, seed_override, n_override):
    label = raw_value
    try:
        value = _sweep_value(raw_value, param)
        label = _fmt_param(value, param)
        doc = copy.deepcopy(base_doc)
        doc[SWEEP_PARAMS[param]][param] = value
        spec, options = problem_from_doc(doc, n_override)
        certificate = _certify(spec, options, seed_override)
    except FAILURE_CLASSES as exc:
        return [label, "", "", "", "", "", f"{_failure(exc)[2]}: {exc}"]
    return [
        label,
        "" if certificate.M is None else _fmt(certificate.M),
        _fmt(certificate.contraction_q),
        _fmt(float(certificate.bound.values.max())),
        _fmt(certificate.empirical_max_deviation),
        str(certificate.certified).lower(),
        "ok",
    ]


def _fmt_param(value, param):
    return str(value) if param == "n" else _fmt(value)


def cmd_sweep(config_path, param, values, output_path, seed_override=None, n_override=None):
    if param not in SWEEP_PARAMS:
        print(
            f"error: --param must be one of {', '.join(SWEEP_PARAMS)}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    if not values:
        print("error: --values must list at least one value", file=sys.stderr)
        return EXIT_INPUT
    # validate the base config once up front so config errors exit 1
    base_doc = _read_doc(config_path)
    problem_from_doc(base_doc, n_override)
    rows = [_sweep_row(base_doc, param, raw, seed_override, n_override) for raw in values]
    _write_csv(
        output_path, "param_value,M,q,bound_max,empirical_max,certified,status", None, rows
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


class _ArgumentParser(argparse.ArgumentParser):
    # usage errors are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _ArgumentParser(
        prog="frac",
        description="Solve fractional Volterra problems and certify stability bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve a problem and write the solution CSV"),
        ("verify", "certify a stability bound and write certificate + CSV"),
        ("sweep", "re-run verification across parameter values"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="problem file (JSON)")
        cmd.add_argument("--out", required=True, help="output path")
        cmd.add_argument("--seed", type=int, default=None, help="override verify seed")
        cmd.add_argument("--n", type=int, default=None, help="override grid size")
        if name == "sweep":
            cmd.add_argument(
                "--param", required=True, help=f"one of {', '.join(SWEEP_PARAMS)}"
            )
            cmd.add_argument(
                "--values", required=True, help="comma-separated parameter values"
            )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.out, args.n)
        if args.command == "verify":
            return cmd_verify(args.config, args.out, args.seed, args.n)
        values = [v for v in (s.strip() for s in args.values.split(",")) if v]
        return cmd_sweep(args.config, args.param, values, args.out, args.seed, args.n)
    except FAILURE_CLASSES as exc:
        code, prefix, _ = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
