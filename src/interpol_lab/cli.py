"""Batch front door: parse a problem file, run named checks, emit reports.

Usage:
    interpol-lab <command> --config <path> [--out <dir>] [--seed <u64>]
                 [--emit-plot-data] [--tol <f64>]

Commands: kfun, norm, sweep, cancel, distance, solve-analytic,
lattice-sweep, spectrum, verify-all.

Exit codes: 0 all verdicts pass; 1 at least one verdict failed (witness in
the report); 2 input or configuration error; 3 solver precision failure
(a bracket that cannot be certified, or an SVD that does not converge).
Reports are a single JSON document (identical across reruns with the same
config and seed, apart from the timestamp field) plus optional CSV plot
data with fixed columns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import jsonschema
import numpy as np
import yaml

from .annulus import AnnulusPoint, LaurentElement, PseudolatticeCouple
from .errors import ArgumentError, PrecisionError, SingularOperatorError
from .functors import (
    FunctorFamily,
    QuadratureConfig,
    real_norm,
    vector_norm_bracket,
)
from .lattice import order_iso_sweep
from .operators import CoupleOperator, resolvent_profile, spectrum
from .report import CheckReport
from .spaces import INF, BanachCouple, WeightedSpace, k_functional
from .stability import AnalyticSolverConfig, solve_analytic_equation, sweep
from .verify import VerifySizes, run_all

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_PRECISION = 3


# Every number in a config, integer or not, is a finite float: the schema's
# "number" and "integer" reject nan, +-inf and integers beyond the float range
_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER
_FINITE_TYPES = _TYPES.redefine_many({
    "number": lambda checker, v: _TYPES.is_type(v, "number") and abs(v) <= sys.float_info.max,
    "integer": lambda checker, v: _TYPES.is_type(v, "integer") and abs(v) <= sys.float_info.max,
})
_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_EXPONENT = {"oneOf": [{"type": "number", "minimum": 1}, {"const": "inf"}, {"const": math.inf}]}
_ENTRY = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
    ]
}
_VECTOR = {"type": "array", "items": _ENTRY, "minItems": 1}
_SPACE = {
    "type": "object",
    "properties": {
        "p": _EXPONENT,
        "weights": {
            "type": "array",
            "items": _POSITIVE,
            "minItems": 1,
        },
    },
    "required": ["p", "weights"],
    "additionalProperties": False,
}
_COUPLE = {
    "type": "object",
    "properties": {"space0": _SPACE, "space1": _SPACE},
    "required": ["space0", "space1"],
    "additionalProperties": False,
}
_THETA_GRID = {
    "oneOf": [
        {"type": "array", "items": _NUMBER, "minItems": 1},
        {
            "type": "object",
            "properties": {"start": _NUMBER, "stop": _NUMBER, "step": _POSITIVE},
            "required": ["start", "stop", "step"],
            "additionalProperties": False,
        },
    ]
}
_SEED = {"type": "integer", "minimum": 0}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "problem": {
            "type": "object",
            "properties": {
                "domain": _COUPLE,
                "codomain": _COUPLE,
                "operator": {
                    "type": "object",
                    "properties": {"matrix": {"type": "array", "items": _VECTOR}},
                    "required": ["matrix"],
                    "additionalProperties": False,
                },
            },
            "required": ["domain"],
            "additionalProperties": False,
        },
        "functor": {
            "type": "object",
            "properties": {
                "method": {"enum": ["calderon", "real"]},
                "q": _EXPONENT,
                "theta": _NUMBER,
                "theta_grid": _THETA_GRID,
            },
            "required": ["method"],
            "additionalProperties": False,
        },
        "vectors": {"type": "array", "items": _VECTOR},
        "t_grid": {
            "type": "object",
            "properties": {
                "t_min": _POSITIVE,
                "t_max": _POSITIVE,
                "points_per_decade": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "annulus": {
            "type": "object",
            "properties": {
                "s": _ENTRY,
                "targets": {"type": "array", "items": _ENTRY},
                "pseudolattice": {
                    "type": "object",
                    "properties": {"q0": _EXPONENT, "q1": _EXPONENT},
                    "additionalProperties": False,
                },
                "rhs": {
                    "type": "object",
                    "properties": {"lo": {"type": "integer"}, "coeffs": {"type": "array", "items": _VECTOR}},
                    "required": ["lo", "coeffs"],
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "resolvent": {
            "type": "object",
            "properties": {
                "lambdas": {"type": "array", "items": _ENTRY, "minItems": 1},
                "thetas": {"type": "array", "items": _NUMBER, "minItems": 1},
            },
            "required": ["lambdas", "thetas"],
            "additionalProperties": False,
        },
        "suites": {
            "type": "object",
            "properties": {
                "preset": {"enum": ["full", "quick"]},
                "sizes": {"type": "object", "additionalProperties": _POSITIVE},
            },
            "additionalProperties": False,
        },
        "seed": _SEED,
        "tolerances": {
            "type": "object",
            "properties": {"slack": _POSITIVE},
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "dir": {"type": "string"},
                "emit_plot_data": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
    },
    "required": [],
    "additionalProperties": False,
}
# Built once: jsonschema.validate would check CONFIG_SCHEMA against the
# metaschema on every call (tests/test_cli.py checks it once instead).
_CONFIG_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=_FINITE_TYPES,
)(CONFIG_SCHEMA)

_MAX_GRID_POINTS = 1_000_000

# libyaml's parser where PyYAML was built with it; the constructor and the
# resolver are SafeLoader's either way, so both load the same values
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _schema_path(err: jsonschema.ValidationError) -> str:
    parts = []
    for p in err.absolute_path:
        parts.append(f"[{p}]" if isinstance(p, int) else ("." + str(p) if parts else str(p)))
    return "".join(parts) or "<root>"


def load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            cfg = yaml.load(fh, Loader=_YAML_LOADER) or {}
    except FileNotFoundError:
        raise ArgumentError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ArgumentError(f"config is not valid YAML: {exc}")
    err = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if err is not None:
        raise ArgumentError(f"config field {_schema_path(err)}: {err.message}")
    return cfg


def _flag(value, schema: dict, flag: str):
    """A command-line value checked by the schema rule of its config field."""
    err = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.evolve(schema=schema).iter_errors(value))
    if err is not None:
        raise ArgumentError(f"{flag}: {err.message}")
    return value


# ------------------------------------------------------------- constructors


def _exponent(v):
    return INF if v == "inf" else float(v)


def _complex(node, path: str, ndim: int):
    """A schema-checked complex field: a number or an [re, im] pair at
    ndim 0, else an array whose rows must have equal lengths."""
    if ndim == 0:
        return complex(*node) if isinstance(node, list) else complex(node)
    if ndim == 2:
        for i, row in enumerate(node):
            if len(row) != len(node[0]):
                raise ArgumentError(
                    f"config field {path}[{i}]: has {len(row)} entries, row 0 has {len(node[0])}"
                )
    return np.array([_complex(v, path, ndim - 1) for v in node], dtype=complex)


def _vectors(cfg, command) -> list:
    vectors = [_complex(v, f"vectors[{i}]", 1) for i, v in enumerate(cfg.get("vectors", []))]
    if not vectors:
        raise ArgumentError(f"config field vectors: required for {command}")
    return vectors


def _space(node) -> WeightedSpace:
    return WeightedSpace(_exponent(node["p"]), np.asarray(node["weights"], dtype=float))


def _couple(node) -> BanachCouple:
    return BanachCouple(_space(node["space0"]), _space(node["space1"]))


def _operator(cfg) -> CoupleOperator:
    prob = cfg.get("problem")
    if not prob or "operator" not in prob:
        raise ArgumentError("config field problem.operator: required for this command")
    dom = _couple(prob["domain"])
    cod = _couple(prob["codomain"]) if "codomain" in prob else dom
    matrix = _complex(prob["operator"]["matrix"], "problem.operator.matrix", 2)
    return CoupleOperator(matrix, dom, cod)


def _family(cfg) -> FunctorFamily:
    node = cfg.get("functor")
    if not node:
        raise ArgumentError("config field functor: required for this command")
    q = _exponent(node.get("q", "inf"))
    return FunctorFamily(node["method"], q)


def _theta_grid(cfg) -> np.ndarray:
    node = cfg.get("functor", {}).get("theta_grid")
    if node is None:
        raise ArgumentError("config field functor.theta_grid: required for this command")
    if isinstance(node, list):
        return np.asarray(node, dtype=float)
    start, stop, step = node["start"], node["stop"], node["step"]
    _bound_grid(lambda: math.floor((stop - start) / step) + 1, "functor.theta_grid.step")
    return np.arange(start, stop + 1e-12, step)


def _bound_grid(count, field: str) -> None:
    """Exit 2 before a grid of more than _MAX_GRID_POINTS points is built;
    ``count()`` counts its points and overflows for a grid beyond floats."""
    try:
        too_big = count() > _MAX_GRID_POINTS
    except OverflowError:
        too_big = True
    if too_big:
        raise ArgumentError(
            f"config field {field}: the grid would have more than {_MAX_GRID_POINTS} points"
        )


def _quadrature(cfg) -> QuadratureConfig:
    node = cfg.get("t_grid", {})
    try:
        quad = QuadratureConfig(
            t_min=node.get("t_min", 1e-8),
            t_max=node.get("t_max", 1e8),
            points_per_decade=node.get("points_per_decade", 32),
        )
    except ArgumentError as exc:
        raise ArgumentError(f"config field t_grid: {exc}") from None
    _bound_grid(lambda: quad.intervals + 1, "t_grid.points_per_decade")
    return quad


def _pseudolattice(cfg) -> PseudolatticeCouple:
    node = cfg.get("annulus", {}).get("pseudolattice", {})
    return PseudolatticeCouple(
        _exponent(node.get("q0", "inf")), _exponent(node.get("q1", "inf"))
    )


def _sizes(cfg) -> VerifySizes:
    node = cfg.get("suites", {})
    base = VerifySizes.quick() if node.get("preset") == "quick" else VerifySizes()
    overrides = node.get("sizes", {})
    known = {f.name: f.type for f in dataclasses.fields(VerifySizes)}
    for key, value in overrides.items():
        if key not in known:
            raise ArgumentError(
                f"config field suites.sizes.{key}: unknown size, expected one of {sorted(known)}"
            )
        if known[key] in (int, "int") and not isinstance(value, int):
            raise ArgumentError(f"config field suites.sizes.{key}: must be a positive integer")
    if overrides:
        base = dataclasses.replace(base, **overrides)
    return base


# ------------------------------------------------------------------ commands


def _cmd_kfun(cfg, seed, tol, ctx):
    prob = cfg.get("problem")
    if not prob:
        raise ArgumentError("config field problem: required for kfun")
    couple = _couple(prob["domain"])
    vectors = _vectors(cfg, "kfun")
    quad = _quadrature(cfg)
    ts = quad.grid()
    rows = []
    table = []
    for vi, x in enumerate(vectors):
        for t in ts:
            ev = k_functional(float(t), x, couple, tol=tol or 1e-8)
            rows.append((float(t), ev.value, ev.upper))
            table.append(
                {"vector": vi, "t": float(t), "K_lower": ev.value, "K_upper": ev.upper}
            )
    ctx["csv"]["kfun.csv"] = (("t", "K_lower", "K_upper"), rows)
    return [CheckReport("kfun", True, {"evaluations": len(table)})], {"kfun": table}


def _cmd_norm(cfg, seed, tol, ctx):
    prob = cfg.get("problem")
    if not prob:
        raise ArgumentError("config field problem: required for norm")
    couple = _couple(prob["domain"])
    family = dataclasses.replace(_family(cfg), quadrature=_quadrature(cfg))
    theta = cfg.get("functor", {}).get("theta")
    if theta is None:
        raise ArgumentError("config field functor.theta: required for norm")
    vectors = _vectors(cfg, "norm")
    out = []
    for vi, x in enumerate(vectors):
        b = vector_norm_bracket(x, couple, family.at(float(theta)), rtol=tol)
        out.append(
            {
                "vector": vi,
                "lower": b.lower,
                "upper": b.upper,
                "exact": b.lower == b.upper,
            }
        )
    return [CheckReport("norm", True, {"count": len(out)})], {"norms": out}


def _cmd_sweep(cfg, seed, tol, ctx):
    T = _operator(cfg)
    family = _family(cfg)
    grid = _theta_grid(cfg)
    rep = sweep(T, family, grid, slack=tol or 1e-6)
    rows = [
        (r.theta, r.inv_norm.lower if r.inv_norm else "", r.inv_norm.upper if r.inv_norm else "", int(r.invertible))
        for r in rep.records
    ]
    ctx["csv"]["sweep.csv"] = (
        ("theta", "inv_norm_lower", "inv_norm_upper", "invertible"),
        rows,
    )
    data = {
        "family": rep.family,
        "intervals": [list(iv) for iv in rep.intervals],
        "records": [
            {
                "theta": r.theta,
                "invertible": r.invertible,
                "op_norm": [r.op_norm.lower, r.op_norm.upper],
                "inv_norm": [r.inv_norm.lower, r.inv_norm.upper] if r.inv_norm else None,
            }
            for r in rep.records
        ],
    }
    return rep.verdicts, {"sweep": data}


def _cmd_cancel(cfg, seed, tol, ctx):
    from .verify import cancellation_suite

    sizes = _sizes(cfg)
    return [cancellation_suite(seed, sizes.cancellation_samples)], {}


def _cmd_distance(cfg, seed, tol, ctx):
    from .verify import distance_suite

    sizes = _sizes(cfg)
    return [distance_suite(seed, sizes.distance_samples_per_pair)], {}


def _cmd_solve_analytic(cfg, seed, tol, ctx):
    T = _operator(cfg)
    node = cfg.get("annulus")
    if not node or "s" not in node:
        raise ArgumentError("config field annulus.s: required for solve-analytic")
    s = AnnulusPoint(_complex(node["s"], "annulus.s", 0))
    if "rhs" not in node:
        raise ArgumentError("config field annulus.rhs: required for solve-analytic")
    k = LaurentElement(node["rhs"]["lo"], _complex(node["rhs"]["coeffs"], "annulus.rhs.coeffs", 2))
    targets = tuple(_complex(node.get("targets", []), "annulus.targets", 1).tolist())
    solver_cfg = AnalyticSolverConfig(
        max_terms=30, targets=targets, pseudolattice=_pseudolattice(cfg)
    )
    rep = solve_analytic_equation(T, k, s, solver_cfg)
    rows = []
    data_targets = []
    for t in rep.targets:
        for m, resid in enumerate(t.residuals):
            rows.append((t.omega.real, t.omega.imag, m, resid))
        data_targets.append(
            {
                "omega": [t.omega.real, t.omega.imag],
                "converged": t.converged,
                "final_residual": t.final_residual,
            }
        )
    ctx["csv"]["analytic_residuals.csv"] = (
        ("omega_re", "omega_im", "terms", "residual"),
        rows,
    )
    ok = all(t.converged for t in rep.targets) if rep.targets else True
    verdict = CheckReport(
        "solve-analytic",
        ok,
        {"rho_measured": rep.rho_measured, "theoretical_radius": rep.theoretical_radius},
    )
    return [verdict], {"analytic": {"targets": data_targets, "h_norms": rep.h_norms}}


def _cmd_lattice_sweep(cfg, seed, tol, ctx):
    T = _operator(cfg)
    theta = cfg.get("functor", {}).get("theta")
    if theta is None:
        raise ArgumentError("config field functor.theta: required for lattice-sweep")
    grid = _theta_grid(cfg)
    rep = order_iso_sweep(T, float(theta), grid, seed=seed)
    return [rep], {}


def _cmd_spectrum(cfg, seed, tol, ctx):
    T = _operator(cfg)
    eig = spectrum(T)
    node = cfg.get("resolvent")
    data = {"eigenvalues": [[z.real, z.imag] for z in eig]}
    verdicts = [CheckReport("spectrum", True, {"count": len(eig)})]
    if node:
        lams = _complex(node["lambdas"], "resolvent.lambdas", 1).tolist()
        thetas = [float(t) for t in node["thetas"]]
        prof = resolvent_profile(T, lams, thetas, _family(cfg))
        rows = []
        for i, lam in enumerate(lams):
            for k, th in enumerate(thetas):
                rows.append(
                    (
                        lam.real,
                        lam.imag,
                        th,
                        prof.lower[i, k],
                        prof.upper[i, k],
                        int(prof.infinite[i, k]),
                    )
                )
        ctx["csv"]["resolvent.csv"] = (
            ("lambda_re", "lambda_im", "theta", "lower", "upper", "infinite"),
            rows,
        )
        data["resolvent_grid"] = len(rows)
    return verdicts, data


def _cmd_verify_all(cfg, seed, tol, ctx):
    sizes = _sizes(cfg)
    reports = run_all(seed, sizes)
    return reports, {"sizes": dataclasses.asdict(sizes)}


COMMANDS = {
    "kfun": _cmd_kfun,
    "norm": _cmd_norm,
    "sweep": _cmd_sweep,
    "cancel": _cmd_cancel,
    "distance": _cmd_distance,
    "solve-analytic": _cmd_solve_analytic,
    "lattice-sweep": _cmd_lattice_sweep,
    "spectrum": _cmd_spectrum,
    "verify-all": _cmd_verify_all,
}


# ------------------------------------------------------------------- output


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return repr(obj)
    return obj


def _write_report(out_dir: Path, payload: dict, csv_files: dict, emit_csv: bool):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(_sanitize(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if emit_csv:
        for name, (header, rows) in csv_files.items():
            with open(out_dir / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="interpol-lab",
        description="Checks and sweeps for interpolation couples.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="YAML problem file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--emit-plot-data", action="store_true")
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        seed = _flag(args.seed, _SEED, "--seed") if args.seed is not None else int(cfg.get("seed", 0))
        tol = cfg.get("tolerances", {}).get("slack")
        tol = _flag(args.tol, _POSITIVE, "--tol") if args.tol is not None else tol
        ctx = {"csv": {}}
        verdicts, data = COMMANDS[args.command](cfg, seed, tol, ctx)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PrecisionError, np.linalg.LinAlgError) as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except SingularOperatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    all_passed = all(v.passed for v in verdicts)
    exit_code = EXIT_PASS if all_passed else EXIT_FAIL
    payload = {
        "command": args.command,
        "config": cfg,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "verdicts": [v.to_json() for v in verdicts],
        "data": data,
        "exit_code": exit_code,
    }
    emit_csv = args.emit_plot_data or bool(cfg.get("output", {}).get("emit_plot_data"))
    out_dir = Path(args.out if args.out != "out" else cfg.get("output", {}).get("dir", "out"))
    _write_report(out_dir, payload, ctx["csv"], emit_csv)
    for v in verdicts:
        print(f"{v.name}: {'PASS' if v.passed else 'FAIL'}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
