"""Batch front door: parse a problem file, run named checks, emit reports.

Usage:
    interpol-lab <command> --config <path> [--out <dir>] [--seed <u64>]
                 [--emit-plot-data] [--tol <f64>]

Commands: kfun, norm, sweep, cancel, distance, solve-analytic,
lattice-sweep, spectrum, verify-all.

Exit codes: 0 all verdicts pass; 1 at least one verdict failed (witness in
the report); 2 input or configuration error; 3 solver precision failure.
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


_NUMBER = {"type": "number"}
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
        "p": {"oneOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]},
        "weights": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
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
        {"type": "array", "items": {"type": "number"}, "minItems": 1},
        {
            "type": "object",
            "properties": {"start": _NUMBER, "stop": _NUMBER, "step": _NUMBER},
            "required": ["start", "stop", "step"],
            "additionalProperties": False,
        },
    ]
}

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
                "q": {"oneOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]},
                "theta": {"type": "number"},
                "theta_grid": _THETA_GRID,
            },
            "required": ["method"],
            "additionalProperties": False,
        },
        "vectors": {"type": "array", "items": _VECTOR},
        "t_grid": {
            "type": "object",
            "properties": {
                "t_min": {"type": "number", "exclusiveMinimum": 0},
                "t_max": {"type": "number", "exclusiveMinimum": 0},
                "points_per_decade": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "annulus": {
            "type": "object",
            "properties": {
                "s": _ENTRY,
                "targets": {"type": "array", "items": _ENTRY},
                "support": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "pseudolattice": {
                    "type": "object",
                    "properties": {
                        "q0": {"oneOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]},
                        "q1": {"oneOf": [{"type": "number", "minimum": 1}, {"const": "inf"}]},
                    },
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
                "thetas": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            },
            "required": ["lambdas", "thetas"],
            "additionalProperties": False,
        },
        "suites": {
            "type": "object",
            "properties": {
                "preset": {"enum": ["full", "quick"]},
                "sizes": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "seed": {"type": "integer", "minimum": 0},
        "tolerances": {
            "type": "object",
            "properties": {
                "slack": {"type": "number", "exclusiveMinimum": 0},
            },
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
_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)

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


# ------------------------------------------------------------- constructors


def _exponent(v):
    return INF if v == "inf" else float(v)


def _entry(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def _vectors(cfg, command) -> list:
    vectors = []
    for i, entries in enumerate(cfg.get("vectors", [])):
        x = np.array([_entry(e) for e in entries], dtype=complex)
        if not np.all(np.isfinite(x)):
            j = np.argwhere(~np.isfinite(x))[0][0]
            raise ArgumentError(f"config field vectors[{i}][{j}]: entries must be finite")
        vectors.append(x)
    if not vectors:
        raise ArgumentError(f"config field vectors: required for {command}")
    return vectors


def _space(node) -> WeightedSpace:
    return WeightedSpace(_exponent(node["p"]), np.asarray(node["weights"], dtype=float))


def _couple(node) -> BanachCouple:
    return BanachCouple(_space(node["space0"]), _space(node["space1"]))


def _matrix(node) -> np.ndarray:
    rows = node["matrix"]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ArgumentError(
                f"config field problem.operator.matrix[{i}]: has {len(row)} entries, "
                f"row 0 has {len(rows[0])}"
            )
    M = np.array([[_entry(e) for e in row] for row in rows], dtype=complex)
    if not np.all(np.isfinite(M)):
        i, j = np.argwhere(~np.isfinite(M))[0]
        raise ArgumentError(f"config field problem.operator.matrix[{i}][{j}]: entries must be finite")
    return M


def _operator(cfg) -> CoupleOperator:
    prob = cfg.get("problem")
    if not prob or "operator" not in prob:
        raise ArgumentError("config field problem.operator: required for this command")
    dom = _couple(prob["domain"])
    cod = _couple(prob["codomain"]) if "codomain" in prob else dom
    return CoupleOperator(_matrix(prob["operator"]), dom, cod)


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
    for key in ("start", "stop", "step"):
        if not math.isfinite(node[key]):
            raise ArgumentError(f"config field functor.theta_grid.{key}: must be finite")
    if not node["step"] > 0:
        raise ArgumentError("config field functor.theta_grid.step: must be positive")
    span = (node["stop"] - node["start"]) / node["step"]
    if not math.isfinite(span) or math.floor(span) + 1 > _MAX_GRID_POINTS:
        raise ArgumentError(
            "config field functor.theta_grid.step: too small, the grid would have "
            f"more than {_MAX_GRID_POINTS} points"
        )
    return np.arange(node["start"], node["stop"] + 1e-12, node["step"])


def _quadrature(cfg) -> QuadratureConfig:
    node = cfg.get("t_grid", {})
    try:
        return QuadratureConfig(
            t_min=node.get("t_min", 1e-8),
            t_max=node.get("t_max", 1e8),
            points_per_decade=node.get("points_per_decade", 32),
        )
    except ArgumentError as exc:
        raise ArgumentError(f"config field t_grid: {exc}") from None


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
        integral = known[key] in (int, "int")
        numeric = isinstance(value, int) or (not integral and isinstance(value, float))
        if isinstance(value, bool) or not numeric or not value > 0:
            kind = "a positive integer" if integral else "a positive number"
            raise ArgumentError(f"config field suites.sizes.{key}: must be {kind}")
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
    s = AnnulusPoint(_entry(node["s"]))
    if "rhs" not in node:
        raise ArgumentError("config field annulus.rhs: required for solve-analytic")
    k = LaurentElement(node["rhs"]["lo"], [[_entry(e) for e in row] for row in node["rhs"]["coeffs"]])
    targets = tuple(_entry(t) for t in node.get("targets", []))
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
        lams = [_entry(l) for l in node["lambdas"]]
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
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        tol = args.tol if args.tol is not None else cfg.get("tolerances", {}).get("slack")
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            # the schema's exclusiveMinimum lets nan and inf through
            source = "--tol" if args.tol is not None else "config field tolerances.slack"
            raise ArgumentError(f"{source}: must be finite and positive, got {tol}")
        ctx = {"csv": {}}
        verdicts, data = COMMANDS[args.command](cfg, seed, tol, ctx)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PrecisionError as exc:
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
