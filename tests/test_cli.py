import copy
import json
import math
import re
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from interpol_lab import cli
from interpol_lab.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, _schema_path, load_config, main
from interpol_lab.errors import ArgumentError
from interpol_lab.functors import QuadratureConfig, real_norm
from interpol_lab.spaces import BanachCouple, WeightedSpace

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, data, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return str(p)


def identity_sweep_cfg(outdir):
    return {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 1.0]},
                "space1": {"p": 2, "weights": [1.0, 1.0]},
            },
            "operator": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
        },
        "functor": {"method": "calderon", "theta_grid": {"start": 0.1, "stop": 0.9, "step": 0.1}},
        "seed": 1,
        "output": {"dir": str(outdir), "emit_plot_data": True},
    }


def test_sweep_identity_exit_zero_and_csv(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, identity_sweep_cfg(out))
    code = main(["sweep", "--config", cfg])
    assert code == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == 0
    assert report["data"]["sweep"]["intervals"] == [[0.0, 1.0]]
    csv_text = (out / "sweep.csv").read_text().splitlines()
    assert csv_text[0] == "theta,inv_norm_lower,inv_norm_upper,invertible"
    assert len(csv_text) == 10  # header + 9 grid points


def test_malformed_weight_exits_two(tmp_path, capsys):
    data = identity_sweep_cfg(tmp_path / "o")
    data["problem"]["domain"]["space0"]["weights"] = [1.0, 0.0]
    cfg = write_cfg(tmp_path, data)
    code = main(["sweep", "--config", cfg])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "space0" in err and "weights" in err


def test_missing_config_exits_two(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG


def test_unknown_field_rejected(tmp_path):
    data = identity_sweep_cfg(tmp_path / "o")
    data["bogus"] = 1
    cfg = write_cfg(tmp_path, data)
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG


def test_singular_operator_sweep_fails(tmp_path):
    data = identity_sweep_cfg(tmp_path / "o")
    data["problem"]["operator"]["matrix"] = [[1.0, 0.0], [1.0, 0.0]]
    cfg = write_cfg(tmp_path, data)
    assert main(["sweep", "--config", cfg]) == EXIT_FAIL


def test_kfun_csv_columns(tmp_path):
    out = tmp_path / "out"
    data = {
        "problem": {
            "domain": {
                "space0": {"p": 1, "weights": [1.0, 1.0]},
                "space1": {"p": 1, "weights": [3.0, 0.5]},
            }
        },
        "vectors": [[1.0, 2.0]],
        "t_grid": {"t_min": 0.01, "t_max": 100.0, "points_per_decade": 2},
        "output": {"dir": str(out), "emit_plot_data": True},
    }
    cfg = write_cfg(tmp_path, data)
    assert main(["kfun", "--config", cfg]) == EXIT_PASS
    lines = (out / "kfun.csv").read_text().splitlines()
    assert lines[0] == "t,K_lower,K_upper"
    assert len(lines) > 2


def test_norm_command_exact_marker(tmp_path):
    out = tmp_path / "out"
    data = {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 4.0]},
                "space1": {"p": 2, "weights": [9.0, 1.0]},
            }
        },
        "functor": {"method": "calderon", "theta": 0.5},
        "vectors": [[1.0, 0.0]],
        "output": {"dir": str(out)},
    }
    cfg = write_cfg(tmp_path, data)
    assert main(["norm", "--config", cfg]) == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    entry = report["data"]["norms"][0]
    assert entry["exact"] is True
    assert entry["lower"] == pytest.approx(3.0, rel=1e-12)


def real_norm_cfg(outdir, t_grid):
    return {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 4.0]},
                "space1": {"p": 1, "weights": [9.0, 1.0]},
            }
        },
        "functor": {"method": "real", "q": 2, "theta": 0.4},
        "vectors": [[1.0, [0.5, -2.0]]],
        "t_grid": t_grid,
        "output": {"dir": str(outdir)},
    }


def test_norm_command_uses_t_grid(tmp_path):
    out = tmp_path / "out"
    t_grid = {"t_min": 1.0e-2, "t_max": 1.0e2, "points_per_decade": 4}
    cfg = write_cfg(tmp_path, real_norm_cfg(out, t_grid))
    assert main(["norm", "--config", cfg]) == EXIT_PASS
    entry = json.loads((out / "report.json").read_text())["data"]["norms"][0]
    C = BanachCouple(WeightedSpace(2, [1.0, 4.0]), WeightedSpace(1, [9.0, 1.0]))
    x = [1.0, 0.5 - 2.0j]
    b = real_norm(x, C, 0.4, 2.0, QuadratureConfig(1e-2, 1e2, 4))
    assert (entry["lower"], entry["upper"]) == (b.lower, b.upper)
    default = real_norm(x, C, 0.4, 2.0)
    assert (entry["lower"], entry["upper"]) != (default.lower, default.upper)


def test_norm_command_bad_t_grid_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, real_norm_cfg(tmp_path / "o", {"t_min": 10}))
    assert main(["norm", "--config", cfg]) == EXIT_CONFIG
    assert "t_grid" in capsys.readouterr().err


def test_unread_tolerance_knob_exits_two(tmp_path, capsys):
    data = identity_sweep_cfg(tmp_path / "o")
    data["tolerances"] = {"k_tol": 1.0e-6}
    cfg = write_cfg(tmp_path, data)
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
    assert "k_tol" in capsys.readouterr().err


def test_spectrum_command_with_resolvent(tmp_path):
    out = tmp_path / "out"
    data = {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 1.0]},
                "space1": {"p": 2, "weights": [1.0, 1.0]},
            },
            "operator": {"matrix": [[1.0, 0.0], [0.0, 2.0]]},
        },
        "functor": {"method": "calderon"},
        "resolvent": {"lambdas": [3.0, [0.0, 1.0]], "thetas": [0.25, 0.75]},
        "output": {"dir": str(out), "emit_plot_data": True},
    }
    cfg = write_cfg(tmp_path, data)
    assert main(["spectrum", "--config", cfg]) == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    eig = report["data"]["eigenvalues"]
    assert eig == [[1.0, 0.0], [2.0, 0.0]]
    lines = (out / "resolvent.csv").read_text().splitlines()
    assert lines[0] == "lambda_re,lambda_im,theta,lower,upper,infinite"
    assert len(lines) == 5


def test_solve_analytic_command(tmp_path):
    out = tmp_path / "out"
    data = {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 1.0]},
                "space1": {"p": 2, "weights": [54.598150033144236, 0.01831563888873418]},
            },
            "operator": {"matrix": [[1.0, 1.0], [0.0, 1.0]]},
        },
        "annulus": {
            "s": 1.6487212707001282,
            "targets": [[1.6490510119, 0.0329807]],
            "rhs": {"lo": 1, "coeffs": [[1.0, 1.0]]},
        },
        "output": {"dir": str(out), "emit_plot_data": True},
    }
    cfg = write_cfg(tmp_path, data)
    code = main(["solve-analytic", "--config", cfg])
    assert code == EXIT_PASS
    lines = (out / "analytic_residuals.csv").read_text().splitlines()
    assert lines[0] == "omega_re,omega_im,terms,residual"


def test_verify_all_quick_deterministic(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        data = {
            "suites": {"preset": "quick"},
            "seed": 42,
            "output": {"dir": str(out)},
        }
        cfg = write_cfg(tmp_path, data, name=f"cfg_{run}.yaml")
        code = main(["verify-all", "--config", cfg])
        assert code == EXIT_PASS
        text = (out / "report.json").read_text()
        # identical up to the timestamp line and the echoed output directory
        text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "T"', text)
        text = text.replace(str(out), "OUT")
        outs.append(text)
    assert outs[0] == outs[1]


def test_load_config_rejects_bad_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("problem: [unclosed")
    with pytest.raises(ArgumentError):
        load_config(str(p))


def test_bundled_configs_are_valid():
    for name in ("shear_sweep.yaml", "verify_quick.yaml", "kfun_example.yaml"):
        load_config(str(CONFIGS / name))


def test_config_loader_matches_safe_load():
    for name in ("shear_sweep.yaml", "verify_quick.yaml", "kfun_example.yaml"):
        assert load_config(str(CONFIGS / name)) == yaml.safe_load((CONFIGS / name).read_text())
    text = "[1.0e308, 1.0e+308, .nan, .inf, 0x10]"
    got = yaml.load(text, Loader=cli._YAML_LOADER)
    # repr tells NaN from NaN-free values and floats apart bit for bit
    assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in yaml.safe_load(text)]
    assert got[0] == "1.0e308" and got[4] == 16


def test_sweep_at_theta_below_exp_resolution_exits_zero(tmp_path):
    # exp(theta) rounds to 1.0 at both small points: eta must not divide by zero
    data = yaml.safe_load((CONFIGS / "shear_sweep.yaml").read_text())
    data["functor"]["theta_grid"] = [5.0e-324, 1.0e-308, 0.5]
    data["output"]["dir"] = str(tmp_path / "out")
    assert main(["sweep", "--config", write_cfg(tmp_path, data)]) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [v["name"] for v in report["verdicts"]] == ["FACTOR2", "RADIUS"]
    assert [r["theta"] for r in report["data"]["sweep"]["records"]] == [5.0e-324, 1.0e-308, 0.5]


def test_zero_theta_step_exits_two(tmp_path, capsys):
    data = identity_sweep_cfg(tmp_path / "o")
    data["functor"]["theta_grid"]["step"] = 0
    cfg = write_cfg(tmp_path, data)
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
    assert "functor.theta_grid.step" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), [0.0, float("-inf")]])
def test_nonfinite_matrix_entry_exits_two(tmp_path, capsys, entry):
    data = identity_sweep_cfg(tmp_path / "o")
    data["problem"]["operator"]["matrix"][1][0] = entry
    cfg = write_cfg(tmp_path, data)
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
    assert "problem.operator.matrix[1][0]" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["kfun", "norm"])
def test_nonfinite_vector_entry_exits_two(tmp_path, capsys, command, entry):
    data = {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 2.0]},
                "space1": {"p": 3, "weights": [0.5, 1.0]},
            }
        },
        "functor": {"method": "real", "q": 2, "theta": 0.4},
        "vectors": [[1.0, 2.0], [entry, 2.0]],
        "t_grid": {"t_min": 0.1, "t_max": 10.0, "points_per_decade": 2},
        "output": {"dir": str(tmp_path / "o")},
    }
    cfg = write_cfg(tmp_path, data)
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    assert "vectors[1][0]" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", [[[1.0, 0.0], [1.0]], [[1.0, 0.0], [1.0, 0.0, 2.0]]])
def test_ragged_matrix_exits_two(tmp_path, capsys, matrix):
    data = identity_sweep_cfg(tmp_path / "o")
    data["problem"]["operator"]["matrix"] = matrix
    cfg = write_cfg(tmp_path, data)
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
    assert "problem.operator.matrix[1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sizes,field",
    [({"bogus_samples": 3}, "suites.sizes.bogus_samples"),
     ({"cancellation_samples": "many"}, "suites.sizes.cancellation_samples")],
)
def test_bad_suite_size_exits_two(tmp_path, capsys, sizes, field):
    data = {"suites": {"preset": "quick", "sizes": sizes}, "output": {"dir": str(tmp_path / "o")}}
    cfg = write_cfg(tmp_path, data)
    assert main(["cancel", "--config", cfg]) == EXIT_CONFIG
    assert field in capsys.readouterr().err


def test_config_schema_is_valid():
    # load_config validates with a prebuilt validator and no longer checks
    # the schema itself on each call
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)


_SPACE2 = "space1: {p: 2, weights: [1.0]}"


@pytest.mark.parametrize(
    "text",
    [
        "problem: {domain: {space0: {p: 2, weights: [1.0, 0.0]}, " + _SPACE2 + "}}",
        "bogus: 1",
        "tolerances: {k_tol: 1.0e-6}",
        "tolerances: {slack: 1.0e308}",  # PyYAML reads this as a string
        "vectors: [[1.0, [1.0, 2.0, 3.0]]]",
        "functor: {method: real, theta_grid: {start: 0.1, stop: 0.9}}",
        "problem: {domain: {space0: {p: 0.5, weights: [1.0]}, " + _SPACE2 + "}}",
        "suites: {preset: slow}",
    ],
    ids=["weight", "unknown-field", "k_tol", "float-spelling", "ragged-entry", "theta_grid", "p", "suites"],
)
def test_config_error_message_matches_jsonschema_validate(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text + "\n")
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(yaml.safe_load(text), cli.CONFIG_SCHEMA)
    with pytest.raises(ArgumentError) as got:
        load_config(str(p))
    assert str(got.value) == f"config field {_schema_path(ref.value)}: {ref.value.message}"


@pytest.mark.parametrize("step", [1e-300, 1e-9])
def test_tiny_theta_step_exits_two_before_allocating(tmp_path, capsys, monkeypatch, step):
    def no_arange(*args, **kwargs):
        raise AssertionError("np.arange called for an oversized grid")

    monkeypatch.setattr(np, "arange", no_arange)
    data = identity_sweep_cfg(tmp_path / "o")
    data["functor"]["theta_grid"]["step"] = step
    cfg = write_cfg(tmp_path, data)
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
    assert "functor.theta_grid.step" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "nan", "inf", "-1"])
def test_bad_tol_exits_two(tmp_path, capsys, tol):
    cfg = write_cfg(tmp_path, identity_sweep_cfg(tmp_path / "o"))
    assert main(["sweep", "--config", cfg, "--tol", tol]) == EXIT_CONFIG
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("slack", [".nan", ".inf"])
def test_nonfinite_slack_exits_two(tmp_path, capsys, slack):
    text = (CONFIGS / "kfun_example.yaml").read_text()
    text = text.replace("dir: out/kfun", f"dir: {tmp_path / 'o'}")
    p = tmp_path / "cfg.yaml"
    p.write_text(text + f"tolerances: {{slack: {slack}}}\n")
    assert main(["kfun", "--config", str(p)]) == EXIT_CONFIG
    assert "tolerances.slack" in capsys.readouterr().err


def kfun_cfg(outdir, t_grid):
    return {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 2.0]},
                "space1": {"p": 3, "weights": [0.5, 1.0]},
            }
        },
        "vectors": [[1.0, 2.0]],
        "t_grid": t_grid,
        "output": {"dir": str(outdir)},
    }


def test_infinite_t_max_exits_two(tmp_path, capsys):
    data = kfun_cfg(tmp_path / "o", {"t_min": 0.1, "t_max": float("inf"), "points_per_decade": 2})
    assert main(["kfun", "--config", write_cfg(tmp_path, data)]) == EXIT_CONFIG
    assert "t_grid.t_max" in capsys.readouterr().err


def test_huge_t_grid_exits_two_before_allocating(tmp_path, capsys, monkeypatch):
    def no_linspace(*args, **kwargs):
        raise AssertionError("np.linspace called for an oversized grid")

    monkeypatch.setattr(np, "linspace", no_linspace)
    for ppd in (cli._MAX_GRID_POINTS // 2, 10**300):  # 2 decades; the second overflows
        data = kfun_cfg(tmp_path / "o", {"t_min": 0.1, "t_max": 10.0, "points_per_decade": ppd})
        assert main(["kfun", "--config", write_cfg(tmp_path, data)]) == EXIT_CONFIG
        assert "t_grid.points_per_decade" in capsys.readouterr().err


def test_t_grid_bound_counts_level_zero_points():
    # two decades: 2 * ppd intervals, 2 * ppd + 1 points
    cfg = {"t_grid": {"t_min": 0.1, "t_max": 10.0, "points_per_decade": cli._MAX_GRID_POINTS // 2 - 1}}
    assert cli._quadrature(cfg).intervals + 1 == cli._MAX_GRID_POINTS - 1
    cfg["t_grid"]["points_per_decade"] += 1
    with pytest.raises(ArgumentError, match="t_grid.points_per_decade"):
        cli._quadrature(cfg)


@pytest.mark.parametrize("value", [float("nan"), float("-inf"), 10**400], ids=["nan", "-inf", "10**400"])
def test_integer_fields_must_be_finite_floats(tmp_path, capsys, value):
    data = kfun_cfg(tmp_path / "o", {"t_min": 0.1, "t_max": 10.0, "points_per_decade": 2})
    data["seed"] = value
    assert main(["kfun", "--config", write_cfg(tmp_path, data)]) == EXIT_CONFIG
    assert "config field seed" in capsys.readouterr().err


def spectrum_cfg(outdir, lambdas):
    return {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 2.0]},
                "space1": {"p": 3, "weights": [0.5, 1.0]},
            },
            "operator": {"matrix": [[1.0, 0.0], [0.0, 2.0]]},
        },
        "functor": {"method": "calderon"},
        "resolvent": {"lambdas": lambdas, "thetas": [0.5]},
        "output": {"dir": str(outdir)},
    }


@pytest.mark.parametrize("lam", [float("nan"), [0.0, float("inf")]])
def test_nonfinite_resolvent_lambda_exits_two(tmp_path, capsys, lam):
    data = spectrum_cfg(tmp_path / "o", [lam])
    assert main(["spectrum", "--config", write_cfg(tmp_path, data)]) == EXIT_CONFIG
    assert "resolvent.lambdas[0]" in capsys.readouterr().err


def analytic_cfg(outdir, coeffs):
    return {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 1.0]},
                "space1": {"p": 2, "weights": [54.598150033144236, 0.01831563888873418]},
            },
            "operator": {"matrix": [[1.0, 1.0], [0.0, 1.0]]},
        },
        "annulus": {
            "s": [1.6, 0.1],
            "targets": [[1.6490510119, 0.0329807], 1.7],
            "rhs": {"lo": 1, "coeffs": coeffs},
        },
        "output": {"dir": str(outdir), "emit_plot_data": True},
    }


@pytest.mark.parametrize("coeffs", [[[1.0, 1.0], [1.0]], [[1.0, 1.0], [1.0, [0.0, 1.0], 2.0]]])
def test_ragged_rhs_coeffs_exit_two(tmp_path, capsys, coeffs):
    data = analytic_cfg(tmp_path / "o", coeffs)
    assert main(["solve-analytic", "--config", write_cfg(tmp_path, data)]) == EXIT_CONFIG
    assert "annulus.rhs.coeffs[1]" in capsys.readouterr().err


def test_complex_annulus_fields_are_read(tmp_path):
    out = tmp_path / "o"
    data = analytic_cfg(out, [[1.0, [0.5, -0.5]], [[0.0, 1.0], 0.25]])
    assert main(["solve-analytic", "--config", write_cfg(tmp_path, data)]) in (EXIT_PASS, EXIT_FAIL)
    targets = json.loads((out / "report.json").read_text())["data"]["analytic"]["targets"]
    assert [t["omega"] for t in targets] == [[1.6490510119, 0.0329807], [1.7, 0.0]]


def test_negative_seed_flag_exits_two(tmp_path, capsys):
    data = {"suites": {"preset": "quick", "sizes": {"cancellation_samples": 3}}, "output": {"dir": str(tmp_path / "o")}}
    assert main(["cancel", "--config", write_cfg(tmp_path, data), "--seed", "-1"]) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


def test_annulus_support_is_rejected(tmp_path, capsys):
    data = analytic_cfg(tmp_path / "o", [[1.0, 1.0]])
    data["annulus"]["support"] = [-4, 4]
    assert main(["solve-analytic", "--config", write_cfg(tmp_path, data)]) == EXIT_CONFIG
    assert "support" in capsys.readouterr().err


@pytest.mark.parametrize("inf", ["inf", float("inf")])
def test_exponents_accept_both_inf_spellings(tmp_path, inf):
    data = kfun_cfg(tmp_path / "o", {"t_min": 0.1, "t_max": 10.0, "points_per_decade": 2})
    data["problem"]["domain"]["space0"]["p"] = inf
    data["functor"] = {"method": "real", "q": inf, "theta": 0.5}
    data["annulus"] = {"pseudolattice": {"q0": inf, "q1": inf}}
    cfg = load_config(write_cfg(tmp_path, data))
    assert cli._couple(cfg["problem"]["domain"]).space0.p == math.inf
    assert cli._family(cfg).q == math.inf
    assert (cli._pseudolattice(cfg).q0, cli._pseudolattice(cfg).q1) == (math.inf, math.inf)


# ----------------------------------------------------------- the CLI contract

_BASE = {
    "kfun": kfun_cfg("unused", {"t_min": 0.1, "t_max": 10.0, "points_per_decade": 2}),
    "norm": {
        "problem": {
            "domain": {
                "space0": {"p": 2, "weights": [1.0, 4.0]},
                "space1": {"p": 2, "weights": [9.0, 1.0]},
            }
        },
        "functor": {"method": "real", "q": 2, "theta": 0.4},
        "vectors": [[1.0, [0.5, -2.0]]],
        "t_grid": {"t_min": 0.1, "t_max": 10.0, "points_per_decade": 2},
    },
    "sweep": dict(
        identity_sweep_cfg("unused"),
        functor={"method": "real", "q": 2, "theta_grid": {"start": 0.1, "stop": 0.9, "step": 0.2}},
    ),
    "spectrum": dict(spectrum_cfg("unused", [3.0, [0.0, 1.0]]), functor={"method": "real", "q": 2}),
    "solve-analytic": analytic_cfg("unused", [[1.0, 1.0], [0.5, [0.0, 1.0]]]),
    "lattice-sweep": {
        "problem": {
            "domain": {
                "space0": {"p": 1, "weights": [1.0, 2.0]},
                "space1": {"p": 2, "weights": [3.0, 0.5]},
            },
            "operator": {"matrix": [[2.0, 1.0], [0.5, 3.0]]},
        },
        "functor": {"method": "calderon", "theta": 0.5, "theta_grid": [0.3, 0.7]},
        "seed": 3,
    },
    "cancel": {"suites": {"preset": "quick", "sizes": {"cancellation_samples": 3}}},
}
for _cfg in _BASE.values():
    _cfg.pop("output", None)  # the test passes --out
_JUNK = [float("nan"), float("inf"), float("-inf"), 0, -1, "x", None, [], True]
_FLAGS = [("--seed", s) for s in ("-1", "0", "7")] + [("--tol", t) for t in ("0", "nan", "inf", "-1", "1e-6")]


def _paths(node, path=()):
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutations(command):
    """One mutation of the command's base config: a numeric leaf replaced, a
    key deleted, an unknown key added, a row one entry shorter or longer, or
    a command-line flag."""
    paths = list(_paths(_BASE[command]))
    leaves = [p for p, v in paths if isinstance(v, (int, float)) and not isinstance(v, bool)]
    keys = [p for p, _ in paths if p and isinstance(p[-1], str)]
    dicts = [p for p, v in paths if isinstance(v, dict)]
    rows = [p for p, _ in paths if len(p) > 1 and p[-2] in ("vectors", "matrix", "coeffs")]
    kinds = {"replace": (leaves, _JUNK), "delete": (keys,), "add": (dicts,), "row": (rows, [-1, 1]), "flag": (_FLAGS,)}
    return st.one_of([st.tuples(st.just(k), *map(st.sampled_from, args)) for k, args in kinds.items() if args[0]])


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_BASE)).flatmap(lambda c: st.tuples(st.just(c), _mutations(c))))
@example(("kfun", ("replace", ("t_grid", "t_max"), float("inf"))))
@example(("spectrum", ("replace", ("resolvent", "lambdas", 0), float("nan"))))
@example(("solve-analytic", ("row", ("annulus", "rhs", "coeffs", 1), -1)))
@example(("cancel", ("flag", ("--seed", "-1"))))
def test_malformed_input_never_escapes_main(case):
    command, (kind, where, *arg) = case
    cfg, flags = copy.deepcopy(_BASE[command]), []
    if kind == "replace":
        _at(cfg, where[:-1])[where[-1]] = arg[0]
    elif kind == "delete":
        del _at(cfg, where[:-1])[where[-1]]
    elif kind == "add":
        _at(cfg, where)["bogus"] = 1
    elif kind == "row":
        row = _at(cfg, where)
        row.pop() if arg[0] < 0 else row.append(row[-1])
    else:
        flags = list(where)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        try:
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")] + flags)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == EXIT_CONFIG
            return
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, cli.EXIT_PRECISION)
