import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

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
