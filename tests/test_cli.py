import json
import re
from pathlib import Path

import pytest
import yaml

from interpol_lab.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, load_config, main
from interpol_lab.errors import ArgumentError

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
