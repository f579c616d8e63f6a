import json
import subprocess
import sys

from kwl.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_enumerate_lines(capsys):
    code, out = run_cli(["enumerate", "1", "2", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["1 2 ; a1>g1 a1>g2"]
    code, out = run_cli(["enumerate", "0", "2", "0"], capsys)
    assert code == 0 and out.splitlines() == ["0 2 ;"]
    code, out = run_cli(["enumerate", "2", "0", "2"], capsys)
    assert code == 0 and out.splitlines() == ["2 0 ; a1>a2 a2>a1"]


def test_enumerate_bound_exceeded(capsys):
    code, _ = run_cli(["enumerate", "6", "4", "1"], capsys)
    assert code == 2


def test_weight_wedge(capsys):
    code, out = run_cli(["weight", "--graph", "1 2 ; a1>g1 a1>g2",
                         "--kind", "angle", "--samples", "100000", "--seed", "7"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"][0] - 0.5) < 0.01
    assert data["value"][1] == 0.0


def test_weight_degree_mismatch_note(capsys):
    code, out = run_cli(["weight", "--graph", "1 2 ; a1>g1", "--samples",
                        "10000", "--seed", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [0.0, 0.0]
    assert "note" in data


def test_weight_parse_failure_exit_2(capsys):
    code, _ = run_cli(["weight", "--graph", "not a graph"], capsys)
    assert code == 2


def assert_usage_error(args, capsys):
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_weight_bad_budget_or_seed_exit_2(capsys):
    wedge = ["weight", "--graph", "1 2 ; a1>g1 a1>g2"]
    for extra in (["--samples", "0"], ["--samples", "-5"], ["--seed", "-1"]):
        assert_usage_error(wedge + extra, capsys)


def test_star_and_globalization_bad_order_seed_or_budget_exit_2(capsys):
    pi = json.dumps({"dim": 2, "bivector": [
        {"i": 0, "j": 1, "monomial": [0, 0], "coeff": 1.0}]})
    x = json.dumps([{"monomial": [1, 0], "coeff": 1.0}])
    star = ["star", "--poisson", pi, "--f", x, "--g", x, "--samples", "1000"]
    for extra in (["--order", "3"], ["--seed", "-1"]):
        assert_usage_error(star + extra, capsys)
    for extra in (["--seed", "-1"], ["--samples", "0"]):
        assert_usage_error(["globalization"] + extra, capsys)


def test_empty_graph_weight_exactly_one(capsys):
    code, out = run_cli(["weight", "--graph", "0 2 ;", "--samples", "10000"],
                        capsys)
    assert code == 0
    assert json.loads(out)["value"] == [1.0, 0.0]


def test_vanish_command(capsys):
    code, out = run_cli(["vanish", "--graph", "2 1 ; a1>a2 a2>a1 a1>g1",
                         "--kind", "log", "--samples", "50000", "--seed", "2"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["pattern"] == "one-in-one-out"
    assert data["passed"]


def test_vanish_no_pattern_exit_2(capsys):
    code, _ = run_cli(["vanish", "--graph", "1 2 ; a1>g1 a1>g2"], capsys)
    assert code == 2


def test_verify_identity_command(capsys):
    code, out = run_cli(["verify-identity", "--graph", "2 1 ; a1>a2 a2>g1",
                         "--kind", "log", "--samples", "50000", "--seed", "3"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"]


def test_star_command(capsys):
    pi = json.dumps({"dim": 2, "bivector": [
        {"i": 0, "j": 1, "monomial": [0, 0], "coeff": 1.0}]})
    x = json.dumps([{"monomial": [1, 0], "coeff": 1.0}])
    y = json.dumps([{"monomial": [0, 1], "coeff": 1.0}])
    code, out = run_cli(["star", "--poisson", pi, "--f", x, "--g", y,
                         "--order", "1", "--kind", "angle",
                         "--samples", "100000", "--seed", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    order1 = {tuple(row["monomial"]): row["coeff"] for row in data["orders"][1]}
    assert abs(order1[(0, 0)][0] - 0.5) < 0.01
    assert abs(order1[(0, 0)][1]) < 0.01


def test_star_bad_input_exit_2(capsys):
    code, _ = run_cli(["star", "--poisson", "{bad json", "--f", "[]",
                       "--g", "[]"], capsys)
    assert code == 2


def test_counterterm_command(capsys):
    code, out = run_cli(["counterterm", "--graph", "2 1 ; a1>a2 a1>g1 a2>g1",
                         "--subset", "0,1", "--kind", "log"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["cauchy_decreasing"]
    assert abs(complex(*data["limit"])) < 1e-3


def test_counterterm_bad_scales_exit_2(capsys):
    probe = ["counterterm", "--graph", "2 1 ; a1>a2 a1>g1 a2>g1", "--subset", "0,1"]
    for scales in (["1e-2"], ["1e-2", "1e-2"], ["1e-2", "0"]):
        assert_usage_error(probe + ["--scales"] + scales, capsys)


def test_suite_reduced_config_runs_and_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "seed = 11\n"
        "wedge_samples = 40000\n"
        "vanishing_samples = 10000\n"
        "contour_samples = 10000\n"
        "identity_samples = 10000\n"
        "star_samples = 20000\n"
        "globalization_samples = 10000\n"
        "property_draws = 10000\n"
        "determinism_samples = 10000\n"
        f"out_dir = {tmp_path}/out1\n"
    )
    code1, _ = run_cli(["suite", "--config", str(cfg)], capsys)
    code2, _ = run_cli(["suite", "--config", str(cfg), "--out",
                        str(tmp_path / "out2")], capsys)
    for name in ("wedge_weight", "stokes_identities", "config_properties"):
        a = (tmp_path / "out1" / f"check_{name}.json").read_bytes()
        b = (tmp_path / "out2" / f"check_{name}.json").read_bytes()
        assert a == b


def test_suite_missing_config_exit_2(capsys):
    code, _ = run_cli(["suite", "--config", "/nonexistent/path.cfg"], capsys)
    assert code == 2


def test_suite_zero_tolerance_fails_identity_checks(tmp_path, capsys):
    cfg = tmp_path / "strict.cfg"
    cfg.write_text(
        "tolerance = 0\n"
        "wedge_samples = 10000\n"
        "vanishing_samples = 10000\n"
        "contour_samples = 10000\n"
        "identity_samples = 10000\n"
        "star_samples = 10000\n"
        "globalization_samples = 10000\n"
        f"out_dir = {tmp_path}/out\n"
    )
    code, out = run_cli(["suite", "--config", str(cfg)], capsys)
    assert code == 1
    assert "stokes_identities" in out.split("FAILED checks:")[-1]


def test_suite_rejects_small_budgets(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wedge_samples = 10\n")
    code, _ = run_cli(["suite", "--config", str(cfg)], capsys)
    assert code == 2


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "kwl.cli", "enumerate", "1", "2", "2"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "1 2 ; a1>g1 a1>g2"
