import json
import pathlib
import shlex
import subprocess
import sys

import pytest

from kwl import suite, weights
from kwl.cli import build_parser, main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
    assert "edge count" in data["note"]
    # a log weight decided by its class is noted as exact too; its angle is sampled
    for kind, exact in (("log", True), ("angle", False)):
        code, out = run_cli(["weight", "--graph", "3 0 ; a1>a2 a1>a3 a2>a1 a2>a3", "--kind",
                             kind, "--samples", "1024"], capsys)
        assert code == 0 and ("note" in json.loads(out)) == exact
    # the empty top-degree graph is exactly one, with no note
    code, out = run_cli(["weight", "--graph", "0 2 ;"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [1.0, 0.0] and "note" not in data


def test_weight_parse_failure_exit_2(capsys):
    code, _ = run_cli(["weight", "--graph", "not a graph"], capsys)
    assert code == 2


def assert_usage_error(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    return err


def test_argparse_usage_errors_one_line(capsys):
    wedge = ["weight", "--graph", "1 2 ; a1>g1 a1>g2"]
    assert "--bogus" in assert_usage_error(wedge + ["--bogus"], capsys)
    assert "--kind" in assert_usage_error(wedge + ["--kind", "angel"], capsys)
    assert "--seed" in assert_usage_error(wedge + ["--seed", "1.5"], capsys)
    assert_usage_error(["weight"], capsys)
    assert_usage_error([], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["weight", "--help"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


def test_weight_bad_budget_or_seed_exit_2(capsys):
    wedge = ["weight", "--graph", "1 2 ; a1>g1 a1>g2"]
    for extra in (["--samples", "0"], ["--samples", "-5"], ["--seed", "-1"]):
        assert_usage_error(wedge + extra, capsys)
    # KWL_THREADS is the one thread setting
    for threads in ("0", "-3", "1"):
        err = assert_usage_error(wedge + ["--threads", threads], capsys)
        assert f"unrecognized arguments: --threads {threads}" in err
    # above 16 batches of 2^30 Sobol points, rejected before any draw: a
    # budget near that bound would take tens of GiB
    for budget in (str(10 ** 400), str((16 << 30) + 1)):
        for command in (wedge, ["verify-identity", "--graph", "2 1 ; a1>a2 a2>g1"]):
            err = assert_usage_error(command + ["--samples", budget], capsys)
            assert f"sample budget {budget} exceeds" in err
    # exact zero (degree mismatch) and exact one (empty graph) check the budget too
    assert_usage_error(["weight", "--graph", "1 2 ; a1>g1", "--samples", "0"], capsys)
    assert_usage_error(["weight", "--graph", "0 2 ;", "--samples", "-4"], capsys)


@pytest.mark.parametrize("graph", ["0 0 ;", "0 1 ;"])
def test_weight_without_gauge_slice_exit_2(graph, capsys):
    assert "no gauge slice" in assert_usage_error(["weight", "--graph", graph], capsys)


def test_weight_above_the_sobol_table_exit_2(capsys):
    # 9 aerial vertices and 1 ground one: a 17-dimensional slice, above the
    # 14 of the Sobol table; a graph of the wrong degree there is still an
    # exact zero
    star = " ".join(f"a{v}>a1" for v in range(2, 10))
    graph = f"9 1 ; {star} " + " ".join(f"a{v}>g1" for v in range(1, 10))
    assert "17 dimensions" in assert_usage_error(["weight", "--graph", graph], capsys)
    code, out = run_cli(["weight", "--graph", f"9 1 ; {star}"], capsys)
    assert code == 0 and json.loads(out)["value"] == [0.0, 0.0]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
@pytest.mark.parametrize("command, graph", [
    ("verify-identity", "2 1 ; a1>a2 a2>g1"), ("vanish", "2 1 ; a1>a2 a2>a1 a1>g1")])
def test_bad_tol_exit_2(command, graph, tol, capsys):
    # the acceptance bounds are constants: there is no --tol to set
    err = assert_usage_error([command, "--graph", graph, "--samples", "1000",
                              f"--tol={tol}"], capsys)
    assert f"unrecognized arguments: --tol={tol}" in err


def test_suite_unwritable_out_dir_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert_usage_error(["suite", "--out", str(blocker / "x")], capsys)


def test_star_and_globalization_bad_order_seed_or_budget_exit_2(capsys):
    pi = json.dumps({"dim": 2, "bivector": [
        {"i": 0, "j": 1, "monomial": [0, 0], "coeff": 1.0}]})
    x = json.dumps([{"monomial": [1, 0], "coeff": 1.0}])
    star = ["star", "--poisson", pi, "--f", x, "--g", x, "--samples", "1000"]
    for extra in (["--order", "3"], ["--seed", "-1"]):
        assert_usage_error(star + extra, capsys)
    err = assert_usage_error(star + ["--order", "-1"], capsys)
    assert "order must be 0, 1 or 2" in err
    for extra in (["--seed", "-1"], ["--samples", "0"]):
        assert_usage_error(["globalization"] + extra, capsys)


def _bivector_json(monomial=(0, 0), coeff=1.0):
    return json.dumps({"dim": 2, "bivector": [
        {"i": 0, "j": 1, "monomial": list(monomial), "coeff": coeff}]})


def _poly_json(monomial=(1, 0), coeff=1.0):
    return json.dumps([{"monomial": list(monomial), "coeff": coeff}])


@pytest.mark.parametrize("command", ["star", "associativity"])
@pytest.mark.parametrize("flag, value", [
    ("--poisson", "[]"),
    ("--poisson", "@missing.json"),
    ("--poisson", _bivector_json(coeff="abc")),
    ("--f", _poly_json(coeff="abc")),
    ("--poisson", _bivector_json(monomial=(-1, 0))),
    ("--f", _poly_json(monomial=(-1, 0))),
    ("--f", _poly_json(monomial=(1.5, 0))),
    ("--poisson", '{"dim": 2, "bivector": [{"i": 0, "j": 1, "monomial": [0, 0], "coeff": NaN}]}'),
    ("--f", '[{"monomial": [1, 0], "coeff": Infinity}]'),
    ("--poisson", _bivector_json(coeff=10 ** 400)),
    ("--f", _poly_json(coeff=10 ** 400)),
    ("--f", "{}"),
    ("--poisson", "[" * 100_000 + "]" * 100_000),
], ids=["list-bivector", "missing-file", "string-coeff-bivector", "string-coeff-poly",
        "negative-exponent-bivector", "negative-exponent-poly", "fractional-exponent",
        "nan-coeff", "infinite-coeff", "huge-int-coeff-bivector", "huge-int-coeff-poly",
        "object-poly", "deeply-nested"])
def test_bad_json_input_exit_2(command, flag, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = {"--poisson": _bivector_json(), "--f": _poly_json(), "--g": _poly_json((0, 1))}
    if command == "associativity":
        args["--h"] = _poly_json()
    args[flag] = value
    argv = [command, "--samples", "1000"]
    for key, text in args.items():
        argv += [key, text]
    err = assert_usage_error(argv, capsys)
    assert "bad input" in err


@pytest.mark.parametrize("command", ["star", "associativity"])
def test_huge_exponent_exit_2(command, capsys):
    # differentiating x^(10^400) needs the exponent as a float
    f = _poly_json(monomial=(10 ** 400, 0))
    argv = [command, "--poisson", _bivector_json(), "--f", f, "--g", _poly_json((0, 1)),
            "--order", "1", "--samples", "1000"]
    if command == "associativity":
        argv += ["--h", _poly_json()]
    assert "too large" in assert_usage_error(argv, capsys)


def test_non_finite_result_exit_2(capsys):
    # products of 1e200 coefficients overflow: the residuals are NaN, which
    # JSON cannot carry
    pi = _bivector_json(monomial=(1, 0), coeff=1e200)
    f = _poly_json(coeff=1e200)
    code = main(["associativity", "--poisson", pi, "--f", f, "--g", f, "--h", f,
                 "--order", "1", "--samples", "1000"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: result is not finite") and len(err.splitlines()) == 1


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


def test_vanish_wrong_degree_is_exact_zero(capsys):
    # eleven aerial vertices: the degree decides before any relabelling search
    code, out = run_cli(["vanish", "--graph", "11 0 ; a1>a2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [0.0, 0.0] and data["stderr"] == 0.0 and data["passed"]


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


def test_verify_identity_command_weighs_only_its_kind(capsys):
    weights.clear_weight_cache()
    code, _ = run_cli(["verify-identity", "--graph", "2 1 ; a1>a2 a2>g1",
                       "--kind", "log", "--samples", "1024", "--seed", "3"], capsys)
    assert code == 0
    assert weights._cache and {key[1] for key in weights._cache} == {"log"}
    weights.clear_weight_cache()


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


def test_counterterm_takes_no_sample_budget():
    with pytest.raises(SystemExit) as exc:
        main(["counterterm", "--graph", "2 1 ; a1>a2 a1>g1 a2>g1", "--subset", "0,1",
              "--samples", "5"])
    assert exc.value.code == 2


def test_counterterm_bad_scales_exit_2(capsys):
    probe = ["counterterm", "--graph", "2 1 ; a1>a2 a1>g1 a2>g1", "--subset", "0,1"]
    for scales in (["1e-2"], ["1e-2", "1e-2"], ["1e-2", "0"]):
        assert_usage_error(probe + ["--scales"] + scales, capsys)
    # Richardson extrapolation needs one common ratio
    for scales in (["1e-2", "1e-3", "1e-5"], ["1e-3", "1e-2"]):
        assert "one common ratio" in assert_usage_error(probe + ["--scales"] + scales, capsys)


@pytest.mark.parametrize("subset", ["1,0,1", "0,0", "0,,1", "0,1,", ""])
def test_counterterm_repeated_or_empty_index_exit_2(subset, capsys):
    err = assert_usage_error(["counterterm", "--graph", "2 1 ; a1>a2 a1>g1 a2>g1",
                              "--subset", subset], capsys)
    assert "--subset" in err


def test_counterterm_negative_seed_exit_2(capsys):
    err = assert_usage_error(["counterterm", "--graph", "2 1 ; a1>a2 a1>g1 a2>g1",
                              "--subset", "0,1", "--seed", "-1"], capsys)
    assert "seed must be nonnegative" in err


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_kwl_threads_named_exit_2(value, monkeypatch, capsys):
    monkeypatch.setenv("KWL_THREADS", value)
    err = assert_usage_error(["weight", "--graph", "1 2 ; a1>g1 a1>g2"], capsys)
    assert "KWL_THREADS" in err and repr(value) in err


#: one small run of each sampling subcommand; 2^15 samples are two pool tasks
SAMPLED = {
    "weight": ["--graph", "2 1 ; a1>a2 a1>g1 a2>g1"],
    "vanish": ["--graph", "2 1 ; a1>a2 a2>a1 a1>g1"],
    "verify-identity": ["--graph", "2 2 ; a1>a2 a1>g1 a2>g2"],
    "star": ["--poisson", _bivector_json(), "--f", _poly_json((2, 1)),
             "--g", _poly_json((1, 2))],
    "associativity": ["--poisson", _bivector_json((1, 0)), "--f", _poly_json((1, 1)),
                      "--g", _poly_json((0, 1)), "--h", _poly_json((2, 0))],
    "globalization": [],
}


@pytest.mark.parametrize("command", SAMPLED)
def test_output_does_not_depend_on_the_thread_count(command, monkeypatch, capsys):
    argv = [command, "--samples", str(1 << 15), "--seed", "3"] + SAMPLED[command]
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("KWL_THREADS", threads)
        weights.clear_weight_cache()
        code, out = run_cli(argv, capsys)
        assert code == 0, out
        outs.append(out)
    weights.clear_weight_cache()
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", SAMPLED)
def test_no_command_takes_a_thread_count(command, capsys):
    # KWL_THREADS is the one thread setting
    argv = [command, "--samples", "1000"] + SAMPLED[command]
    err = assert_usage_error(argv + ["--threads", "2"], capsys)
    assert "unrecognized arguments: --threads 2" in err


def test_globalization_takes_no_kind(capsys):
    # no part of the check depends on the propagator: it checks U^log
    argv = ["globalization", "--samples", "1000"]
    err = assert_usage_error(argv + ["--kind", "log"], capsys)
    assert "unrecognized arguments: --kind log" in err
    code, out = run_cli(argv, capsys)
    assert code == 0 and "kind" not in json.loads(out)


def test_suite_reduced_config_runs_and_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "seed = 11\n"
        "samples = 10000\n"
        f"out_dir = {tmp_path}/out1\n"
    )
    code1, _ = run_cli(["suite", "--config", str(cfg)], capsys)
    code2, _ = run_cli(["suite", "--config", str(cfg), "--out",
                        str(tmp_path / "out2")], capsys)
    for name in ("wedge_weight", "stokes_identities", "config_properties"):
        a = (tmp_path / "out1" / f"check_{name}.json").read_bytes()
        b = (tmp_path / "out2" / f"check_{name}.json").read_bytes()
        assert a == b
    # 10^4 against 4 * 10^4 samples: the error bar must shrink
    report = json.loads((tmp_path / "out1" / "check_determinism.json").read_text())
    assert report["passed"], report["details"]


def test_suite_missing_config_exit_2(capsys):
    code, _ = run_cli(["suite", "--config", "/nonexistent/path.cfg"], capsys)
    assert code == 2


def test_suite_failing_check_exit_1(tmp_path, monkeypatch, capsys):
    def check(name, passed):
        return name, lambda cfg: suite.CheckResult(name, passed, {"samples": cfg.samples})
    monkeypatch.setattr(suite, "ALL_CHECKS", (check("fine", True), check("broken", False)))
    code, out = run_cli(["suite", "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert out.split("FAILED checks:")[-1].split() == ["broken"]
    report = json.loads((tmp_path / "out" / "check_broken.json").read_text())
    assert report == {"name": "broken", "passed": False, "details": {"samples": 1_000_000}}


def test_suite_rejects_small_budgets(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = 10\n")
    code, _ = run_cli(["suite", "--config", str(cfg)], capsys)
    assert code == 2


def test_suite_rejects_removed_budget_keys(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    for key in ("wedge_samples = 40000", "tolerance = 0", "threads = 2"):
        cfg.write_text(f"seed = 3\n{key}\n")
        err = assert_usage_error(["suite", "--config", str(cfg)], capsys)
        assert f"line 2: unknown key {key.split()[0]!r}" in err


@pytest.mark.parametrize("line, word", [
    ("samples = 1e6", "line 1: samples"),
    ("samples = 17179869185", "sample budget 17179869185 exceeds"),
    ("seed = -1", "seed must be nonnegative"),
    ("seed = 1\nseed = 2\nsamples = 10", "line 2: duplicate key 'seed'"),
    ("out_dir = a\nsamples = 10", "line 3: duplicate key 'out_dir'"),
    ("KWL_THREADS=abc", "KWL_THREADS"), ("KWL_THREADS=0", "KWL_THREADS")])
def test_suite_rejects_bad_thread_or_sample_settings_before_any_report(
        line, word, tmp_path, monkeypatch, capsys):
    if line.startswith("KWL_THREADS="):  # an environment setting, not a config line
        monkeypatch.setenv("KWL_THREADS", line.split("=", 1)[1])
        line = ""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\nout_dir = {tmp_path}/out\n")
    err = assert_usage_error(["suite", "--config", str(cfg)], capsys)
    assert word in err
    assert not (tmp_path / "out").exists()


def _readme_block(heading):
    text = README.read_text()
    return text.split(heading, 1)[1].split("```", 2)[1]


def test_readme_commands_and_suite_config_parse(tmp_path):
    commands = _readme_block("## Command line").replace("\\\n", " ").strip().splitlines()
    parser = build_parser()
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "kwl"
        parser.parse_args(argv[1:])
    assert len(commands) == 9
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(_readme_block("## The verification suite"))
    assert suite.load_config(str(cfg)) == suite.SuiteConfig()


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "kwl.cli", "enumerate", "1", "2", "2"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "1 2 ; a1>g1 a1>g2"
