import json

import numpy as np
import pytest

from geocalc import circle_rod, random_smooth_rod, save_rod_csv
from geocalc.cli import main
from geocalc.harness import read_report_csv


def test_geodesic_writes_path(tmp_path, capsys):
    code = main(
        [
            "geodesic",
            "--model",
            "sphere-chart",
            "--xa",
            "0.5,0",
            "--xb",
            "-0.5,2",
            "--K",
            "8",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    lines = (tmp_path / "path.csv").read_text().splitlines()
    assert lines[0] == "k,x_0,x_1"
    assert len(lines) == 10


def test_log_exp_transport_roundtrip(capsys):
    assert main(["log", "--model", "flat", "--xa", "0,0", "--xb", "1,0", "--K", "4"]) == 0
    out = capsys.readouterr().out
    assert "0.25,0.0" in out
    assert main(["exp", "--model", "flat", "--xa", "0,0", "--zeta", "0.25,0", "--K", "4"]) == 0
    out = capsys.readouterr().out
    assert "1.0,0.0" in out
    code = main(
        ["transport", "--model", "flat", "--xa", "0,0", "--xb", "1,1", "--K", "4", "--w", "0.5,-0.25"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0.5,-0.25" in out  # flat transport is the identity
    # the level-set geodesic, log and transport of the sdf sphere
    sphere = ["--model", "sdf-sphere", "--xa", "1,0,0", "--xb", "0,0.6,0.8", "--K", "16"]
    for command, extra in (("geodesic", []), ("log", []), ("transport", ["--w", "0,0.3,-0.1"])):
        assert main([command, *sphere, *extra]) == 0
    assert "converged=True" in capsys.readouterr().out


def test_converge_writes_artifacts(tmp_path, capsys):
    code = main(
        [
            "converge",
            "--model",
            "sphere-chart",
            "--k-min",
            "1",
            "--k-max",
            "3",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    ks, cols = read_report_csv(tmp_path / "convergence.csv")
    assert ks == [2, 4, 8]
    orders = json.loads((tmp_path / "orders.json").read_text())
    assert set(orders) == {"geo", "log", "exp", "pt"}


def test_converge_accepts_config_file(tmp_path):
    cfg = {
        "model": "flat",
        "xa": [0.0, 0.0],
        "xb": [1.0, 0.5],
        "w": [0.2, 0.1],
        "k_exponents": [1, 3],
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["converge", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    ks, cols = read_report_csv(tmp_path / "convergence.csv")
    assert ks == [2, 4, 8]
    assert max(cols["geo"]) <= 1e-10


def _rod_config(tmp_path):
    """A JSON study config for the simplified rod at N = 16: circle to a
    smooth rod of radius 1.2, w a smooth shape change."""
    a = circle_rod(16).coord
    b = random_smooth_rod(16, np.random.default_rng(5), 1.2, amplitude=0.15).coord
    w = random_smooth_rod(16, np.random.default_rng(7), 1.0, amplitude=0.05).coord - a
    cfg = {"model": "rod-simplified", "xa": list(a), "xb": list(b), "w": list(w), "k_exponents": [1, 2]}
    path = tmp_path / "rod.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path), b - a


def test_rods_run_every_command_from_a_config(tmp_path, capsys):
    cfg, chord = _rod_config(tmp_path)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "study")]) == 0
    ks, _ = read_report_csv(tmp_path / "study" / "convergence.csv")
    assert ks == [2, 4]
    assert main(["geodesic", "--config", cfg, "--K", "4", "--out", str(tmp_path / "geo")]) == 0
    assert len((tmp_path / "geo" / "path.csv").read_text().splitlines()) == 6
    assert main(["log", "--config", cfg, "--K", "4"]) == 0
    assert main(["exp", "--config", cfg, "--K", "4", "--zeta", ",".join(repr(float(v)) for v in chord / 4)]) == 0
    assert main(["transport", "--config", cfg, "--K", "4", "--out", str(tmp_path / "pt")]) == 0
    lines = (tmp_path / "pt" / "transport_traces.csv").read_text().splitlines()
    assert lines[0].startswith("k,xc_0,") and lines[0].endswith(",zeta_31")
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]  # one row per rung
    out = capsys.readouterr().out
    assert "geodesic model=rod-simplified K=4 converged=True" in out
    assert "wrote" in out and "transport_traces.csv" in out


def test_a_full_rod_study_that_fails_exits_2(tmp_path, capsys):
    # the full rod's exp fold fails in exp2 at K = 2 on this morph: a solver
    # failure, not a traceback
    cfg, _ = _rod_config(tmp_path)
    assert main(["converge", "--config", cfg, "--model", "rod-full", "--out", str(tmp_path)]) == 2
    assert "solver failure: study failed at K=2" in capsys.readouterr().err


def test_invalid_inputs_exit_3(tmp_path, capsys):
    # a rod's node count is half the point dimension: 2-d points are no rod
    assert main(["geodesic", "--model", "rod-simplified"]) == 3
    assert "points of dimension 2" in capsys.readouterr().err
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{not json", encoding="utf-8")
    assert main(["converge", "--config", str(bad_cfg)]) == 3
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"modle": "flat"}), encoding="utf-8")
    assert main(["converge", "--config", str(unknown_key)]) == 3
    # a k_exponents that is not a pair of integers, a non-numeric point, and
    # a 1-d point handed to the 2-d sphere-chart oracles
    for config in ({"k_exponents": [1]}, {"k_exponents": 5}, {"xa": "ab"}, {"xa": [0.1]}):
        bad = tmp_path / "bad_study.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert main(["converge", "--config", str(bad), "--out", str(tmp_path / "out")]) == 3, config
    # endpoints off the constraint surface
    assert main(["geodesic", "--model", "sdf-sphere", "--xa", "1.5,0,0", "--xb", "0,1,0"]) == 3
    capsys.readouterr()
    # exp without its displacement, and a vector that is not numeric
    assert main(["exp", "--model", "flat", "--xa", "0,0"]) == 3
    assert "exp requires --zeta" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["geodesic", "--model", "flat", "--xa", "1,a"])
    assert info.value.code == 3
    assert "expected comma-separated reals, got '1,a'" in capsys.readouterr().err


def test_solver_failure_exits_2(capsys):
    # the geodesic that transport carries along fails the same way
    for command in ("geodesic", "transport"):
        code = main([command, "--model", "sphere-chart", "--xa", "0.5,0", "--xb", "-0.5,2", "--K", "16", "--tol", "1e-30"])
        assert code == 2
        assert "solver failure: geodesic solve: no convergence, last residual " in capsys.readouterr().err


def test_consistency_exit_codes(capsys):
    assert main(["consistency", "--model", "flat", "--samples", "20"]) == 0
    assert (
        main(
            [
                "consistency",
                "--model",
                "rod-simplified",
                "--n-nodes",
                "16",
                "--samples",
                "3",
                "--tol",
                "1e-30",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_rod_morph_cli(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_rod_csv(circle_rod(16), a)
    save_rod_csv(circle_rod(16, 1.1), b)
    code = main(
        [
            "rod-morph",
            "--curve-a",
            str(a),
            "--curve-b",
            str(b),
            "--K",
            "4",
            "--out",
            str(tmp_path / "morph"),
        ]
    )
    assert code == 0
    assert (tmp_path / "morph" / "morph_summary.csv").exists()
    assert main(["rod-morph", "--curve-a", str(a), "--curve-b", "missing.csv"]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1.0,2.0\n3.0\n", encoding="utf-8")
    assert main(["rod-morph", "--curve-a", str(a), "--curve-b", str(bad)]) == 3
    assert "2 fields" in capsys.readouterr().err
    for tol in ("0", "-1", "nan", "inf"):
        assert main(["rod-morph", "--curve-a", str(a), "--curve-b", str(b), "--tol", tol]) == 3
        assert "newton_tol must be positive and finite" in capsys.readouterr().err
    code = main(["rod-morph", "--curve-a", str(a), "--curve-b", str(b), "--K", "4", "--kind", "full"])
    assert code == 0
    assert "kind=full converged=True" in capsys.readouterr().out
    # N = 32 and a non-circular target, both kinds at the default K
    save_rod_csv(circle_rod(32), a)
    save_rod_csv(random_smooth_rod(32, np.random.default_rng(5), 1.2, amplitude=0.15), b)
    for kind in ("simplified", "full"):
        assert main(["rod-morph", "--curve-a", str(a), "--curve-b", str(b), "--kind", kind]) == 0
        assert f"kind={kind} converged=True" in capsys.readouterr().out


def test_unknown_nested_config_key_exits_3(tmp_path, capsys):
    # the operators run with "solver" too; "op_config" is no config key
    for nested, message in (
        ({"solver": {"init": "linear"}}, "unexpected keyword"),
        ({"op_config": {"solver": {"newton_tol": 1e-9}}}, "unknown config keys: ['op_config']"),
    ):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"model": "flat", **nested}), encoding="utf-8")
        assert main(["converge", "--config", str(path), "--out", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err


def test_only_the_consistency_audit_takes_a_seed(capsys):
    with pytest.raises(SystemExit) as info:
        main(["converge", "--seed", "1"])
    assert info.value.code == 3
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["consistency", "--model", "flat", "--samples", "2", "--seed", "1"]) == 0


def test_non_integer_max_iter_in_a_config_exits_3(tmp_path, capsys):
    # json reads NaN as a float; True is a bool, which Python counts as an int
    for max_iter in ("NaN", "2.5", "true"):
        path = tmp_path / "study.json"
        path.write_text(f'{{"model": "sphere-chart", "solver": {{"max_iter": {max_iter}}}}}', encoding="utf-8")
        assert main(["geodesic", "--config", str(path), "--K", "8"]) == 3, max_iter
        assert "max_iter must be an integer of at least 1" in capsys.readouterr().err


def test_non_number_newton_tol_in_a_config_exits_3(tmp_path, capsys):
    # true would otherwise be a tolerance of 1.0, and a string fail to compare
    for tol in ("true", '"1e-9"'):
        path = tmp_path / "study.json"
        path.write_text(f'{{"model": "sphere-chart", "solver": {{"newton_tol": {tol}}}}}', encoding="utf-8")
        assert main(["geodesic", "--config", str(path), "--K", "4"]) == 3, tol
        assert "newton_tol must be positive and finite" in capsys.readouterr().err


def test_step_count_below_one_exits_3(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_rod_csv(circle_rod(8), a)
    save_rod_csv(circle_rod(8, 1.1), b)
    flat = ["--model", "flat", "--xa", "0,0"]
    base = {
        "geodesic": [*flat, "--xb", "1,0"],
        "log": [*flat, "--xb", "1,0"],
        "exp": [*flat, "--zeta", "0.25,0"],
        "transport": [*flat, "--xb", "1,1", "--w", "0.5,0"],
        "rod-morph": ["--curve-a", str(a), "--curve-b", str(b)],
    }
    for command, extra in base.items():
        for K in ("0", "-2"):
            argv = [command, *extra, "--K", K]
            assert main(argv) == 3, argv
            assert "K must be at least 1" in capsys.readouterr().err


def test_consistency_rejects_nonpositive_samples(capsys):
    for samples in ("0", "-3"):
        assert main(["consistency", "--model", "flat", "--samples", samples]) == 3
        assert "samples must be at least 1" in capsys.readouterr().err


def test_consistency_rejects_negative_or_nan_tol(capsys):
    for tol in ("-1", "nan"):
        assert main(["consistency", "--model", "flat", "--samples", "2", "--tol", tol]) == 3
        assert "tol must be nonnegative" in capsys.readouterr().err


def test_tol_overrides_only_the_tolerance_of_a_config(tmp_path):
    from geocalc.cli import _build_parser, _study_config

    cfg = {
        "model": "flat",
        "solver": {"damping": "armijo", "max_iter": 7},
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    args = _build_parser().parse_args(["converge", "--config", str(path), "--tol", "1e-9"])
    study = _study_config(args)
    assert (study.solver.newton_tol, study.solver.damping, study.solver.max_iter) == (1e-9, "armijo", 7)
    for tol in ("0", "nan", "inf"):
        assert main(["converge", "--config", str(path), "--tol", tol]) == 3


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("consistency", "--xa", "1,0"),
        ("consistency", "--xb", "1,0"),
        ("consistency", "--K", "4"),
        ("consistency", "--out", "out"),
        ("consistency", "--config", "study.json"),
        ("converge", "--K", "4"),
        ("log", "--out", "out"),
        ("exp", "--xb", "1,0"),
        ("exp", "--out", "out"),
    ],
)
def test_a_command_offers_only_the_options_it_reads(command, option, value, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, option, value])
    assert info.value.code == 3
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


def test_exp_takes_no_end_point(capsys):
    from geocalc import discrete_exp
    from geocalc.harness import build_backend

    # the default end point is 2-d, and exp no longer checks it against xa
    assert main(["exp", "--model", "sdf-sphere", "--xa", "1,0,0", "--zeta", "0,0.1,0", "--K", "4"]) == 0
    backend = build_backend("sdf-sphere")
    end = discrete_exp([1.0, 0.0, 0.0], np.array([0.0, 0.1, 0.0]), 4, backend.model, constraint=backend.constraint)
    out = capsys.readouterr().out
    assert out.splitlines() == ["exp model=sdf-sphere K=4", "endpoint = " + ",".join(repr(float(v)) for v in end)]


def test_a_config_with_only_a_start_point_serves_exp(tmp_path, capsys):
    path = tmp_path / "start.json"
    path.write_text(json.dumps({"model": "sdf-sphere", "xa": [1.0, 0.0, 0.0]}), encoding="utf-8")
    assert main(["exp", "--config", str(path), "--zeta", "0,0.1,0", "--K", "4"]) == 0
    assert capsys.readouterr().out.startswith("exp model=sdf-sphere K=4\nendpoint = ")


def test_consistency_takes_no_config(tmp_path, capsys):
    # it audited flat whatever the file said
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps({"model": "sphere-chart"}), encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["consistency", "--config", str(path)])
    assert info.value.code == 3


def test_an_option_over_a_malformed_config_field_exits_3(tmp_path, capsys):
    # --k-min keeps the file's hi and --tol the file's other solver settings,
    # so the file's field is still read, and still rejected
    for config, option, message in (
        ({"k_exponents": 5}, ["--k-min", "2"], "k_exponents must be a pair of integers [lo, hi], got 5"),
        ({"k_exponents": [1]}, ["--k-max", "3"], "k_exponents must be a pair of integers [lo, hi], got [1]"),
        ({"k_exponents": [1.5, 3]}, ["--k-min", "2"], "k_exponents must be a pair of integers"),
        ({"solver": "armijo"}, ["--tol", "1e-9"], "solver must be a SolverConfig, got 'armijo'"),
        ({"solver": [1e-9]}, ["--tol", "1e-9"], "solver must be a SolverConfig, got [1e-09]"),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["converge", "--config", str(path), "--out", str(tmp_path), *option]) == 3, config
        assert message in capsys.readouterr().err
    for config in ([1, 2], ["model"], 5, "flat"):
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["converge", "--config", str(path), "--tol", "1e-9"]) == 3, config
        assert "config file must hold a JSON object" in capsys.readouterr().err


def test_k_bounds_override_one_end_of_the_config_pair(tmp_path):
    from geocalc.cli import _build_parser, _study_config

    path = tmp_path / "study.json"
    path.write_text(json.dumps({"model": "flat", "k_exponents": [2, 6]}), encoding="utf-8")
    for flags, expected in ((["--k-min", "3"], range(3, 7)), (["--k-max", "4"], range(2, 5)), ([], range(2, 7))):
        args = _build_parser().parse_args(["converge", "--config", str(path), *flags])
        assert _study_config(args).k_exponents == tuple(expected), flags
    args = _build_parser().parse_args(["converge", "--k-max", "3"])
    assert _study_config(args).k_exponents == (1, 2, 3)
