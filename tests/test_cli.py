import json

from geocalc import circle_rod, save_rod_csv
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


def test_invalid_inputs_exit_3(tmp_path, capsys):
    assert main(["geodesic", "--model", "rod-simplified"]) == 3
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{not json", encoding="utf-8")
    assert main(["converge", "--config", str(bad_cfg)]) == 3
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"modle": "flat"}), encoding="utf-8")
    assert main(["converge", "--config", str(unknown_key)]) == 3
    # endpoints off the constraint surface
    assert main(["geodesic", "--model", "sdf-sphere", "--xa", "1.5,0,0", "--xb", "0,1,0"]) == 3


def test_solver_failure_exits_2(capsys):
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
            "16",
            "--tol",
            "1e-30",
        ]
    )
    assert code == 2


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


def test_non_integer_max_iter_in_a_config_exits_3(tmp_path, capsys):
    # json reads NaN as a float; True is a bool, which Python counts as an int
    for max_iter in ("NaN", "2.5", "true"):
        path = tmp_path / "study.json"
        path.write_text(f'{{"model": "sphere-chart", "solver": {{"max_iter": {max_iter}}}}}', encoding="utf-8")
        assert main(["geodesic", "--config", str(path), "--K", "8"]) == 3, max_iter
        assert "max_iter must be an integer of at least 1" in capsys.readouterr().err


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
