import copy
import csv
import json
import shutil
import subprocess

import pytest

from fracstab.cli import main
from oracles import load_ml_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as handle:
        rows = [r for r in csv.reader(handle) if not r[0].startswith("#")]
    return rows[0], rows[1:]


ZERO_DOC = {
    "order": {"alpha": 0.5, "beta": 1.0},
    "domain": {"T": 1.0, "n": 33},
    "functions": {"psi": "t", "f": "0", "k": "0"},
    "constants": {"sigma": 0.0, "L_f": 0.0, "L_k": 0.0},
}


# ---------------------------------------------------------------------------
# solve


def test_solve_zero_problem(capsys, write_config, tmp_path):
    out = str(tmp_path / "solution.csv")
    code, stdout, _ = run(capsys, "solve", "--config", write_config(ZERO_DOC), "--out", out)
    assert code == 0
    assert "iterations: 1" in stdout
    assert "final residual: 0" in stdout
    header, rows = read_csv(out)
    assert header == ["t", "psi_t", "u0"]
    assert len(rows) == 33
    assert all(r[2] == "0" for r in rows)
    assert rows[0][0] == "0" and rows[-1][0] == "1"


def test_solve_matches_series_oracle(capsys, problems_dir, tmp_path):
    out = str(tmp_path / "ml.csv")
    code, _, _ = run(
        capsys, "solve",
        "--config", str(problems_dir / "mittag_leffler.json"),
        "--out", out, "--n", "513",
    )
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 513
    ts, us = load_ml_oracle()
    for j, (t_ref, u_ref) in enumerate(zip(ts, us)):
        t, _, u0 = (float(x) for x in rows[16 * j])
        assert t == pytest.approx(t_ref, abs=1e-15)
        assert abs(u0 - u_ref) <= 1e-3


def test_solve_n_override_row_count(capsys, problems_dir, tmp_path):
    out = str(tmp_path / "s.csv")
    code, _, _ = run(
        capsys, "solve",
        "--config", str(problems_dir / "hu_linear.json"),
        "--out", out, "--n", "65",
    )
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 65


def test_solve_singular_prefactor_comment(capsys, problems_dir, tmp_path):
    out = str(tmp_path / "g.csv")
    code, _, _ = run(
        capsys, "solve",
        "--config", str(problems_dir / "hu_gamma_half.json"),
        "--out", out, "--n", "65",
    )
    assert code == 0
    text = open(out).read()
    assert "# node 0 is a display placeholder" in text


def test_solve_regular_prefactor_no_comment(capsys, problems_dir, tmp_path):
    out = str(tmp_path / "s.csv")
    run(capsys, "solve", "--config", str(problems_dir / "hu_linear.json"),
        "--out", out, "--n", "65")
    assert "#" not in open(out).read()


def test_solve_nonconvergence_exits_2(capsys, write_config, tmp_path, base_hu_doc):
    base_hu_doc["solver"] = {"max_iter": 1, "tol": 1e-10}
    out = str(tmp_path / "s.csv")
    code, _, stderr = run(
        capsys, "solve", "--config", write_config(base_hu_doc), "--out", out
    )
    assert code == 2
    assert "did not converge" in stderr


def test_solve_divergent_problem_exits_2(capsys, write_config, tmp_path):
    doc = copy.deepcopy(ZERO_DOC)
    doc["functions"]["f"] = "3*u"
    doc["constants"]["sigma"] = 1.0
    doc["constants"]["L_f"] = 3.0
    code, _, stderr = run(
        capsys, "solve", "--config", write_config(doc),
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 2
    assert "hypothesis failure" in stderr


def test_solve_deterministic_bytes(capsys, problems_dir, tmp_path):
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    config = str(problems_dir / "hu_linear.json")
    run(capsys, "solve", "--config", config, "--out", out_a, "--n", "129")
    run(capsys, "solve", "--config", config, "--out", out_b, "--n", "129")
    assert open(out_a, "rb").read() == open(out_b, "rb").read()


# ---------------------------------------------------------------------------
# input errors (exit 1)


def test_missing_config_file(capsys, tmp_path):
    code, _, stderr = run(
        capsys, "solve", "--config", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "error" in stderr


@pytest.mark.parametrize("flag", ["--config", "--out"])
def test_unreadable_path_is_an_input_error(capsys, problems_dir, tmp_path, flag):
    paths = {"--config": str(problems_dir / "hu_linear.json"), "--out": str(tmp_path / "s.csv")}
    paths[flag] = str(tmp_path)  # a directory: open() raises IsADirectoryError
    code, _, stderr = run(
        capsys, "solve", "--config", paths["--config"], "--out", paths["--out"], "--n", "17"
    )
    assert code == 1
    assert "error" in stderr


@pytest.mark.parametrize(
    "problem, section, key, value",
    [
        ("hur_exp", "constants", "L_f", float("nan")),
        ("hu_linear", "constants", "epsilon", float("nan")),
        ("hu_linear", "domain", "T", float("inf")),
        ("hu_linear", "domain", "T", 10**400),  # an integer no float can hold
    ],
)
def test_non_finite_number_rejected(capsys, problems_dir, write_config, tmp_path,
                                    problem, section, key, value):
    doc = json.loads((problems_dir / f"{problem}.json").read_text())
    doc[section][key] = value  # json.dumps writes NaN / Infinity, which json accepts
    code, _, stderr = run(
        capsys, "verify", "--config", write_config(doc), "--out", str(tmp_path / "c.json")
    )
    assert code == 1
    assert f"'{section}.{key}' must be a finite number" in stderr


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _, stderr = run(
        capsys, "solve", "--config", str(path), "--out", str(tmp_path / "s.csv")
    )
    assert code == 1
    assert "not valid JSON" in stderr


def test_unknown_key_rejected_by_name(capsys, write_config, tmp_path, base_hu_doc):
    base_hu_doc["order"]["alpha_"] = 0.5
    code, _, stderr = run(
        capsys, "solve", "--config", write_config(base_hu_doc),
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "alpha_" in stderr


def test_unknown_section_rejected(capsys, write_config, tmp_path, base_hu_doc):
    base_hu_doc["extras"] = {}
    code, _, stderr = run(
        capsys, "solve", "--config", write_config(base_hu_doc),
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "extras" in stderr


def test_missing_required_key(capsys, write_config, tmp_path, base_hu_doc):
    del base_hu_doc["constants"]["sigma"]
    code, _, stderr = run(
        capsys, "solve", "--config", write_config(base_hu_doc),
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "sigma" in stderr


def test_syntax_error_in_expression(capsys, write_config, tmp_path, base_hu_doc):
    base_hu_doc["functions"]["f"] = "-u/"
    code, _, stderr = run(
        capsys, "solve", "--config", write_config(base_hu_doc),
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "functions.f" in stderr


def test_unknown_variable_in_expression(capsys, write_config, tmp_path, base_hu_doc):
    base_hu_doc["functions"]["psi"] = "t + u"
    code, _, stderr = run(
        capsys, "solve", "--config", write_config(base_hu_doc),
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "u" in stderr


def test_bad_order_rejected(capsys, write_config, tmp_path, base_hu_doc):
    base_hu_doc["order"]["alpha"] = 1.5
    code, _, stderr = run(
        capsys, "solve", "--config", write_config(base_hu_doc),
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "alpha" in stderr


def test_verify_requires_a_bound_mode(capsys, problems_dir, tmp_path):
    # solve-only problem: neither envelope nor epsilon present
    code, _, stderr = run(
        capsys, "verify", "--config", str(problems_dir / "mittag_leffler.json"),
        "--out", str(tmp_path / "c.json"), "--n", "65",
    )
    assert code == 1
    assert "error" in stderr


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--out", "x.csv"])  # --config missing
    assert excinfo.value.code == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_certifies_shipped_problem(capsys, problems_dir, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, stdout, _ = run(
        capsys, "verify", "--config", str(problems_dir / "hu_linear.json"),
        "--out", str(cert_path), "--n", "257",
    )
    assert code == 0
    assert "certified: true" in stdout
    assert "empirical max deviation:" in stdout
    doc = json.loads(cert_path.read_text())
    assert doc["certified"] is True
    assert doc["mode"] == "HU"
    assert doc["perturbations_tested"] == 20
    header, rows = read_csv(tmp_path / "cert.csv")
    assert header == ["t", "u0", "bound", "worst_deviation"]
    assert len(rows) == 257
    # deviations recorded in the companion stay under the certified bound
    bound = doc["bound"]["max"]
    assert all(float(r[3]) <= bound + doc["slack"] for r in rows[1:])


def test_verify_inflated_lipschitz_exits_2(capsys, write_config, tmp_path, base_hu_doc):
    base_hu_doc["constants"]["L_f"] = 2.0
    cert_path = tmp_path / "cert.json"
    code, _, stderr = run(
        capsys, "verify", "--config", write_config(base_hu_doc),
        "--out", str(cert_path),
    )
    assert code == 2
    assert "hypothesis failure" in stderr
    assert not cert_path.exists()


def test_verify_understated_lipschitz_exits_3(capsys, write_config, tmp_path):
    # positive feedback hidden from the bound: the certificate must refuse
    doc = {
        "order": {"alpha": 0.5, "beta": 1.0},
        "domain": {"T": 1.0, "n": 257},
        "functions": {"psi": "t", "f": "u/2", "k": "0"},
        "constants": {"sigma": 1.0, "L_f": 0.0, "L_k": 0.0, "epsilon": 0.01},
        "verify": {"num_perturbations": 10, "seed": 0},
    }
    cert_path = tmp_path / "cert.json"
    code, stdout, _ = run(
        capsys, "verify", "--config", write_config(doc), "--out", str(cert_path)
    )
    assert code == 3
    assert "certified: false" in stdout
    assert json.loads(cert_path.read_text())["certified"] is False


def test_verify_unconverged_perturbed_solve_exits_3(capsys, write_config, tmp_path,
                                                   base_hu_doc):
    # base and refinement converge within 17 iterations, perturbed solves
    # need up to 19
    base_hu_doc["constants"]["epsilon"] = 100.0
    base_hu_doc["solver"]["max_iter"] = 17
    cert_path = tmp_path / "cert.json"
    code, stdout, _ = run(
        capsys, "verify", "--config", write_config(base_hu_doc),
        "--out", str(cert_path), "--n", "129",
    )
    assert code == 3
    assert "certified: false" in stdout
    doc = json.loads(cert_path.read_text())
    assert doc["certified"] is False
    assert "17 of 20 perturbed solves did not converge within max_iter" in doc["warnings"]


def test_verify_seed_changes_margins_not_bound(capsys, problems_dir, tmp_path):
    config = str(problems_dir / "hu_linear.json")
    docs = []
    for seed in (1, 2):
        path = tmp_path / f"c{seed}.json"
        code, _, _ = run(
            capsys, "verify", "--config", config, "--out", str(path),
            "--seed", str(seed), "--n", "129",
        )
        assert code == 0
        docs.append(json.loads(path.read_text()))
    assert docs[0]["seed"] == 1 and docs[1]["seed"] == 2
    assert docs[0]["bound"] == docs[1]["bound"]
    assert docs[0]["margins"] != docs[1]["margins"]


def test_verify_deterministic_bytes(capsys, problems_dir, tmp_path):
    config = str(problems_dir / "hur_exp.json")
    blobs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        code, _, _ = run(
            capsys, "verify", "--config", config, "--out", str(path), "--n", "129"
        )
        assert code == 0
        blobs.append(path.read_bytes() + (tmp_path / f"{name}.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_verify_companion_path_avoids_collision(capsys, problems_dir, tmp_path):
    out = tmp_path / "cert.csv"  # .csv output would collide with companion
    code, _, _ = run(
        capsys, "verify", "--config", str(problems_dir / "hu_linear.json"),
        "--out", str(out), "--n", "65",
    )
    assert code == 0
    assert out.exists() and (tmp_path / "cert.csv.csv").exists()
    json.loads(out.read_text())  # primary output is still the certificate


def test_verify_singular_prefactor_companion_comment(capsys, problems_dir, tmp_path):
    code, _, _ = run(
        capsys, "verify", "--config", str(problems_dir / "hu_gamma_half.json"),
        "--out", str(tmp_path / "c.json"), "--n", "65",
    )
    assert code == 0
    assert "# node 0" in (tmp_path / "c.csv").read_text()


# ---------------------------------------------------------------------------
# sweep


def sweep_rows(path):
    header, rows = read_csv(path)
    assert header == [
        "param_value", "M", "q", "bound_max", "empirical_max", "certified", "status",
    ]
    return rows


def test_sweep_alpha(capsys, problems_dir, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run(
        capsys, "sweep", "--config", str(problems_dir / "hu_linear.json"),
        "--param", "alpha", "--values", "0.3,0.5,0.7",
        "--out", out, "--n", "129",
    )
    assert code == 0
    rows = sweep_rows(out)
    assert [r[0] for r in rows] == [
        "0.29999999999999999", "0.5", "0.69999999999999996",
    ]
    assert all(r[6] == "ok" and r[5] == "true" for r in rows)
    # contraction factor ordering follows the span constant of each order
    import math

    def factor(alpha):
        return 0.5 / math.gamma(alpha + 1.0)

    qs = [float(r[2]) for r in rows]
    expected = [factor(a) for a in (0.3, 0.5, 0.7)]
    for got, want in zip(qs, expected):
        assert got == pytest.approx(want, rel=1e-12)


def test_sweep_epsilon_bound_scales_linearly(capsys, problems_dir, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run(
        capsys, "sweep", "--config", str(problems_dir / "hu_linear.json"),
        "--param", "epsilon", "--values", "0.01,0.02",
        "--out", out, "--n", "129",
    )
    assert code == 0
    rows = sweep_rows(out)
    assert float(rows[1][3]) / float(rows[0][3]) == 2.0


def test_sweep_invalid_value_continues(capsys, problems_dir, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run(
        capsys, "sweep", "--config", str(problems_dir / "hu_linear.json"),
        "--param", "alpha", "--values", "0.5,1.5",
        "--out", out, "--n", "65",
    )
    assert code == 0
    rows = sweep_rows(out)
    assert rows[0][6] == "ok"
    assert rows[1][6].startswith("invalid value")
    assert rows[1][1:6] == [""] * 5


def test_sweep_non_finite_value_names_the_key(capsys, problems_dir, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run(
        capsys, "sweep", "--config", str(problems_dir / "hu_linear.json"),
        "--param", "epsilon", "--values", "nan", "--out", out, "--n", "65",
    )
    assert code == 0
    rows = sweep_rows(out)
    assert rows[0][6] == "invalid value: 'constants.epsilon' must be a finite number"


def test_grid_too_large_for_memory_is_an_input_error(capsys, base_hu_doc, write_config, tmp_path):
    # a kernel that is not t-separable needs an n x n kernel grid: ~24 TB
    # at n = 10^6
    base_hu_doc["functions"]["k"] = "0.1*exp(s - t)*u"
    base_hu_doc["constants"]["L_k"] = 0.1
    config = write_config(base_hu_doc)
    code, _, err = run(
        capsys, "solve", "--config", config,
        "--out", str(tmp_path / "s.csv"), "--n", "1000000",
    )
    assert code == 1
    assert "kernel grid" in err and "GB" in err and "physical memory" in err
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run(
        capsys, "sweep", "--config", config,
        "--param", "n", "--values", "65,1000000", "--out", out,
    )
    assert code == 0
    rows = sweep_rows(out)
    assert rows[0][6] == "ok"
    assert rows[1][6].startswith("invalid value") and "physical memory" in rows[1][6]


def test_sweep_hypothesis_failure_row(capsys, problems_dir, tmp_path):
    # large T pushes the contraction factor past 1: degenerate denominator
    out = str(tmp_path / "sweep.csv")
    code, _, _ = run(
        capsys, "sweep", "--config", str(problems_dir / "hu_linear.json"),
        "--param", "T", "--values", "1.0,9.0",
        "--out", out, "--n", "65",
    )
    assert code == 0
    rows = sweep_rows(out)
    assert rows[0][6] == "ok"
    assert rows[1][6].startswith("hypothesis failure")


def test_sweep_unknown_param(capsys, problems_dir, tmp_path):
    code, _, stderr = run(
        capsys, "sweep", "--config", str(problems_dir / "hu_linear.json"),
        "--param", "sigma", "--values", "1,2",
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "--param" in stderr


def test_sweep_empty_values(capsys, problems_dir, tmp_path):
    code, _, stderr = run(
        capsys, "sweep", "--config", str(problems_dir / "hu_linear.json"),
        "--param", "alpha", "--values", ",",
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "--values" in stderr


def test_sweep_invalid_base_config_exits_1(capsys, write_config, tmp_path, base_hu_doc):
    base_hu_doc["constants"]["bogus"] = 1.0
    code, _, stderr = run(
        capsys, "sweep", "--config", write_config(base_hu_doc),
        "--param", "alpha", "--values", "0.5",
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 1
    assert "bogus" in stderr


def test_sweep_threaded_matches_serial(capsys, problems_dir, tmp_path, monkeypatch):
    config = str(problems_dir / "hu_linear.json")
    args = ["sweep", "--config", config, "--param", "alpha",
            "--values", "0.3,0.4,0.5,0.6,0.7", "--n", "129"]
    serial = tmp_path / "serial.csv"
    run(capsys, *args, "--out", str(serial))
    monkeypatch.setenv("FRAC_NUM_THREADS", "4")
    threaded = tmp_path / "threaded.csv"
    run(capsys, *args, "--out", str(threaded))
    assert serial.read_bytes() == threaded.read_bytes()


# ---------------------------------------------------------------------------
# installed entry point


def test_sweep_non_integer_thread_count_names_the_variable(
    capsys, problems_dir, tmp_path, monkeypatch
):
    monkeypatch.setenv("FRAC_NUM_THREADS", "abc")
    code, _, stderr = run(
        capsys, "sweep", "--config", str(problems_dir / "hu_linear.json"),
        "--param", "alpha", "--values", "0.5",
        "--out", str(tmp_path / "s.csv"), "--n", "33",
    )
    assert code == 1
    assert stderr == "error: FRAC_NUM_THREADS must be an integer, got 'abc'\n"


@pytest.mark.parametrize("threads", ["0", "-3", ""])
def test_sweep_thread_count_clamped_to_one(capsys, problems_dir, tmp_path, monkeypatch,
                                           threads):
    monkeypatch.setenv("FRAC_NUM_THREADS", threads)
    out = str(tmp_path / "s.csv")
    code, _, _ = run(
        capsys, "sweep", "--config", str(problems_dir / "hu_linear.json"),
        "--param", "alpha", "--values", "0.5", "--out", out, "--n", "33",
    )
    assert code == 0
    assert sweep_rows(out)[0][6] == "ok"


def test_console_script_smoke(problems_dir, tmp_path):
    exe = shutil.which("frac")
    assert exe is not None, "console script 'frac' must be on PATH"
    out = tmp_path / "solution.csv"
    result = subprocess.run(
        [exe, "solve", "--config", str(problems_dir / "hu_linear.json"),
         "--out", str(out), "--n", "65"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "iterations:" in result.stdout
    assert out.exists()
