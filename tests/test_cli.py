import json

import pytest

from majorant.cli import main, parse_lambda_spec, parse_poly_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, tmp_path, name, *argv):
    manifest = tmp_path / f"{name}.json"
    code, out, err = run(capsys, *argv, "--json", "--manifest", str(manifest))
    assert code == 0, err
    return json.loads(out), json.loads(manifest.read_text())


# -- parsing -------------------------------------------------------------------


def test_parse_inline_poly():
    P = parse_poly_spec("0:1,1:1,3:-1")
    assert dict(P.terms) == {0: 1 + 0j, 1: 1 + 0j, 3: -1 + 0j}


def test_parse_inline_poly_with_imag():
    P = parse_poly_spec("2:0:1.5")
    assert P.coefficient(2) == 1.5j


def test_parse_poly_file(tmp_path):
    f = tmp_path / "poly.json"
    f.write_text(json.dumps([[0, 1.0, 0.0], [4, -2.0, 1.0]]))
    P = parse_poly_spec(str(f))
    assert P.coefficient(4) == complex(-2.0, 1.0)


def test_parse_poly_reports_position():
    from majorant.cli import UsageError

    with pytest.raises(UsageError, match="token 2"):
        parse_poly_spec("0:1,1:x")
    with pytest.raises(UsageError, match="token 1"):
        parse_poly_spec("zzz")


def test_parse_lambda_inline_and_file(tmp_path):
    assert parse_lambda_spec("3,0,1") == (0, 1, 3)
    f = tmp_path / "lam.json"
    f.write_text("[5, 2, 9]")
    assert parse_lambda_spec(str(f)) == (2, 5, 9)


# -- norm ---------------------------------------------------------------------


def test_norm_even_route(capsys, tmp_path):
    results, manifest = run_json(
        capsys, tmp_path, "n1", "norm", "--poly", "0:1,1:1,3:1", "--p", "4"
    )
    assert results["estimate"]["value"] == 15.0**0.25
    assert results["estimate"]["method"] == "even-exact"
    assert manifest["command"] == "norm"
    assert manifest["results"] == results


def test_norm_single_term(capsys, tmp_path):
    results, _ = run_json(capsys, tmp_path, "n2", "norm", "--poly", "0:1", "--p", "3")
    assert results["estimate"]["value"] == pytest.approx(1.0, rel=1e-12)


def test_norm_flip_beats_all_ones(capsys, tmp_path):
    flip, _ = run_json(
        capsys, tmp_path, "n3", "norm", "--poly", "0:1,1:1,3:-1", "--p", "3"
    )
    ones, _ = run_json(
        capsys, tmp_path, "n4", "norm", "--poly", "0:1,1:1,3:1", "--p", "3"
    )
    assert flip["estimate"]["value"] > ones["estimate"]["value"]


def test_norm_force_quadrature(capsys, tmp_path):
    results, _ = run_json(
        capsys,
        tmp_path,
        "n5",
        "norm",
        "--poly",
        "0:1,1:1,3:1",
        "--p",
        "4",
        "--force-quadrature",
    )
    assert results["estimate"]["method"] == "quadrature"
    assert results["estimate"]["value"] == pytest.approx(15.0**0.25, rel=1e-9)


def test_norm_bad_poly_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "norm", "--poly", "0:1,bad", "--p", "3")
    assert code == 2
    assert "token 2" in err


# -- construct -----------------------------------------------------------------


def test_construct_basic(capsys, tmp_path):
    results, manifest = run_json(capsys, tmp_path, "c1", "construct", "--D", "10", "--k", "2")
    assert (results["D"], results["k"], results["N"]) == (10, 2, 33)
    assert results["lam_size"] == 3**2
    assert results["ratio"] > 1
    assert results["eta"] > 0
    # manifests record the parameters, not the 3^k set and signs
    assert "lambda" not in results and "signs" not in results
    assert manifest["results"] == results


def test_construct_out_of_memory_exits_1(capsys, tmp_path, monkeypatch):
    import majorant.norms

    def no_memory(*args, **kwargs):
        raise MemoryError("cannot allocate the transfer matrix")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(majorant.norms, "norm_transfer", no_memory)
    code, _, err = run(capsys, "construct", "--D", "8", "--k", "2")
    assert code == 1
    assert "numeric failure" in err


def test_construct_large_k_makes_no_quadrature_call(capsys, tmp_path, monkeypatch):
    # Lambda(8, 10) has 59,049 elements and degree ~3.5e9: a quadrature
    # grid for it would not fit in memory.
    import majorant.cli
    import majorant.norms

    calls = []
    real = majorant.norms.norm_quad

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(majorant.norms, "norm_quad", spy)
    monkeypatch.setattr(majorant.cli, "norm_quad", spy)
    results, _ = run_json(capsys, tmp_path, "c10", "construct", "--D", "8", "--k", "10", "--p", "3")
    assert calls == []
    assert results["norm_signed"]["method"] == "transfer"
    assert results["ratio"] > 1 and 0 < results["eta"] < 1 / 18


def test_construct_large_k_even_moments_are_exact(capsys, tmp_path):
    # {0, 1, 3} is Sidon and D = 8 > 6 keeps digit sums from carrying, so
    # both fourth moments are 15^k; at k = 12 the sums have 531,441 terms.
    results, _ = run_json(capsys, tmp_path, "c12", "construct", "--D", "8", "--k", "12", "--p", "4")
    for key in ("norm_all_ones", "norm_signed"):
        est = results[key]
        assert est["method"] == "even-exact"
        assert est["value"] ** 4 == 15**12  # 15^3 is exact, so is its 4th power
    assert results["ratio"] == 1.0


def test_construct_by_target_length(capsys, tmp_path):
    results, _ = run_json(
        capsys, tmp_path, "c2", "construct", "--D", "4", "--N", "16"
    )
    assert results["k"] == 2


def test_construct_rejects_small_base(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "construct", "--D", "3", "--k", "2")
    assert code == 2


def test_construct_requires_exactly_one_of_k_or_n(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "construct", "--D", "10")
    assert code == 2
    code, _, _ = run(capsys, "construct", "--D", "10", "--k", "1", "--N", "40")
    assert code == 2


# -- search --------------------------------------------------------------------


def test_search_signs(capsys, tmp_path):
    results, _ = run_json(
        capsys, tmp_path, "s1", "search", "--lambda", "0,1,3", "--p", "3"
    )
    assert results["best_coeffs"] == [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    assert results["best_ratio"] > 1


def test_search_rejects_a_nonpositive_thread_count(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for bad in ("0", "-2"):
        code, _, err = run(capsys, "search", "--lambda", "0,1,3", "--p", "3", "--threads", bad)
        assert code == 2
        assert err.startswith("error:") and bad in err
    assert not list(tmp_path.iterdir())  # no manifest records the bad value


def test_search_rejects_a_non_integer_thread_env(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MAJORANT_THREADS", "abc")
    code, _, err = run(capsys, "search", "--lambda", "0,1,3", "--p", "3")
    assert code == 2
    assert err.startswith("error:") and "abc" in err


def test_search_phase_ascent_seeded(capsys, tmp_path):
    a, _ = run_json(
        capsys,
        tmp_path,
        "s2",
        "search",
        "--lambda",
        "0,1,3",
        "--p",
        "3",
        "--method",
        "phase-ascent",
        "--restarts",
        "3",
        "--seed",
        "7",
    )
    b, _ = run_json(
        capsys,
        tmp_path,
        "s3",
        "search",
        "--lambda",
        "0,1,3",
        "--p",
        "3",
        "--method",
        "phase-ascent",
        "--restarts",
        "3",
        "--seed",
        "7",
    )
    assert a == b


# -- lemma ---------------------------------------------------------------------


def test_lemma_brackets(capsys, tmp_path):
    results, _ = run_json(
        capsys,
        tmp_path,
        "l1",
        "lemma",
        "--poly",
        "0:1,1:1,3:1",
        "--alpha",
        "3",
        "--D",
        "256",
        "--delta",
        "0.2",
    )
    assert results["lower"] <= results["target"] <= results["upper"]
    assert results["certified"]


def test_lemma_small_alpha_needs_best_effort(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        capsys, "lemma", "--poly", "0:1,1:1", "--alpha", "0.5",
        "--D", "64", "--delta", "0.1",
    )
    assert code == 2
    results, _ = run_json(
        capsys, tmp_path, "l2", "lemma", "--poly", "0:1,1:1", "--alpha", "0.5",
        "--D", "64", "--delta", "0.1", "--best-effort",
    )
    assert not results["certified"]


def test_lemma_numeric_failure_exits_1(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(
        capsys, "lemma", "--poly", "0:1,1:1,3:1", "--alpha", "3",
        "--D", "8", "--delta", "1e-12",
    )
    assert code == 1
    assert "numeric failure" in err


# -- bounds --------------------------------------------------------------------


def test_bounds_single_instance(capsys, tmp_path):
    results, _ = run_json(
        capsys,
        tmp_path,
        "b1",
        "bounds",
        "--lambda",
        "0,1,3",
        "--coeffs",
        "0:1,1:1,3:-1",
    )
    row = results["instances"][0]
    for key in (
        "slack_interpolation",
        "slack_monotonicity",
        "slack_sup_step",
        "slack_combined",
    ):
        assert row[key] >= -1e-8
    assert results["exponent_p3"] == "1/18"


def test_bounds_random_batch_csv(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "bounds", "--random", "5", "--seed", "3", "--csv",
        "--manifest", str(tmp_path / "b2.json"),
    )
    assert code == 0, err
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) == 6  # header + one row per instance


def test_bounds_computes_each_cube_norm_once(capsys, tmp_path, monkeypatch):
    import majorant.bounds

    calls = []
    real = majorant.bounds.norm_quad

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(majorant.bounds, "norm_quad", counting)
    results, _ = run_json(capsys, tmp_path, "b3", "bounds", "--random", "6", "--seed", "2")
    assert len(calls) == 2 * 6  # ||F||_3 and ||Ta||_3, once per instance
    for row in results["instances"]:
        assert row["proposition_constant"] == row["implied_constant"]

    far, _ = run_json(
        capsys, tmp_path, "b4", "bounds", "--lambda", "0,1,3", "--coeffs", "0:1,1:1,3:-1",
        "--N", "300",
    )
    row = far["instances"][0]
    assert row["proposition_constant"] < row["implied_constant"]


def test_bounds_requires_lambda_or_random(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "bounds")
    assert code == 2


# -- report and manifests ---------------------------------------------------------


def test_report_reproduces_summary(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    code, live_out, _ = run(
        capsys, "norm", "--poly", "0:1,1:1,3:1", "--p", "4",
        "--manifest", str(manifest),
    )
    assert code == 0
    code, replay_out, _ = run(capsys, "report", str(manifest))
    assert code == 0
    assert live_out.strip() == replay_out.strip()


def test_report_csv_mode(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    run(capsys, "norm", "--poly", "0:1", "--p", "2", "--manifest", str(manifest))
    code, out, _ = run(capsys, "report", str(manifest), "--csv")
    assert code == 0
    assert out.splitlines()[0].startswith("file,command")


def test_report_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "report", str(tmp_path / "nope.json"))
    assert code == 2


def test_manifest_contains_required_fields(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    run(
        capsys, "construct", "--D", "10", "--k", "1",
        "--manifest", str(manifest),
    )
    doc = json.loads(manifest.read_text())
    assert set(doc) == {
        "command",
        "parameters",
        "seed",
        "tool_version",
        "timestamp",
        "results",
    }
    assert doc["parameters"]["D"] == 10
    assert doc["seed"] == 0


def test_usage_error_from_argparse(capsys):
    code = main(["norm", "--p", "3"])  # missing --poly
    capsys.readouterr()
    assert code == 2


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "majorant" in out
