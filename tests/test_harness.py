import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from beamwkb import (CSV_HEADER, build_expansion, cli, emit_report, fit_rate,
                     harness, inner, load_artifact, oracle, run_convergence,
                     save_artifact)
from beamwkb.harness import artifact_to_dict, drop_one_spread
from beamwkb.model import RunSpec, config_from_dict, load_config
from dense_forms import (drop_one_spread_loop, outer_value_per_order,
                         save_artifact_streaming, save_config)


def test_build_is_deterministic(uniform_coeffs):
    run = RunSpec(delta=0.0, n_max=1, l_range=(6, 12), outer_grid=128,
                  inner_grid=64)
    a1 = build_expansion(uniform_coeffs, run)
    a2 = build_expansion(uniform_coeffs, run)
    assert json.dumps(artifact_to_dict(a1)) == json.dumps(artifact_to_dict(a2))


def test_nmax_zero_contents(uniform_coeffs):
    run = RunSpec(delta=0.0, n_max=0, l_range=(6, 12), outer_grid=128,
                  inner_grid=64)
    art = build_expansion(uniform_coeffs, run)
    assert len(art.lambdas) == 1
    assert len(art.f_beta) == 1            # f0 is always constructible
    assert art.l0 >= 1 and len(art.outer_left) == 1


def test_nmax_one_lambda1(uniform_coeffs, closed_form_mode):
    run = RunSpec(delta=0.0, n_max=1, l_range=(6, 12), outer_grid=256,
                  inner_grid=64)
    art = build_expansion(uniform_coeffs, run)
    assert art.lambdas[1] == pytest.approx(closed_form_mode["vpp"] ** 2,
                                           rel=1e-7)


def test_artifact_roundtrip(tmp_path, uniform_artifact):
    path = tmp_path / "art.json"
    save_artifact(uniform_artifact, path)
    art2 = load_artifact(path)
    assert art2.lambdas == uniform_artifact.lambdas
    # the loader rebuilds each side's mesh from the config, node for node
    for key in ("outer_left", "outer_right"):
        for got, built in zip(getattr(art2, key), getattr(uniform_artifact, key)):
            if built is not None:
                assert np.array_equal(got.nodes, built.nodes)
    xs = np.array([-0.7, -0.3, 0.2, 0.6])
    eps = uniform_artifact.epsilon(12)
    np.testing.assert_array_equal(
        art2.outer_value(xs, eps, 1), uniform_artifact.outer_value(xs, eps, 1))
    xi = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(
        art2.inner_value(xi, eps, 1), uniform_artifact.inner_value(xi, eps, 1),
        rtol=1e-14)
    # a second save is byte-identical
    path2 = tmp_path / "art2.json"
    save_artifact(art2, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("version", [1, 2])
def test_old_schema_artifact_rejected(tmp_path, uniform_artifact, version):
    # version 2 stored each term's mesh and a second delta; no reader for
    # an earlier layout is kept
    data = artifact_to_dict(uniform_artifact)
    data["schema_version"] = version
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError,
                       match=f"unsupported schema_version {version}"):
        load_artifact(path)


@pytest.mark.parametrize("name", ["uniform_artifact", "variable_artifact"])
def test_save_artifact_matches_streaming_json(tmp_path, name, request):
    art = request.getfixturevalue(name)
    save_artifact(art, tmp_path / "one_shot.json")
    save_artifact_streaming(art, tmp_path / "streaming.json")
    assert (tmp_path / "one_shot.json").read_bytes() == \
        (tmp_path / "streaming.json").read_bytes()


@pytest.mark.parametrize("name", ["uniform_artifact", "asym_artifact",
                                  "variable_artifact"])
def test_outer_value_matches_per_order_sum(name, request):
    art = request.getfixturevalue(name)
    a, b = art.coeffs.a, art.coeffs.b
    xs = np.concatenate([np.linspace(a, b, 97), [a, -1e-3, 0.0, 1e-3, b]])
    for l in (8, 20):
        eps = art.epsilon(l)
        for n in range(art.n_max + 1):
            for x in (xs, xs[xs < 0.0]):
                try:
                    ref = outer_value_per_order(art, x, eps, n)
                except inner.MissingDataError:
                    # the mirror-symmetric beam has no order-2 term on (0, b)
                    with pytest.raises(inner.MissingDataError,
                                       match=r"order-2 .* on \(0, b\)"):
                        art.outer_value(x, eps, n)
                    continue
                got = art.outer_value(x, eps, n)
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(got - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("key, field", [("outer_left", "values"),
                                        ("outer_right", "slopes")])
def test_outer_term_off_the_config_mesh_rejected_at_load(tmp_path,
                                                         asym_artifact, key,
                                                         field, capsys):
    # every outer term of a side lives on the one mesh the config gives
    # that side; a file whose order-1 term holds one node too many is
    # refused when it is read, not summed nodewise with the others
    data = artifact_to_dict(asym_artifact)
    data[key][1][field].append(0.0)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=rf"^{key}\[1\] holds"):
        load_artifact(path)
    assert cli.main(["validate", "--artifact", str(path), "--n", "1"]) == 1
    assert f"error: ValueError: {key}[1] holds" in capsys.readouterr().err


def test_lambda_trunc_bounds(uniform_artifact):
    eps = 0.1
    lam = uniform_artifact.lambda_trunc(eps, 2)
    lams = uniform_artifact.lambdas
    assert lam == lams[0] + eps * lams[1] + eps ** 2 * lams[2]
    with pytest.raises(inner.MissingDataError):
        uniform_artifact.lambda_trunc(eps, 3)


def test_delta_independence_of_leading_terms(uniform_coeffs):
    arts = []
    for d in (0.0, 0.5, 1.0, 2.0):
        run = RunSpec(delta=d, n_max=2, l_range=(6, 12), outer_grid=128,
                      inner_grid=64)
        arts.append(build_expansion(uniform_coeffs, run))
    base = arts[0]
    for art in arts[1:]:
        assert art.lambdas[0] == base.lambdas[0]
        assert art.lambdas[1] == base.lambdas[1]
        np.testing.assert_array_equal(art.outer_left[0].values,
                                      base.outer_left[0].values)
        np.testing.assert_array_equal(art.outer_left[1].values,
                                      base.outer_left[1].values)
        # delta enters from f0 and lambda_2 onward
        assert not np.allclose(art.f_beta[0], base.f_beta[0])
        assert art.lambdas[2] != base.lambdas[2]


def test_lambda2_delta_dependence_closed_form(uniform_coeffs, recorded_build):
    # for constant coefficients the angle dependence is exactly
    # lambda2(delta) = lambda2(0) - (s^2 / mu) tan(delta)
    chains = {d: recorded_build(uniform_coeffs, RunSpec(
        delta=d, n_max=2, l_range=(6, 12), outer_grid=128, inner_grid=64))
        for d in (0.0, 0.5, 1.0, 2.0)}
    base = chains[0.0]
    s = base.mode.vpp_minus0
    mu = base.art.lambdas[0] ** 0.25
    for d, chain in chains.items():
        expect = base.art.lambdas[2] - s ** 2 / mu * np.tan(d)
        assert chain.art.lambdas[2] == pytest.approx(expect, rel=1e-9)


def test_fit_rate_contract():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    errs = 3.0 * eps ** 2.5
    slope, intercept, resid = fit_rate(eps, errs)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert resid < 1e-12
    with pytest.raises(ValueError, match=">= 4"):
        fit_rate(eps[:3], errs[:3])
    assert drop_one_spread(eps, errs) < 1e-10


def test_drop_one_spread_matches_refit_loop_on_random_data():
    # the closed form against one lstsq refit per row, with rows that the
    # fit masks out (zero, nan) and the 4-row floor where every drop skips;
    # agreement is absolute, in slope units: the refits' differences carry
    # the round-off of two O(1) slopes
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(4, 15))
        eps = np.sort(rng.uniform(0.02, 0.3, n))
        errs = np.exp(rng.uniform(0.5, 4.0) * np.log(eps) +
                      rng.uniform(-1.0, 1.0) + rng.normal(0.0, 0.3, n))
        if trial % 3 == 1:
            errs[rng.integers(n)] = (0.0, np.nan)[trial % 2]
        if np.count_nonzero(np.isfinite(errs) & (errs > 0)) < 4:
            with pytest.raises(ValueError, match=">= 4"):
                drop_one_spread(eps, errs)
            continue
        ref = drop_one_spread_loop(eps, errs)
        assert abs(drop_one_spread(eps, errs) - ref) <= 1e-12


def test_run_convergence_rows_and_window(uniform_artifact):
    rep = run_convergence(uniform_artifact, 1, l_values=range(10, 16))
    assert len(rep.rows) == 6
    assert all(r["valid"] for r in rep.rows)
    assert all(r["in_window"] for r in rep.rows)
    assert "abs_err" in rep.fits


def test_run_convergence_fit_refused_below_four_rows(uniform_artifact):
    rep = run_convergence(uniform_artifact, 1, l_values=range(10, 13))
    assert rep.fits == {}


def test_invalid_l_marked_excluded(uniform_artifact):
    rep = run_convergence(uniform_artifact, 0, l_values=[1, 12])
    assert not rep.rows[0]["valid"]
    assert "denominator" in rep.rows[0]["exclude_reason"]
    assert rep.rows[1]["valid"]


def test_unexpected_error_is_not_an_excluded_row(uniform_artifact,
                                                  monkeypatch):
    # only the package's own failure classes exclude a row; a plain
    # ValueError from numpy/scipy (or a bug) must surface
    def broken(*args, **kwargs):
        raise ValueError("injected failure")

    monkeypatch.setattr(oracle, "solve_near", broken)
    with pytest.raises(ValueError, match="injected failure"):
        run_convergence(uniform_artifact, 0, l_values=[12])


def test_monotone_improvement(uniform_artifact):
    rep0 = run_convergence(uniform_artifact, 0, l_values=range(16, 19))
    rep1 = run_convergence(uniform_artifact, 1, l_values=range(16, 19))
    for r0, r1 in zip(rep0.rows, rep1.rows):
        assert r1["abs_err"] <= r0["abs_err"]


def test_emit_report_csv_and_json(tmp_path, uniform_artifact):
    rep = run_convergence(uniform_artifact, 1, l_values=range(10, 16))
    csv_path = tmp_path / "r.csv"
    emit_report(rep, "csv", csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rep.valid_rows())
    json_path = tmp_path / "r.json"
    emit_report(rep, "json", json_path)
    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == 3
    assert payload["fits"]["abs_err"]["slope"] == rep.fits["abs_err"]["slope"]
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(rep, "yaml", tmp_path / "r.yaml")


def test_fit_robustness_invariant(uniform_artifact):
    for n in (0, 1):
        rep = run_convergence(uniform_artifact, n)
        assert rep.fits["abs_err"]["drop_one_spread"] < 0.15


def test_chain_raises_with_stage_index(uniform_coeffs):
    # the symmetric configuration loses the order-2 right-interval term, so
    # the stage-3 interface data cannot be formed; the chain must say where
    run = RunSpec(delta=0.0, n_max=3, l_range=(6, 12), outer_grid=128,
                  inner_grid=64)
    with pytest.raises(harness.ExpansionError, match="stage 3"):
        build_expansion(uniform_coeffs, run)


# asym geometry with q(-1) = 0.01: alpha's series needs more than 128 nodes
STEEP_Q = {"a": -1.0, "b": 0.8, "k0": [1.0], "p": [1.0], "q": [1.0, 0.99],
           "delta": 0.3, "n_max": 3, "l_range": [8, 40], "outer_grid": 256}


def test_under_resolved_inner_series_fails_the_build(tmp_path, capsys):
    config = tmp_path / "steep.json"
    config.write_text(json.dumps({**STEEP_Q, "inner_grid": 128}))
    with pytest.raises(harness.ExpansionError,
                       match=r"inner series S, alpha not .* inner_grid = 128"):
        build_expansion(*load_config(config))
    out = tmp_path / "steep.artifact.json"
    assert cli.main(["expand", "--config", str(config),
                     "--out", str(out)]) == 1
    assert "inner_grid = 128" in capsys.readouterr().err
    assert not out.exists()


def test_unresolved_phase_fails_before_any_transport_solve(monkeypatch):
    # S and alpha are known, and unresolved, as soon as the phase is built
    transport_solve = inner.transport_solve
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return transport_solve(*args, **kwargs)

    monkeypatch.setattr(inner, "transport_solve", recording)
    with pytest.raises(harness.ExpansionError,
                       match=r"inner series S, alpha not .* inner_grid = 128"):
        build_expansion(*config_from_dict({**STEEP_Q, "inner_grid": 128}))
    assert calls == []


def test_loaded_under_resolved_artifact_is_rejected(tmp_path, capsys):
    # an artifact written without the build's resolution check (as by an
    # older build) fails at its first inner evaluation, and validate exits 1
    path = tmp_path / "steep.artifact.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_require_resolved", lambda unresolved, run: None)
        save_artifact(build_expansion(
            *config_from_dict({**STEEP_Q, "inner_grid": 128})), path)
    art = load_artifact(path)
    with pytest.raises(harness.ExpansionError,
                       match=r"inner series S, alpha, .* inner_grid = 128"):
        art.inner_value(np.linspace(-1.0, 1.0, 5), art.epsilon(8), 0)
    assert art.series is None
    assert cli.main(["validate", "--artifact", str(path), "--n", "2",
                     "--l", "8:11"]) == 1
    err = capsys.readouterr().err
    assert "ExpansionError" in err and "inner_grid = 128" in err


def test_steep_density_builds_on_a_finer_inner_grid():
    art = build_expansion(*config_from_dict({**STEEP_Q, "inner_grid": 512}))
    assert len(art.lambdas) == 4
    # the longest chopped series is longer than the 128-node grid holds
    assert 128 < art.series.shape[1] < 512


def test_benchmark_fixture_configs_build(tmp_path, monkeypatch):
    # the benchmark writes every fixture with "inner_grid": 128
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" /
        "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in workloads.FIXTURES:
        config = workloads.write_config(tmp_path, name, workloads.DELTAS[0])
        art = build_expansion(*load_config(config))
        assert art.run.inner_grid == 128
        assert art.n_max == workloads.FIXTURES[name][1]["n_max"]


def test_problem_data_immutable(uniform_coeffs):
    with pytest.raises(dataclasses.FrozenInstanceError):
        uniform_coeffs.a = -2.0
    run = RunSpec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.delta = 1.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture()
def config_path(tmp_path, uniform_coeffs):
    run = RunSpec(delta=0.0, n_max=1, l_range=(10, 14), outer_grid=128,
                  inner_grid=64)
    path = tmp_path / "beam.json"
    save_config(uniform_coeffs, run, path)
    return path


def test_cli_expand_validate_oracle(tmp_path, config_path, capsys):
    art_path = tmp_path / "art.json"
    assert cli.main(["expand", "--config", str(config_path),
                     "--out", str(art_path)]) == 0
    assert art_path.exists()
    csv_path = tmp_path / "rep.csv"
    json_path = tmp_path / "rep.json"
    assert cli.main(["validate", "--artifact", str(art_path), "--n", "1",
                     "--l", "10:14", "--csv", str(csv_path),
                     "--json", str(json_path)]) == 0
    assert csv_path.read_text().startswith(CSV_HEADER)
    assert json.loads(json_path.read_text())["n"] == 1
    art = load_artifact(art_path)
    eps = art.epsilon(12)
    assert cli.main(["oracle", "--config", str(config_path),
                     "--epsilon", repr(eps),
                     "--target", repr(art.lambda_trunc(eps, 1))]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.strip().split("\n")[-1])
    assert payload["gap"] > 0


def test_cli_expand_reports_degeneracy(tmp_path, config_path, capsys):
    # the uniform beam is mirror-symmetric: lambda0 is a double eigenvalue
    art_path = tmp_path / "art.json"
    assert cli.main(["expand", "--config", str(config_path),
                     "--out", str(art_path)]) == 0
    out = capsys.readouterr().out
    assert load_artifact(art_path).diagnostics["degenerate_right"]
    assert "warning: degenerate configuration" in out


def test_cli_sweep_delta(tmp_path, config_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep-delta", "--config", str(config_path),
                     "--deltas", "0,0.5", "--n", "1",
                     "--out-prefix", "sw"]) == 0
    assert (tmp_path / "sw_delta0.csv").exists()
    assert (tmp_path / "sw_delta0.5.json").exists()
    summary = json.loads((tmp_path / "sw_summary.json").read_text())
    lam = [r["lambdas"] for r in summary["results"]]
    assert lam[0][0] == lam[1][0] and lam[0][1] == lam[1][1]


@pytest.mark.parametrize("key, value", [
    ("a", "left"), ("k0", 5), ("n_max", [1]), ("l_range", [1, 2, 3]),
    ("k0", "21"), ("a", "-1"), ("n_max", 1.5), ("l_range", [6.7, 18.9]),
    ("delta", True),
])
def test_cli_rejects_malformed_config_value(tmp_path, config_path, key, value,
                                            capsys):
    # no value is converted to another type: "21" is not the polynomial
    # 2 + x, 1.5 is not 1 and true is not 1.0
    data = json.loads(config_path.read_text())
    data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["expand", "--config", str(bad),
                     "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: invalid value for {key!r}" in err
    assert not (tmp_path / "x.json").exists()


def test_cli_exit_codes(tmp_path, config_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"a": -1.0, "b": 1.0, "k0": [0.0]}))
    assert cli.main(["expand", "--config", str(bad),
                     "--out", str(tmp_path / "x.json")]) == 2
    # q < 0 only near xi = 5e-4, the root of q', where q = -1e-9
    bad.write_text(json.dumps({"a": -1.0, "b": 1.0,
                               "q": [1.5e-9, -1e-5, 1e-2]}))
    assert cli.main(["expand", "--config", str(bad),
                     "--out", str(tmp_path / "x.json")]) == 2
    assert cli.main(["validate", "--artifact", str(tmp_path / "missing.json"),
                     "--n", "0"]) == 1


@pytest.mark.parametrize("n", ["-1", "2"])
def test_cli_validate_rejects_order_outside_artifact(tmp_path, config_path,
                                                     n, capsys):
    # the artifact holds orders 0..1; n = -1 used to end in IndexError and
    # n = 2 in MissingDataError (both exit 1)
    art_path = tmp_path / "art.json"
    assert cli.main(["expand", "--config", str(config_path),
                     "--out", str(art_path)]) == 0
    capsys.readouterr()
    assert cli.main(["validate", "--artifact", str(art_path), "--n", n]) == 2
    assert f"truncation order n={n} outside 0..1" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["-1", "2"])
def test_cli_sweep_delta_rejects_order_outside_n_max(tmp_path, config_path,
                                                     monkeypatch, n, capsys):
    # checked before any build: a build here would exit 1, not 2
    def no_build(*args, **kwargs):
        raise AssertionError("build_expansion called")

    monkeypatch.setattr(harness, "build_expansion", no_build)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep-delta", "--config", str(config_path),
                     "--deltas", "0", "--n", n, "--out-prefix", "sw"]) == 2
    assert f"truncation order n={n} outside 0..1" in capsys.readouterr().err
    assert not (tmp_path / "sw_delta0.csv").exists()


def test_cli_sweep_delta_checks_every_delta_first(tmp_path, config_path,
                                                  monkeypatch, capsys):
    # 1.57 lies in the guard band around pi/2; the delta = 0 sweep used to
    # run and write its reports before the exit
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep-delta", "--config", str(config_path),
                     "--deltas", "0,1.57", "--n", "1",
                     "--out-prefix", "sw"]) == 2
    assert "guard band" in capsys.readouterr().err
    assert not list(tmp_path.glob("sw_*"))


@pytest.mark.parametrize("text, message", [
    ("0,x", "need comma-separated numbers, got '0,x'"),
    (",", "need at least one value, got ','"),
])
def test_cli_sweep_delta_rejects_malformed_deltas(tmp_path, config_path,
                                                  monkeypatch, text, message,
                                                  capsys):
    # "0,x" used to exit 1 with a raw ValueError; "," wrote an empty
    # summary and exited 0
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep-delta", "--config", str(config_path),
                  "--deltas", text, "--out-prefix", "sw"])
    assert exc.value.code == 2
    assert f"argument --deltas: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("sw_*"))


@pytest.mark.parametrize("text", ["12:8", "0:5", "-3"])
def test_cli_rejects_invalid_index_range(tmp_path, text, capsys):
    # lo > hi used to write an empty report and exit 0; the rule is the
    # one RunSpec applies to l_range
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--artifact", str(tmp_path / "art.json"),
                  "--n", "1", "--l", text])
    assert exc.value.code == 2
    assert f"need 1 <= lo <= hi, got {text}" in capsys.readouterr().err


def test_cli_rejects_invalid_oracle_settings(tmp_path, config_path, capsys):
    # an artifact whose config carries a retired key is a configuration
    # error (exit 2), and so is --refine <= 0 (argparse's exit 2), which
    # used to end in ZeroDivisionError (exit 1)
    art_path = tmp_path / "art.json"
    assert cli.main(["expand", "--config", str(config_path),
                     "--out", str(art_path)]) == 0
    data = json.loads(art_path.read_text())
    data["config"]["oracle_outer_h"] = 1.0 / 96.0
    bad = tmp_path / "bad_art.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["validate", "--artifact", str(bad), "--n", "1"]) == 2
    assert "unknown configuration keys: ['oracle_outer_h']" in \
        capsys.readouterr().err
    for refine in ("0", "-1", "nan"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--artifact", str(art_path), "--n", "1",
                      "--refine", refine])
        assert exc.value.code == 2
        assert "--refine: must be positive" in capsys.readouterr().err
