import json
import math

import numpy as np
import pytest

from beamwkb.model import (CoefficientSet, ConfigError, RunSpec,
                           config_from_dict, config_to_dict, eval_coefficient,
                           load_config, taylor_at_zero)
from dense_forms import save_config


def test_uniform_config_valid():
    c = CoefficientSet(a=-1.0, b=1.0, k0=(1.0,), k1=(), k2=(), p=(1.0,),
                       q=(1.0,))
    assert c.k0 == (1.0,)


def test_q_not_positive_rejected():
    with pytest.raises(ConfigError, match="q not positive"):
        CoefficientSet(a=-1.0, b=1.0, k0=(1.0,), q=(0.0,))


def test_positivity_minimum_at_interior_critical_point():
    # q(5e-4) = -1e-9 is the minimum, at the root of q'
    with pytest.raises(ConfigError, match=r"q not positive: q\(0\.0005\)"):
        CoefficientSet(a=-1.0, b=1.0, q=(1.5e-9, -1e-5, 1e-2))


def test_positivity_report_names_point():
    # k0 = 1 - x dips negative on (1, 2]: the diagnostic carries the sample
    with pytest.raises(ConfigError, match=r"k0 not positive: k0\("):
        CoefficientSet(a=-1.0, b=2.0, k0=(1.0, -1.0))


def test_k2_may_touch_zero_but_not_negative():
    CoefficientSet(a=-1.0, b=1.0, k0=(1.0,), k2=(0.0, 0.0, 1.0))
    with pytest.raises(ConfigError, match="k2 negative"):
        CoefficientSet(a=-1.0, b=1.0, k0=(1.0,), k2=(-0.5,))


def test_delta_guard_band():
    with pytest.raises(ConfigError, match="guard band"):
        RunSpec(delta=math.pi / 2)
    with pytest.raises(ConfigError, match="guard band"):
        RunSpec(delta=3 * math.pi / 2 + 0.05)
    RunSpec(delta=math.pi / 2 + 0.2)    # outside the band


def test_runspec_validation():
    with pytest.raises(ConfigError):
        RunSpec(n_max=-1)
    with pytest.raises(ConfigError):
        RunSpec(l_range=(5, 2))
    with pytest.raises(ConfigError):
        RunSpec(mode_index=0)


def test_inner_grid_holds_a_choppable_series():
    # inner.chop finds no plateau on fewer than 17 coefficients
    with pytest.raises(ConfigError, match="inner_grid too coarse"):
        RunSpec(inner_grid=16)
    RunSpec(inner_grid=17)


@pytest.mark.parametrize("key, value", [
    ("n_max", True), ("n_max", "3"), ("delta", "0.3"), ("delta", np.True_),
    ("a", True), ("k0", ["1"]), ("q", [1.0, False]),
])
def test_wrong_json_type_rejected(key, value):
    with pytest.raises(ConfigError, match=f"invalid value for {key!r}"):
        config_from_dict({"a": -1.0, "b": 1.0, key: value})


def test_integral_and_numpy_values_accepted():
    coeffs, run = config_from_dict({
        "a": np.float32(-1.0), "b": 1, "k0": np.array([1.0, 0.25]),
        "n_max": 3.0, "l_range": [np.int64(6), 18.0],
        "mode_index": np.float64(1.0), "inner_grid": np.int32(64)})
    assert (coeffs.a, coeffs.b, coeffs.k0) == (-1.0, 1.0, (1.0, 0.25))
    assert (run.n_max, run.l_range, run.mode_index, run.inner_grid) == \
        (3, (6, 18), 1, 64)
    assert all(type(v) is int for v in (run.n_max, *run.l_range,
                                        run.mode_index, run.inner_grid))


# former settings and their only values, now constants of the package
RETIRED_SETTINGS = {"m": 8, "tolerances": {}, "oracle_nodes_per_wavelength": 20,
                    "oracle_outer_h": 1.0 / 96.0}


@pytest.mark.parametrize("key", list(RETIRED_SETTINGS))
def test_retired_setting_is_unknown_key(key):
    with pytest.raises(ConfigError,
                       match=rf"unknown configuration keys: \['{key}'\]"):
        config_from_dict({"a": -1.0, "b": 1.0, key: RETIRED_SETTINGS[key]})


def test_taylor_examples():
    assert taylor_at_zero((1.0,), 3) == [1.0, 0.0, 0.0, 0.0]
    assert taylor_at_zero((1.0, 2.0), 2) == [1.0, 2.0, 0.0]
    assert taylor_at_zero((2.0, 0.0, 1.0), 2) == [2.0, 0.0, 1.0]


def test_eval_examples():
    assert eval_coefficient((1.0,), 0.5, 0) == 1.0
    assert eval_coefficient((1.0, 2.0), 0.0, 1) == 2.0
    assert eval_coefficient((2.0, 0.0, 1.0), -1.0, 0) == 3.0
    assert eval_coefficient((), 0.3, 0) == 0.0
    assert eval_coefficient((1.0, 2.0), 0.0, 5) == 0.0


@pytest.mark.parametrize("coeff", [
    (1.0,), (1.0, 2.0, -0.5), (0.1 + 0.2, 1 / 3, 2 / 7, 1e-3),
])
def test_taylor_matches_derivatives(coeff):
    tay = taylor_at_zero(coeff, 6)
    for j in range(7):
        expect = eval_coefficient(coeff, 0.0, j)
        assert tay[j] * math.factorial(j) == pytest.approx(expect, rel=0,
                                                           abs=1e-15)


def test_config_roundtrip_bit_exact(tmp_path):
    coeffs = CoefficientSet(a=-1.0, b=0.8, k0=(1.0, 1 / 3), k1=(0.1 + 0.2,),
                            k2=(), p=(1.0, 0.0, 2 / 7), q=(1.0, 0.0, 0.2))
    run = RunSpec(delta=0.3, n_max=2, l_range=(5, 20), mode_index=1)
    path = tmp_path / "cfg.json"
    save_config(coeffs, run, path)
    c2, r2 = load_config(path)
    assert c2.k0 == coeffs.k0 and c2.k1 == coeffs.k1
    assert c2.p == coeffs.p and c2.q == coeffs.q
    assert r2.delta == run.delta and r2.l_range == run.l_range
    # second trip is byte-identical
    path2 = tmp_path / "cfg2.json"
    save_config(c2, r2, path2)
    assert path.read_bytes() == path2.read_bytes()


CONFIG_KEY_ORDER = [
    "a", "b", "k0", "k1", "k2", "p", "q",
    "delta", "n_max", "l_range", "mode_index", "outer_grid", "inner_grid",
]


@pytest.mark.parametrize("name", ["uniform_artifact", "asym_artifact",
                                  "variable_artifact"])
def test_config_dict_roundtrip_and_key_order(name, request):
    # artifact bytes follow the key order, so it is part of the format
    art = request.getfixturevalue(name)
    data = config_to_dict(art.coeffs, art.run)
    assert config_from_dict(data) == (art.coeffs, art.run)
    assert list(data) == CONFIG_KEY_ORDER


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be an object"):
        load_config(arr)
    with pytest.raises(ConfigError, match="unknown configuration keys"):
        config_from_dict({"a": -1, "b": 1, "k0": [1], "bogus": 1})
    with pytest.raises(ConfigError, match="missing configuration key"):
        config_from_dict({"b": 1.0})


def test_delta_in_guard_band_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"a": -1.0, "b": 1.0, "k0": [1.0],
                                "delta": math.pi / 2}))
    with pytest.raises(ConfigError, match="guard band"):
        load_config(path)


def test_coefficient_accessors_vectorized():
    c = CoefficientSet(a=-1.0, b=1.0, k0=(2.0, 1.0), q=(2.0, 0.0, 1.0))
    xs = np.array([-1.0, 0.0, 0.5])
    assert np.allclose(c.k0_at(xs), 2.0 + xs)
    assert np.allclose(c.q_at(xs, 1), 2.0 * xs)
