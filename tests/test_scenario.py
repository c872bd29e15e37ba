import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import shintani_forge
from shintani_forge import cones
from shintani_forge.cli import bundled_config_path, main
from shintani_forge.cones import Geometry, _TranslateTable
from shintani_forge.errors import ParseError, UnknownName, UnknownScenario
from shintani_forge.scenario import (
    Runtime,
    exit_code,
    load_config,
    parse_element,
    run_scenario,
    serialize_element,
)


def _run_altered(tmp_path, sid, param, value, drop=None):
    """Run scenario `sid` of the bundled config with one param replaced
    (and the param `drop` removed)."""
    raw = json.loads(bundled_config_path().read_text())
    for sc in raw["scenarios"]:
        if sc["id"] == sid:
            sc["params"][param] = value
            sc["params"].pop(drop, None)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(raw))
    return run_scenario(Runtime(load_config(cfgp)), sid, tmp_path / "out")


def _run_cli(argv, timeout=20):
    """The CLI in a subprocess, so a hang fails the test instead of the run."""
    src = str(Path(shintani_forge.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "shintani_forge.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=timeout,
    )


def _bundled_with(tmp_path, **fields):
    """The bundled config with top-level fields replaced, written to a file."""
    raw = json.loads(bundled_config_path().read_text()) | fields
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(raw))
    return cfgp


class TestParser:
    def test_appendix_g1(self, spec):
        el = parse_element("-96*y^2+152*y+113", {}, spec)
        assert el.coords == (113, 152, -96)

    def test_unit_word(self, spec, els):
        env = {"g1": els["g1"], "g2": els["g2"]}
        assert parse_element("g1^-3*g2^4", env, spec) == els["eps1"]

    def test_power_zero(self, spec):
        assert parse_element("y^0", {}, spec) == spec.one

    def test_division_makes_rationals(self, spec):
        el = parse_element("3/4 + y/2", {}, spec)
        assert el.coords == (Fraction(3, 4), Fraction(1, 2), 0)

    def test_parentheses_and_whitespace(self, spec):
        el = parse_element("  ( 1 + y ) ^ 2 ", {}, spec)
        assert el == (spec.one + spec.y) ** 2

    def test_unary_minus_binds_below_power(self, spec):
        assert parse_element("-y^2", {}, spec) == -(spec.y**2)

    def test_parse_error_carries_position(self, spec):
        with pytest.raises(ParseError) as err:
            parse_element("1 + $", {}, spec)
        assert err.value.position == 4

    def test_trailing_garbage(self, spec):
        with pytest.raises(ParseError):
            parse_element("1 2", {}, spec)

    def test_unknown_name(self, spec):
        with pytest.raises(UnknownName):
            parse_element("nope + 1", {}, spec)

    def test_round_trip_through_serialization(self, spec, els):
        for el in els.values():
            coords = serialize_element(el)
            expr = f"({coords[0]}) + ({coords[1]})*y + ({coords[2]})*y^2"
            assert parse_element(expr, {}, spec) == el


class TestConfig:
    def test_bundled_config_loads(self, config):
        assert config.spec.poly_coeffs == (1, -1, -4, 2)
        assert config.embedding_order == (1, 2, 0)
        assert {s["kind"] for s in config.scenarios} >= {
            "counterexample",
            "construction",
            "case",
            "identities",
            "fdcheck",
            "direction",
            "figures",
            "cover",
        }

    def test_declared_units_have_unit_norm(self, config):
        for name in config.units:
            assert abs(config.elements[name].norm()) == 1

    def test_bad_unit_declaration_rejected(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        raw["elements"]["fake"] = "y"
        raw["units"].append("fake")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ValueError):
            load_config(bad)

    @pytest.mark.parametrize("top", [[], "appendix", 3, None])
    def test_top_level_that_is_no_object_is_config_error(self, tmp_path, capsys, top):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(top))
        got = type(top).__name__
        with pytest.raises(ValueError, match=f"^config must be a JSON object, got {got}$"):
            load_config(cfgp)
        assert main(["verify", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: config must be a JSON object, got {got}\n"

    def test_element_not_totally_positive_is_config_error(self, tmp_path, capsys):
        raw = json.loads(bundled_config_path().read_text())
        cfgp = _bundled_with(
            tmp_path,
            elements=raw["elements"] | {"neg": "1-g1"},
            totally_positive=[*raw["totally_positive"], "neg"],
        )
        with pytest.raises(ValueError, match="'neg' is not totally positive"):
            load_config(cfgp)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfgp), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: 'neg' is not totally positive\n"

    @pytest.mark.parametrize("name", ["window", "Seed"])
    def test_unknown_top_level_field_is_config_error(self, tmp_path, capsys, name):
        # configs once set the translate window, now the constant
        # cones.WINDOW: such a config must not run as if it were obeyed
        cfgp = _bundled_with(tmp_path, **{name: 2})
        with pytest.raises(ValueError, match=f"unknown config field '{name}'"):
            load_config(cfgp)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfgp), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: unknown config field '{name}'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, name, value",
        [("precision", "max_bit", 80), ("field", "poly", [1]), ("scenario", "param", {})],
    )
    def test_unknown_nested_field_is_config_error(self, tmp_path, capsys, section, name, value):
        # a misspelt nested field must not run as if it were absent: a
        # "max_bit" of 80 would leave the cap at 4096 bits
        raw = json.loads(bundled_config_path().read_text())
        if section == "scenario":
            sc = raw["scenarios"][3]
            sc[name] = value
            path = f"scenarios[{sc['id']}].{name}"
        else:
            raw[section][name] = value
            path = f"{section}.{name}"
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"^unknown config field {re.escape(repr(path))}$"):
            load_config(cfgp)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfgp), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: unknown config field '{path}'\n"
        assert not out.exists()

    def test_max_bits_env_override(self, monkeypatch):
        monkeypatch.setenv("SHINTANI_MAX_BITS", "512")
        cfg = load_config(bundled_config_path())
        assert cfg.sign_config.max_bits == 512
        monkeypatch.setenv("SHINTANI_MAX_BITS", " 128")
        assert load_config(bundled_config_path()).sign_config.max_bits == 128

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "SHINTANI_MAX_BITS 'abc' is not an integer"),
            ("10", "SHINTANI_MAX_BITS '10' is below start_bits (64)"),
            ("-5", "SHINTANI_MAX_BITS '-5' is below start_bits (64)"),
        ],
    )
    def test_bad_max_bits_env_is_named(self, monkeypatch, tmp_path, capsys, value, message):
        """A bad SHINTANI_MAX_BITS is a config error naming the variable and
        its value, not the config's cap."""
        monkeypatch.setenv("SHINTANI_MAX_BITS", value)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(bundled_config_path()), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cap", [64, 72, 80, 96, 112, 120])
    def test_cap_below_a_declared_sign_is_named(self, monkeypatch, tmp_path, capsys, cap):
        """Under a cap below 128 bits the bundled pi1 is not certified
        totally positive at load: a config error naming pi1 and the cap."""
        monkeypatch.setenv("SHINTANI_MAX_BITS", str(cap))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(bundled_config_path()), "--out", str(out)]) == 2
        message = f"embeddings not separated from zero at {cap} bits"
        assert capsys.readouterr().err == (
            f"config error: declared totally positive 'pi1' undecided: {message}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("start_bits", True),
            ("start_bits", "64"),
            ("escalation_factor", True),
            ("escalation_factor", "2"),
            ("seed", 1.9),
            ("seed", True),
            ("seed", "1"),
            ("start_bits", 64.0),
            ("max_bits", 4096.0),
            ("max_bits", "4096"),
            ("escalation_factor", 2.0),
            ("embedding_order", [True, 2, False]),
            ("embedding_order", [1, 2, 0.0]),
            ("embedding_order", [1, 2, 2]),
            ("embedding_order", [1, 2]),
            ("embedding_order", "120"),
            ("poly_coeffs", ["1", "-1", "-4", True]),
            ("poly_coeffs", ["1", "-1", "-4", 2.0]),
            ("poly_coeffs", "1 -1 -4 2"),
            ("field", 3),
            ("precision", []),
            ("elements", []),
            ("g1", 5),
            ("units", "g1"),
            ("totally_positive", 5),
            ("scenarios", {}),
        ],
    )
    def test_config_ints_are_checked(self, tmp_path, capsys, name, value):
        raw = json.loads(bundled_config_path().read_text())
        sections = (raw["precision"], raw["field"], raw["elements"])
        section = next((s for s in sections if name in s), raw)
        section[name] = value
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=name):
            load_config(cfgp)
        assert main(["verify", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("expr", ["g1^3000000", "(g1^200)^200", "y^-70000"])
    def test_large_power_is_config_error(self, tmp_path, expr):
        elements = json.loads(bundled_config_path().read_text())["elements"] | {"z": expr}
        cfgp = _bundled_with(tmp_path, elements=elements)
        proc = _run_cli(["verify", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        err = proc.stderr.decode()
        assert err.startswith("config error: power ") and "exceeds 65536 bits" in err

    def test_large_coefficients_load_the_same_field(self, rt, tmp_path):
        coeffs = json.loads(bundled_config_path().read_text())["field"]["poly_coeffs"]
        scaled = {"poly_coeffs": [str(int(c) * 10**15) for c in coeffs]}
        cfgp = _bundled_with(tmp_path, field=scaled)
        out = tmp_path / "out"
        argv = ["classify", "--config", str(cfgp), "--scenario", "case-pi2", "--out", str(out)]
        assert _run_cli(argv).returncode == 0
        report = json.loads((out / "case-pi2.report.json").read_text())
        assert report == run_scenario(rt, "case-pi2", tmp_path / "bundled")

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            # (x - 10^12 - 1)(x^2 - 2)
            ([2 * (10**12 + 1), -2, -(10**12 + 1), 1], "reducible over Q"),
            (["1", "-1", "-4.000000000000001", "2"], "has |norm| != 1"),
        ],
        ids=["reducible", "decimal"],
    )
    def test_large_coefficients_are_checked_quickly(self, tmp_path, coeffs, message):
        cfgp = _bundled_with(tmp_path, field={"poly_coeffs": coeffs})
        proc = _run_cli(["verify", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        err = proc.stderr.decode()
        assert err.startswith("config error: ") and message in err

    def test_unknown_scenario_reports_error(self, rt, tmp_path):
        report = run_scenario(rt, "missing", tmp_path)
        assert report["outcome"] == "ERROR"
        assert "UnknownScenario" in report["evidence"][0]["value"]


class TestReports:
    def test_deterministic_reports(self, rt, tmp_path):
        a = run_scenario(rt, "counterexample", tmp_path / "a")
        b = run_scenario(rt, "counterexample", tmp_path / "b")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_recorded(self, rt, tmp_path):
        rep = run_scenario(rt, "case-pi2", tmp_path, seed=123)
        assert rep["seed"] == 123

    def test_exit_codes(self):
        assert exit_code(["PASS", "PASS"]) == 0
        assert exit_code(["PASS", "FAIL"]) == 1
        assert exit_code(["FAIL", "ERROR"]) == 2
        assert exit_code(["PASS", "INCONCLUSIVE"]) == 3

    def test_failing_scenario_gives_exit_one(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        raw["scenarios"] = [
            {
                "id": "wrong-case",
                "kind": "case",
                "params": {
                    "eps1": "eps1",
                    "eps2": "eps2",
                    "pi": "pi2",
                    "expected": "case2",
                },
            }
        ]
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        rc = main(["classify", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_error_scenario_gives_exit_two(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        raw["scenarios"] = [
            {
                "id": "broken",
                "kind": "case",
                "params": {"eps1": "eps1", "eps2": "eps2", "pi": "nope"},
            }
        ]
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        rc = main(["classify", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_param_gives_error_report(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        for sc in raw["scenarios"]:
            if sc["id"] == "case-pi1":
                del sc["params"]["pi"]
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        out = tmp_path / "out"
        rc = main(["classify", "--config", str(cfgp), "--out", str(out)])
        assert rc == 2
        report = json.loads((out / "case-pi1.report.json").read_text())
        assert report["outcome"] == "ERROR"
        assert report["evidence"] == [{"name": "error", "value": "KeyError: 'pi'"}]
        later = json.loads((out / "case-pi2.report.json").read_text())
        assert later["outcome"] == "PASS"

    @pytest.mark.parametrize(
        "sid, param, value, bound",
        [
            ("fdcheck-B", "samples", 0, "samples >= 1"),
            ("direction", "n_points", 2, "n_points >= 3"),
            ("direction", "l", 0, "l >= 1"),
            ("direction", "l", -1, "l >= 1"),
            ("figures", "n_points", 1, "figures needs n_points >= 2"),
            ("figures", "n_points", 0, "figures needs n_points >= 2"),
        ],
        ids=["samples=0", "n_points=2", "l=0", "l=-1", "figures n_points=1", "figures n_points=0"],
    )
    def test_sample_counts_that_check_nothing_are_errors(
        self, tmp_path, sid, param, value, bound
    ):
        raw = json.loads(bundled_config_path().read_text())
        for sc in raw["scenarios"]:
            if sc["id"] == sid:
                sc["params"][param] = value
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        report = run_scenario(Runtime(load_config(cfgp)), sid, tmp_path / "out")
        assert report["outcome"] == "ERROR"
        assert report["evidence"][0]["value"].startswith("ValueError: ")
        assert bound in report["evidence"][0]["value"]

    @pytest.mark.parametrize(("sid", "param"), [("direction", "l"), ("construction", "l_max")])
    def test_power_params_obey_the_power_bound(self, tmp_path, sid, param):
        """The parser's MAX_POWER_BITS rule holds for a power param too,
        against the pair the scenario raises to powers (eps2 has 44 bits):
        past 65536 // 44 = 1489 the ERROR names the param at once, and at
        1489 the scenario PASSes."""
        for name in ("far", "past", "at"):
            (tmp_path / name).mkdir()
        start = time.perf_counter()
        report = _run_altered(tmp_path / "far", sid, param, 100_000)
        assert time.perf_counter() - start < 1.0
        too_big = f"ValueError: param '{param}': power {{}} of a 44-bit base exceeds 65536 bits"
        assert report["evidence"] == [{"name": "error", "value": too_big.format(100000)}]
        report = _run_altered(tmp_path / "past", sid, param, 1490)
        assert report["evidence"] == [{"name": "error", "value": too_big.format(1490)}]
        report = _run_altered(tmp_path / "at", sid, param, 1489)
        assert report["outcome"] == "PASS"

    @pytest.mark.parametrize(("l", "margin"), [(64, 10.3939381), (1489, 242.454200)])
    def test_direction_passes_at_high_powers(self, tmp_path, l, margin):
        """The enclosures of g^l are those of g raised to the l-th power, so
        the bounds are certified at the basis precision however large l is,
        with a margin that grows with l (0.134 at l = 1)."""
        start = time.perf_counter()
        report = _run_altered(tmp_path, "direction", "l", l)
        assert time.perf_counter() - start < 2.0
        assert report["outcome"] == "PASS"
        evidence = {e["name"]: e for e in report["evidence"]}
        assert evidence["min_margin"]["value"] == pytest.approx(margin, rel=1e-6)

    def test_figures_need_two_points_per_curve(self, tmp_path):
        """The ERROR names `n_points`, the only count `figures` takes, and
        two points, the ends of each curve, draw all four figures."""
        (tmp_path / "one").mkdir()
        (tmp_path / "two").mkdir()
        report = _run_altered(tmp_path / "one", "figures", "n_points", 1)
        assert report["evidence"] == [
            {
                "name": "error",
                "value": "ValueError: figures needs n_points >= 2 (the two ends of each curve)",
            }
        ]
        assert not list((tmp_path / "one" / "out").iterdir())
        report = _run_altered(tmp_path / "two", "figures", "n_points", 2)
        assert report["outcome"] == "PASS"
        assert len(report["artifacts"]) == 8

    @pytest.mark.parametrize(
        "sid, param, value, drop",
        [
            ("counterexample", "required_pairs", [[1]], None),
            ("cover-pi1", "expected_alpha", [1, 2, 3], None),
            ("case-pi1", "expected", ["case2"], None),
            ("fdcheck-B", "sample", 20, "samples"),
            ("direction", "l", 1.7, None),
            ("direction", "l", True, None),
            ("direction", "n_points", "64", None),
            ("counterexample", "window", 8, None),
        ],
        ids=[
            "required_pairs=[[1]]",
            "expected_alpha=[1,2,3]",
            "expected=[case2]",
            "sample=20",
            "l=1.7",
            "l=true",
            "n_points='64'",
            "window=8",
        ],
    )
    def test_malformed_params_are_errors(self, tmp_path, sid, param, value, drop):
        report = _run_altered(tmp_path, sid, param, value, drop)
        assert report["outcome"] == "ERROR"
        assert report["evidence"][0]["value"].startswith("ValueError: ")
        assert repr(param) in report["evidence"][0]["value"]

    def test_fuzzed_params_end_in_a_report(self, config, tmp_path):
        """Any params dict for `case` or `direction` ends in a report, and
        one the kind's table rejects (unknown key, missing required key,
        wrong type or undefined element) is an ERROR."""
        names = st.sampled_from(["eps1", "eps2", "g1", "g2", "pi1", "nope"])
        junk = st.one_of(
            st.booleans(),
            st.floats(-3, 3),
            st.text(max_size=2),
            st.lists(st.integers(-2, 2), max_size=3),
        )
        fields = {
            "case": {
                "eps1": names,
                "eps2": names,
                "pi": names,
                "expected": st.sampled_from(["case1", "case2"]),
            },
            "direction": {
                "g1": names,
                "g2": names,
                "l": st.integers(-1, 3),
                "n_points": st.integers(2, 5),
            },
        }
        required = {"case": {"eps1", "eps2", "pi"}, "direction": {"g1", "g2"}}
        keys = st.sampled_from(["eps1", "pi", "expected", "g2", "l", "n_points", "sample", "window"])

        def accepted(kind, params):
            if not required[kind] <= set(params) <= set(fields[kind]):
                return False
            for key, v in params.items():
                if key in ("l", "n_points"):
                    ok = type(v) is int
                elif key == "expected":
                    ok = v in ("case1", "case2")
                else:
                    ok = isinstance(v, str) and v in config.elements
                if not ok:
                    return False
            return True

        def mutated(kind, params, edits):
            # each edit drops a key (None) or sets it to a valid or junk value
            for key, value in edits:
                if value is None:
                    params.pop(key, None)
                else:
                    params[key] = value
            return kind, params

        draws = st.sampled_from(sorted(fields)).flatmap(
            lambda kind: st.builds(
                mutated,
                st.just(kind),
                st.fixed_dictionaries(
                    {k: v for k, v in fields[kind].items() if k in required[kind]},
                    optional={k: v for k, v in fields[kind].items() if k not in required[kind]},
                ),
                st.lists(st.tuples(keys, st.one_of(st.none(), names, junk, st.integers(-1, 5)))),
            )
        )

        @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(draws)
        def check(draw):
            kind, params = draw
            scenarios = [{"id": "fuzz", "kind": kind, "params": params}]
            rt = Runtime(dataclasses.replace(config, scenarios=scenarios))
            report = run_scenario(rt, "fuzz", tmp_path)
            assert report["outcome"] in ("PASS", "FAIL", "ERROR", "INCONCLUSIVE")
            if not accepted(kind, params):
                assert report["outcome"] == "ERROR"

        check()

    def test_index_error_in_runner_is_error_report(self, tmp_path):
        # a one-element require_within is rejected by the param table
        # before the runner could index it
        report = _run_altered(tmp_path, "inclusion-pi2", "require_within", [1])
        assert report["outcome"] == "ERROR"
        assert report["evidence"] == [
            {
                "name": "error",
                "value": "ValueError: param 'require_within' must be a pair of ints, got [1]",
            }
        ]

    def test_zero_element_is_error_report(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        raw["elements"]["z"] = "0"
        raw["scenarios"] = [
            {"id": "zero", "kind": "direction", "params": {"g1": "z", "g2": "eps2"}}
        ]
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        out = tmp_path / "out"
        proc = _run_cli(["verify", "--config", str(cfgp), "--out", str(out)])
        assert proc.returncode == 2
        report = json.loads((out / "zero.report.json").read_text())
        assert report["outcome"] == "ERROR"
        assert report["evidence"][0]["value"].startswith("NotTotallyPositive: ")

    @pytest.mark.parametrize(
        "sid, param, value",
        [
            ("counterexample", "pi", "-pi"),
            ("counterexample", "pi", "y-1"),
            ("cover-pi1", "x", "-pi1"),
        ],
        ids=["counterexample-neg", "counterexample-y-1", "cover-neg"],
    )
    def test_non_positive_translate_target_is_error(self, tmp_path, sid, param, value):
        # counterexample and cover check their target in one place, so
        # neither reports a support for a non-totally-positive one
        raw = json.loads(bundled_config_path().read_text())
        raw["elements"]["bad"] = value
        (sc,) = (sc for sc in raw["scenarios"] if sc["id"] == sid)
        sc["params"][param] = "bad"
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        report = run_scenario(Runtime(load_config(cfgp)), sid, tmp_path / "out")
        assert report["outcome"] == "ERROR"
        message = "NotTotallyPositive: translate target must be totally positive"
        assert report["evidence"] == [{"name": "error", "value": message}]

    @pytest.mark.parametrize(
        "sid, param, value, entry",
        [
            ("cover-pi1", "expected_alpha", [1, 1], "expected_alpha"),
            ("inclusion-pi2", "require_within", [0, 0], "require_within"),
            ("counterexample", "required_pairs", [[5, 5]], "required_pairs_present"),
            ("case-pi1", "expected", "case1", "expected"),
        ],
        ids=["cover", "inclusion", "counterexample", "case"],
    )
    def test_one_failed_check_fails_the_scenario(self, rt, tmp_path, sid, param, value, entry):
        base = run_scenario(rt, sid, tmp_path / "base")
        report = _run_altered(tmp_path, sid, param, value)
        assert base["outcome"] == "PASS"
        assert report["outcome"] == "FAIL"
        assert [e["name"] for e in report["evidence"] if e.get("ok") is False] == [entry]
        assert len(report["evidence"]) == len(base["evidence"])
        changed = [e["name"] for e, b in zip(report["evidence"], base["evidence"]) if e != b]
        assert changed == [entry]

    @pytest.mark.parametrize(
        "pi, error",
        [
            ("pi", "InclusionViolated: cover box (2, 1) exceeds the guaranteed (1,2) block"),
            (
                "pi1",
                "SignConditionFailed: pi is not normalized: "
                "pi^-1 lies outside C([e1|e2]) u C([e2|e1]) u C(1,e1e2)",
            ),
        ],
        ids=["pi", "pi1"],
    )
    def test_unnormalized_identities_are_errors(self, tmp_path, pi, error):
        # the case is decided first, then whether pi is normalized
        report = _run_altered(tmp_path, "identities-case2", "pi", pi, drop="normalize")
        assert report["outcome"] == "ERROR"
        assert report["evidence"] == [{"name": "error", "value": error}]

    def test_enclosure_above_cap_is_inconclusive(self, monkeypatch, tmp_path):
        # the basis logs need g1^16 certified positive, past 128 bits
        monkeypatch.setenv("SHINTANI_MAX_BITS", "128")
        raw = json.loads(bundled_config_path().read_text())
        direction = next(sc for sc in raw["scenarios"] if sc["id"] == "direction")
        direction["params"]["g1"] = "g16"
        elements = raw["elements"] | {"g16": "g1^16"}
        cfgp = _bundled_with(tmp_path, elements=elements, scenarios=[direction])
        report = run_scenario(Runtime(load_config(cfgp)), "direction", tmp_path / "out")
        assert report["outcome"] == "INCONCLUSIVE"
        assert report["evidence"] == [
            {"name": "error", "value": "embeddings not separated from zero at 128 bits"}
        ]

    def test_undecided_sign_at_cap_is_inconclusive(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SHINTANI_MAX_BITS", "128")
        rt = Runtime(load_config(bundled_config_path()))
        report = run_scenario(rt, "identities-case2", tmp_path)
        assert report["outcome"] == "INCONCLUSIVE"
        assert exit_code([report["outcome"]]) == 3


    def test_config_window_reaches_every_translate_search(self, config, tmp_path, monkeypatch):
        """Under the cap |k| <= 2 every scenario whose certified ranges fit
        reports as under the default cap, supports that reach k = -2
        included; counterexample's k1 range [-2, 3] is cut, an ERROR though
        its support lies inside the cap."""
        sids = ("case-pi1", "case-pi2", "cover-pi1", "inclusion-pi2", "identities-case2")
        want = {sid: run_scenario(Runtime(config), sid, tmp_path / "8") for sid in sids}
        monkeypatch.setattr(cones, "WINDOW", 2)
        rt = Runtime(config)
        for sid in sids:
            assert want[sid]["outcome"] == "PASS", sid
            assert run_scenario(rt, sid, tmp_path / "2") == want[sid], sid
        report = run_scenario(rt, "counterexample", tmp_path / "2")
        assert report["outcome"] == "ERROR"
        assert report["evidence"] == [
            {
                "name": "error",
                "value": "WindowExceeded: k1 range [-2, 3] cut by the window |k| <= 2 (1 above)",
            }
        ]


class TestRuntimeReuse:
    """A Runtime builds each overlap-support translate table once; nothing
    is shared between runtimes, and fdcheck keeps no table."""

    @staticmethod
    def _count_tables(monkeypatch):
        built = []
        original = _TranslateTable.__init__

        def counting(table, geo, *args):
            built.append(geo)
            original(table, geo, *args)

        monkeypatch.setattr(_TranslateTable, "__init__", counting)
        return built

    def test_translate_table_of_B_built_once_per_runtime(self, config, tmp_path, monkeypatch):
        built = self._count_tables(monkeypatch)
        first = Runtime(config)
        for sid in ("cover-pi1", "inclusion-pi2", "case-pi1"):
            assert run_scenario(first, sid, tmp_path)["outcome"] == "PASS"
        assert built == [first.geo]
        second = Runtime(config)
        assert run_scenario(second, "cover-pi1", tmp_path)["outcome"] == "PASS"
        assert built == [first.geo, second.geo]

    def test_first_runtime_takes_the_validated_embeddings(self):
        """load_config builds one RealEmbeddings, which the first Runtime of
        the config takes; a later Runtime, a `dataclasses.replace` copy and a
        changed sign_config (`--bits`) get their own."""
        config = load_config(bundled_config_path())
        validated = config.embeddings
        assert dataclasses.replace(config, scenarios=[]).embeddings is None
        first = Runtime(config)
        assert first.emb is validated and config.embeddings is None
        assert Runtime(config).emb is not validated
        config = load_config(bundled_config_path())
        validated = config.embeddings
        config.sign_config = dataclasses.replace(config.sign_config, start_bits=128)
        emb = Runtime(config).emb
        assert emb is not validated and emb.cfg.start_bits == 128

    def test_identities_scenario_classifies_once(self, config, tmp_path, monkeypatch):
        calls = []
        original = Geometry.classify_case

        def counting(geo, *args, **kwargs):
            calls.append(args)
            return original(geo, *args, **kwargs)

        monkeypatch.setattr(Geometry, "classify_case", counting)
        rt = Runtime(config)
        report = run_scenario(rt, "identities-case2", tmp_path)
        assert report["outcome"] == "PASS"
        assert [e["name"] for e in report["evidence"]] == [
            "case", "pi_normalized", "id1", "id2", "case2extra", "case2extra_reference",
        ]
        assert len(calls) == 1

    def test_identities_scenario_builds_B_once(self, config, tmp_path, monkeypatch):
        calls = []
        original = Geometry.explicit_B

        def counting(geo, *args):
            calls.append(args)
            return original(geo, *args)

        monkeypatch.setattr(Geometry, "explicit_B", counting)
        rt = Runtime(config)
        for n, sid in enumerate(("identities-case1", "identities-case2"), 1):
            assert run_scenario(rt, sid, tmp_path)["outcome"] == "PASS"
            assert len(calls) == n

    def test_fdcheck_keeps_no_table(self, config, els, monkeypatch):
        built = self._count_tables(monkeypatch)
        rt = Runtime(config)
        e1, e2 = els["eps1"], els["eps2"]
        b = rt.geo.explicit_B(e1, e2)
        rep = rt.geo.fundamental_domain_check(b, e1, e2, samples=10)
        assert rep.passed
        assert built == [rt.geo]
        assert rt.geo._tables == {}


class TestCli:
    def test_invalid_bits_exits_two(self, tmp_path, capsys):
        rc = main(
            [
                "classify",
                "--config",
                str(bundled_config_path()),
                "--bits",
                "8",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--bits" in err
        assert not list(tmp_path.iterdir())

    def test_bits_above_cap_exits_two(self, tmp_path, capsys, monkeypatch):
        # --bits sets the start precision only; it never raises the cap
        monkeypatch.setenv("SHINTANI_MAX_BITS", "128")
        rc = main(
            [
                "classify",
                "--config",
                str(bundled_config_path()),
                "--bits",
                "256",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid --bits: ")
        assert len(err.strip().splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("change", ["no-id", "no-kind", "duplicate-id"])
    def test_malformed_scenario_list_is_config_error(self, tmp_path, capsys, change):
        raw = json.loads(bundled_config_path().read_text())
        first, second = (sc for sc in raw["scenarios"] if sc["kind"] == "case")
        if change == "no-id":
            del first["id"]
        elif change == "no-kind":
            del first["kind"]
        else:
            second["id"] = first["id"]
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        out = tmp_path / "out"
        rc = main(["classify", "--config", str(cfgp), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "sid",
        ["sub/dir", "../x", "..", "", "a\x00b"],
        ids=["slash", "parent", "dotdot", "empty", "nul"],
    )
    def test_scenario_id_that_is_no_file_name_is_config_error(self, tmp_path, capsys, sid):
        # a report is written to <out>/<id>.report.json
        raw = json.loads(bundled_config_path().read_text())
        next(sc for sc in raw["scenarios"] if sc["kind"] == "case")["id"] = sid
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="scenario id"):
            load_config(cfgp)
        out = tmp_path / "out"
        assert main(["classify", "--config", str(cfgp), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: scenario id ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_unusable_out_exits_two(self, tmp_path, capsys, sub):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / sub if sub else blocker
        rc = main(["classify", "--config", str(bundled_config_path()), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("invalid --out: ")
        assert blocker.read_text() == ""

    def test_scripts_run_without_an_install(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        code = (
            "import runpy, sys\n"
            "for p in sys.argv[1:]:\n"
            "    assert callable(runpy.run_path(p, run_name='x')['main'])\n"
        )
        scripts = [str(root / "scripts" / n) for n in ("run_appendix.py", "regen_goldens.py")]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "-c", code, *scripts],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr.decode()

    def test_verify_single_scenario(self, tmp_path, capsys):
        rc = main(
            [
                "verify",
                "--config",
                str(bundled_config_path()),
                "--scenario",
                "counterexample",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        report_path = Path(out[0])
        assert report_path.exists()
        report = json.loads(report_path.read_text())
        assert report["outcome"] == "PASS"

    def test_piped_verify_prints_each_path_once(self, tmp_path):
        # figures fork children, here on two CPUs whatever the machine has,
        # that share the CLI's stdout buffer; one that flushed it on exit
        # would print the paths before it again
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from shintani_forge.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(shintani_forge.__file__).resolve().parents[1])
        # stdout block-buffered, as a pipe is by default
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", code, "verify", "--config", str(bundled_config_path()),
             "--out", str(tmp_path)],
            env={**env, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        want = []
        for sc in load_config(bundled_config_path()).scenarios:
            report = tmp_path / f"{sc['id']}.report.json"
            want.append(str(report))
            want += [str(tmp_path / a) for a in json.loads(report.read_text())["artifacts"]]
        assert proc.stdout.decode().splitlines() == want
        assert any(w.endswith("fig4.csv") for w in want)

    def test_unknown_scenario_id_exits_two(self, tmp_path):
        rc = main(
            [
                "verify",
                "--config",
                str(bundled_config_path()),
                "--scenario",
                "never-heard-of-it",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2

    def test_construct_command(self, tmp_path):
        rc = main(
            [
                "construct",
                "--config",
                str(bundled_config_path()),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "construction.report.json").read_text())
        assert report["outcome"] == "PASS"
        values = {e["name"]: e.get("value") for e in report["evidence"]}
        assert values["l"] == 1
        assert values["cover"]["anchor"] == [0, 0]

    def test_fdcheck_command_single(self, tmp_path):
        rc = main(
            [
                "fdcheck",
                "--config",
                str(bundled_config_path()),
                "--scenario",
                "fdcheck-B",
                "--out",
                str(tmp_path),
                "--seed",
                "7",
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "fdcheck-B.report.json").read_text())
        assert report["seed"] == 7

    def test_cover_command(self, tmp_path):
        rc = main(
            [
                "cover",
                "--config",
                str(bundled_config_path()),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "cover-pi1.report.json").read_text())
        alpha = next(e for e in report["evidence"] if e["name"] == "alpha")
        assert alpha["value"] == [1, 2]
