import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import shintani_forge
from shintani_forge.cli import bundled_config_path, main
from shintani_forge.cones import Geometry
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

    def test_max_bits_env_override(self, monkeypatch):
        monkeypatch.setenv("SHINTANI_MAX_BITS", "512")
        cfg = load_config(bundled_config_path())
        assert cfg.sign_config.max_bits == 512

    @pytest.mark.parametrize(
        "name, value",
        [
            ("window", 8.7),
            ("window", True),
            ("window", "8"),
            ("window", 0),
            ("seed", 1.9),
            ("seed", True),
            ("seed", "1"),
            ("start_bits", 64.0),
            ("max_bits", 4096.0),
            ("max_bits", "4096"),
            ("escalation_factor", 2.0),
        ],
    )
    def test_config_ints_are_checked(self, tmp_path, capsys, name, value):
        raw = json.loads(bundled_config_path().read_text())
        (raw["precision"] if name in raw["precision"] else raw)[name] = value
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=name):
            load_config(cfgp)
        assert main(["verify", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

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
        ],
        ids=["samples=0", "n_points=2", "l=0", "l=-1"],
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
        src = str(Path(shintani_forge.__file__).resolve().parents[1])
        argv = ["verify", "--config", str(cfgp), "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "shintani_forge.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            timeout=20,
        )
        assert proc.returncode == 2
        report = json.loads((out / "zero.report.json").read_text())
        assert report["outcome"] == "ERROR"
        assert report["evidence"][0]["value"].startswith("NotTotallyPositive: ")

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

    def test_undecided_sign_at_cap_is_inconclusive(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SHINTANI_MAX_BITS", "128")
        rt = Runtime(load_config(bundled_config_path()))
        report = run_scenario(rt, "identities-case2", tmp_path)
        assert report["outcome"] == "INCONCLUSIVE"
        assert exit_code([report["outcome"]]) == 3


class TestRuntimeReuse:
    """A Runtime builds each overlap-support translate table once; nothing
    is shared between runtimes, and fdcheck keeps no table."""

    @staticmethod
    def _count_tables(monkeypatch):
        built = []
        original = Geometry._translates

        def counting(geo, *args):
            built.append(geo)
            return original(geo, *args)

        monkeypatch.setattr(Geometry, "_translates", counting)
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

    def test_fdcheck_keeps_no_table(self, config, els, monkeypatch):
        built = self._count_tables(monkeypatch)
        rt = Runtime(config)
        e1, e2 = els["eps1"], els["eps2"]
        b = rt.geo.explicit_B(e1, e2)
        rep = rt.geo.fundamental_domain_check(b, e1, e2, samples=10, window=config.window)
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
