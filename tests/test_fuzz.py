"""Fuzzing of what a run starts from: the config file, element expressions
and the command line. Whatever they hold, the run ends with a report for
every selected scenario, or with one line of config or usage error on
stderr, and its exit code is 0, 1, 2 or 3; no other exception escapes.

The configs keep to cheap scenario kinds. A top-level field outside the
schema, such as `nonsense`, is a config error. An exponent token is small or
huge: a power whose |k| times the bit height of its base exceeds
`scenario.MAX_POWER_BITS` is a parse error, and every power to the huge
token is one.
"""

import functools
import itertools
import json
import operator

from hypothesis import HealthCheck, given, settings, strategies as st

from shintani_forge.cli import bundled_config_path, main
from shintani_forge.errors import ShintaniError
from shintani_forge.field import FieldElement
from shintani_forge.scenario import exit_code, load_config, parse_element

CHEAP = ("counterexample", "case-pi1", "cover-pi1", "direction")
DROP = object()

# element expressions: tokens joined by spaces, so no two digits merge into
# a large exponent
TOKENS = ["y", "g1", "eps1", "pi", "nope", "0", "1", "2", "12", "3000000", "1/2"]
TOKENS += ["+", "-", "*", "/", "^", "^ -", "(", ")", "#", "."]
expressions = st.lists(st.sampled_from(TOKENS), max_size=10).map(" ".join)

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(-3, 3),
    st.text(max_size=3),
    expressions,
    st.lists(st.integers(-2, 3), max_size=4),
    st.permutations([0, 1, 2]),
    st.builds(dict),
)

PATHS = [
    ("schema",),
    ("field",),
    ("field", "poly_coeffs"),
    ("embedding_order",),
    ("elements",),
    ("elements", "g1"),
    ("elements", "eps1"),
    ("elements", "pi"),
    ("units",),
    ("totally_positive",),
    ("precision",),
    ("precision", "start_bits"),
    ("precision", "max_bits"),
    ("precision", "escalation_factor"),
    ("seed",),
    ("scenarios",),
    ("scenarios", 0),
    ("scenarios", 1, "kind"),
    ("scenarios", 2, "params"),
    ("nonsense",),
]

# which scenario kinds each command selects (the cheap config has no others)
KINDS = {
    "verify": {"counterexample", "case", "cover", "direction"},
    "classify": {"case"},
    "cover": {"cover", "inclusion"},
}


def _cheap_raw() -> dict:
    raw = json.loads(bundled_config_path().read_text())
    raw["scenarios"] = [sc for sc in raw["scenarios"] if sc["id"] in CHEAP]
    return raw


def _edited(raw: dict, edits) -> dict:
    """Apply (path, value) edits; DROP deletes. An edit whose container an
    earlier edit removed or replaced by a non-container is skipped."""
    for path, value in edits:
        try:
            node = functools.reduce(operator.getitem, path[:-1], raw)
            if value is DROP:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass
    return raw


def _reports(out) -> set:
    return {p.name for p in out.glob("*.report.json")} if out.is_dir() else set()


def _outcomes(out) -> list:
    return [json.loads(p.read_text())["outcome"] for p in sorted(out.glob("*.report.json"))]


def test_mutated_configs_end_in_reports_or_a_config_error(tmp_path, capsys):
    runs = itertools.count()
    edits = st.lists(st.tuples(st.sampled_from(PATHS), st.one_of(st.just(DROP), junk)), max_size=3)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(edits)
    def check(edits):
        run = tmp_path / f"run{next(runs)}"
        run.mkdir()
        cfgp = run / "cfg.json"
        cfgp.write_text(json.dumps(_edited(_cheap_raw(), edits)))
        out = run / "out"
        try:
            config = load_config(cfgp)
        except Exception:
            config = None
        capsys.readouterr()
        rc = main(["verify", "--config", str(cfgp), "--out", str(out)])
        err = capsys.readouterr().err
        if config is None:
            assert rc == 2
            assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
            assert not out.exists()
        elif not config.scenarios:
            assert rc == 2 and err == "no matching scenarios\n"
            assert not out.exists()
        else:
            assert _reports(out) == {f"{sc['id']}.report.json" for sc in config.scenarios}
            assert rc == exit_code(_outcomes(out))

    check()


def test_random_expressions_parse_or_raise_a_package_error(spec, els):
    @settings(max_examples=150, deadline=None)
    @given(expressions)
    def check(expr):
        try:
            value = parse_element(expr, els, spec)
        except ShintaniError:
            return
        assert isinstance(value, FieldElement) and value.spec == spec

    check()


def test_random_command_lines_end_in_reports_or_one_error_line(tmp_path, capsys):
    runs = itertools.count()
    cheap = tmp_path / "cheap.json"
    cheap.write_text(json.dumps(_cheap_raw()))
    missing, notjson = str(tmp_path / "missing.json"), tmp_path / "notjson.json"
    notjson.write_text("{")
    notjson = str(notjson)
    (tmp_path / "afile").write_text("")
    # the commands that select a cheap scenario come up twice as often
    commands = ["verify", "classify", "cover"] * 2 + ["construct", "identities", "fdcheck", "render"]
    options = st.one_of(
        st.tuples(st.just("--config"), st.sampled_from([str(cheap), missing, notjson])),
        st.tuples(st.just("--scenario"), st.sampled_from(list(CHEAP) + ["nope", ""])),
        st.tuples(
            st.just("--out"),
            st.sampled_from(["OUT", str(tmp_path / "afile"), str(tmp_path / "afile" / "sub")]),
        ),
        st.tuples(st.just("--seed"), st.sampled_from(["1", "-3"])),
        st.tuples(st.just("--bits"), st.sampled_from(["8", "32", "64"])),
        st.just(("--unknown",)),
    )
    argvs = st.tuples(
        st.sampled_from(commands + ["nope"]),
        st.just(("--config", str(cheap))),
        st.just(("--out", "OUT")),
        st.lists(options, max_size=4),
    ).map(lambda t: [t[0], *t[1], *t[2], *(x for opt in t[3] for x in opt)])

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argvs)
    def check(argv):
        fresh = tmp_path / f"out{next(runs)}"
        argv = [str(fresh) if a == "OUT" else a for a in argv]
        capsys.readouterr()
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2  # argparse rejected the command line
            assert not fresh.exists()
            return
        err = capsys.readouterr().err
        assert rc in (0, 1, 2, 3)
        opts = dict(zip(argv[1::2], argv[2::2]))  # the last of a repeated flag wins
        selected = {
            sc
            for sc, kind in zip(CHEAP, ("counterexample", "case", "cover", "direction"))
            if kind in KINDS.get(argv[0], ()) and opts.get("--scenario", sc) == sc
        }
        runs_scenarios = (
            opts["--config"] == str(cheap)
            and opts["--out"] == str(fresh)
            and int(opts.get("--bits", 64)) >= 32
            and selected
        )
        if runs_scenarios:
            assert _reports(fresh) == {f"{sc}.report.json" for sc in selected}
            assert rc == exit_code(_outcomes(fresh))
        else:
            assert rc == 2 and len(err.strip().splitlines()) == 1
            assert _reports(fresh) == set()

    check()
