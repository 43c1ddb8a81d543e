import json
import os
import re
import subprocess
import sys
import time

import pytest

from hvkit import cli
from hvkit.cli import main, run_config
from hvkit.errors import ConfigurationError, UnsupportedModuleError
from hvkit.modules import module_from_descriptor

OMEGA = {"family": "omega", "lambda": "2", "alpha": "3", "mu": ["1"], "beta": "0"}
INTERMEDIATE = {"family": "intermediate", "alpha": "0", "beta": "0", "F": "0"}
VERMA = {
    "family": "verma",
    "quotients": [{"point": ["0"], "order": 2}],
    "max_level": 4,
    "phi": [
        {"gen": "d0", "point": 0, "exp": [0], "value": "1"},
        {"gen": "I0", "point": 0, "exp": [1], "value": "2"},
    ],
}
EVAL1 = {
    "family": "evaluation",
    "point": ["2"],
    "order": 1,
    "inner": {"family": "intermediate", "alpha": "1/2", "beta": "0", "F": "1"},
}


TRIVIAL_VERMA_2 = {"family": "verma", "max_level": 2, "phi": [{"gen": "d0", "value": "1"}]}


@pytest.mark.parametrize(
    "module,window",
    [
        (INTERMEDIATE, 8),
        (OMEGA, 4),
        (EVAL1, 6),
        ({"family": "evaluation", "point": ["2"], "order": 1, "inner": TRIVIAL_VERMA_2}, 2),
        ({"family": "evaluation", "point": ["2"], "order": 1, "inner": dict(EVAL1, point=[])}, 6),
        (VERMA, 2),
        ({"family": "tensor", "left": INTERMEDIATE, "right": INTERMEDIATE}, 1),
    ],
    ids=[
        "intermediate",
        "omega",
        "evaluation-intermediate",
        "evaluation-verma",
        "evaluation-evaluation-intermediate",
        "verma",
        "tensor",
    ],
)
def test_check_axioms_sweeps_the_family_default_window(module, window):
    """With no window in its bounds, check-axioms sweeps ``Module.default_window``."""
    config = {"command": "check-axioms", "module": module, "bounds": {"index": 0, "monomial": 0}}
    code, text = run_config(config)
    assert code == 0
    assert json.loads(text)["window"] == window
    assert module_from_descriptor(module).default_window == window


def test_importing_the_cli_loads_no_dataclasses():
    """Reports are plain classes, so a CLI run does not import ``dataclasses``
    (nor the ``inspect``, ``ast``, ``dis`` and ``tokenize`` it pulls in)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, hvkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_check_axioms_passes():
    code, text = run_config(
        {"command": "check-axioms", "module": OMEGA, "bounds": {"index": 3, "monomial": 1, "window": 3}}
    )
    assert code == 0
    report = json.loads(text)
    assert report["violations"] == 0
    assert report["triples_checked"] > 0


def test_check_axioms_zero_lambda_rejected():
    bad = dict(OMEGA, **{"lambda": "0"})
    with pytest.raises(ConfigurationError, match="lambda must be nonzero"):
        run_config({"command": "check-axioms", "module": bad})


def test_probe_irreducible_reports_witness():
    code, text = run_config({"command": "probe-irreducible", "module": INTERMEDIATE})
    assert code == 0
    report = json.loads(text)
    assert report["verdict"] == "reducible-with-witness"
    assert report["witness"] == {"kind": "lines", "lines": [0]}


def test_weights_tsv():
    code, text = run_config(
        {"command": "weights", "module": EVAL1["inner"], "bounds": {"window": 2}},
        out_format="tsv",
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "d0\tI0\tC\tCI\tCD\tdimension"
    assert len(lines) == 6  # five weight lines in the window
    assert all(line.endswith("\t1") for line in lines[1:])


def test_singular_vectors_command():
    code, text = run_config(
        {"command": "singular-vectors", "module": VERMA, "bounds": {"level": 1}}
    )
    assert code == 0
    report = json.loads(text)
    assert report["level"] == 1
    assert report["dimension"] == len(report["vectors"])


def test_a_gaussian_singular_vector_reads_as_itself():
    """Billig's p = 2 case on trivial B: phi(I0) = 3/2+3i and phi(C_D) = 1/2+i at
    level 2.  The Gaussian coefficient is one parenthesized factor."""
    phi = [{"gen": "I0", "exp": [], "value": "3/2+3*i"}, {"gen": "C_D", "exp": [], "value": "1/2+i"}]
    code, text = run_config(
        {"command": "singular-vectors", "module": {"family": "verma", "max_level": 2, "phi": phi}, "bounds": {"level": 2}}
    )
    assert code == 0
    assert json.loads(text)["vectors"] == ["I(-2)·hw + (-2/5+4/5*i)*I(-1)·I(-1)·hw"]


def test_singular_vectors_requires_verma():
    with pytest.raises(ConfigurationError, match="module.family"):
        run_config({"command": "singular-vectors", "module": OMEGA})


def test_hc_suite_command():
    cfg = {
        "command": "hc-suite",
        "module": VERMA,
        "f": {"terms": [{"exp": [1], "coeff": "1"}]},
    }
    code, text = run_config(cfg)
    assert code == 0
    report = json.loads(text)
    assert report["passed"] is True
    assert set(report["identities"]) == {
        "d2.(d-2(x)f)",
        "d1.d1.(d-2(x)f)",
        "I2.(d-2(x)f)",
        "d2.(I-2(x)f)",
        "I2.(I-2(x)f)",
    }


def test_hc_suite_requires_f():
    with pytest.raises(ConfigurationError, match="f"):
        run_config({"command": "hc-suite", "module": VERMA})


def test_invariants_command():
    code, text = run_config({"command": "invariants", "module": OMEGA})
    assert code == 0
    report = json.loads(text)
    assert (report["lambda"], report["alpha"], report["mu"], report["beta"]) == (
        "2",
        "3",
        ["1"],
        "0",
    )


def test_annihilator_command():
    cfg = {
        "command": "annihilator",
        "module": EVAL1,
        "generators": [
            {"terms": [{"exp": [1], "coeff": "1"}, {"exp": [0], "coeff": "-2"}]},
            {"terms": [{"exp": [0], "coeff": "1"}]},
            {"terms": [{"exp": [1]}, {"exp": [1]}]},  # terms with the same exp add
        ],
    }
    code, text = run_config(cfg)
    assert code == 0
    report = json.loads(text)
    flags = [g["annihilates"] for g in report["generators"]]
    assert flags == [True, False, False]
    assert report["generators"][2]["polynomial"] == "2*b1"


def test_annihilator_on_jet_evaluation_at_the_truncation():
    inner = dict(VERMA, quotients=[{"point": ["2"], "order": 2}], max_level=3)
    module = {"family": "evaluation", "point": ["2"], "order": 2, "inner": inner}
    square = {"terms": [{"exp": [2], "coeff": "1"}, {"exp": [1], "coeff": "-4"}, {"exp": [0], "coeff": "4"}]}
    linear = {"terms": [{"exp": [1], "coeff": "1"}, {"exp": [0], "coeff": "-2"}]}
    cfg = {"command": "annihilator", "module": module, "generators": [square, linear],
           "bounds": {"window": 2, "index": 2}}
    code, text = run_config(cfg)
    assert code == 0
    flags = [g["annihilates"] for g in json.loads(text)["generators"]]
    assert flags == [True, False]


def test_jacobi_sweep_command():
    code, text = run_config({"command": "jacobi-sweep", "bounds": {"index": 2, "monomial": 1, "k": 1}})
    assert code == 0
    report = json.loads(text)
    assert report["jacobi_violations"] == 0
    assert report["antisymmetry_violations"] == 0


def test_unknown_top_level_field():
    with pytest.raises(ConfigurationError, match="bogus"):
        run_config({"command": "invariants", "module": OMEGA, "bogus": 1})


def test_unknown_bound_field():
    with pytest.raises(ConfigurationError, match="bounds.bad"):
        run_config({"command": "jacobi-sweep", "bounds": {"bad": 1}})


def test_unknown_command():
    with pytest.raises(ConfigurationError, match="command"):
        run_config({"command": "destroy"})


def test_missing_module():
    with pytest.raises(ConfigurationError, match="module"):
        run_config({"command": "weights"})


def test_byte_identical_reports_across_runs_and_seeds():
    cfg = {"command": "check-axioms", "module": OMEGA, "bounds": {"index": 2, "monomial": 1, "window": 2}}
    outputs = {run_config(cfg, seed=s)[1] for s in (None, 0, 1, 12345)}
    assert len(outputs) == 1


def test_descriptor_normalization_round_trip():
    # serialize(parse(config)) is a fixed point
    for desc in (OMEGA, INTERMEDIATE, VERMA, EVAL1):
        normalized = module_from_descriptor(desc).describe()
        again = module_from_descriptor(normalized).describe()
        assert normalized == again


def test_main_end_to_end(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "invariants", "module": OMEGA}))
    assert main(["--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["lambda"] == "2"

    assert main(["--config", str(path), "--out", "tsv"]) == 0
    out = capsys.readouterr().out
    assert "lambda\t2" in out


def test_main_bad_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert main(["--config", str(missing)]) == 2


def test_main_single_line_diagnostic(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"command": "check-axioms", "module": dict(OMEGA, **{"lambda": "0"})})
    )
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "config error: module: lambda must be nonzero"
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "module",
    [INTERMEDIATE, EVAL1],
    ids=["intermediate", "evaluation"],
)
def test_invariants_rejects_non_omega_modules(tmp_path, capsys, module):
    with pytest.raises(UnsupportedModuleError, match="omega"):
        run_config({"command": "invariants", "module": module})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "invariants", "module": module}))
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


def _verma_with(**fields):
    return dict(VERMA, **fields)


@pytest.mark.parametrize(
    "config, diagnostic",
    [
        (
            {"command": "hc-suite", "module": VERMA, "f": {"terms": [{"exp": ["z"], "coeff": "1"}]}},
            "f.terms[0].exp[0]: must be an integer",
        ),
        (
            {"command": "weights", "module": _verma_with(phi=[{"gen": "d0", "point": 0, "exp": ["a"], "value": "1"}])},
            "module.phi[0].exp[0]: must be an integer",
        ),
        ({"command": "weights", "module": _verma_with(quotients=[5])}, "module.quotients[0]: must be an object"),
        ({"command": "weights", "module": _verma_with(max_level="7")}, "module.max_level: must be an integer"),
        ({"command": "weights", "module": dict(EVAL1, order="x")}, "module.order: must be an integer"),
        (
            {"command": "weights", "module": dict(INTERMEDIATE, drop_line="0")},
            "module.drop_line: must be an integer",
        ),
    ],
    ids=["poly-exp", "phi-exp", "quotient", "max-level", "order", "drop-line"],
)
def test_integer_descriptor_fields_are_type_checked(tmp_path, capsys, config, diagnostic):
    with pytest.raises(ConfigurationError, match=re.escape(diagnostic)):
        run_config(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {diagnostic}\n"


@pytest.mark.parametrize(
    "config, diagnostic",
    [
        ({"command": "jacobi-sweep", "bounds": {"index": 1, "monomial": 1, "k": -1}}, "bounds.k: must be >= 0"),
        ({"command": "jacobi-sweep", "bounds": {"index": 1, "monomial": -1, "k": 2}}, "bounds.monomial: must be >= 0"),
        ({"command": "jacobi-sweep", "bounds": {"index": -1, "monomial": 1, "k": 1}}, "bounds.index: must be >= 0"),
        ({"command": "singular-vectors", "module": VERMA, "bounds": {"level": -1}}, "bounds.level: must be >= 0"),
        ({"command": "hc-suite", "module": VERMA, "f": {"terms": [{"exp": [1], "coeff": "1"}]},
          "bounds": {"level": -2}}, "bounds.level: must be >= 0"),
        ({"command": "annihilator", "module": OMEGA, "generators": [{"terms": [{"exp": [0], "coeff": "1"}]}],
          "bounds": {"window": -1}}, "bounds.window: must be >= 0"),
        ({"command": "annihilator", "module": OMEGA, "generators": [{"terms": [{"exp": [0], "coeff": "1"}]}],
          "bounds": {"index": -1}}, "bounds.index: must be >= 0"),
        ({"command": "weights", "module": INTERMEDIATE, "bounds": {"window": -1}}, "bounds.window: must be >= 0"),
        ({"command": "check-axioms", "module": INTERMEDIATE, "bounds": {"window": -1}}, "bounds.window: must be >= 0"),
        ({"command": "check-axioms", "module": OMEGA, "bounds": {"index": 1, "monomial": -1, "window": 1}},
         "bounds.monomial: must be >= 0"),
        ({"command": "probe-irreducible", "module": INTERMEDIATE, "bounds": {"window": 0}},
         "bounds.window: must be >= 1"),
        ({"command": "probe-irreducible", "module": INTERMEDIATE, "bounds": {"operator": 0}},
         "bounds.operator: must be >= 1"),
    ],
    ids=["jacobi-k", "jacobi-monomial", "jacobi-index", "singular-level", "hc-level", "annihilator-window",
         "annihilator-index", "weights-window", "axioms-window", "axioms-monomial", "probe-window", "probe-operator"],
)
def test_negative_bounds_are_rejected(tmp_path, capsys, config, diagnostic):
    with pytest.raises(ConfigurationError, match=re.escape(diagnostic)):
        run_config(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {diagnostic}")
    assert captured.err.count("\n") == 1


TRIVIAL_VERMA = {"family": "verma", "max_level": 3, "phi": [{"gen": "d0", "value": "1"}]}
B_MINUS_B = {"terms": [{"exp": [1], "coeff": "1"}, {"exp": [1], "coeff": "-1"}]}
JET_B2_VERMA = {
    "family": "verma",
    "quotients": [{"point": ["0"], "order": 2}],
    "max_level": 3,
    "phi": [{"gen": "d0", "point": 0, "exp": [0], "value": "1"}],
}


@pytest.mark.parametrize(
    "config, diagnostic",
    [
        ({"command": "hc-suite", "module": VERMA, "f": {"terms": [], "k": 1}}, "f: zero in the coefficient algebra"),
        ({"command": "hc-suite", "module": JET_B2_VERMA, "f": {"terms": [{"exp": [2], "coeff": "1"}]}},
         "f: zero in the coefficient algebra"),
        ({"command": "weights", "module": dict(TRIVIAL_VERMA, phi=[{"gen": "d0", "value": "1", "exp": [0, 0]}])},
         "module.phi[0]: exp must be empty over trivial B"),
        ({"command": "weights", "module": dict(TRIVIAL_VERMA, phi=[{"gen": "d0", "value": "1", "point": 3}])},
         "module.phi[0].point: must be 0 over trivial B"),
        ({"command": "hc-suite", "module": {"family": "verma", "max_level": 2, "phi": []},
          "f": {"k": 0, "terms": [{"exp": [], "coeff": "1"}]}, "bounds": {"level": 0}},
         "bounds.level: must be >= 1 when the functional kills the ideal"),
        ({"command": "annihilator", "module": OMEGA, "generators": [{"terms": []}]},
         "generators[0]: zero polynomial"),
        ({"command": "annihilator", "module": OMEGA,
          "generators": [{"terms": [{"exp": [0], "coeff": "1"}]}, {"terms": [{"exp": [1], "coeff": "0"}]}]},
         "generators[1]: zero polynomial"),
        ({"command": "annihilator", "module": OMEGA, "generators": [B_MINUS_B]}, "generators[0]: zero polynomial"),
        ({"command": "hc-suite", "module": VERMA, "f": B_MINUS_B}, "f: zero in the coefficient algebra"),
        ({"command": "hc-suite", "module": dict(TRIVIAL_VERMA, max_level=1), "f": {"k": 0, "terms": [{"exp": []}]}},
         "module.max_level: must be >= 2 for hc-suite (its identities act at level 2)"),
    ],
    ids=["hc-zero-f", "hc-f-in-the-ideal", "trivial-phi-zero-exp", "trivial-phi-point", "hc-kills-at-level-0",
         "annihilator-zero-generator", "annihilator-zero-coefficient", "annihilator-b-minus-b", "hc-b-minus-b",
         "hc-max-level-1"],
)
def test_inputs_that_would_check_nothing_or_be_dropped_are_rejected(tmp_path, capsys, config, diagnostic):
    with pytest.raises(ConfigurationError, match=re.escape(diagnostic)):
        run_config(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {diagnostic}")
    assert captured.err.count("\n") == 1


def test_trivial_phi_entry_with_point_zero_and_empty_exp_round_trips():
    entry = {"gen": "d0", "value": "1", "point": 0, "exp": []}
    described = module_from_descriptor(dict(TRIVIAL_VERMA, phi=[entry])).describe()
    assert described["phi"] == [entry]


def test_singular_vectors_level_zero_and_overflow():
    code, text = run_config({"command": "singular-vectors", "module": VERMA, "bounds": {"level": 0}})
    assert code == 0
    assert json.loads(text)["vectors"] == []
    with pytest.raises(ConfigurationError, match=r"^bounds\.level: must be <= 4, the module's max_level$"):
        run_config({"command": "singular-vectors", "module": VERMA, "bounds": {"level": 5}})


DEEP_VERMA = {"family": "verma", "max_level": 1200, "phi": [{"gen": "d0", "exp": [], "value": "1"}]}


def _assert_internal_error(captured, type_name):
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {type_name}: ")
    assert captured.err.count("\n") == 1


def test_a_level_too_large_to_list_exits_2(tmp_path, capsys):
    """Level 1200 is refused from its count, before any monomial is listed."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "singular-vectors", "module": DEEP_VERMA, "bounds": {"level": 1200}}))
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: level 1200 has more than 100000 PBW monomials")
    assert captured.err.count("\n") == 1


def _run_main(tmp_path, config) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return main(["--config", str(path)])


ONE_F = {"k": 0, "terms": [{"exp": [], "coeff": "1"}]}


def test_hc_suite_walks_each_line_once(tmp_path, capsys):
    """Level 24 is the last level within the budget; the walk visits each line once."""
    module = {"family": "verma", "max_level": 24}
    config = {"command": "hc-suite", "module": module, "f": ONE_F, "bounds": {"level": 24}}
    assert _run_main(tmp_path, config) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["in_kernel"] for c in report["singular_checks"]] == [True] * 48


@pytest.mark.parametrize(
    "config,diagnostic",
    [
        (
            {"command": "hc-suite", "module": {"family": "verma", "max_level": 25}, "f": ONE_F,
             "bounds": {"level": 25}},
            "config error: level 25 has more than 100000 PBW monomials",
        ),
        (
            {"command": "jacobi-sweep", "bounds": {"index": 40, "monomial": 2, "k": 2}},
            "config error: a sweep over index 40, monomial 2, k 2 checks more than 50000000 triples",
        ),
        (
            {"command": "check-axioms", "module": INTERMEDIATE, "bounds": {"index": 3000, "window": 2}},
            "config error: an axiom sweep over index 3000, monomial 2 has more than 5000000 operator pairs",
        ),
        (
            {"command": "jacobi-sweep", "bounds": {"index": 0, "monomial": 0, "k": 10**9}},
            "config error: a sweep over monomial 0, k 1000000000 stores 1000000000 exponent entries, more than 1000000",
        ),
        (
            {"command": "probe-irreducible", "module": INTERMEDIATE, "bounds": {"operator": 10**9}},
            "config error: a probe over operator 1000000000, window 4 acts more than 5000000 times",
        ),
        (
            {"command": "annihilator", "module": INTERMEDIATE, "generators": [ONE_F], "bounds": {"index": 10**9}},
            "config error: an annihilator probe over index 1000000000, window 2 acts more than 5000000 times",
        ),
        (
            {"command": "probe-irreducible", "module": dict(OMEGA, mu=["1"] * 20_000)},
            "config error: a probe over k 20000: 400020000 exponent entries to list, more than 1000000",
        ),
        (
            {"command": "invariants", "module": dict(OMEGA, mu=["1"] * 20_000)},
            "config error: rank-one invariants over k 20000: 400000000 exponent entries to list, more than 1000000",
        ),
    ],
    ids=["hc-suite-level-25", "jacobi-sweep-40-2-2", "check-axioms-index-3000", "jacobi-sweep-k-1e9",
         "probe-operator-1e9", "annihilator-index-1e9", "probe-mu-20000", "invariants-mu-20000"],
)
def test_work_past_the_budget_exits_2(tmp_path, capsys, config, diagnostic):
    start = time.perf_counter()
    assert _run_main(tmp_path, config) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(diagnostic)
    assert captured.err.count("\n") == 1


def _jet_verma(order: int) -> dict:
    return {
        "family": "verma",
        "quotients": [{"point": ["0"], "order": order}],
        "max_level": 2,
        "phi": [{"gen": "d0", "point": 0, "exp": [order - 1], "value": "1"}],
    }


@pytest.mark.parametrize(
    "order,diagnostic",
    [
        (100_000, "config error: level 1 has more than 100000 PBW monomials (level 1 has 200000), too many to list"),
        (100_000_000,
         "config error: level 1 has more than 100000 PBW monomials (level 1 has 200000000), too many to list"),
        (5_000, "config error: the level builder up to level 1 reads 100000000 columns, more than 1000000"),
    ],
    ids=["order-100000", "order-100000000", "order-5000-builder"],
)
def test_a_large_jet_quotient_exits_2_before_it_is_listed(tmp_path, capsys, order, diagnostic):
    config = {"command": "singular-vectors", "module": _jet_verma(order), "bounds": {"level": 1}}
    start = time.perf_counter()
    assert _run_main(tmp_path, config) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == diagnostic + "\n"


HALF_LINE = {"family": "intermediate", "alpha": "1/2", "beta": "0", "F": "1"}
HUGE = {"window": 100_000_000}


@pytest.mark.parametrize(
    "config",
    [
        {"command": "weights", "module": HALF_LINE, "bounds": HUGE},
        {"command": "probe-irreducible", "module": HALF_LINE, "bounds": HUGE},
        {"command": "check-axioms", "module": HALF_LINE, "bounds": dict(HUGE, index=0, monomial=0)},
        {"command": "annihilator", "module": OMEGA, "bounds": HUGE,
         "generators": [{"terms": [{"exp": [1], "coeff": "1"}]}]},
    ],
    ids=["weights", "probe-irreducible", "check-axioms", "annihilator"],
)
def test_a_huge_window_exits_2_before_it_is_listed(tmp_path, capsys, config):
    start = time.perf_counter()
    assert _run_main(tmp_path, config) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: window 100000000 has ")
    assert "vectors, more than 100000 to list" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"command": "weights", "command": "invariants", "module": ' + json.dumps(OMEGA) + "}", "command"),
        ('{"command": "weights", "module": {"family": "intermediate", "alpha": "1/2", "alpha": "3", "beta": "0",'
         ' "F": "1"}}', "alpha"),
    ],
    ids=["command", "module-alpha"],
)
def test_a_repeated_json_key_exits_2(tmp_path, capsys, text, key):
    """A repeated key is refused, not read as its last value."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: cannot read {path}: repeated key {key!r}\n"


@pytest.mark.parametrize(
    "module,diagnostic",
    [
        ({"family": "verma", "phi": [{"gen": "d0", "value": "1"}, {"gen": "d0", "value": "2"}]},
         "module.phi[1]: repeats phi[0] (gen d0 at the same point and exp)"),
        # d0 at a second key (phi[2]) is no repeat
        ({"family": "tensor", "left": VERMA,
          "right": dict(VERMA, phi=[*VERMA["phi"], {"gen": "d0", "exp": [1], "value": "1"}, VERMA["phi"][1]])},
         "module.right.phi[3]: repeats phi[1] (gen I0 at the same point and exp)"),
    ],
    ids=["trivial", "tensor-quotient"],
)
def test_a_repeated_phi_entry_exits_2(tmp_path, capsys, module, diagnostic):
    """Two phi entries on one slot and key are refused, not read as the last one."""
    assert _run_main(tmp_path, {"command": "weights", "module": module}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {diagnostic}\n"


def test_an_omega_window_is_budgeted_by_its_coefficients(tmp_path, capsys):
    config = {"command": "probe-irreducible", "module": OMEGA, "bounds": {"window": 100_000}}
    assert _run_main(tmp_path, config) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: window 100000 has 100001 vectors, more than 100000 to list"
        " (weighed as 5000150001, each t^j as j + 1)\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        '{"command": "jacobi-sweep", "bounds": {"index": ' + "9" * 5001 + "}}",
        '{"command": "weights", "module": {"family": "intermediate", "alpha": "é"}}'.encode("latin-1"),
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["5001-digit-integer", "latin-1-file", "nested-100000-deep"],
)
def test_an_unreadable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read {path}: ")
    assert captured.err.count("\n") == 1


def test_any_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def broken(config, out_format="json", seed=None):
        raise RuntimeError("two\nlines")

    monkeypatch.setattr("hvkit.cli.run_config", broken)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "invariants", "module": OMEGA}))
    assert main(["--config", str(path)]) == 3
    captured = capsys.readouterr()
    _assert_internal_error(captured, "RuntimeError")
    assert captured.err == "internal error: RuntimeError: two lines\n"


# The config schema written out independently of ``cli._COMMANDS``: for each
# command, a small valid config, and the top-level fields and bounds it reads.
POLY_B = {"terms": [{"exp": [1], "coeff": "1"}]}
SCHEMA_CASES = {
    "check-axioms": ({"module": OMEGA, "bounds": {"index": 1, "monomial": 1, "window": 1}},
                     {"module", "bounds.index", "bounds.monomial", "bounds.window"}),
    "weights": ({"module": INTERMEDIATE, "bounds": {"window": 2}}, {"module", "bounds.window"}),
    "probe-irreducible": ({"module": INTERMEDIATE, "bounds": {"window": 2, "operator": 1}},
                          {"module", "bounds.window", "bounds.operator"}),
    "singular-vectors": ({"module": VERMA, "raising": "full", "bounds": {"level": 1}},
                         {"module", "raising", "bounds.level"}),
    "hc-suite": ({"module": VERMA, "f": POLY_B, "bounds": {"level": 1}}, {"module", "f", "bounds.level"}),
    "invariants": ({"module": OMEGA}, {"module"}),
    "annihilator": ({"module": EVAL1, "generators": [POLY_B], "bounds": {"window": 1, "index": 1}},
                    {"module", "generators", "bounds.window", "bounds.index"}),
    "jacobi-sweep": ({"bounds": {"index": 1, "monomial": 0, "k": 0}},
                     {"bounds.index", "bounds.monomial", "bounds.k"}),
}
# a valid value for every field some command reads
FIELD_VALUES = {
    "module": OMEGA, "f": POLY_B, "generators": [POLY_B], "raising": "full",
    **{f"bounds.{name}": 1 for name in ("index", "monomial", "window", "level", "k", "operator")},
}
FOREIGN_FIELDS = [
    (command, field) for command, (_base, row) in SCHEMA_CASES.items() for field in FIELD_VALUES if field not in row
]


def _with_field(config: dict, field: str) -> dict:
    config = json.loads(json.dumps(config))
    if field.startswith("bounds."):
        config.setdefault("bounds", {})[field[len("bounds."):]] = FIELD_VALUES[field]
    else:
        config[field] = FIELD_VALUES[field]
    return config


def test_the_schema_cases_cover_every_foreign_pair():
    assert len(FOREIGN_FIELDS) == 57


@pytest.mark.parametrize("command", sorted(SCHEMA_CASES))
def test_each_schema_case_is_valid(command):
    code, _text = run_config(dict(SCHEMA_CASES[command][0], command=command))
    assert code == 0


@pytest.mark.parametrize("command,field", FOREIGN_FIELDS, ids=[f"{c}-{f}" for c, f in FOREIGN_FIELDS])
def test_a_field_outside_the_command_row_exits_2(tmp_path, capsys, monkeypatch, command, field):
    def no_module(data):
        raise AssertionError("a module was built")

    monkeypatch.setattr("hvkit.cli.module_from_descriptor", no_module)
    config = _with_field(dict(SCHEMA_CASES[command][0], command=command), field)
    assert _run_main(tmp_path, config) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {field}: unknown field")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(SCHEMA_CASES))
def test_each_command_reads_every_bound_of_its_row(monkeypatch, command):
    read = set()
    bound = cli._bound

    def recording(bounds, name, default, least):
        read.add(f"bounds.{name}")
        return bound(bounds, name, default, least)

    monkeypatch.setattr(cli, "_bound", recording)
    base, row = SCHEMA_CASES[command]
    run_config(dict(base, command=command))
    assert read == {field for field in row if field.startswith("bounds.")}


@pytest.mark.parametrize("command", [["weights"], {"weights": 1}, 3, None])
def test_a_command_that_is_not_a_string_exits_2(tmp_path, capsys, command):
    assert _run_main(tmp_path, {"command": command, "module": OMEGA}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: command: must be one of check-axioms, ")
    assert captured.err.count("\n") == 1


FAMILIES = "intermediate, omega, evaluation, verma, tensor"
# Descriptor defects: (id, descriptor, its diagnostic after the descriptor's path).
DESCRIPTOR_DEFECTS = [
    ("bad-scalar", dict(INTERMEDIATE, alpha="x"), ".alpha: malformed scalar 'x'"),
    ("bool-scalar", dict(INTERMEDIATE, alpha=True), ".alpha: expected a scalar string, got True"),
    ("mu-not-a-list", dict(OMEGA, mu="1"), ".mu: must be a list"),
    ("point-not-a-list", dict(EVAL1, point="2"), ".point: must be a list"),
    ("order-string", dict(EVAL1, order="x"), ".order: must be an integer"),
    ("drop-line-string", dict(INTERMEDIATE, drop_line="0"), ".drop_line: must be an integer"),
    ("zero-lambda", dict(OMEGA, **{"lambda": "0"}), ": lambda must be nonzero"),
    ("unknown-gen", dict(TRIVIAL_VERMA, phi=[{"gen": "d1", "value": "1"}]), ".phi[0]: unknown gen 'd1'"),
    ("quotient-not-an-object", dict(JET_B2_VERMA, quotients=[5]), ".quotients[0]: must be an object"),
    ("phi-key-outside-the-basis", dict(JET_B2_VERMA, phi=[{"gen": "d0", "point": 0, "exp": [2], "value": "1"}]),
     ".phi[0]: key (0, (2,)) outside the quotient basis"),
    ("family-list", {"family": ["x"]}, f".family: must be one of {FAMILIES}"),
    ("family-int", {"family": 3}, f".family: must be one of {FAMILIES}"),
    ("family-null", {"family": None}, f".family: must be one of {FAMILIES}"),
]
# where a defect is planted: at the top, inside an evaluation wrapper, as a tensor's right factor
DESCRIPTOR_PLACES = {
    "module": lambda desc: desc,
    "module.inner": lambda desc: dict(EVAL1, inner=desc),
    "module.right": lambda desc: {"family": "tensor", "left": INTERMEDIATE, "right": desc},
}
FALSY = [False, None, 0, "", []]
PHI_TRIVIAL = {"gen": "d0", "value": "1"}
# (id, config, diagnostic)
MORE_DIAGNOSTICS = [
    *[(f"{name}-at-{path}", {"command": "weights", "module": place(desc)}, f"{path}{tail}")
      for name, desc, tail in DESCRIPTOR_DEFECTS for path, place in DESCRIPTOR_PLACES.items()],
    *[(f"bounds-{value!r}", {"command": "invariants", "module": OMEGA, "bounds": value}, "bounds: must be an object")
      for value in FALSY],
    # an empty list is a valid quotients, phi or exp; every other falsy value is refused
    *[(f"{field}-{value!r}", {"command": "weights", "module": dict(TRIVIAL_VERMA, **{field: value})},
       f"module.{field}: must be a list") for field in ("quotients", "phi") for value in FALSY[:-1]],
    *[(f"exp-{value!r}", {"command": "weights", "module": dict(TRIVIAL_VERMA, phi=[dict(PHI_TRIVIAL, exp=value)])},
       "module.phi[0].exp: must be a list") for value in FALSY[:-1]],
    ("f-k-string", {"command": "hc-suite", "module": VERMA, "f": dict(POLY_B, k="x")}, "f.k: must be an integer"),
    ("f-k-bool", {"command": "hc-suite", "module": VERMA, "f": dict(POLY_B, k=True)}, "f.k: must be an integer"),
    ("f-k-other", {"command": "hc-suite", "module": VERMA, "f": dict(POLY_B, k=2)},
     "f.k: must be 1, the module's variable count"),
    ("generator-exp-length", {"command": "annihilator", "module": OMEGA, "generators": [{"terms": [{"exp": [1, 0]}]}]},
     "generators[0].terms[0].exp: expected 1 entries"),
    ("f-coeff", {"command": "hc-suite", "module": VERMA, "f": {"terms": [{"exp": [1], "coeff": "x"}]}},
     "f.terms[0].coeff: malformed scalar 'x'"),
    ("f-negative-exp", {"command": "hc-suite", "module": VERMA, "f": {"terms": [{"exp": [-1]}]}},
     "f.terms[0].exp: entries must be >= 0"),
    ("generator-negative-exp",
     {"command": "annihilator", "module": OMEGA, "generators": [{"terms": [{"exp": [0]}, {"exp": [-2]}]}]},
     "generators[0].terms[1].exp: entries must be >= 0"),
]


@pytest.mark.parametrize(
    "config, diagnostic",
    [
        ({"command": "weights"}, "module: missing"),
        ({"command": "hc-suite", "module": VERMA}, "f: missing"),
        ({"command": "annihilator", "module": OMEGA}, "generators: missing"),
        ({"command": "hc-suite", "module": VERMA, "f": {"k": 1}}, "f.terms: missing"),
        ({"command": "hc-suite", "module": VERMA, "f": {"terms": [{"exp": [1], "coef": "1"}]}},
         "f.terms[0].coef: unknown field (accepted here: exp, coeff)"),
        ({"command": "annihilator", "module": OMEGA, "generators": [dict(POLY_B, x=1)]},
         "generators[0].x: unknown field (accepted here: terms, k)"),
        ({"command": "weights", "module": dict(OMEGA, x=1)}, "module.x: unknown field"),
        ({"command": "weights", "module": {"family": "omega", "lambda": "1"}}, "module.alpha: missing"),
        ({"command": "invariants", "module": OMEGA, "bounds": {"window": 1}},
         "bounds.window: unknown field (accepted here: none)"),
        *[case[1:] for case in MORE_DIAGNOSTICS],
    ],
    ids=["module", "f", "generators", "f-terms", "term-field", "generator-field", "descriptor-field",
         "descriptor-missing", "bounds-of-invariants", *[case[0] for case in MORE_DIAGNOSTICS]],
)
def test_config_objects_share_one_diagnostic_format(tmp_path, capsys, config, diagnostic):
    assert _run_main(tmp_path, config) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {diagnostic}")
    assert captured.err.count("\n") == 1


def _hc_level_zero(order: int, phi: list) -> dict:
    module = {"family": "verma", "quotients": [{"point": ["0"], "order": order}], "max_level": 2, "phi": phi}
    return {"command": "hc-suite", "module": module, "f": {"terms": [{"exp": [0], "coeff": "1"}]},
            "bounds": {"level": 0}}


PHI_D0 = [{"gen": "d0", "point": 0, "exp": [0], "value": "1"}]


@pytest.mark.parametrize("phi", [[], PHI_D0], ids=["phi-zero", "phi-d0"])
def test_hc_suite_counts_a_huge_quotient_before_listing_its_keys(tmp_path, capsys, phi):
    start = time.perf_counter()
    assert _run_main(tmp_path, _hc_level_zero(100_000_000, phi)) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: the coefficient algebra has 100000000 basis keys, more than 100000 to list\n"
    )


def test_hc_suite_at_level_zero_over_a_listable_quotient(tmp_path, capsys):
    # at order 50001 level 1 would hold 100002 monomials, past the budget, but level 0 lists none of them
    for order in (20_000, 50_001):
        assert _run_main(tmp_path, _hc_level_zero(order, [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: bounds.level: must be >= 1 when the functional kills the ideal")
        assert _run_main(tmp_path, _hc_level_zero(order, PHI_D0)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["phi_kills_ideal"] is False and report["passed"] is True
