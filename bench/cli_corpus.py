"""The cli-corpus workload's configs.

``SLOTS`` is a list of ``(name, variants)``; the seed picks one variant per
slot.  A variant is ``{"config": <JSON object, or raw text for a file that
is not valid JSON>, "out": "json" | "tsv"}``.  The corpus covers all eight
commands and all five families, with real and Gaussian parameters, every
size small enough to decide well under a second.  It also holds malformed
configs, whose documented outcome is exit 2; some of them crash the CLI
with a traceback today (``KNOWN_CRASH_SLOTS``, the defects listed in
ROADMAP item 5), and the benchmark records those as known crashes.
"""

from __future__ import annotations


def inter(alpha, beta, f, **extra):
    return {"family": "intermediate", "alpha": alpha, "beta": beta, "F": f, **extra}


def omega(lam, alpha, mu, beta):
    return {"family": "omega", "lambda": lam, "alpha": alpha, "mu": list(mu), "beta": beta}


def evaluation(point, order, inner):
    return {"family": "evaluation", "point": [point], "order": order, "inner": inner}


def verma(phi, max_level, point=None, order=None):
    """phi: [(gen, exp index or None, value)]; trivial B when point is None."""
    entries = []
    for gen, exp, value in phi:
        entry = {"gen": gen, "value": value}
        if point is None:
            entry["exp"] = []
        else:
            entry["point"] = 0
            entry["exp"] = [exp]
        entries.append(entry)
    out = {"family": "verma", "max_level": max_level, "phi": entries}
    if point is not None:
        out["quotients"] = [{"point": [point], "order": order}]
    return out


def tensor(left, right):
    return {"family": "tensor", "left": left, "right": right}


def poly(*terms):
    return {"terms": [{"exp": list(exp), "coeff": c} for exp, c in terms]}


def cfg(command, module=None, bounds=None, out="json", **extra):
    config = {"command": command}
    if module is not None:
        config["module"] = module
    if bounds is not None:
        config["bounds"] = bounds
    config.update(extra)
    return {"config": config, "out": out}


def raw(text):
    return {"config": text, "out": "json"}


# functionals over trivial B
PHI_GENERIC = [
    [("d0", None, "3/2"), ("I0", None, "-2"), ("C", None, "5"), ("C_D", None, "1/3"),
     ("C_I", None, "2")],
    [("d0", None, "-1/2"), ("I0", None, "1"), ("C", None, "2/5"), ("C_D", None, "-3"),
     ("C_I", None, "1/2")],
]
PHI_DEGENERATE = [
    [("d0", None, "1"), ("C", None, "1")],
    [("d0", None, "-2/3"), ("C", None, "3")],
]
PHI_GAUSSIAN = [
    [("d0", None, "1/2+1/3*i"), ("I0", None, "-2"), ("C", None, "5"), ("C_D", None, "i"),
     ("C_I", None, "2")],
]
# functionals over C[b]/(b^2) and B/m^3 (exp index = jet degree)
PHI_JET = [
    [("d0", 0, "1"), ("I0", 1, "2"), ("C", 0, "1/2"), ("C_D", 0, "-1/3")],
    [("d0", 0, "-3/4"), ("I0", 0, "1"), ("C_I", 1, "2"), ("C", 1, "3")],
]
PHI_M3 = [
    [("d0", 0, "1/2"), ("I0", 1, "-1"), ("C_D", 2, "3")],
    [("d0", 1, "-2"), ("C_I", 0, "1"), ("C", 1, "7")],
]

# Variants of one slot share their structure and value heights, so every
# seed's corpus costs about the same.
V_JET_ORDER1 = [evaluation(p, 1, inter(a, "0", "1")) for p in ("2", "-2") for a in ("1/2", "-1/2")]
OMEGAS = [omega("2", "3", ["1"], "1"), omega("-2", "1", ["3"], "1")]

SLOTS = [
    # check-axioms
    ("axioms-intermediate", [cfg("check-axioms", inter(a, "1", f), {"index": 2, "monomial": 0, "window": 3})
                             for a in ("1/2", "-1/2") for f in ("1", "-1")]),
    ("axioms-intermediate-zero-f", [cfg("check-axioms", inter(a, "1", "0"), {"index": 2, "monomial": 0, "window": 3})
                                    for a in ("0", "1")]),
    ("axioms-intermediate-gaussian", [cfg("check-axioms", inter(a, "0", "1"), {"index": 2, "window": 2})
                                      for a in ("1/2+1/3*i", "1/3+1/2*i")]),
    ("axioms-intermediate-tsv", [cfg("check-axioms", inter("1", b, "2"), {"index": 2, "window": 2}, out="tsv")
                                 for b in ("0", "2")]),
    ("axioms-omega", [cfg("check-axioms", m, {"index": 1, "monomial": 1, "window": 1}) for m in OMEGAS]),
    ("axioms-omega-k2", [cfg("check-axioms", omega("1", "1/2", ["1", "2"], "1"), {"index": 1, "monomial": 1, "window": 1})]),
    ("axioms-evaluation1", [cfg("check-axioms", m, {"index": 2, "monomial": 1, "window": 2}) for m in V_JET_ORDER1]),
    ("axioms-evaluation2", [cfg("check-axioms", evaluation(p, 2, verma(phi, 6, p, 2)), {"index": 1, "monomial": 1, "window": 1})
                            for p in ("1", "-1") for phi in PHI_JET]),
    ("axioms-verma", [cfg("check-axioms", verma(phi, 4), {"index": 2, "window": 1}) for phi in PHI_GENERIC]),
    ("axioms-tensor", [cfg("check-axioms", tensor(inter("0", "1", "1"), inter(a, "0", "2")), {"index": 1, "window": 1})
                       for a in ("1/2", "1/3")]),
    ("axioms-negative-index", [cfg("check-axioms", inter("0", "0", "0"), {"index": -3})]),
    # weights
    ("weights-intermediate", [cfg("weights", inter(a, b, "1"), {"window": 4}) for a in ("1/2", "0") for b in ("0", "1")]),
    ("weights-intermediate-tsv", [cfg("weights", inter("1/3", "1", "1"), {"window": 3}, out="tsv")]),
    ("weights-intermediate-gaussian", [cfg("weights", inter("1/2+1/3*i", "0", "1"), {"window": 2})]),
    ("weights-evaluation", [cfg("weights", m, {"window": 3}) for m in V_JET_ORDER1]),
    ("weights-verma", [cfg("weights", verma(phi, 3), {"window": 3}) for phi in PHI_GENERIC]),
    ("weights-verma-tsv", [cfg("weights", verma(phi, 3), {"window": 2}, out="tsv") for phi in PHI_GAUSSIAN]),
    ("weights-verma-jet", [cfg("weights", verma(phi, 3, "0", 2), {"window": 2}) for phi in PHI_JET]),
    ("weights-tensor", [cfg("weights", tensor(inter("0", "1", "1"), inter(a, "0", "2")), {"window": 1})
                        for a in ("1/2", "1/3")]),
    ("weights-omega", [cfg("weights", m, {"window": 2}) for m in OMEGAS]),
    # probe-irreducible
    ("probe-intermediate-lines", [cfg("probe-irreducible", inter("0", "0", "0"), {"window": 4, "operator": 3})]),
    ("probe-intermediate-complement", [cfg("probe-irreducible", inter("0", "1", "0"), {"window": 4, "operator": 3})]),
    ("probe-intermediate-irreducible", [cfg("probe-irreducible", inter(a, "1", "1"), {"window": 3, "operator": 2})
                                        for a in ("1/2", "2/3")]),
    ("probe-intermediate-gaussian", [cfg("probe-irreducible", inter("i", "0", "1"), {"window": 3, "operator": 2})]),
    ("probe-primed", [cfg("probe-irreducible", inter("0", "0", "0", drop_line=0), {"window": 3, "operator": 2})]),
    ("probe-omega-reducible", [cfg("probe-irreducible", omega(lam, "0", ["1"], "0"), {"window": 3, "operator": 2})
                               for lam in ("1", "2")]),
    ("probe-omega-irreducible", [cfg("probe-irreducible", m, {"window": 2, "operator": 2}) for m in OMEGAS]),
    ("probe-evaluation", [cfg("probe-irreducible", m, {"window": 3, "operator": 2}) for m in V_JET_ORDER1]),
    ("probe-verma", [cfg("probe-irreducible", verma(PHI_GENERIC[0], 2))]),
    # singular-vectors
    ("singular-generic-l1", [cfg("singular-vectors", verma(phi, 2), {"level": 1}) for phi in PHI_GENERIC]),
    ("singular-generic-l2", [cfg("singular-vectors", verma(phi, 2), {"level": 2}) for phi in PHI_GENERIC]),
    ("singular-generic-l3", [cfg("singular-vectors", verma(phi, 3), {"level": 3}) for phi in PHI_GENERIC]),
    ("singular-degenerate-l2", [cfg("singular-vectors", verma(phi, 2), {"level": 2}) for phi in PHI_DEGENERATE]),
    ("singular-degenerate-l3-tsv", [cfg("singular-vectors", verma(phi, 3), {"level": 3}, out="tsv") for phi in PHI_DEGENERATE]),
    ("singular-full-l2", [cfg("singular-vectors", verma(phi, 2), {"level": 2}, raising="full") for phi in PHI_GENERIC]),
    ("singular-full-l3", [cfg("singular-vectors", verma(phi, 3), {"level": 3}, raising="full") for phi in PHI_DEGENERATE]),
    ("singular-jet-l1", [cfg("singular-vectors", verma(phi, 2, "0", 2), {"level": 1}) for phi in PHI_JET]),
    ("singular-jet-l2", [cfg("singular-vectors", verma(phi, 2, "0", 2), {"level": 2}) for phi in PHI_JET]),
    ("singular-gaussian-l2", [cfg("singular-vectors", verma(phi, 2), {"level": 2}) for phi in PHI_GAUSSIAN]),
    ("singular-not-verma", [cfg("singular-vectors", inter("0", "0", "1"), {"level": 1})]),
    ("singular-bad-raising", [cfg("singular-vectors", verma(PHI_GENERIC[0], 2), {"level": 1}, raising="all")]),
    # hc-suite
    ("hc-m3-one", [cfg("hc-suite", verma(phi, 3, "0", 3), {"level": 3}, f=poly(((0,), "1"))) for phi in PHI_M3]),
    ("hc-m3-b", [cfg("hc-suite", verma(phi, 3, "0", 3), {"level": 3}, f=poly(((1,), "1"))) for phi in PHI_M3]),
    ("hc-m3-b2", [cfg("hc-suite", verma(phi, 3, "0", 3), {"level": 3}, f=poly(((2,), "1"))) for phi in PHI_M3]),
    ("hc-m3-zero-functional", [cfg("hc-suite", verma([], 3, "0", 3), {"level": 3}, f=poly(((e,), "1"))) for e in (0, 1)]),
    ("hc-trivial", [cfg("hc-suite", verma(phi, 3), {"level": 3}, f=poly(((), "1"))) for phi in PHI_GENERIC]),
    ("hc-not-verma", [cfg("hc-suite", inter("0", "0", "1"), f=poly(((), "1")))]),
    ("hc-missing-f", [cfg("hc-suite", verma(PHI_GENERIC[0], 2))]),
    # invariants
    ("invariants-omega", [cfg("invariants", m) for m in OMEGAS]),
    ("invariants-omega-k2", [cfg("invariants", omega(lam, "1/2", ["1", "-2"], "3")) for lam in ("1", "3/2")]),
    ("invariants-omega-gaussian", [cfg("invariants", omega("1+i", "1/2", ["i"], "-1"))]),
    ("invariants-intermediate", [cfg("invariants", inter("1/2", "0", "1"))]),
    ("invariants-evaluation", [cfg("invariants", m) for m in V_JET_ORDER1[:2]]),
    # annihilator
    ("annihilator-evaluation1", [cfg("annihilator", evaluation(p, 1, inter("1/2", "0", "1")), {"window": 2, "index": 2},
                                     generators=[poly(((1,), "1"), ((0,), "-" + p)), poly(((2,), "1"))])
                                 for p in ("2", "1/2")]),
    ("annihilator-evaluation2", [cfg("annihilator", evaluation("2", 2, verma(PHI_JET[0], 3, "2", 2)), {"window": 1, "index": 1},
                                     generators=[poly(((2,), "1"), ((1,), "-4"), ((0,), "4")), poly(((1,), "1"), ((0,), "-2"))])]),
    ("annihilator-omega", [cfg("annihilator", m, {"window": 1, "index": 1}, generators=[poly(((1,), "1"))]) for m in OMEGAS]),
    ("annihilator-verma", [cfg("annihilator", verma(PHI_JET[0], 2, "0", 2), generators=[poly(((1,), "1"))])]),
    ("annihilator-missing", [cfg("annihilator", evaluation("2", 1, inter("1/2", "0", "1")))]),
    # jacobi-sweep
    ("jacobi-111", [cfg("jacobi-sweep", bounds={"index": 1, "monomial": 1, "k": 1})]),
    ("jacobi-102", [cfg("jacobi-sweep", bounds={"index": 1, "monomial": 0, "k": 2})]),
    ("jacobi-211-tsv", [cfg("jacobi-sweep", bounds={"index": 2, "monomial": 1, "k": 1}, out="tsv")]),
    ("jacobi-201", [cfg("jacobi-sweep", bounds={"index": 2, "monomial": 0, "k": 1})]),
    # malformed configs: documented outcome exit 2
    ("bad-command", [cfg("check-everything", inter("0", "0", "0"))]),
    ("bad-top-field", [cfg("weights", inter("0", "0", "0"), colour="blue")]),
    ("bad-bound-field", [cfg("weights", inter("0", "0", "0"), {"depth": 2})]),
    ("bad-bound-type", [cfg("weights", inter("0", "0", "0"), {"window": "3"})]),
    ("bad-scalar", [cfg("weights", inter("1/0", "0", "0"))]),
    ("bad-module-type", [cfg("weights", ["intermediate"])]),
    ("bad-family", [cfg("weights", {"family": "loop"})]),
    ("missing-module", [cfg("weights")]),
    ("bad-json", [raw('{"command": "weights", "module": ')]),
    ("config-not-object", [raw('["weights"]')]),
    ("omega-zero-lambda", [cfg("invariants", omega("0", "1", ["1"], "0"))]),
    ("drop-line-nondegenerate", [cfg("weights", inter("1/2", "0", "1", drop_line=0))]),
    ("verma-bad-gen", [cfg("weights", {"family": "verma", "phi": [{"gen": "d1", "exp": [], "value": "1"}]})]),
    ("evaluation-order2-core", [cfg("weights", evaluation("1", 2, inter("0", "0", "1")))]),
    # ROADMAP item 5: malformed descriptors that crash today (documented outcome: exit 2)
    ("crash-order-string", [cfg("weights", evaluation("2", "x", inter("1/2", "0", "1")))]),
    ("crash-quotient-not-object", [cfg("weights", {"family": "verma", "quotients": [5], "max_level": 2})]),
    ("crash-phi-exp-string", [cfg("weights", verma([("d0", "a", "1")], 2, "0", 2))]),
    ("crash-max-level-string", [cfg("weights", verma(PHI_GENERIC[0], "7"))]),
    ("crash-drop-line-string", [cfg("weights", inter("0", "0", "0", drop_line="0"))]),
    ("crash-poly-exp-string", [cfg("hc-suite", verma(PHI_JET[0], 2, "0", 2), f=poly((("z",), "1")))]),
]

KNOWN_CRASH_SLOTS = {
    "crash-order-string",
    "crash-quotient-not-object",
    "crash-phi-exp-string",
    "crash-max-level-string",
    "crash-drop-line-string",
    "crash-poly-exp-string",
    "invariants-intermediate",
    "invariants-evaluation",
}

# the self-test's tiny corpus: every command once, plus a malformed config and a known crash
TINY_SLOTS = {
    "axioms-omega",
    "weights-intermediate",
    "probe-intermediate-lines",
    "singular-generic-l1",
    "hc-m3-one",
    "invariants-omega",
    "annihilator-omega",
    "jacobi-102",
    "bad-json",
    "crash-order-string",
}
