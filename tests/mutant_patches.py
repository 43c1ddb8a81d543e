"""Seeded source mutants that the tests must catch, each a patch of one file.

``tools/mutation_check.py`` applies each entry to a copy of ``src/`` and
``tests/`` and runs the entry's selection with ``pytest -x -q``: the entry
holds when the selection fails.  The patch text must occur exactly once in
its file, so a refactor that moves the code breaks the entry loudly instead
of leaving the mutant unchecked.  Mutants that are whole classes or
structure functions live in ``mutants.py``; these are the ones only an edit
of the source can make.
"""

from typing import NamedTuple


class Patch(NamedTuple):
    name: str
    path: str  # the patched file, relative to src/
    text: str  # occurs exactly once in the file
    replacement: str
    selection: tuple  # pytest arguments, relative to the repository root


PATCHES = (
    # Ω states x.1 and acts by x.t^j = (t - n)^j (x.1)
    Patch(
        "omega-sign-of-n-alpha",
        "hvkit/modules.py",
        "(s * self.alpha * -n, s)",
        "(s * self.alpha * n, s)",
        ("tests/test_column_oracle.py::test_the_omega_column_on_fixed_parameters",),
    ),
    Patch(
        "omega-shift-t-minus-n-minus-1",
        "hvkit/modules.py",
        "binom = [comb(j, k) * (-n) ** (j - k) for k in range(j + 1)]",
        "binom = [comb(j, k) * (-n - 1) ** (j - k) for k in range(j + 1)]",
        ("tests/test_column_oracle.py::test_the_omega_column_on_fixed_parameters",),
    ),
    Patch(
        "omega-scale-dropped",
        "hvkit/modules.py",
        "s = self._scale(n, exps)",
        "s = ONE",
        ("tests/test_column_oracle.py::test_the_omega_column_on_fixed_parameters",),
    ),
    # the PBW rule: a lowering factor may lead a monomial whose first factor it does not follow
    Patch(
        "pbw-leads-strict",
        "hvkit/modules.py",
        "return not mono or self.order.key(fac) <= self.order.key(mono[0])",
        "return not mono or self.order.key(fac) < self.order.key(mono[0])",
        ("tests/test_verma_basis_oracle.py",),
    ),
    # the level builder reads every raising factor of index <= m
    Patch(
        "builder-skips-degree-2-factors",
        "hvkit/analysis.py",
        "            if index > m:\n",
        "            if index > m or index == 2:\n",
        ("tests/test_level_builder_oracle.py", "tests/test_classical_oracle.py"),
    ),
    # the central term of [d_n, I_-n] is (n^2 + n) C_D
    Patch(
        "hv-structure-cd-cocycle-sign",
        "hvkit/algebra.py",
        "c = n1 * n1 + n1",
        "c = n1 * n1 - n1",
        ("tests/test_classical_oracle.py",),
    ),
    # the axiom sweep's bracket table: [g1 (x) k1, g2 (x) k2] = [g1, g2] (x) k1k2, negated
    Patch(
        "bracket-table-decorated-by-k1",
        "hvkit/analysis.py",
        "key3 = coeffs.multiply(k1, k2) if run else None",
        "key3 = k1 if run else None",
        ("tests/test_bracket_table_oracle.py",),
    ),
    Patch(
        "bracket-table-not-negated",
        "hvkit/analysis.py",
        "(Generator(kind, idx), -a, -b, d)",
        "(Generator(kind, idx), a, b, d)",
        ("tests/test_bracket_table_oracle.py",),
    ),
    # the evaluation wrapper's jets: only a coefficient equal to 1 is ONE, and every jet counts
    Patch(
        "jets-every-real-coefficient-one",
        "hvkit/modules.py",
        "ONE if jc == 1 else jc",
        "ONE if not jc.im else jc",
        ("tests/test_modules.py::test_unit_jet_coefficients_are_the_one_object",),
    ),
    Patch(
        "translate-ignores-higher-jets",
        "hvkit/modules.py",
        "for r, jc in expanded.items()]",
        "for r, jc in expanded.items() if not any(r)]",
        ("tests/test_modules.py::test_order_two_evaluation_uses_jets",),
    ),
    # act compares the element's algebra with the module's unless it is the very same object
    Patch(
        "act-never-checks-the-element",
        "hvkit/modules.py",
        "        if x.coeffs is not self.algebra():\n            self._check_element(x)\n",
        "",
        ("tests/test_act_result_oracle.py::test_an_element_over_another_algebra_is_refused",),
    ),
    # apply's unit path: only one own term of coefficient ONE on one coordinate ONE is its column
    Patch(
        "apply-unit-path-ignores-own-coefficient",
        "hvkit/modules.py",
        "if c is ONE and cv is ONE:",
        "if cv is ONE:",
        ("tests/test_apply_unit_path.py",),
    ),
    # the axiom sweep's term rows: (id, a, b, d) tuples, and an overflowed row raises when iterated
    Patch(
        "term-row-drops-imaginary-part",
        "hvkit/analysis.py",
        "row = tuple((intern(key), *c.triple) for key, c in image.items())",
        "row = tuple((intern(key), c.triple[0], 0, c.triple[2]) for key, c in image.items())",
        ("tests/test_axiom_table_oracle.py",),
    ),
    Patch(
        "overflowed-row-iterates-empty",
        "hvkit/analysis.py",
        'raise LevelOverflowError("a row of this triple saturates the truncation")',
        "return iter(())",
        ("tests/test_axiom_table_oracle.py",),
    ),
    # a Gaussian pivot row is scaled by the pivot's conjugate over its norm
    Patch(
        "gaussian-pivot-times-pivot",
        "hvkit/linalg.py",
        "(a * pr + b * pi, b * pr - a * pi)",
        "(a * pr - b * pi, b * pr + a * pi)",
        ("tests/test_linalg_oracle.py::test_sparse_rref_examples[gaussian-multiple]",),
    ),
    # scalars: the triple is canonical, d > 0, and an int factor scales both parts
    Patch(
        "scalar-denominator-sign-kept",
        "hvkit/scalars.py",
        "            a, b, d = -a, -b, -d\n",
        "            pass\n",
        ("tests/test_scalars.py", "tests/test_scalars_oracle.py"),
    ),
    Patch(
        "scalar-int-multiply-keeps-imaginary-part",
        "hvkit/scalars.py",
        "return _make(self._a * other, self._b * other, self._d)",
        "return _make(self._a * other, self._b, self._d)",
        ("tests/test_scalars.py", "tests/test_scalars_oracle.py"),
    ),
    # parse, print and hash read the triple: the hash is Fraction's, signed; each
    # printed part is reduced by its gcd; a part of digits reads as numerator/denominator
    Patch(
        "scalar-hash-drops-sign",
        "hvkit/scalars.py",
        "    if n < 0:\n        h = -h\n",
        "",
        ("tests/test_scalar_text_oracle.py::test_hash_matches_the_fraction_reference",),
    ),
    Patch(
        "render-part-skips-gcd",
        "hvkit/scalars.py",
        "        g = gcd(n, d)\n        if g != 1:\n",
        "        g = 1\n        if g != 1:\n",
        ("tests/test_scalar_text_oracle.py::test_render_matches_the_fraction_reference",),
    ),
    Patch(
        "parse-swaps-numerator-and-denominator",
        "hvkit/scalars.py",
        "return int(num), d",
        "return d, int(num)",
        ("tests/test_scalar_text_oracle.py::test_parse_matches_the_reference_and_round_trips",),
    ),
    # one text for every sum: signed sums fold -1 and join by " - ", unsigned ones do neither
    Patch(
        "render-sum-signed-joins-plus",
        "hvkit/scalars.py",
        "    if not signed:\n",
        "    if True:\n",
        ("tests/test_render_oracle.py",),
    ),
    Patch(
        "render-sum-minus-one-unsigned",
        "hvkit/scalars.py",
        "elif signed and c == -1:",
        "elif c == -1:",
        ("tests/test_render_oracle.py",),
    ),
    # the mod-P certificate: a row whose denominator P divides has no image mod P
    Patch(
        "certificate-accepts-denominator-P",
        "hvkit/linalg.py",
        "if len(pivots) + left < ncols or not den % P:",
        "if len(pivots) + left < ncols:",
        ("tests/test_linalg_oracle.py::test_rank_deficient_rows_take_the_exact_path",),
    ),
    # the parser built once at import: it refuses unknown options, and reports print as JSON by default
    Patch(
        "cli-parser-accepts-unknown-options",
        "hvkit/cli.py",
        "_PARSER.parse_args(argv)",
        "_PARSER.parse_known_args(argv)[0]",
        ("tests/test_cli_parser.py::test_repeated_main_calls_match_the_reference",),
    ),
    Patch(
        "cli-parser-out-default-tsv",
        "hvkit/cli.py",
        'choices=("json", "tsv"), default="json")',
        'choices=("json", "tsv"), default="tsv")',
        ("tests/test_cli_parser.py::test_parsed_arguments_match_the_reference[config-only]",),
    ),
)
