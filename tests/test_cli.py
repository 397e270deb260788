import argparse
import json
import math
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from covercount import cli, monodromy
from covercount.algebra import series_z
from covercount.cli import main
from covercount.exact import format_rational
from covercount.trees import dendrology

from .oracles import seq_a_convolution


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one invocation, argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_z_json(capsys):
    code, out, err = run(capsys, "series", "--name", "Z", "--order", "5", "--json")
    assert code == 0
    assert json.loads(out) == {"1": "1", "2": "2", "3": "9/2", "4": "32/3", "5": "625/24"}


def test_series_unknown_name_is_domain_error(capsys):
    code, out, err = run(capsys, "series", "--name", "W", "--order", "5")
    assert code == 2
    assert "unknown series" in err
    assert out == ""


def test_hurwitz_plain_value(capsys):
    code, out, err = run(capsys, "hurwitz", "--g", "0", "--n", "3")
    assert code == 0
    assert out.strip() == "4"


def test_hurwitz_json_includes_c_and_tuple_count(capsys):
    code, out, err = run(capsys, "hurwitz", "--g", "0", "--n", "3", "--json")
    assert json.loads(out) == {"value": "4", "c": 4, "tuple_count": "24"}


def test_hurwitz_with_profile_and_disconnected(capsys):
    code, out, _ = run(capsys, "hurwitz", "--g", "0", "--n", "3", "--disconnected")
    assert code == 0 and out.strip() == "9/2"
    code, out, _ = run(capsys, "hurwitz", "--g", "1", "--n", "2", "--mu", "2")
    assert code == 0 and out.strip() == "1/2"


def test_hurwitz_invalid_spec_exit2(capsys):
    code, out, err = run(capsys, "hurwitz", "--g", "0", "--n", "2", "--mu", "3")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("order", ["1", "3"])
def test_hseries_refuses_a_negative_genus_at_every_order(capsys, order):
    # at order 1 no n has c(n) >= 0, so no count would have checked the genus
    code, out, err = run(capsys, "hseries", "--g", "-1", "--order", order)
    assert (code, out) == (2, "") and "genus must be >= 0" in err


def test_nonpositive_part_error_names_the_parsed_parts(capsys):
    code, out, err = run(capsys, "hurwitz", "--g", "0", "--n", "3", "--mu", "0")
    assert (code, out) == (2, "")
    assert "(0,)" in err and "generator" not in err


def test_hurwitz_budget_exit3(capsys):
    code, out, err = run(capsys, "hurwitz", "--g", "0", "--n", "8", "--max-nodes", "10")
    assert code == 3 and "refused" in err


def test_genus1_one_profile_refusal_keeps_the_fill_charge(capsys):
    # Vakil's formula answers g = 1, n = 8, mu = (3, 3) and is charged its own
    # work, not the fill it replaces (5800 products): l = 4, c = 12, and
    # N = c + l + 4 |parts| + 2 = 42 give 2 N^2 + 3 l^3 = 3528 + 192 = 3720.
    # It stores no row
    monodromy.clear_caches()
    base = ("hurwitz", "--g", "1", "--n", "8", "--mu", "3,3", "--max-nodes")
    for budget in ("10", "3719"):
        refusal = (
            f"refused: closed form for n=8 would evaluate up to 3720 digit products (> {budget})\n"
        )
        assert run(capsys, *base, budget) == (3, "", refusal)
    assert run(capsys, *base, "3720") == (0, "198643460400\n", "")
    assert not monodromy._CONN and not monodromy._DISC


def test_genus0_closed_count_answers_at_large_n(capsys):
    # g = 0, n = 1500, mu = (2): the (2) profile folds into c, so the count is
    # Hurwitz's of 1^n at c = 2n - 2, (2n-2)! n^(n-3) / n!, charged N^2 with
    # N = c + l + 2 = 2998 + 1500 + 2 = 4500.  The fill it used to be charged
    # is past the default budget
    n, charge = 1500, 4500**2
    base = ("hurwitz", "--g", "0", "--n", str(n), "--mu", "2")
    monodromy.clear_caches()
    code, out, err = run(capsys, *base, "--max-nodes", str(charge - 1))
    assert (code, out) == (3, "") and f"up to {charge} digit products" in err
    assert not monodromy._CONN and not monodromy._DISC and not monodromy._PLANS
    code, out, err = run(capsys, *base)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        value = format_rational(F(math.factorial(2 * n - 2) * n ** (n - 3), math.factorial(n)))
    finally:
        set_limit(limit)
    assert (code, out, err) == (0, value + "\n", "")


def test_disconnected_count_reads_max_nodes(capsys):
    # both counts of a spec read the one budget; the former
    # --max-character-n of the disconnected count is gone
    base = ("hurwitz", "--g", "0", "--n", "3", "--disconnected")
    code, out, err = run(capsys, *base, "--max-nodes", "1")
    assert (code, out) == (3, "") and err.startswith("refused: ")
    code, out, err = run(capsys, *base, "--max-character-n", "2")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --max-character-n" in err


def test_consistency_error_exit4(capsys, monkeypatch):
    import covercount.cli as cli
    from covercount.errors import ConsistencyError

    def disagree(*args, **kwargs):
        raise ConsistencyError("two routes disagree")

    monkeypatch.setattr(cli, "hurwitz_connected", disagree)
    code, out, err = run(capsys, "hurwitz", "--g", "0", "--n", "3")
    assert code == 4
    assert out == ""
    assert "inconsistent: two routes disagree" in err


def test_identify_z(capsys):
    code, out, _ = run(
        capsys, "identify", "--name", "Z", "--order", "12", "--jmin", "-2", "--jmax", "2", "--json"
    )
    obj = json.loads(out)
    assert obj["status"] == "identified"
    assert obj["element"] == {"-1": "1", "0": "-1"}


def test_identify_h1empty_reports_inconsistent(capsys):
    code, out, _ = run(
        capsys, "identify", "--name", "h1empty", "--order", "20", "--json"
    )
    assert json.loads(out)["status"] == "inconsistent"


def test_asymptotic_from_laurent_json(capsys):
    code, out, _ = run(capsys, "asymptotic", "--laurent", '{"-1":"1","0":"-1"}', "--json")
    assert json.loads(out) == {"constant": "1", "radical": "inv_sqrt_2pi", "gamma2": 1}


def test_cayley_csv(capsys):
    code, out, _ = run(capsys, "cayley", "--nmax", "3", "--kmax", "1", "--csv")
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,m,p"
    assert lines[1] == "2,1,2,2"
    assert lines[2] == "3,1,24,24"


def test_cayley_has_no_size_limit(capsys):
    # the rows come from powers of Z, so no tree size is refused; criterion 04
    # has m_{n,1} = p_{n,1} = A_n
    code, out, err = run(capsys, "cayley", "--nmax", "12", "--kmax", "1", "--csv")
    a12 = seq_a_convolution(12)[-1]
    assert (code, err) == (0, "")
    assert out.endswith(f"\n12,1,{a12},{a12}\n")


def test_exact_integers_print_at_any_length(capsys):
    # 1400^1400 has 4,405 digits and cayley's last A_n about 4,770, past the
    # interpreter's default int-to-str limit of 4,300 digits (0 is no limit);
    # main lifts the limit for its own call and restores the caller's
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    limit = get_limit()
    code, series_out, err = run(capsys, "series", "--name", "Z", "--order", "1400")
    assert (code, err, get_limit()) == (0, "", limit)
    code, cayley_out, err = run(capsys, "cayley", "--nmax", "1500", "--kmax", "1", "--csv")
    assert (code, err, get_limit()) == (0, "", limit)
    set_limit(0)
    try:
        last = f"1400: {format_rational(F(1400**1400, math.factorial(1400)))}"
        rows = [",".join(map(str, row)) for row in dendrology(1500, 1)]
    finally:
        set_limit(limit)
    assert series_out.splitlines()[-1] == last
    assert cayley_out.splitlines() == ["n,k,m,p", *rows]


def test_cayley_limit_is_an_unrecognized_argument(capsys):
    code, out, err = run(capsys, "cayley", "--nmax", "3", "--limit", "5")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --limit" in err


def test_tau_bracket_cli(capsys):
    code, out, _ = run(capsys, "tau", "--g", "1", "--d", "1")
    assert code == 0 and out.strip() == "1/24"


def test_painleve_row_contains_e2(capsys):
    code, out, _ = run(capsys, "painleve", "--gmax", "2")
    assert code == 0 and "7/1440" in out


def test_gravity_rows_render_radicals(capsys):
    code, out, _ = run(capsys, "gravity", "--gmax", "3", "--json")
    rows = json.loads(out)
    assert rows[0]["g"] == 2
    assert rows[0]["b"] == "7/4320 * (2*pi)^(-1/2)"
    assert rows[1]["b"] == "245/15925248"


def test_hseries_fit_phi(capsys):
    code, out, _ = run(
        capsys, "hseries", "--g", "1", "--mu", "1", "--order", "10", "--fit-phi"
    )
    obj = json.loads(out)
    assert obj["laurent_identification"]["status"] == "identified"
    assert obj["phi"] == {"0": "0", "1": "1/24"}


def test_z2_json_matches_the_product_route(capsys):
    code, out, _ = run(capsys, "series", "--name", "Z2", "--order", "60", "--json")
    z2 = series_z(60) ** 2
    expected = {str(n): format_rational(z2.coefficient(n)) for n in range(61) if z2.nums[n]}
    assert (code, json.loads(out)) == (0, expected)


def test_same_argv_twice_identical_output(capsys):
    _, out1, _ = run(capsys, "series", "--name", "Y", "--order", "8", "--json")
    _, out2, _ = run(capsys, "series", "--name", "Y", "--order", "8", "--json")
    assert out1 == out2


def test_malformed_laurent_json_exit2(capsys):
    code, out, err = run(capsys, "asymptotic", "--laurent", "{not json")
    assert code == 2 and "error" in err
    code, out, err = run(capsys, "asymptotic", "--laurent", '{"0":"1/0"}')
    assert code == 2
    for text in ("[1,2]", '"1"', '{"1":null}', '{"-1":0.1}', '{"-1": true}', '{"0": false}'):
        code, out, err = run(capsys, "asymptotic", "--laurent", text)
        assert (code, out) == (2, ""), text
        assert "error" in err


@pytest.mark.parametrize("command", ["series", "identify"])
@pytest.mark.parametrize("name", sorted(cli._SERIES))
def test_negative_order_exit2_for_every_series(capsys, command, name):
    code, out, err = run(capsys, command, "--name", name, "--order", "-1")
    assert (code, out) == (2, "")
    assert "error" in err


def test_hseries_negative_order_exit2(capsys):
    code, out, err = run(capsys, "hseries", "--g", "0", "--order", "-1")
    assert (code, out, err) == (2, "", "error: order must be >= 0\n")


@pytest.mark.parametrize("name", sorted(cli._SERIES))
def test_order_zero_for_every_series(capsys, name):
    code, out, err = run(capsys, "series", "--name", name, "--order", "0")
    assert (code, out, err) == (0, "", "")
    code, out, err = run(capsys, "identify", "--name", name, "--order", "0")
    assert (code, out, err) == (0, "status: underdetermined (verified orders: 0)\n", "")


# the README's command examples, stdout byte for byte
README_COMMANDS = [
    (
        ("series", "--name", "Z", "--order", "5", "--json"),
        '{"1": "1", "2": "2", "3": "9/2", "4": "32/3", "5": "625/24"}\n',
    ),
    (("hurwitz", "--g", "0", "--n", "3"), "4\n"),
    (
        ("hurwitz", "--g", "1", "--n", "2", "--mu", "2", "--json"),
        '{"value": "1/2", "c": 3, "tuple_count": "1"}\n',
    ),
    (
        ("identify", "--name", "Z", "--order", "12", "--jmin", "-2", "--jmax", "2", "--json"),
        '{"status": "identified", "verified_orders": 8, "element": {"-1": "1", "0": "-1"}}\n',
    ),
    (
        ("asymptotic", "--laurent", '{"-1":"1","0":"-1"}', "--json"),
        '{"constant": "1", "radical": "inv_sqrt_2pi", "gamma2": 1}\n',
    ),
    (
        ("cayley", "--nmax", "6", "--kmax", "3", "--csv"),
        "n,k,m,p\n2,1,2,2\n2,2,2,0\n2,3,2,0\n3,1,24,24\n3,2,36,6\n3,3,60,0\n"
        "4,1,312,312\n4,2,600,144\n4,3,1320,24\n5,1,4720,4720\n5,2,10840,3060\n"
        "5,3,28840,960\n6,1,82800,82800\n6,2,218160,67680\n6,3,670320,30240\n",
    ),
    (
        ("hseries", "--g", "1", "--mu", "1", "--order", "10", "--fit-phi"),
        '{"coefficients": {"2": "1/24", "3": "1/6", "4": "13/24", "5": "59/36", '
        '"6": "115/24", "7": "9893/720", "8": "42037/1080", "9": "367439/3360", '
        '"10": "461843/1512"}, "laurent_identification": {"status": "identified", '
        '"verified_orders": 5, "element": {"-2": "1/24", "-1": "-1/12", "0": "1/24"}}, '
        '"phi": {"0": "0", "1": "1/24"}, "phi_surplus_verified": 4}\n',
    ),
    (("tau", "--g", "1", "--d", "1"), "1/24\n"),
    (
        ("painleve", "--gmax", "5"),
        "g=2 e_g=7/1440\ng=3 e_g=245/20736\ng=4 e_g=259553/2488320\n"
        "g=5 e_g=1337455/663552\n",
    ),
    (
        ("gravity", "--gmax", "4"),
        "g=2 e_g=7/1440 b_g=7/4320 * (2*pi)^(-1/2) f_g=7/11520 * sqrt(2)\n"
        "g=3 e_g=245/20736 b_g=245/15925248 f_g=245/663552\n"
        "g=4 e_g=259553/2488320 b_g=37079/48037017600 * (2*pi)^(-1/2) "
        "f_g=259553/637009920 * sqrt(2)\n",
    ),
    (
        ("cayley", "--nmax", "7", "--kmax", "3", "--csv"),
        "n,k,m,p\n2,1,2,2\n2,2,2,0\n2,3,2,0\n3,1,24,24\n3,2,36,6\n3,3,60,0\n"
        "4,1,312,312\n4,2,600,144\n4,3,1320,24\n5,1,4720,4720\n5,2,10840,3060\n"
        "5,3,28840,960\n6,1,82800,82800\n6,2,218160,67680\n6,3,670320,30240\n"
        "7,1,1662024,1662024\n7,2,4896444,1617210\n7,3,16889124,920640\n",
    ),
]


@pytest.mark.parametrize(
    "argv, expected", README_COMMANDS, ids=[" ".join(a) for a, _ in README_COMMANDS]
)
def test_readme_command_stdout_pinned(capsys, argv, expected):
    assert run(capsys, *argv)[:2] == (0, expected)


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["series", "--name", "Z", "--bogus"])
    assert exc.value.code == 2


def parser_options():
    """{subcommand: [(option, required), ...]} in declaration order, without --help."""
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: [(a.option_strings[-1], a.required) for a in p._actions if a.dest != "help"]
        for name, p in subparsers.choices.items()
    }


# (subcommand, option) -> (an invocation without the option, the arguments that
# give it); the option acts if adding them changes stdout or the exit code
OPTION_EFFECTS = {
    ("series", "--name"): (("--order", "3"), ("--name", "Z")),
    ("series", "--order"): (("--name", "Z"), ("--order", "3")),
    ("series", "--egf"): (("--name", "Z", "--order", "3"), ("--egf",)),
    ("series", "--json"): (("--name", "Z", "--order", "3"), ("--json",)),
    ("series", "--csv"): (("--name", "Z", "--order", "3"), ("--csv",)),
    ("identify", "--name"): (("--order", "12"), ("--name", "Z")),
    ("identify", "--order"): (("--name", "Z"), ("--order", "12")),
    ("identify", "--jmin"): (("--name", "Z"), ("--jmin", "0")),
    ("identify", "--jmax"): (("--name", "Z"), ("--jmax", "-2")),
    ("identify", "--json"): (("--name", "Z"), ("--json",)),
    ("asymptotic", "--laurent"): ((), ("--laurent", '{"-1":"1","0":"-1"}')),
    ("asymptotic", "--name"): ((), ("--name", "Z")),
    ("asymptotic", "--order"): (("--name", "Z"), ("--order", "3")),
    ("asymptotic", "--jmin"): (("--name", "Z"), ("--jmin", "0")),
    ("asymptotic", "--jmax"): (("--name", "Z"), ("--jmax", "-2")),
    ("asymptotic", "--json"): (("--name", "Z"), ("--json",)),
    ("cayley", "--nmax"): (("--kmax", "1"), ("--nmax", "3")),
    ("cayley", "--kmax"): (("--nmax", "3"), ("--kmax", "1")),
    ("cayley", "--json"): (("--nmax", "3", "--kmax", "1"), ("--json",)),
    ("cayley", "--csv"): (("--nmax", "3", "--kmax", "1"), ("--csv",)),
    ("hurwitz", "--g"): (("--n", "3"), ("--g", "0")),
    ("hurwitz", "--n"): (("--g", "0"), ("--n", "3")),
    ("hurwitz", "--mu"): (("--g", "0", "--n", "3"), ("--mu", "3")),
    ("hurwitz", "--disconnected"): (("--g", "0", "--n", "3"), ("--disconnected",)),
    ("hurwitz", "--json"): (("--g", "0", "--n", "3"), ("--json",)),
    ("hurwitz", "--max-nodes"): (("--g", "0", "--n", "3"), ("--max-nodes", "1")),
    ("hseries", "--g"): (("--order", "4"), ("--g", "0")),
    ("hseries", "--mu"): (("--g", "0", "--order", "4"), ("--mu", "2")),
    ("hseries", "--order"): (("--g", "0"), ("--order", "4")),
    ("hseries", "--fit-phi"): (("--g", "1", "--mu", "1", "--order", "8"), ("--fit-phi",)),
    ("hseries", "--max-nodes"): (("--g", "0", "--order", "4"), ("--max-nodes", "1")),
    ("tau", "--g"): (("--d", "1"), ("--g", "1")),
    ("tau", "--d"): (("--g", "1"), ("--d", "1")),
    ("tau", "--json"): (("--g", "1", "--d", "1"), ("--json",)),
    ("tau", "--max-nodes"): (("--g", "1", "--d", "1"), ("--max-nodes", "1")),
    ("painleve", "--gmax"): ((), ("--gmax", "3")),
    ("painleve", "--json"): (("--gmax", "3"), ("--json",)),
    ("painleve", "--csv"): (("--gmax", "3"), ("--csv",)),
    ("gravity", "--gmax"): ((), ("--gmax", "3")),
    ("gravity", "--json"): (("--gmax", "3"), ("--json",)),
    ("gravity", "--csv"): (("--gmax", "3"), ("--csv",)),
}

# flags every subcommand used to accept, with an argument where one is taken;
# each was ignored by the subcommands listed here and is no longer declared there
FORMER_COMMON = {"--json": (), "--csv": (), "--max-nodes": ("1",)}
REMOVED_FLAGS = {
    ("series", "--max-nodes"): ("--name", "Z", "--order", "3"),
    ("identify", "--csv"): ("--name", "Z"),
    ("identify", "--max-nodes"): ("--name", "Z"),
    ("asymptotic", "--csv"): ("--name", "Z"),
    ("asymptotic", "--max-nodes"): ("--name", "Z"),
    ("cayley", "--max-nodes"): ("--nmax", "3", "--kmax", "1"),
    ("hurwitz", "--csv"): ("--g", "0", "--n", "3"),
    ("hseries", "--json"): ("--g", "0", "--order", "4"),
    ("hseries", "--csv"): ("--g", "0", "--order", "4"),
    ("tau", "--csv"): ("--g", "1", "--d", "1"),
    ("painleve", "--max-nodes"): ("--gmax", "3"),
    ("gravity", "--max-nodes"): ("--gmax", "3"),
}


def test_parser_declares_exactly_the_options_that_act():
    declared = {(sub, opt) for sub, opts in parser_options().items() for opt, _ in opts}
    assert declared == set(OPTION_EFFECTS)
    assert len(declared) == 41
    # the former common flags split into the kept and the removed ones
    kept = {key for key in OPTION_EFFECTS if key[1] in FORMER_COMMON}
    assert kept.isdisjoint(REMOVED_FLAGS)
    assert kept | set(REMOVED_FLAGS) == {
        (sub, flag) for sub in parser_options() for flag in FORMER_COMMON
    }


@pytest.mark.parametrize("key", sorted(OPTION_EFFECTS), ids=" ".join)
def test_every_option_changes_stdout_or_exit_code(capsys, key):
    sub, option = key
    base, given = OPTION_EFFECTS[key]
    assert option in given
    without = run(capsys, sub, *base)
    with_option = run(capsys, sub, *base, *given)
    assert without[:2] != with_option[:2]


@pytest.mark.parametrize("key", sorted(REMOVED_FLAGS), ids=" ".join)
def test_removed_flag_is_an_unrecognized_argument(capsys, key):
    sub, flag = key
    base = (sub,) + REMOVED_FLAGS[key]
    assert run(capsys, *base)[0] == 0
    code, out, err = run(capsys, *base, flag, *FORMER_COMMON[flag])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("mus", [(), ("1", "2")])
def test_fit_phi_without_one_mu_refused_before_counting(capsys, monkeypatch, mus):
    from covercount import hurwitz_series

    def no_count(*args, **kwargs):
        raise AssertionError("counted before refusing --fit-phi")

    monkeypatch.setattr(hurwitz_series, "_connected_counts", no_count)
    argv = ["hseries", "--g", "10", "--order", "34", "--fit-phi"]
    for mu in mus:
        argv += ["--mu", mu]
    assert run(capsys, *argv) == (2, "", "error: --fit-phi needs exactly one --mu\n")


def test_readme_lists_each_subcommands_options():
    # one table row per subcommand: `name` | `--option` (required), `--option`, ...
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.MULTILINE)
    listed = {
        sub: [(opt, bool(req)) for opt, req in re.findall(r"`(--[\w-]+)`( \(required\))?", cell)]
        for sub, cell in rows
    }
    assert listed == parser_options()
