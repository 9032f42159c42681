"""Command line behaviour: golden outputs, exit codes, input plumbing."""

import hashlib
import io
import pathlib
import random
import subprocess
import sys

import pytest

from splitrel import cli, dsl, terms
from splitrel.cli import (
    EXIT_DIFFER,
    EXIT_INTERNAL,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_TYPE,
    main,
)
from splitrel.dsl import parse, print_term
from splitrel.fuzz import random_term
from splitrel.terms import Category

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> (argv, expected exit code)
GOLDEN_CASES = {
    "eval-h.json": (["eval", "h"], 0),
    "eval-swap.ascii": (["eval", "--format", "ascii", "swap"], 0),
    "eval-hbar.ascii": (["eval", "--format", "ascii", "hbar"], 0),
    "eval-eta023.ascii": (["eval", "--format", "ascii", "eta(0, 2, 3)"], 0),
    "eval-swap.dot": (["eval", "--format", "dot", "swap"], 0),
    "eval-nabla-rb.ascii": (
        ["eval", "--format", "ascii", "--category", "RB", "nabla(1)"], 0),
    "eq-h-id2.json": (
        ["eq", "--separate", "--format", "json", "h", "id(2)"], 1),
    "normalize-h.txt": (["normalize", "h"], 0),
    "normalize-square-rb.txt": (
        ["normalize", "--category", "RB", "delta(1) . nabla(1)"], 0),
    "separate-h-id2.json": (["separate", "h", "id(2)"], 0),
    "separate-union.txt": (
        ["separate", "--format", "text", "id(2)",
         "union(id(2), iota(0, 1; 2, 2))"], 0),
    "render-bipartite.ascii": (
        ["render", "--category", "RB",
         '{"n":3,"m":3,"pairs":[[0,0],[0,1],[1,1],[1,2]]}'], 0),
    "render-glue.dot": (
        ["render", "--format", "dot",
         '{"n":2,"m":0,"pairs":[[["s",0],["s",0]],[["s",0],["s",1]],'
         '[["s",1],["s",0]],[["s",1],["s",1]]]}'], 0),
    "fuzz-pf-seed0.json": (
        ["fuzz", "--category", "PF", "--count", "5", "--seed", "0",
         "--format", "json"], 0),
    "check-axioms-ef-p1.txt": (
        ["check-axioms", "--category", "EF", "--max-param", "1"], 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output_is_byte_stable(name, capsys):
    argv, expected_code = GOLDEN_CASES[name]
    assert main(argv) == expected_code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_every_golden_file_has_a_case():
    assert {p.name for p in GOLDEN.iterdir()} == set(GOLDEN_CASES)


def test_stdin_source(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("swap . swap"))
    assert main(["eval", "-"]) == 0
    first = capsys.readouterr().out
    assert main(["eval", "id(2)"]) == 0
    assert first == capsys.readouterr().out


def test_file_source(capsys, tmp_path):
    path = tmp_path / "term.txt"
    path.write_text("h")
    assert main(["eval", f"@{path}"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "eval-h.json").read_text()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "pad(1, h"], 2),
        (["eval", "no such atom"], 2),
        (["eval", "counit . counit"], 3),
        (["eval", "--category", "RB", "h"], 2),
        (["eq", "h", "hbar"], 3),
        (["eq", "id(1)", "id(2)"], 4),
        (["eq", "h", "id(2)"], 1),
        (["separate", "id(1)", "id(1)"], 4),
        (["render", "not json"], 2),
        (["render", '{"n":1,"pairs":[]}'], 2),
        (["render", '{"n":1,"m":1,"pairs":[[5,0]]}', "--category", "RB"], 2),
    ],
)
def test_exit_codes(argv, code, capsys):
    assert main(argv) == code
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["check-axioms", "--max-param", "-1"],
        ["fuzz", "--category", "PF", "--count", "-1"],
    ],
)
def test_negative_sizes_are_rejected(argv, capsys):
    assert main(argv) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition failed: --")
    assert captured.err.count("\n") == 1


# One text per atom that takes a width, one point over the limit on a side.
# `union` takes its type from its arguments, so its text is over through them.
WIDER_THAN_THE_LIMIT = [
    (["eval", "id(4097)"], "'id' of type 4097->4097"),
    (["eval", "pad(4095, h, 0)"], "'pad' of type 4097->4097"),
    (["eval", "pad(0, id(4096), 1)"], "'pad' of type 4097->4097"),
    (["eval", "nabla(2049)"], "'nabla' of type 4098->2049"),
    (["eval", "delta(2049)"], "'delta' of type 2049->4098"),
    (["eval", "unitk(4097)"], "'unitk' of type 0->4097"),
    (["eval", "counitk(4097)"], "'counitk' of type 4097->0"),
    (["eval", "eta(0, 1, 4097)"], "'eta' of type 4097->4097"),
    (["eval", "etabar(0, 1, 4097)"], "'etabar' of type 4097->4097"),
    (["eval", "iota(0, 0; 4097, 1)"], "'iota' of type 4097->1"),
    (["eval", "zero(1, 4097)"], "'zero' of type 1->4097"),
    (["eval", "plus(id(4096), id(1))"], "'plus' of type 4097->4097"),
    (["eval", "union(id(4097), id(4097))"], "'id' of type 4097->4097"),
    (["eval", "pad(99999999, h, 0)"], "'pad' of type 100000001->100000001"),
    (["eq", "h", "pad(0, h, 4095)"], "'pad' of type 4097->4097"),
    (
        ["render", "--format", "json", '{"n":1000000000,"m":0,"pairs":[]}'],
        "value of type 1000000000->0",
    ),
    (
        ["render", "--category", "RB", '{"n":1,"m":4097,"pairs":[[0,0]]}'],
        "value of type 1->4097",
    ),
]


@pytest.mark.parametrize("argv, what", WIDER_THAN_THE_LIMIT)
def test_texts_and_payloads_wider_than_the_limit_are_refused(argv, what, capsys):
    assert main(argv) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"precondition failed: {what} is wider than ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "payload, item",
    [
        # a node with a third entry
        ('{"n":1,"m":0,"pairs":[[["s",0,7],["s",0,"x"]]]}', '["s", 0, 7]'),
        # an RB pair of floats
        ('{"n":1,"m":1,"pairs":[[0.9,0.2]]}', "[0.9, 0.2]"),
        # a bool as a position
        ('{"n":2,"m":0,"pairs":[[["s",true],["s",0]]]}', '["s", true]'),
    ],
)
def test_malformed_payload_entries_are_refused(payload, item, capsys):
    assert main(["render", "--format", "json", payload]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "[int, int]" if item.startswith("[0") else "[str, int]"
    assert captured.err == f"parse error: bad value payload: expected {expected}, got {item}\n"


def test_the_widest_texts_evaluate(capsys):
    # 4,096 points on a side is the limit; the bytes were recorded from the
    # implementation that held pair sets
    assert main(["eval", "pad(4094, h, 0)"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 384_462
    assert hashlib.sha256(out).hexdigest() == (
        "21bb1eeb9ea482f1574e370fe24612fe154435683842f0745201a08ac25905e9"
    )
    assert main(["eval", "pad(2000, h, 0)"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "8c3b3ee69645f7802a116c35c7f29824c2945ee7284496280400993c31b48f6b"
    )
    assert main(["eval", "--category", "RB", "id(4000)"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "884c73c689af61cb3780a8b5b22a18f85ee67b4d449f7deb29776f9ac7be1700"
    )
    for argv in (["eval", "unitk(4096)"], ["eval", "nabla(2048)"]):
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_eval_json_never_builds_the_pair_view(capsys, monkeypatch):
    printed = []
    to_json = cli._VALUE_FORMATS["json"]

    def keep(value):
        printed.append(value)
        return to_json(value)

    monkeypatch.setitem(cli._VALUE_FORMATS, "json", keep)
    for category, text in [("PF", "pad(1, h, 0) . pad(0, swap, 1)"), ("EF", "hbar"),
                           ("RB", "delta(1) . nabla(1)")]:
        assert main(["eval", "--category", category, text]) == 0
    capsys.readouterr()
    assert len(printed) == 3
    assert all("pairs" not in value.__dict__ for value in printed)


@pytest.mark.parametrize("option", ["--max-depth", "--max-pad", "--max-arity"])
def test_fuzz_rejects_negative_limits_and_accepts_zero(option, capsys):
    argv = ["fuzz", "--count", "5", "--category"]
    assert main([*argv, "RB", option, "-1"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"precondition failed: {option} must be non-negative, got -1\n"
    )
    for category in ("PF", "EF", "RB"):
        assert main([*argv, category, option, "0"]) == 0, category
        assert capsys.readouterr().out.endswith("ok\n")


def test_unreadable_source_file_is_a_precondition(tmp_path, capsys):
    for path in (tmp_path / "missing.term", tmp_path):
        assert main(["eval", f"@{path}"]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"precondition failed: cannot read {path}: "
        )
        assert captured.err.count("\n") == 1


def test_unexpected_exception_has_its_own_exit_code(capsys, monkeypatch):
    def crash(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "eval", crash)
    assert main(["eval", "h"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"

    def interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "eval", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["eval", "h"])


def test_deep_term_never_reads_as_a_verdict(capsys):
    chain = " . ".join(["h"] * 3000)
    code = main(["eq", chain, "swap . " + chain])
    captured = capsys.readouterr()
    # the chains differ, and the verdict is computed
    assert (code, captured.out, captured.err) == (EXIT_DIFFER, "not equal\n", "")


@pytest.mark.parametrize(
    "command, arity", [("eval", 1), ("eq", 2), ("normalize", 1), ("separate", 2)]
)
def test_a_deep_chain_answers_as_its_one_factor(command, arity, capsys):
    # `h` is idempotent, so a chain of 5,000 of them answers as `h` does
    def answer(factor):
        code = main([command, *[factor, "swap . " + factor][:arity]])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    expected = answer("h")
    assert expected[1] and not expected[2]
    assert answer(" . ".join(["h"] * 5000)) == expected


def test_shared_parser_keeps_no_state_between_calls(capsys):
    names = sorted(GOLDEN_CASES)
    for name in names:
        argv, expected_code = GOLDEN_CASES[name]
        assert main(argv) == expected_code, name
        assert capsys.readouterr().out == (GOLDEN / name).read_text(), name
    with pytest.raises(SystemExit) as exc:
        main(["eval"])
    assert exc.value.code == 2
    capsys.readouterr()
    for name in reversed(names):
        argv, expected_code = GOLDEN_CASES[name]
        assert main(argv) == expected_code, name
        assert capsys.readouterr().out == (GOLDEN / name).read_text(), name
    assert main(["eq", "--separate", "--format", "json", "h", "id(2)"]) == 1
    assert capsys.readouterr().out == (GOLDEN / "eq-h-id2.json").read_text()
    assert main(["eq", "h", "id(2)"]) == 1
    assert capsys.readouterr().out == "not equal\n"


def test_eval_keeps_the_signature_an_atom_pins(capsys):
    # iota(0,0;1,1) builds the neutral tree id(1), but iota pins RB
    assert main(["eval", "iota(0,0;1,1)"]) == 0
    assert capsys.readouterr().out == '{"n":1,"m":1,"pairs":[[0,0]]}\n'


def test_header_signature_reaches_eval_and_normalize(tmp_path, capsys):
    path = tmp_path / "rb.term"
    path.write_text("%category RB\nid(2)")
    assert main(["eval", f"@{path}"]) == 0
    assert capsys.readouterr().out == '{"n":2,"m":2,"pairs":[[0,0],[1,1]]}\n'
    assert main(["normalize", "--format", "json", f"@{path}"]) == 0
    assert capsys.readouterr().out.startswith('{"kind":"iota","n":2,"m":2,')


def test_eq_parses_both_texts_in_the_signature_they_pin(capsys):
    assert main(["eq", "nabla(1) . delta(1)", "unit . counit"]) == EXIT_DIFFER
    assert capsys.readouterr().out == "not equal\n"
    assert main(["eq", "unit . counit", "unitk(1) . counitk(1)"]) == 0
    assert capsys.readouterr().out == "equal\n"


def test_different_pins_are_a_signature_error(capsys):
    assert main(["eq", "hbar", "h"]) == EXIT_TYPE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "type error: category mismatch: EF vs PF\n"
    )
    # the flag wins over the pins
    assert main(["eq", "--category", "PF", "hbar", "h"]) == EXIT_DIFFER
    assert capsys.readouterr().out == "not equal\n"
    # a text that cannot be parsed is a parse error, not a mismatch
    assert main(["eq", "pad(1, h", "hbar"]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_each_text_is_scanned_once(capsys, monkeypatch):
    tokenized = []
    tokenize = dsl._tokenize

    def counting(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(dsl, "_tokenize", counting)
    assert main(["eq", "h", "swap"]) == EXIT_DIFFER
    assert tokenized == ["h", "swap"]


def test_eq_on_different_types_is_a_precondition(capsys):
    assert main(["eq", "h", "unit"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "cannot compare: 2->2 vs 0->1\n")


def test_parsed_terms_are_not_walked_again(capsys, count_calls):
    chain = " . ".join(f"pad({k % 7}, swap, {6 - k % 7})" for k in range(200))
    typed = count_calls(terms, "type_of")
    forced = count_calls(terms, "forced_category")
    assert main(["eq", "--category", "PF", chain, chain]) == 0
    assert capsys.readouterr().out == "equal\n"
    assert main(["eval", "--category", "PF", chain]) == 0
    assert capsys.readouterr().out.startswith('{"n":8,"m":8,')
    assert (len(typed), len(forced)) == (0, 0)


def test_eq_separates_through_the_rows_it_compared(capsys, monkeypatch):
    memo_sizes = []
    separate = cli._separate

    def recording(v, w, category, memo):
        memo_sizes.append(len(memo))
        return separate(v, w, category, memo)

    monkeypatch.setattr(cli, "_separate", recording)
    argv = ["eq", "--separate", "--format", "json", "h", "id(2)"]
    assert main(argv) == EXIT_DIFFER
    assert capsys.readouterr().out == (GOLDEN / "eq-h-id2.json").read_text()
    # the rows of both terms are already there
    assert memo_sizes == [2]


def test_fuzz_is_deterministic_per_seed(capsys):
    argv = ["fuzz", "--category", "RB", "--count", "10", "--seed", "3",
            "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_parse_print_round_trip_on_random_terms():
    rng = random.Random(2024)
    for category in Category:
        for _ in range(150):
            term = random_term(rng, category, max_depth=5)
            text = print_term(term)
            assert parse(text, category) == term


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "splitrel.cli", "eval", "--format", "dot",
         "swap"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "eval-swap.dot").read_text()
