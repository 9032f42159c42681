"""The three workloads: their inputs, the call each operation makes, and
the check of each answer against the reference semantics.

Every workload draws all of its inputs from its seed.  Operations come in
rounds; a run always ends on a round boundary, so each run measures the
same mix.  Answers are checked between rounds, never inside the timing.
`TAIL_PCT` is the percentile reported as the workload's tail latency.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import reference
from pin_catalog import digest
from splitrel import catalog, cli, dsl, fuzz, semantics
from splitrel.relations import BinRel, SplitRelation
from splitrel.render import ascii_picture
from splitrel.terms import Category

CATEGORIES = [Category.PF, Category.EF, Category.RB]


def run_cli(op) -> tuple[int, str]:
    """One in-process call of the `splitrel` command: (exit code, stdout).

    Command-line operations are (category, command, term texts, argv).
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op[3])
    return code, out.getvalue()


def label_cli(op) -> str:
    return f"{op[0]} {op[1]}"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _check_witness(category: str, lhs: str, rhs: str, witness: dict) -> None:
    results = [reference.value_from_json(v) for v in witness["results"]]
    _expect(results[0] != results[1], "separation results coincide")
    for term, result in zip((lhs, rhs), results):
        composite = f"({witness['post']}) . ({term}) . ({witness['pre']})"
        _expect(reference.evaluate(composite, category) == result,
                "separation result differs from its context")


def check_cli(op, answer) -> None:
    """Check one command-line answer against the reference semantics."""
    category, command, texts, argv = op
    code, out = answer
    value = reference.evaluate(texts[0], category)
    if command == "eq":
        same = value == reference.evaluate(texts[1], category)
        lines = out.splitlines()
        _expect(lines[0] == ("equal" if same else "not equal"), f"verdict {lines[0]!r}")
        _expect(code == (0 if same else 1), f"exit code {code}")
        if same or "--separate" not in argv:
            _expect(len(lines) == 1, "unexpected output after the verdict")
        else:
            _check_witness(category, *texts, json.loads(lines[1]))
        return
    _expect(code == 0, f"exit code {code}")
    if command == "separate":
        _check_witness(category, *texts, json.loads(out))
    elif command == "normalize":
        payload_line, canonical = out.rstrip("\n").split("\n")
        _expect(json.loads(payload_line) == reference.normal_form(value, category),
                "normal-form payload differs")
        _expect(reference.evaluate(canonical, category) == value,
                "canonical term has another value")
    elif argv[argv.index("--format") + 1] == "json":
        _expect(reference.value_from_json(json.loads(out)) == value,
                "value differs")
    else:
        # An ascii picture is compared with the drawing of the reference value.
        n, m, pairs = value
        drawn = BinRel(n, m, pairs) if category == "RB" else SplitRelation(n, m, pairs)
        _expect(out == ascii_picture(drawn) + "\n", "picture differs")


class Catalog:
    """`instantiate` then `equal` on axiom instances; the answer is "equal".

    The instances are the 9,100 that `check-axioms --max-param 3`
    enumerates.  Each axiom's instances are shuffled and the axioms are
    interleaved in proportion to their size, so every operation is a
    uniform draw and any prefix of the sequence holds each axiom family
    in its share: runs of different seeds measure the same mix.

    Each returned pair of sides must be one that `instantiate` returned at
    the seed commit, as pinned in `catalog_pins.json`, and the sides must
    have the same value under the reference semantics.
    """

    name = "catalog"
    TAIL_PCT = 99
    ROUND = 16

    def __init__(self, seed: int):
        rng = random.Random(seed)
        pins = json.loads((Path(__file__).parent / "catalog_pins.json").read_text())
        self.pins = {}
        keyed = []
        for category in CATEGORIES:
            for axiom in catalog.axiom_catalog(category):
                key = f"{category.name} {axiom.name}"
                pinned = pins["axioms"].get(key, "")
                self.pins[key] = {pinned[i:i + 8] for i in range(0, len(pinned), 8)}
                family = [(category, axiom, params) for params in
                          catalog.instances(axiom, pins["max_param"])]
                _expect(len(family) == len(pinned) // 8,
                        f"{key}: {len(family)} instances, "
                        f"{len(pinned) // 8} at the seed commit")
                rng.shuffle(family)
                offset = rng.random()
                keyed += [((j + offset) / len(family), item)
                          for j, item in enumerate(family)]
        keyed.sort(key=lambda entry: entry[0])
        self.items = [item for _, item in keyed]

    def rounds(self):
        items = itertools.cycle(self.items)
        while True:
            yield list(itertools.islice(items, self.ROUND))

    @staticmethod
    def run(op):
        category, axiom, params = op
        lhs, rhs = catalog.instantiate(axiom, params)
        return semantics.equal(lhs, rhs, category)

    @staticmethod
    def label(op) -> str:
        category, axiom, params = op
        return f"{category.name} {axiom.name}{params}"

    def check(self, op, answer) -> None:
        category, axiom, params = op
        _expect(answer is True, "judged not equal")
        lhs, rhs = catalog.instantiate(axiom, params)
        lhs_text, rhs_text = dsl.print_term(lhs), dsl.print_term(rhs)
        _expect(digest(params, lhs_text, rhs_text)
                in self.pins[f"{category.name} {axiom.name}"],
                "the sides are not the ones pinned at the seed commit")
        _expect(reference.evaluate(lhs_text, category.name)
                == reference.evaluate(rhs_text, category.name),
                "the sides have different values")


class Queries:
    """Small random terms through the command line, as a user sends them.

    A round is one call per signature and command: `eq --separate` on a
    pair from `fuzz.random_term_pair`, and `normalize` and
    `eval --format ascii` on one term from the same sampler (depth 6,
    pad 3, width 6).
    """

    name = "queries"
    TAIL_PCT = 99
    COMMANDS = ("eq", "normalize", "eval")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def rounds(self):
        rng = self.rng
        while True:
            batch = []
            for category in CATEGORIES:
                cat = category.name
                for command in self.COMMANDS:
                    if command == "eq":
                        f, g = fuzz.random_term_pair(rng, category)
                        texts = (dsl.print_term(f), dsl.print_term(g))
                        argv = ["eq", "--separate", "--category", cat, *texts]
                    else:
                        texts = (dsl.print_term(fuzz.random_term(rng, category)),)
                        argv = [command, "--category", cat, *texts]
                        if command == "eval":
                            argv[1:1] = ["--format", "ascii"]
                    batch.append((cat, command, texts, argv))
            yield batch

    run = staticmethod(run_cli)
    check = staticmethod(check_cli)
    label = staticmethod(label_cli)


class Wide:
    """Long chains of padded generators at widths 8 to 32, through the
    command line as `eq` and `eval --format json`.

    A round holds, for each signature, one chain at each (width, length)
    of (8, 200), (16, 100), (24, 50) and (32, 50), each sent once to `eq`
    and once to `eval`.  The seed picks the generators and their
    positions.  Every other `eq` call compares a chain with itself plus an
    inserted identity pair, so both verdicts occur.  After the timed loop
    an untimed probe sends one deep term through four commands.
    """

    name = "wide"
    TAIL_PCT = 90
    SIZES = ((8, 200), (16, 100), (24, 50), (32, 50))
    BRIDGE = {"PF": "h", "EF": "hbar"}
    WIDTH_STEP = {"delta(1)": 1, "nabla(1)": -1}
    DEEP_FACTORS = 3000

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _split_chain(self, cat: str, width: int, length: int) -> list[str]:
        # Half crossings, half bridges, in random order and places: the
        # share of bridges sets how dense the values get.
        rng = self.rng
        gens = ["swap", self.BRIDGE[cat]] * (length // 2)
        rng.shuffle(gens)
        factors = []
        for gen in gens:
            left = rng.randint(0, width - 2)
            factors.append(f"pad({left}, {gen}, {width - 2 - left})")
        return factors

    def _rb_chain(self, width: int, length: int) -> list[str]:
        # A walk of folds and co-folds that stays within 4 strands of
        # `width` and ends where it started.
        rng = self.rng
        low, high = max(8, width - 4), min(32, width + 4)
        factors, cur = [], width
        for step in range(length):
            left_steps = length - step
            if abs(cur - width) >= left_steps:
                grow = cur < width
            elif cur <= low:
                grow = True
            elif cur >= high:
                grow = False
            else:
                grow = rng.random() < 0.5
            if grow:
                left = rng.randint(0, cur - 1)
                factors.append(f"pad({left}, delta(1), {cur - 1 - left})")
                cur += 1
            else:
                left = rng.randint(0, cur - 2)
                factors.append(f"pad({left}, nabla(1), {cur - 2 - left})")
                cur -= 1
        return factors

    def _chain(self, cat: str, width: int, length: int) -> list[str]:
        if cat == "RB":
            return self._rb_chain(width, length)
        return self._split_chain(cat, width, length)

    def _with_identity(self, cat: str, factors: list[str], width: int) -> list[str]:
        # The same chain with a pair of factors inserted that composes to
        # the identity: swap after swap, or a fold after a co-fold.
        at = self.rng.randint(0, len(factors))
        cur = width
        for factor in factors[:at]:
            cur += self.WIDTH_STEP.get(factor.split(", ")[1], 0)
        left = self.rng.randint(0, cur - 2)
        if cat == "RB":
            pair = [f"pad({left}, delta(1), {cur - 1 - left})",
                    f"pad({left}, nabla(1), {cur - 1 - left})"]
        else:
            pair = [f"pad({left}, swap, {cur - 2 - left})"] * 2
        return factors[:at] + pair + factors[at:]

    @staticmethod
    def _text(factors: list[str]) -> str:
        return " . ".join(reversed(factors))  # "g . f" applies f first

    def rounds(self):
        for number in itertools.count():
            batch = []
            for category in CATEGORIES:
                cat = category.name
                for index, (width, length) in enumerate(self.SIZES):
                    factors = self._chain(cat, width, length)
                    lhs = self._text(factors)
                    if (index + number) % 2:
                        rhs = self._text(self._chain(cat, width, length))
                    else:
                        rhs = self._text(self._with_identity(cat, factors, width))
                    batch.append((cat, "eq", (lhs, rhs),
                                  ["eq", "--category", cat, lhs, rhs]))
                    batch.append((cat, "eval", (lhs,),
                                  ["eval", "--format", "json", "--category", cat, lhs]))
            yield batch

    run = staticmethod(run_cli)
    check = staticmethod(check_cli)
    label = staticmethod(label_cli)

    def probe_ops(self) -> list:
        """A 3,000-factor `h` chain through `eval`, `eq`, `normalize` and
        `separate`: deep input, timed by no metric."""
        chain = " . ".join(["h"] * self.DEEP_FACTORS)
        other = "swap . " + chain
        return [
            ("PF", "eval", (chain,), ["eval", "--format", "json", "--category", "PF", chain]),
            ("PF", "eq", (chain, other), ["eq", "--category", "PF", chain, other]),
            ("PF", "normalize", (chain,), ["normalize", "--category", "PF", chain]),
            ("PF", "separate", (chain, other),
             ["separate", "--category", "PF", chain, other]),
        ]


WORKLOADS = {w.name: w for w in (Catalog, Queries, Wide)}
