"""Write `catalog_pins.json`: a digest of every catalog instance.

    python3 perfbench/pin_catalog.py

The `catalog` workload checks each instance that `catalog.instantiate`
returns against these digests, so an instantiate that returns other
terms (trivial, identical or cheaper sides) fails the check instead of
passing as a speed-up.  The file in the repository was written at the
seed commit, before any optimisation; run this again only where the
catalog is meant to change.
"""
from __future__ import annotations

import zlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from splitrel import catalog, dsl  # noqa: E402
from splitrel.terms import Category  # noqa: E402

MAX_PARAM = 3
PINS = HERE / "catalog_pins.json"


def digest(params, lhs_text: str, rhs_text: str) -> str:
    """Eight hex digits naming one instance: its parameters and both sides."""
    data = f"{tuple(params)}|{lhs_text}|{rhs_text}".encode()
    return f"{zlib.crc32(data):08x}"


def main() -> None:
    axioms = {}
    for category in (Category.PF, Category.EF, Category.RB):
        for axiom in catalog.axiom_catalog(category):
            digests = []
            for params in catalog.instances(axiom, MAX_PARAM):
                lhs, rhs = catalog.instantiate(axiom, params)
                digests.append(digest(params, dsl.print_term(lhs), dsl.print_term(rhs)))
            axioms[f"{category.name} {axiom.name}"] = "".join(sorted(digests))
    PINS.write_text(json.dumps({"max_param": MAX_PARAM, "axioms": axioms}, indent=0) + "\n")


if __name__ == "__main__":
    main()
