"""Seeded term draws: the same seed gives the same terms."""
import hashlib
import random

from splitrel.dsl import print_term
from splitrel.fuzz import random_term, random_term_pair
from splitrel.terms import Category

# SHA-256 of the draws below, as printed when the sampler typed every
# drawn subterm with `type_of` and built sums through `plus`
DRAWS_DIGEST = "7b662c35bbf59ac84c7b32a5026d739f3ffb9d2e3783105e26e91415f1be129f"


def test_draws_are_pinned_per_seed():
    lines = []
    for seed in range(100):
        rng = random.Random(seed)
        for category in Category:
            f, g = random_term_pair(rng, category)
            lines += [print_term(f), print_term(g), print_term(random_term(rng, category))]
    text = "\n".join(lines).encode()
    assert hashlib.sha256(text).hexdigest() == DRAWS_DIGEST
