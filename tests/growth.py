"""Substitution expansions grown from the seed at every call.

The library keeps one expansion per seed and cuts every text it reads
from it.  This is the plain rule that keeping must agree with: apply
the rules from the seed until the text reaches the target length, close
a substitution that stops growing off periodically, and keep nothing
between calls.  The test oracles read their expansions and factor sets
from here, never from the library.

The library agrees with these expansions only past the reach of its
certificate: a fixed-point seed is cut at its certified prefix for
every span the certificate reaches, which holds every factor of the
span, and so at least those of the expansion here.  Seeds that are not
fixed points and spans past the reach read the expansion.

``two_block_factors`` is a second oracle, which grows no expansion to a
length: it is exact on fixed points whose every letter grows.
"""

import functools

from ipdyn.dynamics import WindowTooLarge

MIN_EXPANSION = 4096
EXPANSION_MARGIN = 32


def target_length(factor_length):
    return max(EXPANSION_MARGIN * factor_length, MIN_EXPANSION)


@functools.cache
def grow(rules, seed, target):
    """The expansion of ``seed`` for ``target``; ``rules`` is a sorted
    tuple of (letter, image) pairs, so that calls can be cached.

    sigma^k(c) is built for every letter c reachable from the seed as
    the concatenation of sigma^(k-1)(d) over the letters d of sigma(c),
    so a step copies strings instead of mapping the text letter by
    letter.
    """
    images = dict(rules)
    reachable, todo = set(seed), list(seed)
    while todo:
        for d in images.get(todo.pop(), ""):
            if d not in reachable:
                reachable.add(d)
                todo.append(d)
    power = {c: c for c in reachable}  # sigma^k(c), from k = 0
    word = seed
    while len(word) < target:
        power = {c: "".join(power[d] for d in images.get(c, c)) for c in power}
        nxt = "".join(power[c] for c in seed)
        if len(nxt) <= len(word):
            # non-growing substitution: periodic closure
            reps = -(-target // len(nxt))
            return nxt * reps
        word = nxt
    return word[:target]


def expansions(sys_, factor_length):
    target = target_length(factor_length)
    rules = tuple(sorted(sys_.rules.items()))
    return tuple(grow(rules, seed, target) for seed in sys_.seeds)


def factors(sys_, length):
    if length > sys_.max_word_length:
        raise WindowTooLarge(
            f"factor length {length} exceeds bound {sys_.max_word_length}"
        )
    return frozenset(
        text[i : i + length]
        for text in expansions(sys_, length)
        for i in range(len(text) - length + 1)
    )


def two_block_factors(rules, seed, length):
    """The ``length``-letter factors of the fixed point u of ``seed``, for
    rules whose every letter grows under iteration.

    u = sigma^k(u) is a row of blocks sigma^k(c), one per letter c of u;
    with k the least power at which every block holds length - 1 letters
    or more, a window of ``length`` letters that starts in sigma^k(x)
    ends inside sigma^k(xy), xy the next two letters of u.  So the
    factors are the windows of sigma^k(xy) over the 2-letter factors xy,
    and those are the first two letters' pair closed under the windows
    of sigma(w) that start in sigma(w[0]), w a pair already found.  The
    argument is the standard one that a primitive language is the set
    of factors of the sigma^n(xy) (Queffelec, LNM 1294, ch. 5).
    """
    first = grow(tuple(sorted(rules.items())), seed, 2)
    pairs, todo = {first}, [first]
    while todo:
        x, y = todo.pop()
        image = rules[x] + rules[y]
        new = {image[i : i + 2] for i in range(len(rules[x]))} - pairs
        pairs |= new
        todo += new
    power = {c: c for c in rules}  # sigma^k(c), from k = 0
    while min(map(len, power.values())) < length - 1:
        power = {c: "".join(power[d] for d in rules[c]) for c in power}
    texts = [power[x] + power[y] for x, y in pairs]
    return frozenset(
        text[i : i + length] for text in texts for i in range(len(text) - length + 1)
    )
