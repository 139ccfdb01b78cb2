"""The stack reducer that normal_form replaced, kept as a test oracle.

It pops words from a stack and rewrites the leftmost match by the first
rule that matches there, never merging equal words, so its cost is
exponential in how far letters travel (nf(a*^7 a^7) in suq2_mod_b takes
seconds).  It shares nothing with the engine beyond the presentation's
rules and the coefficient arithmetic.
"""

from qcstar.ncalgebra import Element


def find_match(p, word):
    """(position, rule) of the leftmost match in word, or None."""
    for pos in range(len(word)):
        for rule in p.rules:
            k = len(rule.left)
            if word[pos:pos + k] == rule.left:
                return pos, rule
    return None


def reference_normal_form(p, x, max_steps=10 ** 6):
    """nf(x) by leftmost rewriting, its terms in deglex order."""
    result = {}
    stack = list(x.terms().items())
    while stack:
        word, coeff = stack.pop()
        m = find_match(p, word)
        if m is None:
            s = result.get(word)
            result[word] = coeff if s is None else s + coeff
            continue
        max_steps -= 1
        assert max_steps >= 0, "reference reducer ran out of steps"
        pos, rule = m
        prefix, suffix = word[:pos], word[pos + len(rule.left):]
        for rword, rcoeff in rule.right.items():
            stack.append((prefix + rword + suffix, coeff * rcoeff))
    return Element(p, {w: result[w] for w in sorted(result, key=p.deglex_key)})
