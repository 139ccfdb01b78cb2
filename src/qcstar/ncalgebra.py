"""Finitely presented *-algebras with exact noncommutative rewriting.

Four quantum coordinate *-algebras are built in, one row each of
BUILTIN_PRESENTATIONS: the quantum 2-sphere (sphere, with a rational
radius-type parameter s in [0, 1], default 1), the quantum disc (disc),
quantum real projective space (rp2) and the quantum SU(2) in the
squared-parameter convention with its b-generator made self-adjoint
(suq2_mod_b).  A generator named X* is the adjoint of X, and one without
a starred partner is self-adjoint.

Each presentation carries rewriting rules oriented by a degree-lexicographic
monomial order, so every element has a normal form supported on an explicit
monomial basis.  normal_form folds each word through a table of nf(u g),
u irreducible and g a generator, kept on the presentation, so its cost is
polynomial in how far letters travel.  Coefficients are exact Laurent
polynomials in q over the rationals.  Generator maps between
presentations (the rows of _MORPHISMS: an isomorphism, the order-two
automorphisms of the sphere, and two inclusions) build the free-algebra
image of an element and normalise it once.  They are verified by
reducing the image of every defining relation to normal form, and fixed
points are decided by one normal form of phi(x) - x.  Every free-algebra
sum of words is collected by one merge, _collect, and only Element's
constructor drops zero terms from an element.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .coefficients import QLaurent, _q_monomial, _signed_sum


class ExpressionError(ValueError):
    """Raised for a malformed algebra expression string."""


class PresentationError(ValueError):
    """Raised for an invalid presentation request or mismatched elements."""


class RewriteBudgetError(RuntimeError):
    """Raised when a normal-form computation exceeds its step budget."""


def _collect(pairs) -> dict[tuple[int, ...], QLaurent]:
    """Sum (word, coefficient) pairs by word, in order of first appearance.

    A sum that cancels to zero keeps its place; Element drops it."""
    out: dict[tuple[int, ...], QLaurent] = {}
    for w, c in pairs:
        s = out.get(w)
        out[w] = c if s is None else s + c
    return out


class Element:
    """A finite rational-Laurent combination of words in the generators.

    Elements are tied to their presentation; combining elements of
    different presentations raises PresentationError.  Arithmetic is at
    the free-algebra level, normalisation is explicit via normal_form.
    The constructor drops zero coefficients, so no stored term is zero.
    """

    __slots__ = ("presentation", "_terms")

    def __init__(self, presentation: "AlgebraPresentation",
                 terms: dict[tuple[int, ...], QLaurent]):
        self.presentation = presentation
        self._terms = {w: c for w, c in terms.items() if c}

    def terms(self) -> dict[tuple[int, ...], QLaurent]:
        """Copy of the underlying word -> coefficient mapping."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Length of the longest word (0 for the zero element)."""
        return max((len(w) for w in self._terms), default=0)

    def _check_mate(self, other: "Element") -> None:
        if self.presentation is not other.presentation:
            raise PresentationError(
                "elements belong to different presentations: "
                f"{self.presentation.name!r} vs {other.presentation.name!r}")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_mate(other)
        return Element(self.presentation,
                       _collect(chain(self._terms.items(),
                                      other._terms.items())))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element(self.presentation,
                       {w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QLaurent)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._check_mate(other)
        return Element(self.presentation,
                       _collect((w1 + w2, c1 * c2)
                                for w1, c1 in self._terms.items()
                                for w2, c2 in other._terms.items()))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QLaurent)):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar) -> "Element":
        if not isinstance(scalar, QLaurent):
            scalar = QLaurent.rational(scalar)
        return Element(self.presentation,
                       {w: c * scalar for w, c in self._terms.items()})

    def star(self) -> "Element":
        """Involution: reverse each word and star each letter; the
        coefficients are real, so they stay as they are.  w -> w* is a
        bijection on words, so no two terms meet and nothing is merged."""
        star = self.presentation._star_idx
        return Element(self.presentation,
                       {tuple(star[i] for i in reversed(w)): c
                        for w, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.presentation is other.presentation
                and self._terms == other._terms)

    def __hash__(self):
        return hash((id(self.presentation),
                     tuple(sorted(self._terms.items(),
                                  key=lambda kv: kv[0]))))

    def __str__(self):
        return self.presentation.format_element(self)

    def __repr__(self):
        return f"<{self.presentation.name}: {self}>"


class Rule:
    """One oriented rewriting rule left -> sum of smaller words."""

    __slots__ = ("left", "right", "label")

    def __init__(self, left: tuple[int, ...],
                 right: dict[tuple[int, ...], QLaurent], label: str):
        self.left = left
        self.right = right
        self.label = label


class AlgebraPresentation:
    """A named generating set and oriented rule list.

    The involution is read off the generator names: X* is the adjoint of
    X, and a generator without a starred partner is self-adjoint.  The
    monomial order is degree-lexicographic with generator precedence
    given by position in ``generators``.  Every rule must be strictly
    decreasing in that order; the constructor enforces this, which is
    what guarantees termination of normal_form.  Each normal form may
    take at most step_budget products in its folds.
    """

    step_budget = 10 ** 6

    def __init__(self, name: str, generators: tuple[str, ...],
                 rules_spec, params: dict | None = None):
        self.name = name
        self.generators = tuple(generators)
        self.params = dict(params or {})
        self._index = {g: i for i, g in enumerate(self.generators)}
        if len(self._index) != len(self.generators):
            raise PresentationError("duplicate generator name")
        star = []
        for g in self.generators:
            partner = g[:-1] if g.endswith("*") else g + "*"
            if g.endswith("*") and partner not in self._index:
                raise PresentationError(f"generator {g!r} has no partner {partner!r}")
            star.append(self._index.get(partner, self._index[g]))
        self._star_idx = tuple(star)

        rules = []
        for left_names, right_names in rules_spec:
            left = tuple(self._index[g] for g in left_names)
            right = {tuple(self._index[g] for g in w): c
                     for w, c in right_names.items() if c}
            label = self.format_word(left)
            lk = self.deglex_key(left)
            for w in right:
                if self.deglex_key(w) >= lk:
                    raise PresentationError(
                        f"rule {label} is not order-decreasing at {self.format_word(w)}")
            rules.append(Rule(left, right, label))
        self.rules = tuple(rules)
        # rules bucketed by last letter: in a product u g with u
        # irreducible, a match can only end at g
        self._rules_by_last: dict[int, list[Rule]] = {}
        for r in self.rules:
            self._rules_by_last.setdefault(r.left[-1], []).append(r)
        self._lefts = {r.left for r in self.rules}
        self._left_lengths = sorted({len(r.left) for r in self.rules})
        # nf(u g) for irreducible u and a generator g, keyed by the word
        # u g; filled as normal forms need it and kept, since every entry
        # is a fact about the presentation
        self._table: dict[tuple[int, ...], tuple] = {}

    # -- basic constructors -------------------------------------------------

    def gen_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise PresentationError(
                f"unknown generator {name!r} for {self.name}") from None

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {(): QLaurent.one()})

    def gen(self, name: str) -> Element:
        return Element(self, {(self.gen_index(name),): QLaurent.one()})

    def word(self, *gen_names: str) -> Element:
        w = tuple(self.gen_index(n) for n in gen_names)
        return Element(self, {w: QLaurent.one()})

    # -- monomial order and rewriting --------------------------------------

    def deglex_key(self, word: tuple[int, ...]):
        return (len(word), word)

    def _irreducible_prefix(self, word: tuple[int, ...]) -> int:
        """Length of the longest irreducible proper prefix of word (0 for
        the empty word).  A fold starts there, so at least the last letter
        goes through the table and every word of a normal form is the
        table's own tuple, not a copy."""
        end = max(len(word) - 1, 0)
        for k in self._left_lengths:
            for i, sub in enumerate(zip(*[word[j:] for j in range(k)])):
                if i + k > end:
                    break
                if sub in self._lefts:
                    end = i + k - 1
                    break
        return end

    def normal_form(self, x: Element) -> Element:
        """The unique irreducible form of x, its terms in deglex order.

        Each word is folded left to right from its longest irreducible
        proper prefix: its other letters are multiplied in one at a time
        through the table of nf(u g), u irreducible and g a generator.
        Because u is irreducible, a match in u g can only end at g, so
        this holds for rules of any left length; Bergman's diamond lemma,
        with check_local_confluence, makes the result independent of
        which match is reduced.  A word's coefficient multiplies in once,
        at the end.  The cost is polynomial in how far letters travel.
        Raises RewriteBudgetError past step_budget products u g in the
        folds of x's words, a count that depends on x alone and not on
        what the table already holds.
        """
        if x.presentation is not self:
            raise PresentationError("element belongs to a different presentation")
        budget = [self.step_budget]
        terms = []
        for word, coeff in x._terms.items():
            k = self._irreducible_prefix(word)
            nf = self._run(self._fold(word[:k], QLaurent.one(), word[k:],
                                      budget))
            terms += [(v, coeff * c) for v, c in nf.items()]
        result = _collect(terms)
        return Element(self, {v: result[v]._tighten()
                              for v in sorted(result, key=self.deglex_key)})

    def _fold(self, u, coeff, letters, budget=None):
        """nf(coeff u letters) for an irreducible word u, as a dict.

        A generator: it yields each word v g that the table lacks and is
        sent nf(v g) back (see _run).  budget, a one-item list, is counted
        down by one per product v g, found in the table or not.
        """
        table = self._table
        cur = {u: coeff}
        for g in letters:
            if budget is not None:
                budget[0] -= len(cur)
                if budget[0] < 0:
                    raise RewriteBudgetError(
                        f"normal form in {self.name} exceeded "
                        f"{self.step_budget} rewrite steps")
            nxt: dict[tuple[int, ...], QLaurent] = {}
            for v, c in cur.items():
                vg = v + (g,)
                entry = table.get(vg)
                if entry is None:
                    entry = yield vg
                for w, d in entry:
                    cd = c * d
                    s = nxt.get(w)
                    nxt[w] = cd if s is None else s + cd
            cur = {w: c for w, c in nxt.items() if c}
        return cur

    def _product(self, word):
        """nf(word) for a word whose proper prefixes are irreducible,
        stored in the table and returned as (word, coefficient) pairs: the
        first rule that ends the word rewrites it, and each right-hand
        word is folded into the prefix before it.  A generator, as _fold.
        """
        for rule in self._rules_by_last.get(word[-1], ()):
            k = len(rule.left)
            if word[-k:] == rule.left:
                terms = []
                for right, rc in rule.right.items():
                    part = yield from self._fold(word[:-k], rc, right)
                    terms += part.items()
                entry = tuple((w, c._tighten())
                              for w, c in _collect(terms).items() if c)
                break
        else:
            entry = ((word, QLaurent.one()),)
        self._table[word] = entry
        return entry

    def _run(self, fold):
        """Drive a fold to its result.  Each word it lacks is computed by
        _product, whose folds may lack words in turn; an explicit stack
        of these generators stands in for recursion, whose depth grows
        with how far a letter travels."""
        stack, sent = [fold], None
        while True:
            try:
                need = stack[-1].send(sent)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                sent = done.value
                continue
            sent = self._table.get(need)
            if sent is None:
                stack.append(self._product(need))

    # -- formatting and parsing ---------------------------------------------

    def format_word(self, word: tuple[int, ...]) -> str:
        if not word:
            return "1"
        pieces = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            g = self.generators[word[i]]
            pieces.append(g if j - i == 1 else f"{g}^{j - i}")
            i = j
        return " ".join(pieces)

    def format_element(self, x: Element) -> str:
        return _signed_sum(_format_term(x._terms[w], self.format_word(w))
                           for w in sorted(x._terms, key=self.deglex_key))

    def parse(self, text: str) -> Element:
        """Parse the small expression grammar.

        Products are juxtaposition ("K L" or "KL"), the involution is a
        suffix prime or star ("L'" or "L*"), integer powers use "^", and
        scalar factors look like 3, 3/2, q^-4 or (3/2)q^-4.
        """
        return _ExprParser(self, text).parse()

    def __repr__(self):
        return f"AlgebraPresentation({self.name!r}, generators={self.generators})"


def _format_term(coeff: QLaurent, word_text: str) -> tuple[str, bool]:
    """Render one term; returns (body, is_negative)."""
    items = coeff.items()
    if len(items) == 1:
        (e, c), = items
        scalar, neg = _q_monomial(abs(c), e), c < 0
    else:
        scalar, neg = f"({coeff})", False
    if word_text == "1":
        return scalar or "1", neg
    return (f"{scalar} {word_text}" if scalar else word_text), neg


# -- expression parser -------------------------------------------------------

# Caps on "^" in parsed expressions.  A power is multiplied out word by
# word in the free algebra, before any normal form, at a cost that grows
# with the square of its word length and with its number of words
# (terms of the base to the power).  Beyond these caps input is refused
# with ExpressionError instead of running for hours; a scalar base
# counts as one letter, so its exponent is capped too.
MAX_POWER_LETTERS = 1024
MAX_POWER_TERMS = 100_000


class _ExprParser:
    def __init__(self, presentation: AlgebraPresentation, text: str):
        self.p = presentation
        self.text = text
        self.pos = 0

    def parse(self) -> Element:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExpressionError(
                f"unexpected input at position {self.pos}: "
                f"{self.text[self.pos:self.pos + 8]!r}")
        return value

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> Element:
        sign = 1
        ch = self._peek()
        if ch in "+-":
            self.pos += 1
            sign = -1 if ch == "-" else 1
        total = self._term().scale(sign)
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                total = total + self._term()
            elif ch == "-":
                self.pos += 1
                total = total - self._term()
            else:
                return total

    def _term(self) -> Element:
        value = self._factor()
        while True:
            ch = self._peek()
            if ch and (ch.isalnum() or ch == "("):
                value = value * self._factor()
            else:
                return value

    def _factor(self) -> Element:
        base = self._primary()
        if self._peek() == "^":
            self.pos += 1
            exp = self._signed_int()
            if exp < 0:
                raise ExpressionError("negative powers are only allowed on q")
            # word length first: it bounds exp, so the term count below
            # stays a small integer
            letters = exp * max(base.degree(), 1)
            if letters > MAX_POWER_LETTERS:
                raise ExpressionError(
                    f"power too long: {letters} letters, "
                    f"the cap is {MAX_POWER_LETTERS}")
            terms = len(base.terms()) ** exp
            if terms > MAX_POWER_TERMS:
                raise ExpressionError(
                    f"power too large: up to {terms} terms, "
                    f"the cap is {MAX_POWER_TERMS}")
            out = self.p.one()
            for _ in range(exp):
                out = out * base
            return out
        return base

    def _primary(self) -> Element:
        ch = self._peek()
        if not ch:
            raise ExpressionError("unexpected end of expression")
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise ExpressionError("missing closing parenthesis")
            self.pos += 1
            return inner
        if ch.isdigit():
            return self.p.one().scale(QLaurent.rational(self._rational()))
        if ch == "q":
            self.pos += 1
            exp = 1
            if self._peek() == "^":
                self.pos += 1
                exp = self._signed_int()
            return self.p.one().scale(QLaurent.q_power(exp))
        if ch.isalpha():
            self.pos += 1
            name = ch
            if self.pos < len(self.text) and self.text[self.pos] in "*'":
                name = ch + "*"
                self.pos += 1
            if name not in self.p._index:
                raise ExpressionError(
                    f"unknown generator {name!r} for {self.p.name}")
            return self.p.gen(name)
        raise ExpressionError(f"unexpected character {ch!r} at position {self.pos}")

    def _signed_int(self) -> int:
        self._skip_ws()
        sign = 1
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            sign = -1
            self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ExpressionError(f"expected an integer at position {start}")
        return sign * int(self.text[start:self.pos])

    def _rational(self) -> Fraction:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        num = int(self.text[start:self.pos])
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if dstart == self.pos:
                raise ExpressionError("expected a denominator after '/'")
            den = int(self.text[dstart:self.pos])
            if den == 0:
                raise ExpressionError("zero denominator")
            return Fraction(num, den)
        return Fraction(num)


# -- built-in presentations ----------------------------------------------------

def _q(e, c=1):
    return QLaurent.q_power(e, c)


def _r(c):
    return QLaurent.rational(c)


def _sphere_rules(s: Fraction):
    s2 = s * s
    return [
        (("L", "K"), {("K", "L"): _q(2)}),
        (("L*", "K"), {("K", "L*"): _q(-2)}),
        (("L*", "L"), {(): _r(s2), ("K",): _r(1 - s2), ("K", "K"): _r(-1)}),
        (("L", "L*"), {(): _r(s2), ("K",): _q(2, 1 - s2), ("K", "K"): _q(4, -1)}),
    ]


_DISC_RULES = [
    (("x*", "x"), {("x", "x*"): _q(1), (): QLaurent({0: 1, 1: -1})}),
]

# Quantum real projective space.  The commutation rules between T-type and
# R-type letters are oriented so that irreducible words put the P block
# first, then a pure R or R* block, then an optional trailing T or T*,
# matching its declared basis below.  That forces the precedence
# P < R < R* < T < T* in the degree-lex order.
_RP2_RULES = [
    (("T", "P"), {("P", "T"): _q(4)}),
    (("T*", "P"), {("P", "T*"): _q(-4)}),
    (("R", "P"), {("P", "R"): _q(8)}),
    (("R*", "P"), {("P", "R*"): _q(-8)}),
    (("T", "R"), {("R", "T"): _q(-4)}),
    (("T*", "R*"), {("R*", "T*"): _q(4)}),
    (("T", "T"), {("P", "R"): _q(2)}),
    (("T*", "T*"), {("P", "R*"): _q(-6)}),
    (("R", "T*"), {("P", "T"): _q(10, -1), ("T",): _q(2)}),
    (("R*", "T"), {("P", "T*"): _q(-6, -1), ("T*",): _q(-2)}),
    (("T", "R*"), {("P", "T*"): _q(6, -1), ("T*",): _q(2)}),
    (("T*", "R"), {("P", "T"): _q(-2, -1), ("T",): _q(-2)}),
    (("T", "T*"), {("P", "P"): _q(4, -1), ("P",): _r(1)}),
    (("T*", "T"), {("P", "P"): _q(-4, -1), ("P",): _q(-4)}),
    (("R", "R*"), {("P", "P"): _q(12), ("P",): QLaurent({4: -1, 8: -1}), (): _r(1)}),
    (("R*", "R"), {("P", "P"): _q(-4), ("P",): QLaurent({0: -1, -4: -1}), (): _r(1)}),
]

# SU_{q^2}(2) with b made self-adjoint: a b = q^2 b a together with
# a* a + q^-4 b^2 = 1 and a a* + b^2 = 1, written as four oriented rules
# with right sides already in normal form.
_SUQ2_RULES = [
    (("b", "a"), {("a", "b"): _q(-2)}),
    (("b", "a*"), {("a*", "b"): _q(2)}),
    (("a*", "a"), {("a", "a*"): _q(-4), (): QLaurent({0: 1, -4: -1})}),
    (("b", "b"), {(): _r(1), ("a", "a*"): _r(-1)}),
]

# The built-in presentations, one row each: the generators in order of
# precedence, the rules (the sphere's built from s) and the monomial basis
# they leave irreducible, as a regular expression over a word spelled with
# one digit per generator index.  Bergman's diamond lemma makes the
# irreducible words a basis once check_local_confluence finds no
# unresolved overlap; the tests check that they are exactly these.
BUILTIN_PRESENTATIONS = {
    "sphere": (("K", "L", "L*"), _sphere_rules, "0*(1*|2*)"),  # K^a L^b, K^a L*^c
    "disc": (("x", "x*"), _DISC_RULES, "0*1*"),                # x^a x*^b
    "rp2": (("P", "R", "R*", "T", "T*"), _RP2_RULES,
            "0*(1*3?|2*4?)"),                    # P^k R^l (T), P^k R*^l (T*)
    "suq2_mod_b": (("a", "a*", "b"), _SUQ2_RULES, "0*1*2?"),   # a^i a*^j b^e, e <= 1
}


def presentation(name: str, s=None) -> AlgebraPresentation:
    """Return the named built-in presentation.

    ``s`` is only meaningful for the sphere and must be a rational in
    [0, 1]; the default is 1.  It relates to the Podles parameter c of
    the quantum sphere by c = (1/s - s)^-2, so s = 1 is c = infinity
    (the equator sphere) and s = 0 is c = 0 (the standard sphere).
    """
    if name not in BUILTIN_PRESENTATIONS:
        raise PresentationError(f"unknown presentation {name!r}")
    if name == "sphere":
        s = Fraction(1) if s is None else Fraction(s)
        if not 0 <= s <= 1:
            raise PresentationError("sphere parameter s must lie in [0, 1]")
    elif s is not None:
        raise PresentationError(f"presentation {name!r} takes no parameter s")
    return _cached_presentation(name, s)


@lru_cache(maxsize=None)
def _cached_presentation(name: str, s: Fraction | None) -> AlgebraPresentation:
    generators, rules, _ = BUILTIN_PRESENTATIONS[name]
    if s is None:
        return AlgebraPresentation(name, generators, rules)
    return AlgebraPresentation(name, generators, rules(s), params={"s": s})


# -- generator maps ------------------------------------------------------------

class GeneratorMap:
    """A *-algebra map defined on generators.

    ``images`` gives the image of each unstarred generator; images of
    starred generators are filled in through the target involution.  An
    optional exponent scale composes with a substitution q -> q^scale on
    coefficients, used when source and target deformation parameters
    differ by a fixed power.

    Every operation builds the free-algebra image phi(x) with _image and
    normalises once.  The reducer rewrites each term on its own, so nf is
    linear, and it is unique (check_local_confluence, Bergman's diamond
    lemma); a difference such as phi(x) - x is therefore reduced in one
    pass, with words that cancel never rewritten.
    """

    def __init__(self, name: str, source: AlgebraPresentation,
                 target: AlgebraPresentation,
                 images: dict[str, Element], q_scale: int = 1):
        self.name = name
        self.source = source
        self.target = target
        self.q_scale = q_scale
        by_index: dict[int, Element] = {}
        for gname, img in images.items():
            if img.presentation is not target:
                raise PresentationError(
                    f"image of {gname!r} lives in the wrong presentation")
            by_index[source.gen_index(gname)] = img
        for i, g in enumerate(source.generators):
            if i in by_index:
                continue
            j = source._star_idx[i]
            if j in by_index:
                by_index[i] = target.normal_form(by_index[j].star())
            else:
                raise PresentationError(f"no image given for generator {g!r}")
        self.images = by_index
        self.star_compatible = all(
            target.normal_form(
                self.images[source._star_idx[i]] - self.images[i].star()
            ).is_zero()
            for i in range(len(source.generators)))

    def _image(self, x: Element) -> Element:
        """phi(x) in the target's free algebra, not reduced: each word's
        letters expanded through their images, equal words merged once."""
        if x.presentation is not self.source:
            raise PresentationError("element does not belong to the source")
        images = self.images
        terms = []
        for word, coeff in x._terms.items():
            if self.q_scale != 1:
                coeff = coeff.scale_exponents(self.q_scale)
            expanded = [((), coeff)]
            for letter in word:
                expanded = [(w + v, c * d) for w, c in expanded
                            for v, d in images[letter]._terms.items()]
            terms += expanded
        return Element(self.target, _collect(terms))

    def apply(self, x: Element) -> Element:
        """Image of x, reduced to normal form in the target: nf(phi(x))."""
        return self.target.normal_form(self._image(x))

    def verify(self) -> "MorphismReport":
        """Reduce the image of every source relation; all must vanish."""
        entries = []
        for rule in self.source.rules:
            lhs = Element(self.source, {rule.left: QLaurent.one()})
            rhs = Element(self.source, rule.right)
            residual = self.target.normal_form(self._image(lhs - rhs))
            entries.append((rule.label, residual))
        return MorphismReport(self.name, tuple(entries), self.star_compatible)

    def is_involution(self) -> bool:
        """apply two times fixes every generator (source must equal target)."""
        if self.source is not self.target:
            return False
        for g in self.source.generators:
            x = self.source.gen(g)
            if not self.source.normal_form(
                    self._image(self.apply(x)) - x).is_zero():
                return False
        return True


class MorphismReport:
    """Per-relation residuals from a generator-map verification."""

    __slots__ = ("name", "entries", "star_compatible")

    def __init__(self, name, entries, star_compatible):
        self.name = name
        self.entries = entries
        self.star_compatible = star_compatible

    @property
    def ok(self) -> bool:
        return self.star_compatible and all(r.is_zero() for _, r in self.entries)

    def __repr__(self):
        state = "ok" if self.ok else "FAILED"
        return f"<MorphismReport {self.name}: {state}>"


# The named generator maps between the built-in presentations, the sphere
# at s = 1: name -> (source, target, images of the unstarred generators as
# expressions in the target, q_scale).  F is an isomorphism, r1 and r2
# are the order-two automorphisms of the sphere, and the inclusions embed
# onto the subalgebras fixed by r2 (rp2) and r1 (disc, whose parameter is
# the fourth power of the sphere's).
_MORPHISMS = {
    "F": ("sphere", "suq2_mod_b", {"K": "q^-2 b", "L": "a"}, 1),
    "r1": ("sphere", "sphere", {"K": "-K", "L": "L"}, 1),
    "r2": ("sphere", "sphere", {"K": "-K", "L": "-L"}, 1),
    "rp2-inclusion": ("rp2", "sphere", {"P": "K^2", "R": "L^2", "T": "K L"}, 1),
    "disc-inclusion": ("disc", "sphere", {"x": "L*"}, 4),
}
BUILTIN_MORPHISMS = tuple(_MORPHISMS)


@lru_cache(maxsize=None)
def builtin_morphism(name: str) -> GeneratorMap:
    """The named generator map, one row of _MORPHISMS."""
    try:
        source, target, images, q_scale = _MORPHISMS[name]
    except KeyError:
        raise PresentationError(f"unknown morphism {name!r}") from None
    target = presentation(target)
    return GeneratorMap(name, presentation(source), target,
                        {g: target.parse(text) for g, text in images.items()},
                        q_scale)


def is_fixed(auto: GeneratorMap, x: Element) -> bool:
    """True when the automorphism fixes x in the quotient algebra.

    Decided as nf(phi(x) - x) = 0 with one normal form: nf is linear, so
    this equals nf(phi(x)) - nf(x), and for r1 and r2 the words that phi
    fixes cancel before any rewriting.
    """
    if auto.source is not auto.target:
        raise PresentationError("fixed points need an endomorphism")
    return auto.source.normal_form(auto._image(x) - x).is_zero()


def check_local_confluence(p: AlgebraPresentation) -> list[tuple[str, Element]]:
    """All critical pairs of the rule system, with their nf differences.

    Returns one (overlap word, nf(reduct1) - nf(reduct2)) entry per
    unresolved overlap; an empty list plus rule termination (enforced at
    construction) proves the rewriting system confluent, so normal forms
    are unique and the declared basis really is a basis.
    """
    def word(w):
        return Element(p, {w: QLaurent.one()})

    out = []
    for r1 in p.rules:
        for r2 in p.rules:
            l1, l2 = r1.left, r2.left
            right1, right2 = Element(p, r1.right), Element(p, r2.right)
            # (overlap word, its reduct by r1, its reduct by r2)
            pairs = []
            # proper suffix of l1 equals proper prefix of l2
            for o in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - o:] == l2[:o]:
                    pairs.append((l1 + l2[o:], right1 * word(l2[o:]),
                                  word(l1[:len(l1) - o]) * right2))
            # l2 strictly inside l1
            if len(l2) < len(l1):
                for pos in range(len(l1) - len(l2) + 1):
                    if l1[pos:pos + len(l2)] == l2:
                        pairs.append((l1, right1, word(l1[:pos]) * right2
                                      * word(l1[pos + len(l2):])))
            for overlap, red1, red2 in pairs:
                diff = p.normal_form(red1) - p.normal_form(red2)
                if not diff.is_zero():
                    out.append((p.format_word(overlap), diff))
    return out


def even_generator_count(x: Element, gen_name: str) -> bool:
    """Every monomial of nf(x) uses the generator an even number of times."""
    p = x.presentation
    idx = p.gen_index(gen_name)
    nf = p.normal_form(x)
    return all(sum(1 for i in w if i == idx) % 2 == 0 for w in nf._terms)


def even_word_length(x: Element) -> bool:
    """Every monomial of nf(x) has even total degree."""
    nf = x.presentation.normal_form(x)
    return all(len(w) % 2 == 0 for w in nf._terms)


def random_element(p: AlgebraPresentation, rng, max_terms: int = 4,
                   max_degree: int = 6, coeff_span: int = 5,
                   exponent_span: int = 2) -> Element:
    """Seeded random element, used by the batch verification suites."""
    terms = []
    n_gens = len(p.generators)
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_degree)
        word = tuple(rng.randrange(n_gens) for _ in range(length))
        num = rng.randint(-coeff_span, coeff_span)
        den = rng.randint(1, 4)
        exp = rng.randint(-exponent_span, exponent_span)
        terms.append((word, QLaurent.q_power(exp, Fraction(num, den))))
    return Element(p, _collect(terms))
