"""Substitutions on finite alphabets: parsing, iteration, primitivity,
language generation and the induced substitution on letter-pairs.

Words are handled internally as strings over ``chr(0) .. chr(k-1)`` where
``k`` is the alphabet size; the public surface speaks in alphabet tokens
(a plain string when every token is one character, a token tuple
otherwise).  All values are immutable after construction, so everything
here is safe to share between threads.

The language is read from covering words: for each ``cd`` in L_2 the
word ``σ^m(c)σ^m(d)``, where m is the least power with |σ^m(a)| >= N - 1
for every letter a.  L_N is the set of their length-N factors that start
inside ``σ^m(c)`` (proof in ``_covering_words``).  The listing
``_listing``, the membership test ``in_language`` and the tower's
preimage search ``tower.preimage_candidates`` all read these words, so
nothing is de-substituted.  A listing is O(|L_2| · max_a |σ^m(a)|)
slices of length N, counted from the image lengths before any word is
built.  Only L_2, which the decisions read, is cached (``language_chr``);
a longer listing is built and counted on every call.  L_2 itself is
the closure of the two-letter factors of the images under the boundary
pairs ``last(σ(c)) first(σ(d))``, and a listing goes back to public
form through one ``decode`` of its words joined, cut every N letters.

Primitivity is read from the letter graph, a -> b for each letter b of
σ(a): σ is primitive exactly when that graph is strongly connected with
period 1 (Perron–Frobenius), and both are decided by breadth-first
search, the period as a gcd over the edges of the search levels
(``is_primitive``).  The work is linear in the total image length, where
a walk through the powers of σ could take up to the Wielandt bound
(n-1)^2 + 1 of them.

A slice of an iterate (``iterate_slice``, the expansion of every point
window) is built top-down on bytes when the alphabet has at most 256
letters: the word is latin-1 once, a level is p ``bytes.translate``
passes through the byte columns of the images (letter j of every image,
one 256-byte table per j), each written to every p-th byte, and the
window is decoded to a chr-coded string once.  A larger alphabet does not
fit a byte and keeps the per-letter ``str.translate`` of ``apply``.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache, wraps

from .errors import ParseError, InvariantError, PreconditionError, charge

# The longest word, window or listing any stage builds: a fixed limit that
# every check reads at call time, not a default that a caller can raise.
DEFAULT_WORD_BUDGET = 1 << 24
# Substitutions whose derived tables (and L_2 listings) stay cached.
TABLE_CACHE_SIZE = 128


def _read_only(self, *args):
    """``__setattr__`` and ``__delattr__`` of the immutable classes: no
    attribute can be assigned or deleted after construction."""
    raise AttributeError(f"cannot assign to or delete {type(self).__name__}.{args[0]}")


class Substitution:
    """A map from letters to nonempty words over the same alphabet.

    ``alphabet`` fixes the letter order used for every tie-break in the
    package; ``images`` holds the image of letter ``i`` as an internal
    chr-coded string.  Equality, the hash and the ``repr`` are over
    ``(alphabet, images)``, and no attribute can be assigned or deleted.
    ``constant_length`` is the common image length ``p``, or None for
    variable length.  It, the hash and the letter index are computed once,
    at construction, since every table-cache and language lookup hashes
    the substitution and every encoded word reads the index.
    """

    def __init__(self, alphabet, images):
        if not alphabet:
            raise InvariantError("alphabet must contain at least one letter")
        if len(set(alphabet)) != len(alphabet):
            raise InvariantError("duplicate alphabet tokens")
        if len(images) != len(alphabet):
            raise InvariantError("one image per letter required")
        n = len(alphabet)
        # translate table that deletes every known letter code
        known = dict.fromkeys(range(n))
        for tok, img in zip(alphabet, images):
            if not img:
                raise InvariantError(f"empty image for letter {tok!r}")
            if img.translate(known):
                raise InvariantError(f"image of {tok!r} uses an unknown letter")
        lengths = set(map(len, images))
        # token -> alphabet index; encode also reads an int index as itself
        index = {tok: i for i, tok in enumerate(alphabet)}
        # object.__setattr__, not __dict__: reading __dict__ gives up the
        # instance layout that the interpreter's fast attribute reads need
        set_ = object.__setattr__
        set_(self, "alphabet", alphabet)
        set_(self, "images", images)
        set_(self, "constant_length", lengths.pop() if len(lengths) == 1 else None)
        set_(self, "_hash", hash((alphabet, images)))
        set_(self, "_one_char_tokens", all(len(t) == 1 for t in alphabet))
        set_(self, "_index", index)
        set_(self, "_codes", {**index, **{i: i for i in range(n)}})
        set_(self, "_known", known)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.images) == (other.alphabet, other.images)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Substitution(alphabet={self.alphabet!r}, images={self.images!r})"

    __setattr__ = __delattr__ = _read_only

    # -- construction ------------------------------------------------

    @classmethod
    def from_rules(cls, rules, alphabet=None):
        """Build from ``{token: image}`` where an image is a string of
        one-character tokens or an iterable of tokens."""
        if alphabet is None:
            alphabet = tuple(rules.keys())
        alphabet = tuple(alphabet)
        index = {tok: i for i, tok in enumerate(alphabet)}
        if set(rules) != set(alphabet):
            missing = _letter_set(set(alphabet) - set(rules))
            extra = _letter_set(set(rules) - set(alphabet))
            raise InvariantError(f"rules/alphabet mismatch (missing {missing}, extra {extra})")
        images = []
        for tok in alphabet:
            img = rules[tok]
            try:
                images.append("".join(chr(index[t]) for t in img))
            except KeyError as exc:
                raise InvariantError(f"image of {tok!r} uses unknown letter {exc.args[0]!r}")
        return cls(alphabet, tuple(images))

    # -- basic accessors ---------------------------------------------

    @property
    def size(self):
        return len(self.alphabet)

    def is_injective(self):
        """True when distinct letters have distinct images."""
        return len(set(self.images)) == len(self.images)

    def index(self, token):
        """The alphabet index of a letter (an alphabet token, never an
        int index)."""
        try:
            return self._index[token]
        except KeyError:
            raise InvariantError(f"unknown letter {token!r}")

    def image(self, token):
        """Image of a letter, in public word form."""
        return self.decode(self.images[self.index(token)])

    def rules(self):
        """Rules as ``{token: image}`` in public word form."""
        return {tok: self.decode(img) for tok, img in zip(self.alphabet, self.images)}

    # -- word encoding -----------------------------------------------

    def encode(self, word):
        """Public word form (string of tokens or token iterable) to the
        internal chr-coded string.  An int token is an alphabet index."""
        try:
            return "".join(map(chr, map(self._codes.__getitem__, word)))
        except KeyError as exc:
            raise InvariantError(f"unknown letter {exc.args[0]!r}")

    def decode(self, chrword):
        """Internal chr-coded word back to public form.  With one-character
        tokens the alphabet is the translate table, as the images are in
        ``apply``; ``translate`` leaves a code past its end unmapped, so
        such codes are refused first: a ``translate`` that deletes every
        code below the alphabet size leaves exactly the unknown ones."""
        if chrword.translate(self._known):
            raise InvariantError(f"word uses a letter code >= {self.size}")
        if self._one_char_tokens:
            return chrword.translate(self.alphabet)
        return tuple(map(self.alphabet.__getitem__, map(ord, chrword)))

    # -- application -------------------------------------------------

    def apply(self, chrword):
        """One application of the substitution to an internal word.  The
        images tuple is the translate table: ``str.translate`` looks up
        each letter's ordinal in it by index."""
        return chrword.translate(self.images)


# ---------------------------------------------------------------------------
# the table cache


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _tables(subst):
    """The derived tables of one substitution, keyed by the function that
    built them (see ``memoised``).  Only the tables of the
    ``TABLE_CACHE_SIZE`` substitutions used last are kept, so memory stays
    bounded in a long-lived process; an evicted table is built again on
    its next use."""
    return {}


def memoised(fn):
    """Memoise ``fn(subst)`` in the table of ``subst`` while it stays in
    the table cache; exceptions are not kept.  Threads that race on a
    missing value each compute and store an equal one."""

    @wraps(fn)
    def cached(subst):
        tables = _tables(subst)
        try:
            return tables[fn]
        except KeyError:
            pass
        # outside the handler, so an exception of fn carries no KeyError
        value = tables[fn] = fn(subst)
        return value

    return cached


# ---------------------------------------------------------------------------
# parsing


def parse_substitution(text):
    """Parse the external substitution format.

    Accepts either one ``<letter> -> <image>`` rule per line (letters are
    single characters or backtick-quoted multi-character tokens, ``#``
    starts a comment, blank lines are ignored) or a JSON document
    ``{"alphabet": [...], "rules": {...}}``.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    rules = {}
    lines = {}  # letter -> the line of its rule
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens, arrow_col = _tokenize_rule_line(raw, lineno)
        if tokens is None:
            continue
        letter, image = tokens
        if letter in rules:
            raise ParseError(f"duplicate definition of letter {letter!r}", lineno, 1)
        if not image:
            raise ParseError(f"empty image for letter {letter!r}", lineno, arrow_col)
        rules[letter] = image
        lines[letter] = lineno
    if not rules:
        raise ParseError("no rules found", 1, 1)
    for letter, image in rules.items():
        for tok in image:
            if tok not in rules:
                raise ParseError(
                    f"image of {letter!r} uses unknown letter {tok!r}", lines[letter], 1
                )
    return Substitution.from_rules(rules, tuple(rules))


def _tokenize_rule_line(raw, lineno):
    """Return ((letter, image_tokens), arrow_col) or (None, None) for
    blank/comment lines."""
    tokens = []
    arrow_positions = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        if ch == "`":
            j = raw.find("`", i + 1)
            if j < 0:
                raise ParseError("unterminated backtick token", lineno, i + 1)
            if j == i + 1:
                raise ParseError("empty backtick token", lineno, i + 1)
            tokens.append(raw[i + 1 : j])
            i = j + 1
            continue
        if raw.startswith("->", i):
            arrow_positions.append((len(tokens), i + 1))
            i += 2
            continue
        tokens.append(ch)
        i += 1
    if not tokens and not arrow_positions:
        return None, None
    if len(arrow_positions) != 1:
        raise ParseError("expected exactly one '->'", lineno, 1)
    split, col = arrow_positions[0]
    if split != 1:
        raise ParseError("expected a single letter before '->'", lineno, 1)
    return (tokens[0], tokens[1:]), col


def _letter_set(letters):
    """A set of letters as Python prints it, but in sorted order, so the
    text does not follow string hashing."""
    return "{" + ", ".join(sorted(map(repr, letters))) + "}" if letters else "set()"


def read_json(text, prefix, *position):
    """``json.loads(text)`` with each of its failures a ``ParseError``
    whose message starts with ``prefix``: malformed text (at its own line
    and column when a ``position`` is given), a key repeated in one
    object, where ``json.loads`` would keep its last value, an integer past
    the conversion limit, and nesting too deep (each at ``position``)."""

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            first = {}  # key -> the index of its first occurrence
            key = next(k for i, (k, _) in enumerate(pairs) if first.setdefault(k, i) != i)
            raise ParseError(f"{prefix}: duplicate key {key!r}", *position)
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{prefix}: {exc.msg}", *(position and (exc.lineno, exc.colno)))
    except ValueError:
        # the one other ValueError: an integer past the conversion limit
        digits = sys.get_int_max_str_digits()
        raise ParseError(f"{prefix}: an integer has more than {digits} digits", *position)
    except RecursionError:
        raise ParseError(f"{prefix}: nested too deeply", *position)


def _parse_json(text):
    doc = read_json(text, "invalid JSON", 1, 1)
    if not isinstance(doc, dict) or "rules" not in doc:
        raise ParseError("JSON document must contain a 'rules' object", 1, 1)
    rules = doc["rules"]
    if not isinstance(rules, dict) or not all(is_public_word(img) for img in rules.values()):
        raise ParseError("'rules' must map each letter to a string or a list of letters", 1, 1)
    # a missing, null or empty alphabet is the rule order
    alphabet = doc.get("alphabet")
    if alphabet is not None and not (isinstance(alphabet, list) and is_public_word(alphabet)):
        raise ParseError("'alphabet' must be a list of letters", 1, 1)
    try:
        return Substitution.from_rules(rules, tuple(alphabet or rules))
    except InvariantError as exc:
        raise ParseError(str(exc), 1, 1)


def is_public_word(value):
    """True for a word in public form: a string of one-character tokens or
    a list or tuple of tokens."""
    return isinstance(value, str) or (
        isinstance(value, (list, tuple)) and all(isinstance(t, str) for t in value)
    )


def json_word(word):
    """A public word as JSON renders it: a string of one-character tokens
    as itself, a token tuple as a list."""
    return word if isinstance(word, str) else list(word)


# ---------------------------------------------------------------------------
# iteration


def iterate(subst, word, count):
    """The ``count``-fold image of ``word``; public word in, public word out."""
    return subst.decode(iterate_chr(subst, subst.encode(word), count))


_ITERATION = "iteration would exceed the word budget ({} > {})"


def iterate_chr(subst, chrword, count):
    if count < 0:
        raise PreconditionError("iteration count must be >= 0")
    w = chrword
    longest = max(map(len, subst.images))
    for _ in range(count):
        charge(len(w) * longest, DEFAULT_WORD_BUDGET, _ITERATION)
        w = subst.apply(w)
    return w


def iterate_slice(subst, chrword, count, start, stop):
    """``iterate_chr(subst, chrword, count)[start:stop]`` for a
    constant-length substitution, with ``0 <= start <= stop``.

    Top-down: a letter at ``m`` levels above the bottom covers ``p^m``
    positions of the result, so before each application only the letters
    whose images reach ``[start, stop)`` are kept.  At most
    ``(stop - start) / p^m + 2`` letters survive a level, so the letters
    produced total about ``(stop - start) * p / (p - 1) + 2 * p * count``.

    On at most 256 letters the word is latin-1 bytes from the start and a
    level is p ``bytes.translate`` passes through ``_byte_columns``, each
    written to every p-th byte, instead of the per-letter ``str.translate``
    of ``apply``; the result is decoded once.  Larger alphabets keep
    ``apply``."""
    p = subst.constant_length
    if p is None:
        raise PreconditionError("slicing an iterate needs constant length")
    if count < 0 or not 0 <= start <= stop:
        raise PreconditionError("slicing an iterate needs count >= 0 and 0 <= start <= stop")
    columns = _byte_columns(subst)
    w = chrword.encode("latin-1") if columns else chrword
    block = p**count
    for _ in range(count):
        lo = start // block
        w = w[lo : -(-stop // block)]
        if columns:
            # letter j of every image is one translate into every p-th byte
            out = bytearray(len(w) * p)
            for j, column in enumerate(columns):
                out[j::p] = w.translate(column)
            w = out
        else:
            w = subst.apply(w)
        start -= lo * block
        stop -= lo * block
        block //= p
    if columns:
        # decoded from a view, so the slice is not copied first
        return str(memoryview(w)[start:stop], "latin-1")
    return w[start:stop]


@memoised
def _byte_columns(subst):
    """For a constant-length substitution, one 256-byte ``bytes.translate``
    table per image position ``j``, mapping each letter to letter ``j`` of
    its image; None past 256 letters, which do not fit a byte."""
    if subst.size > 256:
        return None
    pad = bytes(256 - subst.size)
    return tuple(
        bytes(ord(img[j]) for img in subst.images) + pad for j in range(subst.constant_length)
    )


# ---------------------------------------------------------------------------
# incidence matrix and primitivity


def incidence_matrix(subst):
    """Row ``a``, column ``b``: occurrences of letter ``a`` in the image
    of ``b``.  Column sums equal image lengths."""
    n = subst.size
    return [[subst.images[b].count(chr(a)) for b in range(n)] for a in range(n)]


def _bfs_levels(edges):
    """Breadth-first levels from letter 0 along ``edges`` (``edges[a]``
    the letters a points to); None for a letter not reached."""
    level = [0] + [None] * (len(edges) - 1)
    queue = [0]
    for a in queue:
        for b in edges[a]:
            if level[b] is None:
                level[b] = level[a] + 1
                queue.append(b)
    return level


@memoised
def is_primitive(subst):
    """True when some power maps every letter to a word containing every
    letter, decided on the letter graph in time linear in its edges.

    The graph has an edge a -> b for each letter b of σ(a); its adjacency
    matrix is the transposed incidence matrix, which is primitive exactly
    when the incidence matrix is.  A nonnegative matrix is primitive iff
    it is irreducible and aperiodic (Perron–Frobenius): the graph is
    strongly connected, which one breadth-first search from letter 0
    along the edges and one along the reversed edges decide, and its
    period, the gcd of its closed-walk lengths, is 1.  With the levels of
    the forward search, the period is the gcd over the edges a -> b of
    level(a) + 1 - level(b) (Denardo 1977, Math. Oper. Res. 2; Brualdi
    and Ryser 1991, §3.4): each such value is the difference of two
    closed walks through 0, the tree paths to a then the edge, and to b,
    each closed by one path back to 0; and around any closed walk the
    values sum to its length, the levels cancelling.
    """
    out = [set(map(ord, img)) for img in subst.images]
    back = [[] for _ in out]
    for a, targets in enumerate(out):
        for b in targets:
            back[b].append(a)
    level = _bfs_levels(out)
    if None in level or None in _bfs_levels(back):
        return False
    steps = (level[a] + 1 - level[b] for a, targets in enumerate(out) for b in targets)
    return math.gcd(*steps) == 1


# ---------------------------------------------------------------------------
# language of the generated subshift


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def language_chr(subst, length):
    """``_listing(subst, length)``, cached.  The library reads L_2 alone
    through this cache, so it holds one listing per substitution; every
    longer listing is a terminal output, built per call by ``_listing``
    and charged against the word budget on every call."""
    return _listing(subst, length)


def _listing(subst, length):
    """All internal length-``length`` subwords of the subshift, as a
    frozenset, built on every call.  Requires a primitive substitution.

    One pass, no fixpoint per length: L_N for N >= 3 is the set of
    length-N factors of the covering words ``σ^m(c)σ^m(d)`` that start
    inside ``σ^m(c)`` (proof in ``_covering_words``).  L_2 comes from closing the
    two-letter factors of the images under the boundary pairs
    ``last(σ(c)) first(σ(d))``, without applying σ (proof in
    ``_two_letter_words``); L_1, where ``m = 0``, is the set of first
    letters of L_2.  The work is ``|L_2| · max_a |σ^m(a)|`` slices of
    length N, and at constant length p, ``p^m < p (N - 1)``.  Those
    symbols are counted from the image lengths first, on every call, and
    a listing whose count exceeds ``DEFAULT_WORD_BUDGET`` is refused
    before any word is built.
    """
    if length < 1:
        raise PreconditionError("word length must be >= 1")
    if not is_primitive(subst):
        raise PreconditionError("language generation requires a primitive substitution")
    n = subst.size
    listing = (
        f"the length-{length} listing would slice {{}} symbols, more than the word budget {{}}"
    )
    if n == 1:
        charge(length, DEFAULT_WORD_BUDGET, listing)
        return frozenset({chr(0) * length})
    if length == 2:
        return _two_letter_words(subst)
    sizes = [1] * n
    while min(sizes) < length - 1:
        sizes = [sum(sizes[ord(c)] for c in img) for img in subst.images]
    charge(len(language_chr(subst, 2)) * max(sizes) * length, DEFAULT_WORD_BUDGET, listing)
    words = {u[i : i + length] for lead, u in _covering_words(subst, length) for i in range(lead)}
    # copied from a set, a frozenset is sized to its words; grown from an
    # iterator it keeps the slack of its growth, up to twice the table
    return frozenset(words)


def _covering_words(subst, length):
    """Yield ``(|σ^m(c)|, σ^m(c)σ^m(d))`` for each ``cd`` in L_2, where
    ``m`` is the least power with ``|σ^m(a)| >= N - 1`` for every letter
    ``a``, N = ``length`` >= 1.  The length-N factors of these words that
    start inside ``σ^m(c)`` are exactly L_N.  Requires a primitive
    substitution.

    - Each of them is in the language, since ``cd`` is and the language
      is closed under σ and under taking factors.
    - Each ``w`` in L_N occurs in ``σ^m(v)`` for a word ``v`` of the
      language: by primitivity ``w`` is a factor of ``σ^j(a)`` for every
      large ``j`` and every letter ``a``; take ``v = σ^(j-m)(a)``.  Let
      ``w`` start inside ``σ^m(c)``, ``c`` a letter of ``v``, and let
      ``d`` follow ``c`` in ``v`` (any ``d`` with ``cd`` in L_2 when ``c``
      is last; then ``w`` lies inside ``σ^m(c)``).  A factor of length N
      that touches three images contains the whole middle one, of length
      >= N - 1, plus a letter on each side, so it is longer than N.
      Hence ``w`` lies in ``σ^m(c)σ^m(d)``, where it fits because
      ``|σ^m(d)| >= N - 1``.

    The bound is on the letter images, not on the images of two-letter
    words, because the rules of a variable-length input can differ in
    length.  On one letter, where σ need not grow, the one covering word
    is ``0^N`` itself.
    """
    if length < 1:
        raise PreconditionError("word length must be >= 1")
    pairs = language_chr(subst, 2)
    if subst.size == 1:
        yield 1, chr(0) * length
        return
    images = [chr(i) for i in range(subst.size)]
    while min(map(len, images)) < length - 1:
        images = [subst.apply(w) for w in images]
    for c, d in pairs:
        left = images[ord(c)]
        yield len(left), left + images[ord(d)]


def _two_letter_words(subst):
    """L_2 of a primitive substitution on at least two letters: the
    two-letter factors of the letter images, closed under the boundary
    map ``B(cd) = last(σ(c)) first(σ(d))`` with a worklist that pops each
    word once.  No image is applied.

    - Nothing outside L_2: every letter is in the language (σ is
      primitive), so every image σ(a) and its factors are, and ``B(cd)``
      is a factor of σ(cd), which is in the language when ``cd`` is.
    - Nothing missing: a word of L_2 is a factor of σ^j(c) for some
      ``j >= 1``, whatever the letter ``c`` (σ is primitive).  Every
      two-letter factor of σ^j(c) is in the set, by induction on ``j``:
      it lies inside the image of one letter, or it is ``B(xy)`` for a
      two-letter factor ``xy`` of σ^(j-1)(c).
    """
    last, first = last_letter_map(subst), first_letter_map(subst)
    words = {img[i : i + 2] for img in subst.images for i in range(len(img) - 1)}
    todo = list(words)
    while todo:
        c, d = todo.pop()
        w = chr(last[ord(c)]) + chr(first[ord(d)])
        if w not in words:
            words.add(w)
            todo.append(w)
    return frozenset(words)


def _decoded(subst, words, length):
    """Public forms of internal words of one length, in order, through one
    ``decode`` of their concatenation cut every ``length`` letters:
    slicing a string or a token tuple gives the same words as decoding
    them one by one."""
    joined = subst.decode("".join(words))
    return [joined[i : i + length] for i in range(0, len(joined), length)]


def language(subst, length):
    """The set of length-``length`` words of the subshift, public form."""
    return set(_decoded(subst, _listing(subst, length), length))


def sorted_language(subst, length):
    """Language sorted by alphabet order (deterministic listings)."""
    return _decoded(subst, sorted(_listing(subst, length)), length)


def complexity(subst, max_length):
    """Factor counts ``p(1) .. p(max_length)`` from one listing: L_k is
    the set of length-k prefixes of L_max_length, because every word of
    the language of a subshift extends to the right."""
    if max_length < 1:
        return []
    top = _listing(subst, max_length)
    return [len({w[:k] for w in top}) for k in range(1, max_length + 1)]


def in_language(subst, chrword):
    """Exact membership of an internal word in the subshift language: a
    word of length N is in L_N exactly when it occurs in a covering word
    ``σ^m(c)σ^m(d)`` (``_covering_words``) starting inside ``σ^m(c)``.
    The work is at most ``|L_2| · 2 max_a |σ^m(a)|`` symbols, where
    ``max_a |σ^m(a)|`` grows linearly in N for a primitive σ (below
    ``p (N - 1)`` at constant length p).  Requires a primitive
    substitution, of any length and not necessarily one-to-one; the
    empty word is refused on the same domain.
    """
    language_chr(subst, 2)  # the primitivity refusal, for every word alike
    if not chrword:
        return True
    length = len(chrword)
    return any(chrword in u[: lead + length - 1] for lead, u in _covering_words(subst, length))


# ---------------------------------------------------------------------------
# the substitution on letter-pairs


def pair_substitution(subst):
    """The induced substitution on the alphabet of letter-pairs: the image
    of ``(a, b)`` zips the images of ``a`` and ``b`` position by position.
    Diagonal letters map to diagonal words."""
    p = subst.constant_length
    if p is None:
        raise PreconditionError("the pair substitution needs constant length")
    _charge_pair_positions(subst)
    _charge_pair_letters(subst)
    n = subst.size
    alphabet = tuple(f"({a},{b})" for a in subst.alphabet for b in subst.alphabet)
    images = []
    for i in range(n):
        for j in range(n):
            left = subst.images[i]
            right = subst.images[j]
            images.append("".join(chr(ord(a) * n + ord(b)) for a, b in zip(left, right)))
    return Substitution(alphabet, tuple(images))


def _charge_pair_positions(subst):
    """Refuse letter-pair images whose n²·p positions exceed the word
    budget, before any of them is built (the pair substitution and the
    pair layer of ``pairs``)."""
    positions = subst.size**2 * subst.constant_length
    charge(positions, DEFAULT_WORD_BUDGET, "{} letter-pair positions exceed the word budget {}")


def _charge_pair_letters(subst):
    """Refuse a pair substitution whose letter codes ``i·n + j`` pass the
    last character code, at n >= 1,056 letters, before anything is built.
    The pair layer of ``pairs`` codes pairs as ints and has no such
    limit."""
    charge(subst.size**2, sys.maxunicode + 1, "{} letter pairs exceed the character codes")


# ---------------------------------------------------------------------------
# letter maps used by seed handling


@memoised
def first_letter_map(subst):
    """letter -> first letter of its image."""
    return tuple(ord(img[0]) for img in subst.images)


@memoised
def last_letter_map(subst):
    """letter -> last letter of its image."""
    return tuple(ord(img[-1]) for img in subst.images)


def cycle_length(mapping, letter):
    """Length of the cycle of ``letter`` under ``mapping`` or None when the
    letter is not on a cycle."""
    seen = [letter]
    cur = letter
    for _ in range(len(mapping)):
        cur = mapping[cur]
        if cur == letter:
            return len(seen)
        seen.append(cur)
    return None
