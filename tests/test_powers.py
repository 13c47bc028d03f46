"""Same subshift, same answers: a primitive σ and its square σ² generate
the same subshift under the same shift (the factors of σ^(2n)(a) are the
factors of σ^n(a)), so every answer about the subshift must agree for
them.  Answers about σ itself, such as the decision trace, the
coincidence class or the certificate powers, may differ and are not
compared.

Over every primitive class of ``test_small_classes.TIERS``, the
one-to-one reductions of σ and of σ² must agree on finiteness, on
``has_ly_pairs`` and ``has_uncountable_ly`` when the subshift is
infinite, and on the number of Li-Yorke orbits when there are countably
many Li-Yorke pairs.
"""

from substchaos import (
    Substitution,
    decide_infinite,
    enumerate_ly_orbits,
    has_ly_pairs,
    has_uncountable_ly,
    is_primitive,
    one_to_one_reduction,
)

from test_small_classes import TIERS, classes


def square(subst):
    """σ²: every letter of every image replaced by its own image."""
    images = subst.images
    return Substitution(
        subst.alphabet, tuple("".join(images[ord(ch)] for ch in image) for image in images)
    )


def subshift_answers(subst):
    """(infinite, has Li-Yorke pairs, uncountably many, orbit count) of
    the one-to-one reduction of ``subst``; None where an answer is not
    asked: the pair answers of a finite subshift and the orbit count of
    an uncountable one."""
    reduced = one_to_one_reduction(subst).reduced
    if not decide_infinite(reduced):
        return False, None, None, None
    ly, unc = has_ly_pairs(reduced), has_uncountable_ly(reduced)
    return True, ly, unc, None if unc else len(enumerate_ly_orbits(reduced))


def test_square_has_the_same_answers():
    primitive, countable, disagreements = 0, 0, []
    for n, p in TIERS:
        alphabet = tuple("abcd"[:n])
        for images in classes(n, p):
            s = Substitution(alphabet, images)
            if not is_primitive(s):
                continue
            primitive += 1
            answers = subshift_answers(s)
            if answers != subshift_answers(square(s)):
                disagreements.append(s.rules())
            countable += bool(answers[3])
    assert disagreements == []
    assert primitive == sum(prim for _, prim in TIERS.values()) == 5874
    assert countable == 91
