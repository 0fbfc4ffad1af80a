"""Deterministic TREC text for the ``ingest`` workload.

The passages look enough like English news text to exercise every stage of
indexing: pseudo-word stems carry English inflections (-s, -es, -ies, -ed,
-ing, -ization, -ification) that drive the stemmer's rule cascade, common
function words appear at a natural rate so the stop filter removes them,
and mixed case, punctuation, hyphens and numbers make the tokenizer split
and casefold.  Term frequencies follow a Zipf law over the stems.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Frequent English function words, all on the INQUERY stoplist, with rough
# relative frequencies from running text.
STOPWORDS = {
    "the": 60, "of": 30, "and": 28, "to": 26, "a": 22, "in": 20, "is": 10,
    "that": 10, "for": 9, "it": 8, "was": 8, "on": 7, "with": 7, "as": 7,
    "by": 6, "at": 5, "be": 5, "this": 5, "from": 5, "or": 4, "an": 4,
    "are": 4, "which": 3, "were": 3, "but": 3, "not": 3, "have": 3, "has": 3,
    "had": 3, "been": 2, "their": 2, "they": 2, "its": 2, "also": 2,
    "would": 2, "there": 2, "who": 2, "after": 1, "more": 1, "than": 1,
    "into": 1, "about": 1, "between": 1, "during": 1, "because": 1,
}

_STOP_TOTAL = sum(STOPWORDS.values())
# Function words make up this share of the running text, about their rate
# in English news text.
STOP_RATE = 0.4
# Words per passage, drawn uniformly from this inclusive range.
WORDS_PER_DOC = (25, 55)

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "cl", "dr", "gr", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u")
_CODAS = ("", "", "", "n", "r", "l", "m", "t", "k", "p", "d")


# How a word is set in the text, with its share of words.  Every variant
# keeps the word one token except the hyphen, which joins it to the next
# word without merging the two tokens.
_DECORATION_SHARES = (
    (lambda w: w, 0.80),
    (lambda w: w + ",", 0.06),
    (lambda w: w + ".", 0.05),
    (lambda w: w.upper(), 0.02),
    (lambda w: w.capitalize(), 0.03),
    (lambda w: f"({w})", 0.01),
    (lambda w: f'"{w}"', 0.01),
    (lambda w: w + "-", 0.02),
)
_DECORATIONS = [deco for deco, _ in _DECORATION_SHARES]
_DECORATION_CUM = list(itertools.accumulate(share for _, share in _DECORATION_SHARES))


def _inflections(stem: str) -> list[str]:
    """Surface forms of one stem, each ending the way a rule of the stemmer
    expects: plural, past, gerund, doubled consonant, -ate, -ies and the
    nominalizations the cascade folds back."""
    forms = [stem, stem + "s", stem + "ing", stem + "ed", stem + "ization",
             stem + "izations", stem + "ification"]
    last = stem[-1]
    if last in "bdgmnpt" and stem[-2] in "aeiou":
        forms += [stem + last + "ed", stem + last + "ing"]
    forms += [stem + "ates", stem + "ated", stem + "ating"]
    forms += [stem + "ches", stem + "xes", stem + "ies", stem + "ied"]
    return forms


# Relative weight of the i-th surface form returned by _inflections.
_FORM_WEIGHTS = (12.0, 3.0, 2.0, 2.0, 0.5)


@dataclass(frozen=True)
class Collection:
    """Where the rendered collection went and what it holds."""

    path: Path
    num_docs: int
    num_tokens: int
    num_stems: int


def make_stems(rng: random.Random, count: int) -> list[str]:
    stems: list[str] = []
    seen: set[str] = set(STOPWORDS)
    while len(stems) < count:
        syllables = rng.choice((1, 2, 2, 2, 3))
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        if len(word) >= 4 and word not in seen:
            seen.add(word)
            stems.append(word)
    return stems


def render_collection(
    path: Path,
    num_docs: int,
    num_stems: int,
    seed: int,
) -> Collection:
    """Write ``num_docs`` TREC ``<DOC>`` blocks to ``path``; the same seed
    gives the same bytes."""
    rng = random.Random(seed)
    stems = make_stems(rng, num_stems)
    forms: list[str] = []
    cum: list[float] = []
    total = 0.0
    for rank, stem in enumerate(stems, 1):
        variants = _inflections(stem)
        # the base form dominates and the plain inflections follow, as in text
        for i, form in enumerate(variants):
            total += (1.0 / rank) * _FORM_WEIGHTS[min(i, len(_FORM_WEIGHTS) - 1)]
            forms.append(form)
            cum.append(total)
    # function words take STOP_RATE of the running text
    content_total = total
    for word, weight in STOPWORDS.items():
        total += content_total * STOP_RATE / (1 - STOP_RATE) * weight / _STOP_TOTAL
        forms.append(word)
        cum.append(total)

    # numpy draws every token's form and decoration at once; the per-document
    # loop only assembles text
    draws = np.random.default_rng(seed)
    lengths = draws.integers(WORDS_PER_DOC[0], WORDS_PER_DOC[1] + 1, size=num_docs)
    count = int(lengths.sum())
    picks = np.searchsorted(np.array(cum), draws.random(count) * total, side="right")
    styles = np.searchsorted(np.array(_DECORATION_CUM), draws.random(count) * _DECORATION_CUM[-1],
                             side="right")
    dated = draws.random(num_docs) < 0.3
    years = draws.integers(1950, 2021, size=num_docs)
    pieces = [_DECORATIONS[style](forms[pick])
              for pick, style in zip(picks.tolist(), styles.tolist())]

    out: list[str] = []
    pos = 0
    for d, length in enumerate(lengths.tolist()):
        words = pieces[pos:pos + length]
        pos += length
        words[0] = words[0].capitalize()
        if dated[d]:
            words.append(str(years[d]))
        body = " ".join(words).replace("- ", "-")
        out.append(
            f"<DOC>\n<DOCNO> FT{seed % 1000:03d}-{d:06d} </DOCNO>\n"
            f"<TEXT>\n{body}\n</TEXT>\n</DOC>\n"
        )
    num_tokens = count + int(dated.sum())
    path.write_text("".join(out), "utf-8")
    return Collection(path, num_docs, num_tokens, num_stems)
