"""Light Krovetz-style stemmer.

The full Krovetz algorithm leans on a head-word dictionary; this is the usual
dictionary-light approximation: a rule cascade over plural, past-tense,
gerund, and -ion endings with consonant undoubling and silent-e recoding,
backed by a small exception lexicon for common irregular forms.  The cascade
is re-applied until it reaches a fixed point, so stemming is idempotent.
"""

from __future__ import annotations

_VOWELS = set("aeiou")

# Final consonants that undouble after suffix removal (stopped -> stop).
# ll/ss/zz stay doubled (call, press, buzz).
_UNDOUBLE = set("bdfgkmnprt")

# A stem ending in one of these lost a silent e to the suffix
# (lov-ed -> love, produc-ing -> produce, organiz-ed -> organize).
_RESTORE_E = set("vczu")

# Irregular or rule-resistant forms.  Values must themselves be fixed points
# of stem(); the test suite checks this.
_EXCEPTIONS = {
    # irregular plurals
    "children": "child", "men": "man", "women": "woman", "feet": "foot",
    "teeth": "tooth", "geese": "goose", "mice": "mouse", "lice": "louse",
    "oxen": "ox", "indices": "index", "matrices": "matrix",
    "appendices": "appendix", "analyses": "analysis", "crises": "crisis",
    "theses": "thesis", "hypotheses": "hypothesis", "diagnoses": "diagnosis",
    "emphases": "emphasis", "parentheses": "parenthesis",
    "syntheses": "synthesis", "oases": "oasis", "wives": "wife",
    "knives": "knife", "shelves": "shelf", "wolves": "wolf",
    "thieves": "thief", "loaves": "loaf", "calves": "calf", "elves": "elf",
    # words that end in s but are not plurals
    "news": "news", "series": "series", "species": "species",
    "physics": "physics", "mathematics": "mathematics",
    "economics": "economics", "politics": "politics",
    "athletics": "athletics", "bias": "bias", "atlas": "atlas",
    "canvas": "canvas", "lens": "lens", "chaos": "chaos", "cosmos": "cosmos",
    "christmas": "christmas", "movies": "movie", "cookies": "cookie",
    "shoes": "shoe", "buses": "bus", "gases": "gas",
    # -eed words that are not past tenses of -ee verbs
    "bleed": "bleed", "breed": "breed", "creed": "creed", "greed": "greed",
    "speed": "speed", "steed": "steed", "tweed": "tweed", "exceed": "exceed",
    "proceed": "proceed", "succeed": "succeed", "indeed": "indeed",
    # -eat- family, shielded from the -ated/-ating recoding rule
    "eating": "eat", "heated": "heat", "heating": "heat", "seated": "seat",
    "seating": "seat", "beating": "beat", "treated": "treat",
    "treating": "treat", "retreated": "retreat", "retreating": "retreat",
    "repeated": "repeat", "repeating": "repeat", "cheated": "cheat",
    "cheating": "cheat", "defeated": "defeat", "defeating": "defeat",
    # silent-e restorations the rules cannot see
    "hoped": "hope", "hoping": "hope", "used": "use", "using": "use",
    "based": "base", "basing": "base", "caused": "cause", "causing": "cause",
    "closed": "close", "closing": "close", "raised": "raise",
    "raising": "raise", "praised": "praise", "chased": "chase",
    "purchased": "purchase", "increased": "increase",
    "increasing": "increase", "decreased": "decrease",
    "decreasing": "decrease", "released": "release", "releasing": "release",
    "pleased": "please", "pleasing": "please", "ceased": "cease",
    "leased": "lease", "stored": "store", "storing": "store",
    "scored": "score", "scoring": "score", "shared": "share",
    "sharing": "share", "cared": "care", "caring": "care",
    "compared": "compare", "comparing": "compare", "prepared": "prepare",
    "preparing": "prepare", "declared": "declare", "squared": "square",
    "stared": "stare", "spared": "spare", "required": "require",
    "requiring": "require", "acquired": "acquire", "inspired": "inspire",
    "desired": "desire", "retired": "retire", "admired": "admire",
    "expired": "expire", "hired": "hire", "hiring": "hire", "fired": "fire",
    "firing": "fire", "wired": "wire", "tired": "tire",
    "measured": "measure", "measuring": "measure", "featured": "feature",
    "featuring": "feature", "captured": "capture", "capturing": "capture",
    "secured": "secure", "assured": "assure", "ensured": "ensure",
    "insured": "insure", "injured": "injure", "endured": "endure",
    "cured": "cure", "matured": "mature", "structured": "structure",
    "configured": "configure", "figured": "figure", "figuring": "figure",
    "exploring": "explore", "explored": "explore", "restoring": "restore",
    "restored": "restore", "ignored": "ignore", "ignoring": "ignore",
    "defined": "define", "defining": "define", "combined": "combine",
    "combining": "combine", "determined": "determine",
    "examined": "examine", "imagined": "imagine", "declined": "decline",
    "refined": "refine", "confined": "confine", "outlined": "outline",
    "underlined": "underline", "lined": "line", "lining": "line",
    "mining": "mine", "mined": "mine", "dining": "dine", "shining": "shine",
    "named": "name", "naming": "name", "blamed": "blame", "framed": "frame",
    "shamed": "shame", "united": "unite", "uniting": "unite",
    "invited": "invite", "inviting": "invite", "cited": "cite",
    "citing": "cite", "excited": "excite", "exciting": "excite",
    "ignited": "ignite", "noted": "note", "noting": "note", "voted": "vote",
    "voting": "vote", "quoted": "quote", "quoting": "quote",
    "devoted": "devote", "promoted": "promote", "promoting": "promote",
    "denoted": "denote", "completed": "complete", "completing": "complete",
    "competed": "compete", "competing": "compete", "deleted": "delete",
    "deleting": "delete", "depleted": "deplete", "computed": "compute",
    "computing": "compute", "executed": "execute", "executing": "execute",
    "distributed": "distribute", "contributed": "contribute",
    "attributed": "attribute", "disputed": "dispute", "diluted": "dilute",
    "polluted": "pollute", "muted": "mute", "commuted": "commute",
    "making": "make", "taking": "take", "coming": "come",
    "writing": "write", "riding": "ride", "rising": "rise",
    "losing": "lose", "choosing": "choose", "hiding": "hide",
    "sliding": "slide", "guided": "guide", "guiding": "guide",
    "sided": "side", "biting": "bite", "smiling": "smile",
    "smiled": "smile", "filed": "file", "filing": "file", "piled": "pile",
    "compiled": "compile", "compiling": "compile", "styled": "style",
    "cycled": "cycle", "cycling": "cycle", "recycled": "recycle",
    "settled": "settle", "handled": "handle", "titled": "title",
    "entitled": "entitle", "enabled": "enable", "disabled": "disable",
    "assembled": "assemble", "troubled": "trouble", "sampled": "sample",
    "coupled": "couple", "scheduled": "schedule", "ruled": "rule",
    "ruling": "rule", "scaled": "scale", "scaling": "scale",
    "assumed": "assume", "assuming": "assume", "consumed": "consume",
    "consuming": "consume", "resumed": "resume", "presumed": "presume",
    "welcomed": "welcome", "timed": "time", "shaped": "shape",
    "shaping": "shape", "escaped": "escape", "taped": "tape",
    "typed": "type", "typing": "type", "wiped": "wipe", "sloped": "slope",
    "scoped": "scope", "piped": "pipe", "liked": "like", "liking": "like",
    "smoked": "smoke", "smoking": "smoke", "baked": "bake",
    "baking": "bake", "sensed": "sense", "licensed": "license",
    "posed": "pose", "posing": "pose", "supposed": "suppose",
    "proposed": "propose", "proposing": "propose", "imposed": "impose",
    "exposed": "expose", "composed": "compose", "opposed": "oppose",
    "advised": "advise", "advising": "advise", "revised": "revise",
    "surprised": "surprise", "exercised": "exercise",
    "promised": "promise", "paused": "pause",
    "described": "describe", "describing": "describe",
    "subscribed": "subscribe", "prescribed": "prescribe",
    "probed": "probe", "dying": "die", "lying": "lie", "tying": "tie",
    "died": "die", "lied": "lie", "going": "go", "goes": "go",
    # nouns that merely end in -ing
    "morning": "morning", "evening": "evening", "ceiling": "ceiling",
}


def _recode(stem: str) -> str:
    """Undouble a doubled final consonant or restore a silent e."""
    if len(stem) >= 4 and stem[-1] == stem[-2] and stem[-1] in _UNDOUBLE:
        return stem[:-1]
    if stem and stem[-1] in _RESTORE_E:
        return stem + "e"
    return stem


def _plural(word: str) -> str:
    if (
        len(word) < 4
        or not word.endswith("s")
        or word.endswith(("ss", "us", "is"))
    ):
        return word
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith(("xes", "ches", "shes", "sses", "zes", "oes")):
        return word[:-2]
    # generic: drop the final s (makes -> make, dogs -> dog)
    return word[:-1]


def _past(word: str) -> str:
    if len(word) < 5 or not word.endswith("ed"):
        return word
    if word.endswith("ied"):
        return word[:-3] + "y"
    if word.endswith("eed"):
        return word[:-1]
    if word.endswith("ated"):
        return word[:-4] + "ate"
    return _recode(word[:-2])


def _gerund(word: str) -> str:
    if len(word) < 6 or not word.endswith("ing"):
        return word
    stem = word[:-3]
    if len(stem) < 3 or not any(ch in _VOWELS for ch in stem):
        return word
    if word.endswith("ating"):
        return word[:-5] + "ate"
    return _recode(stem)


def _ion(word: str) -> str:
    if word.endswith("ization") and len(word) > 9:
        return word[:-7] + "ize"
    if word.endswith("ification") and len(word) > 11:
        return word[:-7] + "y"
    return word


def _one_pass(word: str) -> str:
    word = _plural(word)
    word = _past(word)
    word = _gerund(word)
    word = _ion(word)
    return word


# _plural needs a final s, _past -ed, _gerund -ing and _ion -n: a pass leaves
# any other word as it is
_PASS_ENDINGS = frozenset("sdgn")


def stem(word: str) -> str:
    """Stem one lowercase token to its fixed point; deterministic and idempotent."""
    # each changing pass shortens the word, so this terminates
    while word not in _EXCEPTIONS and word[-1:] in _PASS_ENDINGS and (output := _one_pass(word)) != word:
        word = output
    return _EXCEPTIONS.get(word, word)
