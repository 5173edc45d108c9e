"""Seeded synthetic corpus generator for the socmine benchmark.

Stdlib only and deterministic in its seed: the same seed gives byte-identical
JSONL. The word and tag vocabularies are fixed; the seed only drives the
draws, so corpora of one size differ in content but not in statistical shape.

Every text token is drawn from one of five classes at a fixed rate:

    stopword   26%  Zipf over the bundled Polish stopwords (minus pronouns)
    pronoun     3%  the six bundled pronoun-group surfaces, weighted 3:3:2:1:1:1
    taxonomy   12%  Zipf over inflections of the bundled taxonomy stems
    lexicon     4%  Zipf over inflections of the bundled sentiment lexicon stems
    filler     55%  Zipf over ~12k inflected Polish-looking surfaces

8% of tokens are Capitalized and 2% UPPERCASED; surfaces carry Polish
diacritics. Filler never collides with a stem, stopword or pronoun, so the
planted pronoun counts are exact. Some tweets also carry an @mention, an
inline #tag or a URL, which the tokenizer splits like any other text.

Tags are Zipf-distributed over a fixed pool of lowercase [a-z0-9] names
(5% are written with a leading '#', which ingest strips). Timestamps span
2013-05-01..2013-06-30, three quarters uniform and one quarter in a burst
around 2013-05-24; they are written as ISO-8601 with 'Z' or '+02:00', or as
epoch seconds.

Word lists are copied here rather than read from socmine's data files, so a
change to the bundled data does not change the benchmark's inputs.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import accumulate
from pathlib import Path

UTC = timezone.utc
SPAN_START = datetime(2013, 5, 1, tzinfo=UTC)
SPAN_DAYS = 61
BURST_DAY = 23
BURST_SHARE = 0.25
CEST = timezone(timedelta(hours=2))

TOKEN_CLASSES = ("stopword", "pronoun", "taxonomy", "lexicon", "filler")
TOKEN_RATES = (0.26, 0.03, 0.12, 0.04, 0.55)
CAPITALIZED_RATE = 0.08
UPPER_RATE = 0.02
HASH_PREFIX_RATE = 0.05

PRONOUNS = ("im", "oni", "nich", "nam", "nas", "my")
PRONOUN_WEIGHTS = (3, 3, 2, 1, 1, 1)

STOPWORDS = tuple(
    """
    a aby albo ale ani aż bardzo bez bo bowiem by być był była było były byli będzie
    będą chce choć co coś czy czyli dla do gdy gdyby gdyż gdzie go i ich ile inne
    innych iż ja jak jako je jego jej jednak jednym jedynie jest jeszcze jeśli jeżeli
    już ją kiedy kilku kto która które którego której który których którym którzy
    lecz lub ma mają mamy mi mimo mnie mogą może można mu musi na nad nawet niej nim
    niż no np nr o od ok on one ono oraz po pod ponad ponieważ poza przed przede
    przez przy raz razie również się sobie swoje są ta tak takich takie także tam te
    tego tej temu ten teraz też to trzeba tu tych tylko tym u w we więc wśród z za
    zaś ze że żeby
    """.split()
)

TAXONOMY_PREFIX_STEMS = tuple(
    """
    work employ hardwork rich money tax unemploy social help poor famil islam religi
    educat school learn languag apartment resident district govern debat politi
    democra invit acclimat multikult multicult hope toleran asylum arriv racis
    eugenic segregat deport hate nation stockholm societ immigr arab origin swede
    swedish europ nobil polic militar kill wound induc bullet weapon shoot shot
    knife knive disarm cutthroat throw riot night street violen stone rebel youth
    protest vulnerab fire vandal aggress problem
    """.split()
)
TAXONOMY_EXACT = (
    "party", "parties", "get", "hatred", "cop", "cops", "law", "laws", "car", "cars",
    "war", "wars", "media",
)
TAXONOMY_SUFFIXES = ("", "s", "ed", "ing", "er", "ers", "al", "ation", "ly", "ów", "ami")

LEXICON_FORMS = {
    "dobr": ("y", "a", "e", "ze", "ego", "ej", "ych", "zy"),
    "wspania": ("ły", "ła", "łe", "le", "łego", "łych"),
    "fatal": ("ny", "na", "ne", "nie", "nego", "nych"),
    "granatnik": ("", "a", "i", "iem", "ów"),
}
LEXICON_EXACT = ("mordować",)

_ONSETS = (
    "b", "c", "ch", "cz", "d", "dz", "f", "g", "j", "k", "l", "ł", "m", "n", "p",
    "r", "rz", "s", "sz", "t", "w", "z", "ż", "ź", "ś", "ć", "kr", "pr", "st", "br",
)
_VOWELS = ("a", "e", "i", "o", "u", "y", "ą", "ę", "ó", "ie", "ia")
_ENDINGS = ("", "a", "y", "ie", "ów", "ami", "ach", "em", "ą", "om")
_TAG_ONSETS = ("b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "sk", "st")
_TAG_VOWELS = ("a", "e", "i", "o", "u", "y")
TAG_HEAD = (
    "svpol", "sthlmriots", "migpol", "husby", "polisen", "stockholm", "rinkeby",
    "aftonbladet", "nymo", "vpol", "upplopp", "kista", "svtdebatt", "debatt",
    "08pol", "expressentv", "megafonen", "kravaller", "tensta", "sweden",
)

# Fixed seed for the vocabularies; the corpus seed only drives the draws.
_VOCAB_SEED = 20130520
FILLER_LEMMAS = 2600
TAG_POOL = 6000


@dataclass(frozen=True)
class DocKind:
    """A class of documents: how many, their length range and tag-count mix."""

    prefix: str
    source: str
    count: int
    words: tuple[int, int]
    tag_weights: tuple[int, ...]  # weight of carrying k distinct tags, k = 0, 1, ...
    extras: bool = True  # @mentions, inline #tags and URLs


@dataclass(frozen=True)
class CorpusSpec:
    kinds: tuple[DocKind, ...]
    tag_pool: int

    @property
    def docs(self) -> int:
        return sum(kind.count for kind in self.kinds)


def _zipf_cum(n: int, s: float) -> list[float]:
    return list(accumulate(1.0 / (rank ** s) for rank in range(1, n + 1)))


def _is_filler_safe(word: str, reserved: frozenset[str]) -> bool:
    if word in reserved or word.upper().lower() != word:
        return False
    return not word.startswith(TAXONOMY_PREFIX_STEMS + tuple(LEXICON_FORMS))


class Vocabulary:
    """The fixed word and tag pools every corpus draws from."""

    def __init__(self) -> None:
        rng = random.Random(_VOCAB_SEED)
        reserved = frozenset(STOPWORDS + PRONOUNS + TAXONOMY_EXACT + LEXICON_EXACT)
        lemmas: list[str] = []
        seen: set[str] = set()
        while len(lemmas) < FILLER_LEMMAS:
            syllables = rng.randint(2, 4)
            lemma = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
            if lemma not in seen:
                seen.add(lemma)
                lemmas.append(lemma)
        filler = [
            lemma + ending
            for lemma in lemmas
            for ending in rng.sample(_ENDINGS, rng.randint(2, 7))
        ]
        filler = [w for w in dict.fromkeys(filler) if _is_filler_safe(w, reserved)]
        rng.shuffle(filler)

        taxonomy = [stem + suffix for stem in TAXONOMY_PREFIX_STEMS for suffix in TAXONOMY_SUFFIXES]
        taxonomy = list(dict.fromkeys(taxonomy + list(TAXONOMY_EXACT)))
        rng.shuffle(taxonomy)
        lexicon = [stem + suffix for stem, suffixes in LEXICON_FORMS.items() for suffix in suffixes]
        lexicon = list(dict.fromkeys(lexicon + list(LEXICON_EXACT)))
        rng.shuffle(lexicon)

        tags = list(TAG_HEAD)
        tag_seen = set(tags) | set(PRONOUNS)
        while len(tags) < TAG_POOL:
            name = "".join(
                rng.choice(_TAG_ONSETS) + rng.choice(_TAG_VOWELS) for _ in range(rng.randint(2, 3))
            )
            if rng.random() < 0.2:
                name += str(rng.randint(0, 99))
            if name not in tag_seen:
                tag_seen.add(name)
                tags.append(name)

        self.pools = {
            "stopword": (STOPWORDS, _zipf_cum(len(STOPWORDS), 1.0)),
            "pronoun": (PRONOUNS, list(accumulate(PRONOUN_WEIGHTS))),
            "taxonomy": (tuple(taxonomy), _zipf_cum(len(taxonomy), 0.9)),
            "lexicon": (tuple(lexicon), _zipf_cum(len(lexicon), 0.8)),
            "filler": (tuple(filler), _zipf_cum(len(filler), 1.05)),
        }
        self.tags = tuple(tags)


def _draw(rng: random.Random, pool: tuple[tuple[str, ...], list[float]]) -> str:
    words, cum = pool
    return words[bisect(cum, rng.random() * cum[-1])]


def _cased(rng: random.Random, word: str) -> str:
    roll = rng.random()
    if roll < UPPER_RATE:
        return word.upper()
    if roll < UPPER_RATE + CAPITALIZED_RATE:
        return word[:1].upper() + word[1:]
    return word


def _timestamp(rng: random.Random) -> str | int:
    if rng.random() < BURST_SHARE:
        offset = (BURST_DAY + rng.gauss(0.0, 1.2)) * 86400
    else:
        offset = rng.random() * SPAN_DAYS * 86400
    offset = min(max(0, int(offset)), SPAN_DAYS * 86400 - 1)
    moment = SPAN_START + timedelta(seconds=offset)
    roll = rng.random()
    if roll < 0.08:
        return int(moment.timestamp())
    if roll < 0.20:
        return moment.astimezone(CEST).isoformat()
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def generate(spec: CorpusSpec, seed: int) -> tuple[list[dict], dict[str, int]]:
    """Return the corpus records and the planted pronoun counts for one seed."""
    vocab = Vocabulary()
    rng = random.Random(seed)
    class_cum = list(accumulate(TOKEN_RATES))
    tag_cum = _zipf_cum(min(spec.tag_pool, len(vocab.tags)), 1.1)
    tag_words = vocab.tags[: len(tag_cum)]
    planted = dict.fromkeys(PRONOUNS, 0)
    records: list[dict] = []
    for kind in spec.kinds:
        k_cum = list(accumulate(kind.tag_weights))
        for i in range(kind.count):
            n_words = rng.randint(*kind.words)
            words = []
            for _ in range(n_words):
                cls = TOKEN_CLASSES[bisect(class_cum, rng.random() * class_cum[-1])]
                word = _draw(rng, vocab.pools[cls])
                if cls == "pronoun":
                    planted[word] += 1
                words.append(_cased(rng, word))
            if words:
                words[0] = words[0][:1].upper() + words[0][1:]
            text = ""
            for j, word in enumerate(words):
                text += word
                roll = rng.random()
                if j == len(words) - 1:
                    text += "." if roll < 0.7 else "!"
                elif roll < 0.08:
                    text += ", "
                elif roll < 0.11:
                    text += ". "
                elif roll < 0.12:
                    text += " - "
                else:
                    text += " "

            n_tags = bisect(k_cum, rng.random() * k_cum[-1])
            tags: list[str] = []
            while len(tags) < n_tags:
                tag = tag_words[bisect(tag_cum, rng.random() * tag_cum[-1])]
                if tag not in tags:
                    tags.append(tag)

            if kind.extras:
                if rng.random() < 0.10:
                    text = f"@{_draw(rng, vocab.pools['filler'])}{rng.randint(1, 999)} " + text
                if tags and rng.random() < 0.30:
                    text += f" #{tags[0].upper() if rng.random() < 0.3 else tags[0]}"
                if rng.random() < 0.10:
                    slug = "".join(rng.choice("abcdefghijkmnpqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ23456789") for _ in range(8))
                    text += f" http://t.co/{slug}"

            record = {
                "id": f"{kind.prefix}{i:06d}",
                "ts": _timestamp(rng),
                "text": text,
                "tags": ["#" + t if rng.random() < HASH_PREFIX_RATE else t for t in tags],
                "source": kind.source,
            }
            roll = rng.random()
            if roll < 0.6:
                record["lang"] = "sv" if kind.source == "tweet" else "pl"
            elif roll < 0.9:
                record["lang"] = "pl"
            records.append(record)
    return records, planted


def corpus_bytes(records: list[dict]) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


def write_corpus(spec: CorpusSpec, seed: int, path: Path) -> dict[str, int]:
    """Write the seeded corpus as JSONL; return the planted pronoun counts."""
    records, planted = generate(spec, seed)
    path.write_bytes(corpus_bytes(records))
    return planted

