"""Seeded input generator for the scholarkg benchmark.

Everything here is a pure function of the seed and uses only the
standard library, so the program under test sees nothing but the files
written by :func:`write_workload`. The same seed gives byte-identical
files.

Text is made of pseudo-words drawn from a Zipf distribution, so a few
words occur in most paragraphs and most words are rare. Three disjoint
alphabets keep the question design exact:

* vocabulary words use the consonants ``bdfgklmnprstvz`` only;
* planted verbs start with ``j`` and occur only in the sentences planted
  for depth-0 questions;
* absent words start with ``q`` or ``x`` and occur nowhere, so a
  pattern naming one never matches.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, count
from pathlib import Path

VOCABULARY_SIZE = 3000
ZIPF_EXPONENT = 1.1
ZIPF_OFFSET = 1.0
SENTENCES_PER_PARAGRAPH = 8
SENTENCE_WORDS = (11, 19)      # ~120 tokens per paragraph
MAX_TOKENS = 100               # the CLI's default baseline chunk size
OVERLAP_RATIO = 0.05

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# Stems of the segmenter's abbreviations ("tab.", "sec.", ...): a word
# ending in one would hide a sentence boundary.
_BAD_SUFFIXES = ("tab", "sec", "vol", "fig", "figs", "eqs", "no", "etc")

DATA_NS = "https://www.anu.edu.au/onto/scholarly/"
PREFIXES = (
    ("askg-data", DATA_NS),
    ("askg-onto", "https://www.anu.edu.au/onto/scholarly#"),
    ("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"),
    ("rdfs", "http://www.w3.org/2000/01/rdf-schema#"),
    ("xsd", "http://www.w3.org/2001/XMLSchema#"),
)

# Workload sizes.
INGEST_PAPERS = 96            # more than most runs reach in one pass
INGEST_PARAGRAPHS = (10, 80)
INGEST_MAX_EXCERPTS = 5        # per paragraph
QA_PAPERS, QA_PARAGRAPHS = 10, 20          # 200 paragraphs
CLI_PAPERS, CLI_PARAGRAPHS = 25, 20        # 500 paragraphs
GRAPH_EXCERPTS = 3                         # per paragraph of a corpus graph

# One block of questions holds the class mix; a run walks the blocks in
# order and always ends on a whole block, so every run has this mix.
# A d2 question costs about ten d1 questions. With one d2 per 32 ops a
# run holds fewer than ten of them, so the tail stays inside d1 instead
# of jumping between classes as the op count changes.
QA_BLOCK = ("d2",) + ("d1", "d0", "d1", "ex", "d1") * 6 + ("d1",)
QA_BLOCKS = 4
CLI_BLOCK = ("d0", "d0", "d1", "d0", "d0", "d0", "d0", "ex", "d0", "d0")
CLI_BLOCKS = 4
DESIGNED_DEPTH = {"d0": 0, "d1": 1, "d2": 2, "ex": 3}   # 3 = exhausted
# Zipf ranks of the subject and object of the relaxed (d1, d2) clauses.
# How broad a relaxed match is, and so how many triples rank_candidates
# scores, depends on these ranks; the k-th relaxed clause of every seed
# takes the same pair, so every seed has the same breadth profile. On
# qa-warm the matches are broad (about 5-15 % of paragraphs); on
# cli-compare they are narrow, so qa.engine stays a small share there.
QA_RANKS = ((5, 6, 7, 8), (90, 110, 130, 150))
CLI_RANKS = ((20, 25, 30, 35), (300, 350, 400, 450))
# Ranks of the words of depth-0 questions (subject, object) and of the
# subject of exhausted ones, taken in turn.
EXACT_RANKS = ((5, 10, 20, 40), (60, 120, 240, 480))
EXHAUSTED_RANKS = (20, 40, 80, 160)


def _hash(text: str, size: int = 7) -> str:
    return hashlib.blake2s(text.encode("utf-8"), digest_size=size).hexdigest()


def _syllables(rng: random.Random, first: str, count: int) -> str:
    out = first
    for _ in range(count):
        out += rng.choice(_VOWELS) + rng.choice(_CONSONANTS)
    return out


class Words:
    """The seeded vocabulary plus planted and absent word streams."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        seen: set[str] = set()
        words: list[str] = []
        while len(words) < VOCABULARY_SIZE:
            # Word length follows the rank, so text sizes match across seeds.
            word = _syllables(rng, rng.choice(_CONSONANTS), 3 if len(words) % 3 == 2 else 2)
            if word in seen or word.endswith(_BAD_SUFFIXES):
                continue
            seen.add(word)
            words.append(word)
        self.vocabulary = words
        self._cum = list(accumulate(
            1.0 / (rank + ZIPF_OFFSET) ** ZIPF_EXPONENT for rank in range(len(words))))
        self._fresh: set[str] = set()

    def draw(self, k: int) -> list[str]:
        return self.rng.choices(self.vocabulary, cum_weights=self._cum, k=k)

    def fresh(self, first: str) -> str:
        while True:
            word = _syllables(self.rng, first, 2)
            if word not in self._fresh:
                self._fresh.add(word)
                return word

    def sentence(self) -> str:
        tokens = self.draw(self.rng.randint(*SENTENCE_WORDS))
        return " ".join([tokens[0].capitalize(), *tokens[1:]]) + "."

    def heading(self) -> str:
        return " ".join(w.capitalize() for w in self.draw(2))


@dataclass
class Paper:
    """A generated paper: headings over paragraphs of sentences."""

    key: str
    sections: list[tuple[str, list[list[str]]]]   # (heading, paragraphs)
    excerpts: list[dict] = field(default_factory=list)

    def paragraphs(self) -> list[tuple[str, list[str]]]:
        return [(h, p) for h, paras in self.sections for p in paras]

    def plain_text(self) -> tuple[str, list[dict]]:
        """Text with heading lines, and the outline that indexes it."""
        text, outline = "", []
        for level_index, (heading, paras) in enumerate(self.sections):
            outline.append({"level": 1 if level_index % 3 == 0 else 2,
                            "heading": heading, "offset": len(text)})
            text += heading + "\n\n"
            text += "".join(" ".join(p) + "\n\n" for p in paras)
        return text, outline

    def chunked_xml(self) -> str:
        """One leaf section per paragraph, grouped under top-level sections,
        since the format has no paragraph element."""
        lines = ["<section>", f"<heading>{self.key}</heading>"]
        for s_index, (heading, paras) in enumerate(self.sections, start=1):
            lines += [f'<section ID="{s_index}">', f"<heading>{heading}</heading>"]
            for p_index, sentences in enumerate(paras, start=1):
                lines += [f'<section ID="{s_index}.{p_index}">',
                          f"<heading>{heading} {p_index}</heading>"]
                for n, sentence in enumerate(sentences):
                    ref = f"<reference>{n + 1}</reference>" if n % 4 == 3 else ""
                    lines.append(f"<sentence>{sentence}{ref}</sentence>")
                lines.append("</section>")
            lines.append("</section>")
        lines.append("</section>")
        return "\n".join(lines) + "\n"

    def excerpts_jsonl(self) -> str:
        return "".join(json.dumps(e, sort_keys=True) + "\n" for e in self.excerpts)


def _paper(words: Words, key: str, n_paragraphs: int, per_section: int) -> Paper:
    sections = []
    remaining = n_paragraphs
    while remaining:
        take = min(per_section, remaining)
        sections.append((words.heading(), [
            [words.sentence() for _ in range(SENTENCES_PER_PARAGRAPH)]
            for _ in range(take)]))
        remaining -= take
    return Paper(key=key, sections=sections)


def _add_excerpts(words: Words, paper: Paper, counts: list[int]) -> None:
    for index, ((heading, sentences), count) in enumerate(zip(paper.paragraphs(), counts)):
        offsets = list(accumulate([0] + [len(s.split()) for s in sentences]))
        for k in range(count):
            s_index = words.rng.randrange(len(sentences))
            tokens = sentences[s_index].split()
            w_index = words.rng.randrange(len(tokens))
            start = offsets[s_index] + w_index
            paper.excerpts.append({
                "excerpt_id": "Excerpt-" + _hash(f"{paper.key}/{index}/{k}"),
                "label": f"Paper-[''] | Section-['{heading}'] | "
                         f"Excerpt-[{start}]-[{start + 1}]",
                "in_sentence": sentences[s_index],
                "mentions": tokens[w_index].strip(".").lower(),
                "word_index_from": start,
                "word_index_to": start + 1,
            })


# ---------------------------------------------------------------------------
# ingest-corpus
# ---------------------------------------------------------------------------

PATHS = ("outline", "xml", "outline+link", "xml+link")


def ingest_papers(seed: int) -> list[dict]:
    """Papers of 10-80 paragraphs with 0-5 excerpts per paragraph.

    The shape of the pool is the same for every seed, so that seeds
    differ in text, not in work: paper ``i`` of ``INGEST_PAPERS`` takes
    the middle of stratum ``i`` of the paragraph range, its paragraphs
    take 0-5 excerpts in equal shares (shuffled by the seed), and its
    input path rotates so that each group of four consecutive strata
    takes each path once and no path always gets the largest paper of a
    group. Link work (paragraphs x excerpts) is about 2.5 x paragraphs
    squared.
    """
    rng = random.Random(f"ingest/{seed}")
    words = Words(rng)
    low, high = INGEST_PARAGRAPHS
    n = INGEST_PAPERS
    papers = []
    for i in range(n):
        n_paragraphs = round(low + (high - low) * (i + 0.5) / n)
        paper = _paper(words, f"paper{i:02d}", n_paragraphs, 3 + i % 4)
        counts = [k % (INGEST_MAX_EXCERPTS + 1) for k in range(n_paragraphs)]
        rng.shuffle(counts)
        _add_excerpts(words, paper, counts)
        papers.append({"paper": paper, "paragraphs": n_paragraphs,
                       "excerpts": len(paper.excerpts),
                       "path": PATHS[(i + i // len(PATHS)) % len(PATHS)]})
    return _spread_order(papers, key=lambda it: it["paragraphs"] * it["excerpts"])


def _spread_order(items: list, key) -> list:
    """Order items so that every prefix samples the range of ``key``
    evenly: sort by key, then visit the sorted positions in van der
    Corput order (0, 1/2, 1/4, 3/4, 1/8, ...). A run that stops part-way
    through the sequence still sees light and heavy items in proportion."""
    ordered = sorted(items, key=key)
    n, out, used = len(ordered), [], set()
    i = 0
    while len(out) < n:
        fraction, denominator, k = 0.0, 1.0, i
        while k:
            denominator *= 2
            k, bit = divmod(k, 2)
            fraction += bit / denominator
        position = int(fraction * n)
        if position not in used:
            used.add(position)
            out.append(ordered[position])
        i += 1
    return out


# ---------------------------------------------------------------------------
# Corpus graphs and questions (qa-warm, cli-compare)
# ---------------------------------------------------------------------------

@dataclass
class Question:
    kind: str              # d0 | d1 | d2 | ex
    text: str

    @property
    def depth(self) -> int:
        return DESIGNED_DEPTH[self.kind]


class _Slots:
    """Sentence positions of a corpus, handed out at most once each, so a
    planted sentence never overwrites another."""

    def __init__(self, rng: random.Random, paragraphs: list[list[str]]):
        self.paragraphs = paragraphs
        self.free = [(p, s) for p, para in enumerate(paragraphs) for s in range(len(para))]
        rng.shuffle(self.free)

    def plant(self, sentence: str) -> None:
        p, s = self.free.pop()
        self.paragraphs[p][s] = sentence


def _ranked_pair(words: Words, ranks, k: int) -> tuple[str, str]:
    """The k-th (subject, object) pair of a rank table: every pairing of
    the subject ranks with the object ranks, in turn."""
    subjects, objects = ranks
    return (words.vocabulary[subjects[k % len(subjects)]],
            words.vocabulary[objects[k // len(subjects) % len(objects)]])


def _question(words: Words, kind: str, slots: _Slots, ranks, index) -> Question:
    """Build one question of ``kind`` against the stub gateway's clause rules.

    "Which S is V in O?" extracts to the pattern (s, "is V in", o); a
    paragraph or excerpt matches it when its text holds each phrase.

    * d0: V is a planted verb and "S is V in O." is planted in a
      paragraph, so the exact query matches.
    * d1: V is absent, so only the relaxation (s, ?, o) can match; a
      sentence naming S and O is planted.
    * d2: two such clauses; every depth-1 relaxation keeps one absent
      verb, so the first match is at depth 2.
    * ex: V and O are absent: nothing matches within the budget, but S
      is a corpus word, so context selection still finds paragraphs.
    """
    k = next(index[kind])
    if kind == "d0":
        s, o = _ranked_pair(words, EXACT_RANKS, k)
        v = words.fresh("j")
        slots.plant(f"{s.capitalize()} is {v} in {o}.")
        return Question(kind, f"Which {s} is {v} in {o}?")
    if kind == "ex":
        s = words.vocabulary[EXHAUSTED_RANKS[k % len(EXHAUSTED_RANKS)]]
        slots.plant(f"{s.capitalize()} {' '.join(words.draw(4))}.")
        return Question(kind, f"Which {s} is {words.fresh('q')} in {words.fresh('x')}?")
    clauses = []
    for _ in range(1 if kind == "d1" else 2):
        s, o = _ranked_pair(words, ranks, next(index["clause"]))
        slots.plant(f"{s.capitalize()} {' '.join(words.draw(3))} {o}.")
        clauses.append(f"which {s} is {words.fresh('q')} in {o}")
    text = "; ".join(clauses)
    return Question(kind, text[0].upper() + text[1:] + "?")


@dataclass
class Corpus:
    papers: list[Paper]
    questions: list[Question]


def corpus(seed: int, name: str, n_papers: int, per_paper: int,
           block: tuple[str, ...], blocks: int, ranks) -> Corpus:
    rng = random.Random(f"{name}/{seed}")
    words = Words(rng)
    papers = [_paper(words, f"{name}{i:02d}", per_paper, rng.randint(3, 6))
              for i in range(n_papers)]
    slots = _Slots(rng, [p for paper in papers for _, paras in paper.sections for p in paras])
    index = defaultdict(count)
    questions = [_question(words, kind, slots, ranks, index)
                 for _ in range(blocks) for kind in block]
    for paper in papers:
        _add_excerpts(words, paper, [GRAPH_EXCERPTS] * len(paper.paragraphs()))
    return Corpus(papers, questions)


def _literal(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def corpus_turtle(c: Corpus) -> tuple[str, list[str]]:
    """The corpus as a Turtle graph of paragraph and excerpt nodes (the
    shapes ``ingest`` emits), and the paragraph IRIs."""
    lines = [f"@prefix {p}: <{ns}> ." for p, ns in PREFIXES] + [""]
    iris = []
    for paper in c.papers:
        doc_id = _hash(paper.plain_text()[0])
        excerpts = iter(paper.excerpts)
        for _, sentences in paper.paragraphs():
            node = f"{DATA_NS}Paper-{doc_id}-Paragraph-{_hash(' '.join(sentences), 16)}"
            iris.append(node)
            mine = [next(excerpts) for _ in range(GRAPH_EXCERPTS)]
            lines += [f"<{node}> a askg-onto:Paragraph ;",
                      f"    rdfs:label {_literal(' '.join(sentences))}@en ;",
                      "    askg-onto:hasExcerpt " + ", ".join(
                          f"askg-data:{e['excerpt_id']}" for e in mine) + " .", ""]
            for e in mine:
                lines += [
                    f"askg-data:{e['excerpt_id']} a askg-onto:Excerpt ;",
                    f"    rdfs:label {_literal(e['label'])}@en ;",
                    f"    askg-onto:inSentence {_literal(e['in_sentence'])}^^xsd:string ;",
                    f"    askg-onto:mentions askg-data:AcademicEntity-{e['mentions']} ;",
                    f'    askg-onto:wordIndexFrom "{e["word_index_from"]}"^^xsd:int ;',
                    f'    askg-onto:wordIndexTo "{e["word_index_to"]}"^^xsd:int .', ""]
    return "\n".join(lines), iris


def chunk_count(n_tokens: int) -> int:
    """Windows the baseline cuts from a document of ``n_tokens`` tokens."""
    stride = MAX_TOKENS - round(OVERLAP_RATIO * MAX_TOKENS)
    starts = 1
    start = 0
    while start + MAX_TOKENS < n_tokens:
        start += stride
        starts += 1
    return starts if n_tokens else 0


# ---------------------------------------------------------------------------
# Writing a workload's inputs
# ---------------------------------------------------------------------------

WORKLOADS = ("ingest-corpus", "qa-warm", "cli-compare")


def write_workload(workload: str, seed: int, root: Path) -> dict:
    """Write the inputs of ``workload`` under ``root`` and return the
    manifest: the ops in run order with what each must produce."""
    root.mkdir(parents=True, exist_ok=True)

    def put(name: str, text: str) -> str:
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, "utf-8")
        return str(path)

    if workload == "ingest-corpus":
        ops = []
        for item in ingest_papers(seed):
            paper = item["paper"]
            op = {"path": item["path"], "paragraphs": item["paragraphs"],
                  "excerpts": item["excerpts"],
                  "excerpt_file": put(f"{paper.key}.jsonl", paper.excerpts_jsonl())}
            if item["path"].startswith("xml"):
                op["xml"] = put(f"{paper.key}.xml", paper.chunked_xml())
            else:
                text, outline = paper.plain_text()
                op["text"] = put(f"{paper.key}.txt", text)
                op["outline"] = put(f"{paper.key}.json", json.dumps(outline, indent=1))
            ops.append(op)
        return {"workload": workload, "seed": seed, "block": 1, "ops": ops}

    if workload == "qa-warm":
        block = QA_BLOCK
        c = corpus(seed, "qa", QA_PAPERS, QA_PARAGRAPHS, QA_BLOCK, QA_BLOCKS, QA_RANKS)
    elif workload == "cli-compare":
        block = CLI_BLOCK
        c = corpus(seed, "cli", CLI_PAPERS, CLI_PARAGRAPHS, CLI_BLOCK, CLI_BLOCKS,
                   CLI_RANKS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    turtle, iris = corpus_turtle(c)
    manifest = {"workload": workload, "seed": seed, "block": len(block),
                "graph": put("graph.ttl", turtle),
                "paragraphs": iris,
                "ops": [{"question": q.text, "kind": q.kind, "depth": q.depth}
                        for q in c.questions]}
    if workload == "cli-compare":
        chunks = 0
        for paper in c.papers:
            text = "\n\n".join(" ".join(s) for _, s in paper.paragraphs()) + "\n"
            put(f"corpus/{paper.key}.txt", text)
            chunks += chunk_count(len(text.split()))
        manifest["corpus"] = str(root / "corpus")
        manifest["chunks"] = chunks
    return manifest
