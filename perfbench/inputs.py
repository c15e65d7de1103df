"""Seeded input generation for the benchmark workloads.

Everything here depends only on the seed and the sizes; the program under
test receives the generated inputs and nothing else.  Nothing in this module
calls into flowtts.
"""

from __future__ import annotations

import numpy as np

VOCAB_SIZE = 64  # ModelConfig().vocab_size; token ids are drawn below it
D_PATCH = 16  # ModelConfig().d_patch

# Common Thai words; edits in hypotheses only touch their consonants.
THAI_WORDS = (
    "สวัสดี", "ประเทศ", "ไทย", "ภาษา", "คน", "บ้าน", "รถ", "น้ำ", "กิน", "ข้าว",
    "เมือง", "ตลาด", "โรงเรียน", "นักเรียน", "ครู", "หนังสือ", "อ่าน", "เขียน",
    "วันนี้", "พรุ่งนี้", "อากาศ", "ร้อน", "หนาว", "ฝน", "ทะเล", "ภูเขา", "แม่น้ำ",
    "ดอกไม้", "สวย", "ใหญ่", "เล็ก", "ดี", "มาก", "เร็ว", "ช้า", "ทำงาน", "บริษัท",
    "ราคา", "บาท", "ปี", "เดือน", "ชั่วโมง", "นาที", "เดินทาง", "ไป", "มา", "ที่",
    "และ", "ของ", "ใน", "กับ", "เพื่อน", "ครอบครัว", "อาหาร", "อร่อย", "ความสุข",
    "เพลง", "ฟัง", "ข่าว", "รัฐบาล", "ประชาชน", "เศรษฐกิจ", "เด็ก", "ต่าง",
)

# Latin tokens with their transliterations; every Latin token in a row has an
# entry, so normalization never warns about an unknown token.
LEXICON = {
    "computer": "คอมพิวเตอร์",
    "internet": "อินเทอร์เน็ต",
    "email": "อีเมล",
    "online": "ออนไลน์",
    "model": "โมเดล",
    "data": "ดาต้า",
    "server": "เซิร์ฟเวอร์",
    "video": "วิดีโอ",
}

THAI_CONSONANTS = tuple(chr(c) for c in range(0x0E01, 0x0E2F))
_CONSONANT_SET = frozenset(THAI_CONSONANTS)

MAI_YAMOK = "ๆ"


def prompt_tokens(rng: np.random.Generator, lo: int, hi: int) -> tuple[int, ...]:
    """A token prompt of lo..hi ids (inclusive) below VOCAB_SIZE."""
    n = int(rng.integers(lo, hi + 1))
    return tuple(int(t) for t in rng.integers(0, VOCAB_SIZE, size=n))


def reference_patches(rng: np.random.Generator, n: int) -> np.ndarray:
    """Voice-cloning context: n smooth sinusoidal latent patches.

    Shaped like the synthetic oracle's output (continuous waves across patch
    boundaries) so the reference looks like real latents, not white noise.
    """
    freq = rng.uniform(0.05, 0.95)
    phase = rng.uniform(0.0, 1.0)
    grid = np.arange(D_PATCH) / D_PATCH
    t = np.arange(n)[:, None] + phase + grid[None, :]
    return np.sin(2.0 * np.pi * freq * t).astype(np.float32)


def _edit_word(rng: np.random.Generator, word: str) -> str:
    positions = [i for i, c in enumerate(word) if c in _CONSONANT_SET]
    if not positions:
        return word
    i = positions[int(rng.integers(len(positions)))]
    kind = int(rng.integers(3))
    consonant = THAI_CONSONANTS[int(rng.integers(len(THAI_CONSONANTS)))]
    if kind == 0:
        return word[:i] + consonant + word[i + 1:]
    if kind == 1 and len(word) > 1:
        return word[:i] + word[i + 1:]
    return word[:i] + consonant + word[i:]


def cer_row(rng: np.random.Generator, n_tokens: int) -> tuple[str, str]:
    """One (reference, hypothesis) pair of raw Thai text.

    The reference mixes Thai words, digit runs, mai-yamok repetitions, Latin
    lexicon words and punctuation.  The hypothesis is the same token stream
    as an ASR system might emit it: a quarter of the Thai words carry one
    consonant substitution, deletion or insertion, and Latin words may come
    back already transliterated.
    """
    lexicon_keys = sorted(LEXICON)
    ref: list[str] = []
    hyp: list[str] = []
    for _ in range(n_tokens):
        u = rng.uniform()
        if u < 0.08:
            digits = str(int(rng.integers(1, 10 ** int(rng.integers(1, 7)))))
            ref.append(digits)
            hyp.append(digits)
        elif u < 0.14:
            key = lexicon_keys[int(rng.integers(len(lexicon_keys)))]
            ref.append(key.capitalize() if rng.uniform() < 0.5 else key)
            hyp.append(LEXICON[key] if rng.uniform() < 0.5 else key)
        else:
            word = THAI_WORDS[int(rng.integers(len(THAI_WORDS)))]
            ref.append(word)
            hyp.append(_edit_word(rng, word) if rng.uniform() < 0.25 else word)
            if rng.uniform() < 0.06:
                ref.append(MAI_YAMOK)
                hyp.append(MAI_YAMOK)
        if rng.uniform() < 0.05:
            mark = "," if rng.uniform() < 0.5 else "."
            ref[-1] += mark
            hyp[-1] += mark
    return " ".join(ref), " ".join(hyp)


def cer_tsv(rng: np.random.Generator, n_rows: int, n_tokens: int, prefix: str) -> list[str]:
    """Lines `id<TAB>reference<TAB>hypothesis` for the CLI's CER batch format."""
    return [f"{prefix}-{i}\t" + "\t".join(cer_row(rng, n_tokens)) for i in range(n_rows)]


def lexicon_tsv() -> list[str]:
    return ["# latin<TAB>thai"] + [f"{k}\t{v}" for k, v in sorted(LEXICON.items())]


def edit_distance(a: str, b: str) -> int:
    """Unit-cost edit distance, row by row with numpy.

    Written independently of flowtts.evaluation.levenshtein so the benchmark
    can check the CLI's CER: each row takes substitutions and deletions as a
    vector operation, then insertions as a running minimum of (cost - j).
    """
    b_codes = np.array([ord(c) for c in b], dtype=np.int64)
    j = np.arange(len(b) + 1)
    row = j.copy()
    for i, ca in enumerate(a, start=1):
        cur = np.empty_like(row)
        cur[0] = i
        cur[1:] = np.minimum(row[1:] + 1, row[:-1] + (b_codes != ord(ca)))
        row = np.minimum.accumulate(cur - j) + j
    return int(row[-1])
