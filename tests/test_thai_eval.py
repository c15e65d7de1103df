"""Thai normalization and evaluation tests: numeral grammar against a hand
oracle, repetition-marker expansion, separator stripping and the whole
pipeline against per-character oracles, pipeline idempotence, edit distance
against a brute-force recursive oracle and the row-by-row DP, cosine
properties, vote tallies, and byte-order marks in the text readers."""

import logging
import re
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtts.evaluation import (
    PairwiseVote,
    aggregate_tally,
    cer,
    cosine_sim,
    evaluate_cer_rows,
    levenshtein,
    read_cer_batch,
    read_embedding,
    read_votes_csv,
    write_embedding,
)
import flowtts.thai_text as thai_text
from flowtts.thai_text import (
    MAI_YAMOK,
    NormalizationConfig,
    expand_mai_yamok,
    load_lexicon,
    normalize,
    numerals_to_thai,
)

from oracles import (
    NUMERAL_ORACLE,
    brute_force_levenshtein,
    category_strip_separators,
    char_loop_expand_mai_yamok,
    dp_levenshtein,
)

# --------------------------------------------------------------------------
# Numeral grammar: hand-written oracle table
# --------------------------------------------------------------------------


@pytest.mark.parametrize("digits,expected", sorted(NUMERAL_ORACLE.items()))
def test_numerals_against_hand_oracle(digits, expected):
    assert numerals_to_thai(digits) == expected


def test_numeral_oracle_has_enough_cases():
    assert len(NUMERAL_ORACLE) >= 30


def test_numerals_leading_zeros_read_as_value():
    assert numerals_to_thai("007") == "เจ็ด"


def test_numerals_input_validation():
    with pytest.raises(ValueError):
        numerals_to_thai("")
    with pytest.raises(ValueError):
        numerals_to_thai("12a")
    with pytest.raises(ValueError):
        numerals_to_thai("1" * 14)


def test_numerals_never_produce_forbidden_readings():
    rng = np.random.default_rng(99)
    alphabet = set("ศูนย์หนึ่งสองสามสี่ห้าหกเจ็ดแปดเก้าสิบร้อยพันหมื่นแสนล้านยี่เอ็ด")
    for _ in range(500):
        n = int(rng.integers(0, 10**13))
        words = numerals_to_thai(str(n))
        assert "หนึ่งสิบ" not in words  # tens digit 1 reads bare sip
        assert "สองสิบ" not in words  # tens digit 2 reads yi sip
        assert set(words) <= alphabet


# --------------------------------------------------------------------------
# Mai yamok
# --------------------------------------------------------------------------

def test_mai_yamok_canonical_example():
    assert expand_mai_yamok("ต่างๆ") == "ต่างต่าง"


def test_mai_yamok_no_marker_identity():
    text = "สวัสดีครับ"
    assert expand_mai_yamok(text) == text


def test_mai_yamok_detached_marker():
    assert expand_mai_yamok("ช้า ๆ") == "ช้าช้า"


def test_mai_yamok_chained_markers_feed_forward():
    assert expand_mai_yamok("ต่างๆๆ") == "ต่าง" * 4


def test_mai_yamok_orphan_left_verbatim(caplog):
    with caplog.at_level(logging.WARNING, logger="flowtts.thai_text"):
        assert expand_mai_yamok(MAI_YAMOK + "ก") == MAI_YAMOK + "ก"
    assert any("no preceding token" in rec.message for rec in caplog.records)


def test_mai_yamok_duplicates_only_last_token():
    assert expand_mai_yamok("ไป มาๆ") == "ไป มามา"


# --------------------------------------------------------------------------
# Normalization pipeline
# --------------------------------------------------------------------------

def test_normalize_canonical_example():
    assert normalize("ต่างๆ") == "ต่างต่าง"


def test_normalize_pure_thai_identity():
    text = "สวัสดีครับ"
    assert normalize(text) == text


def test_normalize_digits_inside_thai():
    assert normalize("มี 21 คน") == "มียี่สิบเอ็ดคน"


def test_normalize_transliteration_and_case(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("# comment line\ncomputer\tคอมพิวเตอร์\nai\tเอไอ\n", encoding="utf-8")
    config = NormalizationConfig(lexicon=load_lexicon(lex))
    assert normalize("ซื้อ Computer ใหม่", config) == "ซื้อคอมพิวเตอร์ใหม่"
    assert normalize("ยุค AI", config) == "ยุคเอไอ"


def test_normalize_unknown_latin_kept_verbatim(caplog):
    with caplog.at_level(logging.WARNING, logger="flowtts.thai_text"):
        assert normalize("ระบบ zzz ใหม่") == "ระบบzzzใหม่"
    assert any("zzz" in rec.message for rec in caplog.records)


def test_normalize_strips_punctuation_and_spaces():
    assert normalize("ก. ข, (ค)!") == "กขค"


def test_normalize_applies_nfc():
    decomposed = unicodedata.normalize("NFD", "กำ")
    assert normalize(decomposed) == unicodedata.normalize("NFC", "กำ")


def test_normalize_rejects_invalid_utf8():
    with pytest.raises(UnicodeDecodeError):
        normalize(b"\xff\xfe\x00bad")


def test_lexicon_rejects_non_latin_keys():
    with pytest.raises(ValueError):
        NormalizationConfig(lexicon={"ก": "x"})
    with pytest.raises(ValueError):
        NormalizationConfig(lexicon={"abc1": "x"})


THAI_CHARS = "กขคงจฉชซญดตถทนบปผฝพฟภมยรลวศษสหฬอฮะัาิีึืุูเแโใไ่้๊๋็ๆ"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=THAI_CHARS + "0123456789 abcXYZ.,!?", max_size=40))
def test_normalize_idempotent(text):
    # Digit runs beyond the numeral grammar's 13-digit ceiling are outside
    # normalize's domain (see test_normalize_rejects_oversized_digit_run).
    # The lexicon key avoids the corpus alphabet: whitespace stripping can
    # merge kept-verbatim Latin fragments, and a merge that formed a lexicon
    # key would legitimately transliterate on the second pass.
    if re.search(r"[0-9]{14}", text):
        text = re.sub(r"[0-9]+", lambda m: m.group()[:13], text)
    config = NormalizationConfig(lexicon={"gateway": "เกตเวย์"})
    once = normalize(text, config)
    twice = normalize(once, config)
    assert once == twice


def test_mai_yamok_does_not_duplicate_an_orphan_marker():
    # An orphan marker kept verbatim is not part of the following token.
    assert expand_mai_yamok(MAI_YAMOK + "กขๆ") == MAI_YAMOK + "กขกข"
    assert expand_mai_yamok(MAI_YAMOK + MAI_YAMOK) == MAI_YAMOK + MAI_YAMOK


def test_normalize_rejects_oversized_digit_run():
    with pytest.raises(ValueError):
        normalize("เลข " + "9" * 14)


# Thai letters, vowels, tone marks and mai-yamok; the Po signs paiyannoi,
# angkhankhu and khomut; Latin letters and digits; ASCII whitespace; no-break
# space (Zs), ideographic space (Zs), line separator (Zl) and the file
# separator (whitespace to str.isspace but category Cc); ASCII punctuation;
# and a Po sign outside the BMP.
NORMALIZATION_ALPHABET = (THAI_CHARS + "ฯ๚๛" + "abcXYZ0123456789" + " \t\n"
                          + "\u00a0\u3000\u2028\u001c" + ".,!?" + "\U00010100")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=NORMALIZATION_ALPHABET, max_size=60))
def test_separator_stripping_matches_the_category_oracle(text):
    assert thai_text._strip_separators(text) == category_strip_separators(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=NORMALIZATION_ALPHABET, max_size=60))
def test_mai_yamok_expansion_matches_the_char_loop_oracle(text):
    assert expand_mai_yamok(text) == char_loop_expand_mai_yamok(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=NORMALIZATION_ALPHABET, max_size=60))
def test_normalize_matches_the_pipeline_over_oracle_stages(text):
    text = re.sub(r"[0-9]+", lambda m: m.group()[:13], text)
    config = NormalizationConfig(lexicon={"ab": "เอบี", "x": "เอ็กซ์"})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thai_text, "expand_mai_yamok", char_loop_expand_mai_yamok)
        mp.setattr(thai_text, "_strip_separators", category_strip_separators)
        expected = normalize(text, config)
    assert normalize(text, config) == expected


def test_mai_yamok_warns_once_per_orphan_marker(caplog):
    # Orphans: the leading marker, and the one after it across a space (the
    # token scan stops at a marker); the third marker repeats ก.
    text = MAI_YAMOK + " " + MAI_YAMOK + "กๆ" + " ๆ"
    with caplog.at_level(logging.WARNING):
        assert expand_mai_yamok(text) == char_loop_expand_mai_yamok(text) == MAI_YAMOK * 2 + "ก" * 4
    ours = [r for r in caplog.records if r.name == "flowtts.thai_text"]
    theirs = [r for r in caplog.records if r.name == "oracles"]
    assert len(ours) == len(theirs) == 2
    assert all("no preceding token" in r.getMessage() for r in ours + theirs)


# --------------------------------------------------------------------------
# Edit distance and CER
# --------------------------------------------------------------------------

def test_cer_examples():
    assert cer("กขค", "กขค") == 0.0
    assert cer("กข", "กค") == 0.5
    assert cer("กขค", "กค") == pytest.approx(1 / 3)


def test_cer_empty_reference_errors():
    with pytest.raises(ValueError):
        cer("", "ก")


def test_levenshtein_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    alphabet = "กขคงจ"
    strings = ["".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
               for _ in range(30)]
    for a in strings[:10]:
        for b in strings[10:20]:
            assert levenshtein(a, b) == levenshtein(b, a)
            for c in strings[20:25]:
                assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def test_levenshtein_matches_brute_force_exhaustive_short():
    alphabet = "กขคงจ"
    pool = [""]
    for _ in range(3):
        pool = pool + ["".join((p, c)) for p in pool if len(p) == _ for c in alphabet]
    pool = [p for p in pool if len(p) <= 3]
    for a in pool:
        for b in pool:
            assert levenshtein(a, b) == brute_force_levenshtein(a, b), (a, b)


def test_levenshtein_matches_brute_force_sampled_len8():
    rng = np.random.default_rng(8)
    alphabet = list("กขคงจ")
    for _ in range(2000):
        a = "".join(rng.choice(alphabet, size=rng.integers(0, 9)))
        b = "".join(rng.choice(alphabet, size=rng.integers(0, 9)))
        assert levenshtein(a, b) == brute_force_levenshtein(a, b), (a, b)


EDIT_ALPHABET = "กขคงจนมยรสอะาิีเแ่้" + MAI_YAMOK + "0123456789" + "abcXYZ"


@st.composite
def _edit_pairs(draw):
    """A string and either an unrelated string or an edited copy of it, so
    that both distant and near pairs (the CER case) come up."""
    def text():
        # Lengths drawn uniformly, so pairs wider than one 64-bit word are common.
        length = draw(st.integers(0, 250))
        return draw(st.text(alphabet=EDIT_ALPHABET, min_size=length, max_size=length))

    a = text()
    if draw(st.booleans()):
        return a, text()
    b = list(a)
    edits = st.tuples(st.sampled_from(("substitute", "insert", "delete")),
                      st.integers(0, 250), st.sampled_from(EDIT_ALPHABET))
    for op, position, char in draw(st.lists(edits, max_size=12)):
        at = min(position, len(b))
        if op == "insert":
            b.insert(at, char)
        elif op == "delete":
            del b[at:at + 1]
        else:
            b[at:at + 1] = [char]
    return a, "".join(b)[:250]


@settings(max_examples=200, deadline=None)
@given(_edit_pairs())
def test_levenshtein_matches_dp_oracle(pair):
    a, b = pair
    assert levenshtein(a, b) == dp_levenshtein(a, b) == levenshtein(b, a)


def _shared_ends_pairs():
    rng = np.random.default_rng(64)
    pairs = [
        ("", ""),
        ("กขค", "กขค"),
        ("".join(rng.choice(list("กขคงจ"), size=200)),) * 2,
        ("กขค", "กขคงจ"),  # prefix
        ("งจ", "กขคงจ"),  # suffix
        ("aaaa", "aa"),  # the shared prefix and suffix overlap
        ("abcab", "ab"),
        ("abab", "ab"),
        ("aba", "abba"),
    ]
    for side in (64, 128, 130):
        head = "".join(rng.choice(list("กขคงจ"), size=side))
        tail = "".join(rng.choice(list("กขคงจ"), size=side))
        pairs += [(head + "x" + tail, head + "y" + tail),  # substitution
                  (head + tail, head + "x" + tail),  # insertion
                  (head + "x" + tail, head + tail[1:])]  # deletion across the edit
    return pairs


@pytest.mark.parametrize("a,b", _shared_ends_pairs())
def test_levenshtein_trims_shared_ends_without_changing_the_distance(a, b):
    assert levenshtein(a, b) == levenshtein(b, a) == dp_levenshtein(a, b)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129])
def test_levenshtein_at_bitset_width_edges(m):
    # m is the length of the shorter string, whose characters index the bitset.
    rng = np.random.default_rng(m)
    pattern = "".join(rng.choice(list("กขคงจ"), size=m))
    assert levenshtein(pattern, pattern) == 0
    assert levenshtein(pattern, "") == levenshtein("", pattern) == m
    # Every character absent from the pattern: nothing matches.
    assert levenshtein(pattern, "x" * m) == m
    assert levenshtein(pattern, "xyz" * m) == 3 * m
    # One substitution in the last (highest) bit position.
    assert levenshtein(pattern, pattern[:-1] + "x") == 1
    edited = list(pattern + "".join(rng.choice(list("กขคxyz"), size=17)))
    for at in rng.integers(0, len(edited), size=5):
        edited[at] = "z"
    texts = [
        pattern + "x",
        "x" + pattern,
        pattern[::-1] + "ก",
        "".join(edited),
        "".join(rng.choice(list("กขคงจxyz"), size=m + 17)),
        "".join(rng.choice(list("กขคงจ"), size=2 * m)),
    ]
    for text in texts:
        assert len(text) >= m
        expected = dp_levenshtein(pattern, text)
        assert levenshtein(pattern, text) == levenshtein(text, pattern) == expected, text


def test_evaluate_cer_rows_with_normalization(tmp_path):
    rows = [("r1", "มี 21 คน", "มียี่สิบเอ็ดคน"), ("r2", "กขค", "กค")]
    results, mean = evaluate_cer_rows(rows)
    assert results[0][1] == 0.0
    assert results[1][1] == pytest.approx(1 / 3)
    assert mean == pytest.approx((0.0 + 1 / 3) / 2)


def test_score_pair_normalizes_both_sides():
    from flowtts.evaluation import score_pair
    pair = score_pair("มี 21 คน", "มี ยี่สิบเอ็ด คน")
    assert pair.reference == pair.hypothesis == "มียี่สิบเอ็ดคน"
    assert pair.cer == 0.0
    with pytest.raises(ValueError):
        score_pair("  . ", "ก")  # reference empty after normalization


# --------------------------------------------------------------------------
# Cosine similarity
# --------------------------------------------------------------------------

def test_cosine_identities():
    v = np.array([1.0, 2.0, 3.0])
    assert cosine_sim(v, v) == pytest.approx(1.0)
    assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert cosine_sim(v, -v) == pytest.approx(-1.0)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        c = float(rng.uniform(0.01, 100.0))
        assert cosine_sim(c * a, b) == pytest.approx(cosine_sim(a, b), rel=1e-9)


def test_cosine_errors():
    with pytest.raises(ValueError):
        cosine_sim([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        cosine_sim([1.0], [1.0, 2.0])


def test_embedding_file_round_trip(tmp_path):
    path = tmp_path / "spk.jemb"
    vec = np.random.default_rng(0).standard_normal(192).astype(np.float32)
    write_embedding(path, vec)
    np.testing.assert_array_equal(read_embedding(path), vec)
    assert path.read_bytes()[:4] == b"JEMB"


# --------------------------------------------------------------------------
# Pairwise tally
# --------------------------------------------------------------------------

def _fig2_votes():
    votes = []
    votes += [PairwiseVote("ours", "eleven_v3", "A")] * 161
    votes += [PairwiseVote("ours", "eleven_v3", "TIE")] * 19
    votes += [PairwiseVote("ours", "eleven_v3", "B")] * 20
    votes += [PairwiseVote("speech-2.8-hd", "ours", "B")] * 122
    votes += [PairwiseVote("speech-2.8-hd", "ours", "TIE")] * 40
    votes += [PairwiseVote("speech-2.8-hd", "ours", "A")] * 38
    return votes


def test_tally_headline_counts():
    report = aggregate_tally(_fig2_votes(), "ours")
    assert report.per_competitor["eleven_v3"].as_tuple() == (161, 19, 20)
    assert report.per_competitor["speech-2.8-hd"].as_tuple() == (122, 40, 38)
    assert report.overall.as_tuple() == (283, 59, 58)


def test_tally_order_independent():
    votes = _fig2_votes()
    rng = np.random.default_rng(1)
    shuffled = list(votes)
    rng.shuffle(shuffled)
    a = aggregate_tally(votes, "ours")
    b = aggregate_tally(shuffled, "ours")
    assert a.overall.as_tuple() == b.overall.as_tuple()
    assert {k: v.as_tuple() for k, v in a.per_competitor.items()} == \
           {k: v.as_tuple() for k, v in b.per_competitor.items()}


def test_tally_empty_and_single_tie():
    report = aggregate_tally([], "ours")
    assert report.overall.as_tuple() == (0, 0, 0)
    single = aggregate_tally([PairwiseVote("ours", "x", "TIE")], "ours")
    assert single.per_competitor["x"].as_tuple() == (0, 1, 0)


def test_tally_rejects_unrelated_vote():
    votes = [PairwiseVote("ours", "x", "A"), PairwiseVote("y", "z", "A")]
    with pytest.raises(ValueError, match="vote 1"):
        aggregate_tally(votes, "ours")


def test_vote_validation():
    with pytest.raises(ValueError):
        PairwiseVote("a", "a", "A")
    with pytest.raises(ValueError):
        PairwiseVote("a", "b", "draw")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["m1", "m2", "m3"]),
                          st.sampled_from(["A", "B", "TIE"]))))
def test_tally_conservation(rows):
    votes = [PairwiseVote("ours", other, outcome) for other, outcome in rows]
    report = aggregate_tally(votes, "ours")
    assert report.overall.total == len(votes)
    assert sum(c.total for c in report.per_competitor.values()) == len(votes)


# --------------------------------------------------------------------------
# UTF-8 byte-order marks, as Windows editors and spreadsheets save them
# --------------------------------------------------------------------------

def _with_and_without_bom(tmp_path, name, text):
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return plain, marked


def test_lexicon_with_bom_reads_as_without(tmp_path):
    plain, marked = _with_and_without_bom(tmp_path, "lex.tsv", "# latin\tthai\nok\tโอเค\n")
    assert load_lexicon(marked) == load_lexicon(plain) == {"ok": "โอเค"}
    plain, marked = _with_and_without_bom(tmp_path, "lex2.tsv", "ok\tโอเค\n")
    assert load_lexicon(marked) == load_lexicon(plain) == {"ok": "โอเค"}
    NormalizationConfig(lexicon=load_lexicon(marked))


def test_cer_batch_with_bom_reads_as_without(tmp_path):
    plain, marked = _with_and_without_bom(tmp_path, "rows.tsv", "r1\tกขค\tกค\n")
    assert read_cer_batch(marked) == read_cer_batch(plain) == [("r1", "กขค", "กค")]


def test_cer_batch_rows_end_at_lf_and_drop_the_cr_of_a_crlf_ending(tmp_path):
    rows = [("r1", "กขค", "กค"), ("r2", "a b", "ab")]
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes("".join("\t".join(r) + "\n" for r in rows).encode("utf-8"))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert read_cer_batch(crlf) == read_cer_batch(lf) == rows
    # A lone CR is part of its field, not a row end; only a CRLF's CR goes.
    lone = tmp_path / "lone.tsv"
    lone.write_bytes(b"a\rb\tx\tx\r\n\r\nc\tx\ty\r\r\n")
    assert read_cer_batch(lone) == [("a\rb", "x", "x"), ("c", "x", "y\r")]


def test_votes_with_bom_header_reads_as_without(tmp_path):
    plain, marked = _with_and_without_bom(tmp_path, "votes.csv",
                                          "model_a,model_b,outcome\nours,x,A\n")
    assert read_votes_csv(marked) == read_votes_csv(plain) == [PairwiseVote("ours", "x", "A")]
