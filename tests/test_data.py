"""MLKG model, file formats, synthetic generator, ZS-Un absence at load."""

import dataclasses
import json
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgadapters import cli
from kgadapters.data import (Labelled, LanguageSplit, MLKG, Triple,
                             assign_language_splits, load_c1, load_c2,
                             load_mlkg, load_split, read_rows, save_mlkg, save_split)
from kgadapters.errors import ConfigError, DataError
from kgadapters.pipeline import Workspace, run_stage
from kgadapters.synthetic import (DATASET_FILES, SyntheticConfig, gen_synthetic,
                                  load_dataset, save_dataset, transform_word)

from test_pipeline import drop_label, micro_config, write_config


def toy_mlkg(label_counts=(3, 2, 1)):
    langs = [f"l{j}" for j in range(max(label_counts))]
    entities = {}
    for i, n in enumerate(label_counts):
        eid = f"e{i}"
        entities[eid] = Labelled(id=eid, labels={langs[j]: (f"word{i}x{j}",) for j in range(n)})
    relations = {"r0": Labelled(id="r0", labels={"aa": ("rel", "zero")})}
    triples = [Triple("e0", "r0", "e1"), Triple("e1", "r0", "e2")]
    return MLKG(entities=entities, relations=relations, triples=triples)


class TestLabelled:
    @pytest.mark.parametrize("label, text", [
        ("solo", "'e0' has a label in 'bb' that is not a token tuple: 'solo'"),
        (["solo"], "'e0' has a label in 'bb' that is not a token tuple: ['solo']"),
        ((), "'e0' has a label with no tokens in 'bb'"),
    ])
    def test_label_that_is_not_a_token_tuple_rejected(self, label, text):
        """A str label would be tokenized character by character, so only a
        non-empty tuple is a label."""
        with pytest.raises(DataError) as err:
            Labelled(id="e0", labels={"aa": ("one", "word"), "bb": label})
        assert str(err.value) == text


class TestLoadSave:
    def test_roundtrip(self, tmp_path):
        mlkg = toy_mlkg()
        paths = (tmp_path / "e.tsv", tmp_path / "r.tsv", tmp_path / "t.tsv")
        save_mlkg(mlkg, *paths)
        assert load_mlkg(*paths) == mlkg

    def test_empty_triples_file_is_valid(self, tmp_path):
        mlkg = toy_mlkg()
        mlkg.triples = []
        paths = (tmp_path / "e.tsv", tmp_path / "r.tsv", tmp_path / "t.tsv")
        save_mlkg(mlkg, *paths)
        assert load_mlkg(*paths).triples == []

    def test_dangling_triple_reports_line_number(self, tmp_path):
        mlkg = toy_mlkg()
        paths = (tmp_path / "e.tsv", tmp_path / "r.tsv", tmp_path / "t.tsv")
        save_mlkg(mlkg, *paths)
        with open(paths[2], "a", encoding="utf-8") as fh:
            fh.write("e0\tr0\tghost\n")
        with pytest.raises(DataError, match=r"t\.tsv:3.*ghost"):
            load_mlkg(*paths)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("e0\taa=x\ne0\taa=y\n", encoding="utf-8")
        (tmp_path / "r.tsv").write_text("r0\taa=rel\n", encoding="utf-8")
        (tmp_path / "t.tsv").write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate id"):
            load_mlkg(p, tmp_path / "r.tsv", tmp_path / "t.tsv")


class TestLanguageSplits:
    def test_deterministic_assignment(self):
        split = assign_language_splits(["aa", "bb", "cc", "dd", "ee", "ff"], 3, 2, 1)
        assert split.sup == ["aa", "bb", "cc"]
        assert split.zs_in == ["dd", "ee"]
        assert split.zs_un == ["ff"]

    def test_oversize_request_rejected(self):
        with pytest.raises(DataError):
            assign_language_splits(["aa", "bb"], 2, 1, 0)

    def test_overlap_rejected(self):
        with pytest.raises(DataError, match="overlap"):
            LanguageSplit(sup=["aa"], zs_in=["aa"], zs_un=[])

    def test_roundtrip(self, tmp_path):
        split = assign_language_splits(["aa", "bb", "cc"], 1, 1, 1)
        save_split(tmp_path / "s.tsv", split)
        loaded = load_split(tmp_path / "s.tsv")
        assert loaded == split


def small_config(**kw):
    defaults = dict(languages=4, entities=12, relations=3, triples=30,
                    sentences_per_entity=1, vocab_size=12, seed=5,
                    sup=2, zs_in=1, zs_un=1, mlm_sentences_per_lang=20)
    defaults.update(kw)
    return SyntheticConfig(**defaults)


class TestSyntheticGenerator:
    @pytest.mark.parametrize("field, value, text", [
        ("sentences_per_entity", 0, "sentences_per_entity must be >= 1, got 0"),
        ("sentences_per_entity", -2, "sentences_per_entity must be >= 1, got -2"),
        ("gloss_rate", 2.0, "gloss_rate must be in [0, 1], got 2.0"),
        ("gloss_rate", -0.01, "gloss_rate must be in [0, 1], got -0.01"),
        ("fact_rate", -1.0, "fact_rate must be in [0, 1], got -1.0"),
        ("fact_rate", float("nan"), "fact_rate must be in [0, 1], got nan"),
    ])
    def test_config_rejects_out_of_range(self, field, value, text):
        with pytest.raises(ConfigError) as err:
            small_config(**{field: value})
        assert str(err.value) == text

    @pytest.mark.parametrize("field", ["gloss_rate", "fact_rate"])
    def test_rates_accept_both_ends(self, field):
        for value in (0.0, 1.0):
            assert getattr(small_config(**{field: value}), field) == value

    def test_same_config_twice_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_dataset(gen_synthetic(small_config()), d1)
        save_dataset(gen_synthetic(small_config()), d2)
        for f in sorted(p.name for p in d1.iterdir()):
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes(), f

    def test_alignment_ground_truth_is_bijection(self):
        ds = gen_synthetic(small_config())
        for l1 in ds.split.all_langs:
            for l2 in ds.split.all_langs:
                if l1 == l2:
                    continue
                labels1 = [e.labels[l1] for e in ds.mlkg.entities.values()]
                labels2 = [e.labels[l2] for e in ds.mlkg.entities.values()]
                assert len(set(labels1)) == len(labels1)
                assert len(set(labels2)) == len(labels2)

    def test_language_transform_bijective_and_invertible(self):
        assert transform_word("kora", 0) == "kora"
        assert transform_word("kora", 2) != transform_word("kora", 1)
        assert transform_word("7", 3) == "7"

    def test_spans_reproduce_labels(self):
        ds = gen_synthetic(small_config())
        for r in ds.c1:
            label = ds.mlkg.entities[r.entity_id].labels[r.lang]
            assert tuple(r.tokens[r.span[0]:r.span[1] + 1]) == label
        for r in ds.c2:
            label = ds.mlkg.entities[r.triple.tail].labels[ds.split.sup[0]]
            assert tuple(r.tokens[r.obj_span[0]:r.obj_span[1] + 1]) == label

    def test_zs_un_absent_from_training_corpora(self, tmp_path):
        save_dataset(gen_synthetic(small_config()), tmp_path)
        load_dataset(tmp_path)      # a ZS-Un record in a training file is a DataError

    def test_saved_files_reload_cleanly(self, tmp_path):
        ds = gen_synthetic(small_config())
        save_dataset(ds, tmp_path)
        mlkg = load_mlkg(tmp_path / "entities.tsv", tmp_path / "relations.tsv",
                         tmp_path / "triples.tsv")
        assert mlkg == ds.mlkg
        known = {"entity": mlkg.entities, "relation": mlkg.relations}
        c1 = load_c1(tmp_path / "c1.tsv", known, {})
        c2 = load_c2(tmp_path / "c2.tsv", known, {})
        assert len(c1) == len(ds.c1)
        assert len(c2) == len(ds.c2)
        split = load_split(tmp_path / "split.tsv")
        assert split == ds.split

    def test_test_triples_held_out_of_c2(self):
        ds = gen_synthetic(small_config())
        c2_triples = {r.triple for r in ds.c2}
        test_triples = {t for items in ds.comp_test.values() for _, t in items}
        assert test_triples and not c2_triples & test_triples

    def test_relation_pools_constrain_tails(self):
        ds = gen_synthetic(small_config())
        tails_per_rel = {}
        for t in ds.mlkg.triples:
            tails_per_rel.setdefault(t.rel, set()).add(t.tail)
        for rel, tails in tails_per_rel.items():
            assert len(tails) <= ds.config.relation_pool_size

    def test_invalid_configs_rejected(self):
        with pytest.raises(Exception):
            small_config(entities=5)
        with pytest.raises(Exception):
            small_config(sup=1, zs_in=1, zs_un=1)  # does not sum to languages


def assert_same_dataset(got, want):
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.split.all_langs == want.split.all_langs


@st.composite
def small_configs(draw):
    languages = draw(st.integers(3, 5))
    sup = draw(st.integers(1, languages))
    zs_in = draw(st.integers(0, languages - sup))
    entities = draw(st.integers(10, 30))
    return SyntheticConfig(
        languages=languages, sup=sup, zs_in=zs_in, zs_un=languages - sup - zs_in,
        entities=entities, relations=draw(st.integers(2, 4)), triples=2 * entities,
        sentences_per_entity=draw(st.integers(1, 2)), vocab_size=10,
        mlm_sentences_per_lang=draw(st.integers(5, 20)),
        label_max_words=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)))


class TestDatasetRoundtrip:
    def test_micro_dataset_reloads_field_by_field(self, tmp_path):
        ds = gen_synthetic(micro_config(tmp_path).synthetic)
        save_dataset(ds, tmp_path / "data")
        assert_same_dataset(load_dataset(tmp_path / "data"), ds)

    def test_writes_the_dataset_files_and_no_other(self, tmp_path):
        save_dataset(gen_synthetic(micro_config(tmp_path).synthetic), tmp_path / "data")
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == sorted(DATASET_FILES)

    @settings(max_examples=15, deadline=None, database=None)
    @given(small_configs())
    def test_small_datasets_reload_field_by_field(self, config):
        ds = gen_synthetic(config)
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(ds, tmp)
            assert_same_dataset(load_dataset(tmp), ds)


def set_first_field(text, index, value):
    first, rest = text.split("\n", 1)
    fields = first.split("\t")
    fields[index] = value
    return "\t".join(fields) + "\n" + rest


def only_object_label(text):
    """c2 text whose first sentence is cut to its object span."""
    first, rest = text.split("\n", 1)
    head, rel, tail, start, end, tokens = first.split("\t")
    label = tokens.split()[int(start):int(end) + 1]
    return f"{head}\t{rel}\t{tail}\t0\t{len(label) - 1}\t{' '.join(label)}\n{rest}"


# (data file, edit of its text, location that starts the message after the path);
# the text is written back with surrogateescape, so "\udcff" becomes the byte 0xff
MALFORMED = {
    "c1_span_not_int": ("c1.tsv", lambda t: set_first_field(t, 2, "x"), ":1: "),
    "mlm_line_without_tab": ("mlm.tsv", lambda t: t.replace("\t", " ", 1), ":1: "),
    "mlm_line_without_tokens": ("mlm.tsv", lambda t: set_first_field(t, 1, ""), ":1: "),
    "mlm_empty": ("mlm.tsv", lambda t: "", ": "),
    "vocab_without_specials": ("vocab.txt", lambda t: t.split("\n", 4)[4], ": "),
    "vocab_duplicate_token": ("vocab.txt", lambda t: t + t.split("\n")[4] + "\n", ": "),
    "config_unknown_key": ("config.json",
                           lambda t: json.dumps({**json.loads(t), "bogus": 1}), ": "),
    "config_zero_triples": ("config.json",
                            lambda t: json.dumps({**json.loads(t), "triples": 0}), ": "),
    "entity_empty_label": ("entities.tsv", lambda t: set_first_field(t, 1, "aa="), ":1: "),
    "relation_empty_label": ("relations.tsv", lambda t: set_first_field(t, 1, "aa="), ":1: "),
    "entity_blank_label": ("entities.tsv", lambda t: set_first_field(t, 1, "aa= "), ":1: "),
    "align_test_two_fields": ("align_test.tsv", lambda t: "aa\tab\n" + t, ":1: "),
    "comp_test_unknown_lang": ("comp_test.tsv", lambda t: set_first_field(t, 0, "zz"), ":1: "),
    "c2_not_utf8": ("c2.tsv", lambda t: "\udcff" + t, ": "),
    "split_overlap": ("split.tsv", lambda t: t + "zs_un\taa\n", ": "),
    "split_unknown_category": ("split.tsv", lambda t: "bogus\taa\n" + t, ":1: "),
    "entity_label_without_lang": ("entities.tsv", lambda t: set_first_field(t, 1, "solo"),
                                  ":1: "),
    "entity_duplicate_lang": ("entities.tsv", lambda t: set_first_field(t, 1, "aa=x|aa=y"),
                              ":1: "),
    "triple_unknown_head": ("triples.tsv", lambda t: set_first_field(t, 0, "ghost"), ":1: "),
    "triple_unknown_relation": ("triples.tsv", lambda t: set_first_field(t, 1, "ghost"), ":1: "),
    "c1_unknown_entity": ("c1.tsv", lambda t: set_first_field(t, 1, "ghost"), ":1: "),
    "c1_span_unlike_label": ("c1.tsv", lambda t: set_first_field(t, 4, " ".join(["x"] * 9)),
                             ":1: "),
    "c1_span_out_of_bounds": ("c1.tsv", lambda t: set_first_field(t, 3, "99"), ":1: "),
    "c2_triple_unresolved": ("c2.tsv", lambda t: set_first_field(t, 2, "ghost"), ":1: "),
    "c2_span_unlike_label": ("c2.tsv", lambda t: set_first_field(t, 5, " ".join(["x"] * 9)),
                             ":1: "),
    "c2_only_object_label": ("c2.tsv", only_object_label, ":1: "),
}


@pytest.fixture(scope="module")
def micro_data(tmp_path_factory):
    ws = Workspace(micro_config(tmp_path_factory.mktemp("micro")))
    run_stage(ws, "gen-synthetic")
    return ws.data_dir


def malform(data_dir, case):
    """Apply MALFORMED[case] to its file of data_dir; return the file's path."""
    name, edit, _ = MALFORMED[case]
    path = data_dir / name
    path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8", "surrogateescape"))
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_data_file_exits_one(micro_data, tmp_path, capsys, case):
    where = MALFORMED[case][2]
    config = micro_config(tmp_path / "run")
    data_dir = Workspace(config).data_dir
    shutil.copytree(micro_data, data_dir)
    path = malform(data_dir, case)
    write_config(config, tmp_path / "cfg.json")
    assert cli.main(["--config", str(tmp_path / "cfg.json"), "pretrain"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{where}"), err
    assert err.count("\n") == 1 and "Traceback" not in err


# (training file, edit of its text given the ZS-Un language and e0's label in it)
ZS_UN_LEAKS = {
    "c1_record": ("c1.tsv", lambda t, zu, label:
                  t + f"{zu}\te0\t0\t{len(label) - 1}\t{' '.join(label)} .\n"),
    "c2_sentence": ("c2.tsv", lambda t, zu, label:
                    t + f"e0\tr0\te0\t0\t{len(label) - 1}\t{' '.join(label)} .\n"),
    "align_train_pair": ("align_train.tsv", lambda t, zu, label: set_first_field(t, 1, zu)),
    "comp_train_item": ("comp_train.tsv", lambda t, zu, label: set_first_field(t, 0, zu)),
}


def leak(data_dir, case):
    """Apply ZS_UN_LEAKS[case] to its file of data_dir; return the file's path."""
    name, edit = ZS_UN_LEAKS[case]
    (zu,) = load_split(data_dir / "split.tsv").zs_un
    label = load_mlkg(data_dir / "entities.tsv", data_dir / "relations.tsv",
                      data_dir / "triples.tsv").entities["e0"].labels[zu]
    path = data_dir / name
    path.write_text(edit(path.read_text(encoding="utf-8"), zu, label), encoding="utf-8")
    return path


@pytest.mark.parametrize("case", sorted(ZS_UN_LEAKS))
def test_zs_un_language_in_a_training_file_exits_one(micro_data, tmp_path, capsys, case):
    config = micro_config(tmp_path / "run")
    data_dir = Workspace(config).data_dir
    shutil.copytree(micro_data, data_dir)
    path = leak(data_dir, case)
    write_config(config, tmp_path / "cfg.json")
    assert cli.main(["--config", str(tmp_path / "cfg.json"), "pretrain"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and "zero-shot-unseen" in err, err
    assert err.count("\n") == 1
    assert not (tmp_path / "run" / "checkpoints" / "pretrain.ckpt").exists()


def test_zs_un_token_found_whatever_the_split_order(micro_data, tmp_path):
    # make the zs_in language unseen and the unseen one zs_in; a sentence in
    # the newly unseen language must still be caught by its token suffix
    d = tmp_path / "data"
    shutil.copytree(micro_data, d)
    split = load_split(d / "split.tsv")
    (was_in,), (was_un,) = split.zs_in, split.zs_un
    save_split(d / "split.tsv", LanguageSplit(sup=split.sup, zs_in=[was_un], zs_un=[was_in]))
    c1 = (d / "c1.tsv").read_text(encoding="utf-8").splitlines(True)
    (d / "c1.tsv").write_text("".join(line for line in c1 if not line.startswith(f"{was_in}\t")),
                              encoding="utf-8")
    load_dataset(d)
    label = load_mlkg(d / "entities.tsv", d / "relations.tsv",
                      d / "triples.tsv").entities["e0"].labels[was_in]
    _, edit = ZS_UN_LEAKS["c2_sentence"]
    (d / "c2.tsv").write_text(edit((d / "c2.tsv").read_text(encoding="utf-8"), was_in, label),
                              encoding="utf-8")
    with pytest.raises(DataError, match=r"c2\.tsv:\d+: .*zero-shot-unseen"):
        load_dataset(d)


def with_blank_lines(text):
    """The lines of a TSV text with a blank line before the first, between
    every two and after the last: line k moves to line 2k."""
    return "\n" + "\n\n".join(text.splitlines()) + "\n\n"


def blank_lines_in_every_file(data_dir) -> None:
    for path in data_dir.glob("*.tsv"):
        path.write_text(with_blank_lines(path.read_text(encoding="utf-8")), encoding="utf-8")


def test_blank_lines_load_as_the_records_alone(micro_data, tmp_path):
    d = tmp_path / "data"
    shutil.copytree(micro_data, d)
    blank_lines_in_every_file(d)
    assert_same_dataset(load_dataset(d), load_dataset(micro_data))


# every case above whose message names a line
LINE_FAULTS = sorted([case for case in MALFORMED if MALFORMED[case][2] != ": "]
                     + list(ZS_UN_LEAKS))


@pytest.mark.parametrize("case", LINE_FAULTS)
def test_blank_lines_move_a_fault_to_its_own_line(micro_data, tmp_path, case):
    """The fault of a case, then blank lines in every file: the message names
    the record's new line, and is otherwise the same."""
    plain, blank = tmp_path / "plain", tmp_path / "blank"
    shutil.copytree(micro_data, plain)
    path = (malform if case in MALFORMED else leak)(plain, case)
    shutil.copytree(plain, blank)
    blank_lines_in_every_file(blank)
    with pytest.raises(DataError) as err:
        load_dataset(plain)
    line, message = re.fullmatch(rf"{re.escape(str(path))}:(\d+): (.*)", str(err.value)).groups()
    with pytest.raises(DataError) as err:
        load_dataset(blank)
    assert str(err.value) == f"{blank / path.name}:{2 * int(line)}: {message}"


def test_zs_un_token_rule_reads_the_last_field_on_every_line_break(tmp_path):
    """A value that ends as a ZS-Un word ends but is not the last field is no
    leak; a token in the last field is, at the line `str.splitlines` numbers,
    whichever character ends the lines before it."""
    path = tmp_path / "rows.tsv"
    path.write_text("aa\tx-ave\tone two\r\n\faa\te1\tone\x1caa\te1\tone word-ave\n",
                    encoding="utf-8")
    fields = ("lang", "entity", "tokens")
    with pytest.raises(DataError, match=re.escape(f"{path}:4: training record in a "
                                                  f"zero-shot-unseen language (ZS-Un is ag)")):
        list(read_rows(path, fields, {}, {"ag": "-ave"}))
    path.write_text("aa\tx-ave\tone two\naa\te1\tword-aves\n", encoding="utf-8")
    assert len(list(read_rows(path, fields, {}, {"ag": "-ave"}))) == 2


def test_missing_gold_label_still_loads(micro_data, tmp_path):
    """A test record whose gold entity has no label in the record's language
    loads: the gold is only missing from the candidates, a warning and a rank
    of inf at eval."""
    d = tmp_path / "data"
    shutil.copytree(micro_data, d)
    (zu,) = load_split(d / "split.tsv").zs_un
    ds = load_dataset(d)
    heads = {t.head for _, t in ds.comp_test[zu]}
    golds = [t.tail for _, t in ds.comp_test[zu]] + [eid for _, _, eid in ds.align_test[zu]]
    gold = next(e for e in golds if e not in heads)
    drop_label(d / "entities.tsv", gold, zu)
    assert zu not in load_dataset(d).mlkg.entities[gold].labels
