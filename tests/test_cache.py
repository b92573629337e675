import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_entry
from verimoa.cache import (
    AgentPath,
    CandidateId,
    GlobalCache,
    HdlCacheEntry,
    IntermediateLanguage,
)
from verimoa.errors import DuplicateIdError
from verimoa.orchestrator import _layer_stats


def make_int(layer, slot, value, language=IntermediateLanguage.CPP, refine_round=0):
    """An HDL entry carrying a stage-1 model of this language."""
    path = AgentPath.CPP if language is IntermediateLanguage.CPP else AgentPath.PY
    return make_entry(
        layer, slot, value, path=path, refine_round=refine_round, intermediate="// model"
    )


class TestCandidateId:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"layer": 0, "slot": 1},
            {"layer": 1, "slot": 0},
            {"layer": 1, "slot": 1, "refine_round": -1},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            CandidateId(path=AgentPath.BASE, **kwargs)

    def test_to_json(self):
        cid = CandidateId(layer=2, slot=3, path=AgentPath.PY, refine_round=1)
        assert cid.to_json() == {
            "layer": 2, "slot": 3, "path": "py", "refine_round": 1,
        }


class TestInsertion:
    def test_duplicate_hdl_id_rejected(self):
        cache = GlobalCache()
        cache.insert_hdl(make_entry(1, 1, 0.8))
        with pytest.raises(DuplicateIdError):
            cache.insert_hdl(make_entry(1, 1, 1.0))

    def test_duplicate_intermediate_id_rejected(self):
        cache = GlobalCache()
        cache.insert_hdl(make_int(1, 2, 0.5))
        with pytest.raises(DuplicateIdError):
            cache.insert_hdl(make_int(1, 2, 0.9))

    def test_hdl_and_intermediate_share_id(self):
        # A two-stage agent's stage 1 model rides on its HDL entry, under
        # the same candidate id, and is selected through it.
        cache = GlobalCache()
        entry = make_int(1, 2, 0.8)
        cache.insert_hdl(entry)
        assert len(cache) == 1
        assert cache.top_n_hdl(2, 5) == [entry]
        assert cache.top_k_intermediate(IntermediateLanguage.CPP, 2, 5) == [entry]

    def test_base_path_carries_no_intermediate(self):
        cid = CandidateId(layer=1, slot=1, path=AgentPath.BASE)
        with pytest.raises(ValueError):
            HdlCacheEntry(id=cid, source="x", score=make_entry(1, 1, 0.5).score,
                          intermediate="int model()")

    def test_len_counts_hdl_only(self):
        cache = GlobalCache()
        cache.insert_hdl(make_entry(1, 1, 0.8))
        cache.insert_hdl(make_int(1, 2, 0.5))
        assert len(cache) == 2


class TestRanking:
    def test_score_descends_first(self):
        cache = GlobalCache()
        cache.insert_hdl(make_entry(1, 1, 0.5))
        cache.insert_hdl(make_entry(1, 2, 1.0))
        cache.insert_hdl(make_entry(1, 3, 0.8))
        values = [e.score.value for e in cache.top_n_hdl(2, 3)]
        assert values == [1.0, 0.8, 0.5]

    def test_tie_prefers_later_layer(self):
        cache = GlobalCache()
        cache.insert_hdl(make_entry(1, 1, 0.8))
        cache.insert_hdl(make_entry(2, 1, 0.8))
        top = cache.top_n_hdl(3, 1)
        assert top[0].id.layer == 2

    def test_tie_prefers_lower_slot(self):
        cache = GlobalCache()
        cache.insert_hdl(make_entry(1, 4, 0.8))
        cache.insert_hdl(make_entry(1, 2, 0.8))
        top = cache.top_n_hdl(2, 1)
        assert top[0].id.slot == 2

    def test_tie_prefers_later_refine_round(self):
        cache = GlobalCache()
        cache.insert_hdl(make_entry(1, 1, 0.8, refine_round=0))
        cache.insert_hdl(make_entry(1, 1, 0.8, refine_round=2))
        top = cache.top_n_hdl(2, 1)
        assert top[0].id.refine_round == 2

    def test_final_tie_breaks_on_path_name(self):
        cache = GlobalCache()
        cache.insert_hdl(make_entry(1, 1, 0.8, path=AgentPath.PY))
        cache.insert_hdl(make_entry(1, 1, 0.8, path=AgentPath.BASE))
        cache.insert_hdl(make_entry(1, 1, 0.8, path=AgentPath.CPP))
        paths = [e.id.path for e in cache.top_n_hdl(2, 3)]
        assert paths == [AgentPath.BASE, AgentPath.CPP, AgentPath.PY]

    def test_insertion_order_irrelevant(self):
        entries = [
            make_entry(layer, slot, value, path=path)
            for layer in (1, 2, 3)
            for slot in (1, 2)
            for path, value in ((AgentPath.BASE, 0.8), (AgentPath.CPP, 0.65))
        ]
        rng = random.Random(11)
        baseline = None
        for _ in range(5):
            rng.shuffle(entries)
            cache = GlobalCache()
            for entry in entries:
                cache.insert_hdl(entry)
            ranked = [e.id for e in cache.top_n_hdl(4, len(entries))]
            if baseline is None:
                baseline = ranked
            assert ranked == baseline


class TestWindows:
    def build(self):
        cache = GlobalCache()
        cache.insert_hdl(make_entry(1, 1, 0.5))
        cache.insert_hdl(make_entry(1, 2, 1.0))
        cache.insert_hdl(make_entry(2, 1, 0.8))
        cache.insert_hdl(make_entry(3, 1, 0.2997))
        return cache

    def test_strictly_before_layer(self):
        cache = self.build()
        seen = {e.id.layer for e in cache.top_n_hdl(3, 10)}
        assert seen == {1, 2}

    def test_layer_one_sees_nothing(self):
        assert self.build().top_n_hdl(1, 5) == []

    def test_n_truncates(self):
        cache = self.build()
        assert [e.score.value for e in cache.top_n_hdl(4, 2)] == [1.0, 0.8]

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            self.build().top_n_hdl(2, 0)

    def stats(self, cache, layer, n):
        """The layer_stats of the window the barrier after layer hands on."""
        writer = ListWriter()
        stats = _layer_stats(cache.top_n_hdl(layer + 1, n), layer, writer, {})
        (event,) = writer
        assert event["event"] == "layer_stats"
        return stats, event

    def test_stats_match_hand_values(self):
        # Window through layer 2, n=3: values {1.0, 0.8, 0.5}.
        stats, event = self.stats(self.build(), 2, 3)
        assert event["window_values"] == [1.0, 0.8, 0.5]
        assert stats["min_top_n"] == 0.5
        assert stats["mean_top_n"] == pytest.approx((1.0 + 0.8 + 0.5) / 3)

    def test_stats_respect_n(self):
        stats, _ = self.stats(self.build(), 2, 2)
        assert stats["min_top_n"] == 0.8
        assert stats["mean_top_n"] == pytest.approx(0.9)

    def test_stats_on_empty_window(self):
        stats, event = self.stats(GlobalCache(), 1, 3)
        assert stats == {"layer": 1, "min_top_n": None, "mean_top_n": None,
                         "vendi_top_n": None}
        assert event["window"] == event["window_values"] == []


class ListWriter(list):
    def write(self, event):
        self.append(event)


class TestIntermediateWindows:
    def build(self):
        cache = GlobalCache()
        cache.insert_hdl(make_int(1, 2, 0.9, IntermediateLanguage.CPP))
        cache.insert_hdl(make_int(1, 3, 0.4, IntermediateLanguage.PYTHON))
        cache.insert_hdl(make_int(2, 2, 0.6, IntermediateLanguage.CPP))
        cache.insert_hdl(make_int(2, 3, 1.0, IntermediateLanguage.PYTHON))
        # entries without a stage-1 model are never intermediate references
        cache.insert_hdl(make_entry(1, 1, 1.0))
        cache.insert_hdl(make_entry(1, 2, 1.0, path=AgentPath.CPP, refine_round=1))
        return cache

    def test_language_filter(self):
        cache = self.build()
        top = cache.top_k_intermediate(IntermediateLanguage.CPP, 3, 5)
        assert [e.score.value for e in top] == [0.9, 0.6]

    def test_layer_filter(self):
        cache = self.build()
        top = cache.top_k_intermediate(IntermediateLanguage.PYTHON, 2, 5)
        assert [e.score.value for e in top] == [0.4]

    def test_k_truncates(self):
        cache = self.build()
        top = cache.top_k_intermediate(IntermediateLanguage.CPP, 3, 1)
        assert [e.score.value for e in top] == [0.9]

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            self.build().top_k_intermediate(IntermediateLanguage.CPP, 2, 0)


def two_list_top_k(entries, language, before_layer, k):
    """The ranking of the former separate intermediate list: one
    (id, language, score) record per stage-1 model, sorted by score
    descending, later layer, lower slot, later round, then path name."""
    languages = {AgentPath.CPP: IntermediateLanguage.CPP,
                 AgentPath.PY: IntermediateLanguage.PYTHON}
    models = [(e.id, languages[e.id.path], e.score.value)
              for e in entries if e.intermediate is not None]
    eligible = [(cid, value) for cid, lang, value in models
                if lang is language and cid.layer < before_layer]
    eligible.sort(key=lambda m: (-m[1], -m[0].layer, m[0].slot,
                                 -m[0].refine_round, m[0].path.value))
    return [cid for cid, _ in eligible[:k]]


candidates = st.lists(
    st.tuples(
        st.integers(1, 4),  # layer
        st.integers(1, 3),  # slot
        st.sampled_from(list(AgentPath)),
        st.integers(0, 2),  # refine round
        st.sampled_from([0.3, 0.65, 0.8, 1.0]),  # few values, many ties
        st.booleans(),  # carries a stage-1 model, where its path has one
    ),
    max_size=40,
    unique_by=lambda c: c[:4],
)


@settings(max_examples=200, deadline=None)
@given(candidates, st.randoms(use_true_random=False))
def test_top_k_intermediate_matches_the_two_list_ranking(candidates, rng):
    entries = [
        make_entry(layer, slot, value, path=path, refine_round=rnd,
                   intermediate="// model" if model and path is not AgentPath.BASE else None)
        for layer, slot, path, rnd, value, model in candidates
    ]
    rng.shuffle(entries)
    cache = GlobalCache()
    for entry in entries:
        cache.insert_hdl(entry)
    assert len(cache) == len(entries)
    for language in IntermediateLanguage:
        for before_layer in range(1, 6):
            for k in (1, 2, 5, 40):
                got = cache.top_k_intermediate(language, before_layer, k)
                assert [e.id for e in got] == two_list_top_k(entries, language, before_layer, k)
