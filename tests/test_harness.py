import csv
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verimoa.errors import CorruptTraceError, DomainError, MissingFileError
from verimoa.harness import (
    CURVES_NAME,
    REPORT_NAME,
    SIMILARITY_KIND,
    build_report,
    pairwise_similarity,
    pass_at_k,
    pass_table,
    scan_run,
    vendi_from_similarity,
    vendi_score,
)


class TestPassAtK:
    @pytest.mark.parametrize(
        "n,c,k",
        [(5, -1, 1), (5, 6, 1), (5, 2, 0), (5, 2, 6)],
    )
    def test_domain(self, n, c, k):
        with pytest.raises(DomainError):
            pass_at_k(n, c, k)

    def test_hand_values(self):
        assert pass_at_k(5, 2, 1) == pytest.approx(0.4)
        assert pass_at_k(5, 0, 3) == 0.0
        assert pass_at_k(5, 5, 1) == 1.0
        assert pass_at_k(5, 4, 2) == 1.0  # fewer failures than draws
        assert pass_at_k(10, 3, 5) == pytest.approx(11 / 12)

    def test_fraction_oracle_spot(self):
        n, c, k = 12, 5, 4
        expected = 1 - Fraction(math.comb(n - c, k), math.comb(n, k))
        assert pass_at_k(n, c, k) == pytest.approx(float(expected), abs=1e-12)

    @given(
        n=st.integers(1, 30),
        k=st.integers(1, 30),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_c(self, n, k, data):
        if k > n:
            k = n
        c = data.draw(st.integers(0, n - 1))
        low = pass_at_k(n, c, k)
        high = pass_at_k(n, c + 1, k)
        assert 0.0 <= low <= high <= 1.0

    @given(
        n=st.integers(2, 30),
        c=st.integers(0, 30),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_k(self, n, c, data):
        c = min(c, n)
        k = data.draw(st.integers(1, n - 1))
        assert pass_at_k(n, c, k) <= pass_at_k(n, c, k + 1) + 1e-12


class TestSimilarity:
    def test_unit_diagonal_and_symmetry(self):
        K = pairwise_similarity(["module a;", "module b;", "wire x;"])
        assert np.allclose(np.diag(K), 1.0)
        assert np.allclose(K, K.T)

    def test_whitespace_is_invisible(self):
        K = pairwise_similarity(["assign y = a;", "assign   y\n=\ta;"])
        assert K[0, 1] == pytest.approx(1.0)

    def test_disjoint_grams_are_orthogonal(self):
        K = pairwise_similarity(["aaaa", "bbbb"])
        assert K[0, 1] == 0.0

    def test_degenerate_texts(self):
        # Under three normalized characters there are no 3-grams at all.
        K = pairwise_similarity(["", "ab", "abcdef"])
        assert K[0, 1] == 1.0  # degenerate pair: identical
        assert K[0, 2] == 0.0
        assert K[1, 2] == 0.0

    def test_positive_semidefinite(self):
        texts = ["module m%d; assign y = a %s b;" % (i, op)
                 for i, op in enumerate(["&", "|", "^", "&", "~^"])]
        K = pairwise_similarity(texts)
        assert np.linalg.eigvalsh(K).min() > -1e-9


class TestVendi:
    def test_identity_matrix_counts_everything(self):
        assert vendi_from_similarity(np.eye(4)) == pytest.approx(4.0)

    def test_all_ones_counts_one(self):
        assert vendi_from_similarity(np.ones((5, 5))) == pytest.approx(1.0)

    def test_two_by_two_closed_form(self):
        s = 0.5
        K = np.array([[1.0, s], [s, 1.0]])
        lams = [(1 + s) / 2, (1 - s) / 2]
        expected = math.exp(-sum(l * math.log(l) for l in lams))
        assert vendi_from_similarity(K) == pytest.approx(expected)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            vendi_from_similarity(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            vendi_from_similarity(np.zeros((0, 0)))

    def test_empty_candidate_list(self):
        with pytest.raises(DomainError):
            vendi_score([])

    def test_single_candidate(self):
        assert vendi_score(["module m; endmodule"]) == pytest.approx(1.0)

    def test_orthogonal_candidates_count_fully(self):
        texts = [chr(ord("a") + i) * 4 for i in range(5)]
        assert vendi_score(texts) == pytest.approx(5.0)

    def test_duplicates_shrink_the_count(self):
        value = vendi_score(["aaaa", "aaaa", "bbbb"])
        expected = math.exp(-(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3)))
        assert value == pytest.approx(expected)
        assert 1.0 < value < 3.0

    def test_permutation_invariant(self):
        texts = ["assign y = a & b;", "assign y = a | b;", "always @(*) y = a;"]
        assert vendi_score(texts) == pytest.approx(vendi_score(texts[::-1]))


# -- synthetic run directories ----------------------------------------------


def result_event(syntax=True, functional=True):
    return {
        "event": "trial_result",
        "syntax_pass": syntax,
        "functional_pass": functional,
    }


def insert_event(branch, value=0.8):
    return {
        "event": "cache_insert",
        "kind": "hdl",
        "score": {"branch": branch, "value": value},
    }


def stats_event(layer, minimum, mean, vendi, window_values):
    return {
        "event": "layer_stats",
        "layer": layer,
        "min_top_n": minimum,
        "mean_top_n": mean,
        "vendi_top_n": vendi,
        "window_values": window_values,
    }


def write_run(root, traces, problems=None, trials=None, manifest=None):
    """traces: {(problem, trial): [events] or None (no trace file)}."""
    problems = problems or sorted({p for p, _ in traces})
    trials = trials or (max(t for _, t in traces) + 1)
    if manifest is None:
        manifest = {
            "benchmark": "synthetic",
            "problems": problems,
            "config": {"trials": trials},
        }
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    for (problem, trial), events in traces.items():
        if events is None:
            continue
        tdir = os.path.join(root, problem, str(trial))
        os.makedirs(tdir, exist_ok=True)
        with open(os.path.join(tdir, "trace.jsonl"), "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
    return root


class TestScanRun:
    def test_counts_passes_and_branches(self, tmp_path):
        run = write_run(str(tmp_path), {
            ("p1", 0): [insert_event("perfect"), result_event(True, True)],
            ("p1", 1): [insert_event("functional_fail"), result_event(True, False)],
            ("p2", 0): [insert_event("syntax_fail"), result_event(False, False)],
            ("p2", 1): [result_event(True, True)],
        })
        scan = scan_run(run)
        assert scan.benchmark == "synthetic"
        assert scan.n_trials == 2
        assert scan.per_problem_c == {"p1": 1, "p2": 1}
        assert scan.per_problem_branches["p1"]["perfect"] == 1
        assert scan.per_problem_branches["p1"]["functional_fail"] == 1
        assert scan.incomplete == 0

    def test_trial_error_is_complete_non_pass(self, tmp_path):
        run = write_run(str(tmp_path), {
            ("p1", 0): [{"event": "trial_error", "error_code": "pipeline_failure"}],
            ("p1", 1): [result_event(True, True)],
        })
        scan = scan_run(run)
        assert scan.per_problem_c == {"p1": 1}
        assert scan.incomplete == 0

    def test_missing_trace_is_incomplete(self, tmp_path):
        run = write_run(str(tmp_path), {
            ("p1", 0): [result_event(True, True)],
            ("p1", 1): None,
        })
        scan = scan_run(run)
        assert scan.incomplete == 1
        assert scan.per_problem_c == {"p1": 1}

    def test_truncated_trace_is_incomplete(self, tmp_path):
        run = write_run(str(tmp_path), {
            ("p1", 0): [insert_event("perfect")],  # no terminal event
            ("p1", 1): [result_event(True, True)],
        })
        assert scan_run(run).incomplete == 1

    def test_layer_aggregates(self, tmp_path):
        run = write_run(str(tmp_path), {
            ("p1", 0): [
                stats_event(1, 0.8, 0.9, 1.5, [1.0, 0.8]),
                result_event(),
            ],
            ("p1", 1): [
                stats_event(1, 0.6, 0.7, 2.0, [0.8, 0.6]),
                result_event(),
            ],
        })
        scan = scan_run(run)
        assert list(scan.layer_stats) == [1]
        events = scan.layer_stats[1]
        assert [e["min_top_n"] for e in events] == [0.8, 0.6]
        assert [e["mean_top_n"] for e in events] == [0.9, 0.7]
        assert [e["vendi_top_n"] for e in events] == [1.5, 2.0]
        assert [e["window_values"] for e in events] == [[1.0, 0.8], [0.8, 0.6]]

    def test_null_layer_stats_ignored(self, tmp_path):
        run = write_run(str(tmp_path), {
            ("p1", 0): [
                stats_event(1, None, None, None, []),
                result_event(),
            ],
        })
        scan = scan_run(run)
        assert scan.layer_stats == {}

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFileError):
            scan_run(str(tmp_path))

    def test_manifest_invalid_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{", encoding="utf-8")
        with pytest.raises(CorruptTraceError):
            scan_run(str(tmp_path))

    def test_manifest_without_trials(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"problems": ["p1"], "config": {}}), encoding="utf-8"
        )
        with pytest.raises(CorruptTraceError, match="trials"):
            scan_run(str(tmp_path))

    @pytest.mark.parametrize("manifest", [
        [1],
        {"problems": ["p1"], "config": 5},
        {"problems": "p1", "config": {"trials": 1}},
        {"problems": [5], "config": {"trials": 1}},
        {"problems": ["p1"], "config": {"trials": "2"}},
        {"problems": ["p1"], "config": {"trials": True}},
    ])
    def test_malformed_manifest_is_corrupt(self, tmp_path, manifest):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CorruptTraceError, match="manifest.json"):
            scan_run(str(tmp_path))

    @pytest.mark.parametrize("event", [
        {"event": "layer_stats", "min_top_n": None, "window_values": []},
        {"event": "layer_stats", "layer": 1, "min_top_n": 0.5},
        {"event": "layer_stats", "layer": [1], "min_top_n": None, "window_values": []},
        stats_event(1, 0.5, None, 1.0, [0.5]),
        stats_event(1, 0.5, 0.5, "1.0", [0.5]),
        stats_event(1, 0.5, 0.5, 1.0, ["0.5"]),
        stats_event(1, 0.5, 0.5, 1.0, 0.5),
        {"event": "trial_result", "functional_pass": True},
        {"event": "trial_result", "syntax_pass": "no", "functional_pass": "no"},
        {"event": "agent_error", "message": "lost"},
        {"event": "agent_error", "error_code": ["x"]},
        {"event": "cache_insert", "kind": "hdl"},
        {"event": "cache_insert", "kind": "hdl", "score": {"value": 0.5}},
        {"event": ["x"]},
        {"event": {"a": 1}},
    ])
    def test_malformed_event_is_corrupt(self, tmp_path, event):
        run = write_run(str(tmp_path), {("p1", 0): [event, result_event()]})
        with pytest.raises(CorruptTraceError, match="trace.jsonl:1: "):
            build_report(run, [1])

    def test_corrupt_trace_names_file_and_line(self, tmp_path):
        run = write_run(str(tmp_path), {("p1", 0): [result_event()]})
        trace = tmp_path / "p1" / "0" / "trace.jsonl"
        trace.write_text('{"event": "trial_start"}\n{broken\n', encoding="utf-8")
        with pytest.raises(CorruptTraceError, match="trace.jsonl:2"):
            scan_run(run)

    def test_non_event_line_rejected(self, tmp_path):
        run = write_run(str(tmp_path), {("p1", 0): [result_event()]})
        trace = tmp_path / "p1" / "0" / "trace.jsonl"
        trace.write_text('["not", "an", "event"]\n', encoding="utf-8")
        with pytest.raises(CorruptTraceError, match="not a trace event"):
            scan_run(run)


class TestPassTable:
    def test_mean_over_problems(self, tmp_path):
        run = write_run(str(tmp_path), {
            ("p1", 0): [result_event(True, True)],
            ("p1", 1): [result_event(True, True)],
            ("p2", 0): [result_event(True, False)],
            ("p2", 1): [result_event(False, False)],
        })
        table, warnings = pass_table(scan_run(run), [1, 2])
        assert warnings == []
        assert table.n == 2
        assert table.per_problem_c == {"p1": 2, "p2": 0}
        assert table.per_k[1] == pytest.approx(0.5)
        assert table.per_k[2] == pytest.approx(0.5)

    def test_oversized_k_becomes_warning(self, tmp_path):
        run = write_run(str(tmp_path), {
            ("p1", 0): [result_event(True, True)],
            ("p1", 1): [result_event(True, True)],
        })
        table, warnings = pass_table(scan_run(run), [1, 5])
        assert list(table.per_k) == [1]
        assert len(warnings) == 1
        assert "k=5" in warnings[0]

    def test_json_keys_are_strings(self, tmp_path):
        run = write_run(str(tmp_path), {
            ("p1", 0): [result_event(True, True)],
        })
        table, _ = pass_table(scan_run(run), [1])
        assert table.to_json()["per_k"] == {"1": 1.0}


class TestBuildReport:
    def full_run(self, tmp_path):
        return write_run(str(tmp_path), {
            ("p1", 0): [
                insert_event("perfect", 1.0),
                stats_event(1, 0.8, 0.9, 1.5, [1.0, 0.8]),
                stats_event(2, 0.9, 0.95, 1.2, [1.0, 0.9]),
                result_event(True, True),
            ],
            ("p1", 1): [
                insert_event("functional_fail", 0.8),
                stats_event(1, 0.6, 0.7, 2.0, [0.8, 0.6]),
                stats_event(2, 0.7, 0.75, 1.4, [0.8, 0.7]),
                result_event(True, False),
            ],
            # an empty first window, then a shorter one: ragged ranks
            ("p1", 2): [
                insert_event("syntax_fail", 0.5),
                stats_event(1, None, None, None, []),
                stats_event(2, 0.5, 0.5, 1.0, [0.5]),
                result_event(False, False),
            ],
        })

    def test_report_shape_and_persistence(self, tmp_path):
        run = self.full_run(tmp_path)
        report = build_report(run, [1, 2])
        assert set(report) == {
            "generated_at", "benchmark", "problems", "n_trials",
            "incomplete_trials", "pass_at_k", "per_layer", "diversity",
            "failure_taxonomy", "warnings",
        }
        with open(os.path.join(run, REPORT_NAME), encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == report

    def test_layer_rows(self, tmp_path):
        report = build_report(self.full_run(tmp_path), [1])
        rows = {entry["layer"]: entry for entry in report["per_layer"]}
        assert rows[1]["min_top_n"] == pytest.approx(0.7)
        assert rows[1]["mean_top_n"] == pytest.approx(0.8)
        assert rows[1]["vendi_top_n"] == pytest.approx(1.75)
        assert rows[1]["per_rank_mean"] == {
            "1": pytest.approx(0.9), "2": pytest.approx(0.7),
        }
        assert rows[2]["min_top_n"] == pytest.approx(0.7)
        assert rows[2]["mean_top_n"] == pytest.approx(2.2 / 3)
        assert rows[2]["vendi_top_n"] == pytest.approx(1.2)
        assert rows[2]["per_rank_mean"] == {
            "1": pytest.approx(2.3 / 3), "2": pytest.approx(0.8),
        }

    def test_diversity_and_taxonomy(self, tmp_path):
        report = build_report(self.full_run(tmp_path), [1])
        assert report["diversity"]["similarity_kind"] == SIMILARITY_KIND
        assert report["diversity"]["per_layer_vendi"] == [
            pytest.approx(1.75), pytest.approx(1.2),
        ]
        assert report["failure_taxonomy"]["p1"] == {
            "perfect": 1, "functional_fail": 1, "syntax_fail": 1,
        }

    def test_pass_section(self, tmp_path):
        report = build_report(self.full_run(tmp_path), [1, 2, 9])
        assert report["pass_at_k"]["per_k"] == {
            "1": pytest.approx(1 / 3), "2": pytest.approx(2 / 3),
        }
        assert report["pass_at_k"]["n"] == 3
        assert any("k=9" in w for w in report["warnings"])

    def test_curves_csv(self, tmp_path):
        run = self.full_run(tmp_path)
        build_report(run, [1], write_csv=True)
        with open(os.path.join(run, CURVES_NAME), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["layer"] for r in rows] == ["1", "2"]
        assert set(rows[0]) == {
            "layer", "min_top_n", "mean_top_n", "vendi_top_n",
            "rank1_mean", "rank2_mean",
        }
        assert float(rows[0]["rank1_mean"]) == pytest.approx(0.9)
        assert float(rows[1]["rank1_mean"]) == pytest.approx(2.3 / 3)
        assert float(rows[1]["rank2_mean"]) == pytest.approx(0.8)

    def test_no_stray_temp_files(self, tmp_path):
        run = self.full_run(tmp_path)
        build_report(run, [1])
        leftovers = [n for n in os.listdir(run) if n.startswith(".report-")]
        assert leftovers == []
