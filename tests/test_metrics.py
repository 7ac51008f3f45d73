import csv
import hashlib
import io
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surgcurate.apportion import format_points, round_to_points
from surgcurate.artifact import forget_digests, noted_digests
from surgcurate.corpus import UnknownDataset
from surgcurate.metrics import (
    ColumnMismatch,
    DomainReport,
    EmptyEvaluation,
    EvalRecord,
    InconsistentAccuracy,
    MetricsError,
    MissingDomain,
    MissingVariant,
    Prediction,
    ScoreTable,
    acc_at_1,
    benchmark_table,
    domain_macro,
    emit_report,
    load_reference_benchmark_scores,
    load_reference_domain_deltas,
    load_reference_domain_scores,
    load_reference_prompt_scores,
    macro_delta_cells,
    model_delta,
    overall_macro,
    prompt_delta,
    read_predictions_csv,
    read_scores_csv,
    worst_domain,
)


def _preds(correct, total):
    return [Prediction(f"s{i}", "a" if i < correct else "b", "a") for i in range(total)]


class TestAccAt1:
    def test_all_correct(self):
        assert acc_at_1(_preds(5, 5)) == 100
        assert format_points(acc_at_1(_preds(5, 5))) == "100.00"

    def test_three_of_seven(self):
        acc = acc_at_1(_preds(3, 7))
        assert acc == Fraction(300, 7)
        assert format_points(acc) == "42.86"

    def test_none_correct(self):
        assert format_points(acc_at_1(_preds(0, 4))) == "0.00"

    def test_empty_is_an_error(self):
        with pytest.raises(EmptyEvaluation):
            acc_at_1([])

    @given(total=st.integers(1, 100), correct_frac=st.floats(0, 1))
    def test_matches_brute_recount(self, total, correct_frac):
        correct = int(total * correct_frac)
        records = _preds(correct, total)
        recount = sum(1 for r in records if r.predicted == r.label)
        assert acc_at_1(records) == Fraction(100 * recount, total)


class TestEvalRecord:
    def test_consistency_within_half_a_hundredth(self):
        rec = EvalRecord("d", "m", samples=_preds(3, 7), accuracy=Fraction(4286, 100))
        assert rec.sample_count == 7

    def test_inconsistent_accuracy_rejected(self):
        with pytest.raises(InconsistentAccuracy):
            EvalRecord("d", "m", samples=_preds(3, 7), accuracy=Fraction(44))

    def test_requires_some_signal(self):
        with pytest.raises(EmptyEvaluation):
            EvalRecord("d", "m")


class TestDomainMacro:
    def test_single_dataset_per_domain(self):
        scores = {"cholec80": 50, "hyperkvasir": 60, "cataract-101": 20, "jigsaws": 30}
        macros = domain_macro(scores)
        assert macros == {"Cataract": 20, "Endoscopy": 60, "Laparoscopy": 50, "Robotic": 30}

    def test_two_dataset_mean(self):
        macros = domain_macro({"cholec80": 20, "m2cai16": 40})
        assert macros["Laparoscopy"] == 30

    def test_three_dataset_mean(self):
        macros = domain_macro({"cataract-21": 10, "cataract-101": 20, "cataracts-1k": 30})
        assert macros["Cataract"] == 20

    def test_order_invariance(self):
        a = domain_macro({"cholec80": 20, "m2cai16": 40, "jigsaws": 10})
        b = domain_macro({"jigsaws": 10, "m2cai16": 40, "cholec80": 20})
        assert a == b

    def test_unknown_dataset(self):
        with pytest.raises(UnknownDataset):
            domain_macro({"mystery": 1})


class TestOverallMacro:
    def test_published_anchor_rows(self):
        sr_mae = {"Cataract": "22.23", "Robotic": "47.37", "Endoscopy": "71.49", "Laparoscopy": "33.11"}
        assert format_points(overall_macro(sr_mae)) == "43.55"
        v_mae = {"Cataract": "19.09", "Robotic": "42.22", "Endoscopy": "62.12", "Laparoscopy": "29.05"}
        assert format_points(overall_macro(v_mae)) == "38.12"

    def test_all_equal(self):
        x = Fraction(1234, 100)
        scores = {d: x for d in ("Cataract", "Robotic", "Endoscopy", "Laparoscopy")}
        assert overall_macro(scores) == x

    def test_missing_domain(self):
        with pytest.raises(MissingDomain):
            overall_macro({"Cataract": 1, "Robotic": 2, "Endoscopy": 3})

    def test_unexpected_domain(self):
        scores = {d: 1 for d in ("Cataract", "Robotic", "Endoscopy", "Laparoscopy", "Mixed")}
        with pytest.raises(MissingDomain):
            overall_macro(scores)


class TestWorstDomain:
    def test_published_anchors(self):
        sr_mae = {"Cataract": "22.23", "Robotic": "47.37", "Endoscopy": "71.49", "Laparoscopy": "33.11"}
        assert worst_domain(sr_mae) == ("Cataract", Fraction(2223, 100))
        v_mae = {"Cataract": "19.09", "Robotic": "42.22", "Endoscopy": "62.12", "Laparoscopy": "29.05"}
        assert worst_domain(v_mae) == ("Cataract", Fraction(1909, 100))

    def test_tie_breaks_lexicographically(self):
        assert worst_domain({"Robotic": 5, "Cataract": 5})[0] == "Cataract"


class TestDeltas:
    def test_prompt_delta_anchors(self):
        assert format_points(prompt_delta("28.26", "36.96"), signed=True) == "+8.70"
        assert format_points(prompt_delta("7.84", "3.92"), signed=True) == "-3.92"
        assert format_points(prompt_delta("5", "5"), signed=True) == "+0.00"

    def test_missing_variant(self):
        with pytest.raises(MissingVariant):
            prompt_delta(None, "1.0")

    def test_model_delta_anchor_rows(self):
        sr_mae = {"Cataract": "22.23", "Robotic": "47.37", "Endoscopy": "71.49", "Laparoscopy": "33.11"}
        v_mae = {"Cataract": "19.09", "Robotic": "42.22", "Endoscopy": "62.12", "Laparoscopy": "29.05"}
        cells = macro_delta_cells(sr_mae, v_mae)
        assert format_points(cells["Overall Macro"], signed=True) == "+5.43"
        assert format_points(cells["Worst Domain"], signed=True) == "+3.14"
        wo_bal = {"Cataract": "17.87", "Robotic": "22.80", "Endoscopy": "56.73", "Laparoscopy": "35.50"}
        cells = macro_delta_cells(sr_mae, wo_bal)
        assert format_points(cells["Robotic"], signed=True) == "+24.57"

    def test_identical_rows_are_zero(self):
        row = {"Cataract": 1, "Robotic": 2, "Endoscopy": 3, "Laparoscopy": 4}
        assert all(v == 0 for v in model_delta(row, dict(row)).values())

    def test_column_mismatch(self):
        with pytest.raises(ColumnMismatch):
            model_delta({"a": 1}, {"b": 1})


class TestDomainReport:
    def test_from_dataset_scores(self):
        scores = {"cholec80": 50, "hyperkvasir": 60, "cataract-101": 20, "jigsaws": 30}
        report = DomainReport.from_dataset_scores(scores)
        assert report.overall == 40
        assert report.worst == ("Cataract", 20)
        assert report.member_map["Laparoscopy"] == ["cholec80"]


class TestReferenceFixtures:
    def test_prompt_triples_are_48_and_deltas_match(self):
        rows = load_reference_prompt_scores()
        assert len(rows) == 48
        assert len({r.dataset_id for r in rows}) == 16
        assert len({r.model_id for r in rows}) == 3
        for row in rows:
            delta = prompt_delta(row.p1, row.p2)
            assert abs(delta - row.published_delta) <= Fraction(1, 100)

    def test_domain_rows_reproduce_published_aggregates(self):
        rows = load_reference_domain_scores()
        assert len(rows) == 5
        for row in rows:
            assert abs(overall_macro(row.domain_scores) - row.published_overall) <= Fraction(1, 100)
            name, score = worst_domain(row.domain_scores)
            assert name == row.published_worst_domain
            assert abs(score - row.published_worst_score) <= Fraction(1, 100)

    def test_delta_rows_reproduce_published_cells(self):
        scores = {r.model_id: r.domain_scores for r in load_reference_domain_scores()}
        for spec in load_reference_domain_deltas():
            cells = macro_delta_cells(scores[spec.model_id], scores[spec.baseline_id])
            for domain in ("Cataract", "Robotic", "Endoscopy", "Laparoscopy"):
                assert abs(cells[domain] - spec.published[domain]) <= Fraction(1, 100)
            assert abs(cells["Overall Macro"] - spec.published["overall_macro"]) <= Fraction(1, 100)
            assert abs(cells["Worst Domain"] - spec.published["worst_domain_score"]) <= Fraction(1, 100)


class TestEmitReport:
    def test_single_row_csv_is_header_plus_one_line(self):
        table = ScoreTable("", "Dataset", ["m1"], [("d1", {"m1": Fraction(50)})])
        text = emit_report(table, format="csv")
        assert text.splitlines() == ["Dataset,m1", "d1,50.00"]

    def test_markdown_single_data_row(self):
        table = ScoreTable("", "Dataset", ["m1", "m2"], [("d1", {"m1": Fraction(50), "m2": Fraction(40)})])
        lines = emit_report(table, format="markdown").splitlines()
        assert lines == [
            "| Dataset | m1 | m2 |",
            "| --- | ---: | ---: |",
            "| d1 | **50.00** | 40.00 |",
        ]

    def test_tied_maxima_all_bolded(self):
        bench = load_reference_benchmark_scores()
        table = benchmark_table(bench)
        text = emit_report(table, format="markdown")
        m2cai_row = next(ln for ln in text.splitlines() if ln.startswith("| m2cai16 "))
        assert m2cai_row.count("**38.05**") == 2

    def test_csv_roundtrip_preserves_numbers(self):
        bench = load_reference_benchmark_scores()
        table = benchmark_table(bench)
        text = emit_report(table, format="csv")
        rows = list(csv.reader(io.StringIO(text)))
        header, data = rows[0], rows[1:]
        assert header[0] == "Dataset"
        for row in data:
            for model, cell in zip(header[1:], row[1:]):
                expected = round_to_points(bench[row[0]][model])
                assert Fraction(cell) == expected

    def test_byte_identical_rendering(self):
        bench = load_reference_benchmark_scores()
        a = emit_report(benchmark_table(bench))
        b = emit_report(benchmark_table(bench))
        assert a == b

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(ScoreTable("", "r", [], []), format="html")


class TestCsvReaders:
    def test_rows_split_as_the_csv_module_splits_a_file_opened_with_newline_empty(self, tmp_path):
        """CRLF and lone-CR line ends, and line ends inside quoted fields."""
        path = tmp_path / "p.csv"
        path.write_bytes(b'sample_id,predicted,label\r\ns1,x,x\r\n"s\r\n2",y,x\rs3,z,"z\nq"\n\n')
        assert read_predictions_csv(path) == [
            Prediction("s1", "x", "x"), Prediction("s\r\n2", "y", "x"), Prediction("s3", "z", "z\nq"),
        ]

    def test_the_bytes_read_are_the_digest_noted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"dataset,model,variant,acc\ncholec80,m,,50.5\n")
        forget_digests()
        assert read_scores_csv(path) == [EvalRecord("cholec80", "m", None, accuracy=Fraction(101, 2))]
        assert noted_digests("read") == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}

    @pytest.mark.parametrize(
        "rows, line, fields",
        [("s1,x,x\ns2,x\n", 3, 2), ("s1,x,x,y\n", 2, 4), ("s1,x,x\n\n\"s\n2\",y,x,\n", 5, 4)],
        ids=["short-row", "long-row", "long-row-after-a-blank-and-a-quoted-line-end"],
    )
    def test_a_row_whose_field_count_is_not_the_headers_names_its_line(self, tmp_path, rows, line, fields):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,predicted,label\n" + rows, encoding="utf-8")
        with pytest.raises(MetricsError, match=f"p.csv:{line}: {fields} fields where the header has 3$"):
            read_predictions_csv(path)

    def test_a_scores_row_with_an_extra_field_is_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dataset,model,variant,acc\ncholec80,m,,50.5,7\n", encoding="utf-8")
        with pytest.raises(MetricsError, match="s.csv:2: 5 fields where the header has 4$"):
            read_scores_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,label\ns1,x\n", encoding="utf-8")
        with pytest.raises(MetricsError, match="p.csv: predictions CSV needs columns"):
            read_predictions_csv(path)
