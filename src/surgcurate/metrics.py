"""Benchmark aggregation: Acc@1, domain macros, worst domain, prompt deltas.

Scores are carried as exact rationals end to end and rounded only at
display time (two decimals, ties away from zero). Chaining already-rounded
values would fail to reproduce published delta rows exactly, so every
aggregate here is computed from the exact inputs.

Domain membership for macro aggregation is explicit configuration: the
shipped reference score rows are usable both as direct domain-score inputs
and as regression fixtures for the macro / minimum / delta arithmetic.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .apportion import as_fraction, format_points, round_to_points
from .artifact import SurgcurateError, read_text
from .corpus import CLINICAL_DOMAINS, Domain, DomainMap

Rational = Union[int, float, str, Fraction]
T = TypeVar("T")


class MetricsError(SurgcurateError):
    pass


class EmptyEvaluation(MetricsError):
    pass


class MissingDomain(MetricsError):
    pass


class MissingVariant(MetricsError):
    pass


class ColumnMismatch(MetricsError):
    pass


class InconsistentAccuracy(MetricsError):
    pass


@dataclass(frozen=True)
class Prediction:
    sample_id: str
    predicted: str
    label: str

    @property
    def correct(self) -> bool:
        return self.predicted == self.label


def acc_at_1(records: Sequence[Prediction]) -> Fraction:
    """Top-1 accuracy in percent: 100 * correct / total, exact."""
    records = list(records)
    if not records:
        raise EmptyEvaluation("no samples to score")
    correct = sum(1 for r in records if r.correct)
    return Fraction(100 * correct, len(records))


@dataclass
class EvalRecord:
    """One (dataset, model, variant) evaluation result.

    Carries either per-sample predictions, a precomputed accuracy, or
    both; when both are present they must agree within 0.005 points.
    """

    dataset_id: str
    model_id: str
    variant: str | None = None
    samples: list[Prediction] | None = None
    accuracy: Fraction | None = None
    sample_count: int | None = None

    def __post_init__(self) -> None:
        if self.accuracy is not None:
            self.accuracy = as_fraction(self.accuracy)
        if self.samples is not None:
            recomputed = acc_at_1(self.samples)
            if self.accuracy is None:
                self.accuracy = recomputed
            elif abs(self.accuracy - recomputed) > Fraction(5, 1000):
                raise InconsistentAccuracy(
                    f"{self.dataset_id}/{self.model_id}: stored accuracy "
                    f"{float(self.accuracy):.4f} vs recomputed {float(recomputed):.4f}"
                )
            self.sample_count = len(self.samples)
        if self.accuracy is None:
            raise EmptyEvaluation(f"{self.dataset_id}/{self.model_id}: no samples and no accuracy")


def _score_map(scores: Mapping) -> dict[str, Fraction]:
    out = {}
    for key, value in scores.items():
        name = key.value if isinstance(key, Domain) else str(key)
        out[name] = as_fraction(value)
    return out


def domain_macro(
    per_dataset: Mapping[str, Rational], domain_map: DomainMap | None = None
) -> dict[str, Fraction]:
    """Unweighted mean of member-dataset scores per domain."""
    domain_map = domain_map or DomainMap.default()
    groups: dict[str, list[Fraction]] = {}
    for dataset_id in sorted(per_dataset):
        domain = domain_map.domain_of(dataset_id)  # raises UnknownDataset
        groups.setdefault(domain.value, []).append(as_fraction(per_dataset[dataset_id]))
    return {dom: sum(vals) / len(vals) for dom, vals in sorted(groups.items())}


def overall_macro(domain_scores: Mapping) -> Fraction:
    """Unweighted mean across exactly the four clinical domains."""
    scores = _score_map(domain_scores)
    expected = {d.value for d in CLINICAL_DOMAINS}
    if set(scores) != expected:
        missing = expected - set(scores)
        extra = set(scores) - expected
        detail = []
        if missing:
            detail.append(f"missing {sorted(missing)}")
        if extra:
            detail.append(f"unexpected {sorted(extra)}")
        raise MissingDomain("overall macro needs exactly the four clinical domains: " + ", ".join(detail))
    return sum(scores.values()) / len(scores)


def worst_domain(domain_scores: Mapping) -> tuple[str, Fraction]:
    """Minimum domain score; ties go to the lexicographically first name."""
    scores = _score_map(domain_scores)
    if not scores:
        raise EmptyEvaluation("no domain scores")
    name = min(sorted(scores), key=lambda d: scores[d])
    return name, scores[name]


def prompt_delta(p1: Rational | None, p2: Rational | None) -> Fraction:
    """Signed points difference between two prompt variants (P2 - P1)."""
    if p1 is None or p2 is None:
        raise MissingVariant("both prompt variants must be present")
    return as_fraction(p2) - as_fraction(p1)


def model_delta(model_rows: Mapping, baseline_rows: Mapping) -> dict[str, Fraction]:
    """Elementwise (model - baseline) over identical columns."""
    a = _score_map(model_rows)
    b = _score_map(baseline_rows)
    if set(a) != set(b):
        raise ColumnMismatch(f"columns differ: {sorted(set(a) ^ set(b))}")
    return {col: a[col] - b[col] for col in sorted(a)}


@dataclass
class DomainReport:
    """Per-domain macro scores plus the overall and worst aggregates."""

    domain_scores: dict[str, Fraction]
    overall: Fraction
    worst: tuple[str, Fraction]
    member_map: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def from_dataset_scores(
        cls, per_dataset: Mapping[str, Rational], domain_map: DomainMap | None = None
    ) -> "DomainReport":
        domain_map = domain_map or DomainMap.default()
        scores = domain_macro(per_dataset, domain_map)
        members: dict[str, list[str]] = {}
        for dataset_id in sorted(per_dataset):
            members.setdefault(domain_map.domain_of(dataset_id).value, []).append(dataset_id)
        return cls(
            domain_scores=scores,
            overall=overall_macro(scores),
            worst=worst_domain(scores),
            member_map=members,
        )


# -- report rendering ---------------------------------------------------------


@dataclass
class ScoreTable:
    """A rectangular score report: one labelled row per subject."""

    title: str
    row_label: str
    columns: list[str]
    rows: list[tuple[str, dict[str, Fraction | None]]]
    signed: bool = False
    bold_max: bool = True
    signed_columns: frozenset[str] = frozenset()

    def is_signed(self, column: str) -> bool:
        return self.signed or column in self.signed_columns


def _render_markdown(table: ScoreTable) -> str:
    lines = []
    if table.title:
        lines.append(f"### {table.title}")
        lines.append("")
    lines.append("| " + " | ".join([table.row_label] + table.columns) + " |")
    lines.append("| " + " | ".join(["---"] + ["---:"] * len(table.columns)) + " |")
    for label, cells in table.rows:
        values = {c: cells.get(c) for c in table.columns}
        present = [v for v in values.values() if v is not None]
        row_max = max(round_to_points(v) for v in present) if (present and table.bold_max) else None
        rendered = []
        for col in table.columns:
            v = values[col]
            if v is None:
                rendered.append("")
                continue
            text = format_points(v, signed=table.is_signed(col))
            if row_max is not None and round_to_points(v) == row_max:
                text = f"**{text}**"
            rendered.append(text)
        lines.append("| " + " | ".join([label] + rendered) + " |")
    return "\n".join(lines) + "\n"


def _render_csv(table: ScoreTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([table.row_label] + table.columns)
    for label, cells in table.rows:
        row = [label]
        for col in table.columns:
            v = cells.get(col)
            row.append("" if v is None else format_points(v, signed=table.is_signed(col)))
        writer.writerow(row)
    return buf.getvalue()


def emit_report(tables: ScoreTable | Iterable[ScoreTable], format: str = "markdown") -> str:
    """Render one or more tables; byte-identical for identical input.

    Markdown marks each row's maxima in bold (all of them on ties); CSV is
    plain and round-trips the displayed values.
    """
    if isinstance(tables, ScoreTable):
        tables = [tables]
    if format == "markdown":
        return "\n".join(_render_markdown(t) for t in tables)
    if format == "csv":
        return "\n".join(_render_csv(t) for t in tables)
    raise ValueError(f"unknown report format {format!r}")


# -- CSV ingestion ------------------------------------------------------------


def _read_csv(path: str | Path, required: set[str], message: str, build: Callable[[dict[str, str]], T]) -> list[T]:
    """build(row) for each row of a UTF-8 CSV file with the `required`
    columns, read and hashed in one pass (artifact.read_text). Text that is
    not UTF-8, that the csv module rejects, a row whose field count is not
    the header's, or a row build raises ValueError or TypeError on, is a
    MetricsError naming path:line; missing columns raise
    MetricsError(f"{path}: {message}"). Blank lines are skipped, as
    csv.DictReader skips them; `row` maps each header field to its value."""
    rows = csv.reader(io.StringIO(read_text(path, MetricsError), newline=""))
    try:
        header = next(rows, None)
        if header is None or not required <= set(header):
            raise MetricsError(f"{path}: {message}")
        width, built = len(header), []
        for row in rows:
            if len(row) != width:
                if not row:
                    continue
                raise MetricsError(f"{path}:{rows.line_num}: {len(row)} fields where the header has {width}")
            built.append(build(dict(zip(header, row))))
        return built
    except (csv.Error, ValueError, TypeError) as exc:
        raise MetricsError(f"{path}:{rows.line_num}: {type(exc).__name__}: {exc}") from exc


def read_predictions_csv(path: str | Path) -> list[Prediction]:
    """Predictions CSV: sample_id, predicted, label."""
    required = {"sample_id", "predicted", "label"}
    return _read_csv(
        path, required, f"predictions CSV needs columns {sorted(required)}",
        lambda row: Prediction(row["sample_id"], row["predicted"], row["label"]),
    )


def read_scores_csv(path: str | Path) -> list[EvalRecord]:
    """Scores CSV: dataset, model, variant (optional), acc."""
    return _read_csv(
        path, {"dataset", "model", "acc"}, "scores CSV needs columns dataset, model, acc",
        lambda row: EvalRecord(
            dataset_id=row["dataset"],
            model_id=row["model"],
            variant=row.get("variant") or None,
            accuracy=as_fraction(row["acc"]),
        ),
    )


# -- shipped reference fixtures -----------------------------------------------


def _data_text(name: str) -> str:
    from importlib import resources  # here, not at import: it costs every command's start-up

    return resources.files("surgcurate.data").joinpath(name).read_text("utf-8")


@dataclass(frozen=True)
class PromptSensitivityRow:
    dataset_id: str
    model_id: str
    p1: Fraction
    p2: Fraction
    published_delta: Fraction


def load_reference_prompt_scores() -> list[PromptSensitivityRow]:
    """Shipped P1/P2/delta reference triples (48 rows)."""
    rows = []
    for row in csv.DictReader(_data_text("vlm_prompt_scores.csv").splitlines()):
        rows.append(
            PromptSensitivityRow(
                dataset_id=row["dataset"],
                model_id=row["model"],
                p1=as_fraction(row["p1"]),
                p2=as_fraction(row["p2"]),
                published_delta=as_fraction(row["delta"]),
            )
        )
    return rows


@dataclass(frozen=True)
class DomainScoreRow:
    model_id: str
    domain_scores: Mapping[str, Fraction]
    published_overall: Fraction
    published_worst_score: Fraction
    published_worst_domain: str


_DOMAIN_COLUMNS = {"cataract": "Cataract", "robotic": "Robotic", "endoscopy": "Endoscopy", "laparoscopy": "Laparoscopy"}


def load_reference_domain_scores() -> list[DomainScoreRow]:
    """Shipped per-domain macro rows with their published aggregates."""
    rows = []
    for row in csv.DictReader(_data_text("domain_macro_scores.csv").splitlines()):
        rows.append(
            DomainScoreRow(
                model_id=row["model"],
                domain_scores={dom: as_fraction(row[col]) for col, dom in _DOMAIN_COLUMNS.items()},
                published_overall=as_fraction(row["overall_macro"]),
                published_worst_score=as_fraction(row["worst_domain_score"]),
                published_worst_domain=row["worst_domain"],
            )
        )
    return rows


@dataclass(frozen=True)
class DomainDeltaRow:
    model_id: str
    baseline_id: str
    published: Mapping[str, Fraction]  # domain names plus overall_macro / worst_domain_score


def load_reference_domain_deltas() -> list[DomainDeltaRow]:
    rows = []
    for row in csv.DictReader(_data_text("domain_macro_deltas.csv").splitlines()):
        published = {dom: as_fraction(row[col]) for col, dom in _DOMAIN_COLUMNS.items()}
        published["overall_macro"] = as_fraction(row["overall_macro"])
        published["worst_domain_score"] = as_fraction(row["worst_domain_score"])
        rows.append(DomainDeltaRow(row["model"], row["baseline"], published))
    return rows


def load_reference_benchmark_scores() -> dict[str, dict[str, Fraction]]:
    """Shipped per-dataset Acc@1 reference: dataset -> model -> score."""
    out: dict[str, dict[str, Fraction]] = {}
    for row in csv.DictReader(_data_text("ssl_benchmark_scores.csv").splitlines()):
        out.setdefault(row["dataset"], {})[row["model"]] = as_fraction(row["acc"])
    return out


# -- table assembly -----------------------------------------------------------

_MACRO_COLUMNS = ["Cataract", "Robotic", "Endoscopy", "Laparoscopy", "Overall Macro", "Worst Domain"]


def benchmark_table(
    per_dataset: Mapping[str, Mapping[str, Rational]],
    model_order: Sequence[str] | None = None,
    title: str = "Acc@1 (%) per dataset",
) -> ScoreTable:
    """Dataset rows x model columns, best cell(s) per row bolded."""
    if model_order is None:
        model_order = sorted({m for cells in per_dataset.values() for m in cells})
    rows = []
    for dataset in sorted(per_dataset):
        cells = {m: as_fraction(v) for m, v in per_dataset[dataset].items()}
        rows.append((dataset, cells))
    return ScoreTable(title=title, row_label="Dataset", columns=list(model_order), rows=rows)


def domain_macro_table(
    model_rows: Sequence[tuple[str, Mapping]],
    title: str = "Domain macro Acc@1 (%)",
) -> ScoreTable:
    """Model rows with the four domain macros plus overall and worst.

    Rows covering only part of the benchmark render their available
    domains; the overall/worst aggregates need all four domains.
    """
    rows = []
    for model, scores in model_rows:
        named = _score_map(scores)
        # the aggregates cover the four clinical columns only; a Mixed-domain
        # macro (corpus-only datasets) has no column in this table
        clinical = {dom: named.get(dom) for dom in _MACRO_COLUMNS[:4]}
        complete = all(v is not None for v in clinical.values())
        cells: dict[str, Fraction | None] = {
            **clinical,
            "Overall Macro": overall_macro(clinical) if complete else None,
            "Worst Domain": worst_domain(clinical)[1] if complete else None,
        }
        rows.append((model, cells))
    return ScoreTable(
        title=title,
        row_label="Model",
        columns=list(_MACRO_COLUMNS),
        rows=rows,
        bold_max=False,
    )


def macro_delta_cells(model_scores: Mapping, baseline_scores: Mapping) -> dict[str, Fraction]:
    """One macro-delta row: per-domain deltas plus the deltas of the
    Overall Macro and Worst Domain aggregates (the latter is the
    difference of the two worst scores, not the minimum delta)."""
    deltas = model_delta(model_scores, baseline_scores)
    cells = {dom: deltas[dom] for dom in _MACRO_COLUMNS[:4]}
    cells["Overall Macro"] = overall_macro(model_scores) - overall_macro(baseline_scores)
    cells["Worst Domain"] = worst_domain(model_scores)[1] - worst_domain(baseline_scores)[1]
    return cells


def macro_delta_table(rows: Sequence[tuple[str, Mapping, Mapping]]) -> ScoreTable:
    """Delta rows (label, model_scores, baseline_scores) in macro layout."""
    return ScoreTable(
        title="Macro deltas (points)",
        row_label="Comparison",
        columns=list(_MACRO_COLUMNS),
        rows=[(label, macro_delta_cells(a, b)) for label, a, b in rows],
        signed=True,
        bold_max=False,
    )


def prompt_sensitivity_table(
    model_id: str, variant_rows: Mapping[str, tuple[Rational, Rational]]
) -> ScoreTable:
    """Per-dataset P1/P2 scores and the computed delta for one model."""
    rows = []
    for dataset in sorted(variant_rows):
        p1, p2 = variant_rows[dataset]
        rows.append(
            (
                dataset,
                {
                    "P1": as_fraction(p1),
                    "P2": as_fraction(p2),
                    "Delta": prompt_delta(p1, p2),
                },
            )
        )
    return ScoreTable(
        title=f"Prompt sensitivity: {model_id}",
        row_label="Dataset",
        columns=["P1", "P2", "Delta"],
        rows=rows,
        bold_max=False,
        signed_columns=frozenset({"Delta"}),
    )


def score_report_tables(records: Sequence[EvalRecord], domain_map: DomainMap | None = None) -> list[ScoreTable]:
    """Render-ready tables from score rows: the per-dataset benchmark and
    its domain macros from rows without a variant, then one
    prompt-sensitivity table per model that has complete P1/P2 pairs."""
    plain = [r for r in records if r.variant is None]
    variants = [r for r in records if r.variant is not None]
    tables = []
    if plain:
        per_dataset: dict[str, dict[str, Fraction]] = {}
        per_model: dict[str, dict[str, Fraction]] = {}
        for rec in plain:
            per_dataset.setdefault(rec.dataset_id, {})[rec.model_id] = rec.accuracy
            per_model.setdefault(rec.model_id, {})[rec.dataset_id] = rec.accuracy
        tables.append(benchmark_table(per_dataset))
        macro_rows = [(model, domain_macro(ds, domain_map)) for model, ds in sorted(per_model.items())]
        tables.append(domain_macro_table(macro_rows, title="Domain macro Acc@1 (%) from per-dataset scores"))
    for model in sorted({r.model_id for r in variants}):
        pairs: dict[str, dict[str, Fraction]] = {}
        for rec in variants:
            if rec.model_id == model:
                pairs.setdefault(rec.dataset_id, {})[rec.variant.upper()] = rec.accuracy
        complete = {ds: (v["P1"], v["P2"]) for ds, v in pairs.items() if {"P1", "P2"} <= set(v)}
        if complete:
            tables.append(prompt_sensitivity_table(model, complete))
    return tables


def reference_report_tables() -> list[ScoreTable]:
    """Render-ready tables built entirely from the shipped reference data:
    the per-dataset benchmark, the domain macro block with computed deltas,
    and one prompt-sensitivity table per evaluated model."""
    bench = load_reference_benchmark_scores()
    model_order = ["dinov3", "dinov3-surg", "v-mae", "sr-mae-wo-bal", "jepa", "sr-mae", "sr-jepa"]
    tables = [benchmark_table(bench, model_order=model_order)]

    domain_rows = load_reference_domain_scores()
    by_model = {r.model_id: r.domain_scores for r in domain_rows}
    macro_order = [r.model_id for r in domain_rows]
    tables.append(domain_macro_table([(m, by_model[m]) for m in macro_order]))

    delta_rows = [
        (f"{spec.model_id} vs {spec.baseline_id}", by_model[spec.model_id], by_model[spec.baseline_id])
        for spec in load_reference_domain_deltas()
    ]
    tables.append(macro_delta_table(delta_rows))

    prompt_rows = load_reference_prompt_scores()
    models = sorted({r.model_id for r in prompt_rows})
    for model in models:
        variant_rows = {r.dataset_id: (r.p1, r.p2) for r in prompt_rows if r.model_id == model}
        tables.append(prompt_sensitivity_table(model, variant_rows))
    return tables
