"""Concrete pipeline steps mirroring the Figure-1 stages: discover →
integrate (schema match, entity resolution, consolidation) → clean
(repair, impute)."""

from __future__ import annotations

from typing import Callable

from repro.cleaning.consolidation import consolidate_majority
from repro.cleaning.imputation import _BaseImputer
from repro.cleaning.repair import FDRepairer
from repro.data.dependencies import FunctionalDependency, violation_rate
from repro.data.table import Table
from repro.discovery.search import _IndexedEngine
from repro.discovery.matcher import SemanticMatcher, one_to_one
from repro.orchestration.pipeline import PipelineContext, PipelineError, PipelineStep


class DiscoverStep(PipelineStep):
    """Pick the most relevant tables in a lake for an analyst query."""

    name = "discover"

    def __init__(
        self,
        engine: _IndexedEngine,
        query: str,
        top_k: int = 2,
        output_keys: list[str] | None = None,
    ) -> None:
        self.engine = engine
        self.query = query
        self.top_k = top_k
        self.output_keys = output_keys

    def run(self, context: PipelineContext) -> dict[str, object]:
        hits = self.engine.search(self.query, topn=self.top_k)
        if not hits:
            raise PipelineError(f"discovery found nothing for query {self.query!r}")
        lake = context.artifact("lake")  # dict[str, Table]
        keys = self.output_keys or [f"discovered_{i}" for i in range(len(hits))]
        for key, (table_name, _) in zip(keys, hits):
            context.put_table(key, lake[table_name])
        return {"query": self.query, "hits": [name for name, _ in hits]}


class SchemaMatchStep(PipelineStep):
    """Align the columns of table B onto table A's schema."""

    name = "schema_match"

    def __init__(
        self,
        matcher: SemanticMatcher,
        input_a: str,
        input_b: str,
        output_key: str,
        threshold: float = 0.5,
    ) -> None:
        self.matcher = matcher
        self.input_a = input_a
        self.input_b = input_b
        self.output_key = output_key
        self.threshold = threshold

    def run(self, context: PipelineContext) -> dict[str, object]:
        table_a = context.table(self.input_a)
        table_b = context.table(self.input_b)
        links = self.matcher.match_tables(table_a, table_b, threshold=self.threshold)
        mapping = {link.column_b: link.column_a for link in one_to_one(links)}
        renamed = table_b.rename(mapping, name=f"{table_b.name}_aligned")
        context.put_table(self.output_key, renamed)
        return {"mapped_columns": len(mapping), "mapping": dict(sorted(mapping.items()))}


class ResolveEntitiesStep(PipelineStep):
    """Match records across two tables; store match pairs + clusters."""

    name = "entity_resolution"

    def __init__(
        self,
        matcher: object,  # anything with predict_proba(list[pair]) -> probs
        input_a: str,
        input_b: str,
        id_column: str,
        candidate_fn: Callable[[Table, Table], set[tuple[str, str]]] | None = None,
        threshold: float = 0.5,
        matches_key: str = "matches",
    ) -> None:
        self.matcher = matcher
        self.input_a = input_a
        self.input_b = input_b
        self.id_column = id_column
        self.candidate_fn = candidate_fn
        self.threshold = threshold
        self.matches_key = matches_key

    def run(self, context: PipelineContext) -> dict[str, object]:
        table_a = context.table(self.input_a)
        table_b = context.table(self.input_b)
        ids_a = [str(v) for v in table_a.column(self.id_column)]
        ids_b = [str(v) for v in table_b.column(self.id_column)]
        if self.candidate_fn is not None:
            candidates = sorted(self.candidate_fn(table_a, table_b))
        else:
            candidates = [(a, b) for a in ids_a for b in ids_b]
        index_a = {i: table_a.row_dict(n) for n, i in enumerate(ids_a)}
        index_b = {i: table_b.row_dict(n) for n, i in enumerate(ids_b)}
        pairs = [(index_a[a], index_b[b]) for a, b in candidates]
        probs = self.matcher.predict_proba(pairs)
        matches = {
            pair for pair, p in zip(candidates, probs) if p >= self.threshold
        }
        context.artifacts[self.matches_key] = matches
        return {
            "candidates": len(candidates),
            "matches": len(matches),
        }


class ConsolidateStep(PipelineStep):
    """Merge matched records into golden records, keep singletons."""

    name = "consolidate"

    def __init__(
        self,
        input_a: str,
        input_b: str,
        id_column: str,
        output_key: str,
        matches_key: str = "matches",
        consolidate_fn: Callable[[list[dict], list[str]], dict] = consolidate_majority,
    ) -> None:
        self.input_a = input_a
        self.input_b = input_b
        self.id_column = id_column
        self.output_key = output_key
        self.matches_key = matches_key
        self.consolidate_fn = consolidate_fn

    def run(self, context: PipelineContext) -> dict[str, object]:
        table_a = context.table(self.input_a)
        table_b = context.table(self.input_b)
        matches: set[tuple[str, str]] = context.artifact(self.matches_key)
        columns = [c for c in table_a.columns if c in set(table_b.columns)]
        matched_b = {b for _, b in matches}
        partner: dict[str, list[str]] = {}
        for a, b in matches:
            partner.setdefault(a, []).append(b)
        index_a = {
            str(table_a.cell(i, self.id_column)): table_a.row_dict(i)
            for i in range(table_a.num_rows)
        }
        index_b = {
            str(table_b.cell(i, self.id_column)): table_b.row_dict(i)
            for i in range(table_b.num_rows)
        }
        merged = Table(self.output_key, columns)
        golden_count = 0
        for id_a, record_a in index_a.items():
            cluster = [record_a] + [index_b[b] for b in partner.get(id_a, [])]
            if len(cluster) > 1:
                golden = self.consolidate_fn(cluster, columns)
                golden[self.id_column] = id_a
                golden_count += 1
            else:
                golden = record_a
            merged.append([golden.get(c) for c in columns])
        for id_b, record_b in index_b.items():
            if id_b not in matched_b:
                merged.append([record_b.get(c) for c in columns])
        context.put_table(self.output_key, merged)
        return {"rows": merged.num_rows, "golden_records": golden_count}


class RepairStep(PipelineStep):
    """Minimal FD repair of a context table."""

    name = "repair"

    def __init__(
        self, fds: list[FunctionalDependency], input_key: str, output_key: str
    ) -> None:
        self.fds = list(fds)
        self.input_key = input_key
        self.output_key = output_key

    def run(self, context: PipelineContext) -> dict[str, object]:
        table = context.table(self.input_key)
        before = violation_rate(table, self.fds)
        repaired, report = FDRepairer(self.fds).repair(table)
        after = violation_rate(repaired, self.fds)
        context.put_table(self.output_key, repaired)
        return {
            "violation_rate_before": round(before, 4),
            "violation_rate_after": round(after, 4),
            "repairs": len(report),
        }


class ImputeStep(PipelineStep):
    """Fill missing values with any imputer."""

    name = "impute"

    def __init__(
        self, imputer: _BaseImputer, input_key: str, output_key: str
    ) -> None:
        self.imputer = imputer
        self.input_key = input_key
        self.output_key = output_key

    def run(self, context: PipelineContext) -> dict[str, object]:
        table = context.table(self.input_key)
        before = table.missing_rate()
        imputed = self.imputer.fit(table).transform(table)
        context.put_table(self.output_key, imputed)
        return {
            "missing_rate_before": round(before, 4),
            "missing_rate_after": round(imputed.missing_rate(), 4),
        }


class DedupStep(PipelineStep):
    """Duplicate elimination *within* one table: cluster + consolidate.

    Uses :func:`repro.er.clustering.dedupe_table` with any pairwise scorer;
    each duplicate cluster collapses to one golden record.
    """

    name = "dedup"

    def __init__(
        self,
        input_key: str,
        output_key: str,
        id_column: str,
        score_fn: Callable[[dict, dict], float],
        threshold: float = 0.5,
        method: str = "components",
        consolidate_fn: Callable[[list[dict], list[str]], dict] = consolidate_majority,
    ) -> None:
        self.input_key = input_key
        self.output_key = output_key
        self.id_column = id_column
        self.score_fn = score_fn
        self.threshold = threshold
        self.method = method
        self.consolidate_fn = consolidate_fn

    def run(self, context: PipelineContext) -> dict[str, object]:
        from repro.er.clustering import dedupe_table

        table = context.table(self.input_key)
        clusters = dedupe_table(
            table, self.id_column, self.score_fn,
            threshold=self.threshold, method=self.method,
        )
        index = {
            str(table.cell(i, self.id_column)): table.row_dict(i)
            for i in range(table.num_rows)
        }
        out = Table(self.output_key, table.columns)
        merged = 0
        for cluster in clusters:
            records = [index[i] for i in cluster]
            if len(records) > 1:
                golden = self.consolidate_fn(records, table.columns)
                golden[self.id_column] = cluster[0]
                merged += 1
            else:
                golden = records[0]
            out.append([golden.get(c) for c in table.columns])
        context.put_table(self.output_key, out)
        return {
            "rows_before": table.num_rows,
            "rows_after": out.num_rows,
            "clusters_merged": merged,
        }


class EnrichStep(PipelineStep):
    """Data enrichment by join discovery (§3.1): find the best joinable
    column into the lake and left-join the target's columns on."""

    name = "enrich"

    def __init__(
        self,
        input_key: str,
        output_key: str,
        lake_key: str = "lake",
        min_score: float = 0.8,
    ) -> None:
        self.input_key = input_key
        self.output_key = output_key
        self.lake_key = lake_key
        self.min_score = min_score

    def run(self, context: PipelineContext) -> dict[str, object]:
        from repro.discovery.joinable import enrich, find_joinable_columns

        source = context.table(self.input_key)
        lake: dict[str, Table] = context.artifact(self.lake_key)
        targets = [t for name, t in lake.items() if name != source.name]
        candidates = find_joinable_columns(source, targets, min_score=self.min_score)
        usable = None
        for source_column, target_name, target_column, score in candidates:
            target = lake[target_name]
            add = [c for c in target.columns
                   if c != target_column and c not in source.columns]
            if add:
                usable = (source_column, target_name, target_column, score, add)
                break
        if usable is None:
            context.put_table(self.output_key, source.copy(self.output_key))
            return {"joined": False}
        source_column, target_name, target_column, score, add = usable
        enriched = enrich(
            source, lake[target_name], source_column, target_column,
            add_columns=add, name=self.output_key,
        )
        context.put_table(self.output_key, enriched)
        return {
            "joined": True,
            "via": f"{source_column}={target_name}.{target_column}",
            "score": round(score, 3),
            "added_columns": add,
        }


class TransformStep(PipelineStep):
    """Normalise one column with a synthesized string-transformation program."""

    name = "transform"

    def __init__(
        self,
        input_key: str,
        output_key: str,
        column: str,
        examples: list[tuple[str, str]],
    ) -> None:
        self.input_key = input_key
        self.output_key = output_key
        self.column = column
        self.examples = examples

    def run(self, context: PipelineContext) -> dict[str, object]:
        from repro.transform.synthesis import Synthesizer

        program = Synthesizer().synthesize(self.examples)
        if program is None:
            raise PipelineError(
                f"could not synthesize a transform for column {self.column!r}"
            )
        table = context.table(self.input_key).copy(self.output_key)
        applied = 0
        for i in range(table.num_rows):
            value = table.cell(i, self.column)
            if value is None:
                continue
            try:
                table.set_cell(i, self.column, program.evaluate(str(value)))
                applied += 1
            except ValueError:
                pass  # leave values the program does not cover
        context.put_table(self.output_key, table)
        return {"program": str(program), "applied": applied}
