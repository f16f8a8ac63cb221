"""Layer boundaries of the package and the per-layer metrics read from
one traced pass.

``instrument`` replaces, in each calling module, the names through which
one layer calls the next, so a span is recorded around every such call
(see ``spans.Tracer.patch``).  ``layer_metrics`` turns the aggregates
into the per-layer metrics; a layer the workload does not reach reads 0.
Per-call times (``_us``) of the codec are taken over short codes (at
most 7 tokens), except where the name says otherwise, so they compare
across workloads.
"""

from __future__ import annotations

from spans import Tracer, code_shape, doc_shape, graph_shape

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.main_s", "s"),
    ("cli.overhead_s", "s"),
    ("enumeration.enumerate_flows_s", "s"),
    ("enumeration.codes_emitted", "count"),
    ("enumeration.codes_to_text_s", "s"),
    ("enumeration.count_flows_s.n10", "s"),
    ("enumeration.count_flows_s.n11", "s"),
    ("enumeration.plane_trees_s", "s"),
    ("enumeration.trees", "count"),
    ("enumeration.table_rows_s", "s"),
    ("codec.parse_code_us", "us"),
    ("codec.check_admissible_us", "us"),
    ("codec.check_realizable_us", "us"),
    ("codec.check_realizable_us_per_token", "us/token"),
    ("codec.check_realizable_big_value_us", "us"),
    ("codec.code_to_graph_us", "us"),
    ("codec.graph_to_code_us", "us"),
    ("codec.graph_json_us", "us"),
    ("codec.serialize_code_us", "us"),
    ("codec.verdicts.realizable", "count"),
    ("codec.verdicts.unrealizable", "count"),
    ("codec.verdicts.inadmissible", "count"),
    ("codec.verdicts.syntax", "count"),
    ("model.from_up_degrees_us", "us"),
    ("model.classify_cell_us", "us"),
    ("model.cells", "count"),
    ("oracle.oracle_enumerate_s", "s"),
    ("oracle.candidates", "count"),
    ("oracle.admissible", "count"),
    ("oracle.realizable", "count"),
    ("oracle.useful_ratio", "ratio"),
    ("render.diagram_to_svg_us", "us"),
    ("render.tree_to_dot_us", "us"),
    ("render.svg_bytes", "bytes"),
    ("runtime.gc_collections.gen0", "count"),
    ("runtime.gc_collections.gen1", "count"),
    ("runtime.gc_collections.gen2", "count"),
    ("runtime.gc_pause_s", "s"),
    ("trace.overhead_s", "s"),
)


def instrument(tracer: Tracer) -> None:
    """Trace every call across a layer boundary until ``tracer.restore``."""
    from diskflows import cli, codec, enumeration, oracle, render
    from diskflows.model import PlaneRootedTree

    counts = tracer.counts

    def count(key, size=len):
        def observe(result):
            counts[key] += size(result)
        return observe

    def oracle_verdict(report):
        counts["oracle.candidates"] += 1
        counts["oracle.admissible"] += report.admissible.passed
        counts["oracle.realizable"] += report.realizable

    def by_n(n):
        return f"n{n}"

    def tagged(_text):
        return tracer.tag

    p = tracer.patch
    # The benchmark's own calls into the CLI, codec and render layers.
    p(cli, "main", "cli.main")
    p(codec, "parse_code", "codec.parse_code", shape=tagged)
    p(codec, "check_realizable", "codec.check_realizable", shape=code_shape, sized=True)
    p(codec, "code_to_graph", "codec.code_to_graph", shape=code_shape)
    p(codec, "graph_to_json", "codec.graph_to_json", shape=graph_shape)
    p(codec, "graph_from_json", "codec.graph_from_json", shape=doc_shape)
    p(codec, "graph_to_code", "codec.graph_to_code", shape=graph_shape)
    p(codec, "serialize_code", "codec.serialize_code", shape=code_shape)
    p(render, "diagram_to_svg", "render.diagram_to_svg", observe=count("render.svg_bytes"))
    p(render, "tree_to_dot", "render.tree_to_dot")
    # CLI into enumeration and oracle.
    p(cli, "enumerate_flows", "enumeration.enumerate_flows",
      observe=count("enumeration.codes_emitted"))
    p(cli, "codes_to_text", "enumeration.codes_to_text")
    p(cli, "count_flows", "enumeration.count_flows", shape=by_n)
    p(cli, "table_rows", "enumeration.table_rows")
    p(cli, "oracle_enumerate", "oracle.oracle_enumerate")
    # Inside enumeration, oracle, codec and render.
    p(enumeration, "plane_trees", "enumeration.plane_trees",
      observe=count("enumeration.trees"))
    p(oracle, "count_flows", "enumeration.count_flows", shape=by_n)
    p(oracle, "check_realizable", "codec.check_realizable", shape=code_shape, sized=True,
      observe=oracle_verdict)
    p(codec, "check_admissible", "codec.check_admissible", shape=code_shape)
    p(codec, "classify_cell", "model.classify_cell")
    p(render, "check_realizable", "codec.check_realizable", shape=code_shape, sized=True)
    p(render, "graph_to_code", "codec.graph_to_code", shape=graph_shape)
    p(render, "classify_cell", "model.classify_cell")
    p(PlaneRootedTree, "from_up_degrees", "model.from_up_degrees", static=True)


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (GC figures come from the
    untraced pass the tracer watched)."""
    t = tracer
    counts = t.counts
    candidates = counts["oracle.candidates"]
    values = {
        "cli.main_s": t.total_s("cli.main"),
        "cli.overhead_s": t.self_s("cli.main"),
        "enumeration.enumerate_flows_s": t.total_s("enumeration.enumerate_flows"),
        "enumeration.codes_emitted": counts["enumeration.codes_emitted"],
        "enumeration.codes_to_text_s": t.total_s("enumeration.codes_to_text"),
        "enumeration.count_flows_s.n10": t.total_s("enumeration.count_flows/n10"),
        "enumeration.count_flows_s.n11": t.total_s("enumeration.count_flows/n11"),
        "enumeration.plane_trees_s": t.total_s("enumeration.plane_trees"),
        "enumeration.trees": counts["enumeration.trees"],
        "enumeration.table_rows_s": t.total_s("enumeration.table_rows"),
        "codec.parse_code_us": t.mean_us("codec.parse_code/short"),
        "codec.check_admissible_us": t.mean_us("codec.check_admissible/short"),
        "codec.check_realizable_us": t.mean_us("codec.check_realizable/short"),
        "codec.check_realizable_us_per_token": t.us_per_token("codec.check_realizable/long"),
        "codec.check_realizable_big_value_us": t.mean_us("codec.check_realizable/big"),
        "codec.code_to_graph_us": t.mean_us("codec.code_to_graph/short"),
        "codec.graph_to_code_us": t.mean_us("codec.graph_to_code/short"),
        "codec.graph_json_us": t.mean_us("codec.graph_to_json/short")
        + t.mean_us("codec.graph_from_json/short"),
        "codec.serialize_code_us": t.mean_us("codec.serialize_code/short"),
        "model.from_up_degrees_us": t.mean_us("model.from_up_degrees"),
        "model.classify_cell_us": t.mean_us("model.classify_cell"),
        "model.cells": t.calls("model.classify_cell"),
        "oracle.oracle_enumerate_s": t.total_s("oracle.oracle_enumerate"),
        "oracle.candidates": candidates,
        "oracle.admissible": counts["oracle.admissible"],
        "oracle.realizable": counts["oracle.realizable"],
        "oracle.useful_ratio": counts["oracle.realizable"] / candidates if candidates else 0.0,
        "render.diagram_to_svg_us": t.mean_us("render.diagram_to_svg"),
        "render.tree_to_dot_us": t.mean_us("render.tree_to_dot"),
        "render.svg_bytes": counts["render.svg_bytes"],
        "runtime.gc_collections.gen0": t.gc_collections[0],
        "runtime.gc_collections.gen1": t.gc_collections[1],
        "runtime.gc_collections.gen2": t.gc_collections[2],
        "runtime.gc_pause_s": t.gc_pause_ns / 1e9,
        "trace.overhead_s": overhead_s,
    }
    for verdict in ("realizable", "unrealizable", "inadmissible", "syntax"):
        key = f"codec.verdicts.{verdict}"
        values[key] = counts[key]
    return values
