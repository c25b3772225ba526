//! One run's measurements, checks and metadata, printed by name and unit.

use crate::check::Checks;
use crate::stats;
use crate::Ctx;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of the result line with `--trace 0`, on every
/// workload (`BENCHMARK.json` lists the same names and units).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("point_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the result line with `--trace 1`. Times and counts
/// are per query (per scan on `stream-counties`), averaged over the traced
/// queries; a layer a workload does not reach reads 0. Stage timers of a
/// streamed scan add up across pool workers (worker-ms), so they can exceed
/// the scan's wall time.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("raster-data.ingest_ms", "ms"),
    ("raster-data.ingest_bytes_per_row", "B"),
    ("raster-data.read_ms", "ms"),
    ("raster-data.decode_ms", "ms"),
    ("raster-data.read_bytes_per_row", "B"),
    ("raster-data.recovery_events", "count"),
    ("raster-join.optimizer.plan_ms", "ms"),
    ("raster-join.optimizer.pred_actual_ratio", "ratio"),
    ("raster-join.optimizer.plan_changes", "count"),
    ("raster-join.sql.parse_ms", "ms"),
    ("raster-geom.triangulate_ms", "ms"),
    ("raster-geom.triangles", "count"),
    ("raster-index.build_ms", "ms"),
    ("raster-join.prepare_ms", "ms"),
    ("raster-join.outline_ms", "ms"),
    ("raster-gpu.point_pass_ms", "ms"),
    ("raster-gpu.binning_ms", "ms"),
    ("raster-gpu.shard_merge_ms", "ms"),
    ("raster-gpu.binned_points", "count"),
    ("raster-gpu.minor_faults", "count"),
    ("raster-gpu.sys_cpu_ms", "ms"),
    ("raster-gpu.polygon_pass_ms", "ms"),
    ("raster-gpu.fragments", "count"),
    ("raster-gpu.polygon_passes", "count"),
    ("raster-join.pip_tests", "count"),
    ("raster-join.pip_per_point", "ratio"),
    ("raster-join.stream.chunks", "count"),
    ("raster-join.stream.busy_ms", "ms"),
    ("raster-join.stream.stall_ms", "ms"),
    ("raster-join.stream.fold_ms", "ms"),
    ("raster-join.stream.worker_util", "ratio"),
    ("raster-join.stream.cpu_util", "ratio"),
    ("raster-join.ops.moments_ms", "ms"),
    ("raster-join.ops.minmax_ms", "ms"),
    ("raster-join.ops.temporal_ms", "ms"),
    ("raster-join.ops.multi_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.queries", "count"),
    ("trace.spans", "count"),
];

/// The plans one template ran, in order, each change listed once.
pub fn plan_history(plans: impl Iterator<Item = raster_join::Plan>) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for p in plans {
        let d = p.describe();
        if seen.last() != Some(&d) {
            seen.push(d);
        }
    }
    seen
}

/// One timed query of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub template: usize,
    pub ms: f64,
    /// Table rows the query scanned.
    pub rows: u64,
    pub traced: bool,
}

/// A finished run, ready to print.
pub struct Report {
    pub workload: &'static str,
    pub meta: Vec<(&'static str, String)>,
    /// Query template names, indexed by [`Timed::template`].
    pub templates: Vec<String>,
    /// Plan chosen per query template, in order of first use.
    pub plans: Vec<(String, Vec<String>)>,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub queries: Vec<Timed>,
    /// Rows written per second of `write_table_compressed` (ingest runs).
    pub ingest_rows_per_s: Option<f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Self time per layer and query (ms), for the traced run.
    pub self_times: Vec<(String, f64)>,
    pub checks: Checks,
    pub spans_jsonl: String,
}

impl Report {
    fn untraced_ms(&self) -> Vec<f64> {
        self.queries
            .iter()
            .filter(|q| !q.traced)
            .map(|q| q.ms)
            .collect()
    }

    /// The end-to-end metrics, measured over the untraced queries.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let untraced: Vec<&Timed> = self.queries.iter().filter(|q| !q.traced).collect();
        let rows: u64 = untraced.iter().map(|q| q.rows).sum();
        let secs: f64 = untraced.iter().map(|q| q.ms).sum::<f64>() / 1e3;
        let values = [
            self.setup_s,
            stats::median(&self.untraced_ms()),
            if secs > 0.0 { rows as f64 / secs } else { 0.0 },
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    }

    /// Tracing overhead: median traced latency over median untraced
    /// latency, per template, averaged over templates run both ways (%).
    pub fn tracing_overhead_pct(&self) -> f64 {
        let mut ratios = Vec::new();
        let templates: std::collections::BTreeSet<usize> =
            self.queries.iter().map(|q| q.template).collect();
        for t in templates {
            let side = |traced: bool| -> Vec<f64> {
                self.queries
                    .iter()
                    .filter(|q| q.template == t && q.traced == traced)
                    .map(|q| q.ms)
                    .collect()
            };
            let (on, off) = (side(true), side(false));
            if !on.is_empty() && !off.is_empty() {
                ratios.push(stats::median(&on) / stats::median(&off) - 1.0);
            }
        }
        stats::mean(&ratios) * 100.0
    }

    /// Write the human-readable report ending in the result object (and the
    /// spans) under the output directory, then print the report.
    pub fn emit(&self, ctx: &Ctx) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = writeln!(out, "workload: {}", self.workload);
        for (k, v) in &self.meta {
            let _ = writeln!(out, "  {k}: {v}");
        }
        for (template, plans) in &self.plans {
            let _ = writeln!(out, "  plan[{template}]: {}", plans.join(" -> "));
        }
        let ms = self.untraced_ms();
        let _ = writeln!(out, "end-to-end ({} untraced queries):", ms.len());
        for (name, unit, v) in self.end_to_end() {
            let _ = writeln!(out, "  {name:<22} {v:>16.4} {unit}");
        }
        match stats::percentile(&ms, 90) {
            Some(v) => {
                let _ = writeln!(out, "  {:<22} {v:>16.4} ms", "query_p90_ms");
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<22} {:>16} ms (needs >= 100 queries; highest percentile with >= {} \
                     beyond it: {})",
                    "query_p90_ms",
                    "n/a",
                    stats::MIN_TAIL,
                    stats::highest_reportable(ms.len()).map_or("none".to_string(), |p| {
                        format!("p{p} = {:.4} ms", stats::percentile(&ms, p).unwrap_or(0.0))
                    })
                );
            }
        }
        if let Some(v) = self.ingest_rows_per_s {
            let _ = writeln!(out, "  {:<22} {v:>16.4} rows/s", "ingest_rows_per_s");
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>16.4} ratio ({} of {} checked queries failed)",
            "error_rate",
            self.checks.error_rate(),
            self.checks.failed,
            self.checks.attempted
        );
        for f in &self.checks.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        let _ = writeln!(out, "latency by template (untraced):");
        for (ti, name) in self.templates.iter().enumerate() {
            let v: Vec<f64> = self
                .queries
                .iter()
                .filter(|q| q.template == ti && !q.traced)
                .map(|q| q.ms)
                .collect();
            let _ = writeln!(
                out,
                "  {name:<40} n={:<4} median {:>10.2} ms",
                v.len(),
                stats::median(&v)
            );
        }
        if ctx.trace {
            let _ = writeln!(out, "per-layer (traced queries):");
            for (name, unit) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                let _ = writeln!(out, "  {name:<40} {v:>16.4} {unit}");
            }
            let _ = writeln!(out, "self time per query, largest first (ms):");
            for (layer, v) in &self.self_times {
                let _ = writeln!(out, "  {layer:<40} {v:>12.3}");
            }
        }
        out.push_str(&self.result_line(ctx.trace));
        out.push('\n');

        std::fs::create_dir_all(&ctx.out_dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload,
            ctx.seed,
            u8::from(ctx.trace)
        );
        std::fs::write(ctx.out_dir.join(format!("{stem}.txt")), &out)?;
        if ctx.trace {
            std::fs::write(
                ctx.out_dir.join(format!("{stem}.spans.jsonl")),
                &self.spans_jsonl,
            )?;
        }
        print!("{out}");
        Ok(())
    }

    /// The result object: end-to-end metrics untraced, per-layer traced.
    fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<(&str, &str, f64)> = if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.layers.get(n).copied().unwrap_or(0.0)))
                .collect()
        } else {
            self.end_to_end()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(queries: Vec<Timed>) -> Report {
        Report {
            workload: "test",
            meta: Vec::new(),
            templates: Vec::new(),
            plans: Vec::new(),
            setup_s: 1.5,
            peak_rss_mb: 100.0,
            queries,
            ingest_rows_per_s: None,
            layers: BTreeMap::new(),
            self_times: Vec::new(),
            checks: Checks {
                attempted: 3,
                failed: 0,
                failures: Vec::new(),
            },
            spans_jsonl: String::new(),
        }
    }

    fn q(template: usize, ms: f64, traced: bool) -> Timed {
        Timed {
            template,
            ms,
            rows: 1000,
            traced,
        }
    }

    #[test]
    fn end_to_end_uses_untraced_queries_only() {
        let r = report(vec![
            q(0, 10.0, false),
            q(0, 30.0, false),
            q(0, 1000.0, true),
        ]);
        let e = r.end_to_end();
        assert_eq!(e[1], ("query_p50_ms", "ms", 20.0));
        assert_eq!(e[2], ("point_rows_per_s", "rows/s", 2000.0 / 0.04));
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn overhead_compares_templates_run_both_ways() {
        let r = report(vec![
            q(0, 100.0, false),
            q(0, 110.0, true),
            q(1, 50.0, false),
            q(1, 50.0, true),
            q(2, 10.0, true),
        ]);
        assert!((r.tracing_overhead_pct() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn traced_result_line_lists_every_per_layer_metric() {
        let line = report(Vec::new()).result_line(true);
        for (name, unit) in PER_LAYER {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 0, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json beside the benchmark")
            .split_whitespace()
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
