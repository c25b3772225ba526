//! `exact-counties`: the `rjquery --exact` path — SQL text parsed with
//! `sql::parse_query` and run by `AccurateRasterJoin` over 100 k Twitter
//! rows and the 3 945 US counties.
//!
//! Polygon preparation (triangulation, grid index, outline) carries the
//! cost; the point pass does little. Every 4th query runs over one of two
//! seeded windows of the counties, so a polygon-side cache would meet
//! misses as well as hits. Counts are checked against the brute-force
//! f64 point-in-polygon reference.
//!
//! This workload is not in `BENCHMARK.json`: the accurate join miscounts
//! on the county set (see `README.md`), so its checks fail at this commit.

use crate::check::{self, Checks, Oracle};
use crate::procfs::{self, Cpu};
use crate::report::{Report, Timed};
use crate::trace::Tracer;
use crate::{ms, stats, Ctx, HOUR_BAND};
use raster_data::filter::passes;
use raster_data::generators::TwitterModel;
use raster_data::{polygons, PointTable};
use raster_geom::{BBox, Point, Polygon};
use raster_gpu::Device;
use raster_join::query::result_slots;
use raster_join::{sql, AccurateRasterJoin, JoinOutput, Query};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const ROWS: usize = 100_000;

struct Setup {
    tweets: PointTable,
    counties: Vec<Polygon>,
    accurate: AccurateRasterJoin,
    device: Device,
}

struct Done {
    /// 0 = all counties, 1.. = window.
    polys: usize,
    select: usize,
    query: Query,
    out: JoinOutput,
    ms: f64,
    cpu: Cpu,
    traced: bool,
    parse_ms: f64,
    prepare_ms: f64,
    outline_ms: f64,
}

const SELECTS: [&str; 3] = ["COUNT(*)", "SUM(favorites)", "AVG(favorites)"];

/// Two windows, each a seeded quarter of the counties' extent.
fn windows(ctx: &Ctx, counties: &[Polygon]) -> Vec<Vec<Polygon>> {
    let mut extent = BBox::empty();
    for c in counties {
        extent.union(&c.bbox());
    }
    let mut rng = ctx.rng(5);
    (0..2)
        .map(|_| {
            let fx = rng.range(0, 50) as f64 / 100.0;
            let fy = rng.range(0, 50) as f64 / 100.0;
            let lo = Point::new(
                extent.min.x + fx * extent.width(),
                extent.min.y + fy * extent.height(),
            );
            let hi = Point::new(lo.x + extent.width() / 2.0, lo.y + extent.height() / 2.0);
            let w = BBox::new(lo, hi);
            counties
                .iter()
                .filter(|c| w.contains(c.bbox().center()))
                .cloned()
                .collect()
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (s, setup_s) = ctx.timed_setup(|| Setup {
        tweets: TwitterModel::default().generate(ROWS, ctx.seed),
        counties: polygons::us_counties(),
        accurate: AccurateRasterJoin::new(ctx.nproc),
        device: Device::default(),
    });
    let windows = windows(ctx, &s.counties);
    let polygon_set = |i: usize| {
        if i == 0 {
            &s.counties[..]
        } else {
            &windows[i - 1][..]
        }
    };
    let mut rng = ctx.rng(6);

    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let mut done: Vec<Done> = Vec::new();
    let mut qid = 0u64;
    let deadline = ctx.deadline();
    while Instant::now() < deadline {
        let polys = if qid % 4 == 3 {
            1 + (qid / 4 % 2) as usize
        } else {
            0
        };
        let select = (qid % 3) as usize;
        let sql = format!(
            "SELECT {} FROM P, R WHERE P.loc INSIDE R.geometry AND hour < {} GROUP BY R.id",
            SELECTS[select],
            rng.range(HOUR_BAND.0, HOUR_BAND.1)
        );
        let traced = ctx.trace && qid % 2 == 1;
        tracer.set_enabled(traced);
        let cpu0 = Cpu::now();
        let t0 = Instant::now();
        let parsed = tracer.span("parse", qid, |_| sql::parse_query(&sql, &s.tweets));
        let parse_ms = ms(t0.elapsed());
        let query = match parsed {
            Ok(q) => q,
            Err(e) => {
                checks.fail(format!("parse `{sql}`: {e}"));
                qid += 1;
                continue;
            }
        };
        // A panicking query is an errored query: count it and go on.
        let joined = catch_unwind(AssertUnwindSafe(|| {
            let t1 = Instant::now();
            let prepared = tracer.span("prepare", qid, |_| {
                s.accurate.prepare(polygon_set(polys), &s.device)
            });
            let prepare_ms = ms(t1.elapsed());
            let out = tracer.span("execute_prepared", qid, |_| {
                s.accurate
                    .execute_prepared(&prepared, &s.tweets, &query, &s.device)
            });
            (out, prepare_ms, ms(prepared.outline_time()))
        }));
        let elapsed = ms(t0.elapsed());
        let Ok((out, prepare_ms, outline_ms)) = joined else {
            tracer.close_open();
            checks.fail(format!("`{sql}` over polygon set {polys} panicked"));
            qid += 1;
            continue;
        };
        done.push(Done {
            polys,
            select,
            outline_ms,
            query,
            out,
            ms: elapsed,
            cpu: Cpu::now().since(&cpu0),
            traced,
            parse_ms,
            prepare_ms,
        });
        qid += 1;
    }
    let peak_rss_mb = procfs::peak_rss_mb();

    if ctx.negative_control {
        if let Some(d) = done.first_mut() {
            check::corrupt(&mut d.out.counts);
        }
    }
    let oracle = Oracle::new(&s.tweets, &s.counties, ctx.nproc);
    for d in &done {
        let set = polygon_set(d.polys);
        let ids: std::collections::HashSet<u32> = set.iter().map(Polygon::id).collect();
        let want = oracle.counts(
            result_slots(set),
            |r| passes(&s.tweets, r, &d.query.predicates),
            |id| ids.contains(&id),
        );
        checks.record(
            || {
                format!(
                    "{} over polygon set {} counts vs point-in-polygon",
                    SELECTS[d.select], d.polys
                )
            },
            check::counts_equal(&d.out.counts, &want),
        );
    }

    let mut meta = ctx.meta();
    meta.push(("tweets", ROWS.to_string()));
    meta.push((
        "polygon_sets",
        format!(
            "0 = {} counties, 1 = {} (window), 2 = {} (window)",
            s.counties.len(),
            windows[0].len(),
            windows[1].len()
        ),
    ));
    let queries = done
        .iter()
        .map(|d| Timed {
            template: d.polys * SELECTS.len() + d.select,
            ms: d.ms,
            rows: ROWS as u64,
            traced: d.traced,
        })
        .collect();
    let mut report = Report {
        workload: "exact-counties",
        meta,
        templates: (0..3)
            .flat_map(|set| {
                SELECTS
                    .iter()
                    .map(move |s| format!("{s} over polygon set {set}"))
            })
            .collect(),
        plans: vec![("all".into(), vec![s.accurate_describe()])],
        setup_s,
        peak_rss_mb,
        queries,
        ingest_rows_per_s: None,
        layers: BTreeMap::new(),
        self_times: Vec::new(),
        checks,
        spans_jsonl: String::new(),
    };
    if ctx.trace {
        layers(&mut report, &s, &done, &tracer);
        report.spans_jsonl = tracer.to_json_lines();
    }
    Ok(report)
}

impl Setup {
    fn accurate_describe(&self) -> String {
        format!(
            "ACCURATE raster join [canvas={}, index={}, workers={}] (fixed, no planner)",
            self.accurate.canvas_dim, self.accurate.index_dim, self.accurate.workers
        )
    }
}

fn layers(report: &mut Report, s: &Setup, done: &[Done], tracer: &Tracer) {
    let traced: Vec<&Done> = done.iter().filter(|d| d.traced).collect();
    let per_query = |f: &dyn Fn(&Done) -> f64| -> f64 {
        stats::mean(&traced.iter().map(|d| f(d)).collect::<Vec<_>>())
    };
    let rows = (traced.len() * ROWS).max(1) as f64;
    let triangles = raster_geom::triangulate::triangulate_all(&s.counties).len() as f64;
    let overhead = report.tracing_overhead_pct();
    let l = &mut report.layers;
    l.insert("raster-join.sql.parse_ms", per_query(&|d| d.parse_ms));
    l.insert(
        "raster-geom.triangulate_ms",
        per_query(&|d| ms(d.out.stats.triangulation)),
    );
    l.insert("raster-geom.triangles", triangles);
    l.insert(
        "raster-index.build_ms",
        per_query(&|d| ms(d.out.stats.index_build)),
    );
    l.insert("raster-join.prepare_ms", per_query(&|d| d.prepare_ms));
    l.insert("raster-join.outline_ms", per_query(&|d| d.outline_ms));
    l.insert(
        "raster-gpu.point_pass_ms",
        per_query(&|d| ms(d.out.stats.point_stage)),
    );
    l.insert(
        "raster-gpu.shard_merge_ms",
        per_query(&|d| ms(d.out.stats.shard_merge)),
    );
    l.insert(
        "raster-gpu.minor_faults",
        per_query(&|d| d.cpu.minor_faults as f64),
    );
    l.insert("raster-gpu.sys_cpu_ms", per_query(&|d| d.cpu.sys_ms));
    l.insert(
        "raster-gpu.polygon_pass_ms",
        per_query(&|d| ms(d.out.stats.polygon_stage)),
    );
    l.insert(
        "raster-gpu.fragments",
        per_query(&|d| d.out.stats.fragments as f64),
    );
    l.insert(
        "raster-gpu.polygon_passes",
        per_query(&|d| f64::from(d.out.stats.passes)),
    );
    l.insert(
        "raster-join.pip_tests",
        per_query(&|d| d.out.stats.pip_tests as f64),
    );
    l.insert(
        "raster-join.pip_per_point",
        traced
            .iter()
            .map(|d| d.out.stats.pip_tests as f64)
            .sum::<f64>()
            / rows,
    );
    l.insert("trace.overhead_pct", overhead);
    l.insert("trace.queries", traced.len() as f64);
    l.insert("trace.spans", tracer.spans().len() as f64);

    let st = |d: &Done| d.out.stats;
    let mut self_times = vec![
        (
            "raster-join.sql parse".to_string(),
            per_query(&|d| d.parse_ms),
        ),
        (
            "raster-geom triangulation".to_string(),
            per_query(&|d| ms(st(d).triangulation)),
        ),
        (
            "raster-index grid build".to_string(),
            per_query(&|d| ms(st(d).index_build)),
        ),
        (
            "raster-join outline pass".to_string(),
            per_query(&|d| d.outline_ms),
        ),
        (
            "raster-join prepare, rest".to_string(),
            per_query(&|d| {
                d.prepare_ms - ms(st(d).triangulation + st(d).index_build) - d.outline_ms
            }),
        ),
        (
            "raster-gpu point pass".to_string(),
            per_query(&|d| ms(st(d).point_stage)),
        ),
        (
            "raster-gpu polygon pass".to_string(),
            per_query(&|d| ms(st(d).polygon_stage)),
        ),
        (
            "raster-join execute_prepared, rest".to_string(),
            per_query(&|d| {
                d.ms - d.parse_ms - d.prepare_ms - ms(st(d).point_stage + st(d).polygon_stage)
            }),
        ),
    ];
    self_times.sort_by(|a, b| b.1.total_cmp(&a.1));
    report.self_times = self_times;
}
