//! `stream-counties`: the §7.7 out-of-core scan of Twitter days against the
//! 3 945 US counties.
//!
//! Each round writes one day's table with `write_table_compressed` (format
//! v3, 100 k-row blocks) and scans the file once per query template
//! through `StreamingRasterJoin::execute_sql`, with a device budget of
//! 100 k points, so every scan runs ≈ 11 chunks through the chunk pool. The
//! polygon pass dominates here, and it re-runs once per chunk.

use crate::check::{self, Checks};
use crate::procfs::{self, Cpu};
use crate::report::{plan_history, Report, Timed};
use crate::trace::Tracer;
use crate::{ms, stats, Ctx, HOUR_BAND};
use raster_data::disk::{write_table_compressed, ChunkedReader};
use raster_data::generators::TwitterModel;
use raster_data::{polygons, PointTable};
use raster_geom::Polygon;
use raster_gpu::{Device, DeviceConfig};
use raster_join::accurate::PreparedAccurate;
use raster_join::bounded::PreparedBounded;
use raster_join::query::result_slots;
use raster_join::{
    sql, AccurateRasterJoin, AggregateMerger, BoundedRasterJoin, JoinOutput, Plan, Query,
    StreamOutput, StreamingRasterJoin, Variant,
};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

const DAYS: usize = 2;
const DAY_ROWS: usize = 1_000_000;
const BLOCK_ROWS: usize = 100_000;
/// Device memory budget in points: ≈ 11 chunks per 1 M-row scan.
const BUDGET_POINTS: usize = 100_000;
/// Rows of the file the pool-width probe scans twice.
const PROBE_ROWS: usize = 300_000;

struct Template {
    name: &'static str,
    select: &'static str,
    filter: String,
    epsilon: f64,
    device: Device,
}

impl Template {
    fn sql(&self, path: &Path) -> String {
        format!(
            "SELECT {} FROM '{}', R WHERE P.loc INSIDE R.geometry{} GROUP BY R.id",
            self.select,
            path.display(),
            self.filter
        )
    }
}

fn templates(ctx: &Ctx, schema: &PointTable) -> Vec<Template> {
    let hour = ctx.rng(1).range(HOUR_BAND.0, HOUR_BAND.1);
    let specs = [
        ("sum-1km", "SUM(favorites)", String::new(), 1_000.0),
        (
            "avg-hour-1km",
            "AVG(favorites)",
            format!(" AND hour < {hour}"),
            1_000.0,
        ),
        ("count-5km", "COUNT(*)", String::new(), 5_000.0),
    ];
    specs
        .into_iter()
        .map(|(name, select, filter, epsilon)| {
            let mut t = Template {
                name,
                select,
                filter,
                epsilon,
                device: Device::default(),
            };
            let q = sql::parse_query(&t.sql(Path::new("x")), schema).expect("template parses");
            let point_bytes = PointTable::point_bytes(q.attrs_uploaded());
            t.device = Device::new(DeviceConfig::small(BUDGET_POINTS * point_bytes, 8192));
            t
        })
        .collect()
}

struct Setup {
    counties: Vec<Polygon>,
    days: Vec<PointTable>,
    stream: StreamingRasterJoin,
}

struct Scan {
    day: usize,
    template: usize,
    query: Query,
    out: StreamOutput,
    ms: f64,
    cpu: Cpu,
    traced: bool,
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (s, setup_s) = ctx.timed_setup(|| Setup {
        counties: polygons::us_counties(),
        days: (0..DAYS)
            .map(|d| TwitterModel::default().generate(DAY_ROWS, ctx.seed * 1_000 + d as u64))
            .collect(),
        stream: StreamingRasterJoin::new(ctx.nproc),
    });
    let templates = templates(ctx, &s.days[0]);
    let data_dir = ctx
        .out_dir
        .join(format!("stream-counties-data-{}", std::process::id()));
    std::fs::create_dir_all(&data_dir)
        .map_err(|e| format!("create {}: {e}", data_dir.display()))?;
    let day_path = |d: usize| data_dir.join(format!("day{d}.rjz"));
    let io_err = |what: &str, e: std::io::Error| format!("{what}: {e}");

    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let mut scans: Vec<Scan> = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut ingest_bytes = 0u64;
    let mut parse_ms = Vec::new();
    let mut plan_ms = Vec::new();
    let mut qid = 0u64;
    let deadline = ctx.deadline();
    // Whole rounds only, so every run scans each template equally often
    // and the mix does not move the medians.
    for round in 0.. {
        let day = round % DAYS;
        let path = day_path(day);
        if Instant::now() >= deadline {
            break;
        }
        tracer.set_enabled(ctx.trace);
        let t0 = Instant::now();
        tracer
            .span("write_table_compressed", qid, |_| {
                write_table_compressed(&path, &s.days[day], BLOCK_ROWS)
            })
            .map_err(|e| io_err("write day table", e))?;
        ingest_ms.push(ms(t0.elapsed()));
        ingest_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        for (ti, t) in templates.iter().enumerate() {
            let traced = ctx.trace && qid % 2 == 1;
            tracer.set_enabled(traced);
            let sql = t.sql(&path);
            if traced {
                // The parse and plan the scan runs internally, timed as
                // calls of their own; they are not part of its latency.
                let t0 = Instant::now();
                let q = tracer.span("parse", qid, |_| sql::parse_query(&sql, &s.days[day]));
                parse_ms.push(ms(t0.elapsed()));
                if let Ok(q) = q {
                    let q = q.with_epsilon(t.epsilon);
                    let t0 = Instant::now();
                    let _ = tracer.span("plan_scan", qid, |_| {
                        s.stream.plan_scan(&path, &s.counties, &q, &t.device)
                    });
                    plan_ms.push(ms(t0.elapsed()));
                }
            }
            let cpu0 = Cpu::now();
            let t0 = Instant::now();
            let res = tracer.span("execute_sql", qid, |_| {
                s.stream
                    .execute_sql(&sql, Some(t.epsilon), &s.counties, &t.device)
            });
            let elapsed = ms(t0.elapsed());
            let cpu = Cpu::now().since(&cpu0);
            match res {
                Ok((query, out)) => scans.push(Scan {
                    day,
                    template: ti,
                    query,
                    out,
                    ms: elapsed,
                    cpu,
                    traced,
                }),
                Err(e) => checks.fail(format!("{} day {day}: {e}", t.name)),
            }
            qid += 1;
        }
    }
    let peak_rss_mb = procfs::peak_rss_mb();

    // ---- checks, outside the timed loop --------------------------------
    if ctx.negative_control {
        if let Some(sc) = scans.first_mut() {
            check::corrupt(&mut sc.out.output.counts);
        }
    }
    // Counts are integer folds, so a streamed scan must equal the
    // in-memory execution of its plan bit for bit. The reference runs the
    // plan in one batch: counts do not depend on the batching.
    let mut references: HashMap<(usize, usize, String), Vec<u64>> = HashMap::new();
    for sc in &scans {
        let key = (sc.day, sc.template, plan_key(&sc.out.plan));
        let want = references.entry(key).or_insert_with(|| {
            in_memory_counts(&sc.out.plan, &s.days[sc.day], &s.counties, &sc.query)
        });
        checks.record(
            || {
                format!(
                    "{} day {} counts vs in-memory plan",
                    templates[sc.template].name, sc.day
                )
            },
            check::counts_equal(&sc.out.output.counts, want),
        );
    }
    // Sums must be bitwise equal between pool width 1 (the blocking
    // reader) and the full pool on the same plan and chunking.
    let probe_path = data_dir.join("probe.rjz");
    write_table_compressed(&probe_path, &s.days[0].prefix(PROBE_ROWS), BLOCK_ROWS)
        .map_err(|e| io_err("write probe table", e))?;
    let mut probe_widths = Vec::new();
    for t in &templates {
        let sql = t.sql(&probe_path);
        let scan = |blocking: bool| {
            let mut st = StreamingRasterJoin::new(ctx.nproc).with_chunk_rows(BUDGET_POINTS);
            if blocking {
                st = st.blocking();
            }
            st.execute_sql(&sql, Some(t.epsilon), &s.counties, &t.device)
        };
        match (scan(true), scan(false)) {
            (Ok((_, one)), Ok((_, pool))) => {
                probe_widths.push(format!(
                    "{}: {} vs {}",
                    t.name, one.pool_workers, pool.pool_workers
                ));
                checks.record(
                    || {
                        format!(
                            "{} probe sums, pool width 1 vs {}",
                            t.name, pool.pool_workers
                        )
                    },
                    check::counts_equal(&pool.output.counts, &one.output.counts)
                        .and_then(|()| check::bitwise_equal(&pool.output.sums, &one.output.sums)),
                );
            }
            (Err(e), _) | (_, Err(e)) => checks.fail(format!("{} probe: {e}", t.name)),
        }
    }

    // ---- traced sequential pass: one scan per template, every layer a
    // span of its own ---------------------------------------------------
    let mut seq = SeqPass::default();
    if ctx.trace {
        tracer.set_enabled(true);
        for (ti, t) in templates.iter().enumerate() {
            let Some(last) = scans
                .iter()
                .rev()
                .find(|sc| sc.template == ti && sc.day == 0)
            else {
                continue;
            };
            let out = sequential_scan(
                &mut tracer,
                qid,
                &day_path(0),
                last,
                &s.counties,
                &t.device,
                &mut seq,
            )
            .map_err(|e| io_err("sequential traced scan", e))?;
            let key = (0, ti, plan_key(&last.out.plan));
            let want = references.entry(key).or_insert_with(|| {
                in_memory_counts(&last.out.plan, &s.days[0], &s.counties, &last.query)
            });
            checks.record(
                || format!("{} sequential traced scan counts", t.name),
                check::counts_equal(&out.counts, want),
            );
            qid += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&data_dir);

    // ---- report --------------------------------------------------------
    let mut meta = ctx.meta();
    meta.push(("day_rows", DAY_ROWS.to_string()));
    meta.push(("days", DAYS.to_string()));
    meta.push(("device_budget_points", BUDGET_POINTS.to_string()));
    meta.push(("counties", s.counties.len().to_string()));
    meta.push((
        "templates",
        templates
            .iter()
            .map(|t| {
                format!(
                    "{} = {} (eps {} m)",
                    t.name,
                    t.sql(Path::new("<day>")),
                    t.epsilon
                )
            })
            .collect::<Vec<_>>()
            .join("; "),
    ));
    meta.push(("probe_pool_widths", probe_widths.join("; ")));
    let plans = templates
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let ran = scans
                .iter()
                .filter(|sc| sc.template == ti)
                .map(|sc| sc.out.plan);
            (t.name.to_string(), plan_history(ran))
        })
        .collect();
    let queries: Vec<Timed> = scans
        .iter()
        .map(|sc| Timed {
            template: sc.template,
            ms: sc.ms,
            rows: sc.out.rows,
            traced: sc.traced,
        })
        .collect();
    let ingest_rows_per_s = Some(DAY_ROWS as f64 / (stats::mean(&ingest_ms) / 1e3));
    let mut report = Report {
        workload: "stream-counties",
        meta,
        templates: templates.iter().map(|t| t.name.to_string()).collect(),
        plans,
        setup_s,
        peak_rss_mb,
        queries,
        ingest_rows_per_s,
        layers: BTreeMap::new(),
        self_times: Vec::new(),
        checks,
        spans_jsonl: String::new(),
    };
    if ctx.trace {
        let calls = Calls {
            ingest_ms,
            ingest_bytes_per_row: ingest_bytes as f64 / DAY_ROWS as f64,
            parse_ms,
            plan_ms,
        };
        layers(&mut report, ctx, &scans, &tracer, &calls, &seq, &s.counties);
        report.spans_jsonl = tracer.to_json_lines();
    }
    Ok(report)
}

/// Variant and pipeline config: what decides a plan's counts.
fn plan_key(p: &Plan) -> String {
    format!("{:?}/{:?}", p.variant, p.config)
}

fn in_memory_counts(plan: &Plan, day: &PointTable, polys: &[Polygon], q: &Query) -> Vec<u64> {
    let one_batch = Plan {
        batch_points: day.len().max(1),
        ..*plan
    };
    let bytes = day.len().max(1) * PointTable::point_bytes(q.attrs_uploaded());
    let device = Device::new(DeviceConfig::small(bytes, 8192));
    one_batch.execute(day, polys, q, &device).counts
}

/// Calls timed outside the scans of the traced run.
struct Calls {
    ingest_ms: Vec<f64>,
    ingest_bytes_per_row: f64,
    parse_ms: Vec<f64>,
    plan_ms: Vec<f64>,
}

/// Stage times of the sequential traced pass (wall clock: one thread).
#[derive(Default)]
struct SeqPass {
    scans: usize,
    point_ms: f64,
    polygon_ms: f64,
    outline_ms: f64,
}

enum Prepared<'a> {
    Bounded(BoundedRasterJoin, PreparedBounded),
    Accurate(AccurateRasterJoin, PreparedAccurate<'a>),
}

/// One scan of `path` with the plan and chunking a pool scan chose, made
/// call by call — `ChunkedReader` fetch and decode, `prepare`,
/// `execute_prepared`, `AggregateMerger::fold` — on this thread, so each
/// layer gets its own span.
fn sequential_scan(
    tracer: &mut Tracer,
    qid: u64,
    path: &Path,
    like: &Scan,
    polys: &[Polygon],
    device: &Device,
    seq: &mut SeqPass,
) -> std::io::Result<JoinOutput> {
    let plan = like.out.plan;
    let chunk_rows = like.out.chunk_rows;
    let required = like.query.attr_columns();
    let query = like.query.project_attrs(&required);
    tracer.span("scan", qid, |tr| {
        let prepared = tr.span("prepare", qid, |_| match plan.variant {
            Variant::Bounded => {
                let mut ex = plan.bounded_executor(chunk_rows);
                ex.workers = 1;
                let p = ex.prepare(polys, query.epsilon, device);
                Prepared::Bounded(ex, p)
            }
            Variant::Accurate => {
                let mut ex = plan.accurate_executor(chunk_rows);
                ex.workers = 1;
                let p = ex.prepare(polys, device);
                seq.outline_ms += ms(p.outline_time());
                Prepared::Accurate(ex, p)
            }
        });
        let mut reader = ChunkedReader::open_projected(path, chunk_rows, Some(&required))?;
        let mut merger = AggregateMerger::new(result_slots(polys));
        while let Some(enc) = tr.span("fetch", qid, |_| reader.fetch_chunk())? {
            let dec = tr.span("decode", qid, |_| enc.decode())?;
            let out = tr.span("execute_prepared", qid, |_| match &prepared {
                Prepared::Bounded(ex, p) => ex.execute_prepared(p, &dec.table, &query, device),
                Prepared::Accurate(ex, p) => ex.execute_prepared(p, &dec.table, &query, device),
            });
            seq.point_ms += ms(out.stats.point_stage);
            seq.polygon_ms += ms(out.stats.polygon_stage);
            tr.span("fold", qid, |_| merger.fold(&out));
        }
        seq.scans += 1;
        Ok(merger.finish())
    })
}

fn layers(
    report: &mut Report,
    ctx: &Ctx,
    scans: &[Scan],
    tracer: &Tracer,
    calls: &Calls,
    seq: &SeqPass,
    polys: &[Polygon],
) {
    let traced: Vec<&Scan> = scans.iter().filter(|s| s.traced).collect();
    let per_scan = |f: &dyn Fn(&Scan) -> f64| -> f64 {
        stats::mean(&traced.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let rows: f64 = traced
        .iter()
        .map(|s| s.out.rows as f64)
        .sum::<f64>()
        .max(1.0);
    let spans = tracer.self_ms_by_name();
    let seq_scans = seq.scans.max(1) as f64;
    let span_ms = |name: &str| spans.get(name).map_or(0.0, |v| v.1) / seq_scans;
    let changes = report.plans.iter().filter(|(_, p)| p.len() > 1).count();
    let overhead = report.tracing_overhead_pct();
    // Bounded plans scan-convert rings and triangulate nothing.
    let triangles = if traced
        .iter()
        .any(|s| s.out.plan.variant == Variant::Accurate)
    {
        raster_geom::triangulate::triangulate_all(polys).len() as f64
    } else {
        0.0
    };
    let l = &mut report.layers;
    l.insert("raster-data.ingest_ms", stats::mean(&calls.ingest_ms));
    l.insert(
        "raster-data.ingest_bytes_per_row",
        calls.ingest_bytes_per_row,
    );
    l.insert("raster-data.read_ms", per_scan(&|s| ms(s.out.read_time)));
    l.insert(
        "raster-data.decode_ms",
        per_scan(&|s| ms(s.out.decode_time)),
    );
    l.insert(
        "raster-data.read_bytes_per_row",
        traced.iter().map(|s| s.out.read_bytes as f64).sum::<f64>() / rows,
    );
    l.insert(
        "raster-data.recovery_events",
        traced
            .iter()
            .map(|s| {
                let r = &s.out.recovery;
                (r.io_retries + r.block_rereads + u64::from(r.dir_rebuilt)) as f64
            })
            .sum(),
    );
    l.insert("raster-join.optimizer.plan_ms", stats::mean(&calls.plan_ms));
    l.insert("raster-join.optimizer.plan_changes", changes as f64);
    l.insert("raster-join.sql.parse_ms", stats::mean(&calls.parse_ms));
    l.insert(
        "raster-geom.triangulate_ms",
        per_scan(&|s| ms(s.out.output.stats.triangulation)),
    );
    l.insert("raster-geom.triangles", triangles);
    l.insert(
        "raster-index.build_ms",
        per_scan(&|s| ms(s.out.output.stats.index_build)),
    );
    l.insert("raster-join.prepare_ms", span_ms("prepare"));
    l.insert("raster-join.outline_ms", seq.outline_ms / seq_scans);
    l.insert(
        "raster-gpu.point_pass_ms",
        per_scan(&|s| ms(s.out.output.stats.point_stage)),
    );
    l.insert(
        "raster-gpu.binning_ms",
        per_scan(&|s| ms(s.out.output.stats.binning)),
    );
    l.insert(
        "raster-gpu.shard_merge_ms",
        per_scan(&|s| ms(s.out.output.stats.shard_merge)),
    );
    l.insert(
        "raster-gpu.binned_points",
        per_scan(&|s| s.out.output.stats.binned_points as f64),
    );
    l.insert(
        "raster-gpu.minor_faults",
        per_scan(&|s| s.cpu.minor_faults as f64),
    );
    l.insert("raster-gpu.sys_cpu_ms", per_scan(&|s| s.cpu.sys_ms));
    l.insert(
        "raster-gpu.polygon_pass_ms",
        per_scan(&|s| ms(s.out.output.stats.polygon_stage)),
    );
    l.insert(
        "raster-gpu.fragments",
        per_scan(&|s| s.out.output.stats.fragments as f64),
    );
    l.insert(
        "raster-gpu.polygon_passes",
        per_scan(&|s| s.out.output.stats.passes as f64),
    );
    l.insert(
        "raster-join.pip_tests",
        per_scan(&|s| s.out.output.stats.pip_tests as f64),
    );
    l.insert(
        "raster-join.pip_per_point",
        traced
            .iter()
            .map(|s| s.out.output.stats.pip_tests as f64)
            .sum::<f64>()
            / rows,
    );
    l.insert(
        "raster-join.stream.chunks",
        per_scan(&|s| f64::from(s.out.chunks)),
    );
    l.insert(
        "raster-join.stream.busy_ms",
        per_scan(&|s| ms(s.out.output.stats.processing)),
    );
    l.insert(
        "raster-join.stream.stall_ms",
        per_scan(&|s| ms(s.out.output.stats.disk)),
    );
    l.insert("raster-join.stream.fold_ms", span_ms("fold"));
    l.insert(
        "raster-join.stream.worker_util",
        per_scan(&|s| {
            let st = &s.out.output.stats;
            let work = st.point_stage + st.polygon_stage + s.out.decode_time;
            let cap = st.processing.as_secs_f64() * s.out.pool_workers.max(1) as f64;
            if cap > 0.0 {
                work.as_secs_f64() / cap
            } else {
                0.0
            }
        }),
    );
    let nproc = ctx.nproc as f64;
    l.insert(
        "raster-join.stream.cpu_util",
        per_scan(&|s| (s.cpu.user_ms + s.cpu.sys_ms) / (s.ms * nproc)),
    );
    l.insert("trace.overhead_pct", overhead);
    l.insert("trace.queries", traced.len() as f64);
    l.insert("trace.spans", tracer.spans().len() as f64);

    let mut self_times = vec![
        (
            "raster-data fetch (ChunkedReader::fetch_chunk)".to_string(),
            span_ms("fetch"),
        ),
        (
            "raster-data decode (EncodedChunk::decode)".to_string(),
            span_ms("decode"),
        ),
        ("raster-join prepare".to_string(), span_ms("prepare")),
        (
            "raster-gpu point pass".to_string(),
            seq.point_ms / seq_scans,
        ),
        (
            "raster-gpu polygon pass".to_string(),
            seq.polygon_ms / seq_scans,
        ),
        (
            "raster-join execute_prepared, rest".to_string(),
            span_ms("execute_prepared") - (seq.point_ms + seq.polygon_ms) / seq_scans,
        ),
        (
            "raster-join fold (AggregateMerger::fold)".to_string(),
            span_ms("fold"),
        ),
        (
            "scan rest (ChunkedReader::open_projected, loop)".to_string(),
            span_ms("scan"),
        ),
    ];
    self_times.sort_by(|a, b| b.1.total_cmp(&a.1));
    report.self_times = self_times;
}
