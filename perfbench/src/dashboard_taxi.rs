//! `dashboard-taxi`: the paper's interactive case — an analyst's dashboard
//! over 1 M in-memory taxi trips and the 260 NYC neighborhoods.
//!
//! Queries come from a deck of 20 that is reshuffled (seeded) each time it
//! runs out, so every run sees the same mix: 14 planner queries
//! (`AutoRasterJoin::execute`, COUNT/SUM/AVG at ε ∈ {10, 20} m with seeded
//! `hour`/`fare` filters), 2 exact COUNTs (`AccurateRasterJoin`) and one
//! each of the moments, min/max, temporal (24 hour buckets) and
//! multi-aggregate operators at ε = 20 m. The polygon side is small and
//! each query is one batch on the default device, so the point pass and
//! canvas work carry the cost.

use crate::check::{self, Checks, Oracle};
use crate::procfs::{self, Cpu};
use crate::report::{plan_history, Report, Timed};
use crate::trace::Tracer;
use crate::{ms, stats, Ctx, HOUR_BAND};
use raster_data::filter::passes;
use raster_data::generators::TaxiModel;
use raster_data::{polygons, CmpOp, PointTable, Predicate};
use raster_geom::Polygon;
use raster_gpu::Device;
use raster_join::minmax::MinMaxOutput;
use raster_join::moments::MomentsOutput;
use raster_join::multi::MultiOutput;
use raster_join::temporal::TemporalOutput;
use raster_join::{
    AccurateRasterJoin, Aggregate, AutoRasterJoin, ExecStats, JoinOutput, MinMaxRasterJoin,
    MomentsQuery, MomentsRasterJoin, MultiBoundedRasterJoin, MultiQuery, Plan, Query,
    TemporalRasterJoin, TimeBuckets,
};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

const ROWS: usize = 1_000_000;
/// ε of the extension operators (m).
const OPS_EPSILON: f64 = 20.0;

#[derive(Clone)]
enum Op {
    Auto(Query),
    Accurate(Query),
    Moments(MomentsQuery),
    MinMax(usize, Vec<Predicate>),
    Temporal(TimeBuckets),
    Multi(MultiQuery),
}

struct Template {
    name: String,
    op: Op,
}

enum Answer {
    Join(JoinOutput),
    Moments(MomentsOutput),
    MinMax(MinMaxOutput),
    Temporal(TemporalOutput),
    Multi(MultiOutput),
}

impl Answer {
    fn stats(&self) -> &ExecStats {
        match self {
            Answer::Join(o) => &o.stats,
            Answer::Moments(o) => &o.stats,
            Answer::MinMax(o) => &o.stats,
            Answer::Temporal(o) => &o.stats,
            Answer::Multi(o) => &o.stats,
        }
    }
}

/// The templates of one run; the seed draws the filter thresholds from
/// narrow bands, so every seed asks for comparable work.
fn templates(ctx: &Ctx, taxi: &PointTable) -> Vec<Template> {
    let fare = taxi.attr_index("fare").expect("taxi has fare");
    let hour = taxi.attr_index("hour").expect("taxi has hour");
    let mut rng = ctx.rng(2);
    let mut hour_lt =
        || Predicate::new(hour, CmpOp::Lt, rng.range(HOUR_BAND.0, HOUR_BAND.1) as f32);
    let by_hour = vec![hour_lt()];
    let by_hour2 = vec![hour_lt()];
    let by_fare = vec![Predicate::new(
        fare,
        CmpOp::Lt,
        ctx.rng(3).range(24, 26) as f32,
    )];
    let auto = |name: &str, q: Query, eps: f64, preds: &Vec<Predicate>| Template {
        name: format!("auto-{name}-{eps}m"),
        op: Op::Auto(q.with_epsilon(eps).with_predicates(preds.clone())),
    };
    let none = Vec::new();
    // The mix puts the median inside the cluster of ε = 10 m SUM/AVG
    // queries (about 40 % of a deck), not in the gap below it, where a
    // small shift of either cluster would move it far.
    vec![
        auto("count-by-hour", Query::count(), 10.0, &by_hour),
        auto("sum-fare", Query::sum(fare), 10.0, &none),
        auto("sum-fare-by-hour", Query::sum(fare), 10.0, &by_hour),
        auto("avg-fare-by-fare", Query::avg(fare), 10.0, &by_fare),
        auto("avg-fare-by-hour", Query::avg(fare), 10.0, &by_hour2),
        auto("sum-fare-by-fare", Query::sum(fare), 20.0, &by_fare),
        auto("avg-fare", Query::avg(fare), 20.0, &none),
        Template {
            name: "exact-count".into(),
            op: Op::Accurate(Query::count()),
        },
        Template {
            name: "exact-count-by-hour".into(),
            op: Op::Accurate(Query::count().with_predicates(by_hour.clone())),
        },
        Template {
            name: "moments-fare".into(),
            op: Op::Moments(MomentsQuery::new(vec![fare]).with_epsilon(OPS_EPSILON)),
        },
        Template {
            name: "minmax-fare-by-hour".into(),
            op: Op::MinMax(fare, by_hour.clone()),
        },
        Template {
            name: "temporal-24h".into(),
            op: Op::Temporal(TimeBuckets::covering(hour, 0.0, 168.0, 24)),
        },
        Template {
            name: "multi-count-sum-avg".into(),
            op: Op::Multi(
                MultiQuery::new(vec![
                    Aggregate::Count,
                    Aggregate::Sum(fare),
                    Aggregate::Avg(fare),
                ])
                .with_epsilon(OPS_EPSILON),
            ),
        },
    ]
}

/// Template indices of one deck: each planner template twice, every other
/// template once (14 + 2 + 4 = 20).
fn deck(templates: &[Template]) -> Vec<usize> {
    templates
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            let copies = if matches!(t.op, Op::Auto(_)) { 2 } else { 1 };
            std::iter::repeat_n(i, copies)
        })
        .collect()
}

struct Engines {
    auto: AutoRasterJoin,
    accurate: AccurateRasterJoin,
    moments: MomentsRasterJoin,
    minmax: MinMaxRasterJoin,
    temporal: TemporalRasterJoin,
    multi: MultiBoundedRasterJoin,
}

impl Engines {
    fn new(workers: usize) -> Engines {
        let mut auto = AutoRasterJoin::default();
        auto.workers = workers;
        Engines {
            auto,
            accurate: AccurateRasterJoin::new(workers),
            moments: MomentsRasterJoin::new(workers),
            minmax: MinMaxRasterJoin::new(workers),
            temporal: TemporalRasterJoin::new(workers, OPS_EPSILON),
            multi: MultiBoundedRasterJoin::new(workers),
        }
    }
}

struct Setup {
    taxi: PointTable,
    hoods: Vec<Polygon>,
    engines: Engines,
    device: Device,
}

/// One query of the loop.
struct Done {
    template: usize,
    answer: Answer,
    plan: Option<Plan>,
    ms: f64,
    cpu: Cpu,
    traced: bool,
    plan_ms: Option<f64>,
    prepare_ms: f64,
    outline_ms: f64,
}

/// Run one template; only the call into the engine is timed.
fn execute(s: &Setup, tr: &mut Tracer, qid: u64, template: usize, t: &Template) -> Done {
    let (taxi, hoods, dev, e) = (&s.taxi, &s.hoods[..], &s.device, &s.engines);
    let mut plan_ms = None;
    let (mut prepare_ms, mut outline_ms) = (0.0, 0.0);
    if let (Op::Auto(q), true) = (&t.op, tr.enabled()) {
        // The planning step `execute` repeats inside, timed on its own.
        let t0 = Instant::now();
        tr.span("plan", qid, |_| e.auto.plan(taxi, hoods, q, dev));
        plan_ms = Some(ms(t0.elapsed()));
    }
    let cpu0 = Cpu::now();
    let t0 = Instant::now();
    let (answer, plan) = match &t.op {
        Op::Auto(q) => {
            let (plan, out) = tr.span("execute", qid, |_| e.auto.execute(taxi, hoods, q, dev));
            (Answer::Join(out), Some(plan))
        }
        Op::Accurate(q) => {
            let prepared = tr.span("prepare", qid, |_| e.accurate.prepare(hoods, dev));
            prepare_ms = ms(t0.elapsed());
            outline_ms = ms(prepared.outline_time());
            let out = tr.span("execute_prepared", qid, |_| {
                e.accurate.execute_prepared(&prepared, taxi, q, dev)
            });
            (Answer::Join(out), None)
        }
        Op::Moments(mq) => (
            Answer::Moments(tr.span("moments", qid, |_| e.moments.execute(taxi, hoods, mq, dev))),
            None,
        ),
        Op::MinMax(attr, preds) => (
            Answer::MinMax(tr.span("minmax", qid, |_| {
                e.minmax
                    .execute(taxi, hoods, *attr, preds, OPS_EPSILON, dev)
            })),
            None,
        ),
        Op::Temporal(b) => (
            Answer::Temporal(tr.span("temporal", qid, |_| e.temporal.execute(taxi, hoods, b, dev))),
            None,
        ),
        Op::Multi(mq) => (
            Answer::Multi(tr.span("multi", qid, |_| e.multi.execute(taxi, hoods, mq, dev))),
            None,
        ),
    };
    let elapsed = ms(t0.elapsed());
    Done {
        template,
        answer,
        plan,
        ms: elapsed,
        cpu: Cpu::now().since(&cpu0),
        traced: tr.enabled(),
        plan_ms,
        prepare_ms,
        outline_ms,
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (s, setup_s) = ctx.timed_setup(|| Setup {
        taxi: TaxiModel::default().generate(ROWS, ctx.seed),
        hoods: polygons::nyc_neighborhoods(),
        engines: Engines::new(ctx.nproc),
        device: Device::default(),
    });
    let templates = templates(ctx, &s.taxi);
    let mut slots = deck(&templates);
    let mut rng = ctx.rng(4);

    let mut tracer = Tracer::new();
    let mut done: Vec<Done> = Vec::new();
    let mut qid = 0u64;
    let deadline = ctx.deadline();
    // Whole decks only, so every run asks for the same mix.
    while Instant::now() < deadline {
        rng.shuffle(&mut slots);
        for &ti in &slots {
            tracer.set_enabled(ctx.trace && qid % 2 == 1);
            done.push(execute(&s, &mut tracer, qid, ti, &templates[ti]));
            qid += 1;
        }
    }
    let peak_rss_mb = procfs::peak_rss_mb();

    // ---- checks, outside the timed loop --------------------------------
    if ctx.negative_control {
        if let Some(Answer::Join(o)) = done.first_mut().map(|d| &mut d.answer) {
            check::corrupt(&mut o.counts);
        }
    }
    let mut checks = Checks::default();
    let single = Engines::new(1);
    let mut oracle: Option<Oracle> = None;
    // Width-1 reference per template (and plan, for planner templates).
    let mut references: HashMap<(usize, String), Answer> = HashMap::new();
    for d in &done {
        let t = &templates[d.template];
        let what = || format!("{} (query {})", t.name, d.template);
        let outcome = match (&t.op, &d.answer) {
            (Op::Accurate(q), Answer::Join(got)) => {
                // Exact counts must equal the independent f64
                // point-in-polygon reference.
                let o = oracle.get_or_insert_with(|| Oracle::new(&s.taxi, &s.hoods, ctx.nproc));
                let want = o.counts(
                    got.counts.len(),
                    |r| passes(&s.taxi, r, &q.predicates),
                    |_| true,
                );
                check::counts_equal(&got.counts, &want)
            }
            _ => {
                let key = (
                    d.template,
                    d.plan.map_or(String::new(), |p| format!("{p:?}")),
                );
                let want = references
                    .entry(key)
                    .or_insert_with(|| width_one(&s, &single, t, d.plan));
                compare(&d.answer, want)
            }
        };
        checks.record(what, outcome);
    }

    // ---- report --------------------------------------------------------
    let mut meta = ctx.meta();
    meta.push(("taxi_rows", ROWS.to_string()));
    meta.push(("neighborhoods", s.hoods.len().to_string()));
    meta.push((
        "deck",
        format!("{} queries, reshuffled per deck", slots.len()),
    ));
    let plans = templates
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.op, Op::Auto(_)))
        .map(|(ti, t)| {
            let ran = done
                .iter()
                .filter(|d| d.template == ti)
                .filter_map(|d| d.plan);
            (t.name.clone(), plan_history(ran))
        })
        .collect();
    let queries = done
        .iter()
        .map(|d| Timed {
            template: d.template,
            ms: d.ms,
            rows: s.taxi.len() as u64,
            traced: d.traced,
        })
        .collect();
    let mut report = Report {
        workload: "dashboard-taxi",
        meta,
        templates: templates.iter().map(|t| t.name.clone()).collect(),
        plans,
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
        layers(&mut report, &s, &templates, &done, &tracer);
        report.spans_jsonl = tracer.to_json_lines();
    }
    Ok(report)
}

/// The same template on width-1 executors; a planner query re-runs the
/// plan it was given at width 1.
fn width_one(s: &Setup, e: &Engines, t: &Template, plan: Option<Plan>) -> Answer {
    let (taxi, hoods, dev) = (&s.taxi, &s.hoods[..], &s.device);
    match &t.op {
        Op::Auto(q) => {
            let plan = Plan {
                workers: 1,
                ..plan.expect("planner queries carry their plan")
            };
            Answer::Join(plan.execute(taxi, hoods, q, dev))
        }
        Op::Accurate(_) => unreachable!("exact counts are checked against the oracle"),
        Op::Moments(mq) => Answer::Moments(e.moments.execute(taxi, hoods, mq, dev)),
        Op::MinMax(attr, preds) => {
            Answer::MinMax(
                e.minmax
                    .execute(taxi, hoods, *attr, preds, OPS_EPSILON, dev),
            )
        }
        Op::Temporal(b) => Answer::Temporal(e.temporal.execute(taxi, hoods, b, dev)),
        Op::Multi(mq) => Answer::Multi(e.multi.execute(taxi, hoods, mq, dev)),
    }
}

/// Counts (and min/max) must match exactly; f32-accumulated sums within
/// [`check::SUM_REL_TOL`].
fn compare(got: &Answer, want: &Answer) -> Result<(), String> {
    match (got, want) {
        (Answer::Join(g), Answer::Join(w)) => check::counts_equal(&g.counts, &w.counts)
            .and_then(|()| check::sums_close(&g.sums, &w.sums)),
        (Answer::Moments(g), Answer::Moments(w)) => {
            check::counts_equal(&g.counts, &w.counts)?;
            for (gs, ws) in g
                .sums
                .iter()
                .zip(&w.sums)
                .chain(g.sumsqs.iter().zip(&w.sumsqs))
            {
                check::sums_close(gs, ws)?;
            }
            Ok(())
        }
        (Answer::MinMax(g), Answer::MinMax(w)) => {
            if g.min == w.min && g.max == w.max {
                Ok(())
            } else {
                Err("per-polygon min/max differ from the width-1 run".into())
            }
        }
        (Answer::Temporal(g), Answer::Temporal(w)) => {
            check::counts_equal(&g.totals, &w.totals)?;
            for (gb, wb) in g.counts.iter().zip(&w.counts) {
                check::counts_equal(gb, wb)?;
            }
            Ok(())
        }
        (Answer::Multi(g), Answer::Multi(w)) => {
            check::counts_equal(&g.counts, &w.counts)?;
            for (gs, ws) in g.sums.iter().zip(&w.sums) {
                check::sums_close(gs, ws)?;
            }
            Ok(())
        }
        _ => Err("answer kind differs from its reference".into()),
    }
}

fn layers(report: &mut Report, s: &Setup, templates: &[Template], done: &[Done], tracer: &Tracer) {
    let traced: Vec<&Done> = done.iter().filter(|d| d.traced).collect();
    let per_query = |f: &dyn Fn(&Done) -> f64| -> f64 {
        stats::mean(&traced.iter().map(|d| f(d)).collect::<Vec<_>>())
    };
    let st = |d: &Done| *d.answer.stats();
    let op_ms = |kind: fn(&Op) -> bool| -> f64 {
        let v: Vec<f64> = traced
            .iter()
            .filter(|d| kind(&templates[d.template].op))
            .map(|d| d.ms)
            .collect();
        stats::mean(&v)
    };
    let is_ext = |d: &Done| {
        matches!(
            templates[d.template].op,
            Op::Moments(_) | Op::MinMax(..) | Op::Temporal(_) | Op::Multi(_)
        )
    };
    let rows = (traced.len() * s.taxi.len()).max(1) as f64;
    // Predictions are in model units; the calibration's units→seconds
    // factor (a running mean over the run's feedback) converts them.
    let unit = s.engines.auto.calibration().unit;
    let ratios: Vec<f64> = s
        .engines
        .auto
        .decision_trace()
        .iter()
        .filter(|d| d.actual.as_secs_f64() > 0.0)
        .map(|d| d.predicted * unit / d.actual.as_secs_f64())
        .collect();
    let plan_ms: Vec<f64> = traced.iter().filter_map(|d| d.plan_ms).collect();
    let triangulates = traced.iter().any(|d| {
        matches!(
            templates[d.template].op,
            Op::Accurate(_) | Op::Moments(_) | Op::Temporal(_) | Op::Multi(_)
        )
    });
    let triangles = if triangulates {
        raster_geom::triangulate::triangulate_all(&s.hoods).len() as f64
    } else {
        0.0
    };
    let changes = report.plans.iter().filter(|(_, p)| p.len() > 1).count();
    let overhead = report.tracing_overhead_pct();

    let l = &mut report.layers;
    l.insert("raster-join.optimizer.plan_ms", stats::mean(&plan_ms));
    l.insert(
        "raster-join.optimizer.pred_actual_ratio",
        stats::median(&ratios),
    );
    l.insert("raster-join.optimizer.plan_changes", changes as f64);
    l.insert(
        "raster-geom.triangulate_ms",
        per_query(&|d| ms(st(d).triangulation)),
    );
    l.insert("raster-geom.triangles", triangles);
    l.insert(
        "raster-index.build_ms",
        per_query(&|d| ms(st(d).index_build)),
    );
    l.insert("raster-join.prepare_ms", per_query(&|d| d.prepare_ms));
    l.insert("raster-join.outline_ms", per_query(&|d| d.outline_ms));
    l.insert(
        "raster-gpu.point_pass_ms",
        per_query(&|d| ms(st(d).point_stage)),
    );
    l.insert("raster-gpu.binning_ms", per_query(&|d| ms(st(d).binning)));
    l.insert(
        "raster-gpu.shard_merge_ms",
        per_query(&|d| ms(st(d).shard_merge)),
    );
    l.insert(
        "raster-gpu.binned_points",
        per_query(&|d| st(d).binned_points as f64),
    );
    l.insert(
        "raster-gpu.minor_faults",
        per_query(&|d| d.cpu.minor_faults as f64),
    );
    l.insert("raster-gpu.sys_cpu_ms", per_query(&|d| d.cpu.sys_ms));
    l.insert(
        "raster-gpu.polygon_pass_ms",
        per_query(&|d| ms(st(d).polygon_stage)),
    );
    l.insert(
        "raster-gpu.fragments",
        per_query(&|d| st(d).fragments as f64),
    );
    l.insert(
        "raster-gpu.polygon_passes",
        per_query(&|d| f64::from(st(d).passes)),
    );
    l.insert(
        "raster-join.pip_tests",
        per_query(&|d| st(d).pip_tests as f64),
    );
    l.insert(
        "raster-join.pip_per_point",
        traced.iter().map(|d| st(d).pip_tests as f64).sum::<f64>() / rows,
    );
    l.insert(
        "raster-join.ops.moments_ms",
        op_ms(|o| matches!(o, Op::Moments(_))),
    );
    l.insert(
        "raster-join.ops.minmax_ms",
        op_ms(|o| matches!(o, Op::MinMax(..))),
    );
    l.insert(
        "raster-join.ops.temporal_ms",
        op_ms(|o| matches!(o, Op::Temporal(_))),
    );
    l.insert(
        "raster-join.ops.multi_ms",
        op_ms(|o| matches!(o, Op::Multi(_))),
    );
    l.insert("trace.overhead_pct", overhead);
    l.insert("trace.queries", traced.len() as f64);
    l.insert("trace.spans", tracer.spans().len() as f64);

    // Where a traced query's latency went, per query. The extension
    // operators report no stage split, so their processing is one entry.
    let ext_ms = |d: &Done| if is_ext(d) { ms(st(d).processing) } else { 0.0 };
    let staged = |d: &Done| {
        let x = st(d);
        ms(x.point_stage + x.polygon_stage + x.triangulation + x.index_build)
            + d.outline_ms
            + ext_ms(d)
    };
    let mut self_times = vec![
        (
            "raster-gpu point pass",
            per_query(&|d| ms(st(d).point_stage)),
        ),
        (
            "raster-gpu polygon pass",
            per_query(&|d| ms(st(d).polygon_stage)),
        ),
        (
            "raster-geom triangulation",
            per_query(&|d| ms(st(d).triangulation)),
        ),
        (
            "raster-index grid build",
            per_query(&|d| ms(st(d).index_build)),
        ),
        ("raster-join outline pass", per_query(&|d| d.outline_ms)),
        (
            "extension operators, processing (no stage split)",
            per_query(&ext_ms),
        ),
        (
            "executor rest: canvas allocation, planning inside execute, readback",
            per_query(&|d| d.ms - staged(d)),
        ),
        (
            "raster-join.optimizer plan (separate call)",
            plan_ms.iter().sum::<f64>() / traced.len().max(1) as f64,
        ),
    ]
    .into_iter()
    .map(|(layer, v)| (layer.to_string(), v))
    .collect::<Vec<_>>();
    self_times.sort_by(|a, b| b.1.total_cmp(&a.1));
    report.self_times = self_times;
}
