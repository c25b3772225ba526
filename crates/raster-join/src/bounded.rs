//! Bounded raster join (§4.1–4.2): the approximate, PIP-free operator.
//!
//! Pipeline per (batch × canvas tile):
//!
//! 1. **DrawPoints** — every point passing the filter predicates is
//!    transformed to screen space and additively blended into the point
//!    FBO (`count += 1`, `sum += a_i`).
//! 2. **DrawPolygons** — triangulated polygons are rasterized
//!    (pixel-center sampling); each fragment folds its pixel's partial
//!    aggregates into the polygon's result slot.
//!
//! The canvas resolution realises the ε-bound of §4.2 (pixel diagonal =
//! ε); when it exceeds the device FBO limit the canvas splits into tiles
//! and the two steps re-run per tile (Fig. 5). Points are uploaded to the
//! device exactly once per batch regardless of the tile count (§5).
//!
//! The point FBO is additive for distributive aggregates (§5), so the
//! executor splits into *accumulate* (DrawPoints, once per batch) and
//! *resolve* (DrawPolygons, once per tile): a query of several batches
//! blends every batch into its tile canvases and resolves each tile once,
//! after the last batch. A single-batch query resolves each tile right
//! after its point pass, so only one tile canvas is live at a time; a
//! query of several batches over a tiled canvas keeps every tile canvas
//! (8 B per pixel) live until the last batch — the whole canvas, where a
//! per-batch resolve held one tile. The
//! streaming executor (`stream.rs`) uses the same split with a scan-wide
//! canvas: `BoundedRasterJoin::scan_point_pass` emits a chunk's binned
//! entries and `BoundedRasterJoin::resolve_scan` runs the polygon pass
//! once per scan.
//!
//! Two execution paths exist per batch, selected by [`RasterConfig`]:
//!
//! * **Binned** (default) — `raster_gpu::bin_points` classifies every
//!   filtered point into its tile once, so each tile's DrawPoints replays
//!   only its own pre-transformed entries: O(points + fragments) per
//!   batch. With `sharding` on and enough point density, the replay goes
//!   through private per-worker shards instead of FBO atomics.
//! * **Rescan** (`RasterConfig::naive`) — the literal translation of the
//!   hardware pipeline: every tile pass re-filters and re-transforms the
//!   whole batch, O(points × tiles). Kept for the ablation bench.

use crate::query::{result_slots, JoinOutput, Query};
use crate::stats::ExecStats;
use raster_data::filter::passes;
use raster_data::PointTable;
use raster_geom::hausdorff::resolution_for_epsilon;
use raster_geom::{BBox, Point, Polygon};
use raster_gpu::bin::{bin_points, BinnedBatch, CanvasTiling};
use raster_gpu::exec::{block_for, default_workers, parallel_dynamic, parallel_ranges, timed};
use raster_gpu::raster::rasterize_polygon_spans;
use raster_gpu::ssbo::{AtomicF64Array, AtomicU64Array};
use raster_gpu::{Device, FboPool, PixelPartials, PointFbo, RasterConfig, ScanCanvas, Viewport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// The sharding density gate lives on `RasterConfig::use_shards` so the
// bounded and accurate executors (and the planner's cost model) share one
// definition; see `raster_gpu::SHARD_MIN_DENSITY` for the threshold.

/// Estimate how many points of `[start, end)` will actually blend into
/// `canvas`: survive the filter predicates AND land inside the canvas
/// extent. Drives the sharding density gate — a deterministic
/// evenly-spaced sample of up to 1024 rows, scaled up; cheap enough to
/// run per batch and accurate enough for an order-of-magnitude gate.
/// Without it, a selective predicate (0.1% pass rate) or a point set
/// mostly outside the polygon extent (nationwide points vs one city's
/// polygons) would trigger a full O(pixels × shards) merge to blend a
/// handful of fragments.
pub(crate) fn estimate_survivors(
    points: &PointTable,
    start: usize,
    end: usize,
    preds: &[raster_data::Predicate],
    canvas: &Viewport,
) -> usize {
    let n = end - start;
    if n == 0 {
        return 0;
    }
    let probe = canvas.pixel_probe();
    let sample = n.min(1024);
    // Round the stride *up* so the sample spans the whole range — rounding
    // down degenerates to the first `sample` consecutive rows for
    // n < 2·sample, which biases the estimate on row-order-correlated
    // predicates (the taxi tables are time-ordered).
    let step = n.div_ceil(sample);
    let mut hits = 0usize;
    let mut checked = 0usize;
    let mut i = start;
    while i < end && checked < sample {
        if (preds.is_empty() || passes(points, i, preds))
            && probe.pixel_of(points.point(i)).is_some()
        {
            hits += 1;
        }
        checked += 1;
        i += step;
    }
    n * hits / checked.max(1)
}

/// The bounded (approximate) raster join operator.
pub struct BoundedRasterJoin {
    pub workers: usize,
    /// Binning/sharding toggles (both on by default).
    pub config: RasterConfig,
    /// Planner-chosen points-per-batch override; capped by the device
    /// memory budget. `None` fills the device budget (the default).
    pub batch_points: Option<usize>,
}

impl Default for BoundedRasterJoin {
    fn default() -> Self {
        BoundedRasterJoin {
            workers: default_workers(),
            config: RasterConfig::default(),
            batch_points: None,
        }
    }
}

/// Polygon-side state reusable across point batches/chunks of one query:
/// the triangulation plus the ε-derived canvas tiling. The paper
/// processes polygons once per query regardless of how many point batches
/// stream through (§5); callers running their own chunk loop (e.g. the
/// disk-resident scan of §7.7) should [`BoundedRasterJoin::prepare`] once
/// and reuse.
/// One polygon's rings (outer + holes) in world coordinates, ready for
/// scanline rasterization.
struct PolyRings {
    id: u32,
    rings: Vec<Vec<Point>>,
}

pub struct PreparedBounded {
    polys: Vec<PolyRings>,
    tiling: Option<CanvasTiling>,
    nslots: usize,
    preparation: std::time::Duration,
    /// FBO/shard recycling shared across every call executed against
    /// this preparation: a chunk loop over `execute_prepared` would
    /// otherwise reallocate (and page-fault) the full canvas once per
    /// chunk — hundreds of MB at fine ε — outside any timer. It also
    /// accounts a streamed scan's scan canvas.
    pool: FboPool,
}

impl PreparedBounded {
    pub fn passes_per_batch(&self) -> u32 {
        self.tiling.as_ref().map_or(0, |t| t.tile_count()) as u32
    }

    /// Canvases checked out of this preparation's pool right now. Zero
    /// between passes; the streaming error-path tests assert it drains
    /// back to zero after a failed scan.
    pub fn outstanding_canvases(&self) -> usize {
        self.pool.outstanding()
    }

    /// A scan-wide canvas covering every tile (see
    /// [`BoundedRasterJoin::resolve_scan`]), checked out of this
    /// preparation's pool until [`PreparedBounded::release_scan_canvas`].
    pub(crate) fn acquire_scan_canvas(&self, with_sums: bool) -> ScanCanvas {
        let tiles = self.tiling.as_ref().map_or(&[][..], |t| &t.tiles[..]);
        self.pool
            .acquire_scan(tiles.iter().map(|vp| (vp.width, vp.height)), with_sums)
    }

    pub(crate) fn release_scan_canvas(&self, canvas: ScanCanvas) {
        self.pool.release_scan(canvas);
    }
}

impl BoundedRasterJoin {
    pub fn new(workers: usize) -> Self {
        BoundedRasterJoin {
            workers,
            ..Default::default()
        }
    }

    /// The pre-binning pipeline (per-tile rescans, atomic blending) — the
    /// ablation baseline.
    pub fn naive(workers: usize) -> Self {
        BoundedRasterJoin {
            workers,
            config: RasterConfig::naive(),
            ..Default::default()
        }
    }

    pub fn with_config(workers: usize, config: RasterConfig) -> Self {
        BoundedRasterJoin {
            workers,
            config,
            batch_points: None,
        }
    }

    /// Extract polygon rings and derive the canvas tiling for `epsilon`.
    ///
    /// The paper triangulates here (§3) because GPUs only rasterize
    /// triangles; the software rasterizer scan-converts polygons directly
    /// with identical pixel-center coverage (see
    /// `raster_gpu::raster::rasterize_polygon_spans`), so preparation is
    /// just ring extraction. The ablation bench keeps the triangle path
    /// for comparison.
    pub fn prepare(&self, polys: &[Polygon], epsilon: f64, device: &Device) -> PreparedBounded {
        let t0 = Instant::now();
        let prepared_polys: Vec<PolyRings> = polys
            .iter()
            .map(|p| {
                let mut rings = Vec::with_capacity(1 + p.holes().len());
                rings.push(p.outer().points().to_vec());
                for h in p.holes() {
                    rings.push(h.points().to_vec());
                }
                PolyRings { id: p.id(), rings }
            })
            .collect();
        let preparation = t0.elapsed();
        let tiling = if polys.is_empty() {
            None
        } else {
            let extent = polygon_extent(polys);
            let (w, h) = resolution_for_epsilon(&extent, epsilon);
            let max_dim = device.config().max_fbo_dim;
            Some(CanvasTiling::new(Viewport::new(extent, w, h), max_dim))
        };
        PreparedBounded {
            polys: prepared_polys,
            tiling,
            nslots: result_slots(polys),
            preparation,
            pool: FboPool::new(),
        }
    }

    /// Execute `query` joining `points` with `polys` on `device`.
    pub fn execute(
        &self,
        points: &PointTable,
        polys: &[Polygon],
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        let prepared = self.prepare(polys, query.epsilon, device);
        self.execute_prepared(&prepared, points, query, device)
    }

    /// Execute against pre-triangulated polygons (chunked scans reuse the
    /// preparation across every chunk).
    pub fn execute_prepared(
        &self,
        prepared: &PreparedBounded,
        points: &PointTable,
        query: &Query,
        device: &Device,
    ) -> JoinOutput {
        device.reset_stats();
        let mut stats = ExecStats::default();
        let nslots = prepared.nslots;
        let counts = AtomicU64Array::new(nslots);
        let sums = AtomicF64Array::new(nslots);
        let Some(tiling) = prepared.tiling.as_ref() else {
            return JoinOutput {
                counts: counts.to_vec(),
                sums: sums.to_vec(),
                stats,
            };
        };
        stats.triangulation = prepared.preparation;

        // Out-of-core batching: points transferred exactly once.
        let attrs_up = query.attrs_uploaded();
        let point_bytes = PointTable::point_bytes(attrs_up);
        let per_batch = self
            .batch_points
            .map_or(usize::MAX, |b| b.max(1))
            .min(device.points_per_batch(point_bytes));
        let agg_attr = query.aggregate.attr();
        let fragments = AtomicU64::new(0);
        let pool = &prepared.pool;

        let proc0 = Instant::now();
        // Tile canvases, acquired on a tile's first point pass and
        // resolved (then released) on the last batch's pass over it: one
        // polygon pass per tile however many batches the points span.
        let mut live: Vec<Option<PointFbo>> = tiling.tiles.iter().map(|_| None).collect();
        let mut start = 0usize;
        loop {
            let end = (start + per_batch).min(points.len());
            let last = end == points.len();
            device.record_upload(((end - start) * point_bytes) as u64);
            stats.batches += 1;

            // Binning: classify this batch's surviving points into their
            // tiles once, instead of rescanning the batch per tile below.
            // A single-tile canvas has no rescan to eliminate — the direct
            // blend already filters and transforms each point exactly once
            // — so binning there would only pay the staging buffer.
            let binned = (self.config.binning && tiling.tile_count() > 1).then(|| {
                let t0 = Instant::now();
                let b = self.bin_batch(tiling, points, start, end, query);
                let dt = t0.elapsed();
                stats.binning += dt;
                stats.point_stage += dt;
                stats.binned_points += b.len() as u64;
                b
            });

            // For the rescan path's sharding gate: expected entries per
            // tile, estimated once per batch (each tile receives roughly
            // an even share of the surviving points). Only the explicit
            // rescan+sharding ablation arm takes this path — with binning
            // enabled, sharding rides on the binned replay (whose per-tile
            // entry counts are exact), and a binning-skipped single-tile
            // canvas runs plain atomics, which the data shows beat the
            // shard merge when no rescan is being amortized.
            let est_tile_entries = if !self.config.binning && self.config.sharding {
                estimate_survivors(points, start, end, &query.predicates, &tiling.full)
                    / tiling.tile_count().max(1)
            } else {
                0
            };

            for (ti, vp) in tiling.tiles.iter().enumerate() {
                let fbo = live[ti].get_or_insert_with(|| pool.acquire(vp.width, vp.height));
                let mut point_stage = std::time::Duration::ZERO;
                timed(&mut point_stage, || match &binned {
                    Some(b) => self.draw_points_binned(b, ti, vp, fbo, pool, &mut stats),
                    None => self.draw_points(
                        points,
                        start,
                        end,
                        query,
                        agg_attr,
                        vp,
                        est_tile_entries,
                        fbo,
                        pool,
                        &mut stats,
                    ),
                });
                stats.point_stage += point_stage;
                if last {
                    let fbo = live[ti].take().expect("tile canvas acquired above");
                    timed(&mut stats.polygon_stage, || {
                        self.draw_polygons(
                            &prepared.polys,
                            vp,
                            &fbo,
                            agg_attr.is_some(),
                            self.workers,
                            &counts,
                            &sums,
                            &fragments,
                        )
                    });
                    pool.release(fbo);
                    stats.passes += 1;
                }
            }
            if last {
                break;
            }
            start = end;
        }
        stats.processing = proc0.elapsed();

        // Result read-back: two 8-byte slots per polygon.
        device.record_download((nslots * 16) as u64);
        let ts = device.stats();
        stats.upload_bytes = ts.bytes_up;
        stats.download_bytes = ts.bytes_down;
        stats.transfer = device.modelled_transfer_time();
        stats.fragments = fragments.load(Ordering::Relaxed);

        JoinOutput {
            counts: counts.to_vec(),
            sums: sums.to_vec(),
            stats,
        }
    }

    /// Filter, transform and bin rows `[start, end)` into canvas entries
    /// per tile, in row order within each tile (`bin_points`).
    fn bin_batch(
        &self,
        tiling: &CanvasTiling,
        points: &PointTable,
        start: usize,
        end: usize,
        query: &Query,
    ) -> BinnedBatch {
        let preds = &query.predicates;
        let agg_attr = query.aggregate.attr();
        bin_points(
            tiling,
            end - start,
            self.workers,
            agg_attr.is_some(),
            |rel| {
                let i = start + rel;
                if !preds.is_empty() && !passes(points, i, preds) {
                    return None;
                }
                let v = agg_attr.map_or(0.0, |a| points.attr(a)[i]);
                Some((points.point(i), v))
            },
        )
    }

    /// The point pass of one streamed chunk: filter, transform and bin
    /// every row into canvas entries for the scan's consumer, which
    /// replays them into its [`ScanCanvas`] in chunk order. No canvas is
    /// touched and no polygon pass runs; `stats` carries the point stage
    /// and the chunk's upload. Result slots stay empty: every bounded
    /// aggregate comes out of [`BoundedRasterJoin::resolve_scan`].
    pub(crate) fn scan_point_pass(
        &self,
        prepared: &PreparedBounded,
        points: &PointTable,
        query: &Query,
        device: &Device,
    ) -> (BinnedBatch, JoinOutput) {
        device.reset_stats();
        let mut out = JoinOutput::default();
        let t0 = Instant::now();
        let binned = match prepared.tiling.as_ref() {
            Some(tiling) => self.bin_batch(tiling, points, 0, points.len(), query),
            None => BinnedBatch::from_tile(Vec::new(), Vec::new()),
        };
        let st = &mut out.stats;
        st.binning = t0.elapsed();
        st.point_stage = st.binning;
        st.processing = st.binning;
        st.binned_points = binned.len() as u64;
        st.batches = 1;
        st.triangulation = prepared.preparation;
        device
            .record_upload((points.len() * PointTable::point_bytes(query.attrs_uploaded())) as u64);
        st.upload_bytes = device.stats().bytes_up;
        st.transfer = device.modelled_transfer_time();
        (binned, out)
    }

    /// The polygon pass over a streamed scan's canvas: one DrawPolygons
    /// pass per tile, in tile order, so each result slot receives one add
    /// per tile in a fixed order and the pass may run at full width while
    /// the slots stay bitwise-reproducible.
    pub(crate) fn resolve_scan(
        &self,
        prepared: &PreparedBounded,
        canvas: &ScanCanvas,
        query: &Query,
        device: &Device,
        workers: usize,
    ) -> JoinOutput {
        device.reset_stats();
        let counts = AtomicU64Array::new(prepared.nslots);
        let sums = AtomicF64Array::new(prepared.nslots);
        let fragments = AtomicU64::new(0);
        let mut stats = ExecStats::default();
        let t0 = Instant::now();
        if let Some(tiling) = prepared.tiling.as_ref() {
            for (ti, vp) in tiling.tiles.iter().enumerate() {
                self.draw_polygons(
                    &prepared.polys,
                    vp,
                    canvas.tile(ti),
                    query.aggregate.attr().is_some(),
                    workers,
                    &counts,
                    &sums,
                    &fragments,
                );
                stats.passes += 1;
            }
        }
        stats.polygon_stage = t0.elapsed();
        stats.processing = stats.polygon_stage;
        stats.fragments = fragments.load(Ordering::Relaxed);
        device.record_download((prepared.nslots * 16) as u64);
        stats.download_bytes = device.stats().bytes_down;
        stats.transfer = device.modelled_transfer_time();
        JoinOutput {
            counts: counts.to_vec(),
            sums: sums.to_vec(),
            stats,
        }
    }

    /// Step I via the binner: replay tile `ti`'s pre-transformed entries.
    fn draw_points_binned(
        &self,
        binned: &BinnedBatch,
        ti: usize,
        vp: &Viewport,
        fbo: &PointFbo,
        pool: &FboPool,
        stats: &mut ExecStats,
    ) {
        let (idx, vals) = binned.tile(ti);
        if idx.is_empty() {
            return;
        }
        if self
            .config
            .use_shards(idx.len(), vp.pixel_count(), self.workers)
        {
            let mut shards = pool.acquire_shards(vp.pixel_count(), self.workers);
            shards.accumulate(idx, vals);
            let t0 = Instant::now();
            shards.merge_into(fbo, self.workers);
            stats.shard_merge += t0.elapsed();
            pool.release_shards(shards);
        } else {
            match vals {
                Some(vals) => parallel_ranges(idx.len(), self.workers, |s, e| {
                    for (&pix, &v) in idx[s..e].iter().zip(&vals[s..e]) {
                        fbo.blend_add_idx(pix as usize, v);
                    }
                }),
                None => parallel_ranges(idx.len(), self.workers, |s, e| {
                    for &pix in &idx[s..e] {
                        fbo.blend_add_idx(pix as usize, 0.0);
                    }
                }),
            }
        }
    }

    /// Step I (Procedure DrawPoints), rescan form: blend filtered points
    /// into the FBO, re-filtering the whole batch for this tile.
    /// `est_tile_entries` is the caller's per-batch estimate of surviving
    /// points landing in this tile, driving the sharding gate.
    #[allow(clippy::too_many_arguments)]
    fn draw_points(
        &self,
        points: &PointTable,
        start: usize,
        end: usize,
        query: &Query,
        agg_attr: Option<usize>,
        vp: &Viewport,
        est_tile_entries: usize,
        fbo: &PointFbo,
        pool: &FboPool,
        stats: &mut ExecStats,
    ) {
        let preds = &query.predicates;
        if self
            .config
            .use_shards(est_tile_entries, vp.pixel_count(), self.workers)
        {
            // Sharding without binning (ablation): every shard worker
            // still rescans its point subrange per tile, but blends into
            // private buffers instead of the shared atomics.
            let mut shards = pool.acquire_shards(vp.pixel_count(), self.workers);
            shards.accumulate_with(end - start, |_shard, rel| {
                let i = start + rel;
                if !preds.is_empty() && !passes(points, i, preds) {
                    return None;
                }
                let (x, y) = vp.pixel_of(points.point(i))?;
                let v = agg_attr.map_or(0.0, |a| points.attr(a)[i]);
                Some((y * vp.width + x, v))
            });
            let t0 = Instant::now();
            shards.merge_into(fbo, self.workers);
            stats.shard_merge += t0.elapsed();
            pool.release_shards(shards);
            return;
        }
        parallel_ranges(end - start, self.workers, |s, e| {
            for i in (start + s)..(start + e) {
                // Vertex-shader constraint test: failing points are
                // clipped before rasterization (§5).
                if !preds.is_empty() && !passes(points, i, preds) {
                    continue;
                }
                if let Some((x, y)) = vp.pixel_of(points.point(i)) {
                    let v = agg_attr.map_or(0.0, |a| points.attr(a)[i]);
                    fbo.blend_add(x, y, v);
                }
            }
        });
    }

    /// Step II (Procedure DrawPolygons): scan-convert each polygon over
    /// the canvas tile and fold the pixel partial aggregates into its
    /// result slot. Accumulation is local per polygon, so a single atomic
    /// update per polygon reaches the SSBO: per tile, each slot gets at
    /// most one add.
    #[allow(clippy::too_many_arguments)]
    fn draw_polygons<C: PixelPartials>(
        &self,
        polys: &[PolyRings],
        vp: &Viewport,
        fbo: &C,
        needs_sums: bool,
        workers: usize,
        counts: &AtomicU64Array,
        sums: &AtomicF64Array,
        fragments: &AtomicU64,
    ) {
        let (w, h) = (vp.width, vp.height);
        let block = block_for(polys.len(), workers);
        parallel_dynamic(polys.len(), workers, block, |pi| {
            let poly = &polys[pi];
            let id = poly.id as usize;
            // Vertex stage: transform the rings to screen space.
            let screen: Vec<Vec<(f64, f64)>> = poly
                .rings
                .iter()
                .map(|r| r.iter().map(|&p| vp.to_screen(p)).collect())
                .collect();
            let ring_refs: Vec<&[(f64, f64)]> = screen.iter().map(|r| r.as_slice()).collect();
            let mut frags = 0u64;
            let mut cnt_acc = 0u64;
            let mut sum_acc = 0f64;
            if needs_sums {
                rasterize_polygon_spans(&ring_refs, w, h, |y, x0, x1| {
                    frags += (x1 - x0) as u64;
                    let (cnt, sum) = fbo.span_totals(y, x0, x1);
                    cnt_acc += cnt;
                    sum_acc += sum;
                });
            } else {
                // COUNT query: the vectorized count-only scan.
                rasterize_polygon_spans(&ring_refs, w, h, |y, x0, x1| {
                    frags += (x1 - x0) as u64;
                    cnt_acc += fbo.span_count(y, x0, x1);
                });
            }
            if cnt_acc > 0 {
                counts.add(id, cnt_acc);
            }
            if sum_acc != 0.0 {
                sums.add(id, sum_acc);
            }
            if frags > 0 {
                fragments.fetch_add(frags, Ordering::Relaxed);
            }
        });
    }
}

/// Bounding box of the polygon data set — the `w × h` of §4.2.
pub fn polygon_extent(polys: &[Polygon]) -> BBox {
    let mut b = BBox::empty();
    for p in polys {
        b.union(&p.bbox());
    }
    // Inflate marginally so points exactly on the max edge stay renderable.
    b.inflate(1e-9 * (b.width() + b.height()).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregate;
    use raster_geom::Point;

    fn grid_polys() -> Vec<Polygon> {
        // 2×2 squares tiling [0,20]².
        let mut v = Vec::new();
        let mut id = 0;
        for gy in 0..2 {
            for gx in 0..2 {
                let x0 = gx as f64 * 10.0;
                let y0 = gy as f64 * 10.0;
                v.push(Polygon::from_coords(
                    id,
                    vec![
                        (x0, y0),
                        (x0 + 10.0, y0),
                        (x0 + 10.0, y0 + 10.0),
                        (x0, y0 + 10.0),
                    ],
                ));
                id += 1;
            }
        }
        v
    }

    fn points_in_quadrants() -> PointTable {
        let mut t = PointTable::with_capacity(8, &["v"]);
        // 1 point in poly 0, 2 in poly 1, 3 in poly 2, 2 in poly 3; all
        // well inside (away from edges) so any reasonable ε is exact.
        t.push(Point::new(5.0, 5.0), &[1.0]);
        t.push(Point::new(15.0, 5.0), &[2.0]);
        t.push(Point::new(16.0, 4.0), &[3.0]);
        t.push(Point::new(3.0, 15.0), &[4.0]);
        t.push(Point::new(5.0, 16.0), &[5.0]);
        t.push(Point::new(7.0, 13.0), &[6.0]);
        t.push(Point::new(15.0, 15.0), &[7.0]);
        t.push(Point::new(12.0, 18.0), &[8.0]);
        t
    }

    #[test]
    fn count_well_separated_points_is_exact() {
        let out = BoundedRasterJoin::new(2).execute(
            &points_in_quadrants(),
            &grid_polys(),
            &Query::count().with_epsilon(0.5),
            &Device::default(),
        );
        assert_eq!(out.counts, vec![1, 2, 3, 2]);
        assert_eq!(out.total_count(), 8);
    }

    #[test]
    fn sum_and_avg_track_attribute() {
        let q = Query::sum(0).with_epsilon(0.5);
        let out = BoundedRasterJoin::new(2).execute(
            &points_in_quadrants(),
            &grid_polys(),
            &q,
            &Device::default(),
        );
        assert_eq!(out.values(Aggregate::Sum(0)), vec![1.0, 5.0, 15.0, 15.0]);
        let avg = out.values(Aggregate::Avg(0));
        assert!((avg[2] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn predicates_filter_before_rasterization() {
        use raster_data::filter::{CmpOp, Predicate};
        let q = Query::count()
            .with_epsilon(0.5)
            .with_predicates(vec![Predicate::new(0, CmpOp::Gt, 4.5)]);
        let out = BoundedRasterJoin::new(2).execute(
            &points_in_quadrants(),
            &grid_polys(),
            &q,
            &Device::default(),
        );
        // Values > 4.5: points with v in {5,6,7,8} → polys 2 (two) and 3 (two).
        assert_eq!(out.counts, vec![0, 0, 2, 2]);
    }

    #[test]
    fn out_of_core_batches_match_in_memory_result() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let big = Device::default();
        let small = Device::new(raster_gpu::DeviceConfig::small(
            3 * PointTable::point_bytes(0), // 3 points per batch
            8192,
        ));
        let q = Query::count().with_epsilon(0.5);
        let a = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &big);
        let b = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &small);
        assert_eq!(a.counts, b.counts);
        assert!(b.stats.batches > a.stats.batches);
        assert_eq!(a.stats.batches, 1);
        assert_eq!(b.stats.batches, 3);
        // Batches accumulate into the canvas: one polygon pass either way.
        assert_eq!(b.stats.passes, a.stats.passes);
    }

    #[test]
    fn tiled_canvas_matches_single_canvas() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let q = Query::count().with_epsilon(0.5);
        let one = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &Device::default());
        let tiled_dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 16));
        let tiled = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &tiled_dev);
        assert_eq!(one.counts, tiled.counts);
        assert!(tiled.stats.passes > one.stats.passes);
    }

    #[test]
    fn upload_happens_once_per_batch_not_per_tile() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let q = Query::count().with_epsilon(0.5);
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 16));
        let out = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &dev);
        assert!(out.stats.passes > 1);
        assert_eq!(out.stats.batches, 1);
        assert_eq!(
            out.stats.upload_bytes,
            pts.upload_bytes(0),
            "points must be shipped exactly once"
        );
    }

    #[test]
    fn intersecting_polygons_count_points_in_both() {
        // Two overlapping squares; a point in the overlap scores for both —
        // the SSBO design handles intersecting polygons in one pass (§6.1).
        let polys = vec![
            Polygon::from_coords(0, vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]),
            Polygon::from_coords(1, vec![(5.0, 0.0), (15.0, 0.0), (15.0, 10.0), (5.0, 10.0)]),
        ];
        let mut pts = PointTable::with_capacity(1, &[]);
        pts.push(Point::new(7.0, 5.0), &[]);
        let out = BoundedRasterJoin::new(1).execute(
            &pts,
            &polys,
            &Query::count().with_epsilon(0.2),
            &Device::default(),
        );
        assert_eq!(out.counts, vec![1, 1]);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let out = BoundedRasterJoin::new(1).execute(
            &PointTable::new(),
            &grid_polys(),
            &Query::count(),
            &Device::default(),
        );
        assert_eq!(out.counts, vec![0, 0, 0, 0]);
        let out2 = BoundedRasterJoin::new(1).execute(
            &points_in_quadrants(),
            &[],
            &Query::count(),
            &Device::default(),
        );
        assert!(out2.counts.is_empty());
    }

    #[test]
    fn worker_count_does_not_change_counts() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let q = Query::count().with_epsilon(0.5);
        let a = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &Device::default());
        let b = BoundedRasterJoin::new(8).execute(&pts, &polys, &q, &Device::default());
        assert_eq!(a.counts, b.counts);
    }

    /// All four binning × sharding combinations, with a tiled canvas and a
    /// dense workload (so the sharding density gate actually engages):
    /// identical counts, sums within f32 reassociation tolerance.
    #[test]
    fn config_matrix_is_equivalent() {
        use raster_data::generators::{nyc_extent, TaxiModel};
        use raster_data::polygons::synthetic_polygons;
        let extent = nyc_extent();
        let polys = synthetic_polygons(10, &extent, 31);
        let pts = TaxiModel::default().generate(30_000, 32);
        let fare = pts.attr_index("fare").unwrap();
        let q = Query::sum(fare).with_epsilon(200.0);
        // Small tiles so the canvas splits, and a small enough FBO that
        // 30k points exceed the shard density threshold.
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 128));

        let combos = [(false, false), (true, false), (false, true), (true, true)];
        let outs: Vec<JoinOutput> = combos
            .iter()
            .map(|&(binning, sharding)| {
                BoundedRasterJoin::with_config(4, RasterConfig { binning, sharding })
                    .execute(&pts, &polys, &q, &dev)
            })
            .collect();
        let base = &outs[0];
        assert!(base.stats.passes > base.stats.batches, "canvas must tile");
        for (i, out) in outs.iter().enumerate().skip(1) {
            assert_eq!(out.counts, base.counts, "combo {:?}", combos[i]);
            for (s, (a, b)) in out.sums.iter().zip(&base.sums).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                    "combo {:?} slot {s}: {a} vs {b}",
                    combos[i]
                );
            }
        }
        // The binned runs actually went through the binner...
        assert!(outs[3].stats.binned_points > 0);
        assert_eq!(outs[0].stats.binned_points, 0);
        // ...and the sharded runs through the merge pass.
        assert!(outs[3].stats.shard_merge > std::time::Duration::ZERO);
        assert_eq!(outs[0].stats.shard_merge, std::time::Duration::ZERO);
    }

    /// The sharding density gate: a sparse workload over a huge canvas
    /// must not pay the per-pixel merge even when sharding is enabled.
    #[test]
    fn sparse_tiles_skip_the_shard_merge() {
        let polys = grid_polys();
        let pts = points_in_quadrants(); // 8 points on a large tiled canvas
        let q = Query::count().with_epsilon(0.05);
        // ε = 0.05 over the 20×20 extent needs a ~566² canvas; a 128-pixel
        // FBO limit splits it into tiles so binning engages.
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 128));
        let out = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &dev);
        assert_eq!(out.counts, vec![1, 2, 3, 2]);
        assert_eq!(out.stats.shard_merge, std::time::Duration::ZERO);
        assert_eq!(out.stats.binned_points, 8);
    }

    /// Single-tile canvases skip the binner entirely: the direct blend
    /// already touches each point exactly once.
    #[test]
    fn single_tile_canvas_skips_binning() {
        let polys = grid_polys();
        let pts = points_in_quadrants();
        let q = Query::count().with_epsilon(0.5);
        let out = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &Device::default());
        assert_eq!(out.stats.passes, 1, "canvas must be a single tile");
        assert_eq!(out.counts, vec![1, 2, 3, 2]);
        assert_eq!(out.stats.binned_points, 0);
        assert_eq!(out.stats.binning, std::time::Duration::ZERO);
    }

    /// Non-finite coordinates are clipped, not binned into pixel (0, 0):
    /// one real point plus NaN and ±∞ points count exactly one point, in
    /// both variants and on both point paths (binned and direct blend).
    #[test]
    fn non_finite_points_are_not_counted() {
        let polys = vec![Polygon::from_coords(
            0,
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
        )];
        let mut pts = PointTable::with_capacity(6, &[]);
        pts.push(Point::new(5.0, 5.0), &[]);
        pts.push(Point::new(f64::NAN, 5.0), &[]);
        pts.push(Point::new(f64::NAN, f64::NAN), &[]);
        pts.push(Point::new(f64::INFINITY, 5.0), &[]);
        pts.push(Point::new(5.0, f64::NEG_INFINITY), &[]);
        let q = Query::count().with_epsilon(0.5);
        let single = BoundedRasterJoin::new(1).execute(&pts, &polys, &q, &Device::default());
        // A 16-pixel FBO limit tiles the canvas, so the binner runs too.
        let tiled_dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 16));
        let tiled = BoundedRasterJoin::new(2).execute(&pts, &polys, &q, &tiled_dev);
        assert!(tiled.stats.binned_points > 0);
        let exact = crate::AccurateRasterJoin::new(1).execute(
            &pts,
            &polys,
            &Query::count(),
            &Device::default(),
        );
        assert_eq!(single.counts, vec![1]);
        assert_eq!(tiled.counts, vec![1]);
        assert_eq!(exact.counts, single.counts);
    }

    /// The streaming split over a tiled canvas: chunk point passes replayed
    /// into one scan canvas, then one resolve, equal the one-shot join —
    /// counts exactly, one pass per tile — whatever the chunking.
    #[test]
    fn scan_canvas_resolve_matches_one_shot_on_a_tiled_canvas() {
        use raster_data::generators::{nyc_extent, TaxiModel};
        use raster_data::polygons::synthetic_polygons;
        let polys = synthetic_polygons(6, &nyc_extent(), 43);
        let pts = TaxiModel::default().generate(5_000, 44);
        let fare = pts.attr_index("fare").unwrap();
        let q = Query::sum(fare).with_epsilon(100.0);
        let dev = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 256));
        let join = BoundedRasterJoin::new(1);
        let prepared = join.prepare(&polys, q.epsilon, &dev);
        let one = join.execute_prepared(&prepared, &pts, &q, &dev);
        assert!(one.stats.passes > 1, "canvas must tile");
        for chunk in [5_000, 1_999, 700] {
            let mut canvas = prepared.acquire_scan_canvas(true);
            for start in (0..pts.len()).step_by(chunk) {
                let part = pts.slice(start, (start + chunk).min(pts.len()));
                let (entries, _) = join.scan_point_pass(&prepared, &part, &q, &dev);
                canvas.replay(&entries);
            }
            let out = join.resolve_scan(&prepared, &canvas, &q, &dev, 2);
            prepared.release_scan_canvas(canvas);
            assert_eq!(out.counts, one.counts, "chunk {chunk}");
            assert_eq!(out.stats.passes, one.stats.passes, "chunk {chunk}");
            for (a, b) in out.sums.iter().zip(&one.sums) {
                assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
        assert_eq!(prepared.outstanding_canvases(), 0);
    }

    /// Binned + sharded out-of-core batching still matches single-batch.
    #[test]
    fn binned_out_of_core_matches_in_memory() {
        use raster_data::generators::{nyc_extent, uniform_points};
        use raster_data::polygons::synthetic_polygons;
        let extent = nyc_extent();
        let polys = synthetic_polygons(6, &extent, 41);
        let pts = uniform_points(5_000, &extent, 42);
        let q = Query::count().with_epsilon(100.0);
        // Same tiled canvas (ε=100 → ~820², split at 256) on both devices,
        // so both runs bin; only the batch size differs.
        let big = Device::new(raster_gpu::DeviceConfig::small(3 << 30, 256));
        let small = Device::new(raster_gpu::DeviceConfig::small(
            1024 * PointTable::point_bytes(0),
            256,
        ));
        let a = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &big);
        let b = BoundedRasterJoin::new(4).execute(&pts, &polys, &q, &small);
        assert_eq!(a.counts, b.counts);
        assert!(b.stats.batches > 1);
        // Binning ran once per batch over that batch only: entries never
        // exceed points, and both paths bin every in-extent point.
        assert_eq!(a.stats.binned_points, b.stats.binned_points);
    }
}
