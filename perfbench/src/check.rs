//! Result checks and the brute-force reference they compare against.

use raster_data::PointTable;
use raster_geom::{BBox, Polygon};

/// Relative tolerance for f32-accumulated sums (the one `bench_stream`
/// uses): a width-1 and a width-N run add the same values in a different
/// order.
pub const SUM_REL_TOL: f64 = 1e-5;

/// Checked queries and the failures among them.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one checked query; a failed check keeps its message.
    pub fn record(&mut self, what: impl FnOnce() -> String, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.fail(format!("{}: {e}", what()));
        } else {
            self.attempted += 1;
        }
    }

    /// Count one query that errored or failed its check.
    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(msg);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn counts_equal(got: &[u64], want: &[u64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} count slots, expected {}",
            got.len(),
            want.len()
        ));
    }
    let bad: Vec<usize> = (0..got.len()).filter(|&i| got[i] != want[i]).collect();
    match bad.first() {
        None => Ok(()),
        Some(&i) => Err(format!(
            "{} slot(s) differ, first: slot {i} counted {}, expected {}",
            bad.len(),
            got[i],
            want[i]
        )),
    }
}

pub fn sums_close(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} sum slots, expected {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let rel = (g - w).abs() / w.abs().max(1.0);
        if rel.is_nan() || rel > SUM_REL_TOL {
            return Err(format!(
                "slot {i} sum {g} vs {w} (relative error {rel:.2e})"
            ));
        }
    }
    Ok(())
}

pub fn bitwise_equal(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} sum slots, expected {}", got.len(), want.len()));
    }
    match (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        None => Ok(()),
        Some(i) => Err(format!(
            "slot {i} sum {} vs {} (not bitwise equal)",
            got[i], want[i]
        )),
    }
}

/// Every (row, polygon id) pair with the point inside the polygon, found by
/// the f64 `point_in_polygon` test over a bounding-box grid — independent of
/// the engine's raster, index and triangulation layers.
pub struct Oracle {
    pairs: Vec<(u32, u32)>,
}

impl Oracle {
    pub fn new(points: &PointTable, polys: &[Polygon], workers: usize) -> Oracle {
        const CELLS: usize = 128;
        let mut extent = BBox::empty();
        for p in polys {
            extent.union(&p.bbox());
        }
        let (cw, ch) = (
            extent.width() / CELLS as f64,
            extent.height() / CELLS as f64,
        );
        let cell_of = |x: f64, lo: f64, w: f64| (((x - lo) / w) as usize).min(CELLS - 1);
        let mut grid: Vec<Vec<usize>> = vec![Vec::new(); CELLS * CELLS];
        for (pi, p) in polys.iter().enumerate() {
            let b = p.bbox();
            for cy in cell_of(b.min.y, extent.min.y, ch)..=cell_of(b.max.y, extent.min.y, ch) {
                for cx in cell_of(b.min.x, extent.min.x, cw)..=cell_of(b.max.x, extent.min.x, cw) {
                    grid[cy * CELLS + cx].push(pi);
                }
            }
        }
        let n = points.len();
        let per = n.div_ceil(workers.max(1)).max(1);
        let pairs = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .step_by(per)
                .map(|start| {
                    let grid = &grid;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for row in start..(start + per).min(n) {
                            let pt = points.point(row);
                            if !extent.contains(pt) {
                                continue;
                            }
                            let cell = cell_of(pt.y, extent.min.y, ch) * CELLS
                                + cell_of(pt.x, extent.min.x, cw);
                            for &pi in &grid[cell] {
                                if polys[pi].contains(pt) {
                                    out.push((row as u32, polys[pi].id()));
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle worker panicked"))
                .collect()
        });
        Oracle { pairs }
    }

    /// Per-slot counts over the rows and polygons the filters keep.
    pub fn counts(
        &self,
        nslots: usize,
        keep_row: impl Fn(usize) -> bool,
        keep_poly: impl Fn(u32) -> bool,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; nslots];
        for &(row, id) in &self.pairs {
            if keep_poly(id) && keep_row(row as usize) {
                counts[id as usize] += 1;
            }
        }
        counts
    }
}

/// The negative control: add one point to the first non-empty slot, so
/// the result can no longer match its reference.
pub fn corrupt(counts: &mut [u64]) {
    if let Some(c) = counts.iter_mut().find(|c| **c > 0) {
        *c += 1;
    } else if let Some(c) = counts.first_mut() {
        *c = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raster_geom::Point;

    #[test]
    fn comparisons_report_the_first_difference() {
        assert!(counts_equal(&[1, 2, 3], &[1, 2, 3]).is_ok());
        let e = counts_equal(&[1, 5, 3], &[1, 2, 3]).unwrap_err();
        assert!(e.contains("slot 1"), "{e}");
        assert!(counts_equal(&[1], &[1, 2]).is_err());
        assert!(sums_close(&[100.0005], &[100.0]).is_ok());
        assert!(sums_close(&[100.01], &[100.0]).is_err());
        assert!(sums_close(&[f64::NAN], &[1.0]).is_err());
        assert!(bitwise_equal(&[0.1 + 0.2], &[0.3]).is_err());
        assert!(bitwise_equal(&[0.5], &[0.5]).is_ok());
    }

    #[test]
    fn a_corrupted_result_fails_its_check_and_raises_the_error_rate() {
        let want = vec![0, 4, 7];
        let mut got = want.clone();
        let mut checks = Checks::default();
        checks.record(|| "clean".into(), counts_equal(&got, &want));
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        corrupt(&mut got);
        checks.record(|| "corrupted".into(), counts_equal(&got, &want));
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.error_rate(), 0.5);
        assert!(checks.failures[0].starts_with("corrupted"));
    }

    #[test]
    fn oracle_counts_points_inside_polygons() {
        let square = |id, x0: f64| {
            Polygon::from_coords(
                id,
                vec![(x0, 0.0), (x0 + 1.0, 0.0), (x0 + 1.0, 1.0), (x0, 1.0)],
            )
        };
        let polys = vec![square(0, 0.0), square(2, 1.0)];
        let mut pts = PointTable::with_capacity(4, &["v"]);
        pts.push(Point::new(0.5, 0.5), &[1.0]);
        pts.push(Point::new(1.5, 0.5), &[2.0]);
        pts.push(Point::new(1.7, 0.2), &[3.0]);
        pts.push(Point::new(5.0, 5.0), &[4.0]);
        let oracle = Oracle::new(&pts, &polys, 2);
        assert_eq!(oracle.counts(3, |_| true, |_| true), vec![1, 0, 2]);
        assert_eq!(oracle.counts(3, |r| r != 2, |_| true), vec![1, 0, 1]);
        assert_eq!(oracle.counts(3, |_| true, |id| id == 0), vec![1, 0, 0]);
    }
}
