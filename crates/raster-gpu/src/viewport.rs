//! World→screen transforms (the vertex-shader stage of the pipeline).

use raster_geom::{BBox, Point};

/// A rendering viewport: a world-space extent mapped onto a `width`×`height`
/// pixel grid. Plays the role of the projection the paper's vertex shaders
/// apply, including the clipping of geometry outside the canvas (which is
/// what makes the multi-canvas splitting of Fig. 5 correct).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    pub extent: BBox,
    pub width: u32,
    pub height: u32,
}

impl Viewport {
    pub fn new(extent: BBox, width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "viewport must have positive size");
        assert!(
            extent.width() > 0.0 && extent.height() > 0.0,
            "viewport extent must be non-degenerate"
        );
        Viewport {
            extent,
            width,
            height,
        }
    }

    /// World-units per pixel along x.
    pub fn pixel_width(&self) -> f64 {
        self.extent.width() / self.width as f64
    }

    /// World-units per pixel along y.
    pub fn pixel_height(&self) -> f64 {
        self.extent.height() / self.height as f64
    }

    /// Continuous screen coordinates (pixels, origin at the extent min
    /// corner). No clipping: callers clip on the integer result.
    pub fn to_screen(&self, p: Point) -> (f64, f64) {
        (
            (p.x - self.extent.min.x) / self.pixel_width(),
            (p.y - self.extent.min.y) / self.pixel_height(),
        )
    }

    /// Pixel containing the world point, or `None` when the point falls
    /// outside the viewport (the pipeline's clipping stage). Non-finite
    /// coordinates are clipped too: the range tests are written so that a
    /// NaN fails them (`NaN >= 0.0` is false), where `NaN < 0.0` would
    /// pass it on and `NaN as u32 == 0` would land it in pixel (0, 0).
    pub fn pixel_of(&self, p: Point) -> Option<(u32, u32)> {
        let (sx, sy) = self.to_screen(p);
        if sx >= 0.0 && sy >= 0.0 {
            let (px, py) = (sx as u32, sy as u32);
            if px < self.width && py < self.height {
                return Some((px, py));
            }
        }
        None
    }

    /// World-space center of pixel `(x, y)` — the rasterization sample
    /// location.
    pub fn pixel_center(&self, x: u32, y: u32) -> Point {
        Point::new(
            self.extent.min.x + (x as f64 + 0.5) * self.pixel_width(),
            self.extent.min.y + (y as f64 + 0.5) * self.pixel_height(),
        )
    }

    /// World-space bounding box of pixel `(x, y)`.
    pub fn pixel_bbox(&self, x: u32, y: u32) -> BBox {
        let min = Point::new(
            self.extent.min.x + x as f64 * self.pixel_width(),
            self.extent.min.y + y as f64 * self.pixel_height(),
        );
        let max = Point::new(min.x + self.pixel_width(), min.y + self.pixel_height());
        BBox::new(min, max)
    }

    /// Split this viewport into a grid of sub-viewports, each at most
    /// `max_dim` pixels per axis — the multi-canvas rendering of Fig. 5.
    /// Every sub-canvas keeps the same pixel size, so the ε guarantee holds
    /// globally and clipping ensures each point/polygon pair is counted
    /// exactly once.
    pub fn split(&self, max_dim: u32) -> Vec<Viewport> {
        assert!(max_dim > 0);
        let tiles_x = self.width.div_ceil(max_dim);
        let tiles_y = self.height.div_ceil(max_dim);
        let mut out = Vec::with_capacity((tiles_x * tiles_y) as usize);
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let x0 = tx * max_dim;
                let y0 = ty * max_dim;
                let w = max_dim.min(self.width - x0);
                let h = max_dim.min(self.height - y0);
                let min = Point::new(
                    self.extent.min.x + x0 as f64 * self.pixel_width(),
                    self.extent.min.y + y0 as f64 * self.pixel_height(),
                );
                let max = Point::new(
                    min.x + w as f64 * self.pixel_width(),
                    min.y + h as f64 * self.pixel_height(),
                );
                out.push(Viewport::new(BBox::new(min, max), w, h));
            }
        }
        out
    }

    pub fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The square-ish canvas resolution for `extent` under a per-axis
    /// budget of `dim` pixels: the longer axis gets `dim`, the shorter is
    /// scaled to keep pixels square-ish. One definition shared by the
    /// accurate raster join and the planner's cost model, so the modelled
    /// canvas can never drift from the executed one.
    pub fn canvas_for_extent(extent: &BBox, dim: u32) -> (u32, u32) {
        if extent.width() >= extent.height() {
            let h = ((extent.height() / extent.width().max(1e-30)) * dim as f64).ceil() as u32;
            (dim.max(1), h.max(1))
        } else {
            let w = ((extent.width() / extent.height().max(1e-30)) * dim as f64).ceil() as u32;
            (w.max(1), dim.max(1))
        }
    }

    /// A hoisted-divisor form of [`Viewport::pixel_of`] for tight loops.
    /// Bit-exact: it precomputes `pixel_width()` / `pixel_height()` once
    /// (the same FP values every `pixel_of` call derives) and then applies
    /// the identical operation sequence, so `probe.pixel_of(p) ==
    /// vp.pixel_of(p)` for every input — asserted by tests over seam and
    /// boundary coordinates.
    pub fn pixel_probe(&self) -> PixelProbe {
        PixelProbe {
            min_x: self.extent.min.x,
            min_y: self.extent.min.y,
            pw: self.pixel_width(),
            ph: self.pixel_height(),
            width: self.width,
            height: self.height,
        }
    }
}

/// See [`Viewport::pixel_probe`].
#[derive(Debug, Clone, Copy)]
pub struct PixelProbe {
    min_x: f64,
    min_y: f64,
    pw: f64,
    ph: f64,
    width: u32,
    height: u32,
}

impl PixelProbe {
    /// [`Viewport::pixel_of`] with hoisted divisors (NaN-safe the same way).
    #[inline]
    pub fn pixel_of(&self, p: Point) -> Option<(u32, u32)> {
        let sx = (p.x - self.min_x) / self.pw;
        let sy = (p.y - self.min_y) / self.ph;
        if sx >= 0.0 && sy >= 0.0 {
            let (px, py) = (sx as u32, sy as u32);
            if px < self.width && py < self.height {
                return Some((px, py));
            }
        }
        None
    }

    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp() -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(100.0, 50.0)),
            200,
            100,
        )
    }

    #[test]
    fn pixel_size_is_extent_over_resolution() {
        let v = vp();
        assert!((v.pixel_width() - 0.5).abs() < 1e-12);
        assert!((v.pixel_height() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pixel_of_clips_outside_points() {
        let v = vp();
        assert_eq!(v.pixel_of(Point::new(-0.1, 10.0)), None);
        assert_eq!(v.pixel_of(Point::new(10.0, 51.0)), None);
        assert_eq!(v.pixel_of(Point::new(0.0, 0.0)), Some((0, 0)));
        assert_eq!(v.pixel_of(Point::new(99.99, 49.99)), Some((199, 99)));
    }

    #[test]
    fn pixel_center_roundtrips() {
        let v = vp();
        for &(x, y) in &[(0u32, 0u32), (57, 23), (199, 99)] {
            let c = v.pixel_center(x, y);
            assert_eq!(v.pixel_of(c), Some((x, y)));
        }
    }

    #[test]
    fn pixel_bbox_contains_center() {
        let v = vp();
        let b = v.pixel_bbox(13, 77);
        assert!(b.contains(v.pixel_center(13, 77)));
        assert!((b.area() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn split_covers_exactly_and_respects_limit() {
        let v = vp();
        let tiles = v.split(64);
        // 200/64 → 4 tiles, 100/64 → 2 tiles.
        assert_eq!(tiles.len(), 8);
        let total_px: usize = tiles.iter().map(Viewport::pixel_count).sum();
        assert_eq!(total_px, v.pixel_count());
        for t in &tiles {
            assert!(t.width <= 64 && t.height <= 64);
            // Pixel size preserved → ε guarantee preserved.
            assert!((t.pixel_width() - v.pixel_width()).abs() < 1e-12);
            assert!((t.pixel_height() - v.pixel_height()).abs() < 1e-12);
        }
        // Extents tile the viewport without overlap: total area matches.
        let area: f64 = tiles.iter().map(|t| t.extent.area()).sum();
        assert!((area - v.extent.area()).abs() < 1e-9);
    }

    #[test]
    fn split_single_tile_is_identity() {
        let v = vp();
        let tiles = v.split(4096);
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0], v);
    }

    #[test]
    fn pixel_probe_is_bit_exact_with_pixel_of() {
        // Awkward extents (non-representable pixel sizes) and probes on
        // every pixel seam: the hoisted form must agree everywhere.
        let vps = [
            vp(),
            Viewport::new(
                BBox::new(Point::new(-3.7, 11.1), Point::new(96.3, 44.43)),
                97,
                31,
            ),
            Viewport::new(BBox::new(Point::new(0.1, 0.2), Point::new(0.4, 0.9)), 3, 7),
        ];
        for v in vps {
            let probe = v.pixel_probe();
            let (w, h) = (v.extent.width(), v.extent.height());
            for i in -4..260 {
                for j in -4..140 {
                    let p = Point::new(
                        v.extent.min.x + w * (i as f64 / 250.0),
                        v.extent.min.y + h * (j as f64 / 130.0),
                    );
                    assert_eq!(probe.pixel_of(p), v.pixel_of(p), "{p:?}");
                }
            }
        }
    }

    #[test]
    fn non_finite_points_are_clipped() {
        let v = vp();
        let probe = v.pixel_probe();
        for p in [
            Point::new(f64::NAN, 10.0),
            Point::new(10.0, f64::NAN),
            Point::new(f64::NAN, f64::NAN),
            Point::new(f64::INFINITY, 10.0),
            Point::new(f64::NEG_INFINITY, 10.0),
            Point::new(10.0, f64::INFINITY),
        ] {
            assert_eq!(v.pixel_of(p), None, "{p:?}");
            assert_eq!(probe.pixel_of(p), None, "{p:?}");
        }
    }

    #[test]
    fn point_on_tile_seam_lands_in_exactly_one_tile() {
        let v = vp();
        let tiles = v.split(64);
        // x = 32.0 world == pixel 64 boundary.
        let p = Point::new(32.0, 10.0);
        let owners = tiles.iter().filter(|t| t.pixel_of(p).is_some()).count();
        assert_eq!(owners, 1, "seam point must be counted exactly once");
    }
}
