//! The carrier-sense index over the transmissions currently on the air.
//!
//! Carrier sense asks, on every channel-access attempt, for the latest
//! `end` among the active transmitters audible at the sensing station.
//! [`SenseIndex`] answers that with one list walk: a uniform grid whose
//! every cell keeps, sorted by `end` descending, each active transmission
//! whose *insert-time* position lies within `reach` of some point in the
//! cell. `reach` is the caller's certainly-inaudible radius, already
//! padded by how far a transmitter can drift while its frame is on the
//! air. The caller looks up the sensing station's cell, walks its list,
//! and stops at the first entry its exact audibility check accepts: that
//! entry carries the maximum `end` of everything audible.
//!
//! Exactness contract: the index is a *candidate* filter, never a
//! decision maker.
//! - Coverage. An insert at `p` lands in every cell of
//!   `[axis(p.x − reach), axis(p.x + reach)] × [axis(p.y − reach),
//!   axis(p.y + reach)]`, where `axis` is the clamped, monotone cell index.
//!   A query point `q` with `dist2(p, q) < reach²` has `|q.x − p.x| <
//!   reach` (and the same in `y`) even in floating point, so its own cell
//!   lies in that range — including points outside the floor, which clamp
//!   to an edge cell exactly as the range bounds do.
//! - Order. Each list is end-descending (ties keep insertion order), so
//!   the first accepted entry carries the maximal `end`; entries outside
//!   `reach` that share the cell are rejected by the caller's check.
//!
//! Sizing: cells are squares of side `reach`, doubled until the floor
//! needs at most [`MAX_CELLS`] of them. When the sensing disk covers a
//! quarter of the floor or more (`π·reach²·4 ≥ area`) a grid buys
//! nothing, and the index is a single cell that the lookup returns
//! without computing a cell index from the query position.

use crate::geometry::{Point, Rect};

/// Upper bound on `cols × rows` (caps memory for huge, sparse floors).
const MAX_CELLS: usize = 4096;

/// One transmission on the air.
#[derive(Debug, Clone, Copy)]
pub struct TxEntry {
    /// Transmitting station.
    pub sender: usize,
    /// The station's position at transmit start (it may have drifted
    /// since — see the module docs for the padding contract).
    pub pos: Point,
    /// When the transmission leaves the air, seconds.
    pub end: f64,
}

/// Per-cell end-descending lists of the active transmissions within
/// `reach` of each cell.
#[derive(Debug)]
pub struct SenseIndex {
    origin: Point,
    /// Reciprocal of the square cell side, 1/meters (unused by a
    /// single-cell index).
    inv_cell: f64,
    cols: usize,
    rows: usize,
    reach: f64,
    cells: Vec<Vec<TxEntry>>,
}

impl SenseIndex {
    /// An index over `bounds` for entries audible out to `reach` meters
    /// of their insert-time position.
    pub fn new(bounds: Rect, reach: f64) -> Self {
        let (width, height) = (bounds.width(), bounds.height());
        let (mut cell, mut cols, mut rows) = (reach, 1, 1);
        // A zero or NaN `reach` lands on the single cell.
        if reach > 0.0 && std::f64::consts::PI * reach * reach * 4.0 < width * height {
            // Counted in f64: a tiny `reach` would overflow `cols * rows`.
            let dims = |cell: f64| {
                (
                    (width / cell).ceil().max(1.0),
                    (height / cell).ceil().max(1.0),
                )
            };
            let (mut c, mut r) = dims(cell);
            while c * r > MAX_CELLS as f64 {
                cell *= 2.0;
                (c, r) = dims(cell);
            }
            (cols, rows) = (c as usize, r as usize);
        }
        SenseIndex {
            origin: bounds.min,
            inv_cell: 1.0 / cell,
            cols,
            rows,
            reach,
            cells: (0..cols * rows).map(|_| Vec::new()).collect(),
        }
    }

    /// The clamped cell index along one axis. Rounded subtraction and
    /// multiplication are monotone, and the saturating cast is the floor
    /// for non-negative values and 0 for negative or NaN ones, so the
    /// index is monotone in `coord` — with no division or libm `floor`
    /// on the lookup path.
    fn axis(&self, coord: f64, origin: f64, n: usize) -> usize {
        (((coord - origin) * self.inv_cell) as usize).min(n - 1)
    }

    /// The cells an entry inserted at `p` covers: `(x0, x1, y0, y1)`,
    /// inclusive.
    fn cover(&self, p: Point) -> (usize, usize, usize, usize) {
        if self.cells.len() == 1 {
            return (0, 0, 0, 0);
        }
        let (o, r) = (self.origin, self.reach);
        (
            self.axis(p.x - r, o.x, self.cols),
            self.axis(p.x + r, o.x, self.cols),
            self.axis(p.y - r, o.y, self.rows),
            self.axis(p.y + r, o.y, self.rows),
        )
    }

    /// Records a transmission starting at `entry.pos`.
    pub fn insert(&mut self, entry: TxEntry) {
        let (x0, x1, y0, y1) = self.cover(entry.pos);
        for cy in y0..=y1 {
            for list in &mut self.cells[cy * self.cols + x0..=cy * self.cols + x1] {
                let at = list.partition_point(|e| e.end >= entry.end);
                list.insert(at, entry);
            }
        }
    }

    /// Drops `sender`'s transmission (inserted at `pos`).
    pub fn remove(&mut self, sender: usize, pos: Point) {
        let (x0, x1, y0, y1) = self.cover(pos);
        for cy in y0..=y1 {
            for list in &mut self.cells[cy * self.cols + x0..=cy * self.cols + x1] {
                if let Some(i) = list.iter().position(|e| e.sender == sender) {
                    list.remove(i);
                }
            }
        }
    }

    /// The end-descending candidates for a station sensing at `q`: a
    /// superset of the entries whose insert-time position lies within
    /// `reach` of `q`. A single-cell index answers without reading `q`.
    #[inline]
    pub fn list_at(&self, q: Point) -> &[TxEntry] {
        let c = if self.cells.len() == 1 {
            0
        } else {
            self.axis(q.y, self.origin.y, self.rows) * self.cols
                + self.axis(q.x, self.origin.x, self.cols)
        };
        &self.cells[c]
    }

    /// Every cell's list, row-major.
    pub fn lists(&self) -> impl Iterator<Item = &[TxEntry]> {
        self.cells.iter().map(Vec::as_slice)
    }
}

/// Squared Euclidean distance (the pruning comparisons never need the
/// root).
pub fn dist2(a: Point, b: Point) -> f64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Rect {
        Rect {
            min: Point { x: -10.0, y: -10.0 },
            max: Point { x: 90.0, y: 40.0 },
        }
    }

    fn entry(sender: usize, x: f64, y: f64, end: f64) -> TxEntry {
        TxEntry {
            sender,
            pos: Point { x, y },
            end,
        }
    }

    fn senders(idx: &SenseIndex, q: Point) -> Vec<usize> {
        idx.list_at(q).iter().map(|e| e.sender).collect()
    }

    #[test]
    fn lists_cover_the_reach_disk_and_run_end_descending() {
        let mut idx = SenseIndex::new(bounds(), 12.0);
        assert!(
            idx.cells.len() > 1,
            "a 12 m reach on a 100x50 m floor is a grid"
        );
        let mut u = crate::stream::SplitMix64::new(7);
        let mut all = Vec::new();
        for s in 0..40 {
            let p = bounds().lerp(u.next_f64(), u.next_f64());
            // Few distinct ends, so ties are common.
            let e = TxEntry {
                sender: s,
                pos: p,
                end: (u.next_f64() * 4.0).floor(),
            };
            idx.insert(e);
            all.push(e);
        }
        for (cx, cy) in [(0.0, 0.0), (45.0, 15.0), (88.0, 38.0), (-500.0, 300.0)] {
            let q = Point { x: cx, y: cy };
            let got = senders(&idx, q);
            for e in &all {
                if dist2(e.pos, q) < 12.0 * 12.0 {
                    assert!(
                        got.contains(&e.sender),
                        "in-reach sender {} missing",
                        e.sender
                    );
                }
            }
        }
        for list in idx.lists() {
            assert!(list.windows(2).all(|w| w[0].end >= w[1].end));
        }
    }

    #[test]
    fn equal_ends_keep_insertion_order() {
        let mut idx = SenseIndex::new(bounds(), 1e3);
        for (s, end) in [(0, 1.0), (1, 2.0), (2, 1.0), (3, 2.0)] {
            idx.insert(entry(s, 0.0, 0.0, end));
        }
        assert_eq!(senders(&idx, Point { x: 5.0, y: 5.0 }), vec![1, 3, 0, 2]);
    }

    #[test]
    fn remove_clears_every_covered_cell() {
        let mut idx = SenseIndex::new(bounds(), 10.0);
        let e = entry(3, 5.0, 5.0, 1.0);
        idx.insert(e);
        assert!(idx.lists().filter(|l| !l.is_empty()).count() > 1);
        idx.remove(3, e.pos);
        assert!(idx.lists().all(|l| l.is_empty()));
    }

    #[test]
    fn a_disk_covering_a_quarter_of_the_floor_is_one_cell() {
        // π·30²·4 ≈ 11,310 m² ≥ the 5,000 m² floor.
        let mut idx = SenseIndex::new(bounds(), 30.0);
        assert_eq!(idx.cells.len(), 1);
        idx.insert(entry(0, -10.0, -10.0, 1.0));
        assert_eq!(
            senders(
                &idx,
                Point {
                    x: 1e9,
                    y: f64::NAN
                }
            ),
            vec![0]
        );
    }

    #[test]
    fn sizing_never_panics_and_caps_the_cell_count() {
        let huge = Rect {
            min: Point { x: 0.0, y: 0.0 },
            max: Point {
                x: 100_000.0,
                y: 100_000.0,
            },
        };
        let tiny = Rect {
            min: Point { x: 0.0, y: 0.0 },
            max: Point { x: 0.5, y: 0.5 },
        };
        for (b, reach) in [
            (tiny, 0.0),
            (huge, 1.0),
            (huge, 1e-9),
            (tiny, 1e-9),
            (tiny, 2.0),
            (tiny, f64::NAN),
        ] {
            let mut idx = SenseIndex::new(b, reach);
            assert!(idx.cols * idx.rows <= MAX_CELLS);
            idx.insert(entry(0, 0.25, 0.25, 1.0));
            assert_eq!(senders(&idx, Point { x: 0.25, y: 0.25 }), vec![0]);
        }
    }
}
