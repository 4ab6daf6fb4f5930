use std::ops::Range;

use crate::key::{SecretKey, KEY_BITS};

/// Number of masked-accumulation sweeps ([`GroupLayout::masked_sums`]) executed — one
/// per layer per signature computation or check, across signing, in-path
/// verification, scrubbing and rotation re-signing. Gated by the process-global
/// observability level ([`radar_obs::set_global_level`]); at `Off` each sweep pays one
/// relaxed load and a branch.
pub static VERIFY_SWEEPS: radar_obs::GlobalCounter = radar_obs::GlobalCounter::new();

/// Length of the key's ±1 pattern: slot `k` of a group takes key bit `k mod KEY_LEN`.
const KEY_LEN: usize = KEY_BITS as usize;

/// How a layer's weights are assigned to checksum groups.
///
/// * [`Grouping::Contiguous`] — group `j` holds weights `j·G .. (j+1)·G` (the paper's
///   "without interleave" baseline).
/// * [`Grouping::Interleaved`] — group members are originally `num_groups` locations
///   apart with an additional diagonal offset `t` (the paper's Fig. 3 scheme with the
///   extra offset of 3). The offset, like the secret key, can differ per layer and be
///   kept secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grouping {
    /// Plain contiguous groups of `G` weights.
    Contiguous,
    /// Strided ("interleaved") groups with a diagonal offset.
    Interleaved {
        /// The per-row offset `t` added to the stride mapping (the paper uses 3).
        offset: usize,
    },
}

impl Grouping {
    /// The paper's default interleaving (offset `t = 3`).
    pub fn interleaved() -> Self {
        Grouping::Interleaved { offset: 3 }
    }
}

/// The group layout of one layer: how each of `len` weights maps to one of
/// `num_groups` groups of (at most) `group_size` weights.
///
/// The layout is a bijection between (padded) weight indices and (group, slot) pairs,
/// which is what makes recovery (de-interleaving) exact.
///
/// # Example
///
/// ```
/// use radar_core::{GroupLayout, Grouping};
///
/// let layout = GroupLayout::new(128, 16, Grouping::interleaved());
/// assert_eq!(layout.num_groups(), 8);
/// let members = layout.members(0);
/// assert!(members.len() <= 16);
/// // Every member maps back to group 0.
/// assert!(members.iter().all(|&i| layout.group_of(i) == 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupLayout {
    len: usize,
    group_size: usize,
    num_groups: usize,
    grouping: Grouping,
}

impl GroupLayout {
    /// Creates the layout for a layer of `len` weights with groups of `group_size`.
    ///
    /// The last group is implicitly padded (the paper pads layers whose size is not a
    /// multiple of `G`); padded slots simply have no member index.
    ///
    /// # Panics
    ///
    /// Panics if `len` or `group_size` is zero.
    pub fn new(len: usize, group_size: usize, grouping: Grouping) -> Self {
        assert!(len > 0, "layer length must be non-zero");
        assert!(group_size > 0, "group size must be non-zero");
        let num_groups = len.div_ceil(group_size);
        GroupLayout {
            len,
            group_size,
            num_groups,
            grouping,
        }
    }

    /// Number of weights in the layer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the layer has no weights.
    ///
    /// [`new`](Self::new) rejects empty layers today, but the contract is computed from
    /// `len` rather than hard-coded so it survives future construction paths
    /// (deserialization, incremental builders) that may not share that assertion.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured group size `G`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of groups (`⌈len / G⌉`).
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The grouping strategy.
    pub fn grouping(&self) -> Grouping {
        self.grouping
    }

    /// The group that weight `index` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn group_of(&self, index: usize) -> usize {
        assert!(
            index < self.len,
            "weight index {index} out of bounds for layer of {}",
            self.len
        );
        match self.grouping {
            Grouping::Contiguous => index / self.group_size,
            Grouping::Interleaved { offset } => {
                let row = index / self.num_groups; // slot within the group
                let col = index % self.num_groups;
                (col + row * offset) % self.num_groups
            }
        }
    }

    /// The slot (position within its group) of weight `index`; slots order the masked
    /// summation and therefore which key bit applies.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn slot_of(&self, index: usize) -> usize {
        assert!(
            index < self.len,
            "weight index {index} out of bounds for layer of {}",
            self.len
        );
        match self.grouping {
            Grouping::Contiguous => index % self.group_size,
            Grouping::Interleaved { .. } => index / self.num_groups,
        }
    }

    /// The original weight indices belonging to `group`, in slot order. Padded slots
    /// (beyond the end of the layer) are omitted.
    ///
    /// # Panics
    ///
    /// Panics if `group >= num_groups`.
    pub fn members(&self, group: usize) -> Vec<usize> {
        assert!(
            group < self.num_groups,
            "group {group} out of bounds for {} groups",
            self.num_groups
        );
        match self.grouping {
            Grouping::Contiguous => {
                let start = group * self.group_size;
                let end = (start + self.group_size).min(self.len);
                (start..end).collect()
            }
            Grouping::Interleaved { offset } => {
                let mut members = Vec::with_capacity(self.group_size);
                // padded length is num_groups * ceil(padded_rows); rows run 0..group_size
                let rows = self.padded_len() / self.num_groups;
                for row in 0..rows {
                    let col = (group + self.num_groups - (row * offset) % self.num_groups)
                        % self.num_groups;
                    let index = row * self.num_groups + col;
                    if index < self.len {
                        members.push(index);
                    }
                }
                members
            }
        }
    }

    /// Layer length rounded up to a whole number of groups.
    pub fn padded_len(&self) -> usize {
        self.num_groups * self.group_size
    }

    /// Every group's masked addition checksum `M` under `key`, computed in one sweep
    /// over `weights` in storage order: `acc[g]` is overwritten with group `g`'s sum
    /// and entries past [`num_groups`](Self::num_groups) are left untouched, so one
    /// scratch buffer serves layers of different widths. Ticks [`VERIFY_SWEEPS`] once.
    ///
    /// The sweep is arithmetic on the layout; it reads no per-weight table:
    ///
    /// * contiguous — group `j` is `weights[j·G .. (j+1)·G]` and slot `k` takes key bit
    ///   `k mod 16`, so each group is a dot product with the key's 16-entry ±1 pattern;
    /// * interleaved — row `r` (weights `r·ng .. (r+1)·ng`) holds slot `r` of every
    ///   group under one key bit, and its column `c` belongs to group
    ///   `(c + r·t) mod ng`; the last row may be short. Rows are added (or, for a 0
    ///   key bit, subtracted) into an `i16` tile on the stack in blocks of up to 255:
    ///   row `j` of a block starting at row `b` lands as one contiguous run at tile
    ///   positions `j·(t mod ng) ..`, and position `q` belongs to group
    ///   `(b·t + q) mod ng`. After each block the tile is folded into `acc` and
    ///   cleared. A row moves a position by at most 128 and 255 · 128 < 2¹⁵, so the
    ///   tile never overflows. The tile holds 8,192 positions; a block that spans
    ///   more takes one pass over its rows per window of the tile.
    ///
    /// Both are exact, so every sum equals [`masked_sum`](crate::masked_sum) over the
    /// group's [`members`](Self::members) (pinned against
    /// [`gather_signatures`](crate::gather_signatures) by the `plan_equivalence`
    /// proptests, and at the flush and tile edges by this module's tests).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the layer length or `acc` holds fewer
    /// than `num_groups` entries.
    pub fn masked_sums(&self, key: &SecretKey, weights: &[i8], acc: &mut [i32]) {
        assert_eq!(
            weights.len(),
            self.len,
            "weight count does not match the layout"
        );
        self.sweep_rows(key, &mut { weights }, acc);
    }

    /// The fetch kernel's sweep: copies the layer's raw bytes `src` into `dst`
    /// (cleared first; `u8 → i8` is a bit cast) and computes the same sums as
    /// [`masked_sums`](Self::masked_sums) over the copy. Each row is appended to `dst`
    /// just before the sweep adds it, while it is still in L1, so the layer is read
    /// once; tile passes after the first read the copy. Ticks [`VERIFY_SWEEPS`] once.
    ///
    /// # Panics
    ///
    /// As [`masked_sums`](Self::masked_sums), with `src` in place of `weights`.
    pub(crate) fn fetch_masked_sums(
        &self,
        key: &SecretKey,
        src: &[u8],
        dst: &mut Vec<i8>,
        acc: &mut [i32],
    ) {
        assert_eq!(
            src.len(),
            self.len,
            "weight count does not match the layout"
        );
        dst.clear();
        dst.reserve(src.len());
        self.sweep_rows(key, &mut Fetch { src, dst }, acc);
    }

    /// The one sweep body behind [`masked_sums`](Self::masked_sums) and
    /// [`fetch_masked_sums`](Self::fetch_masked_sums), reading the layer's weights
    /// through `rows`.
    fn sweep_rows(&self, key: &SecretKey, rows: &mut impl Rows, acc: &mut [i32]) {
        let ng = self.num_groups;
        assert!(
            acc.len() >= ng,
            "accumulator holds {} entries, need {ng}",
            acc.len()
        );
        VERIFY_SWEEPS.add(1);
        let acc = &mut acc[..ng];
        match self.grouping {
            Grouping::Contiguous => {
                let pattern: [i32; KEY_LEN] = std::array::from_fn(|k| key.mask(k));
                for (group, sum) in acc.iter_mut().enumerate() {
                    let start = group * self.group_size;
                    let end = (start + self.group_size).min(self.len);
                    *sum = pattern_dot(rows.read_rows(start..end), &pattern);
                }
            }
            Grouping::Interleaved { offset } => {
                let step = offset % ng;
                let num_rows = self.len.div_ceil(ng);
                let mut tile = [0i16; TILE_LEN];
                acc.fill(0);
                for block in (0..num_rows).step_by(FLUSH_ROWS) {
                    // Row `block + j` covers positions `j·step ..`, one run, and
                    // position `q` belongs to group `(block·step + q) mod ng`.
                    let block_rows = FLUSH_ROWS.min(num_rows - block);
                    let span = (block_rows - 1) * step + ng;
                    for window in (0..span).step_by(TILE_LEN) {
                        let tile = &mut tile[..TILE_LEN.min(span - window)];
                        for j in 0..block_rows {
                            let start = (block + j) * ng;
                            let run = rows.read_rows(start..self.len.min(start + ng));
                            tile_add(tile, window, j * step, run, key.keeps_sign(block + j));
                        }
                        fold_tile(tile, acc, (block * step + window) % ng);
                    }
                }
            }
        }
    }
}

/// Positions one `i16` tile holds (16 KB on the stack), chosen by measurement
/// (`docs/KERNELS.md` §7). A flush block under the paper's offset of 3 spans its
/// layer's group count plus at most 762 positions, so every layer of ResNet-20 at
/// G=16 and of paper-width ResNet-18 at G=512 takes one window.
const TILE_LEN: usize = 8192;

/// Rows added into the `i16` tile between flushes into the `i32` sums: each row moves
/// a position by at most 128 (`−i8::MIN`), and 255 · 128 = 32,640 ≤ `i16::MAX`.
const FLUSH_ROWS: usize = 255;

/// Where a sweep reads a layer's weights from: one interleaved row or one contiguous
/// group at a time. The first pass asks for them in storage order.
trait Rows {
    /// The weights at `range` of the layer.
    fn read_rows(&mut self, range: Range<usize>) -> &[i8];
}

impl Rows for &[i8] {
    fn read_rows(&mut self, range: Range<usize>) -> &[i8] {
        &self[range]
    }
}

/// The fetch kernel's rows: a range the sweep has not read yet is copied from `src`
/// onto the end of `dst` first, and every range is read from the copy.
struct Fetch<'a> {
    src: &'a [u8],
    dst: &'a mut Vec<i8>,
}

impl Rows for Fetch<'_> {
    fn read_rows(&mut self, range: Range<usize>) -> &[i8] {
        if self.dst.len() < range.end {
            assert_eq!(self.dst.len(), range.start, "rows copied out of order");
            let bytes = &self.src[range.clone()];
            self.dst
                .extend(bytes.iter().map(|&b| i8::from_ne_bytes([b])));
        }
        &self.dst[range]
    }
}

/// One contiguous group's masked sum: a dot product with the key's ±1 `pattern`,
/// which restarts at slot 0 with the group.
fn pattern_dot(group: &[i8], pattern: &[i32; KEY_LEN]) -> i32 {
    let mut blocks = group.chunks_exact(KEY_LEN);
    let mut lanes = [0i32; KEY_LEN];
    for block in &mut blocks {
        for ((lane, &m), &w) in lanes.iter_mut().zip(pattern).zip(block) {
            *lane += m * i32::from(w);
        }
    }
    let tail: i32 = blocks
        .remainder()
        .iter()
        .zip(pattern)
        .map(|(&w, &m)| m * i32::from(w))
        .sum();
    lanes.iter().sum::<i32>() + tail
}

/// Adds one row's `run`, which covers positions `pos..pos + run.len()`, into the part
/// of `tile` (positions `window..window + tile.len()`) that it overlaps, or subtracts
/// it when the row's key bit is 0.
fn tile_add(tile: &mut [i16], window: usize, pos: usize, run: &[i8], keep: bool) {
    let lo = pos.max(window);
    let hi = (pos + run.len()).min(window + tile.len());
    if lo >= hi {
        return;
    }
    let (tile, run) = (
        &mut tile[lo - window..hi - window],
        &run[lo - pos..hi - pos],
    );
    if keep {
        for (sum, &w) in tile.iter_mut().zip(run) {
            *sum += i16::from(w);
        }
    } else {
        for (sum, &w) in tile.iter_mut().zip(run) {
            *sum -= i16::from(w);
        }
    }
}

/// Flushes `tile`, whose entry `k` belongs to group `(group + k) mod acc.len()`, into
/// the `i32` sums `acc` and zeroes it for the next block.
fn fold_tile(tile: &mut [i16], acc: &mut [i32], group: usize) {
    let flush = |sums: &mut [i32], part: &mut [i16]| {
        for (sum, entry) in sums.iter_mut().zip(part) {
            *sum += i32::from(std::mem::take(entry));
        }
    };
    let (head, tail) = tile.split_at_mut(tile.len().min(acc.len() - group));
    flush(&mut acc[group..], head);
    for part in tail.chunks_mut(acc.len()) {
        flush(acc, part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_layout_matches_division() {
        let layout = GroupLayout::new(100, 16, Grouping::Contiguous);
        assert_eq!(layout.num_groups(), 7);
        assert_eq!(layout.group_of(0), 0);
        assert_eq!(layout.group_of(15), 0);
        assert_eq!(layout.group_of(16), 1);
        assert_eq!(layout.members(6), (96..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_members_are_scattered() {
        let layout = GroupLayout::new(128, 16, Grouping::interleaved());
        let members = layout.members(0);
        assert_eq!(members.len(), 16);
        // Consecutive members differ by at least num_groups - offset.
        for pair in members.windows(2) {
            assert!(
                pair[1] - pair[0] >= layout.num_groups() - 3,
                "members too close: {pair:?}"
            );
        }
    }

    #[test]
    fn group_of_and_members_are_consistent() {
        for grouping in [
            Grouping::Contiguous,
            Grouping::interleaved(),
            Grouping::Interleaved { offset: 5 },
        ] {
            let layout = GroupLayout::new(200, 32, grouping);
            for g in 0..layout.num_groups() {
                for &i in &layout.members(g) {
                    assert_eq!(
                        layout.group_of(i),
                        g,
                        "{grouping:?}: index {i} not in group {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_weight_belongs_to_exactly_one_group() {
        for grouping in [Grouping::Contiguous, Grouping::interleaved()] {
            let layout = GroupLayout::new(150, 16, grouping);
            let mut seen = vec![0usize; 150];
            for g in 0..layout.num_groups() {
                for &i in &layout.members(g) {
                    seen[i] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "{grouping:?}: partition property violated"
            );
        }
    }

    #[test]
    fn slots_are_unique_within_a_group() {
        let layout = GroupLayout::new(128, 16, Grouping::interleaved());
        for g in 0..layout.num_groups() {
            let mut slots: Vec<usize> = layout
                .members(g)
                .iter()
                .map(|&i| layout.slot_of(i))
                .collect();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), layout.members(g).len());
        }
    }

    #[test]
    fn interleaving_separates_contiguous_neighbours() {
        // The knowledgeable attacker pairs flips that are contiguous-group neighbours;
        // interleaving must place neighbouring weights in different groups.
        let layout = GroupLayout::new(1024, 64, Grouping::interleaved());
        let mut separated = 0;
        for i in 0..63 {
            if layout.group_of(i) != layout.group_of(i + 1) {
                separated += 1;
            }
        }
        assert!(
            separated >= 60,
            "only {separated}/63 contiguous neighbours separated"
        );
    }

    #[test]
    fn is_empty_is_computed_from_len() {
        // Regression: `is_empty` used to hard-code `false` instead of consulting `len`,
        // which would silently lie for any future construction path that admits
        // zero-length layouts.
        for len in [1usize, 5, 100] {
            let layout = GroupLayout::new(len, 4, Grouping::Contiguous);
            assert!(!layout.is_empty());
            assert_eq!(layout.len(), len);
        }
        // `new` rejects len == 0, but other construction paths may not; build the value
        // directly to pin the contract for the empty case.
        let empty = GroupLayout {
            len: 0,
            group_size: 4,
            num_groups: 0,
            grouping: Grouping::Contiguous,
        };
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn group_of_out_of_bounds_panics() {
        GroupLayout::new(10, 4, Grouping::Contiguous).group_of(10);
    }

    /// Checks both sweeps of `layout` over `weights` against the gathered members:
    /// every sum, the entry past `num_groups` left untouched, and the fetch kernel's
    /// sums and copy.
    fn assert_sweeps_match_the_gathered_members(
        layout: GroupLayout,
        key: SecretKey,
        weights: &[i8],
    ) {
        let ng = layout.num_groups();
        let mut acc = vec![i32::MIN; ng + 1];
        layout.masked_sums(&key, weights, &mut acc);
        for (group, &sum) in acc[..ng].iter().enumerate() {
            let vals: Vec<i8> = layout.members(group).iter().map(|&i| weights[i]).collect();
            assert_eq!(
                sum,
                crate::masked_sum(&vals, &key),
                "{layout:?} {key:?} group {group}"
            );
        }
        assert_eq!(acc[ng], i32::MIN, "entries past num_groups stay untouched");
        let bytes: Vec<u8> = weights.iter().map(|&w| w as u8).collect();
        let (mut dst, mut fetched) = (vec![7; 3], vec![i32::MIN; ng + 1]);
        layout.fetch_masked_sums(&key, &bytes, &mut dst, &mut fetched);
        assert_eq!(fetched, acc, "{layout:?} {key:?}: the fetch kernel's sums");
        assert_eq!(
            dst, weights,
            "{layout:?}: the fetch kernel copies every byte"
        );
    }

    fn mixed_weights(len: usize) -> Vec<i8> {
        (0..len)
            .map(|i| (i as i32 * 37 % 251 - 125) as i8)
            .collect()
    }

    #[test]
    fn masked_sums_match_the_gathered_members() {
        let key = SecretKey::new(0xBEEF);
        for grouping in [
            Grouping::Contiguous,
            Grouping::interleaved(),
            Grouping::Interleaved { offset: 0 },
            Grouping::Interleaved { offset: 7 },
        ] {
            // (5, 4) has two groups, so every offset above wraps past `num_groups`.
            for (len, g) in [(128, 16), (130, 16), (37, 5), (513, 64), (5, 4)] {
                let layout = GroupLayout::new(len, g, grouping);
                assert_sweeps_match_the_gathered_members(layout, key, &mixed_weights(len));
            }
        }
        // Saturated layers at the flush edge. Each row moves a tile entry by up to
        // 128, so 255 rows reach ±32,640; a 256th row of `i8::MIN` under a 0 key bit
        // makes +32,768, one past `i16::MAX`, unless the tile is flushed first.
        for fill in [i8::MIN, i8::MAX] {
            for key in [SecretKey::new(0x0000), SecretKey::new(0xFFFF)] {
                for rows in [255, 256, 511] {
                    for grouping in [Grouping::Contiguous, Grouping::interleaved()] {
                        let layout = GroupLayout::new(3 * rows, rows, grouping);
                        assert_sweeps_match_the_gathered_members(
                            layout,
                            key,
                            &vec![fill; 3 * rows],
                        );
                    }
                }
            }
        }
        // Wider than one tile, each with a ragged last row: 8,194 groups under the
        // paper's offset; 8,998 groups whose row shifts wrap past `num_groups`; and
        // 100 groups whose two flush blocks each span four tile windows.
        for (len, g, offset) in [(16_387, 2, 3), (26_993, 3, 5_000), (29_950, 300, 99)] {
            let layout = GroupLayout::new(len, g, Grouping::Interleaved { offset });
            assert_ne!(len % layout.num_groups(), 0, "the last row is ragged");
            assert_sweeps_match_the_gathered_members(layout, key, &mixed_weights(len));
        }
    }

    #[test]
    #[should_panic(expected = "weight count does not match")]
    fn masked_sums_reject_a_wrong_weight_count() {
        let layout = GroupLayout::new(16, 4, Grouping::interleaved());
        layout.masked_sums(&SecretKey::new(1), &[0i8; 15], &mut [0i32; 4]);
    }

    #[test]
    #[should_panic(expected = "accumulator holds")]
    fn masked_sums_reject_a_short_scratch() {
        let layout = GroupLayout::new(16, 4, Grouping::Contiguous);
        layout.masked_sums(&SecretKey::new(1), &[0i8; 16], &mut [0i32; 3]);
    }
}
