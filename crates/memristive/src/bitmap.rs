//! Dense bit vectors for select vectors, match vectors, and exclusion flags.
//!
//! The RIME periphery manipulates whole vectors of per-row latches at once
//! (Fig. 7): the select vector gates which rows participate in a column
//! search, the match vector is the XNOR of the sensed column with the
//! reference bit, and exclusion flags persist found rows across sort
//! accesses. [`Bitmap`] is the shared representation for all three.

use std::fmt;

/// A fixed-length vector of bits backed by `u64` words.
///
/// Invariant: bits in the last word beyond `len` are always zero, so
/// word-level kernels (`and_not_assign`, `and_words_count_removed`, …)
/// never see phantom tail bits even when they complement an operand.
///
/// # Example
///
/// ```
/// use rime_memristive::Bitmap;
///
/// let mut select = Bitmap::zeros(8);
/// select.set_range(2, 6);
/// assert_eq!(select.count_ones(), 4);
/// assert_eq!(select.first_one(), Some(2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates a bitmap of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates a bitmap of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut bm = Bitmap {
            len,
            words: vec![u64::MAX; len.div_ceil(64)],
        };
        bm.mask_tail();
        bm
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of bits in the bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits (length zero, not value zero).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Writes the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Sets every bit in `[start, end)` to one, a whole word at a time:
    /// partial first/last words get masked ORs, fully covered words are
    /// filled directly.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if start == end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            for word in &mut self.words[first + 1..last] {
                *word = u64::MAX;
            }
            self.words[last] |= tail;
        }
    }

    /// Clears every bit in `[start, end)`, a whole word at a time — the
    /// mirror of [`Bitmap::set_range`]: partial first/last words get
    /// masked ANDs, fully covered words are zeroed directly.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len`.
    pub(crate) fn clear_range(&mut self, start: usize, end: usize) {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if start == end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            self.words[first] &= !(head & tail);
        } else {
            self.words[first] &= !head;
            self.words[first + 1..last].fill(0);
            self.words[last] &= !tail;
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of one bits.
    ///
    /// Four-wide unrolled so the popcounts pipeline instead of feeding a
    /// single serial accumulator.
    pub fn count_ones(&self) -> usize {
        let mut chunks = self.words.chunks_exact(4);
        let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
        for w in chunks.by_ref() {
            c0 += w[0].count_ones() as usize;
            c1 += w[1].count_ones() as usize;
            c2 += w[2].count_ones() as usize;
            c3 += w[3].count_ones() as usize;
        }
        let mut count = c0 + c1 + c2 + c3;
        for &w in chunks.remainder() {
            count += w.count_ones() as usize;
        }
        count
    }

    /// Whether no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether at least one bit is set.
    pub fn any(&self) -> bool {
        !self.none()
    }

    /// Index of the lowest set bit, if any.
    ///
    /// The H-tree priority encoder always resolves ties toward the lowest
    /// address (Fig. 10), which this mirrors.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                return (idx < self.len).then_some(idx);
            }
        }
        None
    }

    /// In-place intersection with `other`.
    ///
    /// Four-wide unrolled (a `u64x4` in stable scalar form) so the
    /// independent word ANDs issue without a loop-carried dependency.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let mut dst = self.words.chunks_exact_mut(4);
        let mut src = other.words.chunks_exact(4);
        for (a, b) in dst.by_ref().zip(src.by_ref()) {
            a[0] &= b[0];
            a[1] &= b[1];
            a[2] &= b[2];
            a[3] &= b[3];
        }
        for (a, &b) in dst.into_remainder().iter_mut().zip(src.remainder()) {
            *a &= b;
        }
    }

    /// In-place difference: clears every bit that is set in `other`.
    ///
    /// Four-wide unrolled like [`Bitmap::and_assign`].
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let mut dst = self.words.chunks_exact_mut(4);
        let mut src = other.words.chunks_exact(4);
        for (a, b) in dst.by_ref().zip(src.by_ref()) {
            a[0] &= !b[0];
            a[1] &= !b[1];
            a[2] &= !b[2];
            a[3] &= !b[3];
        }
        for (a, &b) in dst.into_remainder().iter_mut().zip(src.remainder()) {
            *a &= !b;
        }
    }

    /// Fused `self &= other` that also reports how many bits were cleared,
    /// in a single pass: per word the removed count is
    /// `(old ^ new).count_ones()`. Replaces the count / AND / count
    /// three-pass shape on the exclusion hot path.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_assign_count_removed(&mut self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.and_words_count_removed(&other.words, true)
    }

    /// `self &= words` (`keep`) or `self &= !words` (`!keep`) over raw
    /// words of the same count — a column of a mat's shadow — reporting
    /// how many bits were cleared. Four-wide unrolled, skipping chunks
    /// of `self` that are all zero; the complement's tail bits are
    /// harmless because `self`'s tail is zero.
    ///
    /// # Panics
    ///
    /// Panics if the word counts differ.
    pub(crate) fn and_words_count_removed(&mut self, words: &[u64], keep: bool) -> usize {
        assert_eq!(self.words.len(), words.len(), "bitmap length mismatch");
        let flip = if keep { 0 } else { u64::MAX };
        let mut removed = 0usize;
        let mut dst = self.words.chunks_exact_mut(4);
        let mut src = words.chunks_exact(4);
        for (a, b) in dst.by_ref().zip(src.by_ref()) {
            if a[0] | a[1] | a[2] | a[3] == 0 {
                continue; // nothing to clear: leave `words` unread
            }
            let (n0, n1, n2, n3) = (
                a[0] & (b[0] ^ flip),
                a[1] & (b[1] ^ flip),
                a[2] & (b[2] ^ flip),
                a[3] & (b[3] ^ flip),
            );
            removed += ((a[0] ^ n0).count_ones()
                + (a[1] ^ n1).count_ones()
                + (a[2] ^ n2).count_ones()
                + (a[3] ^ n3).count_ones()) as usize;
            a[0] = n0;
            a[1] = n1;
            a[2] = n2;
            a[3] = n3;
        }
        for (a, &b) in dst.into_remainder().iter_mut().zip(src.remainder()) {
            let n = *a & (b ^ flip);
            removed += (*a ^ n).count_ones() as usize;
            *a = n;
        }
        removed
    }

    /// [`Bitmap::and_words_count_removed`] that also appends, one word per
    /// word of `self`, the bits it cleared to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the word counts differ.
    pub(crate) fn and_words_saving_removed(
        &mut self,
        words: &[u64],
        keep: bool,
        out: &mut Vec<u64>,
    ) -> usize {
        assert_eq!(self.words.len(), words.len(), "bitmap length mismatch");
        let flip = if keep { 0 } else { u64::MAX };
        let mut removed = 0;
        out.extend(self.words.iter_mut().zip(words).map(|(a, &b)| {
            if *a == 0 {
                return 0; // nothing to clear: leave `words` unread
            }
            let kept = *a & (b ^ flip);
            let gone = *a ^ kept;
            removed += gone.count_ones() as usize;
            *a = kept;
            gone
        }));
        removed
    }

    /// The backing `u64` words, least-significant bit first. Bits beyond
    /// `len` in the last word are guaranteed zero (see the type-level
    /// invariant), so word-level consumers need no tail handling of their
    /// own.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites the backing words with `words` (a copy of another
    /// bitmap's [`Bitmap::words`] of the same length).
    ///
    /// # Panics
    ///
    /// Panics if the word counts differ.
    pub(crate) fn copy_words_from(&mut self, words: &[u64]) {
        self.words.copy_from_slice(words);
        self.mask_tail();
    }

    /// Overwrites `self` with the `self.len()`-bit subrange of `src`
    /// starting at `start` — [`Bitmap::slice`] without the allocation,
    /// which is what lets the extraction engines rearm each mat's
    /// select vector from the membership bitmap with zero per-iteration
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if `start + self.len() > src.len()`.
    pub fn assign_slice(&mut self, src: &Bitmap, start: usize) {
        assert!(
            start
                .checked_add(self.len)
                .is_some_and(|end| end <= src.len),
            "slice [{start}, {start}+{}) out of range {}",
            self.len,
            src.len
        );
        let shift = start % 64;
        for wi in 0..self.words.len() {
            let idx = start / 64 + wi;
            let lo = src.words[idx] >> shift;
            let hi = if shift != 0 && idx + 1 < src.words.len() {
                src.words[idx + 1] << (64 - shift)
            } else {
                0
            };
            self.words[wi] = lo | hi;
        }
        self.mask_tail();
    }

    /// Number of one bits inside `[start, end)`, a word at a time (masked
    /// popcounts on the partial boundary words).
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len`.
    pub fn count_ones_in_range(&self, start: usize, end: usize) -> usize {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if start == end {
            return 0;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            return (self.words[first] & head & tail).count_ones() as usize;
        }
        let mut count = (self.words[first] & head).count_ones() as usize;
        for &word in &self.words[first + 1..last] {
            count += word.count_ones() as usize;
        }
        count + (self.words[last] & tail).count_ones() as usize
    }

    /// Extracts the `len`-bit subrange starting at `start` as a new bitmap.
    ///
    /// Works a `u64` word at a time (two shifts per output word), which is
    /// what lets the chip's batched extraction rearm select vectors from a
    /// membership bitmap without walking individual bits. See
    /// [`Bitmap::assign_slice`] for the allocation-free form.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    pub fn slice(&self, start: usize, len: usize) -> Bitmap {
        let mut out = Bitmap::zeros(len);
        out.assign_slice(self, start);
        out
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap[{}; ", self.len)?;
        for idx in 0..self.len.min(128) {
            write!(f, "{}", self.get(idx) as u8)?;
        }
        if self.len > 128 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut bm = Bitmap::zeros(bits.len());
        for (idx, bit) in bits.into_iter().enumerate() {
            if bit {
                bm.set(idx, true);
            }
        }
        bm
    }
}

/// Iterator over set-bit indices produced by [`Bitmap::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * 64 + bit;
                if idx < self.bitmap.len {
                    return Some(idx);
                }
                return None;
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(70);
        assert_eq!(z.count_ones(), 0);
        assert!(z.none());
        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.any());
        // tail bits beyond len must not be set
        assert_eq!(o.words.last().unwrap().count_ones(), 6);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::zeros(130);
        bm.set(0, true);
        bm.set(64, true);
        bm.set(129, true);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1));
        bm.set(64, false);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn set_range_spans_words() {
        let mut bm = Bitmap::zeros(200);
        bm.set_range(60, 140);
        assert_eq!(bm.count_ones(), 80);
        assert!(bm.get(60) && bm.get(139));
        assert!(!bm.get(59) && !bm.get(140));
    }

    #[test]
    fn first_one_finds_lowest() {
        let mut bm = Bitmap::zeros(512);
        assert_eq!(bm.first_one(), None);
        bm.set(300, true);
        bm.set(77, true);
        assert_eq!(bm.first_one(), Some(77));
    }

    #[test]
    fn boolean_ops() {
        let mut a = Bitmap::zeros(10);
        a.set_range(0, 6);
        let mut b = Bitmap::zeros(10);
        b.set_range(4, 10);

        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![4, 5]);

        a.and_not_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn iter_ones_across_words() {
        let mut bm = Bitmap::zeros(256);
        for idx in [0, 63, 64, 127, 128, 255] {
            bm.set(idx, true);
        }
        assert_eq!(
            bm.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 128, 255]
        );
    }

    #[test]
    fn slice_matches_per_bit_extraction() {
        let mut bm = Bitmap::zeros(300);
        for idx in [0, 1, 63, 64, 65, 100, 190, 191, 192, 299] {
            bm.set(idx, true);
        }
        for (start, len) in [
            (0, 300),
            (0, 64),
            (1, 64),
            (63, 130),
            (190, 3),
            (300, 0),
            (37, 0),
        ] {
            let got = bm.slice(start, len);
            let want: Bitmap = (start..start + len).map(|idx| bm.get(idx)).collect();
            assert_eq!(got, want, "slice({start}, {len})");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_end_panics() {
        Bitmap::zeros(10).slice(8, 3);
    }

    #[test]
    fn set_range_word_boundaries_and_tail() {
        // Every alignment of interest: inside one word, exactly a word,
        // spanning several words, ending on the unaligned tail.
        for (len, start, end) in [
            (70, 0, 0),
            (70, 3, 9),
            (70, 0, 64),
            (70, 63, 65),
            (70, 1, 70),
            (200, 60, 140),
            (200, 64, 128),
            (191, 120, 191),
        ] {
            let mut bm = Bitmap::zeros(len);
            bm.set_range(start, end);
            let mut want = Bitmap::zeros(len);
            for idx in start..end {
                want.set(idx, true);
            }
            assert_eq!(bm, want, "set_range({start}, {end}) on len {len}");
            // Tail invariant: no phantom bits past len.
            let rem = len % 64;
            if rem != 0 {
                assert_eq!(bm.words.last().unwrap() >> rem, 0, "tail must stay zero");
            }
        }
    }

    #[test]
    fn clear_range_matches_per_bit_across_words_and_tail() {
        // Same alignments as `set_range_word_boundaries_and_tail`, applied
        // to a patterned bitmap so bits outside the range must survive.
        for (len, start, end) in [
            (70, 0, 0),
            (70, 3, 9),
            (70, 0, 64),
            (70, 63, 65),
            (70, 1, 70),
            (70, 0, 70),
            (200, 60, 140),
            (200, 64, 128),
            (191, 120, 191),
            (191, 0, 191),
        ] {
            let pattern: Bitmap = (0..len).map(|i| i % 3 != 0).collect();
            let mut bm = pattern.clone();
            bm.clear_range(start, end);
            let mut want = pattern.clone();
            for idx in start..end {
                want.set(idx, false);
            }
            assert_eq!(bm, want, "clear_range({start}, {end}) on len {len}");
            // Clearing all-ones leaves exactly the complement of the range.
            let mut ones = Bitmap::ones(len);
            ones.clear_range(start, end);
            assert_eq!(ones.count_ones(), len - (end - start));
            let rem = len % 64;
            if rem != 0 {
                assert_eq!(ones.words.last().unwrap() >> rem, 0, "tail must stay zero");
            }
        }
    }

    #[test]
    fn assign_slice_matches_slice_across_words() {
        let src: Bitmap = (0..300).map(|i| i % 7 < 3).collect();
        for (start, len) in [(0, 300), (1, 64), (63, 130), (190, 3), (299, 1), (37, 0)] {
            let mut out = Bitmap::ones(len);
            out.assign_slice(&src, start);
            assert_eq!(out, src.slice(start, len), "assign_slice({start}, {len})");
        }
    }

    #[test]
    fn count_ones_in_range_matches_per_bit() {
        let bm: Bitmap = (0..200).map(|i| i % 3 == 1).collect();
        for (start, end) in [
            (0, 0),
            (0, 200),
            (5, 60),
            (60, 70),
            (63, 65),
            (64, 128),
            (130, 199),
        ] {
            let want = (start..end).filter(|&i| bm.get(i)).count();
            assert_eq!(bm.count_ones_in_range(start, end), want, "[{start}, {end})");
        }
    }

    #[test]
    fn fused_count_removed_matches_three_pass() {
        // Lengths straddling the 4-word unroll boundary: remainder of
        // 0..3 words plus the empty and sub-chunk cases.
        for len in [0, 1, 63, 64, 129, 256, 257, 300, 511] {
            let a: Bitmap = (0..len).map(|i| i % 3 != 1).collect();
            let b: Bitmap = (0..len).map(|i| i % 5 < 3).collect();

            let mut fused = a.clone();
            let removed = fused.and_assign_count_removed(&b);
            let mut three = a.clone();
            let before = three.count_ones();
            three.and_assign(&b);
            assert_eq!(fused, three, "and result at len {len}");
            assert_eq!(removed, before - three.count_ones(), "and removed {len}");

            // The saving form clears the same bits and hands them back.
            for keep in [true, false] {
                let mut counted = a.clone();
                let removed = counted.and_words_count_removed(b.words(), keep);
                let mut saved = a.clone();
                let mut gone = Vec::new();
                assert_eq!(
                    saved.and_words_saving_removed(b.words(), keep, &mut gone),
                    removed
                );
                assert_eq!(saved, counted, "saving result at len {len}, keep {keep}");
                let want: Vec<u64> = a
                    .words
                    .iter()
                    .zip(&counted.words)
                    .map(|(x, y)| x ^ y)
                    .collect();
                assert_eq!(gone, want, "cleared bits at len {len}, keep {keep}");
            }
        }
    }

    #[test]
    fn unrolled_kernels_match_per_bit_on_odd_lengths() {
        for len in [1, 4, 65, 255, 256, 259] {
            let a: Bitmap = (0..len).map(|i| i % 7 < 4).collect();
            let b: Bitmap = (0..len).map(|i| i % 11 > 5).collect();
            let mut and = a.clone();
            and.and_assign(&b);
            let mut andn = a.clone();
            andn.and_not_assign(&b);
            let mut want_ones = 0;
            for idx in 0..len {
                assert_eq!(and.get(idx), a.get(idx) && b.get(idx), "and {len}/{idx}");
                assert_eq!(andn.get(idx), a.get(idx) && !b.get(idx), "andn {len}/{idx}");
                want_ones += a.get(idx) as usize;
            }
            assert_eq!(a.count_ones(), want_ones, "count_ones at len {len}");
        }
    }

    #[test]
    fn from_iterator() {
        let bm: Bitmap = [true, false, true, true].into_iter().collect();
        assert_eq!(bm.len(), 4);
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::zeros(4).get(4);
    }

    #[test]
    fn debug_is_nonempty() {
        let bm = Bitmap::zeros(4);
        assert!(!format!("{bm:?}").is_empty());
    }
}
