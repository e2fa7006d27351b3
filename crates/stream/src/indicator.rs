//! Per-window indicator vectors: the view the DP mechanisms operate on.
//!
//! Def. 5 of the paper feeds randomized response with "the existence of
//! events `I(e_i) ∈ {0, 1}`". An [`IndicatorVector`] records, for one window,
//! whether each event type occurred at least once; [`WindowedIndicators`] is
//! the whole windowed history (the synthetic dataset's 1000 `Lm` lists map to
//! exactly this shape).
//!
//! # Representation
//!
//! Indicators are **bit-packed**: type `i`'s presence bit lives at bit
//! `i % 64` of word `i / 64`. This makes the service-phase hot loop
//! word-parallel — randomized response XORs whole 64-bit flip masks into the
//! window ([`IndicatorVector::xor_word`]), and pattern matching is a
//! branch-free subset test of a precompiled [`TypeMask`] against the packed
//! words ([`TypeMask::matches`]). Bits at positions `>= n_types` are always
//! zero (every mutator trims to the valid tail), so equality, popcounts and
//! subset tests over raw words are exact.
//!
//! The serialized form is unchanged from the earlier `Vec<bool>`
//! representation (`{"bits": [true, false, …]}`), so recorded traces and
//! JSON artifacts keep round-tripping.

use crate::event::{Event, EventType};
use crate::stream::EventStream;
use crate::window::WindowAssigner;

/// Presence of each event type within one window, bit-packed into `u64`
/// words (type `i` ↦ bit `i % 64` of word `i / 64`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndicatorVector {
    n_types: usize,
    words: Vec<u64>,
}

/// Number of `u64` words needed for `n_types` bits.
#[inline]
pub const fn words_for(n_types: usize) -> usize {
    n_types.div_ceil(64)
}

/// The valid-bit mask of word `w` in a universe of `n_types` types: all
/// ones except for the unused tail of the last word.
#[inline]
const fn tail_mask(w: usize, n_types: usize) -> u64 {
    let used = n_types - w * 64;
    if used >= 64 {
        u64::MAX
    } else {
        (1u64 << used) - 1
    }
}

impl IndicatorVector {
    /// An all-absent vector over `n_types` event types.
    pub fn empty(n_types: usize) -> Self {
        IndicatorVector {
            n_types,
            words: vec![0; words_for(n_types)],
        }
    }

    /// Build from the events of one window.
    pub fn from_events(events: &[Event], n_types: usize) -> Self {
        let mut v = Self::empty(n_types);
        for e in events {
            v.set(e.ty, true);
        }
        v
    }

    /// Build directly from present types.
    pub fn from_present<I: IntoIterator<Item = EventType>>(present: I, n_types: usize) -> Self {
        let mut v = Self::empty(n_types);
        for ty in present {
            v.set(ty, true);
        }
        v
    }

    /// `I(e)` for one event type. Types beyond the vector are absent.
    #[inline]
    pub fn get(&self, ty: EventType) -> bool {
        let i = ty.index();
        if i >= self.n_types {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set `I(e)` for one event type.
    #[inline]
    pub fn set(&mut self, ty: EventType, present: bool) {
        let i = ty.index();
        if i >= self.n_types {
            return;
        }
        let bit = 1u64 << (i % 64);
        if present {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// Flip `I(e)` for one event type, returning the new value.
    #[inline]
    pub fn flip(&mut self, ty: EventType) -> bool {
        let i = ty.index();
        if i >= self.n_types {
            return false;
        }
        let bit = 1u64 << (i % 64);
        self.words[i / 64] ^= bit;
        self.words[i / 64] & bit != 0
    }

    /// Number of event types tracked.
    #[inline]
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// Number of types present.
    pub fn count_present(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over the present types in id order.
    pub fn present_types(&self) -> impl Iterator<Item = EventType> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(EventType((w * 64) as u32 + b))
                }
            })
        })
    }

    /// True if every type in `types` is present (conjunction detection).
    /// For the hot path, precompile `types` into a [`TypeMask`] instead.
    pub fn all_present(&self, types: &[EventType]) -> bool {
        types.iter().all(|&t| self.get(t))
    }

    /// The presence bits expanded to one `bool` per type id (the legacy
    /// dense shape; allocates — not for hot paths).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.n_types)
            .map(|i| self.words[i / 64] & (1u64 << (i % 64)) != 0)
            .collect()
    }

    /// The packed presence words, least-significant type first. Bits at
    /// positions `>= n_types` are guaranteed zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Word `w` of the packed representation, or 0 out of range.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// XOR `mask` into word `w` — the word-parallel randomized-response
    /// primitive. Bits of `mask` beyond `n_types` are ignored, preserving
    /// the zero-tail invariant; out-of-range `w` is a no-op.
    #[inline]
    pub fn xor_word(&mut self, w: usize, mask: u64) {
        if w < self.words.len() {
            self.words[w] ^= mask & tail_mask(w, self.n_types);
        }
    }

    /// Clear every bit (reuse an allocation instead of building a fresh
    /// vector).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// OR every bit of `other` into `self` — the population-level merge of
    /// per-shard views of the same window ("present anywhere"). Widths must
    /// match; word-parallel, no allocation.
    #[inline]
    pub fn union_with(&mut self, other: &IndicatorVector) {
        debug_assert_eq!(self.n_types, other.n_types, "union over one universe");
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine |= theirs;
        }
    }
}

/// A precompiled set of event types over a fixed universe, bit-packed the
/// same way as [`IndicatorVector`]. Built once at setup from a pattern's
/// distinct types; [`TypeMask::matches`] is then a branch-free word-level
/// subset test — the hot-path form of conjunction matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeMask {
    n_types: usize,
    words: Vec<u64>,
    /// Set when the source types included one outside the universe. Such
    /// a conjunct can never be present in a window of this width, so the
    /// whole conjunction is unsatisfiable — [`TypeMask::matches`] is
    /// constantly false, exactly like testing each type through
    /// [`IndicatorVector::get`] (which clamps out-of-range reads to
    /// absent).
    impossible: bool,
}

impl TypeMask {
    /// Compile a set of types into a mask over a universe of `n_types`.
    /// A type outside the universe makes the mask unsatisfiable (it
    /// matches no window), preserving the naive-conjunction semantics of
    /// checking every type via [`IndicatorVector::get`]; use
    /// [`TypeMask::covers`] to detect that case up front.
    pub fn from_types<I: IntoIterator<Item = EventType>>(types: I, n_types: usize) -> Self {
        let mut words = vec![0u64; words_for(n_types)];
        let mut impossible = false;
        for ty in types {
            let i = ty.index();
            if i < n_types {
                words[i / 64] |= 1u64 << (i % 64);
            } else {
                impossible = true;
            }
        }
        TypeMask {
            n_types,
            words,
            impossible,
        }
    }

    /// True if every type in `types` fits the universe (the resulting
    /// mask is satisfiable).
    pub fn covers<I: IntoIterator<Item = EventType>>(types: I, n_types: usize) -> bool {
        types.into_iter().all(|t| t.index() < n_types)
    }

    /// True iff every type in the mask is present in `window`: the
    /// word-parallel subset test `mask & window == mask`. Constantly
    /// false for an unsatisfiable mask (see [`TypeMask::from_types`]).
    #[inline]
    pub fn matches(&self, window: &IndicatorVector) -> bool {
        debug_assert_eq!(self.n_types, window.n_types(), "mask/window width");
        !self.impossible
            && self
                .words
                .iter()
                .enumerate()
                .all(|(w, &m)| m & window.word(w) == m)
    }

    /// Number of event types in the universe.
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// Number of in-universe types in the mask.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the mask selects no types (and therefore matches every
    /// window — the vacuous conjunction). Unsatisfiable masks are not
    /// empty: they match nothing.
    pub fn is_empty(&self) -> bool {
        !self.impossible && self.words.iter().all(|&w| w == 0)
    }

    /// True if the mask can never match (a source type lay outside the
    /// universe).
    pub fn is_impossible(&self) -> bool {
        self.impossible
    }

    /// The packed mask words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The per-window indicator history of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedIndicators {
    n_types: usize,
    windows: Vec<IndicatorVector>,
}

impl WindowedIndicators {
    /// Build from explicit per-window vectors (they must agree on width).
    pub fn new(windows: Vec<IndicatorVector>) -> Self {
        let n_types = windows.first().map(IndicatorVector::n_types).unwrap_or(0);
        debug_assert!(
            windows.iter().all(|w| w.n_types() == n_types),
            "all windows must track the same number of event types"
        );
        WindowedIndicators { n_types, windows }
    }

    /// Build by windowing an event stream.
    pub fn from_stream(stream: &EventStream, assigner: &WindowAssigner, n_types: usize) -> Self {
        let windows = assigner
            .assign(stream)
            .into_iter()
            .map(|(_, events)| IndicatorVector::from_events(&events, n_types))
            .collect();
        WindowedIndicators { n_types, windows }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True if there are no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Number of event types tracked per window.
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// Borrow one window's vector.
    pub fn window(&self, i: usize) -> &IndicatorVector {
        &self.windows[i]
    }

    /// Iterate over windows in order.
    pub fn iter(&self) -> std::slice::Iter<'_, IndicatorVector> {
        self.windows.iter()
    }

    /// Iterate mutably over windows in order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, IndicatorVector> {
        self.windows.iter_mut()
    }

    /// Reconstruct a minimal event stream reproducing these indicators
    /// under tumbling windows of `len` anchored at `t = 0`: one event per
    /// present `(window, type)` pair, placed at its window's start. Empty
    /// windows produce no events, so a replay driver must pin the stream's
    /// boundaries itself (e.g. with watermarks) to recover leading/trailing
    /// empties.
    ///
    /// This is the bridge from the batch evaluation artifacts (windowed
    /// indicator histories) to the push-based service path.
    pub fn to_events(&self, len: crate::time::TimeDelta) -> EventStream {
        let mut events = Vec::new();
        for (w, window) in self.windows.iter().enumerate() {
            let ts = crate::time::Timestamp::from_millis(w as i64 * len.millis());
            for ty in window.present_types() {
                events.push(Event::new(ty, ts));
            }
        }
        EventStream::from_ordered(events)
            .expect("window-ordered reconstruction is temporally ordered")
    }

    /// Fraction of windows in which `ty` is present (its empirical
    /// occurrence rate — the `Pr(e_i)` of Algorithm 2).
    pub fn occurrence_rate(&self, ty: EventType) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let hits = self.windows.iter().filter(|w| w.get(ty)).count();
        hits as f64 / self.windows.len() as f64
    }
}

impl<'a> IntoIterator for &'a WindowedIndicators {
    type Item = &'a IndicatorVector;
    type IntoIter = std::slice::Iter<'a, IndicatorVector>;
    fn into_iter(self) -> Self::IntoIter {
        self.windows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{TimeDelta, Timestamp};
    use proptest::prelude::*;

    #[test]
    fn union_with_is_bitwise_or() {
        let mut a = IndicatorVector::from_present([EventType(0), EventType(70)], 130);
        let b = IndicatorVector::from_present([EventType(0), EventType(5), EventType(129)], 130);
        a.union_with(&b);
        for ty in [0u32, 5, 70, 129] {
            assert!(a.get(EventType(ty)), "type {ty}");
        }
        assert!(!a.get(EventType(1)));
        assert_eq!(a.count_present(), 4);
    }

    fn e(ty: u32, ms: i64) -> Event {
        Event::new(EventType(ty), Timestamp::from_millis(ms))
    }

    #[test]
    fn from_events_sets_presence_once() {
        let v = IndicatorVector::from_events(&[e(1, 0), e(1, 1), e(3, 2)], 5);
        assert!(!v.get(EventType(0)));
        assert!(v.get(EventType(1)));
        assert!(v.get(EventType(3)));
        assert_eq!(v.count_present(), 2);
    }

    #[test]
    fn out_of_range_types_ignored() {
        let mut v = IndicatorVector::from_events(&[e(9, 0)], 3);
        assert_eq!(v.count_present(), 0);
        assert!(!v.get(EventType(9)));
        v.set(EventType(9), true);
        assert_eq!(v.count_present(), 0);
        assert!(!v.flip(EventType(9)));
    }

    #[test]
    fn flip_toggles() {
        let mut v = IndicatorVector::empty(2);
        assert!(v.flip(EventType(0)));
        assert!(!v.flip(EventType(0)));
        assert!(!v.get(EventType(0)));
    }

    #[test]
    fn all_present_conjunction() {
        let v = IndicatorVector::from_present([EventType(0), EventType(2)], 4);
        assert!(v.all_present(&[EventType(0)]));
        assert!(v.all_present(&[EventType(0), EventType(2)]));
        assert!(!v.all_present(&[EventType(0), EventType(1)]));
        assert!(v.all_present(&[])); // vacuous truth
    }

    #[test]
    fn present_types_in_id_order() {
        let v = IndicatorVector::from_present([EventType(3), EventType(1)], 5);
        let tys: Vec<u32> = v.present_types().map(|t| t.0).collect();
        assert_eq!(tys, [1, 3]);
    }

    #[test]
    fn wide_universes_span_words() {
        let present = [EventType(0), EventType(63), EventType(64), EventType(130)];
        let v = IndicatorVector::from_present(present, 131);
        assert_eq!(v.words().len(), 3);
        assert_eq!(v.count_present(), 4);
        let tys: Vec<u32> = v.present_types().map(|t| t.0).collect();
        assert_eq!(tys, [0, 63, 64, 130]);
        assert!(v.get(EventType(130)));
        assert!(!v.get(EventType(129)));
    }

    #[test]
    fn xor_word_respects_tail_invariant() {
        let mut v = IndicatorVector::empty(5);
        v.xor_word(0, u64::MAX);
        assert_eq!(v.count_present(), 5, "bits beyond n_types stay zero");
        assert_eq!(v.word(0), 0b11111);
        v.xor_word(0, 0b101);
        assert_eq!(v.word(0), 0b11010);
        v.xor_word(7, u64::MAX); // out of range: no-op
        assert_eq!(v.count_present(), 3);
    }

    #[test]
    fn clear_reuses_allocation() {
        let mut v = IndicatorVector::from_present([EventType(1)], 70);
        v.clear();
        assert_eq!(v.count_present(), 0);
        assert_eq!(v, IndicatorVector::empty(70));
    }

    #[test]
    fn type_mask_subset_test() {
        let mask = TypeMask::from_types([EventType(0), EventType(2)], 4);
        assert_eq!(mask.count(), 2);
        assert!(!mask.is_empty());
        let mut w = IndicatorVector::empty(4);
        assert!(!mask.matches(&w));
        w.set(EventType(0), true);
        assert!(!mask.matches(&w));
        w.set(EventType(2), true);
        assert!(mask.matches(&w));
        w.set(EventType(3), true); // superset still matches
        assert!(mask.matches(&w));
        // the empty mask matches everything (vacuous conjunction)
        assert!(TypeMask::from_types([], 4).matches(&IndicatorVector::empty(4)));
    }

    #[test]
    fn type_mask_with_out_of_universe_type_matches_nothing() {
        assert!(!TypeMask::covers([EventType(9)], 4));
        assert!(TypeMask::covers([EventType(3)], 4));
        // an out-of-universe conjunct can never be satisfied: the mask
        // must match nothing (same as testing the type via `get`), not
        // degrade to a vacuous always-true mask
        let mask = TypeMask::from_types([EventType(9)], 4);
        assert!(mask.is_impossible());
        assert!(!mask.is_empty());
        let mut full = IndicatorVector::empty(4);
        full.xor_word(0, u64::MAX);
        assert!(!mask.matches(&full));
        // mixed in/out-of-universe is impossible too
        let mixed = TypeMask::from_types([EventType(1), EventType(9)], 4);
        assert!(mixed.is_impossible());
        assert!(!mixed.matches(&full));
    }

    #[test]
    fn windowed_from_stream() {
        let s = EventStream::from_unordered(vec![e(0, 1), e(1, 5), e(0, 12), e(2, 25)]);
        let a = WindowAssigner::tumbling(TimeDelta::from_millis(10)).unwrap();
        let wi = WindowedIndicators::from_stream(&s, &a, 3);
        assert_eq!(wi.len(), 3);
        assert!(wi.window(0).get(EventType(0)));
        assert!(wi.window(0).get(EventType(1)));
        assert!(wi.window(1).get(EventType(0)));
        assert!(!wi.window(1).get(EventType(1)));
        assert!(wi.window(2).get(EventType(2)));
    }

    #[test]
    fn to_events_round_trips_through_windowing() {
        let wi = WindowedIndicators::new(vec![
            IndicatorVector::from_present([EventType(0), EventType(2)], 3),
            IndicatorVector::empty(3),
            IndicatorVector::from_present([EventType(1)], 3),
        ]);
        let len = TimeDelta::from_millis(50);
        let events = wi.to_events(len);
        assert_eq!(events.len(), 3);
        assert_eq!(events.events()[0].ts, Timestamp::ZERO);
        assert_eq!(events.events()[2].ts, Timestamp::from_millis(100));
        let a = WindowAssigner::tumbling(len).unwrap();
        let back = WindowedIndicators::from_stream(&events, &a, 3);
        assert_eq!(back, wi);
    }

    #[test]
    fn occurrence_rate_counts_windows() {
        let w0 = IndicatorVector::from_present([EventType(0)], 2);
        let w1 = IndicatorVector::from_present([EventType(0), EventType(1)], 2);
        let w2 = IndicatorVector::empty(2);
        let wi = WindowedIndicators::new(vec![w0, w1, w2]);
        assert!((wi.occurrence_rate(EventType(0)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((wi.occurrence_rate(EventType(1)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            WindowedIndicators::new(vec![]).occurrence_rate(EventType(0)),
            0.0
        );
    }

    proptest! {
        #[test]
        fn count_present_matches_iterator(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
            let types: Vec<EventType> = bits.iter().enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| EventType(i as u32))
                .collect();
            let v = IndicatorVector::from_present(types.iter().copied(), bits.len());
            prop_assert_eq!(v.count_present(), types.len());
            prop_assert_eq!(v.present_types().count(), types.len());
        }

        /// Model-based equivalence with the legacy `Vec<bool>`
        /// representation: any interleaving of get/set/flip over any
        /// (possibly out-of-range) types behaves identically, and the
        /// derived views (count, iteration, bools, subset tests) agree
        /// with the model at the end.
        #[test]
        fn packed_vector_matches_bool_model(
            n_types in 0usize..150,
            ops in proptest::collection::vec((0u32..160, 0u8..3, any::<bool>()), 0..80),
        ) {
            let mut packed = IndicatorVector::empty(n_types);
            let mut model = vec![false; n_types];
            for (ty, op, arg) in ops {
                let t = EventType(ty);
                let i = ty as usize;
                match op {
                    0 => {
                        let got = packed.get(t);
                        let want = model.get(i).copied().unwrap_or(false);
                        prop_assert_eq!(got, want);
                    }
                    1 => {
                        packed.set(t, arg);
                        if let Some(slot) = model.get_mut(i) { *slot = arg; }
                    }
                    _ => {
                        let got = packed.flip(t);
                        let want = match model.get_mut(i) {
                            Some(slot) => { *slot = !*slot; *slot }
                            None => false,
                        };
                        prop_assert_eq!(got, want);
                    }
                }
            }
            prop_assert_eq!(packed.to_bools(), model.clone());
            prop_assert_eq!(
                packed.count_present(),
                model.iter().filter(|&&b| b).count()
            );
            let present: Vec<usize> =
                packed.present_types().map(|t| t.index()).collect();
            let want_present: Vec<usize> = model.iter().enumerate()
                .filter(|(_, &b)| b).map(|(i, _)| i).collect();
            prop_assert_eq!(present, want_present);
            // round-trip through from_present preserves equality
            let rebuilt = IndicatorVector::from_present(packed.present_types(), n_types);
            prop_assert_eq!(&rebuilt, &packed);
        }

        /// `TypeMask::matches` agrees with the naive all-types-present
        /// check for arbitrary masks and windows — including types
        /// outside the universe, which make both sides constantly false.
        #[test]
        fn type_mask_matches_naive_conjunction(
            n_types in 1usize..150,
            mask_types in proptest::collection::vec(0u32..160, 0..10),
            present in proptest::collection::vec(0u32..160, 0..40),
        ) {
            let types: Vec<EventType> =
                mask_types.into_iter().map(EventType).collect();
            let mask = TypeMask::from_types(types.iter().copied(), n_types);
            let window = IndicatorVector::from_present(
                present.into_iter().map(EventType), n_types);
            prop_assert_eq!(mask.matches(&window), window.all_present(&types));
        }
    }
}
