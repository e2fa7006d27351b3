//! NFA execution for ordered sequence patterns.
//!
//! A `seq(e₁, …, eₘ)` pattern compiles to a linear NFA with `m + 1` states:
//! state `i` has a self-loop on any event (skip-till-any-match) and advances
//! to `i + 1` on `eᵢ₊₁`. Existence of an accepting run over a window is
//! equivalent to the pattern's elements occurring as a (not necessarily
//! contiguous) subsequence of the window's events.

use pdp_stream::EventType;

/// A compiled linear NFA for one sequence pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Nfa {
    /// The event type labelling the transition out of each state.
    steps: Vec<EventType>,
}

impl Nfa {
    /// Compile from a pattern's ordered elements.
    pub(crate) fn from_elements(elements: &[EventType]) -> Self {
        Nfa {
            steps: elements.to_vec(),
        }
    }

    /// Run over a window's event types (in temporal order); `true` if an
    /// accepting run exists.
    ///
    /// Because the NFA is linear with skip-self-loops, greedy earliest-match
    /// advancement is complete: if any accepting run exists, the greedy run
    /// accepts. This makes detection `O(window length)`.
    pub(crate) fn accepts<I>(&self, events: I) -> bool
    where
        I: IntoIterator<Item = EventType>,
    {
        let mut state = 0;
        if state == self.steps.len() {
            return true;
        }
        for ty in events {
            if ty == self.steps[state] {
                state += 1;
                if state == self.steps.len() {
                    return true;
                }
            }
        }
        false
    }

    /// The minimum time span of any complete match over timestamped
    /// events: `min(ts_last − ts_first)` across all subsequence matches,
    /// or `None` if no match exists.
    ///
    /// Uses the latest-feasible-start dynamic program: `dp[k]` holds the
    /// latest possible timestamp of a match's *first* element among all
    /// feasible prefixes of length `k + 1` seen so far. When an event
    /// completes the pattern, `ts − dp[m−1]` is the tightest span ending
    /// there. `O(n·m)` time, `O(m)` space.
    pub(crate) fn min_span(
        &self,
        events: &[(EventType, pdp_stream::Timestamp)],
    ) -> Option<pdp_stream::TimeDelta> {
        if self.steps.is_empty() {
            return Some(pdp_stream::TimeDelta::ZERO);
        }
        let m = self.steps.len();
        let mut dp: Vec<Option<pdp_stream::Timestamp>> = vec![None; m];
        let mut best: Option<pdp_stream::TimeDelta> = None;
        for &(ty, ts) in events {
            // walk states from the back so an event extends prefixes built
            // from strictly earlier events
            for k in (0..m).rev() {
                if ty != self.steps[k] {
                    continue;
                }
                let start = if k == 0 { Some(ts) } else { dp[k - 1] };
                let Some(start) = start else { continue };
                if k == m - 1 {
                    let span = ts - start;
                    if best.is_none_or(|b| span < b) {
                        best = Some(span);
                    }
                } else if dp[k].is_none_or(|cur| start > cur) {
                    dp[k] = Some(start);
                }
            }
        }
        best
    }

    /// The state reached after consuming `events` (for incremental
    /// detection across window fragments).
    pub(crate) fn advance(&self, state: usize, events: &[EventType]) -> usize {
        let mut s = state.min(self.steps.len());
        for &ty in events {
            if s == self.steps.len() {
                break;
            }
            if ty == self.steps[s] {
                s += 1;
            }
        }
        s
    }

    /// True if `state` is accepting.
    pub(crate) fn is_accepting(&self, state: usize) -> bool {
        state >= self.steps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    #[test]
    fn accepts_subsequences() {
        let nfa = Nfa::from_elements(&[t(0), t(1), t(2)]);
        assert!(nfa.accepts([t(0), t(1), t(2)]));
        assert!(nfa.accepts([t(9), t(0), t(9), t(1), t(9), t(2), t(9)]));
        assert!(!nfa.accepts([t(1), t(0), t(2)])); // order matters
        assert!(!nfa.accepts([t(0), t(1)])); // incomplete
        assert!(!nfa.accepts([]));
    }

    #[test]
    fn repeated_elements_need_repeated_occurrences() {
        let nfa = Nfa::from_elements(&[t(0), t(0)]);
        assert!(!nfa.accepts([t(0)]));
        assert!(nfa.accepts([t(0), t(0)]));
        assert!(nfa.accepts([t(0), t(5), t(0)]));
    }

    #[test]
    fn empty_nfa_accepts_everything() {
        let nfa = Nfa::from_elements(&[]);
        assert!(nfa.accepts([]));
        assert!(nfa.accepts([t(3)]));
    }

    #[test]
    fn advance_is_incremental() {
        let nfa = Nfa::from_elements(&[t(0), t(1), t(2)]);
        let s1 = nfa.advance(0, &[t(0), t(9)]);
        assert_eq!(s1, 1);
        let s2 = nfa.advance(s1, &[t(1)]);
        assert_eq!(s2, 2);
        assert!(!nfa.is_accepting(s2));
        let s3 = nfa.advance(s2, &[t(2), t(0)]);
        assert!(nfa.is_accepting(s3));
        // advancing past accept is stable
        assert_eq!(nfa.advance(s3, &[t(0)]), 3);
    }

    #[test]
    fn min_span_finds_tightest_match() {
        use pdp_stream::{TimeDelta, Timestamp};
        let nfa = Nfa::from_elements(&[t(0), t(1)]);
        let ms = |v: i64| Timestamp::from_millis(v);
        // matches: (0@0,1@9)=9, (0@5,1@9)=4, (0@5,1@20)=15 → min 4
        let events = [(t(0), ms(0)), (t(0), ms(5)), (t(1), ms(9)), (t(1), ms(20))];
        assert_eq!(nfa.min_span(&events), Some(TimeDelta::from_millis(4)));
        // no match
        assert_eq!(nfa.min_span(&[(t(1), ms(0)), (t(0), ms(1))]), None);
        // empty pattern: zero span
        assert_eq!(
            Nfa::from_elements(&[]).min_span(&events),
            Some(TimeDelta::ZERO)
        );
        // single element: zero span at any occurrence
        assert_eq!(
            Nfa::from_elements(&[t(1)]).min_span(&events),
            Some(TimeDelta::ZERO)
        );
    }

    #[test]
    fn min_span_does_not_reuse_one_event() {
        use pdp_stream::{TimeDelta, Timestamp};
        let nfa = Nfa::from_elements(&[t(0), t(0)]);
        let ms = |v: i64| Timestamp::from_millis(v);
        assert_eq!(nfa.min_span(&[(t(0), ms(3))]), None);
        assert_eq!(
            nfa.min_span(&[(t(0), ms(3)), (t(0), ms(8))]),
            Some(TimeDelta::from_millis(5))
        );
    }

    proptest! {
        #[test]
        fn min_span_matches_brute_force(
            pat in proptest::collection::vec(0u32..3, 1..4),
            win in proptest::collection::vec((0u32..3, 0i64..50), 0..14),
        ) {
            use pdp_stream::Timestamp;
            let mut win = win;
            win.sort_by_key(|&(_, ts)| ts);
            let nfa = Nfa::from_elements(&pat.iter().map(|&i| t(i)).collect::<Vec<_>>());
            let events: Vec<(EventType, Timestamp)> = win
                .iter()
                .map(|&(ty, ts)| (t(ty), Timestamp::from_millis(ts)))
                .collect();
            // brute force over all index combinations
            let n = events.len();
            let m = pat.len();
            let mut best: Option<i64> = None;
            let mut stack: Vec<usize> = Vec::new();
            fn recurse(
                events: &[(EventType, Timestamp)],
                pat: &[u32],
                from: usize,
                depth: usize,
                stack: &mut Vec<usize>,
                best: &mut Option<i64>,
            ) {
                if depth == pat.len() {
                    let span = events[*stack.last().unwrap()].1.millis()
                        - events[stack[0]].1.millis();
                    if best.is_none_or(|b| span < b) {
                        *best = Some(span);
                    }
                    return;
                }
                for i in from..events.len() {
                    if events[i].0 .0 == pat[depth] {
                        stack.push(i);
                        recurse(events, pat, i + 1, depth + 1, stack, best);
                        stack.pop();
                    }
                }
            }
            if m <= n {
                recurse(&events, &pat, 0, 0, &mut stack, &mut best);
            }
            let got = nfa.min_span(&events).map(|d| d.millis());
            prop_assert_eq!(got, best);
        }

        #[test]
        fn greedy_matches_naive_subsequence(
            pat in proptest::collection::vec(0u32..4, 1..5),
            win in proptest::collection::vec(0u32..4, 0..30),
        ) {
            let nfa = Nfa::from_elements(&pat.iter().map(|&i| t(i)).collect::<Vec<_>>());
            let events: Vec<EventType> = win.iter().map(|&i| t(i)).collect();
            // naive check: is `pat` a subsequence of `win`?
            let mut idx = 0;
            for &w in &win {
                if idx < pat.len() && w == pat[idx] {
                    idx += 1;
                }
            }
            let naive = idx == pat.len();
            prop_assert_eq!(nfa.accepts(events.iter().copied()), naive);
        }

        #[test]
        fn advance_composition_matches_single_run(
            pat in proptest::collection::vec(0u32..3, 1..4),
            a in proptest::collection::vec(0u32..3, 0..15),
            b in proptest::collection::vec(0u32..3, 0..15),
        ) {
            let nfa = Nfa::from_elements(&pat.iter().map(|&i| t(i)).collect::<Vec<_>>());
            let ea: Vec<EventType> = a.iter().map(|&i| t(i)).collect();
            let eb: Vec<EventType> = b.iter().map(|&i| t(i)).collect();
            let split = nfa.advance(nfa.advance(0, &ea), &eb);
            let mut joined = ea.clone();
            joined.extend(&eb);
            let whole = nfa.advance(0, &joined);
            prop_assert_eq!(split, whole);
        }
    }
}
