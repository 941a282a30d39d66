//! Span trees and their folds: self time, per-name totals, counter sums
//! and the share of a window no top-level span covers.
//!
//! Two sources feed the same [`Span`] type: the program's own virtual
//! clock event stream (`ds_trace`), rebuilt over the *full* span tree
//! by [`spans_from_events`], and the wall-clock spans the per-layer
//! driver records around each public call.

use dsp::trace::{full_name, Event, Payload};
use std::collections::BTreeMap;

/// One closed span on some timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn len(&self) -> f64 {
        self.end - self.start
    }
}

/// Why an event stream does not form a span tree.
#[derive(Clone, Debug, PartialEq)]
pub enum FoldError {
    /// An `End` arrived with no span open.
    EndWithoutBegin { stream: (u64, u32, u32), seq: u32 },
    /// An `End` closed a different span than the innermost open one.
    Mismatch {
        stream: (u64, u32, u32),
        open: String,
        closed: String,
    },
    /// The stream ended with spans still open.
    Unclosed {
        stream: (u64, u32, u32),
        open: Vec<String>,
    },
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::EndWithoutBegin { stream, seq } => {
                write!(f, "stream {stream:?}: end without begin at seq {seq}")
            }
            FoldError::Mismatch {
                stream,
                open,
                closed,
            } => write!(
                f,
                "stream {stream:?}: `{closed}` closed while `{open}` open"
            ),
            FoldError::Unclosed { stream, open } => {
                write!(f, "stream {stream:?}: spans left open: {open:?}")
            }
        }
    }
}

/// Rebuilds every span of a `ds_trace` event stream, nesting included.
/// Events are grouped per worker stream `(epoch, rank, tid)` and
/// replayed in append (`seq`) order; an unbalanced stream is an error,
/// never a silently wrong tree.
pub fn spans_from_events(events: &[Event]) -> Result<Vec<Span>, FoldError> {
    let mut streams: BTreeMap<(u64, u32, u32), Vec<&Event>> = BTreeMap::new();
    for e in events {
        streams.entry((e.epoch, e.rank, e.tid)).or_default().push(e);
    }
    let mut spans = Vec::new();
    for (stream, mut evs) in streams {
        evs.sort_by_key(|e| e.seq);
        // Open spans, innermost last: (index in `spans`, bare name).
        let mut open: Vec<(usize, &str)> = Vec::new();
        for e in evs {
            match &e.payload {
                Payload::Begin { label, name, .. } => {
                    spans.push(Span {
                        name: full_name(label, name),
                        start: e.t,
                        end: f64::NAN,
                        parent: open.last().map(|&(i, _)| i),
                    });
                    open.push((spans.len() - 1, name));
                }
                Payload::End { name } => {
                    let Some((i, open_name)) = open.pop() else {
                        return Err(FoldError::EndWithoutBegin { stream, seq: e.seq });
                    };
                    if open_name != *name {
                        return Err(FoldError::Mismatch {
                            stream,
                            open: spans[i].name.clone(),
                            closed: name.to_string(),
                        });
                    }
                    spans[i].end = e.t;
                }
                _ => {}
            }
        }
        if !open.is_empty() {
            return Err(FoldError::Unclosed {
                stream,
                open: open.iter().map(|&(i, _)| spans[i].name.clone()).collect(),
            });
        }
    }
    Ok(spans)
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its length minus the part of it that its
/// children cover (children clipped to the parent, overlaps counted
/// once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start.max(ps.start), s.end.min(ps.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.len() - union_len(c))
        .collect()
}

/// Per span name: (summed self time, count).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, (f64, u64)> {
    let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for (s, self_t) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name.clone()).or_default();
        t.0 += self_t;
        t.1 += 1;
    }
    out
}

/// Per counter `label.name`: (sum of values, number of samples).
pub fn counter_sums(events: &[Event]) -> BTreeMap<String, (f64, u64)> {
    let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for e in events {
        if let Payload::Counter { label, name, value } = &e.payload {
            let c = out.entry(full_name(label, name)).or_default();
            c.0 += value;
            c.1 += 1;
        }
    }
    out
}

/// Share of `window` that no top-level span (one without a parent)
/// covers.
pub fn unattributed_frac(spans: &[Span], window: (f64, f64)) -> f64 {
    let len = window.1 - window.0;
    if len <= 0.0 {
        return 0.0;
    }
    let covered = union_len(
        spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start.max(window.0), s.end.min(window.1)))
            .filter(|(a, b)| b > a)
            .collect(),
    );
    (len - covered) / len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u32, t: f64, payload: Payload) -> Event {
        Event {
            epoch: 0,
            t,
            rank: 0,
            tid: 1,
            seq,
            payload,
        }
    }

    fn begin(seq: u32, t: f64, name: &'static str) -> Event {
        ev(
            seq,
            t,
            Payload::Begin {
                label: "",
                name,
                arg: 0,
            },
        )
    }

    fn end(seq: u32, t: f64, name: &'static str) -> Event {
        ev(seq, t, Payload::End { name })
    }

    /// sampler [0,10] > sample [1,9] > { csp.shuffle [2,4] > comm [3,4],
    /// csp.sample [5,8] }.
    fn nested() -> Vec<Event> {
        vec![
            begin(0, 0.0, "sampler"),
            begin(1, 1.0, "sample"),
            begin(2, 2.0, "csp.shuffle"),
            begin(3, 3.0, "comm.a2a"),
            end(4, 4.0, "comm.a2a"),
            end(5, 4.0, "csp.shuffle"),
            begin(6, 5.0, "csp.sample"),
            end(7, 8.0, "csp.sample"),
            end(8, 9.0, "sample"),
            end(9, 10.0, "sampler"),
        ]
    }

    #[test]
    fn self_time_fold_over_nested_tree() {
        let mut events = nested();
        // Arrival order must not matter: the fold replays by seq.
        events.reverse();
        let spans = spans_from_events(&events).unwrap();
        let by = totals_by_name(&spans);
        // Depth 3 is reached: a depth-1-only fold would miss these.
        assert_eq!(by["comm.a2a"], (1.0, 1));
        assert_eq!(by["csp.shuffle"], (1.0, 1));
        assert_eq!(by["csp.sample"], (3.0, 1));
        // sample [1,9] = 8 minus children 2 + 3.
        assert_eq!(by["sample"], (3.0, 1));
        assert_eq!(by["sampler"], (2.0, 1));
        let comm = spans.iter().find(|s| s.name == "comm.a2a").unwrap();
        assert_eq!(spans[comm.parent.unwrap()].name, "csp.shuffle");
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            Span {
                name: "p".into(),
                start: 0.0,
                end: 10.0,
                parent: None,
            },
            Span {
                name: "a".into(),
                start: 1.0,
                end: 5.0,
                parent: Some(0),
            },
            Span {
                name: "b".into(),
                start: 3.0,
                end: 12.0,
                parent: Some(0),
            },
        ];
        // Children cover [1, 10] once the overhang is clipped.
        assert_eq!(self_times(&spans)[0], 1.0);
    }

    #[test]
    fn fold_rejects_unbalanced_streams() {
        // Found: a stream cut after a Begin (a worker that never closed
        // its span) must not fold into a tree.
        let mut cut = nested();
        cut.truncate(9);
        assert!(matches!(
            spans_from_events(&cut),
            Err(FoldError::Unclosed { ref open, .. }) if open == &["sampler".to_string()]
        ));
        // An End with nothing open.
        let stray = vec![end(0, 1.0, "sample")];
        assert!(matches!(
            spans_from_events(&stray),
            Err(FoldError::EndWithoutBegin { seq: 0, .. })
        ));
        // Crossed spans: `sample` closed while `csp.sample` is open.
        let crossed = vec![
            begin(0, 0.0, "sample"),
            begin(1, 1.0, "csp.sample"),
            end(2, 2.0, "sample"),
            end(3, 3.0, "csp.sample"),
        ];
        assert!(matches!(
            spans_from_events(&crossed),
            Err(FoldError::Mismatch { .. })
        ));
        // Proven: the balanced stream folds.
        assert!(spans_from_events(&nested()).is_ok());
    }

    #[test]
    fn unattributed_counts_gaps_between_top_level_spans() {
        let span = |start, end, parent| Span {
            name: "x".into(),
            start,
            end,
            parent,
        };
        // Window [0, 10]; top-level [1,3] and [2,6] cover [1,6]; the
        // child [7,9] of a span outside the window does not count.
        let spans = vec![
            span(1.0, 3.0, None),
            span(2.0, 6.0, None),
            span(7.0, 9.0, Some(0)),
        ];
        assert_eq!(unattributed_frac(&spans, (0.0, 10.0)), 0.5);
        assert_eq!(unattributed_frac(&[], (0.0, 4.0)), 1.0);
        assert_eq!(
            unattributed_frac(&[span(-1.0, 11.0, None)], (0.0, 10.0)),
            0.0
        );
    }

    #[test]
    fn counters_sum_by_full_name() {
        let c = |seq, label, name, value| ev(seq, 0.0, Payload::Counter { label, name, value });
        let sums = counter_sums(&[
            c(0, "q.feat", "wait_s", 0.5),
            c(1, "q.feat", "wait_s", 0.25),
            c(2, "comm", "round_s", 1e-6),
        ]);
        assert_eq!(sums["q.feat.wait_s"], (0.75, 2));
        assert_eq!(sums["comm.round_s"], (1e-6, 1));
    }
}
