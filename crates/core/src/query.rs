//! Composite queries over microclassifier outputs.
//!
//! The paper motivates these directly: "combined with a simple traffic
//! light classifier, a user could craft composite queries to detect
//! jaywalkers" (§4.1). A [`Query`] is a boolean expression over the
//! per-frame smoothed decisions of deployed MCs; evaluated per frame, it
//! yields a derived label stream that segments into events exactly like a
//! single MC's output — without running any additional network: composite
//! semantics ride on the same shared computation.

use serde::{Deserialize, Serialize};

use crate::events::McId;
use crate::pipeline::FrameVerdict;

/// A boolean expression over MC verdicts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Query {
    /// True when the MC matched the frame.
    Mc(McId),
    /// Logical AND.
    And(Box<Query>, Box<Query>),
    /// Logical OR.
    Or(Box<Query>, Box<Query>),
    /// Logical NOT.
    Not(Box<Query>),
}

impl Query {
    /// Leaf: the MC with this id matched.
    pub fn mc(id: McId) -> Query {
        Query::Mc(id)
    }

    /// `self AND other`.
    pub fn and(self, other: Query) -> Query {
        Query::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Query) -> Query {
        Query::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Query {
        Query::Not(Box::new(self))
    }

    /// Evaluates against one finalized frame.
    pub fn matches(&self, verdict: &FrameVerdict) -> bool {
        match self {
            Query::Mc(id) => verdict.metadata.event_for(*id).is_some(),
            Query::And(a, b) => a.matches(verdict) && b.matches(verdict),
            Query::Or(a, b) => a.matches(verdict) || b.matches(verdict),
            Query::Not(q) => !q.matches(verdict),
        }
    }

    /// Every MC the query references (deployment-time validation).
    pub fn referenced_mcs(&self) -> Vec<McId> {
        let mut out = Vec::new();
        self.collect_mcs(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_mcs(&self, out: &mut Vec<McId>) {
        match self {
            Query::Mc(id) => out.push(*id),
            Query::And(a, b) | Query::Or(a, b) => {
                a.collect_mcs(out);
                b.collect_mcs(out);
            }
            Query::Not(q) => q.collect_mcs(out),
        }
    }

    /// Evaluates against a bare set of matched event classes — the form
    /// event segments carry over the node↔hub wire, where no
    /// [`FrameVerdict`] exists ([`crate::hub::CloudHub`] subscriptions).
    pub fn matches_classes(&self, classes: &[McId]) -> bool {
        match self {
            Query::Mc(id) => classes.contains(id),
            Query::And(a, b) => a.matches_classes(classes) && b.matches_classes(classes),
            Query::Or(a, b) => a.matches_classes(classes) || b.matches_classes(classes),
            Query::Not(q) => !q.matches_classes(classes),
        }
    }

    /// Serializes to the compact wire form subscriptions travel in:
    /// `mc:ID`, `and(A,B)`, `or(A,B)`, `not(A)`.
    ///
    /// ```
    /// use ff_core::events::McId;
    /// use ff_core::query::Query;
    /// let q = Query::mc(McId(0)).and(Query::mc(McId(1)).not());
    /// assert_eq!(q.to_wire(), "and(mc:0,not(mc:1))");
    /// assert_eq!(Query::from_wire(&q.to_wire()).unwrap(), q);
    /// ```
    pub fn to_wire(&self) -> String {
        match self {
            Query::Mc(id) => format!("mc:{}", id.0),
            Query::And(a, b) => format!("and({},{})", a.to_wire(), b.to_wire()),
            Query::Or(a, b) => format!("or({},{})", a.to_wire(), b.to_wire()),
            Query::Not(q) => format!("not({})", q.to_wire()),
        }
    }

    /// Parses the wire form produced by [`Query::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`QueryParseError`] locating the first malformed byte,
    /// or [`QueryParseError::TooDeep`] when operators nest deeper than
    /// [`MAX_QUERY_DEPTH`] — the parser recurses once per level, so the cap
    /// bounds its stack use on untrusted input.
    pub fn from_wire(s: &str) -> Result<Query, QueryParseError> {
        let bytes = s.as_bytes();
        let mut at = 0;
        let q = parse_query(bytes, &mut at, 0)?;
        if at != bytes.len() {
            return Err(QueryParseError::TrailingInput { at });
        }
        Ok(q)
    }
}

/// Deepest operator nesting [`Query::from_wire`] accepts. Composite
/// subscriptions combine a handful of MCs; the cap exists so a hostile wire
/// string cannot exhaust the parsing thread's stack. At this depth the
/// recursive parser fits a 256 KiB thread stack even in an unoptimized
/// build (~2 KiB per level there; twice this depth does not fit).
pub const MAX_QUERY_DEPTH: usize = 64;

/// Why a wire-form query failed to parse ([`Query::from_wire`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryParseError {
    /// The input ended inside an expression.
    UnexpectedEnd,
    /// An unexpected byte where an operator or delimiter was required.
    UnexpectedChar {
        /// Byte offset of the offending character.
        at: usize,
        /// The character found.
        found: char,
    },
    /// An `mc:` leaf without a parseable id.
    BadId {
        /// Byte offset where the id should start.
        at: usize,
    },
    /// A complete expression followed by leftover input.
    TrailingInput {
        /// Byte offset of the first leftover byte.
        at: usize,
    },
    /// Operators nested deeper than [`MAX_QUERY_DEPTH`].
    TooDeep {
        /// Byte offset of the first expression past the cap.
        at: usize,
    },
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryParseError::UnexpectedEnd => write!(f, "query wire form ended unexpectedly"),
            QueryParseError::UnexpectedChar { at, found } => {
                write!(f, "unexpected {found:?} at byte {at} in query wire form")
            }
            QueryParseError::BadId { at } => {
                write!(f, "malformed MC id at byte {at} in query wire form")
            }
            QueryParseError::TrailingInput { at } => {
                write!(f, "trailing input at byte {at} after query wire form")
            }
            QueryParseError::TooDeep { at } => write!(
                f,
                "query nests deeper than {MAX_QUERY_DEPTH} operators at byte {at}"
            ),
        }
    }
}

impl std::error::Error for QueryParseError {}

fn expect(bytes: &[u8], at: &mut usize, lit: &str) -> Result<(), QueryParseError> {
    if bytes.len() < *at + lit.len() {
        return Err(QueryParseError::UnexpectedEnd);
    }
    if &bytes[*at..*at + lit.len()] != lit.as_bytes() {
        return Err(QueryParseError::UnexpectedChar {
            at: *at,
            found: bytes[*at] as char,
        });
    }
    *at += lit.len();
    Ok(())
}

fn parse_query(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Query, QueryParseError> {
    if depth > MAX_QUERY_DEPTH {
        return Err(QueryParseError::TooDeep { at: *at });
    }
    match bytes.get(*at) {
        None => Err(QueryParseError::UnexpectedEnd),
        Some(b'm') => {
            expect(bytes, at, "mc:")?;
            let start = *at;
            while bytes.get(*at).is_some_and(|b| b.is_ascii_digit()) {
                *at += 1;
            }
            let digits = std::str::from_utf8(&bytes[start..*at]).expect("ascii digits are utf-8");
            let id: usize = digits
                .parse()
                .map_err(|_| QueryParseError::BadId { at: start })?;
            Ok(Query::Mc(McId(id)))
        }
        Some(b'a') => {
            expect(bytes, at, "and(")?;
            let a = parse_query(bytes, at, depth + 1)?;
            expect(bytes, at, ",")?;
            let b = parse_query(bytes, at, depth + 1)?;
            expect(bytes, at, ")")?;
            Ok(a.and(b))
        }
        Some(b'o') => {
            expect(bytes, at, "or(")?;
            let a = parse_query(bytes, at, depth + 1)?;
            expect(bytes, at, ",")?;
            let b = parse_query(bytes, at, depth + 1)?;
            expect(bytes, at, ")")?;
            Ok(a.or(b))
        }
        Some(b'n') => {
            expect(bytes, at, "not(")?;
            let q = parse_query(bytes, at, depth + 1)?;
            expect(bytes, at, ")")?;
            Ok(q.not())
        }
        Some(&c) => Err(QueryParseError::UnexpectedChar {
            at: *at,
            found: c as char,
        }),
    }
}

/// Streams a query over finalized verdicts, segmenting matches into
/// composite events (monotonically increasing ids, like an MC's own
/// transition detector).
#[derive(Debug)]
pub struct QueryRunner {
    query: Query,
    detector: crate::events::TransitionDetector,
    /// Completed composite events.
    events: Vec<crate::events::EventRecord>,
    frames_seen: u64,
}

impl QueryRunner {
    /// Creates a runner. The synthetic MC id distinguishes composite
    /// events from per-MC ones in downstream metadata.
    pub fn new(query: Query, composite_id: McId) -> Self {
        QueryRunner {
            query,
            detector: crate::events::TransitionDetector::new(composite_id),
            events: Vec::new(),
            frames_seen: 0,
        }
    }

    /// The query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Feeds one finalized verdict; returns whether the composite matched.
    ///
    /// # Panics
    ///
    /// Panics if verdicts arrive out of frame order.
    pub fn push(&mut self, verdict: &FrameVerdict) -> bool {
        let m = self.query.matches(verdict);
        let (_, closed) = self.detector.push(verdict.frame, m);
        self.events.extend(closed);
        self.frames_seen = verdict.frame + 1;
        m
    }

    /// Closes any open composite event and returns all events.
    pub fn finish(mut self) -> Vec<crate::events::EventRecord> {
        if let Some(ev) = self.detector.finish(self.frames_seen) {
            self.events.push(ev);
        }
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventId, FrameMetadata};

    fn verdict(frame: u64, matched: &[usize]) -> FrameVerdict {
        let mut metadata = FrameMetadata::new();
        for &m in matched {
            metadata.insert(McId(m), EventId(0));
        }
        FrameVerdict {
            frame,
            metadata,
            uploaded_bytes: 0,
            closed_events: Vec::new(),
        }
    }

    #[test]
    fn boolean_semantics() {
        let q = Query::mc(McId(0)).and(Query::mc(McId(1)).not());
        assert!(q.matches(&verdict(0, &[0])));
        assert!(!q.matches(&verdict(0, &[0, 1])));
        assert!(!q.matches(&verdict(0, &[1])));
        assert!(!q.matches(&verdict(0, &[])));

        let q = Query::mc(McId(0)).or(Query::mc(McId(1)));
        assert!(q.matches(&verdict(0, &[1])));
        assert!(!q.matches(&verdict(0, &[2])));
    }

    #[test]
    fn referenced_mcs_deduped_sorted() {
        let q = Query::mc(McId(2))
            .and(Query::mc(McId(0)))
            .or(Query::mc(McId(2)).not());
        assert_eq!(q.referenced_mcs(), vec![McId(0), McId(2)]);
    }

    #[test]
    fn runner_segments_composite_events() {
        // "pedestrian AND car" — the hazard query.
        let q = Query::mc(McId(0)).and(Query::mc(McId(1)));
        let mut runner = QueryRunner::new(q, McId(100));
        let pattern: Vec<&[usize]> = vec![
            &[0],    // ped only
            &[0, 1], // both → event 0 opens
            &[0, 1], // continues
            &[1],    // car only → closes
            &[0, 1], // event 1
        ];
        for (i, mcs) in pattern.iter().enumerate() {
            runner.push(&verdict(i as u64, mcs));
        }
        let events = runner.finish();
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].start, events[0].end), (1, Some(3)));
        assert_eq!((events[1].start, events[1].end), (4, Some(5)));
        assert_eq!(events[0].mc, McId(100));
        assert!(events[1].id > events[0].id);
    }

    #[test]
    fn query_serializes() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(_: &T) {}
        let q = Query::mc(McId(0)).and(Query::mc(McId(1)).not());
        assert_serde(&q);
    }

    #[test]
    fn matches_classes_mirrors_frame_semantics() {
        let q = Query::mc(McId(0)).and(Query::mc(McId(1)).not());
        assert!(q.matches_classes(&[McId(0)]));
        assert!(!q.matches_classes(&[McId(0), McId(1)]));
        assert!(!q.matches_classes(&[]));
        let any = Query::mc(McId(2)).or(Query::mc(McId(5)));
        assert!(any.matches_classes(&[McId(5)]));
        assert!(!any.matches_classes(&[McId(3)]));
    }

    #[test]
    fn wire_round_trips_nested_queries() {
        let cases = vec![
            Query::mc(McId(0)),
            Query::mc(McId(42)).not(),
            Query::mc(McId(0)).and(Query::mc(McId(1))),
            Query::mc(McId(0))
                .or(Query::mc(McId(1)).and(Query::mc(McId(2)).not()))
                .not(),
            Query::mc(McId(7))
                .and(Query::mc(McId(8)))
                .or(Query::mc(McId(9)).and(Query::mc(McId(10)).not())),
        ];
        for q in cases {
            let wire = q.to_wire();
            let back = Query::from_wire(&wire).unwrap_or_else(|e| panic!("{wire}: {e}"));
            assert_eq!(back, q, "round trip through {wire}");
        }
    }

    #[test]
    fn wire_parse_errors_locate_the_fault() {
        assert_eq!(
            Query::from_wire("and(mc:0"),
            Err(QueryParseError::UnexpectedEnd)
        );
        assert_eq!(
            Query::from_wire("xor(mc:0,mc:1)"),
            Err(QueryParseError::UnexpectedChar { at: 0, found: 'x' })
        );
        assert_eq!(
            Query::from_wire("mc:"),
            Err(QueryParseError::BadId { at: 3 })
        );
        assert_eq!(
            Query::from_wire("mc:1,mc:2"),
            Err(QueryParseError::TrailingInput { at: 4 })
        );
        // Errors are typed and displayable, PR 6 convention.
        let err: Box<dyn std::error::Error> = Box::new(Query::from_wire("not()").unwrap_err());
        assert!(!err.to_string().is_empty());
    }

    fn nested_nots(levels: usize) -> String {
        format!("{}mc:0{}", "not(".repeat(levels), ")".repeat(levels))
    }

    #[test]
    fn deep_nesting_is_a_typed_error_within_a_small_stack() {
        // 50 000 nested `not(` used to overflow the stack and abort the
        // process. On a 256 KiB thread the parse must come back with an
        // error, never an abort.
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let deep = Query::from_wire(&nested_nots(50_000));
                let at_cap = Query::from_wire(&nested_nots(MAX_QUERY_DEPTH));
                (deep, at_cap.map(|q| q.to_wire()))
            })
            .expect("spawn parser thread")
            .join()
            .expect("parser thread returned");
        let (deep, at_cap) = parsed;
        assert_eq!(
            deep,
            Err(QueryParseError::TooDeep {
                at: 4 * (MAX_QUERY_DEPTH + 1)
            })
        );
        assert_eq!(at_cap, Ok(nested_nots(MAX_QUERY_DEPTH)));
        assert!(deep.unwrap_err().to_string().contains("deeper"));
    }
}
