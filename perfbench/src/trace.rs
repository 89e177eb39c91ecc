//! In-memory spans for traced runs.
//!
//! A span is a name, a start and end (nanoseconds since the run's epoch),
//! the span that caused it, and, for client ops, the `(client, request)`
//! key its retries share. Each thread records into its own [`Recorder`];
//! the recorders are merged when the run ends, checked for nesting, and
//! written out as JSON lines.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use obs::json::Json;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// What the interval covers (`op`, `propose`, `retry`, ...).
    pub name: &'static str,
    /// `(client, request)` for a client op and its attempts.
    pub key: Option<(u64, u64)>,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Ids are `thread << 40 | sequence`, so
/// recorders never coordinate.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread number `thread` of a run started at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Recorder {
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Records `[start, end]` under `id` (from [`Recorder::id`]).
    pub fn record(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        key: Option<(u64, u64)>,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns,
        });
    }

    /// Records a child span with a fresh id; returns the id.
    pub fn child(
        &mut self,
        parent: u64,
        name: &'static str,
        key: Option<(u64, u64)>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record(id, Some(parent), name, key, start, end);
        id
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Checks that every span lies inside its parent's interval, and that a
/// span carrying a client key hangs under the op with the same key.
///
/// # Errors
///
/// Describes the first violation found.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span ids".to_string());
    }
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        let Some(pid) = s.parent else {
            continue;
        };
        let Some(p) = by_id.get(&pid) else {
            return Err(format!("span {} ({}) has no parent {pid}", s.id, s.name));
        };
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                s.id, s.name, s.start_ns, s.end_ns, p.id, p.name, p.start_ns, p.end_ns
            ));
        }
        if s.key.is_some() && (p.name != "op" || p.key != s.key) {
            return Err(format!(
                "span {} ({}) keyed {:?} is not under its op (parent {} keyed {:?})",
                s.id, s.name, s.key, p.name, p.key
            ));
        }
    }
    Ok(())
}

/// Total self time per span name: each span's duration minus the time
/// its direct children cover (children of one parent never overlap here:
/// they are sequential steps of one thread).
#[must_use]
pub fn self_time_ns(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *covered.entry(p).or_insert(0) += s.duration_ns();
        }
    }
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        let own = s
            .duration_ns()
            .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Total duration per span name.
#[must_use]
pub fn total_time_ns(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.duration_ns();
    }
    out
}

/// Writes the spans as JSON lines, ordered by start.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in sorted {
        let mut fields = vec![
            ("id".to_string(), Json::num(s.id)),
            ("parent".to_string(), s.parent.map_or(Json::Null, Json::num)),
            ("name".to_string(), Json::str(s.name)),
            ("start_ns".to_string(), Json::num(s.start_ns)),
            ("end_ns".to_string(), Json::num(s.end_ns)),
        ];
        if let Some((c, r)) = s.key {
            fields.push((
                "key".to_string(),
                Json::Arr(vec![Json::num(c), Json::num(r)]),
            ));
        }
        writeln!(out, "{}", Json::Obj(fields).render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        key: Option<(u64, u64)>,
        s: u64,
        e: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            key,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn nesting_accepts_contained_children_and_rejects_escapes() {
        let op = span(1, None, "op", Some((1, 7)), 0, 100);
        let try1 = span(2, Some(1), "propose", Some((1, 7)), 0, 40);
        let wait = span(3, Some(1), "backoff", None, 40, 60);
        let try2 = span(4, Some(1), "retry", Some((1, 7)), 60, 100);
        let good = vec![op.clone(), try1.clone(), wait, try2.clone()];
        assert_eq!(check_nesting(&good), Ok(()));
        let selfs = self_time_ns(&good);
        assert_eq!(selfs["op"], 0);
        assert_eq!(selfs["retry"], 40);

        let escaped = vec![op.clone(), span(2, Some(1), "retry", Some((1, 7)), 50, 120)];
        assert!(check_nesting(&escaped).is_err());
        let wrong_key = vec![op.clone(), span(2, Some(1), "retry", Some((1, 8)), 10, 20)];
        assert!(check_nesting(&wrong_key).is_err());
        let orphan = vec![try1, try2];
        assert!(check_nesting(&orphan).is_err());
    }
}
