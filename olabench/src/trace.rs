//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark around its calls into each layer of
//! the library; nothing inside the library is instrumented. Every span
//! records its name, parent and start/end, and belongs to one op. Records
//! stay in memory until [`finish`] folds them into per-layer self times
//! and per-op coverage at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One closed span. Root spans (one per op) have parent 0; every other
/// span descends from exactly one root, which identifies its op.
#[derive(Clone, Debug)]
struct SpanRecord {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// Root span of the op in flight, inherited by spans opened on worker
    /// threads whose own stack is empty.
    current_root: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        current_root: AtomicU64::new(0),
        records: Mutex::new(Vec::new()),
    });
}

/// An open span; closing happens on drop. A no-op when tracing is off.
pub struct Span {
    /// `(id, parent, name, start_ns)`.
    open: Option<(u64, u64, &'static str, u64)>,
}

fn now_ns(t: &Tracer) -> u64 {
    u64::try_from(t.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn open(name: &'static str, root: bool) -> Span {
    let Some(t) = TRACER.get() else { return Span { open: None } };
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = if root {
        0
    } else {
        STACK
            .with(|s| s.borrow().last().copied())
            .unwrap_or_else(|| t.current_root.load(Ordering::SeqCst))
    };
    if root {
        t.current_root.store(id, Ordering::SeqCst);
    }
    STACK.with(|s| s.borrow_mut().push(id));
    Span { open: Some((id, parent, name, now_ns(t))) }
}

/// Opens the root span of an op on the calling thread.
pub fn op() -> Span {
    open("op", true)
}

/// Opens a layer span under the innermost open span of this thread, or
/// under the op in flight when called from a worker thread.
pub fn span(name: &'static str) -> Span {
    open(name, false)
}

/// Runs `f` inside a layer span.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let (Some((id, parent, name, start_ns)), Some(t)) = (self.open.take(), TRACER.get()) else {
            return;
        };
        let end_ns = now_ns(t);
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.truncate(pos);
            }
        });
        t.records.lock().unwrap_or_else(PoisonError::into_inner).push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }
}

/// What the spans of a run add up to.
#[derive(Debug, Default)]
pub struct Profile {
    /// Self time per layer name, in seconds (summed over threads).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Time of each op not covered by any layer span, in seconds.
    pub glue_s: f64,
    /// Per-op share of the op's wall time covered by layer spans.
    pub coverage: Vec<f64>,
    /// Spans recorded.
    pub spans: usize,
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Drains the recorder and computes self times and coverage. A layer's
/// self time is its duration minus the union of its children's intervals;
/// an op's coverage is the union of its top-level layer spans over the
/// op's wall time.
pub fn finish() -> Profile {
    let Some(t) = TRACER.get() else { return Profile::default() };
    let records = std::mem::take(&mut *t.records.lock().unwrap_or_else(PoisonError::into_inner));
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in &records {
        children.entry(r.parent).or_default().push((r.start_ns, r.end_ns));
    }
    let mut profile = Profile { spans: records.len(), ..Profile::default() };
    for r in &records {
        let wall = r.end_ns - r.start_ns;
        let covered = children.get(&r.id).map_or(0, |c| union_ns(c.clone()));
        let own = wall.saturating_sub(covered) as f64 * 1e-9;
        if r.parent == 0 {
            profile.glue_s += own;
            profile.coverage.push(covered as f64 / wall.max(1) as f64);
        } else {
            *profile.self_s.entry(r.name).or_default() += own;
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::union_ns;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(3, 4), (0, 10)]), 10);
    }
}
