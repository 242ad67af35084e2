//! Per-request trace records and the fixed-size flight recorder.
//!
//! A [`Trace`] is the completed-request record the serve layer fills
//! in: where the request's wall-clock went (queue wait, execution),
//! what it cost (evaluated products, cache hits/misses, dominator memo
//! hits, dominance tests), and how it ended ([`Completion`], shed flag,
//! epoch). Traces are built *off* the result path — the serving code
//! measures with plain [`Instant`]s it already takes, assembles the
//! `Trace` after the reply is determined, and hands it to the recorder.
//!
//! The [`FlightRecorder`] keeps the last N completed traces in a
//! fixed-size ring. Writers claim a slot with one `fetch_add` on the
//! ring cursor — wait-free, no shared lock — then store the trace
//! under that slot's own mutex. Slots are allocated a chunk at a time,
//! when the first trace lands in the chunk, so a deep ring costs memory
//! in proportion to the traces it has held, not to its depth. Two
//! writers contend on a slot mutex only when one laps the other around
//! the whole ring (N writes apart), so in practice the slot lock is
//! always uncontended; readers
//! ([`FlightRecorder::dump`]) lock each slot briefly to clone. This is
//! "lock-free" in the operational sense that matters here — no global
//! lock, writers never wait on each other or on readers in the common
//! case — not in the formal sense of the whole store being lock-free.
//!
//! [`Instant`]: std::time::Instant

use crate::exec::Completion;
use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Monotonically increasing per-server request id, minted at ingress.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// The request classes latency histograms are keyed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum TraceClass {
    /// A query answered entirely from the dominance-aware result cache
    /// (zero misses).
    QueryCached,
    /// A query with at least one cache miss.
    QueryCold,
    /// A query shed at admission (queue full, zero deadline, or
    /// shutdown) — never executed.
    QueryShed,
    /// A competitor add/remove (writer path, publishes a new epoch).
    Mutation,
    /// A stats read.
    Stats,
}

impl TraceClass {
    /// Every class, in declaration order.
    pub const ALL: [TraceClass; 5] = [
        TraceClass::QueryCached,
        TraceClass::QueryCold,
        TraceClass::QueryShed,
        TraceClass::Mutation,
        TraceClass::Stats,
    ];

    /// Number of classes (histogram array length).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            TraceClass::QueryCached => "query_cached",
            TraceClass::QueryCold => "query_cold",
            TraceClass::QueryShed => "query_shed",
            TraceClass::Mutation => "mutation",
            TraceClass::Stats => "stats",
        }
    }

    /// Array slot of this class.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A completed request's trace: identity, outcome, kernel counters,
/// and the phase breakdown of its wall-clock time (nanoseconds).
#[derive(Clone, Debug)]
pub struct Trace {
    /// Ingress-minted id; also the total order of the flight recorder.
    pub id: TraceId,
    /// Request class (decides which histogram the latency lands in).
    pub class: TraceClass,
    /// Snapshot epoch the request ran against (0 for shed requests).
    pub epoch: u64,
    /// How the request ended; `Partial` carries the interrupt cause.
    pub completion: Completion,
    /// Whether the request was shed at admission.
    pub shed: bool,
    /// Products in the request.
    pub products: u64,
    /// Products fully evaluated (cache misses actually computed).
    pub evaluated: u64,
    /// Per-product answers served from the result cache.
    pub cache_hits: u64,
    /// Per-product answers that missed the cache.
    pub cache_misses: u64,
    /// This request's products whose dominator list came from the
    /// snapshot view's memo.
    pub memo_hits: u64,
    /// Point-vs-point dominance tests charged to this request.
    pub dominance_tests: u64,
    /// Time from ingress to worker pickup (or to the shed decision).
    pub queue_nanos: u64,
    /// Kernel execution time (cache lookup + probing/upgrade work).
    pub exec_nanos: u64,
    /// Ingress-to-reply wall clock.
    pub total_nanos: u64,
}

impl Trace {
    /// JSON record with exact integer fields and the completion cause
    /// spelled out.
    pub fn to_json(&self) -> Json {
        let (completion, cause) = match self.completion {
            Completion::Exact => ("exact", Json::Null),
            Completion::Partial(i) => ("partial", Json::Str(i.reason().into())),
        };
        Json::obj(vec![
            ("id", Json::Uint(self.id.0)),
            ("class", Json::Str(self.class.name().into())),
            ("epoch", Json::Uint(self.epoch)),
            ("completion", Json::Str(completion.into())),
            ("cause", cause),
            ("shed", Json::Bool(self.shed)),
            ("products", Json::Uint(self.products)),
            ("evaluated", Json::Uint(self.evaluated)),
            ("cache_hits", Json::Uint(self.cache_hits)),
            ("cache_misses", Json::Uint(self.cache_misses)),
            ("memo_hits", Json::Uint(self.memo_hits)),
            ("dominance_tests", Json::Uint(self.dominance_tests)),
            ("queue_ns", Json::Uint(self.queue_nanos)),
            ("exec_ns", Json::Uint(self.exec_nanos)),
            ("total_ns", Json::Uint(self.total_nanos)),
        ])
    }
}

/// Flight-recorder slots allocated together, on the first trace that
/// lands in one of them.
const SLOT_CHUNK: usize = 64;

type Slot = Mutex<Option<Trace>>;

/// A fixed-size ring of the last N completed traces.
///
/// Writers claim slots wait-free with a `fetch_add`; see the module
/// docs for the honest concurrency story.
pub struct FlightRecorder {
    /// `capacity` slots in chunks of [`SLOT_CHUNK`] (the last one may
    /// be shorter), each allocated on its first write.
    chunks: Vec<OnceLock<Box<[Slot]>>>,
    capacity: usize,
    next: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` traces (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            chunks: (0..capacity.div_ceil(SLOT_CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            capacity,
            next: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total traces ever recorded (not the current occupancy).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Stores `trace`, overwriting the oldest entry once the ring is
    /// full.
    pub fn record(&self, trace: Trace) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.capacity as u64) as usize;
        let (chunk, at) = (slot / SLOT_CHUNK, slot % SLOT_CHUNK);
        let len = SLOT_CHUNK.min(self.capacity - chunk * SLOT_CHUNK);
        let slots = self.chunks[chunk].get_or_init(|| (0..len).map(|_| Mutex::new(None)).collect());
        // Poisoning cannot happen here (no panic while holding the
        // lock), but telemetry must never take the server down, so a
        // poisoned slot is simply skipped.
        if let Ok(mut guard) = slots[at].lock() {
            *guard = Some(trace);
        }
    }

    /// The most recent `n` traces, newest first (by trace id — ids are
    /// minted at ingress, so this is arrival order, which under
    /// concurrent completion may differ slightly from completion
    /// order).
    pub fn dump(&self, n: usize) -> Vec<Trace> {
        let mut out: Vec<Trace> = self
            .chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|slots| slots.iter())
            .filter_map(|s| s.lock().ok().and_then(|g| g.clone()))
            .collect();
        out.sort_by_key(|t| std::cmp::Reverse(t.id));
        out.truncate(n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn trace(id: u64) -> Trace {
        Trace {
            id: TraceId(id),
            class: TraceClass::QueryCold,
            epoch: 1,
            completion: Completion::Exact,
            shed: false,
            products: 1,
            evaluated: 1,
            cache_hits: 0,
            cache_misses: 1,
            memo_hits: 0,
            dominance_tests: 10,
            queue_nanos: 100,
            exec_nanos: 1000,
            total_nanos: 1100,
        }
    }

    #[test]
    fn ring_keeps_last_n_newest_first() {
        let fr = FlightRecorder::new(4);
        for id in 0..10 {
            fr.record(trace(id));
        }
        assert_eq!(fr.recorded(), 10);
        let dumped = fr.dump(10);
        let ids: Vec<u64> = dumped.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![9, 8, 7, 6]);
        let ids: Vec<u64> = fr.dump(2).iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![9, 8]);
    }

    #[test]
    fn slots_are_allocated_only_where_traces_land() {
        let fr = FlightRecorder::new(3 * SLOT_CHUNK + 5);
        let live = |fr: &FlightRecorder| fr.chunks.iter().filter(|c| c.get().is_some()).count();
        assert_eq!(live(&fr), 0, "a fresh ring holds no slots");
        fr.record(trace(0));
        assert_eq!(live(&fr), 1);
        for id in 1..=(3 * SLOT_CHUNK as u64) {
            fr.record(trace(id));
        }
        assert_eq!(live(&fr), 4, "the short tail chunk is allocated too");
        // Wrapping around reuses the allocated slots.
        for id in 0..(4 * SLOT_CHUNK as u64) {
            fr.record(trace(1000 + id));
        }
        assert_eq!(live(&fr), 4);
        let ids: Vec<u64> = fr.dump(3).iter().map(|t| t.id.0).collect();
        let last = 1000 + 4 * SLOT_CHUNK as u64 - 1;
        assert_eq!(ids, vec![last, last - 1, last - 2]);
        assert_eq!(fr.dump(usize::MAX).len(), fr.capacity());
    }

    #[test]
    fn concurrent_writers_never_lose_the_newest() {
        let fr = Arc::new(FlightRecorder::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let fr = Arc::clone(&fr);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        fr.record(trace(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(fr.recorded(), 1000);
        let dumped = fr.dump(64);
        assert_eq!(dumped.len(), 64);
        // Newest-first and strictly decreasing ids.
        for w in dumped.windows(2) {
            assert!(w[0].id > w[1].id);
        }
    }

    #[test]
    fn trace_json_round_trips_the_interesting_fields() {
        use crate::exec::Interrupt;
        let mut t = trace(7);
        t.completion = Completion::Partial(Interrupt::DeadlineExceeded);
        t.total_nanos = (1u64 << 53) + 5; // exactness through Json::Uint
        let j = t.to_json();
        let parsed = crate::json::parse(&j.render()).unwrap();
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            parsed.get("class").and_then(Json::as_str),
            Some("query_cold")
        );
        assert_eq!(
            parsed.get("completion").and_then(Json::as_str),
            Some("partial")
        );
        assert_eq!(
            parsed.get("cause").and_then(Json::as_str),
            Some("deadline exceeded")
        );
        assert!(j
            .render()
            .contains(&format!("\"total_ns\":{}", t.total_nanos)));
    }

    #[test]
    fn class_names_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in TraceClass::ALL {
            assert!(seen.insert(c.name()));
            assert_eq!(TraceClass::ALL[c.index()], c);
        }
    }
}
