//! The obs metrics core under fire: concurrent hammering from `palmed-par`
//! worker threads must lose no update (atomics, not sampled estimates),
//! snapshots must render deterministically for fixed values, and a corpus
//! served over the wire shows up in the `obs` admin frame.
//!
//! These tests arm the global obs flag, so they live in their own
//! integration-test binary — the disabled-path guard runs as a separate
//! process (`obs_disabled.rs`).  Within the binary they serialize on
//! [`REGISTRY_LOCK`]: the metrics registry is process-global, so a
//! snapshot taken while another test hammers counters would see them move.

use palmed_core::ConjunctiveMapping;
use palmed_isa::{InstId, InstructionSet};
use palmed_obs::{Histogram, HISTOGRAM_BUCKETS};
use palmed_serve::{ModelArtifact, ModelRegistry};
use palmed_wire::{decode_frame, Connection, Decoded, Engine, Frame, Limits, WireStream};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes every test that hammers or snapshots the global registry.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const WORKERS: usize = 8;
const PER_WORKER: u64 = 10_000;

#[test]
fn concurrent_hammering_loses_no_update() {
    let _registry = registry_lock();
    palmed_obs::set_enabled(true);
    let counter = palmed_obs::counter("it.hammer.total");
    let histogram = palmed_obs::histogram("it.hammer.values");

    let workers: Vec<usize> = (0..WORKERS).collect();
    palmed_par::par_map(&workers, |_| {
        // Each worker resolves the same named metrics independently — the
        // registry must hand every thread the same underlying atomics.
        let counter = palmed_obs::counter("it.hammer.total");
        let histogram = palmed_obs::histogram("it.hammer.values");
        for v in 0..PER_WORKER {
            counter.inc();
            histogram.record(v);
        }
    });

    let total = WORKERS as u64 * PER_WORKER;
    assert_eq!(counter.get(), total, "every increment must land");
    let h = histogram.snapshot();
    assert_eq!(h.count, total, "every sample must land");
    assert_eq!(h.sum, WORKERS as u64 * (PER_WORKER * (PER_WORKER - 1) / 2));
    assert_eq!(h.max, PER_WORKER - 1);
    // Per-bucket counts are exact too: bucket i (i > 0) covers
    // 2^(i-1) ..= 2^i - 1, and every worker recorded 0..PER_WORKER once.
    assert_eq!(h.buckets[0], WORKERS as u64, "value 0 once per worker");
    for i in 1..HISTOGRAM_BUCKETS {
        let lo = Histogram::bucket_bound(i - 1) + 1;
        let hi = Histogram::bucket_bound(i);
        let in_range = hi.min(PER_WORKER - 1).saturating_sub(lo).wrapping_add(1);
        let expected = if lo >= PER_WORKER { 0 } else { WORKERS as u64 * in_range };
        assert_eq!(h.buckets[i], expected, "bucket {i} ({lo}..={hi})");
    }
}

#[test]
fn concurrent_cell_macros_count_exactly() {
    let _registry = registry_lock();
    palmed_obs::set_enabled(true);
    let workers: Vec<usize> = (0..WORKERS).collect();
    palmed_par::par_map(&workers, |_| {
        for _ in 0..PER_WORKER {
            palmed_obs::counter!("it.hammer.cell").inc();
        }
    });
    let snapshot = palmed_obs::snapshot();
    assert_eq!(snapshot.counter("it.hammer.cell"), Some(WORKERS as u64 * PER_WORKER));
}

#[test]
fn snapshots_render_deterministically() {
    let _registry = registry_lock();
    palmed_obs::set_enabled(true);
    palmed_obs::counter("it.render.b").add(2);
    palmed_obs::counter("it.render.a").add(1);
    palmed_obs::gauge("it.render.g").set(0.75);
    palmed_obs::histogram("it.render.h").record(1000);

    let one = palmed_obs::snapshot();
    let two = palmed_obs::snapshot();
    assert_eq!(one.render_prometheus(), two.render_prometheus());
    assert_eq!(one.render_json(), two.render_json());

    let prom = one.render_prometheus();
    let a = prom.find("it_render_a 1").expect("counter a renders");
    let b = prom.find("it_render_b 2").expect("counter b renders");
    assert!(a < b, "metrics render in name order, independent of registration order");
    assert!(prom.contains("# TYPE it_render_h histogram"));
    assert!(prom.contains("it_render_h_count 1"));
    let json = one.render_json();
    assert!(json.contains("\"it.render.g\":0.75"));
    assert!(json.contains("\"it.render.h\":{\"count\":1,\"sum\":1000,\"max\":1000"));
}

#[test]
fn spans_and_events_drain_in_sequence_order() {
    let _registry = registry_lock();
    palmed_obs::set_enabled(true);
    {
        let _span = palmed_obs::span("it.section");
        palmed_obs::event!("it.inner", step = 1u64);
    }
    palmed_obs::event!("it.after", step = 2u64);

    let (events, _dropped) = palmed_obs::drain_events();
    // Other tests in this binary may have emitted events concurrently;
    // filter down to ours, which still must appear in emission order.
    let ours: Vec<&palmed_obs::Event> =
        events.iter().filter(|e| e.name.starts_with("it.") || e.name == "span").collect();
    let inner = ours.iter().position(|e| e.name == "it.inner").expect("inner event drained");
    let span_end = ours
        .iter()
        .position(|e| {
            e.name == "span"
                && matches!(e.field("span"), Some(palmed_obs::FieldValue::Str(s)) if s == "it.section")
        })
        .expect("span completion event drained");
    let after = ours.iter().position(|e| e.name == "it.after").expect("after event drained");
    assert!(inner < span_end, "the inner event precedes the span close");
    assert!(span_end < after, "the span close precedes later events");

    let h = palmed_obs::snapshot();
    let span_hist = h.histogram("span.it.section").expect("span records its histogram");
    assert!(span_hist.count >= 1);

    let jsonl = palmed_obs::events_to_jsonl(&events);
    assert!(jsonl.contains("\"event\":\"it.inner\""));
    assert!(jsonl.contains("\"step\":1"));
}

/// An in-memory wire stream: the server reads `inbox` and writes `outbox`.
#[derive(Default)]
struct Loopback {
    inbox: Vec<u8>,
    outbox: Vec<u8>,
}

impl WireStream for Loopback {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.inbox.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.inbox.len());
        buf[..n].copy_from_slice(&self.inbox[..n]);
        self.inbox.drain(..n);
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.outbox.extend_from_slice(buf);
        Ok(buf.len())
    }
}

/// Sends `frames` through one pump of `conn` and returns the replies.
fn exchange(conn: &mut Connection, engine: &Engine, frames: &[Frame]) -> Vec<Frame> {
    let mut stream = Loopback::default();
    for frame in frames {
        stream.inbox.extend_from_slice(&frame.encode());
    }
    conn.pump(0, &mut stream, engine);
    let mut rest = stream.outbox.as_slice();
    let mut replies = Vec::new();
    while !rest.is_empty() {
        match decode_frame(rest, u32::MAX).expect("server frames decode") {
            Decoded::Frame { consumed, frame } => {
                replies.push(frame);
                rest = &rest[consumed..];
            }
            Decoded::NeedMore => panic!("truncated server output"),
        }
    }
    replies
}

/// `(parse_ns sample count, blocks counter)` read from an `obs` admin
/// reply's JSON body; absent metrics read as 0.
fn corpus_metrics(reply: &Frame) -> (u64, u64) {
    let Frame::AdminResponse { body, .. } = reply else {
        panic!("expected an admin response, got {reply:?}");
    };
    let number_after = |key: &str| {
        body.find(key).map_or(0, |at| {
            let digits: String =
                body[at + key.len()..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("a metric value")
        })
    };
    (
        number_after("\"serve.corpus.parse_ns\":{\"count\":"),
        number_after("\"serve.corpus.blocks\":"),
    )
}

#[test]
fn a_wire_request_shows_its_corpus_parse_in_the_obs_frame() {
    let _registry = registry_lock();
    palmed_obs::set_enabled(true);
    let mut mapping = ConjunctiveMapping::with_resources(1);
    mapping.set_usage(InstId(0), vec![0.5]);
    let registry = ModelRegistry::new();
    registry.register(ModelArtifact::new("skl", "obs-it", InstructionSet::paper_example(), mapping));
    let engine = Engine::new(Arc::new(registry));
    let mut conn = Connection::new(Limits::default(), 0);
    let obs = |req_id| Frame::AdminRequest { req_id, what: "obs".to_string() };

    let before = exchange(&mut conn, &engine, &[obs(1)]);
    let request = Frame::Request {
        req_id: 2,
        model: "skl".to_string(),
        corpus: "PALMED-CORPUS v1\nb0 1 DIVPS×1\nb1 2 ADDSS×3 DIVPS×1\nb2 1 JNLE×1\n".to_string(),
    };
    let after = exchange(&mut conn, &engine, &[request, obs(3)]);
    assert!(matches!(&after[0], Frame::Response { req_id: 2, rows } if rows.len() == 3));

    // Every test in this binary holds REGISTRY_LOCK and none other parses
    // a corpus, so the deltas are exact: one parse, three blocks.
    let (parses_before, blocks_before) = corpus_metrics(&before[0]);
    let (parses_after, blocks_after) = corpus_metrics(&after[1]);
    assert_eq!(parses_after - parses_before, 1);
    assert_eq!(blocks_after - blocks_before, 3);
}
