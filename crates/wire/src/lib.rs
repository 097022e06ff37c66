//! `palmed-wire`: the fault-hardened network front-end of the PALMED
//! serving plane — the `PALMED-WIRE v1` frame protocol, a per-connection
//! state machine with deadlines and backpressure, and a single-threaded
//! `epoll(7)` server over both, on a UNIX socket or loopback TCP.
//!
//! The in-process serving plane ([`palmed_serve`]) answers a batch of
//! basic blocks in microseconds; this crate puts that behind a socket
//! without giving up the artifact plane's robustness stance.  The design
//! is robustness-first: the frame codec, the connection lifecycle and the
//! fault model landed *together with* the fuzzing harness that drives
//! them (`fuzz_wire` in `palmed-fuzz`), before any performance work.  The
//! `epoll(7)` serve loop and the TCP listener landed after, under the same
//! fuzzing discipline.
//!
//! # Layers
//!
//! * [`frame`] — the byte grammar.  Length-prefixed binary frames with
//!   the same magic-line + little-endian sections + strided-FNV trailer
//!   discipline as the `v2b`/`DISJ` artifact codecs, built from the very
//!   same [`palmed_serve::codec`] primitives.  Requests carry
//!   `PALMED-CORPUS v1` workloads in; responses carry bit-exact IPC rows
//!   out; error frames carry a kebab-case class plus a byte offset; admin
//!   frames expose registry health and the metrics snapshot.
//! * [`conn`] — the state machine.  Partial-read/partial-write
//!   resumption, max-frame and max-in-flight caps with structured
//!   `server-busy` shedding, per-request receive deadlines, idle
//!   timeouts, write backpressure, poison-on-malformed-frame and
//!   drain-on-shutdown, all over an abstract [`conn::WireStream`] and a
//!   logical tick clock so every decision replays deterministically.
//! * [`sock`] (Linux) — the transport.  A `cfg`-gated extern-"C" shim
//!   (no new crates; the workspace builds offline) binding
//!   `socket`/`bind`/`listen`/`accept`/`recv`/`send`, a blocking
//!   single-threaded [`sock::WireServer`] (UNIX via [`sock::WireServer::bind`]
//!   or TCP via [`sock::WireServer::bind_tcp`]) that serves each ready
//!   connection through [`conn::Connection::pump`], and a test
//!   [`sock::WireClient`].
//! * [`epoll`] (Linux) — the readiness shim behind the serve loop: a
//!   kernel-side interest list so each wakeup pumps only the connections
//!   that are actually ready, plus a periodic sweep for their timeouts.
//!
//! # Threat model
//!
//! Frames are **untrusted input** — the artifact plane's stance applied
//! to the wire.  Decoding is a strict validate pass: every rejection is a
//! structured [`frame::WireError`] with a class and a byte offset, never
//! a panic, and rejection is eager (bad magic bytes and oversized length
//! declarations fail on the partial buffer, so a peer cannot make the
//! server buffer unbounded garbage).  The FNV trailer is *integrity*, not
//! provenance: a frame that decodes is well-formed, not authenticated —
//! exactly the decodability-not-provenance stance of the on-disk codecs.
//! Authenticity, where needed, stays with the signed fingerprint sidecars
//! on the artifact side; transport authentication is out of scope for
//! both listeners.  A UNIX socket is gated by filesystem permissions; a
//! TCP port is gated only by reachability, so the TCP listener widens
//! *exposure* without widening the per-connection fault model — the same
//! [`conn::Limits`], shedding, poisoning and deadlines apply, and
//! `TCP_NODELAY` is the only transport-level difference.  Bind loopback
//! or firewall accordingly.
//!
//! The epoll loop decides *when* connections are pumped (readiness-driven
//! plus a periodic timeout sweep), never *what* happens when they are: the
//! socket server and the fuzzer drive the same state machine with the
//! same tick clock.
//!
//! A malformed frame poisons its connection: one error frame goes out,
//! reading stops, buffered output drains, the socket closes.  The process
//! — and every other connection — is unaffected.  Resource exhaustion is
//! bounded per connection by [`conn::Limits`]: payload size, in-flight
//! requests, write backlog, receive deadlines and idle timeouts.
//!
//! # Proven, not claimed
//!
//! The `fuzz_wire` schedule fuzzer (in `palmed-fuzz`) drives this exact
//! code through scripted connection schedules — split/coalesced frames,
//! short reads and writes, stalls, mid-frame disconnects, floods past the
//! in-flight cap, registry swaps mid-connection, shutdown mid-burst —
//! asserting after every step that no panic escapes, every rejection is
//! structured, and every accepted request serves bit-identically to the
//! in-process [`BatchPredictor`](palmed_serve::BatchPredictor).

pub mod conn;
pub mod epoll;
pub mod frame;
pub mod sock;

pub use conn::{ConnState, Connection, Engine, Limits, WireStream};
pub use frame::{decode_frame, Decoded, Frame, WireError, MAGIC, NO_OFFSET};
#[cfg(target_os = "linux")]
pub use sock::{WireClient, WireServer};

#[cfg(test)]
mod tests {
    use super::*;
    use palmed_core::ConjunctiveMapping;
    use palmed_isa::{InstId, InstructionSet};
    use palmed_serve::{ModelArtifact, ModelRegistry};
    use std::io;
    use std::sync::Arc;

    fn artifact(machine: &str, usage: f64) -> ModelArtifact {
        let mut mapping = ConjunctiveMapping::with_resources(1);
        mapping.set_usage(InstId(0), vec![usage]);
        mapping.set_usage(InstId(2), vec![usage * 2.0]);
        ModelArtifact::new(machine, "wire-test", InstructionSet::paper_example(), mapping)
    }

    fn engine() -> Engine {
        let registry = ModelRegistry::new();
        registry.register(artifact("skl", 0.5));
        Engine::new(Arc::new(registry))
    }

    const CORPUS: &str = "PALMED-CORPUS v1\nb0 1 DIVPS×1\nb1 2 ADDSS×3 DIVPS×1\nb2 1 JNLE×1\n";

    /// An in-memory loopback: reads from `inbox`, writes to `outbox`.
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

    fn decode_all(bytes: &[u8]) -> Vec<Frame> {
        let mut rest = bytes.to_vec();
        let mut frames = Vec::new();
        while !rest.is_empty() {
            match decode_frame(&rest, u32::MAX).unwrap() {
                Decoded::Frame { consumed, frame } => {
                    frames.push(frame);
                    rest.drain(..consumed);
                }
                Decoded::NeedMore => panic!("truncated server output"),
            }
        }
        frames
    }

    fn expected_rows(corpus_text: &str) -> Vec<Option<f64>> {
        let art = artifact("skl", 0.5);
        let corpus =
            palmed_serve::Corpus::parse(corpus_text, &art.instructions).unwrap();
        palmed_serve::BatchPredictor::new(art.compile()).predict_corpus(&corpus).ipcs
    }

    #[test]
    fn a_request_serves_bit_identically_to_the_in_process_predictor() {
        let engine = engine();
        let mut conn = Connection::new(Limits::default(), 0);
        let inbox = Frame::Request {
            req_id: 42,
            model: "skl".to_string(),
            corpus: CORPUS.to_string(),
        }
        .encode();
        let mut stream = Loopback { inbox, ..Loopback::default() };

        conn.pump(0, &mut stream, &engine);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Response { req_id, rows } => {
                assert_eq!(*req_id, 42);
                let expected = expected_rows(CORPUS);
                assert_eq!(rows.len(), expected.len());
                for (got, want) in rows.iter().zip(&expected) {
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "wire rows must be bit-identical to in-process predictions"
                    );
                }
            }
            other => panic!("expected a response, got {other:?}"),
        }
        assert_eq!(conn.state(), ConnState::Open);
    }

    #[test]
    fn split_and_coalesced_frames_serve_the_same() {
        let engine = engine();
        let request = Frame::Request {
            req_id: 7,
            model: "skl".to_string(),
            corpus: CORPUS.to_string(),
        };
        let bytes = request.encode();

        // One byte per pump: the ultimate split-frame schedule.
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        for (tick, byte) in bytes.iter().enumerate() {
            stream.inbox.push(*byte);
            conn.pump(tick as u64, &mut stream, &engine);
        }
        let split_out = stream.outbox.clone();

        // Everything at once, twice over (two coalesced requests).
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        stream.inbox.extend_from_slice(&bytes);
        stream.inbox.extend_from_slice(&bytes);
        conn.pump(0, &mut stream, &engine);
        let coalesced = decode_all(&stream.outbox);

        assert_eq!(decode_all(&split_out).len(), 1);
        assert_eq!(coalesced.len(), 2);
        assert_eq!(coalesced[0], decode_all(&split_out)[0]);
        assert_eq!(coalesced[0], coalesced[1]);
    }

    #[test]
    fn unknown_models_and_bad_corpora_answer_structured_errors() {
        let engine = engine();
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        stream.inbox.extend_from_slice(
            &Frame::Request {
                req_id: 1,
                model: "zen".to_string(),
                corpus: CORPUS.to_string(),
            }
            .encode(),
        );
        stream.inbox.extend_from_slice(
            &Frame::Request {
                req_id: 2,
                model: "skl".to_string(),
                corpus: "PALMED-CORPUS v1\nb0 1 NOPE×1\n".to_string(),
            }
            .encode(),
        );
        conn.pump(0, &mut stream, &engine);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 2);
        match &frames[0] {
            Frame::Error { req_id, class, .. } => {
                assert_eq!((*req_id, class.as_str()), (1, "unknown-model"));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        match &frames[1] {
            Frame::Error { req_id, class, .. } => {
                assert_eq!((*req_id, class.as_str()), (2, "malformed-text"));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // Application-level errors do not poison the connection.
        assert_eq!(conn.state(), ConnState::Open);
    }

    #[test]
    fn a_malformed_frame_poisons_the_connection_with_an_offset() {
        let engine = engine();
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        let mut bytes = Frame::AdminRequest { req_id: 1, what: "health".to_string() }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // corrupt the trailer
        stream.inbox = bytes.clone();
        // Another (valid) frame behind the poison pill must NOT be served.
        stream
            .inbox
            .extend_from_slice(&Frame::AdminRequest { req_id: 2, what: "health".to_string() }.encode());

        conn.pump(0, &mut stream, &engine);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 1, "exactly the rejection, nothing after the poison");
        match &frames[0] {
            Frame::Error { req_id, class, offset, .. } => {
                assert_eq!(*req_id, 0, "undecodable frames are unattributable");
                assert_eq!(class, "checksum-mismatch");
                assert_eq!(*offset, Some((bytes.len() - frame::TRAILER_LEN) as u32));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(conn.is_closed(), "poisoned connection drains its error and closes");
    }

    #[test]
    fn flooding_past_the_in_flight_cap_sheds_with_server_busy() {
        let engine = engine();
        let limits = Limits { max_in_flight: 3, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let mut stream = Loopback::default();
        for req_id in 0..8u32 {
            stream.inbox.extend_from_slice(
                &Frame::AdminRequest { req_id, what: "health".to_string() }.encode(),
            );
        }
        conn.pump(0, &mut stream, &engine);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 8, "every request is answered, one way or the other");
        let shed: Vec<u32> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Error { req_id, class, .. } if class == "server-busy" => Some(*req_id),
                _ => None,
            })
            .collect();
        let served = frames.iter().filter(|f| matches!(f, Frame::AdminResponse { .. })).count();
        assert_eq!(shed, vec![3, 4, 5, 6, 7], "exactly the over-cap requests shed");
        assert_eq!(served, 3);
        assert_eq!(conn.state(), ConnState::Open, "shedding is not a failure");
    }

    #[test]
    fn oversized_frames_reject_at_the_length_field() {
        let engine = engine();
        let limits = Limits { max_payload: 64, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let inbox = Frame::Request {
            req_id: 9,
            model: "skl".to_string(),
            corpus: "x".repeat(500),
        }
        .encode();
        let mut stream = Loopback { inbox, ..Loopback::default() };
        conn.pump(0, &mut stream, &engine);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Error { class, offset, .. } => {
                assert_eq!(class, "frame-too-large");
                assert_eq!(*offset, Some(MAGIC.len() as u32 + 4));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(conn.is_closed());
    }

    #[test]
    fn partial_frames_hit_the_receive_deadline() {
        let engine = engine();
        let limits = Limits { frame_deadline_ticks: 10, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let mut stream = Loopback::default();
        let bytes = Frame::AdminRequest { req_id: 1, what: "obs".to_string() }.encode();
        stream.inbox = bytes[..5].to_vec(); // slow loris: a few bytes, then silence
        conn.pump(0, &mut stream, &engine);
        assert_eq!(conn.state(), ConnState::Open);
        conn.pump(5, &mut stream, &engine);
        assert_eq!(conn.state(), ConnState::Open, "deadline not yet passed");
        conn.pump(11, &mut stream, &engine);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 1);
        match &frames[0] {
            Frame::Error { class, .. } => assert_eq!(class, "deadline-exceeded"),
            other => panic!("expected an error, got {other:?}"),
        }
        assert!(conn.is_closed());
    }

    #[test]
    fn idle_connections_close_cleanly() {
        let engine = engine();
        let limits = Limits { idle_timeout_ticks: 100, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let mut stream = Loopback::default();
        conn.pump(0, &mut stream, &engine);
        conn.pump(100, &mut stream, &engine);
        assert_eq!(conn.state(), ConnState::Open);
        conn.pump(101, &mut stream, &engine);
        assert!(conn.is_closed());
        assert!(stream.outbox.is_empty(), "an idle close sends nothing");
    }

    #[test]
    fn connections_accepted_late_are_not_born_idle() {
        // Regression: the idle clock must start at the accept tick — a
        // server up longer than the idle window accepts at a large tick,
        // and its first pump must not judge the new connection idle.
        let engine = engine();
        let limits = Limits { idle_timeout_ticks: 100, ..Limits::default() };
        let mut conn = Connection::new(limits, 50_000);
        let inbox = Frame::AdminRequest { req_id: 1, what: "health".to_string() }.encode();
        let mut stream = Loopback { inbox, ..Loopback::default() };
        conn.pump(50_001, &mut stream, &engine);
        assert_eq!(conn.state(), ConnState::Open, "a fresh connection is not idle");
        assert_eq!(decode_all(&stream.outbox).len(), 1, "its first request is served");
    }

    /// A peer that sends but never reads: every write is `WouldBlock`.
    struct DeafStream {
        inbox: Vec<u8>,
    }

    impl WireStream for DeafStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.inbox.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.inbox.len());
            buf[..n].copy_from_slice(&self.inbox[..n]);
            self.inbox.drain(..n);
            Ok(n)
        }

        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    #[test]
    fn a_peer_that_never_reads_its_responses_is_closed() {
        // A full write backlog with no progress must not hold the
        // connection open forever — the stall is bounded by the idle
        // window, measured from the last byte-level progress.
        let engine = engine();
        let limits = Limits { idle_timeout_ticks: 100, ..Limits::default() };
        let mut conn = Connection::new(limits, 0);
        let inbox = Frame::AdminRequest { req_id: 1, what: "health".to_string() }.encode();
        let mut stream = DeafStream { inbox };
        conn.pump(0, &mut stream, &engine);
        assert!(conn.write_backlog() > 0, "the response is stuck in the backlog");
        conn.pump(100, &mut stream, &engine);
        assert_eq!(conn.state(), ConnState::Open, "stall window not yet passed");
        conn.pump(101, &mut stream, &engine);
        assert!(conn.is_closed(), "a stalled reader must not hold the connection");
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let engine = engine();
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        for req_id in 0..3u32 {
            stream.inbox.extend_from_slice(
                &Frame::Request {
                    req_id,
                    model: "skl".to_string(),
                    corpus: CORPUS.to_string(),
                }
                .encode(),
            );
        }
        // Receive but do not serve: fill only (no full pump) is not part
        // of the public surface, so pump once with everything queued and
        // drain immediately after — the requests decoded in that pump are
        // served before the close either way.
        conn.pump(0, &mut stream, &engine);
        conn.begin_drain();
        conn.pump(1, &mut stream, &engine);
        let frames = decode_all(&stream.outbox);
        assert_eq!(frames.len(), 3, "every received request is answered before closing");
        for (i, frame) in frames.iter().enumerate() {
            assert!(
                matches!(frame, Frame::Response { req_id, .. } if *req_id == i as u32),
                "response {i} out of order or missing: {frame:?}"
            );
        }
        assert!(conn.is_closed());
    }

    #[test]
    fn admin_health_reports_fingerprints() {
        let engine = engine();
        let fp = engine.registry().get("skl").unwrap().fingerprint();
        let mut conn = Connection::new(Limits::default(), 0);
        let inbox = Frame::AdminRequest { req_id: 5, what: "health".to_string() }.encode();
        let mut stream = Loopback { inbox, ..Loopback::default() };
        conn.pump(0, &mut stream, &engine);
        let frames = decode_all(&stream.outbox);
        match &frames[0] {
            Frame::AdminResponse { req_id, body } => {
                assert_eq!(*req_id, 5);
                assert!(body.contains("\"name\":\"skl\""), "health body: {body}");
                assert!(
                    body.contains(&format!("\"fingerprint\":\"{fp:016x}\"")),
                    "health body must carry the entry fingerprint: {body}"
                );
            }
            other => panic!("expected an admin response, got {other:?}"),
        }
    }

    #[test]
    fn a_refresh_mid_connection_never_changes_a_started_response() {
        // Swap the model between two requests on one connection: each
        // response must reflect the model installed when its request was
        // served, and the first response must not be rewritten.
        let registry = Arc::new(ModelRegistry::new());
        registry.register(artifact("skl", 0.5));
        let engine = Engine::new(Arc::clone(&registry));
        let mut conn = Connection::new(Limits::default(), 0);
        let mut stream = Loopback::default();
        let request = |req_id| Frame::Request {
            req_id,
            model: "skl".to_string(),
            corpus: CORPUS.to_string(),
        };

        stream.inbox = request(1).encode();
        conn.pump(0, &mut stream, &engine);
        let first = stream.outbox.clone();

        registry.register(artifact("skl", 0.9)); // hot swap
        stream.inbox = request(2).encode();
        conn.pump(1, &mut stream, &engine);

        assert_eq!(&stream.outbox[..first.len()], &first[..], "response 1 is immutable");
        let frames = decode_all(&stream.outbox);
        let rows = |f: &Frame| match f {
            Frame::Response { rows, .. } => rows.clone(),
            other => panic!("expected a response, got {other:?}"),
        };
        assert_ne!(rows(&frames[0]), rows(&frames[1]), "the swap changed later responses only");
    }
}
