//! The serve workloads: one load-generator thread drives two connections
//! over a UNIX socket, each with one request outstanding (a closed loop),
//! against the server exactly as `WireServer::bind` builds it with
//! `Limits::default()`.
//!
//! The served model is the ∇-dual oracle of a preset's ground truth, so the
//! numbers do not depend on the trainer.  Every reply is checked bit for bit
//! against rows computed by `palmed_core::PalmedPredictor`, which shares no
//! code with the `serve` crate's compiled predictor.
//!
//! * `serve_cold` — every request a fresh corpus, so no two requests share
//!   work and any corpus cache is bypassed.
//! * `serve_hot` — requests repeat [`gen::HOT_POOL`] corpora, and on a
//!   seeded schedule the generator swaps the model between the SKL-like and
//!   Zen1-like duals with `ModelRegistry::swap_bytes` while both connections
//!   have a request in flight.
//!
//! A traced run serves half its window untraced and half traced, then
//! replays the traced requests in process, timing each public call the
//! server makes for them.

use crate::gen::{self, BlockPool, Plan, RequestStream, SwapSchedule, KINDS, POOL_BLOCKS};
use crate::report::{self, MemWatch, Outcome};
use crate::trace::Tracer;
use crate::Args;
use palmed_core::dual::{dual_of, DualOptions};
use palmed_core::{PalmedPredictor, ThroughputPredictor};
use palmed_eval::{evaluate_tool, BasicBlock, CampaignConfig};
use palmed_machine::{BackendMeasurer, MeasurementNoise, Measurer};
use palmed_serve::{Corpus, ModelArtifact, ModelEntry, ModelRegistry, PreparedBatch};
use palmed_wire::{decode_frame, Decoded, Engine, Frame, Limits, WireServer};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which serve workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fresh corpora, one model.
    Cold,
    /// Repeated corpora, model hot-swapped between two duals.
    Hot,
}

/// Registry name of the served model.
const MODEL: &str = "bench";
/// Connections the load generator drives.
const CONNECTIONS: usize = 2;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 11;
/// Warm-up round trips per connection during set-up.
const WARMUP_REQUESTS: usize = 2;
/// Blocks per warm-up request.
const WARMUP_BLOCKS: usize = 200;
/// Pool blocks per kind and model scored against native IPC.
const ACCURACY_BLOCKS: usize = 2000;
/// Most requests replayed in process by a traced run.
const REPLAY_MAX: usize = 1500;
/// Directory, relative to the working directory, for sockets and traces.
pub const OUT_DIR: &str = ".bench_out";

/// A socket path no other server of this process uses.
fn socket_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("{OUT_DIR}/serve-{}-{n}.sock", std::process::id()))
}

/// `poll(2)`, the one system call the load generator needs beyond `std`.
mod sys {
    use std::ffi::{c_int, c_ulong};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Waits up to `timeout_ms` for readiness on `fds`.
    pub fn wait(fds: &mut [PollFd], timeout_ms: c_int) -> std::io::Result<()> {
        // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
        // pollfd records and `nfds` is its length; poll(2) reads and writes
        // only those records.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }
}

/// A model the workload serves.
struct Model {
    /// `PALMED-MODEL v2b` bytes, as `swap_bytes` installs them.
    bytes: Vec<u8>,
    /// Reference row of every pool block, per kind (`PalmedPredictor`).
    refs: Vec<Vec<Option<f64>>>,
    /// The oracle's RMS error (%) and Kendall τ against native IPC, per kind.
    accuracy: Vec<(f64, f64)>,
}

impl Model {
    fn build(
        preset: &palmed_machine::presets::PresetMachine,
        pools: &[BlockPool],
        seed: u64,
    ) -> Model {
        let dual = dual_of(&preset.mapping(), &DualOptions::default());
        let artifact = ModelArtifact::new(
            preset.name(),
            "nabla-dual",
            (*preset.instructions).clone(),
            dual.clone(),
        );
        let oracle = PalmedPredictor::with_name("oracle", dual);
        let refs = pools
            .iter()
            .map(|pool| palmed_par::par_map(&pool.blocks, |b| oracle.predict_ipc(&b.kernel)))
            .collect();
        let native = BackendMeasurer::new(
            CampaignConfig::quick().backend,
            preset.mapping_arc(),
            MeasurementNoise::realistic(gen::derive(seed, "serve-native")),
        );
        let accuracy = pools
            .iter()
            .map(|pool| {
                // Unweighted: the server answers every block alike, whatever
                // its execution weight in the suite.
                let blocks: Vec<BasicBlock> = pool.blocks[..ACCURACY_BLOCKS.min(pool.blocks.len())]
                    .iter()
                    .map(|b| BasicBlock::new(b.name.clone(), b.kernel.clone(), 1.0))
                    .collect();
                let ipcs = palmed_par::par_map(&blocks, |b| native.ipc(&b.kernel));
                let metrics = evaluate_tool(&oracle, &blocks, &ipcs);
                (metrics.rms_error * 100.0, metrics.kendall_tau)
            })
            .collect();
        Model {
            bytes: artifact.render_v2(),
            refs,
            accuracy,
        }
    }
}

/// Inputs and references, generated before set-up.
struct Inputs {
    pools: Vec<BlockPool>,
    models: Vec<Model>,
    stream: RequestStream,
    swaps: Option<SwapSchedule>,
    warmup: Vec<Plan>,
}

impl Inputs {
    fn generate(mode: Mode, seed: u64, pool_size: usize) -> Inputs {
        let insts = gen::instruction_set();
        let pools: Vec<BlockPool> = KINDS
            .iter()
            .map(|&kind| BlockPool::generate(kind, &insts, seed, pool_size))
            .collect();
        let inventory = gen::inventory();
        let mut presets = vec![palmed_machine::presets::skl_sp(&inventory)];
        if mode == Mode::Hot {
            presets.push(palmed_machine::presets::zen1(&inventory));
        }
        let models = presets
            .iter()
            .map(|p| Model::build(p, &pools, seed))
            .collect();
        let (stream, swaps) = match mode {
            Mode::Cold => (RequestStream::cold(seed, pool_size), None),
            Mode::Hot => (
                RequestStream::hot(seed, pool_size),
                Some(SwapSchedule::new(seed)),
            ),
        };
        let warmup = (0..KINDS.len())
            .map(|kind| Plan {
                id: u64::MAX - kind as u64,
                kind,
                blocks: (0..WARMUP_BLOCKS.min(pool_size) as u32).collect(),
            })
            .collect();
        Inputs {
            pools,
            models,
            stream,
            swaps,
            warmup,
        }
    }
}

/// `Option<f64>` rows compared bit for bit.
fn row_bits(row: &Option<f64>) -> Option<u64> {
    row.map(f64::to_bits)
}

/// Whether `rows` are exactly the reference rows of `blocks`.
fn rows_match(rows: &[Option<f64>], refs: &[Option<f64>], blocks: &[u32]) -> bool {
    rows.len() == blocks.len()
        && rows
            .iter()
            .zip(blocks)
            .all(|(row, &b)| row_bits(row) == row_bits(&refs[b as usize]))
}

/// Which model a reply may come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Sent after the last swap returned: this model only.
    Model(usize),
    /// In flight during a swap: either model, bit for bit.
    Either(usize, usize),
}

/// A request in flight on one connection.
struct Pending {
    plan: Plan,
    req_id: u32,
    sent_at: Instant,
    expect: Expect,
    after_swap: bool,
    request_bytes: usize,
}

/// One client connection of the load generator.
struct Client {
    stream: UnixStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    pending: Option<Pending>,
    /// The next request sent here is the first after a swap.
    swap_mark: bool,
}

impl Client {
    fn connect(path: &PathBuf) -> io::Result<Client> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(stream) => break stream,
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        Ok(Client {
            stream,
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            pending: None,
            swap_mark: false,
        })
    }

    /// Writes as much of the outgoing frame as the socket takes.
    fn write_some(&mut self) -> io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what the socket has; returns a complete reply and its size.
    fn read_reply(&mut self) -> io::Result<Option<(Frame, usize)>> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        match decode_frame(&self.inbuf, u32::MAX) {
            Ok(Decoded::NeedMore) => Ok(None),
            Ok(Decoded::Frame { consumed, frame }) => {
                self.inbuf.drain(..consumed);
                Ok(Some((frame, consumed)))
            }
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    /// One blocking round trip (set-up only).
    fn call(&mut self, bytes: Vec<u8>) -> io::Result<Frame> {
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(&bytes)?;
        let mut buf = [0u8; 64 * 1024];
        let frame = loop {
            if let Decoded::Frame { consumed, frame } = decode_frame(&self.inbuf, u32::MAX)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                self.inbuf.drain(..consumed);
                break frame;
            }
            match self.stream.read(&mut buf)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.inbuf.extend_from_slice(&buf[..n]),
            }
        };
        self.stream.set_nonblocking(true)?;
        Ok(frame)
    }
}

/// A running server and the load generator's connections to it.
struct Server {
    registry: Arc<ModelRegistry>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
    clients: Vec<Client>,
}

impl Server {
    /// Set-up: model bytes into the registry, bind, both connections
    /// accepted, warm-up.  The flag says whether every warm-up reply
    /// matched the reference.
    fn start(path: PathBuf, bytes: Vec<u8>, inputs: &Inputs) -> io::Result<(Server, bool)> {
        let registry = Arc::new(ModelRegistry::new());
        registry
            .swap_bytes(MODEL, bytes)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let listener =
            WireServer::bind(&path, Engine::new(Arc::clone(&registry)), Limits::default())?;
        let stop = listener.stop_handle();
        let thread = std::thread::spawn(move || listener.run());
        let mut server = Server {
            registry,
            stop,
            thread,
            clients: Vec::new(),
        };
        match server.connect_and_warm(&path, inputs) {
            Ok(warm) => Ok((server, warm)),
            Err(e) => {
                // The connect or warm-up error is the one to report.
                let _ = server.shutdown();
                Err(e)
            }
        }
    }

    /// Opens the connections and checks their warm-up replies.
    fn connect_and_warm(&mut self, path: &PathBuf, inputs: &Inputs) -> io::Result<bool> {
        let mut warm = true;
        for _ in 0..CONNECTIONS {
            let mut client = Client::connect(path)?;
            for i in 0..WARMUP_REQUESTS {
                let plan = &inputs.warmup[i % inputs.warmup.len()];
                let corpus = gen::corpus_text(&inputs.pools, plan);
                let req_id = i as u32 + 1;
                let reply = client.call(
                    Frame::Request {
                        req_id,
                        model: MODEL.to_string(),
                        corpus,
                    }
                    .encode(),
                )?;
                warm &= matches!(&reply, Frame::Response { req_id: got, rows }
                    if *got == req_id && rows_match(rows, &inputs.models[0].refs[plan.kind], &plan.blocks));
            }
            self.clients.push(client);
        }
        Ok(warm)
    }

    /// Stops the server, closes the connections and waits for the thread.
    fn shutdown(self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        drop(self.clients);
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// What one measured window saw.
#[derive(Debug, Default)]
struct Window {
    seconds: f64,
    /// CPU seconds of the server (every thread but the load generator's).
    server_cpu_s: f64,
    rtt_s: Vec<f64>,
    post_swap_rtt_s: Vec<f64>,
    swap_s: Vec<f64>,
    sent: u64,
    failed: u64,
    blocks_ok: u64,
    rows: u64,
    rows_some: u64,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

/// A request encoded ahead of time.
struct Prepared {
    plan: Plan,
    req_id: u32,
    bytes: Vec<u8>,
}

/// The closed-loop load generator.
struct Generator<'a> {
    inputs: &'a Inputs,
    stream: RequestStream,
    swaps: Option<SwapSchedule>,
    model: usize,
    completed: u64,
    next_swap_at: u64,
    next_req_id: u32,
    prepared: Option<Prepared>,
    /// Requests (and the model they expect) kept for the in-process replay.
    replay: Vec<(Plan, usize)>,
}

impl<'a> Generator<'a> {
    fn new(inputs: &'a Inputs) -> Generator<'a> {
        let mut swaps = inputs.swaps.clone();
        let next_swap_at = swaps.as_mut().map_or(u64::MAX, SwapSchedule::next_gap);
        Generator {
            inputs,
            stream: inputs.stream.clone(),
            swaps,
            model: 0,
            completed: 0,
            next_swap_at,
            next_req_id: 0,
            prepared: None,
            replay: Vec::new(),
        }
    }

    fn prepare(&mut self) -> Prepared {
        let plan = self.stream.next_plan();
        self.next_req_id = self.next_req_id.wrapping_add(1);
        let corpus = gen::corpus_text(&self.inputs.pools, &plan);
        let bytes = Frame::Request {
            req_id: self.next_req_id,
            model: MODEL.to_string(),
            corpus,
        }
        .encode();
        Prepared {
            plan,
            req_id: self.next_req_id,
            bytes,
        }
    }

    /// Sends the next request on connection `c`, then encodes the one
    /// after it while this one is in flight.
    fn send(
        &mut self,
        server: &mut Server,
        c: usize,
        window: &mut Window,
        keep: bool,
    ) -> io::Result<()> {
        let next = match self.prepared.take() {
            Some(p) => p,
            None => self.prepare(),
        };
        let client = &mut server.clients[c];
        let after_swap = std::mem::take(&mut client.swap_mark);
        if keep && self.replay.len() < REPLAY_MAX {
            self.replay.push((next.plan.clone(), self.model));
        }
        client.pending = Some(Pending {
            plan: next.plan,
            req_id: next.req_id,
            sent_at: Instant::now(),
            expect: Expect::Model(self.model),
            after_swap,
            request_bytes: next.bytes.len(),
        });
        client.out = next.bytes;
        client.written = 0;
        client.write_some()?;
        window.sent += 1;
        self.prepared = Some(self.prepare());
        Ok(())
    }

    /// Swaps the model while both connections have a request in flight.
    fn swap(
        &mut self,
        server: &mut Server,
        window: &mut Window,
        tracer: &mut Tracer,
    ) -> io::Result<()> {
        let next = 1 - self.model;
        let bytes = self.inputs.models[next].bytes.clone();
        let start = Instant::now();
        server
            .registry
            .swap_bytes(MODEL, bytes)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let end = Instant::now();
        tracer.record("serve.swap", None, self.completed, start, end);
        window.swap_s.push((end - start).as_secs_f64());
        for client in &mut server.clients {
            if let Some(p) = &mut client.pending {
                p.expect = Expect::Either(self.model, next);
            }
            client.swap_mark = true;
        }
        self.model = next;
        let gap = self.swaps.as_mut().map_or(u64::MAX, SwapSchedule::next_gap);
        self.next_swap_at = self.completed.saturating_add(gap);
        Ok(())
    }

    /// Checks and records a reply.
    fn complete(
        &mut self,
        pending: Pending,
        reply: Frame,
        size: usize,
        window: &mut Window,
        tracer: &mut Tracer,
    ) {
        let now = Instant::now();
        let rtt = (now - pending.sent_at).as_secs_f64();
        tracer.record("wire.rtt", None, pending.plan.id, pending.sent_at, now);
        let kind = pending.plan.kind;
        let matches = |rows: &[Option<f64>], m: usize| {
            rows_match(
                rows,
                &self.inputs.models[m].refs[kind],
                &pending.plan.blocks,
            )
        };
        let ok = match &reply {
            Frame::Response { req_id, rows } if *req_id == pending.req_id => {
                window.rows += rows.len() as u64;
                window.rows_some += rows.iter().filter(|r| r.is_some()).count() as u64;
                match pending.expect {
                    Expect::Model(m) => matches(rows, m),
                    Expect::Either(a, b) => matches(rows, a) || matches(rows, b),
                }
            }
            _ => false,
        };
        if ok {
            window.blocks_ok += pending.plan.blocks.len() as u64;
        } else {
            window.failed += 1;
            if window.failed <= 3 {
                let what = match &reply {
                    Frame::Error { class, message, .. } => {
                        format!("error frame `{class}`: {message}")
                    }
                    Frame::Response { .. } => {
                        format!("rows differ from the reference ({:?})", pending.expect)
                    }
                    other => format!("unexpected frame kind {}", other.kind()),
                };
                eprintln!("perfbench: request {} failed: {what}", pending.plan.id);
            }
        }
        window.rtt_s.push(rtt);
        if pending.after_swap {
            window.post_swap_rtt_s.push(rtt);
        }
        window.request_bytes.push(pending.request_bytes as f64);
        window.response_bytes.push(size as f64);
        self.completed += 1;
    }

    /// Serves a closed loop for `seconds`, then waits for the requests in
    /// flight.  `keep` records the requests for the replay.
    fn window(
        &mut self,
        server: &mut Server,
        seconds: f64,
        keep: bool,
        tracer: &mut Tracer,
    ) -> io::Result<Window> {
        let mut window = Window::default();
        let (process_cpu, generator_cpu) = (report::process_cpu_s(), report::thread_cpu_s());
        let start = Instant::now();
        for c in 0..CONNECTIONS {
            self.send(server, c, &mut window, keep)?;
        }
        loop {
            let open = start.elapsed().as_secs_f64() < seconds;
            if !open && server.clients.iter().all(|c| c.pending.is_none()) {
                break;
            }
            let mut fds: Vec<sys::PollFd> = server
                .clients
                .iter()
                .map(|c| sys::PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: sys::POLLIN
                        | if c.written < c.out.len() {
                            sys::POLLOUT
                        } else {
                            0
                        },
                    revents: 0,
                })
                .collect();
            sys::wait(&mut fds, 100)?;
            for (c, fd) in fds.iter().enumerate() {
                if fd.revents == 0 {
                    continue;
                }
                server.clients[c].write_some()?;
                let Some((reply, size)) = server.clients[c].read_reply()? else {
                    continue;
                };
                let Some(pending) = server.clients[c].pending.take() else {
                    return Err(io::Error::other("reply without a request in flight"));
                };
                self.complete(pending, reply, size, &mut window, tracer);
                if start.elapsed().as_secs_f64() < seconds {
                    self.send(server, c, &mut window, keep)?;
                    let both_in_flight = server.clients.iter().all(|c| c.pending.is_some());
                    if both_in_flight && self.completed >= self.next_swap_at {
                        self.swap(server, &mut window, tracer)?;
                    }
                }
            }
        }
        window.seconds = start.elapsed().as_secs_f64();
        window.server_cpu_s =
            (report::process_cpu_s() - process_cpu) - (report::thread_cpu_s() - generator_cpu);
        Ok(window)
    }
}

/// Per-request timings of the in-process replay.
#[derive(Debug, Default)]
struct Replay {
    failed: u64,
    blocks: u64,
    distinct_ratio: Vec<f64>,
}

/// Replays `requests` in process, timing the public calls the server makes
/// for each: frame decode, corpus parse, prepare + predict, the engine's
/// whole execute, and the reply's encode.
fn replay(
    inputs: &Inputs,
    requests: &[(Plan, usize)],
    budget: Duration,
    tracer: &mut Tracer,
) -> Replay {
    let registry = Arc::new(ModelRegistry::new());
    let engine = Engine::new(Arc::clone(&registry));
    let max_payload = Limits::default().max_payload;
    let mut out = Replay::default();
    let mut installed = None;
    let start = Instant::now();
    for (i, (plan, model)) in requests.iter().enumerate() {
        if start.elapsed() > budget {
            break;
        }
        if installed != Some(*model) {
            if registry
                .swap_bytes(MODEL, inputs.models[*model].bytes.clone())
                .is_err()
            {
                out.failed += 1;
                break;
            }
            installed = Some(*model);
        }
        let req_id = i as u32 + 1;
        let corpus = gen::corpus_text(&inputs.pools, plan);
        let bytes = Frame::Request {
            req_id,
            model: MODEL.to_string(),
            corpus,
        }
        .encode();
        let id = plan.id;
        let root = tracer.open("replay.request", None, id);
        let decoded = tracer.time("wire.decode", root, id, || {
            decode_frame(&bytes, max_payload)
        });
        let Ok(Decoded::Frame {
            frame: Frame::Request { corpus, .. },
            ..
        }) = decoded
        else {
            out.failed += 1;
            continue;
        };
        let entry = registry.get(MODEL).expect("the replay model is installed");
        let ModelEntry::ConjunctiveServing(served) = entry.model() else {
            panic!("swap_bytes installs v2b bytes as a serve-only conjunctive entry");
        };
        let parsed = tracer.time("serve.parse", root, id, || {
            Corpus::parse(&corpus, &served.artifact.instructions)
        });
        let Ok(parsed) = parsed else {
            out.failed += 1;
            continue;
        };
        let (rows, distinct) = tracer.time("serve.predict", root, id, || {
            let prepared = PreparedBatch::from_corpus(&parsed);
            (
                served.batch().predict_prepared(&prepared).ipcs,
                prepared.distinct(),
            )
        });
        let reply = tracer.time("wire.execute", root, id, || {
            engine.execute(req_id, MODEL, &corpus)
        });
        let encoded = tracer.time("wire.encode", root, id, || reply.encode());
        tracer.close(root);
        let refs = &inputs.models[*model].refs[plan.kind];
        let same_reply = matches!(&reply, Frame::Response { rows: r, .. }
            if r.iter().map(row_bits).eq(rows.iter().map(row_bits)));
        if !rows_match(&rows, refs, &plan.blocks) || !same_reply || encoded.is_empty() {
            out.failed += 1;
        }
        out.blocks += plan.blocks.len() as u64;
        out.distinct_ratio
            .push(distinct as f64 / plan.blocks.len() as f64);
    }
    out
}

/// `wire.*` obs counters and the `wire.request_ns` histogram.
fn wire_obs() -> [f64; 6] {
    let snapshot = palmed_obs::snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let (count, sum) = snapshot
        .histogram("wire.request_ns")
        .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64));
    [
        counter("wire.frontend.pumps"),
        counter("wire.frontend.wakeups"),
        counter("wire.batch.corpus_cache_hits"),
        counter("wire.requests"),
        count,
        sum,
    ]
}

/// Runs a serve workload.
pub fn run(args: &Args, mode: Mode, tracer: &mut Tracer) -> Outcome {
    match run_with(args, mode, tracer, POOL_BLOCKS, |_| {}) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: serve workload failed: {e}");
            Outcome::default()
        }
    }
}

/// [`run`] with a pool size and a hook that may alter the inputs (tests).
fn run_with(
    args: &Args,
    mode: Mode,
    tracer: &mut Tracer,
    pool_size: usize,
    alter: impl FnOnce(&mut Inputs),
) -> io::Result<Outcome> {
    let mut inputs = Inputs::generate(mode, args.seed, pool_size);
    alter(&mut inputs);
    let mem = MemWatch::start();
    std::fs::create_dir_all(OUT_DIR)?;

    let mut setup_s = Vec::new();
    let mut warm = true;
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let path = socket_path();
        let bytes = inputs.models[0].bytes.clone();
        let cpu = report::process_cpu_s();
        let (started, warmed) = Server::start(path, bytes, &inputs)?;
        setup_s.push(report::process_cpu_s() - cpu);
        warm &= warmed;
        server = Some(started);
    }
    let mut server = server.expect("at least one set-up");

    let mut generator = Generator::new(&inputs);
    let mut out = Outcome::default();
    if args.trace {
        let untraced = generator.window(&mut server, args.seconds / 2.0, false, tracer)?;
        let before = wire_obs();
        palmed_obs::set_enabled(true);
        tracer.set_enabled(true);
        let traced = generator.window(&mut server, args.seconds / 2.0, true, tracer)?;
        tracer.set_enabled(false);
        palmed_obs::set_enabled(false);
        let after = wire_obs();
        let server_ok = server.shutdown().is_ok();
        let requests = std::mem::take(&mut generator.replay);
        tracer.set_enabled(true);
        let replayed = replay(
            &inputs,
            &requests,
            Duration::from_secs_f64(args.seconds / 2.0),
            tracer,
        );
        tracer.set_enabled(false);
        out.attempted = untraced.sent + traced.sent;
        out.failed = untraced.failed + traced.failed + replayed.failed;
        out.correct = warm && server_ok && out.failed == 0;
        layer_metrics(
            &mut out, &untraced, &traced, &replayed, before, after, tracer,
        );
    } else {
        let window = generator.window(&mut server, args.seconds, false, tracer)?;
        let server_ok = server.shutdown().is_ok();
        out.attempted = window.sent;
        out.failed = window.failed;
        out.correct = warm && server_ok && out.failed == 0;
        out.set("setup_s", report::median(&setup_s));
        out.set("mem_mb", mem.growth_mib());
        out.set(
            "cpu_us_per_item",
            window.server_cpu_s / window.blocks_ok as f64 * 1e6,
        );
        let accuracy: Vec<(f64, f64)> = inputs
            .models
            .iter()
            .flat_map(|m| m.accuracy.iter().copied())
            .collect();
        out.set(
            "rms_err_pct",
            report::mean(&accuracy.iter().map(|a| a.0).collect::<Vec<_>>()),
        );
        out.set(
            "kendall_tau",
            report::mean(&accuracy.iter().map(|a| a.1).collect::<Vec<_>>()),
        );
        out.set(
            "coverage_pct",
            window.rows_some as f64 / window.rows.max(1) as f64 * 100.0,
        );
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    untraced: &Window,
    traced: &Window,
    replayed: &Replay,
    before: [f64; 6],
    after: [f64; 6],
    tracer: &Tracer,
) {
    let delta: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let per_kblock = |name: &str| tracer.total(name) / replayed.blocks.max(1) as f64 * 1e9;
    let median_us = |name: &str| report::median(&tracer.durations(name)) * 1e6;
    out.set("serve.parse_us_per_kblock", per_kblock("serve.parse"));
    out.set("serve.predict_us_per_kblock", per_kblock("serve.predict"));
    out.set(
        "serve.distinct_ratio",
        report::mean(&replayed.distinct_ratio),
    );
    out.set(
        "serve.swap_p50_ms",
        report::quantile(&traced.swap_s, 0.5) * 1e3,
    );
    // Wall-clock views of the path, from the untraced half.
    for (name, q) in [
        ("wire.rtt_p50_ms", 0.5),
        ("wire.rtt_p90_ms", 0.9),
        ("wire.rtt_p99_ms", 0.99),
    ] {
        out.set(name, report::quantile(&untraced.rtt_s, q) * 1e3);
    }
    out.set(
        "serve.blocks_per_s",
        untraced.blocks_ok as f64 / untraced.seconds,
    );
    out.set(
        "serve.post_swap_rtt_ms",
        report::quantile(&traced.post_swap_rtt_s, 0.5) * 1e3,
    );
    let (decode, execute, encode) = (
        median_us("wire.decode"),
        median_us("wire.execute"),
        median_us("wire.encode"),
    );
    out.set("wire.decode_us_per_req", decode);
    out.set("wire.execute_us_per_req", execute);
    out.set("wire.encode_us_per_req", encode);
    let rtt_p50_us = report::quantile(&untraced.rtt_s, 0.5) * 1e6;
    out.set(
        "wire.transport_us_per_req",
        rtt_p50_us - decode - execute - encode,
    );
    out.set(
        "wire.request_kb",
        report::mean(&traced.request_bytes) / 1024.0,
    );
    out.set(
        "wire.response_kb",
        report::mean(&traced.response_bytes) / 1024.0,
    );
    out.set("wire.pumps_per_wakeup", delta[0] / delta[1].max(1.0));
    out.set("wire.cache_hit_ratio", delta[2] / delta[3].max(1.0));
    out.set("wire.server_mean_us", delta[5] / delta[4].max(1.0) / 1e3);
    let untraced_p50 = report::quantile(&untraced.rtt_s, 0.5);
    out.set(
        "obs.overhead_pct",
        (report::quantile(&traced.rtt_s, 0.5) / untraced_p50 - 1.0) * 100.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn args(seconds: f64, trace: bool) -> Args {
        Args {
            workload: Workload::ServeHot,
            seed: 5,
            seconds,
            trace,
        }
    }

    #[test]
    fn one_flipped_reference_bit_is_a_mismatch() {
        let refs = vec![Some(1.25), None, Some(0.5)];
        let rows = vec![Some(0.5), Some(1.25), None];
        let blocks = [2, 0, 1];
        assert!(rows_match(&rows, &refs, &blocks));
        let mut flipped = refs.clone();
        flipped[0] = Some(f64::from_bits(1.25f64.to_bits() ^ 1));
        assert!(!rows_match(&rows, &flipped, &blocks));
        assert!(!rows_match(&rows[..2], &refs, &blocks));
    }

    /// A short `serve_hot` run: every reply matches, swaps happen, and
    /// the traced run yields its layer metrics.
    #[test]
    fn hot_run_serves_bit_exact_rows_across_swaps() {
        let mut tracer = Tracer::new(false);
        let out = run_with(&args(1.0, true), Mode::Hot, &mut tracer, 2000, |_| {}).unwrap();
        assert!(out.correct, "{out:?}");
        assert!(out.attempted > 100 && out.failed == 0);
        assert!(out.metrics["serve.swap_p50_ms"] > 0.0);
        assert!(out.metrics["wire.execute_us_per_req"] > 0.0);
        assert!(tracer.spans().iter().any(|s| s.name == "serve.swap"));
    }

    /// One flipped bit in the reference row of one pool block is caught:
    /// the requests drawing that block fail and the run is incorrect.
    #[test]
    fn a_flipped_reference_bit_fails_the_run() {
        let mut tracer = Tracer::new(false);
        let flip = |inputs: &mut Inputs| {
            let row = &mut inputs.models[0].refs[0][WARMUP_BLOCKS];
            *row = row.map(|v| f64::from_bits(v.to_bits() ^ 1));
        };
        let mut cold = args(0.5, false);
        cold.workload = Workload::ServeCold;
        let out = run_with(&cold, Mode::Cold, &mut tracer, 2000, flip).unwrap();
        assert!(!out.correct);
        assert!(out.failed > 0 && out.failed < out.attempted, "{out:?}");
    }
}
