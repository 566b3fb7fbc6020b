//! `l8_loopback`: the L8 block saved as an artifact, loaded through
//! `ModelRegistry` and served by `Server` on 127.0.0.1, driven over the
//! binary protocol by the client here. The client sets TCP_NODELAY and
//! writes each frame in one write. Phase one is an open loop at a fixed
//! rate on one connection (one thread sends, one reads); phase two
//! keeps a fixed window of requests in flight on the same connection.
//! A `GET /metrics` scrape on a second connection runs beside both.
//!
//! The client's framing is written from the protocol grammar in
//! `lbnn_serve::wire`'s documentation, not with its codec.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lbnn_core::{Flow, RuntimeOptions};
use lbnn_serve::wire::{self, InferRequest, InferResponse, Status};
use lbnn_serve::{ModelRegistry, ServeError, ServeReport, Server, ServerHandle, ServerOptions};

use crate::common::{median, percentile, secs, timed_setups, Metrics, Outcome, RunCfg};
use crate::l8::{self, sleep_until, Reference, DISTINCT};
use crate::trace::span;

const MODEL: &str = "l8@1";
/// Open-loop arrival rate (requests/s), below one connection's capacity.
const OPEN_RATE: f64 = 300.0;
/// Requests kept in flight in the windowed phase.
const WINDOW: usize = 32;
/// Time between `/metrics` scrapes.
const SCRAPE_EVERY: Duration = Duration::from_millis(500);
/// Recompiles behind `compile_ms`.
const COMPILES: usize = 61;
/// Calls per wire-codec timing.
const CODEC_ITERS: u32 = 20000;

/// A running server over a one-model registry directory.
struct Served {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<Result<ServeReport, ServeError>>>,
    dir: PathBuf,
}

impl Served {
    fn start(flow: &Flow, dir: PathBuf) -> Served {
        std::fs::create_dir_all(&dir).expect("model directory");
        span("artifact.save", 0, || {
            flow.save(dir.join(format!("{MODEL}.lbnn")))
                .expect("artifact saves")
        });
        let options = RuntimeOptions::default().workers(1);
        let registry = span("serve.load_registry", 0, || {
            ModelRegistry::load_dir(&dir, &options).expect("registry loads")
        });
        let server = span("serve.bind", 0, || {
            Server::bind("127.0.0.1:0", registry, ServerOptions::default()).expect("server binds")
        });
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.serve()));
        Served {
            addr,
            handle,
            thread,
            dir,
        }
    }

    /// Drains the server and returns its final report.
    fn stop(&mut self) -> Option<ServeReport> {
        self.handle.shutdown();
        let report = self.thread.take()?.join().ok()?.ok();
        let _ = std::fs::remove_dir_all(&self.dir);
        report
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One request frame, length prefix included: `u16le name_len, name,
/// u32le nbits, bits LSB-first`.
fn request_frame(bits: &[bool]) -> Vec<u8> {
    let mut packed = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        packed[i / 8] |= (b as u8) << (i % 8);
    }
    let mut payload = Vec::new();
    payload.extend_from_slice(&(MODEL.len() as u16).to_le_bytes());
    payload.extend_from_slice(MODEL.as_bytes());
    payload.extend_from_slice(&(bits.len() as u32).to_le_bytes());
    payload.extend_from_slice(&packed);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Reads one response frame: its status byte and, for OK, its bits.
fn read_response(r: &mut impl Read) -> io::Result<(u8, Vec<bool>)> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame length",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if payload[0] != 0 {
        return Ok((payload[0], Vec::new()));
    }
    if payload.len() < 5 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "short OK frame"));
    }
    let nbits = u32::from_le_bytes([payload[1], payload[2], payload[3], payload[4]]) as usize;
    let body = &payload[5..];
    if body.len() != nbits.div_ceil(8) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bit count mismatch",
        ));
    }
    Ok((
        0,
        (0..nbits)
            .map(|i| body[i / 8] >> (i % 8) & 1 != 0)
            .collect(),
    ))
}

/// What one `/metrics` scrape said about the model.
#[derive(Debug, Clone, Copy)]
struct Scrape {
    ok: u64,
    p50_us: f64,
    p99_us: f64,
}

fn parse_metrics(body: &str) -> Option<Scrape> {
    let value = |key: &str| -> Option<&str> {
        body.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix(' ')))
    };
    Some(Scrape {
        ok: value(&format!(
            "lbnn_model_requests_total{{model=\"{MODEL}\",outcome=\"ok\"}}"
        ))?
        .parse()
        .ok()?,
        p50_us: value(&format!(
            "lbnn_model_latency_us{{model=\"{MODEL}\",quantile=\"0.5\"}}"
        ))?
        .parse()
        .ok()?,
        p99_us: value(&format!(
            "lbnn_model_latency_us{{model=\"{MODEL}\",quantile=\"0.99\"}}"
        ))?
        .parse()
        .ok()?,
    })
}

/// A keep-alive HTTP connection that scrapes `/metrics` without
/// blocking the caller: [`Scraper::tick`] sends a due request and
/// [`Scraper::poll`] picks the response up when it is whole.
struct Scraper {
    stream: TcpStream,
    buf: Vec<u8>,
    /// When the pending scrape was sent, and the OK responses the client
    /// had received by then (a lower bound for the server's counter).
    pending: Option<(Instant, u64)>,
    next: Instant,
    done: u64,
    failed: u64,
    times_ms: Vec<f64>,
    last: Option<Scrape>,
}

impl Scraper {
    fn connect(addr: SocketAddr) -> io::Result<Scraper> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Scraper {
            stream,
            buf: Vec::new(),
            pending: None,
            next: Instant::now(),
            done: 0,
            failed: 0,
            times_ms: Vec::new(),
            last: None,
        })
    }

    /// Sends a scrape when one is due and none is pending.
    fn tick(&mut self, received_ok: u64, sent: u64) {
        self.poll(sent);
        if self.pending.is_none() && Instant::now() >= self.next {
            self.next = Instant::now() + SCRAPE_EVERY;
            let req = b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n";
            if self.send(req).is_err() {
                self.failed += 1;
                self.done += 1;
                return;
            }
            self.pending = Some((Instant::now(), received_ok));
        }
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut off = 0;
        while off < bytes.len() {
            match self.stream.write(&bytes[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Completes the pending scrape if its response has arrived;
    /// `sent` bounds the server's OK counter from above.
    fn poll(&mut self, sent: u64) {
        let Some((started, lower)) = self.pending else {
            return;
        };
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.finish_one(started, None);
                    return;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.finish_one(started, None);
                    return;
                }
            }
        }
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_ascii_lowercase();
        let Some(len) = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse::<usize>().ok())
        else {
            self.finish_one(started, None);
            return;
        };
        let body_start = head_end + 4;
        if self.buf.len() < body_start + len {
            return;
        }
        let ok_status = head.starts_with("http/1.1 200");
        let body = String::from_utf8_lossy(&self.buf[body_start..body_start + len]).into_owned();
        self.buf.drain(..body_start + len);
        let scrape = parse_metrics(&body).filter(|s| ok_status && s.ok >= lower && s.ok <= sent);
        self.finish_one(started, scrape);
    }

    fn finish_one(&mut self, started: Instant, scrape: Option<Scrape>) {
        self.pending = None;
        self.done += 1;
        self.times_ms.push(secs(started) * 1e3);
        match scrape {
            Some(s) => self.last = Some(s),
            None => self.failed += 1,
        }
    }

    /// One scrape, waited for: the server's figures once traffic stopped.
    fn scrape_now(&mut self, sent: u64, received_ok: u64) -> Option<Scrape> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.pending.is_some() && Instant::now() < deadline {
            self.poll(sent);
            std::thread::sleep(Duration::from_micros(200));
        }
        self.next = Instant::now();
        self.tick(received_ok, sent);
        while self.pending.is_some() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
            self.poll(sent);
        }
        self.last.filter(|_| self.pending.is_none())
    }
}

/// Per-request outcome tallies of one phase.
#[derive(Debug, Default)]
struct Tally {
    ok: u64,
    shed: u64,
    error: u64,
    mismatch: u64,
}

impl Tally {
    fn note(&mut self, reference: &Reference, bits: &[bool], resp: &io::Result<(u8, Vec<bool>)>) {
        match resp {
            Ok((0, got)) if reference.matches(bits, got) => self.ok += 1,
            Ok((0, _)) => {
                self.ok += 1;
                self.mismatch += 1;
            }
            Ok((s, _)) if *s == Status::Shed as u8 => self.shed += 1,
            _ => self.error += 1,
        }
    }

    fn failed(&self) -> u64 {
        self.shed + self.error + self.mismatch
    }
}

/// Runs `l8_loopback`.
pub fn run(cfg: &RunCfg, traced: bool) -> Outcome {
    // Compile figures first, while no server thread exists.
    let (compile_times, artifact) = l8::compile_figures(&l8::synthesize(), COMPILES);
    let mut setup_no = 0;
    let (mut served, setup_times) = timed_setups(cfg.setups, || {
        setup_no += 1;
        let flow = l8::compile(&l8::synthesize());
        let dir = PathBuf::from(format!(
            "perfbench/out/models-{}-{setup_no}",
            std::process::id()
        ));
        Served::start(&flow, dir)
    });
    let reference = Reference::l8();
    let reqs = l8::requests(cfg.seed);
    let frames: Vec<Vec<u8>> = reqs.iter().map(|r| request_frame(r)).collect();
    let mut out = Outcome::default();

    let stream = TcpStream::connect(served.addr).expect("connects");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut writer = stream.try_clone().expect("socket clones");
    writer.write_all(&wire::MAGIC).expect("magic sent");
    let mut reader = BufReader::new(stream);
    let mut scraper = Scraper::connect(served.addr).expect("scrape connection");

    // Phase one: open loop.
    let n = (cfg.phase(0.6).as_secs_f64() * OPEN_RATE).round() as usize;
    let period = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |k: usize| t0 + period * k as u32;
    let received_ok = AtomicU64::new(0);
    let (latencies, open_tally, lateness) = span("serve.open_loop", 0, || {
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut latencies = Vec::with_capacity(n);
                let mut tally = Tally::default();
                for k in 0..n {
                    let resp = read_response(&mut reader);
                    let done = Instant::now();
                    latencies.push(done.duration_since(due(k)).as_secs_f64() * 1e6);
                    tally.note(&reference, &reqs[k % DISTINCT], &resp);
                    received_ok.store(tally.ok, Ordering::Release);
                    if resp.is_err() {
                        tally.error += (n - k - 1) as u64;
                        break;
                    }
                }
                (latencies, tally)
            });
            let mut lateness = Vec::with_capacity(n);
            for (k, frame) in frames.iter().cycle().take(n).enumerate() {
                sleep_until(due(k));
                lateness.push(Instant::now().duration_since(due(k)).as_secs_f64() * 1e6);
                if span("serve.send", k as u64, || writer.write_all(frame)).is_err() {
                    break;
                }
                scraper.tick(received_ok.load(Ordering::Acquire), k as u64 + 1);
            }
            let (latencies, tally) = receiver.join().expect("receiver thread");
            (latencies, tally, lateness)
        })
    });
    let sent_a = n as u64;
    let after_open = scraper.scrape_now(sent_a, open_tally.ok);
    if after_open.is_none_or(|s| s.ok != open_tally.ok) {
        out.failed += 1;
    }
    out.attempted += n as u64 + 1;
    out.failed += open_tally.failed();

    // Phase two: a window of WINDOW requests in flight.
    let window_phase = cfg.phase(0.4);
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut rtts = Vec::new();
    let mut win_tally = Tally::default();
    let mut sent = 0usize;
    let start = Instant::now();
    let mut last_done = start;
    span("serve.window", 0, || {
        while inflight.len() < WINDOW {
            let _ = writer.write_all(&frames[sent % DISTINCT]);
            inflight.push_back((sent, Instant::now()));
            sent += 1;
        }
        while let Some((k, t)) = inflight.pop_front() {
            let resp = read_response(&mut reader);
            last_done = Instant::now();
            rtts.push(last_done.duration_since(t).as_secs_f64() * 1e6);
            win_tally.note(&reference, &reqs[k % DISTINCT], &resp);
            if resp.is_err() {
                win_tally.error += inflight.len() as u64;
                break;
            }
            scraper.tick(open_tally.ok + win_tally.ok, sent_a + sent as u64);
            if start.elapsed() < window_phase {
                let _ = writer.write_all(&frames[sent % DISTINCT]);
                inflight.push_back((sent, Instant::now()));
                sent += 1;
            }
        }
    });
    let window_rps = rtts.len() as f64 / last_done.duration_since(start).as_secs_f64();
    let total_ok = open_tally.ok + win_tally.ok;
    let last = scraper.scrape_now(sent_a + sent as u64, total_ok);
    if last.is_none_or(|s| s.ok != total_ok) {
        out.failed += 1;
    }
    out.attempted += sent as u64 + 1 + scraper.done;
    out.failed += win_tally.failed() + scraper.failed;
    eprintln!(
        "l8_loopback open loop: {n} at {OPEN_RATE}/s (ok {}, shed {}, error {}, mismatch {}), \
         generator late p50 {:.1} us p99 {:.1} us; window {WINDOW}: {} (ok {}, shed {}, error {}, \
         mismatch {}); {} scrapes, {} failed",
        open_tally.ok,
        open_tally.shed,
        open_tally.error,
        open_tally.mismatch,
        median(&lateness),
        percentile(&lateness, 99.0),
        rtts.len(),
        win_tally.ok,
        win_tally.shed,
        win_tally.error,
        win_tally.mismatch,
        scraper.done,
        scraper.failed,
    );

    let scrape_ms = std::mem::take(&mut scraper.times_ms);
    drop(writer);
    drop(reader);
    drop(scraper);
    let report = served.stop();
    out.attempted += 1;
    if report.is_none_or(|r| r.models.first().is_none_or(|m| m.ok != total_ok)) {
        out.failed += 1;
    }

    let e = &mut out.e2e;
    let p50 = median(&latencies);
    e.put("setup_s", median(&setup_times), "s");
    e.put("throughput_sps", window_rps, "samples/s");
    e.put("throughput_rps", window_rps, "requests/s");
    e.put("latency_p50_us", p50, "us");
    e.put("compile_ms", median(&compile_times), "ms");
    e.put("artifact_kib", artifact.len() as f64 / 1024.0, "KiB");

    if traced {
        let mut m = Metrics::default();
        let (self_p50, self_p99) = after_open.map_or((0.0, 0.0), |s| (s.p50_us, s.p99_us));
        m.put("runtime.self_p50_us", self_p50, "us");
        m.put("runtime.self_p99_us", self_p99, "us");
        m.put("serve.net_us", p50 - self_p50, "us");
        m.put("serve.open_loop_p99_us", percentile(&latencies, 99.0), "us");
        m.put("serve.window_rtt_us", median(&rtts), "us");
        m.put("serve.metrics_scrape_ms", median(&scrape_ms), "ms");
        m.extend(codec_figures(&reqs[0]));
        out.layer = m;
    }
    out
}

/// Mean ns per call of the program's wire codec on L8-sized frames.
fn codec_figures(bits: &[bool]) -> Metrics {
    fn per_call<T>(name: &'static str, mut f: impl FnMut() -> T) -> f64 {
        span(name, 0, || {
            let t = Instant::now();
            for _ in 0..CODEC_ITERS {
                std::hint::black_box(f());
            }
            secs(t) * 1e9 / f64::from(CODEC_ITERS)
        })
    }
    let req = InferRequest {
        model: MODEL.to_string(),
        bits: bits.to_vec(),
    };
    let req_bytes = wire::encode_request(&req);
    let out_bits: Vec<bool> = (0..256).map(|i| i % 3 == 0).collect();
    let resp = InferResponse {
        status: Status::Ok,
        bits: out_bits.clone(),
        message: String::new(),
    };
    let resp_bytes = wire::encode_response(&resp);
    let packed = wire::pack_bits(&out_bits);
    let mut m = Metrics::default();
    m.put(
        "wire.encode_request_ns",
        per_call("wire.encode_request", || wire::encode_request(&req)),
        "ns",
    );
    m.put(
        "wire.decode_request_ns",
        per_call("wire.decode_request", || wire::decode_request(&req_bytes)),
        "ns",
    );
    m.put(
        "wire.encode_response_ns",
        per_call("wire.encode_response", || wire::encode_response(&resp)),
        "ns",
    );
    m.put(
        "wire.decode_response_ns",
        per_call("wire.decode_response", || {
            wire::decode_response(&resp_bytes)
        }),
        "ns",
    );
    m.put(
        "wire.pack_bits_ns",
        per_call("wire.pack_bits", || wire::pack_bits(&out_bits)),
        "ns",
    );
    m.put(
        "wire.unpack_bits_ns",
        per_call("wire.unpack_bits", || wire::unpack_bits(&packed, 256)),
        "ns",
    );
    m
}
