//! Traffic chaos gate for `tabmeta serve` (PR 8 acceptance).
//!
//! One seeded soak drives the server with mixed traffic at high
//! concurrency — well-formed batches, wire-level malformed frames from
//! [`tabmeta::resilience::RequestFaultInjector`] (truncations, oversized
//! length prefixes, garbage bytes, mid-frame disconnects), and slowloris
//! peers — while a reloader thread hot-swaps the watched model artifact,
//! including one swap to a corrupted artifact. The gate asserts:
//!
//! - zero panics (every thread joins cleanly),
//! - zero dropped in-flight requests (`admitted == ok +
//!   deadline_exceeded + drained + internal_error`, and every clean
//!   request observed a response),
//! - every response on a clean connection is well-formed and typed,
//! - queue depth stays bounded by the configured capacity,
//! - ≥ 3 hot reloads land and the corrupted swap is rejected while
//!   serving continues on the previous model,
//! - every verdict returned across reload boundaries is bit-identical to
//!   offline classification under the model named by the response's
//!   fingerprint.
//!
//! The soak length defaults to a few seconds for plain `cargo test`;
//! `scripts/check.sh` runs the full gate with `TABMETA_SERVE_SOAK_SECS=30`.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabmeta::contrastive::{atomic_write, save_pipeline, Pipeline, PipelineConfig};
use tabmeta::corpora::{CorpusKind, GeneratorConfig};
use tabmeta::obs::clock;
use tabmeta::resilience::{RequestFaultInjector, RequestFaultPlan, WireDecision, WireFaultKind};
use tabmeta::serve::{
    protocol, Client, Request, Response, ServeConfig, Server, ServingModel, Status, WireError,
};
use tabmeta::tabular::Table;

const FINGERPRINT_A: u64 = 0xA11C_E000_0000_000A;
const FINGERPRINT_B: u64 = 0xB0B0_0000_0000_000B;
const TRAFFIC_THREADS: usize = 4;
const QUEUE_CAPACITY: usize = 8;

fn soak_millis() -> u64 {
    std::env::var("TABMETA_SERVE_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|s| s * 1_000)
        .unwrap_or(4_000)
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tabmeta-serve-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create chaos temp dir");
    dir
}

/// Poll until `done` or the timeout elapses; true when `done` won.
fn wait_until(timeout_ms: u64, mut done: impl FnMut() -> bool) -> bool {
    let start = clock::monotonic_millis();
    while clock::monotonic_millis().saturating_sub(start) < timeout_ms {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

/// Connect with retries; the listener can briefly lag under chaos load.
fn connect_retry(addr: SocketAddr) -> Client {
    let start = clock::monotonic_millis();
    loop {
        match Client::connect(addr, 10_000) {
            Ok(c) => return c,
            Err(e) => {
                assert!(
                    clock::monotonic_millis().saturating_sub(start) < 10_000,
                    "could not reconnect to chaos server: {e:?}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// What one traffic thread observed; joined and asserted by the gate.
struct TrafficReport {
    sent: u64,
    malformed: u64,
    /// (model fingerprint hex, corpus table indices, returned verdicts).
    oks: Vec<(String, Vec<usize>, Vec<tabmeta::contrastive::Verdict>)>,
    violations: Vec<String>,
}

/// Fold one clean-connection response into the report, enforcing the
/// typed-response invariants. Overloaded responses honor the retry hint.
fn record_clean_response(
    report: &mut TrafficReport,
    request: &Request,
    idxs: &[usize],
    resp: Response,
) {
    if !resp.is_well_formed() {
        report.violations.push(format!("malformed response: {resp:?}"));
    }
    match resp.parsed_status() {
        Some(Status::Ok) => {
            if resp.id != request.id {
                report
                    .violations
                    .push(format!("id mismatch: sent {}, got {}", request.id, resp.id));
            }
            if resp.verdicts.len() != idxs.len() {
                report.violations.push(format!(
                    "verdict count mismatch: {} tables, {} verdicts",
                    idxs.len(),
                    resp.verdicts.len()
                ));
            }
            report.oks.push((resp.model_fingerprint, idxs.to_vec(), resp.verdicts));
        }
        // Backpressure and drain responses are legitimate under chaos.
        Some(Status::Overloaded) => {
            std::thread::sleep(Duration::from_millis(resp.retry_after_ms.min(50)));
        }
        Some(Status::DeadlineExceeded) | Some(Status::ShuttingDown) => {}
        Some(other) => report.violations.push(format!(
            "clean request {} rejected as {}",
            request.id,
            other.as_str()
        )),
        None => report.violations.push(format!("unknown status '{}'", resp.status)),
    }
}

#[allow(clippy::too_many_lines)]
fn traffic_thread(
    thread_id: usize,
    addr: SocketAddr,
    tables: Arc<Vec<Table>>,
    stop: Arc<AtomicBool>,
) -> TrafficReport {
    let mut rng = StdRng::seed_from_u64(9_000 + thread_id as u64);
    let mut injector =
        RequestFaultInjector::new(RequestFaultPlan::full(7_000 + thread_id as u64, 0.22));
    let mut client = connect_retry(addr);
    let mut report =
        TrafficReport { sent: 0, malformed: 0, oks: Vec::new(), violations: Vec::new() };
    let mut next_id = thread_id as u64 * 1_000_000 + 1;

    while !stop.load(Ordering::Relaxed) {
        let n = rng.random_range(1..=3usize);
        let idxs: Vec<usize> = (0..n).map(|_| rng.random_range(0..tables.len())).collect();
        let request =
            Request { id: next_id, tables: idxs.iter().map(|&j| tables[j].clone()).collect() };
        next_id += 1;
        let payload = serde_json::to_string(&request).expect("serialize request");
        let mut frame = Vec::new();
        protocol::write_frame(&mut frame, payload.as_bytes()).expect("frame request");
        report.sent += 1;

        match injector.decide(&frame) {
            WireDecision::Clean => {
                // A starved client can trip the server's idle timeout and
                // find its connection legitimately closed (typed slow_read
                // or EOF); that is keep-alive hygiene, not a drop, so retry
                // once on a fresh connection before calling it a violation.
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    let outcome = match client.send_raw(&frame) {
                        Ok(()) => client.read_response(),
                        Err(_) => Err(WireError::Closed),
                    };
                    match outcome {
                        Ok(resp) if resp.parsed_status() == Some(Status::SlowRead) => {
                            client = connect_retry(addr);
                            if attempts >= 2 {
                                report.violations.push(format!(
                                    "clean request {} repeatedly answered slow_read",
                                    request.id
                                ));
                                break;
                            }
                        }
                        Ok(resp) => {
                            record_clean_response(&mut report, &request, &idxs, resp);
                            break;
                        }
                        // First-attempt close/reset: the server may have
                        // RST the idle connection as we sent. Fresh
                        // connections must always answer, so only a retry
                        // failure counts.
                        Err(WireError::Closed) | Err(WireError::Io { .. }) if attempts < 2 => {
                            client = connect_retry(addr);
                        }
                        Err(e) => {
                            report.violations.push(format!(
                                "clean request {} got no response: {e:?}",
                                request.id
                            ));
                            client = connect_retry(addr);
                            break;
                        }
                    }
                }
            }
            WireDecision::Corrupt { kind, bytes } => {
                report.malformed += 1;
                let send = client.send_raw(&bytes);
                if kind.disconnects() || send.is_err() {
                    // Half a frame then hang up: the server must log a
                    // truncation, never stall or panic. Reconnect fresh.
                    client = connect_retry(addr);
                    continue;
                }
                match (kind, client.read_response()) {
                    (WireFaultKind::OversizedLength, Ok(resp)) => {
                        if resp.parsed_status() != Some(Status::FrameTooLarge)
                            || !resp.is_well_formed()
                        {
                            report.violations.push(format!(
                                "oversized frame answered with {:?} instead of frame_too_large",
                                resp.status
                            ));
                        }
                        // The server closes after an unrecoverable frame error.
                        client = connect_retry(addr);
                    }
                    (_, Ok(resp)) => {
                        // Garbage payload bytes: typed bad_request on a
                        // connection that stays usable.
                        if !resp.is_well_formed() {
                            report
                                .violations
                                .push(format!("garbage frame got malformed response: {resp:?}"));
                        }
                    }
                    (_, Err(_)) => {
                        client = connect_retry(addr);
                    }
                }
            }
        }
    }
    report
}

/// Slow peers: dribble two header bytes and wait. The server must answer
/// with a typed `slow_read` (or close the socket), never hold the
/// connection hostage.
fn slowloris_thread(addr: SocketAddr, stop: Arc<AtomicBool>) -> (u64, Vec<String>) {
    let mut seen = 0;
    let mut violations = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut client = connect_retry(addr);
        if client.send_raw(&[0x01, 0x00]).is_err() {
            continue;
        }
        match client.read_response() {
            Ok(resp) => {
                if resp.parsed_status() != Some(Status::SlowRead) || !resp.is_well_formed() {
                    violations.push(format!("slowloris answered with {:?}", resp.status));
                }
                seen += 1;
            }
            // A raced close is an acceptable slow-peer outcome too.
            Err(_) => seen += 1,
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    (seen, violations)
}

#[test]
fn chaos_soak_survives_malformed_traffic_and_hot_reloads() {
    // Force the lock-order witness on even in release mode: this gate is
    // the dynamic counterpart of lint rule TM-L006, so a soak that never
    // checked an acquisition would be vacuous.
    tabmeta_obs::lockorder::set_enabled(true);
    let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 40, seed: 7 });
    let tables = Arc::new(corpus.tables);
    let model_a = Pipeline::train(&tables, &PipelineConfig::fast_seeded(11)).expect("train A");
    let model_b = Pipeline::train(&tables, &PipelineConfig::fast_seeded(22)).expect("train B");

    let dir = tmp_dir();
    let model_path = dir.join("chaos-model.tma");
    save_pipeline(&dir.join("a.tma"), &model_a, FINGERPRINT_A).expect("save A");
    save_pipeline(&dir.join("b.tma"), &model_b, FINGERPRINT_B).expect("save B");
    let bytes_a = std::fs::read(dir.join("a.tma")).expect("read A bytes");
    let bytes_b = std::fs::read(dir.join("b.tma")).expect("read B bytes");
    let mut corrupt = bytes_b.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    atomic_write(&model_path, &bytes_a).expect("seed watched artifact");

    let config = ServeConfig {
        workers: 3,
        queue_capacity: QUEUE_CAPACITY,
        deadline_ms: 2_000,
        io_timeout_ms: 1_000,
        reload_poll_ms: 25,
        ..ServeConfig::default()
    };
    let server = Server::start(
        ServingModel { pipeline: model_a.clone(), fingerprint: FINGERPRINT_A },
        config,
        "127.0.0.1:0",
        Some(model_path.clone()),
    )
    .expect("start chaos server");
    let addr = server.local_addr();
    let server = Arc::new(server);

    let stop = Arc::new(AtomicBool::new(false));
    let traffic: Vec<_> = (0..TRAFFIC_THREADS)
        .map(|i| {
            let (tables, stop) = (Arc::clone(&tables), Arc::clone(&stop));
            std::thread::spawn(move || traffic_thread(i, addr, tables, stop))
        })
        .collect();
    let slowloris = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || slowloris_thread(addr, stop))
    };

    // Reloader: swap A→B, reject a corrupted artifact mid-traffic, then
    // B→A→B — at least 3 applied reloads plus 1 rejected one, all while
    // the traffic threads hammer the socket.
    let reloader = {
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        let model_path = model_path.clone();
        let (bytes_a, bytes_b) = (bytes_a.clone(), bytes_b.clone());
        std::thread::spawn(move || {
            let soak = soak_millis();
            let pause = (soak / 8).max(100);
            let schedule: &[(&[u8], u64, bool)] = &[
                (&bytes_b, FINGERPRINT_B, true),
                (&corrupt, FINGERPRINT_B, false), // rejected; fingerprint must hold
                (&bytes_a, FINGERPRINT_A, true),
                (&bytes_b, FINGERPRINT_B, true),
            ];
            let mut applied = 0u64;
            let mut rejected = 0u64;
            for (bytes, expect_fingerprint, should_apply) in schedule {
                std::thread::sleep(Duration::from_millis(pause));
                let rejected_before = server.stats().reload_rejected;
                atomic_write(&model_path, bytes).expect("chaos reload write");
                if *should_apply {
                    assert!(
                        wait_until(10_000, || server.model_fingerprint() == *expect_fingerprint),
                        "hot reload to {expect_fingerprint:016x} never applied"
                    );
                    applied += 1;
                } else {
                    assert!(
                        wait_until(10_000, || server.stats().reload_rejected > rejected_before),
                        "corrupted artifact swap was never detected"
                    );
                    assert_eq!(
                        server.model_fingerprint(),
                        *expect_fingerprint,
                        "corrupted reload must keep the serving model"
                    );
                    assert_eq!(server.last_reload_error(), "checksum_mismatch");
                    rejected += 1;
                }
            }
            // Keep alternating valid models for the rest of the soak so
            // verdicts keep crossing reload boundaries.
            let mut flip = false;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(pause));
                let (bytes, fingerprint) =
                    if flip { (&bytes_a, FINGERPRINT_A) } else { (&bytes_b, FINGERPRINT_B) };
                flip = !flip;
                atomic_write(&model_path, bytes).expect("chaos reload write");
                if wait_until(10_000, || server.model_fingerprint() == fingerprint) {
                    applied += 1;
                }
            }
            (applied, rejected)
        })
    };

    std::thread::sleep(Duration::from_millis(soak_millis()));
    stop.store(true, Ordering::Relaxed);

    let mut reports = Vec::new();
    for handle in traffic {
        reports.push(handle.join().expect("traffic thread panicked"));
    }
    let (slow_seen, slow_violations) = slowloris.join().expect("slowloris thread panicked");
    let (reloads_applied, reloads_rejected) = reloader.join().expect("reloader thread panicked");

    let server = Arc::into_inner(server).expect("sole Arc owner after joins");
    let stats = server.shutdown().expect("drained shutdown");

    // Zero dropped in-flight requests, machine-checked.
    assert!(stats.admissions_conserved(), "admissions leaked: {stats:?}");

    // Every clean-connection request got a well-formed typed response.
    let violations: Vec<&String> =
        reports.iter().flat_map(|r| &r.violations).chain(&slow_violations).collect();
    assert!(violations.is_empty(), "protocol violations under chaos: {violations:#?}");

    // The soak exercised real load and real malice.
    let sent: u64 = reports.iter().map(|r| r.sent).sum();
    let malformed: u64 = reports.iter().map(|r| r.malformed).sum();
    let oks: usize = reports.iter().map(|r| r.oks.len()).sum();
    assert!(sent >= 100, "soak too small to mean anything: {sent} requests");
    assert!(oks >= 20, "soak produced too few classifications: {oks}");
    assert!(
        malformed as f64 / sent as f64 >= 0.15,
        "malformed fraction below gate: {malformed}/{sent}"
    );
    assert!(slow_seen >= 1, "no slowloris connection completed");

    // ≥ 3 hot reloads, the corrupted swap rejected, serving continued.
    assert!(reloads_applied >= 3, "only {reloads_applied} hot reloads applied");
    assert!(reloads_rejected >= 1, "corrupted swap never rejected");
    assert!(stats.reloads >= 3, "server counted {} reloads", stats.reloads);
    assert!(stats.reload_rejected >= 1, "server counted no rejected reloads");

    // Bounded queue: transient accounting may exceed capacity by at most
    // one slot per concurrently-admitting connection.
    assert!(
        stats.max_queue_depth <= (QUEUE_CAPACITY + TRAFFIC_THREADS) as u64,
        "queue depth unbounded: {} > {}",
        stats.max_queue_depth,
        QUEUE_CAPACITY + TRAFFIC_THREADS
    );

    // Reload-spanning bit-identity: every verdict matches offline
    // classification under the exact model the response was pinned to.
    let hex_a = format!("{FINGERPRINT_A:016x}");
    let hex_b = format!("{FINGERPRINT_B:016x}");
    let mut checked = 0usize;
    for (fingerprint, idxs, verdicts) in reports.iter().flat_map(|r| &r.oks) {
        let model = if *fingerprint == hex_a {
            &model_a
        } else if *fingerprint == hex_b {
            &model_b
        } else {
            panic!("response pinned to unknown model {fingerprint}");
        };
        for (&idx, verdict) in idxs.iter().zip(verdicts) {
            assert_eq!(
                *verdict,
                model.classify(&tables[idx]),
                "verdict for table {idx} diverged from offline model {fingerprint}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "bit-identity check covered too few verdicts: {checked}");
    assert!(
        tabmeta_obs::lockorder::checks() > 0,
        "lock-order witness saw no acquisitions; the soak would not catch an inversion"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
