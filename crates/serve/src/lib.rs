//! `tabmeta-serve`: a hardened concurrent classification server.
//!
//! The long-lived half of the pipeline: load a model once through the
//! validating [`tabmeta_core::persist`] loader, share its read-only
//! classify state across connection threads behind an `Arc`, and answer
//! batch classify requests over a zero-dependency, length-prefixed
//! JSON-over-TCP protocol (`std::net` only, like `tabmeta-lint`'s
//! zero-dep discipline). Each connection classifies on its own thread;
//! a permit count bounds how many classify at once.
//!
//! Robustness properties, each enforced by the chaos gate
//! (`tests/serve_chaos.rs`):
//!
//! * **Bounded admission** — at most `queue_capacity` requests wait for
//!   a permit; one more means an immediate typed `overloaded` response
//!   carrying a `retry_after_ms` hint for the client, never unbounded
//!   growth.
//! * **Panic isolation** — a panic inside classification is caught per
//!   request; the poisoned request gets a typed `internal_error`
//!   rejection, its permit is released, and the connection keeps serving.
//! * **Deadlines** — a request that gets no permit within its deadline
//!   is answered `deadline_exceeded`, not silently served stale.
//! * **Slow-peer protection** — read/write socket timeouts; a peer that
//!   cannot complete a frame in time gets `slow_read` and a close.
//! * **Typed failure** — malformed JSON, oversized length prefixes, and
//!   truncated frames each map to a distinct [`protocol::Status`] or
//!   wire tag, all counted under `serve.rejected.<reason>`.
//! * **Hot reload** — a watcher polls the model path; a changed artifact
//!   is deep-validated (envelope fingerprint + CRC + schema + weights)
//!   and atomically swapped in. In-flight requests finish on the model
//!   they started with; a failing candidate is rejected typed and the
//!   old model keeps serving.
//! * **Graceful drain** — shutdown stops admissions (typed
//!   `shutting_down`) and joins every connection thread, each of which
//!   answers the request it admitted. [`server::StatsSnapshot::admissions_conserved`]
//!   is the machine-checkable zero-drop invariant.
//!
//! Every successful response carries the serving model's fingerprint
//! and per-table verdicts with full degraded/quarantine provenance, so
//! clients can pin any verdict to the exact model that produced it even
//! across reloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod protocol;
pub mod server;

pub use protocol::{Request, Response, Status, WireError};
pub use server::{Client, ServeConfig, Server, ServingModel, StatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tabmeta_core::persist::save_pipeline;
    use tabmeta_core::{Pipeline, PipelineConfig};
    use tabmeta_corpora::{CorpusKind, GeneratorConfig};
    use tabmeta_obs::clock;
    use tabmeta_tabular::Table;

    fn train(seed: u64) -> (Pipeline, Vec<Table>) {
        let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 30, seed });
        let pipeline = Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(seed))
            .expect("tiny training run");
        (pipeline, corpus.tables)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tabmeta-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Poll until `done` or the timeout elapses; true when `done` won.
    fn wait_until(timeout_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        let start = clock::monotonic_millis();
        while clock::monotonic_millis().saturating_sub(start) < timeout_ms {
            if done() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        done()
    }

    #[test]
    fn end_to_end_verdicts_match_offline() {
        let (pipeline, tables) = train(41);
        let offline: Vec<_> = tables[..4].iter().map(|t| pipeline.classify(t)).collect();
        // Large enough for classify_corpus to split it across workers.
        let split: Vec<Table> =
            tables.iter().cycle().take(2 * tabmeta_core::MIN_TABLES_PER_WORKER).cloned().collect();
        let offline_split: Vec<_> = split.iter().map(|t| pipeline.classify(t)).collect();
        let fingerprint = 0xfeed_beef;
        let server = Server::start(
            ServingModel { pipeline, fingerprint },
            ServeConfig { workers: 2, ..ServeConfig::default() },
            "127.0.0.1:0",
            None,
        )
        .unwrap();

        let mut client = Client::connect(server.local_addr(), 2_000).unwrap();
        let response = client.call(&Request { id: 9, tables: tables[..4].to_vec() }).unwrap();
        assert_eq!(response.parsed_status(), Some(Status::Ok));
        assert!(response.is_well_formed());
        assert_eq!(response.id, 9);
        assert_eq!(response.model_fingerprint, format!("{fingerprint:016x}"));
        assert_eq!(response.verdicts, offline);
        let response = client.call(&Request { id: 19, tables: split }).unwrap();
        assert_eq!(response.parsed_status(), Some(Status::Ok));
        assert_eq!(response.verdicts, offline_split);

        // Malformed JSON in a well-framed payload → typed bad_request,
        // connection stays usable.
        let mut garbage = Vec::new();
        protocol::write_frame(&mut garbage, b"{not json").unwrap();
        client.send_raw(&garbage).unwrap();
        let rejection = client.read_response().unwrap();
        assert_eq!(rejection.parsed_status(), Some(Status::BadRequest));
        assert!(rejection.is_well_formed());
        let after = client.call(&Request { id: 10, tables: tables[..1].to_vec() }).unwrap();
        assert_eq!(after.parsed_status(), Some(Status::Ok));

        // Well-formed JSON of the wrong shape — a ragged grid, ground
        // truth that does not match the grid — is a typed bad_request
        // too, and the connection keeps serving.
        let cell = r#"{"text":"a","markup":{"th":false,"thead":false,"bold":false,"indent":0}}"#;
        let request = |cells: &str, truth: &str| {
            format!(
                r#"{{"id":11,"tables":[{{"id":1,"caption":"","cells":{cells},"truth":{truth},"has_markup":false}}]}}"#
            )
        };
        let ragged = request(&format!("[[{cell},{cell}],[{cell}]]"), "null");
        let mis_shaped =
            request(&format!("[[{cell}]]"), r#"{"rows":["Data","Data"],"columns":["Data"]}"#);
        for (payload, wanted) in [(ragged, "ragged grid"), (mis_shaped, "ground truth shape")] {
            let mut frame = Vec::new();
            protocol::write_frame(&mut frame, payload.as_bytes()).unwrap();
            client.send_raw(&frame).unwrap();
            let rejection = client.read_response().unwrap();
            assert_eq!(rejection.parsed_status(), Some(Status::BadRequest));
            assert!(rejection.is_well_formed());
            assert!(rejection.detail.contains(wanted), "{}", rejection.detail);
            let after = client.call(&Request { id: 12, tables: tables[..1].to_vec() }).unwrap();
            assert_eq!(after.parsed_status(), Some(Status::Ok));
        }

        let stats = server.shutdown().unwrap();
        assert!(stats.admissions_conserved(), "{stats:?}");
        assert_eq!(stats.ok, 5);
        assert_eq!(stats.bad_request, 3);
    }

    #[test]
    fn oversized_frame_rejected_before_read() {
        let (pipeline, _) = train(43);
        let server = Server::start(
            ServingModel { pipeline, fingerprint: 1 },
            ServeConfig { workers: 1, max_frame_bytes: 256, ..ServeConfig::default() },
            "127.0.0.1:0",
            None,
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr(), 2_000).unwrap();
        // Declare a body far above the bound without sending one.
        client.send_raw(&1_000_000u32.to_le_bytes()).unwrap();
        let rejection = client.read_response().unwrap();
        assert_eq!(rejection.parsed_status(), Some(Status::FrameTooLarge));
        assert!(rejection.is_well_formed());
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.frame_too_large, 1);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn slow_client_gets_typed_close() {
        let (pipeline, _) = train(47);
        let server = Server::start(
            ServingModel { pipeline, fingerprint: 1 },
            ServeConfig { workers: 1, io_timeout_ms: 120, ..ServeConfig::default() },
            "127.0.0.1:0",
            None,
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr(), 3_000).unwrap();
        // Half a header, then stall past the server's read timeout.
        client.send_raw(&[7u8, 0]).unwrap();
        let rejection = client.read_response().unwrap();
        assert_eq!(rejection.parsed_status(), Some(Status::SlowRead));
        assert!(rejection.is_well_formed());
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.slow_read, 1);
    }

    #[test]
    fn hot_reload_swaps_and_rejects_corrupt() {
        let (pipeline_a, tables) = train(53);
        let (pipeline_b, _) = train(59);
        let offline_b = pipeline_b.classify(&tables[0]);
        let dir = tmp_dir("reload");
        let path = dir.join("model.tma");
        save_pipeline(&path, &pipeline_a, 0xa).unwrap();

        let server = Server::start(
            ServingModel { pipeline: pipeline_a, fingerprint: 0xa },
            ServeConfig { workers: 1, reload_poll_ms: 10, ..ServeConfig::default() },
            "127.0.0.1:0",
            Some(path.clone()),
        )
        .unwrap();
        assert_eq!(server.model_fingerprint(), 0xa);

        // A valid new artifact swaps in.
        save_pipeline(&path, &pipeline_b, 0xb).unwrap();
        assert!(
            wait_until(5_000, || server.model_fingerprint() == 0xb),
            "reload never swapped: stats {:?}",
            server.stats()
        );
        let mut client = Client::connect(server.local_addr(), 2_000).unwrap();
        let response = client.call(&Request { id: 1, tables: vec![tables[0].clone()] }).unwrap();
        assert_eq!(response.model_fingerprint, format!("{:016x}", 0xbu64));
        assert_eq!(response.verdicts, vec![offline_b.clone()]);

        // A corrupted artifact is rejected typed; the old model serves on.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        tabmeta_core::atomic_write(&path, &bytes).unwrap();
        assert!(
            wait_until(5_000, || server.stats().reload_rejected >= 1),
            "corrupt artifact never observed"
        );
        assert_eq!(server.model_fingerprint(), 0xb);
        assert_eq!(server.last_reload_error(), "checksum_mismatch");
        let response = client.call(&Request { id: 2, tables: vec![tables[0].clone()] }).unwrap();
        assert_eq!(response.verdicts, vec![offline_b]);

        let stats = server.shutdown().unwrap();
        assert!(stats.reloads >= 1);
        assert_eq!(stats.reload_rejected, 1);
        assert!(stats.admissions_conserved(), "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_request_is_rejected_typed_and_worker_survives() {
        let (pipeline, tables) = train(67);
        let server = Server::start(
            ServingModel { pipeline, fingerprint: 7 },
            ServeConfig { workers: 1, ..ServeConfig::default() },
            "127.0.0.1:0",
            None,
        )
        .unwrap();
        const POISON: u64 = 0xdead_0001;
        server::POISON_REQUEST_ID.store(POISON, std::sync::atomic::Ordering::Relaxed);

        let mut client = Client::connect(server.local_addr(), 2_000).unwrap();
        let rejected =
            client.call(&Request { id: POISON, tables: vec![tables[0].clone()] }).unwrap();
        assert_eq!(rejected.parsed_status(), Some(Status::InternalError));
        assert!(rejected.is_well_formed());
        assert!(rejected.detail.contains("panicked"), "{}", rejected.detail);

        // The panic was caught and the sole permit released: the same
        // connection gets a real classification afterwards.
        server::POISON_REQUEST_ID.store(u64::MAX, std::sync::atomic::Ordering::Relaxed);
        let ok = client.call(&Request { id: 8, tables: vec![tables[0].clone()] }).unwrap();
        assert_eq!(ok.parsed_status(), Some(Status::Ok));
        assert_eq!(ok.verdicts.len(), 1);

        let stats = server.shutdown().unwrap();
        assert_eq!(stats.internal_error, 1);
        assert_eq!(stats.ok, 1);
        assert!(stats.admissions_conserved(), "{stats:?}");
    }

    /// Every body that holds a request through the process-wide
    /// `HOLD_REQUEST_ID` switch runs here, in sequence: as separate tests,
    /// one body's release would free the other's held request.
    #[test]
    fn held_permit_sheds_expires_and_wakes_waiters() {
        saturated_server_sheds_overloaded_and_deadline_exceeded();
        released_permit_wakes_the_parked_request();
    }

    fn saturated_server_sheds_overloaded_and_deadline_exceeded() {
        use std::sync::atomic::Ordering::Relaxed;
        let (pipeline, tables) = train(71);
        let server = Server::start(
            ServingModel { pipeline, fingerprint: 5 },
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                deadline_ms: 200,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
            None,
        )
        .unwrap();
        const HELD: u64 = 0xdead_0002;
        server::HOLD_REQUEST_ID.store(HELD, Relaxed);
        let addr = server.local_addr();
        let send = |id: u64| {
            let request = Request { id, tables: vec![tables[0].clone()] };
            std::thread::spawn(move || Client::connect(addr, 5_000)?.call(&request))
        };

        // A holds the only classify slot; B waits behind it. C connects
        // first, so it can be sent well inside B's deadline.
        let a = send(HELD);
        assert!(wait_until(5_000, || server.stats().in_flight == 1), "{:?}", server.stats());
        let mut c = Client::connect(addr, 5_000).unwrap();
        let b = send(12);
        assert!(wait_until(5_000, || server.stats().queue_depth == 1), "{:?}", server.stats());

        // C finds the queue full and is shed with a retry hint.
        let c = c.call(&Request { id: 13, tables: vec![tables[0].clone()] }).unwrap();
        assert_eq!(c.parsed_status(), Some(Status::Overloaded));
        assert!(c.is_well_formed());
        assert!(c.retry_after_ms > 0, "{c:?}");

        // B outwaits its deadline while A is held, then A completes.
        std::thread::sleep(std::time::Duration::from_millis(300));
        server::HOLD_REQUEST_ID.store(u64::MAX, Relaxed);
        let b = b.join().unwrap().unwrap();
        assert_eq!(b.parsed_status(), Some(Status::DeadlineExceeded));
        assert!(b.is_well_formed());
        let a = a.join().unwrap().unwrap();
        assert_eq!(a.parsed_status(), Some(Status::Ok));
        assert_eq!(a.verdicts.len(), 1);

        let stats = server.shutdown().unwrap();
        assert!(stats.admissions_conserved(), "{stats:?}");
        assert_eq!((stats.ok, stats.deadline_exceeded, stats.overloaded), (1, 1, 1), "{stats:?}");
    }

    fn released_permit_wakes_the_parked_request() {
        use std::sync::atomic::Ordering::Relaxed;
        const DEADLINE_MS: u64 = 10_000;
        let (pipeline, tables) = train(73);
        let offline: Vec<_> = tables[..2].iter().map(|t| pipeline.classify(t)).collect();
        let server = Server::start(
            ServingModel { pipeline, fingerprint: 6 },
            ServeConfig { workers: 1, deadline_ms: DEADLINE_MS, ..ServeConfig::default() },
            "127.0.0.1:0",
            None,
        )
        .unwrap();
        const HELD: u64 = 0xdead_0003;
        server::HOLD_REQUEST_ID.store(HELD, Relaxed);
        let addr = server.local_addr();
        let send = |id: u64| {
            let request = Request { id, tables: tables[..2].to_vec() };
            std::thread::spawn(move || Client::connect(addr, 2 * DEADLINE_MS)?.call(&request))
        };

        // A holds the only classify permit; B parks waiting for it.
        let a = send(HELD);
        assert!(wait_until(5_000, || server.stats().in_flight == 1), "{:?}", server.stats());
        let b = send(14);
        assert!(wait_until(5_000, || server.stats().queue_depth == 1), "{:?}", server.stats());

        // Releasing A frees the permit, and its notify wakes B: B is
        // served well inside its deadline, not when the deadline's final
        // re-check would find the permit free.
        let released = clock::monotonic_millis();
        server::HOLD_REQUEST_ID.store(u64::MAX, Relaxed);
        let a = a.join().unwrap().unwrap();
        assert_eq!(a.parsed_status(), Some(Status::Ok));
        let b = b.join().unwrap().unwrap();
        let waited = clock::monotonic_millis().saturating_sub(released);
        assert_eq!(b.parsed_status(), Some(Status::Ok), "{b:?}");
        assert_eq!(b.verdicts, offline);
        assert!(waited < DEADLINE_MS / 2, "B woke only after {waited} ms");

        let stats = server.shutdown().unwrap();
        assert!(stats.admissions_conserved(), "{stats:?}");
        assert_eq!((stats.ok, stats.deadline_exceeded), (2, 0), "{stats:?}");
    }

    #[test]
    fn drained_shutdown_conserves_admissions() {
        let (pipeline, tables) = train(61);
        let offline = pipeline.classify(&tables[0]);
        let server = Server::start(
            ServingModel { pipeline, fingerprint: 3 },
            ServeConfig { workers: 1, ..ServeConfig::default() },
            "127.0.0.1:0",
            None,
        )
        .unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr, 2_000).unwrap();
        let ok = client.call(&Request { id: 5, tables: vec![tables[0].clone()] }).unwrap();
        assert_eq!(ok.verdicts, vec![offline]);
        let stats = server.shutdown().unwrap();
        assert!(stats.admissions_conserved(), "{stats:?}");
        assert_eq!(stats.ok, 1);
    }
}
