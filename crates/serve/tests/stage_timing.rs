//! Server stage timing: every answered request records its five stage
//! histograms (request decode, permit wait, classify, response encode,
//! response write), and the two stages inside the server's request timer
//! add up to `serve.request_micros`.
//!
//! The histograms live in the process-wide obs registry. This file is a
//! test binary of its own, so it runs in its own process and no other
//! test records into them.

use tabmeta_core::{Pipeline, PipelineConfig};
use tabmeta_corpora::{CorpusKind, GeneratorConfig};
use tabmeta_obs::names;
use tabmeta_serve::{Client, Request, ServeConfig, Server, ServingModel, Status};

/// Sequential requests sent on one connection.
const N: u64 = 24;
/// Tables per request.
const BATCH: usize = 8;
/// Allowed gap per request between `serve.request_micros` and permit
/// wait plus classify: the server's bookkeeping between the stages (queue
/// counters, gauges, the permit release) measured 4 µs a request in
/// release and 13 µs in debug. The test also allows 5% of the request
/// total, whichever is larger, for a preemption inside that window.
const GAP_PER_REQUEST_MICROS: u64 = 100;

/// Count and sum of a histogram in the global registry.
fn read(name: &str) -> (u64, u64) {
    let histogram = tabmeta_obs::global().histogram(name);
    (histogram.count(), histogram.sum())
}

#[test]
fn stage_histograms_count_every_request_and_add_up() {
    let corpus = CorpusKind::Ckg.generate(&GeneratorConfig { n_tables: 40, seed: 89 });
    let pipeline =
        Pipeline::train(&corpus.tables, &PipelineConfig::fast_seeded(89)).expect("trains");
    let stages = [
        names::SERVE_REQUEST_DECODE_MICROS,
        names::SERVE_PERMIT_WAIT_MICROS,
        names::SERVE_CLASSIFY_MICROS,
        names::SERVE_RESPONSE_ENCODE_MICROS,
        names::SERVE_RESPONSE_WRITE_MICROS,
    ];
    let before = stages.map(read);
    let request_before = read(names::SERVE_REQUEST_MICROS);

    let server = Server::start(
        ServingModel { pipeline, fingerprint: 1 },
        ServeConfig::default(),
        "127.0.0.1:0",
        None,
    )
    .expect("server starts");
    let mut client = Client::connect(server.local_addr(), 10_000).expect("connects");
    for id in 0..N {
        let start = id as usize * BATCH % (corpus.tables.len() - BATCH);
        let tables = corpus.tables[start..start + BATCH].to_vec();
        let response = client.call(&Request { id, tables }).expect("answered");
        assert_eq!(response.parsed_status(), Some(Status::Ok), "{response:?}");
    }
    // Closing the connection ends its handler, and shutdown joins it, so
    // the last response's write is recorded before the histograms are read.
    drop(client);
    let stats = server.shutdown().expect("clean shutdown");
    assert_eq!(stats.ok, N, "{stats:?}");

    let after = stages.map(read);
    let mut sums = [0u64; 5];
    for (i, stage) in stages.iter().enumerate() {
        assert_eq!(after[i].0 - before[i].0, N, "{stage} count");
        sums[i] = after[i].1 - before[i].1;
    }
    let request = read(names::SERVE_REQUEST_MICROS);
    assert_eq!(request.0 - request_before.0, N, "serve.request_micros count");
    let request_sum = request.1 - request_before.1;
    let [_, wait_sum, classify_sum, _, _] = sums;
    // Both stages lie inside the request's interval on one clock, so they
    // can never add up to more than it.
    assert!(
        wait_sum + classify_sum <= request_sum,
        "permit wait {wait_sum} µs + classify {classify_sum} µs > request {request_sum} µs"
    );
    let tolerance = (N * GAP_PER_REQUEST_MICROS).max(request_sum / 20);
    assert!(
        request_sum - (wait_sum + classify_sum) <= tolerance,
        "permit wait {wait_sum} µs + classify {classify_sum} µs leave more than \
         {tolerance} µs of {request_sum} µs unattributed"
    );
}
