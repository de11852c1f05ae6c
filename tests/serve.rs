//! End-to-end contracts of the `psmd` estimation service: wire-level
//! estimates (JSON, binary and streamed) are byte-identical to
//! in-process `PsmFlow` estimation, v1 clients interoperate with the v2
//! daemon, malformed binary frames get structured errors, backpressure
//! is explicit (`BUSY`), registry hot-reload is atomic towards
//! in-flight requests, slow writers cannot stall other connections, and
//! shutdown drains before exiting.

use psmgen::flow::{IpPreset, PsmFlow, TrainedModel};
use psmgen::ips::{behavioural_trace, testbench, MultSum};
use psmgen::serve::protocol::{self, Frame, Opcode, Status};
use psmgen::serve::{Client, ClientError, PoolConfig, Server, ServerConfig};
use psmgen::trace::FunctionalTrace;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_registry(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psmgen-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a MultSum model from `stimuli_seeds` and saves it as a
/// registry artifact.
fn train_into(dir: &Path, file: &str, stimuli_seeds: &[u64]) -> TrainedModel {
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    let stimuli: Vec<_> = stimuli_seeds
        .iter()
        .map(|&seed| testbench::multsum_short_ts(seed))
        .collect();
    let model = flow
        .train(&mut MultSum::new(), &stimuli)
        .expect("training succeeds");
    model.save(dir.join(file)).expect("model saves");
    model
}

/// A fresh MultSum workload trace (never part of training).
fn workload(seed: u64, cycles: usize) -> FunctionalTrace {
    let stimulus = testbench::multsum_long_ts(seed, cycles);
    behavioural_trace(&mut MultSum::new(), &stimulus).expect("behavioural trace")
}

#[test]
fn eight_parallel_clients_get_byte_identical_estimates() {
    let dir = temp_registry("equivalence");
    train_into(&dir, "multsum@1.json", &[1]);

    // The reference is the facade estimating against the *loaded* model —
    // the same artifact bytes the daemon serves.
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    let loaded = TrainedModel::load(dir.join("multsum@1.json")).unwrap();

    let running = Server::bind(ServerConfig::new(&dir)).unwrap().spawn();
    let addr = running.addr();

    let clients: Vec<_> = (0..8)
        .map(|i| {
            let trace = workload(100 + i, 400 + 25 * i as usize);
            let expected = flow.estimate_from_trace(&loaded, &trace);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let reply = client
                    .estimate_json("multsum", None, &trace)
                    .expect("estimate");
                let expected_bits: Vec<u64> = expected.estimate.iter().map(f64::to_bits).collect();
                let got_bits: Vec<u64> = reply.estimate.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got_bits, expected_bits,
                    "client {i}: daemon estimate must be byte-identical to PsmFlow"
                );
                assert_eq!(
                    reply.wrong_state_predictions,
                    expected.wrong_state_predictions
                );
                assert_eq!(reply.unknown_instants, expected.unknown_instants);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    Client::connect(addr).unwrap().shutdown().unwrap();
    let report = running.join().expect("clean exit");
    assert_eq!(report.named_counter("serve.op.estimate"), 8);
    assert!(report.named_counter("serve.connections") >= 8);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_answers_busy_without_losing_accepted_work() {
    let dir = temp_registry("busy");
    train_into(&dir, "multsum@1.json", &[1]);
    let mut cfg = ServerConfig::new(&dir);
    // One worker that stalls long enough for the queue to be observably
    // full: one request in flight, one queued, the third must bounce.
    cfg.pool = PoolConfig {
        workers: 1,
        queue_capacity: 1,
        max_batch: 1,
        stall: Duration::from_millis(600),
    };
    let running = Server::bind(cfg).unwrap().spawn();
    let addr = running.addr();

    let spawn_estimate = |seed: u64| {
        std::thread::spawn(move || {
            let trace = workload(seed, 300);
            Client::connect(addr)
                .unwrap()
                .estimate_json("multsum", None, &trace)
        })
    };
    let a = spawn_estimate(1);
    std::thread::sleep(Duration::from_millis(200));
    let b = spawn_estimate(2);
    std::thread::sleep(Duration::from_millis(150));
    let trace = workload(3, 300);
    let mut c = Client::connect(addr).unwrap();
    let err = c.estimate_json("multsum", None, &trace).unwrap_err();
    assert!(matches!(err, ClientError::Busy), "expected BUSY, got {err}");

    // Backpressure never cancels accepted work.
    a.join().unwrap().expect("first request completes");
    b.join().unwrap().expect("queued request completes");

    c.shutdown().unwrap();
    let report = running.join().expect("clean exit");
    assert!(report.named_counter("serve.busy") >= 1);
    assert_eq!(report.named_counter("serve.op.estimate"), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reload_is_atomic_towards_a_live_request_stream() {
    let dir = temp_registry("reload");
    train_into(&dir, "multsum@1.json", &[1]);
    let running = Server::bind(ServerConfig::new(&dir)).unwrap().spawn();
    let addr = running.addr();

    // A client hammers estimates while the registry is swapped under it.
    let stop = Arc::new(AtomicBool::new(false));
    let stream = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let trace = workload(7, 200);
            let mut versions = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let reply = client
                    .estimate_json("multsum", None, &trace)
                    .expect("no estimate may fail across the reload");
                assert_eq!(reply.estimate.len(), trace.len());
                versions.push(reply.version);
            }
            versions
        })
    };

    std::thread::sleep(Duration::from_millis(150));
    // v2 is a genuinely different model (more training data).
    train_into(&dir, "multsum@2.json", &[1, 2]);
    let mut admin = Client::connect(addr).unwrap();
    let models = admin.reload().expect("reload succeeds");
    assert_eq!(models.len(), 2);
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::SeqCst);

    let versions = stream.join().expect("request stream");
    assert!(!versions.is_empty());
    assert_eq!(*versions.first().unwrap(), 1, "stream started on v1");
    assert_eq!(*versions.last().unwrap(), 2, "stream ended on v2");
    // Monotone flip: once v2 serves, v1 never reappears.
    let first_v2 = versions.iter().position(|&v| v == 2).expect("v2 served");
    assert!(versions[first_v2..].iter().all(|&v| v == 2));

    admin.shutdown().unwrap();
    running.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_queued_estimates_and_flushes_stats() {
    let dir = temp_registry("drain");
    train_into(&dir, "multsum@1.json", &[1]);
    let mut cfg = ServerConfig::new(&dir);
    cfg.pool = PoolConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 8,
        stall: Duration::from_millis(400),
    };
    let running = Server::bind(cfg).unwrap().spawn();
    let addr = running.addr();

    // Three estimates pile up behind the stalled worker…
    let pending: Vec<_> = (0..3)
        .map(|seed| {
            std::thread::spawn(move || {
                let trace = workload(seed, 250);
                let reply = Client::connect(addr)
                    .unwrap()
                    .estimate_json("multsum", None, &trace)
                    .expect("accepted estimate must be answered before exit");
                (reply.estimate.len(), trace.len())
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    // …then the daemon is told to shut down while they are in flight.
    Client::connect(addr).unwrap().shutdown().unwrap();

    for p in pending {
        let (got, want) = p.join().expect("pending client");
        assert_eq!(got, want, "drained estimate is complete, not truncated");
    }
    let report = running.join().expect("exit 0 equivalent: a clean Ok join");
    assert_eq!(report.named_counter("serve.op.estimate"), 3);
    assert_eq!(report.named_counter("serve.op.shutdown"), 1);
    assert!(
        report.gauge("serve.queue_depth").is_some(),
        "gauges flushed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_client_interops_with_the_v2_daemon() {
    let dir = temp_registry("v1compat");
    train_into(&dir, "multsum@1.json", &[1]);
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    let loaded = TrainedModel::load(dir.join("multsum@1.json")).unwrap();
    let running = Server::bind(ServerConfig::new(&dir)).unwrap().spawn();
    let addr = running.addr();
    let trace = workload(5, 120);
    let expected = flow.estimate_from_trace(&loaded, &trace);

    // Speak raw v1 frames — exactly what a client built before the v2
    // protocol existed sends.
    let mut sock = TcpStream::connect(addr).unwrap();
    protocol::write_frame(&mut sock, &Frame::request_v(1, Opcode::Ping, 1, Vec::new())).unwrap();
    let reply = protocol::read_frame(&mut sock)
        .unwrap()
        .expect("ping reply");
    assert_eq!(reply.version, 1, "responses echo the request's version");
    assert_eq!(reply.status(), Some(Status::Ok));
    let (tag, versions) = protocol::parse_ping_reply(&reply).unwrap();
    assert_eq!(tag, "psmd/v1", "a v1 conversation stays psmd/v1");
    assert!(
        versions.contains(&2),
        "the daemon still advertises v2 for upgraders: {versions:?}"
    );

    let payload = protocol::estimate_request("multsum", None, &trace);
    protocol::write_frame(
        &mut sock,
        &Frame::request_v(1, Opcode::Estimate, 2, payload),
    )
    .unwrap();
    let reply = protocol::read_frame(&mut sock)
        .unwrap()
        .expect("estimate reply");
    assert_eq!(reply.version, 1);
    assert_eq!(reply.status(), Some(Status::Ok));
    let doc = reply.json().unwrap();
    let got_bits: Vec<u64> = doc
        .arr_field("estimate")
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap().to_bits())
        .collect();
    let expected_bits: Vec<u64> = expected.estimate.iter().map(f64::to_bits).collect();
    assert_eq!(got_bits, expected_bits, "v1 estimates stay bit-exact");

    // v2-only opcodes inside a v1 frame are structured errors, not hangs.
    let payload = protocol::stream_close_request(1);
    protocol::write_frame(
        &mut sock,
        &Frame::request_v(1, Opcode::StreamClose, 3, payload),
    )
    .unwrap();
    let reply = protocol::read_frame(&mut sock)
        .unwrap()
        .expect("gate reply");
    assert_eq!(reply.version, 1);
    assert_eq!(reply.status(), Some(Status::Error));
    assert!(
        protocol::parse_error(&reply).contains("requires protocol v2"),
        "{}",
        protocol::parse_error(&reply)
    );

    Client::connect(addr).unwrap().shutdown().unwrap();
    running.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_binary_frames_are_structured_errors() {
    let dir = temp_registry("malformed");
    train_into(&dir, "multsum@1.json", &[1]);
    let running = Server::bind(ServerConfig::new(&dir)).unwrap().spawn();
    let addr = running.addr();
    let trace = workload(2, 60);

    // Payload-level corruption keeps the connection usable: bad magic…
    let mut client = Client::connect(addr).unwrap();
    let mut payload = protocol::estimate_bin_request("multsum", None, &trace);
    payload[0] = b'X';
    let id = client
        .pipeline_request(Opcode::EstimateBin, payload)
        .unwrap();
    let reply = client.pipeline_response().unwrap();
    assert_eq!(reply.request_id, id);
    assert_eq!(reply.status(), Some(Status::Error));

    // …and truncated bodies, cut at several depths.
    for cut in [5usize, 9, 2] {
        let full = protocol::estimate_bin_request("multsum", None, &trace);
        let mut payload = full.clone();
        payload.truncate(full.len() / cut);
        let id = client
            .pipeline_request(Opcode::EstimateBin, payload)
            .unwrap();
        let reply = client.pipeline_response().unwrap();
        assert_eq!(reply.request_id, id);
        assert_eq!(reply.status(), Some(Status::Error), "cut 1/{cut}");
    }
    // A zero-signal dictionary must not smuggle a huge cycle count past
    // the size check (each cycle would be wire-free but heap-allocated):
    // structured error, not an OOM.
    let empty = FunctionalTrace::new(psmgen::trace::SignalSet::new());
    let mut payload = protocol::estimate_bin_request("multsum", None, &empty);
    payload.push(0x02); // a second, hostile cycles frame…
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // …claiming 2^32-1 cycles
    let id = client
        .pipeline_request(Opcode::EstimateBin, payload)
        .unwrap();
    let reply = client.pipeline_response().unwrap();
    assert_eq!(reply.request_id, id);
    assert_eq!(reply.status(), Some(Status::Error));

    // The same connection still serves good requests afterwards.
    client.estimate_binary("multsum", None, &trace).unwrap();

    // An oversized frame header is answered once, then the daemon hangs
    // up — it cannot resynchronise inside a lying length field.
    let mut sock = TcpStream::connect(addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(b"PSMD");
    header.push(2);
    header.push(Opcode::EstimateBin.as_u8());
    header.extend_from_slice(&9u64.to_le_bytes());
    header.extend_from_slice(&(protocol::MAX_PAYLOAD + 1).to_le_bytes());
    sock.write_all(&header).unwrap();
    let reply = protocol::read_frame(&mut sock)
        .unwrap()
        .expect("error reply");
    assert_eq!(reply.status(), Some(Status::Error));
    assert!(matches!(protocol::read_frame(&mut sock), Ok(None) | Err(_)));

    client.shutdown().unwrap();
    let report = running.join().expect("clean exit");
    assert!(report.named_counter("serve.protocol_errors") >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_chunks_are_bit_identical_to_one_shot_estimation() {
    let dir = temp_registry("stream");
    train_into(&dir, "multsum@1.json", &[1]);
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    let loaded = TrainedModel::load(dir.join("multsum@1.json")).unwrap();
    let running = Server::bind(ServerConfig::new(&dir)).unwrap().spawn();
    let trace = workload(11, 600);
    let expected = flow.estimate_from_trace(&loaded, &trace);
    let expected_bits: Vec<u64> = expected.estimate.iter().map(f64::to_bits).collect();

    let mut client = Client::connect(running.addr()).unwrap();
    let mut stream = client
        .open_stream("multsum", None, trace.signals())
        .unwrap();
    assert_eq!(stream.model(), "multsum");
    let mut streamed = Vec::new();
    for chunk in trace.split_windows(64) {
        let reply = stream.send_chunk(&chunk).unwrap();
        streamed.extend(reply.estimate);
    }
    let summary = stream.close().unwrap();
    let streamed_bits: Vec<u64> = streamed.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        streamed_bits, expected_bits,
        "chunked estimates must be bit-identical to PsmFlow::estimate_from_trace"
    );
    assert_eq!(summary.instants, trace.len());
    assert_eq!(
        summary.wrong_state_predictions,
        expected.wrong_state_predictions
    );
    assert_eq!(summary.unknown_instants, expected.unknown_instants);

    // The binary one-shot path agrees too.
    let bin = client.estimate_binary("multsum", None, &trace).unwrap();
    let bin_bits: Vec<u64> = bin.estimate.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bin_bits, expected_bits);

    client.shutdown().unwrap();
    let report = running.join().expect("clean exit");
    assert_eq!(report.named_counter("serve.op.stream_open"), 1);
    assert_eq!(
        report.named_counter("serve.op.stream_chunk"),
        trace.len().div_ceil(64) as u64
    );
    assert_eq!(report.named_counter("serve.op.stream_close"), 1);
    assert_eq!(
        report.named_counter("serve.stream_chunks"),
        trace.len().div_ceil(64) as u64
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_partial_writer_does_not_stall_other_clients() {
    let dir = temp_registry("slowwrite");
    train_into(&dir, "multsum@1.json", &[1]);
    let running = Server::bind(ServerConfig::new(&dir)).unwrap().spawn();
    let addr = running.addr();
    let trace = workload(3, 200);

    // One connection trickles an estimate request in eight pieces with
    // long pauses; the event loop must keep serving everyone else
    // meanwhile.
    let mut bytes = Vec::new();
    protocol::write_frame(
        &mut bytes,
        &Frame::request_v(
            2,
            Opcode::EstimateBin,
            77,
            protocol::estimate_bin_request("multsum", None, &trace),
        ),
    )
    .unwrap();
    let slow = std::thread::spawn(move || {
        let mut sock = TcpStream::connect(addr).unwrap();
        let piece = bytes.len().div_ceil(8);
        for part in bytes.chunks(piece) {
            sock.write_all(part).unwrap();
            std::thread::sleep(Duration::from_millis(60));
        }
        let reply = protocol::read_frame(&mut sock)
            .unwrap()
            .expect("slow reply");
        assert_eq!(reply.status(), Some(Status::Ok));
        assert_eq!(reply.request_id, 77);
        Instant::now()
    });

    // Meanwhile a normal client completes several estimates.
    let mut fast = Client::connect(addr).unwrap();
    for _ in 0..3 {
        fast.estimate_binary("multsum", None, &trace).unwrap();
    }
    let fast_done = Instant::now();
    let slow_done = slow.join().expect("slow writer");
    assert!(
        fast_done < slow_done,
        "fast client had to finish while the slow writer was still trickling"
    );

    fast.shutdown().unwrap();
    running.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn half_closing_client_still_gets_its_responses() {
    let dir = temp_registry("halfclose");
    train_into(&dir, "multsum@1.json", &[1]);
    let running = Server::bind(ServerConfig::new(&dir)).unwrap().spawn();
    let addr = running.addr();
    let trace = workload(5, 120);

    // Pipeline two binary estimates, then shutdown(SHUT_WR) immediately:
    // the daemon sees EOF alongside the requests but must keep the
    // connection until both pool responses have been delivered.
    let mut bytes = Vec::new();
    for id in [11u64, 12] {
        protocol::write_frame(
            &mut bytes,
            &Frame::request_v(
                2,
                Opcode::EstimateBin,
                id,
                protocol::estimate_bin_request("multsum", None, &trace),
            ),
        )
        .unwrap();
    }
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.write_all(&bytes).unwrap();
    sock.shutdown(std::net::Shutdown::Write).unwrap();
    // Pool replies may arrive in either order (DESIGN.md §4, "Request
    // ids, not ordering"): match them by id.
    let mut ids = Vec::new();
    for _ in 0..2 {
        let reply = protocol::read_frame(&mut sock)
            .unwrap()
            .expect("both responses must arrive after SHUT_WR");
        assert_eq!(reply.status(), Some(Status::Ok));
        protocol::parse_estimate_bin_reply(&reply).unwrap();
        ids.push(reply.request_id);
    }
    ids.sort_unstable();
    assert_eq!(ids, [11, 12]);
    // EOF after the owed responses, not before.
    assert!(matches!(protocol::read_frame(&mut sock), Ok(None)));

    Client::connect(addr).unwrap().shutdown().unwrap();
    running.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}
