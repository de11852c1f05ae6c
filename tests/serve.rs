//! End-to-end contracts of the `psmd` estimation service: wire-level
//! estimates (one-shot and streamed) are byte-identical to in-process
//! `PsmFlow` estimation, a v1 client gets one clean error, malformed
//! binary frames get structured errors, backpressure
//! is explicit (`BUSY`), registry hot-reload is atomic towards
//! in-flight requests, slow writers cannot stall other connections,
//! shutdown drains before exiting, `psmgen-artifact/v3` files written
//! by earlier builds still serve, and `psmctl` rejects unknown commands
//! without dialing the daemon.

use psm_persist::{JsonValue, Persist};
use psm_prng::Prng;
use psmgen::flow::{IpPreset, PsmFlow, TrainedModel};
use psmgen::hmm::HmmSimulator;
use psmgen::ips::{behavioural_trace, testbench, MultSum};
use psmgen::psm::classify_trace;
use psmgen::serve::protocol::{self, Frame, Opcode, Status};
use psmgen::serve::{Client, ClientError, PoolConfig, Registry, Server, ServerConfig};
use psmgen::trace::{Bits, Direction, FunctionalTrace, SignalSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
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
                    .estimate_binary("multsum", None, &trace)
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
    assert_eq!(report.named_counter("serve.op.estimate_bin"), 8);
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
        stall: Duration::from_millis(600),
    };
    let running = Server::bind(cfg).unwrap().spawn();
    let addr = running.addr();

    let spawn_estimate = |seed: u64| {
        std::thread::spawn(move || {
            let trace = workload(seed, 300);
            Client::connect(addr)
                .unwrap()
                .estimate_binary("multsum", None, &trace)
        })
    };
    let a = spawn_estimate(1);
    std::thread::sleep(Duration::from_millis(200));
    let b = spawn_estimate(2);
    std::thread::sleep(Duration::from_millis(150));
    let trace = workload(3, 300);
    let mut c = Client::connect(addr).unwrap();
    let err = c.estimate_binary("multsum", None, &trace).unwrap_err();
    assert!(matches!(err, ClientError::Busy), "expected BUSY, got {err}");

    // Backpressure never cancels accepted work.
    a.join().unwrap().expect("first request completes");
    b.join().unwrap().expect("queued request completes");

    c.shutdown().unwrap();
    let report = running.join().expect("clean exit");
    assert!(report.named_counter("serve.busy") >= 1);
    assert_eq!(report.named_counter("serve.op.estimate_bin"), 3);
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
                    .estimate_binary("multsum", None, &trace)
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
                    .estimate_binary("multsum", None, &trace)
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
    assert_eq!(report.named_counter("serve.op.estimate_bin"), 3);
    assert_eq!(report.named_counter("serve.op.shutdown"), 1);
    assert!(
        report.gauge("serve.queue_depth").is_some(),
        "gauges flushed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Everything the daemon sends on `sock` until it hangs up.
fn read_until_hang_up(sock: &mut TcpStream) -> Vec<u8> {
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut bytes = Vec::new();
    sock.read_to_end(&mut bytes)
        .expect("the daemon hangs up before the deadline");
    bytes
}

#[test]
fn v1_client_gets_one_clean_error() {
    let dir = temp_registry("v1-refused");
    train_into(&dir, "multsum@1.json", &[1]);
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    let loaded = TrainedModel::load(dir.join("multsum@1.json")).unwrap();
    let running = Server::bind(ServerConfig::new(&dir)).unwrap().spawn();
    let addr = running.addr();
    let trace = workload(5, 120);

    // Raw frames as a client built for the retired v1 dialect wrote them:
    // a v1 PING and a v1 JSON ESTIMATE (kind 0x01).
    let frame = |version: u8, kind: u8, id: u64, payload: &[u8]| {
        let mut bytes = b"PSMD".to_vec();
        bytes.push(version);
        bytes.push(kind);
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    };
    let estimate_json = JsonValue::obj([
        ("model", JsonValue::from("multsum")),
        ("trace", trace.to_json()),
    ])
    .render()
    .into_bytes();
    let cases = [
        (frame(1, 0x05, 1, &[]), 1, "unsupported protocol version 1"),
        (
            frame(1, 0x01, 2, &estimate_json),
            1,
            "unsupported protocol version 1",
        ),
        // The retired opcode inside a current frame fails on its kind.
        (
            frame(2, 0x01, 3, &estimate_json),
            2,
            "unknown frame kind byte 0x01",
        ),
    ];
    for (i, (request, stamp, reason)) in cases.into_iter().enumerate() {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(&request).unwrap();
        let bytes = read_until_hang_up(&mut sock);
        assert!(bytes.len() > protocol::HEADER_LEN, "case {i}: {bytes:?}");
        assert_eq!(&bytes[..4], b"PSMD", "case {i}");
        assert_eq!(
            bytes[4], stamp,
            "case {i}: the reply speaks the peer's version"
        );
        // Read the body through today's parser, whatever the stamp.
        let mut as_v2 = bytes.clone();
        as_v2[4] = protocol::PROTOCOL_VERSION;
        let (reply, used) = protocol::parse_frame_bytes(&as_v2)
            .unwrap()
            .expect("one whole frame");
        assert_eq!(used, bytes.len(), "case {i}: exactly one frame, then EOF");
        assert_eq!(reply.request_id, i as u64 + 1, "case {i}: the id is echoed");
        assert_eq!(reply.status(), Some(Status::Error), "case {i}");
        let message = protocol::parse_error(&reply);
        assert!(message.contains(reason), "case {i}: {message}");
        assert!(message.contains("v2"), "case {i}: {message}");
    }

    // A current client on a new connection is served bit-exactly.
    let expected = flow.estimate_from_trace(&loaded, &trace);
    let mut client = Client::connect(addr).unwrap();
    let reply = client.estimate_binary("multsum", None, &trace).unwrap();
    let got_bits: Vec<u64> = reply.estimate.iter().map(|v| v.to_bits()).collect();
    let expected_bits: Vec<u64> = expected.estimate.iter().map(f64::to_bits).collect();
    assert_eq!(got_bits, expected_bits);

    client.shutdown().unwrap();
    let report = running.join().expect("clean exit");
    assert_eq!(report.named_counter("serve.protocol_errors"), 3);
    assert_eq!(report.named_counter("serve.op.ping"), 0);
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
fn interface_mismatch_is_an_error_reply_not_a_dead_worker() {
    let dir = temp_registry("mismatch");
    train_into(&dir, "multsum@1.json", &[1]);
    let flow = PsmFlow::builder().preset(IpPreset::MultSum).build();
    let loaded = TrainedModel::load(dir.join("multsum@1.json")).unwrap();
    // One worker: a job that panicked it would leave nobody to answer
    // the valid request below.
    let mut cfg = ServerConfig::new(&dir);
    cfg.pool.workers = 1;
    let running = Server::bind(cfg).unwrap().spawn();
    let mut client = Client::connect(running.addr()).unwrap();

    // A one-signal trace against the MultSum model's interface.
    let mut signals = SignalSet::new();
    signals.push("en", 1, Direction::Input).unwrap();
    let mut narrow = FunctionalTrace::new(signals);
    for t in 0..8u64 {
        narrow.push_cycle(vec![Bits::from_u64(t % 2, 1)]).unwrap();
    }
    // Sent on a raw socket with a read deadline, so a dead worker fails
    // the test instead of hanging it.
    let mut sock = TcpStream::connect(running.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let payload = protocol::estimate_bin_request("multsum", None, &narrow);
    protocol::write_frame(&mut sock, &Frame::request(Opcode::EstimateBin, 7, payload)).unwrap();
    let reply = protocol::read_frame(&mut sock)
        .expect("a reply before the deadline")
        .expect("an open connection");
    assert_eq!(reply.request_id, 7);
    assert_eq!(reply.status(), Some(Status::Error));
    drop(sock);
    // The client's estimate and the stream opener refuse it the same way.
    assert!(matches!(
        client.estimate_binary("multsum", None, &narrow),
        Err(ClientError::Server(msg)) if msg.contains("interface mismatch")
    ));
    assert!(matches!(
        client.open_stream("multsum", None, narrow.signals()),
        Err(ClientError::Server(_))
    ));

    // The next valid request on the same daemon answers bit-identically.
    let trace = workload(3, 300);
    let expected = flow.estimate_from_trace(&loaded, &trace);
    let bin = client.estimate_binary("multsum", None, &trace).unwrap();
    let bin_bits: Vec<u64> = bin.estimate.iter().map(|v| v.to_bits()).collect();
    let expected_bits: Vec<u64> = expected.estimate.iter().map(f64::to_bits).collect();
    assert_eq!(bin_bits, expected_bits);

    client.shutdown().unwrap();
    let report = running.join().expect("clean exit");
    assert_eq!(report.named_counter("serve.interface_mismatch"), 3);
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
        &Frame::request(
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
        (Instant::now(), reply.payload)
    });

    // Meanwhile a normal client completes several estimates of the same
    // trace.
    let mut fast = Client::connect(addr).unwrap();
    let mut fast_payload = Vec::new();
    for _ in 0..3 {
        fast.pipeline_request(
            Opcode::EstimateBin,
            protocol::estimate_bin_request("multsum", None, &trace),
        )
        .unwrap();
        let reply = fast.pipeline_response().unwrap();
        assert_eq!(reply.status(), Some(Status::Ok));
        fast_payload = reply.payload;
    }
    let fast_done = Instant::now();
    let (slow_done, slow_payload) = slow.join().expect("slow writer");
    assert!(
        fast_done < slow_done,
        "fast client had to finish while the slow writer was still trickling"
    );
    // Reassembling the trickled frame changes nothing in the answer.
    assert_eq!(
        slow_payload, fast_payload,
        "the slow writer's reply differs from the fast client's"
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
            &Frame::request(
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

#[test]
fn inline_errors_are_one_error_reply_each() {
    let dir = temp_registry("inline-errors");
    train_into(&dir, "multsum@1.json", &[1]);
    let running = Server::bind(ServerConfig::new(&dir)).unwrap().spawn();
    let trace = workload(4, 40);
    let mut sock = TcpStream::connect(running.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut call = |op: Opcode, id: u64, payload: Vec<u8>| {
        protocol::write_frame(&mut sock, &Frame::request(op, id, payload)).unwrap();
        let reply = protocol::read_frame(&mut sock)
            .expect("a reply before the deadline")
            .expect("an open connection");
        assert_eq!(reply.request_id, id);
        reply
    };

    let opened = call(
        Opcode::StreamOpen,
        1,
        protocol::stream_open_request(1, "multsum", None, trace.signals()),
    );
    assert_eq!(opened.status(), Some(Status::Ok));
    let mut bad_chunk = protocol::stream_chunk_request(1, &trace);
    bad_chunk.pop();
    let cases: Vec<(Opcode, Vec<u8>)> = vec![
        (
            Opcode::EstimateBin,
            protocol::estimate_bin_request("nosuch", None, &trace),
        ),
        (
            Opcode::EstimateBin,
            protocol::estimate_bin_request("multsum", Some(9), &trace),
        ),
        (
            Opcode::StreamOpen,
            protocol::stream_open_request(1, "multsum", None, trace.signals()),
        ),
        (
            Opcode::StreamChunk,
            protocol::stream_chunk_request(5, &trace),
        ),
        (Opcode::StreamClose, protocol::stream_close_request(6)),
        (Opcode::StreamChunk, bad_chunk),
    ];
    let expected = [
        "unknown model nosuch",
        "unknown model multsum@9",
        "stream 1 is already open",
        "stream 5 is not open",
        "stream 6 is not open",
        "malformed payload: JSON schema error: binary trace payload truncated at byte 14: need 7720 more byte(s), have 7719",
    ];
    for (i, ((op, payload), want)) in cases.into_iter().zip(expected).enumerate() {
        let id = 10 + i as u64;
        let reply = call(op, id, payload);
        assert_eq!(reply.status(), Some(Status::Error), "case {i}");
        assert_eq!(protocol::parse_error(&reply), want, "case {i}");
    }

    // The connection still serves a good estimate afterwards.
    let reply = call(
        Opcode::EstimateBin,
        99,
        protocol::estimate_bin_request("multsum", None, &trace),
    );
    assert_eq!(reply.status(), Some(Status::Ok));
    let bin = protocol::parse_estimate_bin_reply(&reply).unwrap();
    assert_eq!(bin.estimate.len(), trace.len());

    Client::connect(running.addr()).unwrap().shutdown().unwrap();
    running.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// `examples/artifacts/verify_defect_legacy_v3.json` is
/// `verify_defect.json` as an earlier build wrote it with a compiled
/// section, in a layout that still held tables the forward pass never
/// read (the sorted observation dictionary, π, the entry chain ids, the
/// state attributes). The registry ignores that section, so the file
/// serves its v2 source's estimates bit for bit.
#[test]
fn legacy_v3_artifact_serves_like_its_v2_source() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/artifacts");
    let legacy = fixtures.join("verify_defect_legacy_v3.json");
    let legacy_text = std::fs::read_to_string(&legacy).unwrap();
    assert!(legacy_text.starts_with("psmgen-artifact/v3\n"));
    assert!(
        legacy_text.contains("\"dict_rows\""),
        "the fixture is legacy"
    );

    let dir = temp_registry("legacy-v3");
    std::fs::copy(
        fixtures.join("verify_defect.json"),
        dir.join("defect@1.json"),
    )
    .unwrap();
    std::fs::copy(&legacy, dir.join("defect@2.json")).unwrap();

    let model = TrainedModel::load(dir.join("defect@1.json")).unwrap();
    let mut rng = Prng::seed_from_u64(19);
    let mut trace = FunctionalTrace::new(model.table.vocabulary().signals().clone());
    for _ in 0..2_000 {
        let row = [rng.range_u64(0..2), rng.range_u64(0..2)];
        trace.push_words(&row).unwrap();
    }
    let want = HmmSimulator::new(&model.psm, model.hmm.clone()).run(
        &classify_trace(&model.table, &trace),
        &trace.input_hamming_series(),
    );

    let registry = Registry::open(&dir).expect("registry opens");
    for (version, format) in [(1, 2), (2, 3)] {
        let served = registry.snapshot().lookup("defect", Some(version)).unwrap();
        assert_eq!(served.format_version, format, "defect@{version}");
        let got = served.estimate(&trace);
        assert_eq!(got.wrong_state_predictions, want.wrong_state_predictions);
        assert_eq!(got.unknown_instants, want.unknown_instants);
        assert_eq!(got.estimate.len(), trace.len());
        for (t, (g, w)) in got.estimate.iter().zip(want.estimate.iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "defect@{version}, instant {t}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `psmctl` rejects a command it does not know as a usage error (exit 2)
/// before it dials the daemon; the retired offline `compile` command is
/// one of them.
#[test]
fn psmctl_rejects_unknown_commands_before_connecting() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    for args in [&["frobnicate"][..], &["compile", "a.json", "b.json"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_psmctl"))
            .arg("--addr")
            .arg(&addr)
            .args(args)
            .output()
            .expect("psmctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown command `{}`", args[0])),
            "{args:?}: {stderr}"
        );
        let accepted = listener.accept();
        assert!(
            matches!(&accepted, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "{args:?}: psmctl connected before rejecting the command"
        );
    }
}

/// A bad option value is a usage error too (exit 2, with the usage
/// text), caught before psmctl dials the daemon.
#[test]
fn psmctl_option_value_errors_are_usage_errors() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    for (args, message) in [
        (
            &["--format", "xml", "list"][..],
            "--format needs text or json",
        ),
        (
            &["--chunks", "0", "list"],
            "--chunks needs a positive number",
        ),
        (&["--version", "x", "list"], "--version needs a number"),
        (&["list", "--addr"], "--addr needs ip:port"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_psmctl"))
            .arg("--addr")
            .arg(&addr)
            .args(args)
            .output()
            .expect("psmctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: psmctl"), "{args:?}: {stderr}");
        let accepted = listener.accept();
        assert!(
            matches!(&accepted, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "{args:?}: psmctl connected before rejecting the option"
        );
    }
}

/// A well-formed command whose workload cannot be loaded is a runtime
/// error (exit 1, no usage text); a malformed `--gen` spec, an unknown IP
/// or not exactly one workload source is a usage error (exit 2). Either
/// way psmctl stops before it dials the daemon.
#[test]
fn psmctl_workload_errors_split_runtime_from_usage() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let dir = temp_registry("psmctl-workload");
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "psmgen-artifact/v2\n{\"not\":\"a trace\"}\n").unwrap();
    let missing = dir.join("missing.json");
    let (garbage, missing) = (garbage.to_str().unwrap(), missing.to_str().unwrap());
    for (args, code, message) in [
        (&["estimate", "m", "--trace", missing][..], 1, "cannot read"),
        (&["estimate", "m", "--trace", garbage], 1, garbage),
        (&["bench", "m", "--trace", missing], 1, "cannot read"),
        (
            &["estimate", "m", "--gen", "MultSum:7"],
            2,
            "--gen wants <IP>:<seed>:<cycles>",
        ),
        (
            &["estimate", "m", "--gen", "MultSum:x:10"],
            2,
            "bad seed `x`",
        ),
        (
            &["bench", "m", "--gen", "MultSum:7:y"],
            2,
            "bad cycle count `y`",
        ),
        (
            &["estimate", "m", "--gen", "Nope:7:10"],
            2,
            "unknown IP `Nope`",
        ),
        (&["estimate", "m"], 2, "exactly one of --gen or --trace"),
        (
            &["estimate", "m", "--gen", "MultSum:7:10", "--trace", missing],
            2,
            "exactly one of --gen or --trace",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_psmctl"))
            .arg("--addr")
            .arg(&addr)
            .args(args)
            .output()
            .expect("psmctl runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert_eq!(
            stderr.contains("usage: psmctl"),
            code == 2,
            "{args:?}: usage text iff usage error: {stderr}"
        );
        let accepted = listener.accept();
        assert!(
            matches!(&accepted, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "{args:?}: psmctl connected before rejecting the workload"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
