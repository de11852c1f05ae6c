//! `psmctl` — client CLI for the `psmd` estimation daemon.
//!
//! Submits functional traces for estimation (generated from the built-in
//! IP testbenches or loaded from a trace artifact) as binary frames —
//! one-shot or streamed in chunks — benchmarks a daemon with pipelined streams, lists and hot-reloads the
//! daemon's model registry, fetches its stats, and shuts it down.
//! Results print as text or the machine-readable JSON the workspace's
//! other tools emit on stdout; progress goes to stderr.

use psm_persist::{decode_artifact, JsonValue, Persist};
use psmgen::ips::{behavioural_trace, ip_by_name, testbench};
use psmgen::serve::protocol::{self, Opcode, Status, PROTOCOL_VERSION};
use psmgen::serve::{Client, ClientError, EstimateReply, ModelInfo, DEFAULT_ADDR};
use psmgen::trace::FunctionalTrace;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: psmctl [--addr <ip:port>] <command> [options]

Commands:
  ping                        liveness probe (the daemon must speak psmd/v2)
  list                        models in the daemon's registry snapshot
  estimate <model>            estimate a workload against <model>
      --version <n>           pin a registry version (default: latest)
      --gen <IP>:<seed>:<cycles>  generate the workload from a built-in
                              testbench (IP: RAM, MultSum, AES, Camellia)
      --trace <path>          load the workload from a trace artifact
                              (FunctionalTrace JSON)
      --stream                stream the workload through a session
      --chunks <k>            cycles per streamed chunk (default 256)
      --format <text|json>    output format (default text)
  bench <model>               streaming throughput/latency benchmark
      --gen <IP>:<seed>:<cycles>  the per-chunk workload (required;
                              the seed makes runs reproducible)
      --clients <n>           parallel connections (default 4)
      --streams <m>           in-flight streams per connection (default 4)
      --rounds <r>            chunks sent per stream (default 32)
      --format <text|json>    report format (default text)
  stats [--format text|json]  the daemon's telemetry report
  reload                      atomically reload the model registry
  shutdown                    drain in-flight work and stop the daemon

Options:
  --addr <ip:port>  daemon address (default 127.0.0.1:7411)
  -h, --help        show this help

Exit status: 0 on success, 1 on errors, 2 on usage errors, 3 when the
daemon answered BUSY (queue full — safe to retry).";

/// Every command `USAGE` lists; anything else is a usage error before
/// any connection is made.
const COMMANDS: [&str; 7] = [
    "ping", "list", "estimate", "bench", "stats", "reload", "shutdown",
];

fn fail(message: &str) -> ExitCode {
    eprintln!("psmctl: {message}");
    ExitCode::FAILURE
}

/// A malformed command line: the message and `USAGE`, exit 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("psmctl: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn client_exit(err: &ClientError) -> ExitCode {
    eprintln!("psmctl: {err}");
    match err {
        ClientError::Busy => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    }
}

/// Builds the estimate workload from `--gen IP:seed:cycles` or `--trace`.
///
/// A malformed `--gen` spec, an unknown IP and passing neither or both
/// sources are usage errors (exit 2); a trace file that cannot be read or
/// parsed and a failing trace generation are runtime errors (exit 1).
fn load_workload(gen: Option<&str>, trace: Option<&str>) -> Result<FunctionalTrace, ExitCode> {
    match (gen, trace) {
        (Some(spec), None) => {
            let parts: Vec<&str> = spec.split(':').collect();
            let [ip_name, seed, cycles] = parts.as_slice() else {
                return Err(usage_error(&format!(
                    "--gen wants <IP>:<seed>:<cycles>, got `{spec}`"
                )));
            };
            let seed: u64 = seed
                .parse()
                .map_err(|_| usage_error(&format!("bad seed `{seed}`")))?;
            let cycles: usize = cycles
                .parse()
                .map_err(|_| usage_error(&format!("bad cycle count `{cycles}`")))?;
            let unknown = || usage_error(&format!("unknown IP `{ip_name}`"));
            let stimulus = testbench::long_ts(ip_name, seed, cycles).ok_or_else(unknown)?;
            let mut ip = ip_by_name(ip_name).ok_or_else(unknown)?;
            behavioural_trace(ip.as_mut(), &stimulus)
                .map_err(|e| fail(&format!("generating trace: {e}")))
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| fail(&format!("cannot read {path}: {e}")))?;
            let (_, doc) = decode_artifact(&text).map_err(|e| fail(&format!("{path}: {e}")))?;
            FunctionalTrace::from_json(&doc).map_err(|e| fail(&format!("{path}: {e}")))
        }
        _ => Err(usage_error(
            "estimate needs exactly one of --gen or --trace",
        )),
    }
}

fn print_models(models: &[ModelInfo], action: &str) {
    println!("{action}: {} model(s)", models.len());
    for m in models {
        println!(
            "  {}@{}  format v{}  {} state(s), {} proposition(s)",
            m.name, m.version, m.format_version, m.states, m.propositions
        );
    }
}

fn print_estimate(reply: &EstimateReply, format: &str) {
    if format == "json" {
        let doc = JsonValue::obj([
            ("model", JsonValue::from(reply.model.as_str())),
            ("version", JsonValue::from(reply.version)),
            ("cycles", JsonValue::from(reply.estimate.len())),
            ("mean_mw", JsonValue::from_f64(reply.mean_power())),
            (
                "wrong_state_predictions",
                JsonValue::from(reply.wrong_state_predictions),
            ),
            ("unknown_instants", JsonValue::from(reply.unknown_instants)),
            (
                "estimate",
                JsonValue::arr(reply.estimate.iter().map(|&v| JsonValue::from_f64(v))),
            ),
        ]);
        println!("{}", doc.render());
    } else {
        println!(
            "{}@{}: {} cycle(s), mean {:.4} mW, {} wrong-state prediction(s), {} unknown instant(s)",
            reply.model,
            reply.version,
            reply.estimate.len(),
            reply.mean_power(),
            reply.wrong_state_predictions,
            reply.unknown_instants
        );
    }
}

/// Streams the workload through one session in `chunk` cycle pieces.
fn stream_estimate(
    client: &mut Client,
    model: &str,
    version: Option<u64>,
    workload: &FunctionalTrace,
    chunk: usize,
) -> Result<EstimateReply, ClientError> {
    let mut stream = client.open_stream(model, version, workload.signals())?;
    let mut estimate = Vec::with_capacity(workload.len());
    for piece in workload.split_windows(chunk) {
        estimate.extend(stream.send_chunk(&piece)?.estimate);
    }
    let summary = stream.close()?;
    Ok(EstimateReply {
        model: summary.model,
        version: summary.version,
        estimate,
        wrong_state_predictions: summary.wrong_state_predictions,
        unknown_instants: summary.unknown_instants,
    })
}

/// The `bench` report: latencies in nanoseconds plus wall-clock facts.
struct BenchReport {
    clients: usize,
    streams: usize,
    rounds: usize,
    chunk_cycles: usize,
    wall: Duration,
    latencies_ns: Vec<u64>,
}

impl BenchReport {
    fn chunks(&self) -> usize {
        self.latencies_ns.len()
    }

    fn chunks_per_sec(&self) -> f64 {
        self.chunks() as f64 / self.wall.as_secs_f64()
    }

    fn percentile_ns(&self, p: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_ns.len() - 1) as f64 * p).round() as usize;
        self.latencies_ns[idx]
    }

    fn print(&self, format: &str) {
        let p50 = self.percentile_ns(0.50);
        let p99 = self.percentile_ns(0.99);
        if format == "json" {
            let doc = JsonValue::obj([
                ("clients", JsonValue::from(self.clients)),
                ("streams_per_client", JsonValue::from(self.streams)),
                ("rounds", JsonValue::from(self.rounds)),
                ("chunk_cycles", JsonValue::from(self.chunk_cycles)),
                ("chunks", JsonValue::from(self.chunks())),
                (
                    "wall_ms",
                    JsonValue::from_f64(self.wall.as_secs_f64() * 1e3),
                ),
                ("chunks_per_sec", JsonValue::from_f64(self.chunks_per_sec())),
                (
                    "cycles_per_sec",
                    JsonValue::from_f64(self.chunks_per_sec() * self.chunk_cycles as f64),
                ),
                ("p50_ns", JsonValue::from(p50)),
                ("p99_ns", JsonValue::from(p99)),
            ]);
            println!("{}", doc.render());
        } else {
            println!(
                "bench: {} client(s) × {} stream(s) × {} round(s) = {} chunk(s) of {} cycle(s)",
                self.clients,
                self.streams,
                self.rounds,
                self.chunks(),
                self.chunk_cycles
            );
            println!(
                "throughput: {:.1} chunk/s ({:.0} cycle/s) over {:.2} s",
                self.chunks_per_sec(),
                self.chunks_per_sec() * self.chunk_cycles as f64,
                self.wall.as_secs_f64()
            );
            println!(
                "latency: p50 {:.3} ms, p99 {:.3} ms",
                p50 as f64 / 1e6,
                p99 as f64 / 1e6
            );
        }
    }
}

/// One bench connection: `streams` pipelined sessions fed `rounds`
/// chunks each, chunk latencies measured per response id.
fn bench_connection(
    addr: &str,
    model: &str,
    version: Option<u64>,
    chunk: &FunctionalTrace,
    streams: usize,
    rounds: usize,
) -> Result<Vec<u64>, ClientError> {
    protocol::validate_model_name(model)?;
    let mut client = Client::connect(addr)?;
    // Open every stream up front (ids 1..=streams), pipelined.
    for s in 0..streams {
        let payload = protocol::stream_open_request(s as u32 + 1, model, version, chunk.signals());
        client.pipeline_request(Opcode::StreamOpen, payload)?;
    }
    for _ in 0..streams {
        let frame = client.pipeline_response()?;
        if frame.status() != Some(Status::Ok) {
            return Err(ClientError::Server(protocol::parse_error(&frame)));
        }
    }
    // Rounds of one chunk per stream: `streams` requests in flight, each
    // latency measured from its own send. Responses of different streams
    // may arrive out of order — pair them by request id.
    let mut latencies = Vec::with_capacity(streams * rounds);
    let mut in_flight: HashMap<u64, Instant> = HashMap::with_capacity(streams);
    for _ in 0..rounds {
        for s in 0..streams {
            let payload = protocol::stream_chunk_request(s as u32 + 1, chunk);
            let id = client.pipeline_request(Opcode::StreamChunk, payload)?;
            in_flight.insert(id, Instant::now());
        }
        for _ in 0..streams {
            let frame = client.pipeline_response()?;
            let sent = in_flight
                .remove(&frame.request_id)
                .ok_or_else(|| ClientError::Server("unsolicited response id".into()))?;
            if frame.status() != Some(Status::Ok) {
                return Err(ClientError::Server(protocol::parse_error(&frame)));
            }
            latencies.push(sent.elapsed().as_nanos() as u64);
        }
    }
    for s in 0..streams {
        client.pipeline_request(
            Opcode::StreamClose,
            protocol::stream_close_request(s as u32 + 1),
        )?;
    }
    for _ in 0..streams {
        let frame = client.pipeline_response()?;
        if frame.status() != Some(Status::Ok) {
            return Err(ClientError::Server(protocol::parse_error(&frame)));
        }
    }
    Ok(latencies)
}

#[allow(clippy::too_many_arguments)]
fn run_bench(
    addr: &str,
    model: &str,
    version: Option<u64>,
    chunk: FunctionalTrace,
    clients: usize,
    streams: usize,
    rounds: usize,
    format: &str,
) -> ExitCode {
    eprintln!(
        "psmctl: benching {model} at {addr}: {clients} client(s) × {streams} stream(s) × \
         {rounds} round(s), {} cycle(s) per chunk",
        chunk.len()
    );
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_owned();
            let model = model.to_owned();
            let chunk = chunk.clone();
            std::thread::spawn(move || {
                bench_connection(&addr, &model, version, &chunk, streams, rounds)
            })
        })
        .collect();
    let mut latencies_ns = Vec::with_capacity(clients * streams * rounds);
    for handle in handles {
        match handle.join() {
            Ok(Ok(lat)) => latencies_ns.extend(lat),
            Ok(Err(e)) => return client_exit(&e),
            Err(_) => return fail("bench connection thread panicked"),
        }
    }
    let wall = t0.elapsed();
    latencies_ns.sort_unstable();
    BenchReport {
        clients,
        streams,
        rounds,
        chunk_cycles: chunk.len(),
        wall,
        latencies_ns,
    }
    .print(format);
    ExitCode::SUCCESS
}

/// Dials psmd at `addr`; a refused connection is a runtime failure.
fn connect(addr: &str) -> Result<Client, ExitCode> {
    Client::connect(addr).map_err(|e| fail(&format!("cannot connect to {addr}: {e}")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut format = "text".to_owned();
    let mut version: Option<u64> = None;
    let mut gen: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut command: Option<String> = None;
    let mut model: Option<String> = None;
    let mut stream_mode = false;
    let mut chunk_cycles = 256usize;
    let mut clients = 4usize;
    let mut streams = 4usize;
    let mut rounds = 32usize;

    let parse_pos = |text: Option<&String>, what: &str| -> Result<usize, String> {
        text.and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{what} needs a positive number"))
    };

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return usage_error("--addr needs ip:port"),
            },
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" => format = f.clone(),
                _ => return usage_error("--format needs text or json"),
            },
            "--version" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => version = Some(v),
                None => return usage_error("--version needs a number"),
            },
            "--gen" => match it.next() {
                Some(spec) => gen = Some(spec.clone()),
                None => return usage_error("--gen needs <IP>:<seed>:<cycles>"),
            },
            "--trace" => match it.next() {
                Some(path) => trace_path = Some(path.clone()),
                None => return usage_error("--trace needs a path"),
            },
            "--stream" => stream_mode = true,
            "--chunks" => match parse_pos(it.next(), "--chunks") {
                Ok(n) => chunk_cycles = n,
                Err(e) => return usage_error(&e),
            },
            "--clients" => match parse_pos(it.next(), "--clients") {
                Ok(n) => clients = n,
                Err(e) => return usage_error(&e),
            },
            "--streams" => match parse_pos(it.next(), "--streams") {
                Ok(n) => streams = n,
                Err(e) => return usage_error(&e),
            },
            "--rounds" => match parse_pos(it.next(), "--rounds") {
                Ok(n) => rounds = n,
                Err(e) => return usage_error(&e),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option `{other}`"))
            }
            word if command.is_none() => {
                if !COMMANDS.contains(&word) {
                    return usage_error(&format!("unknown command `{word}`"));
                }
                command = Some(word.to_owned());
            }
            word if matches!(command.as_deref(), Some("estimate") | Some("bench"))
                && model.is_none() =>
            {
                model = Some(word.to_owned());
            }
            word => return usage_error(&format!("unexpected argument `{word}`")),
        }
    }

    let Some(command) = command else {
        return usage_error("no command given");
    };

    // The commands that submit a workload resolve it before dialing the
    // daemon, so a bad workload never costs a connection.
    if command == "estimate" || command == "bench" {
        let Some(model) = model else {
            return usage_error(&format!("{command} needs a model name"));
        };
        let workload = match load_workload(gen.as_deref(), trace_path.as_deref()) {
            Ok(workload) => workload,
            Err(code) => return code,
        };
        if command == "bench" {
            return run_bench(
                &addr, &model, version, workload, clients, streams, rounds, &format,
            );
        }
        let mut client = match connect(&addr) {
            Ok(client) => client,
            Err(code) => return code,
        };
        let payload_kind = if stream_mode {
            "streamed binary"
        } else {
            "binary"
        };
        eprintln!(
            "psmctl: submitting {} cycle(s) to {model} at {addr} ({payload_kind} payload)",
            workload.len()
        );
        let result = if stream_mode {
            stream_estimate(&mut client, &model, version, &workload, chunk_cycles)
        } else {
            client.estimate_binary(&model, version, &workload)
        };
        return match result {
            Ok(reply) => {
                print_estimate(&reply, &format);
                ExitCode::SUCCESS
            }
            Err(e) => client_exit(&e),
        };
    }

    let mut client = match connect(&addr) {
        Ok(client) => client,
        Err(code) => return code,
    };

    match command.as_str() {
        "ping" => match client.ping() {
            Ok(()) => {
                println!("psmd at {addr} is alive (psmd/v{PROTOCOL_VERSION})");
                ExitCode::SUCCESS
            }
            Err(e) => client_exit(&e),
        },
        "list" => match client.list() {
            Ok(models) => {
                print_models(&models, "registry");
                ExitCode::SUCCESS
            }
            Err(e) => client_exit(&e),
        },
        "stats" => {
            let result = if format == "json" {
                client.stats_json().map(|doc| doc.render())
            } else {
                client.stats_text()
            };
            match result {
                Ok(stats) => {
                    println!("{stats}");
                    ExitCode::SUCCESS
                }
                Err(e) => client_exit(&e),
            }
        }
        "reload" => match client.reload() {
            Ok(models) => {
                print_models(&models, "reloaded");
                ExitCode::SUCCESS
            }
            Err(e) => client_exit(&e),
        },
        "shutdown" => match client.shutdown() {
            Ok(()) => {
                println!("psmd at {addr} is draining and shutting down");
                ExitCode::SUCCESS
            }
            Err(e) => client_exit(&e),
        },
        other => unreachable!(
            "`{other}` was checked against COMMANDS when parsed, and the workload \
             commands returned above"
        ),
    }
}
