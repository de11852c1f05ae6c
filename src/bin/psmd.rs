//! `psmd` — the power-estimation daemon.
//!
//! Serves a registry of trained models (`psm-persist` artifacts named
//! `<model>@<version>.json`) over the `psmd/v2` framed TCP protocol
//! (v1 clients keep working): clients submit functional traces as JSON
//! or binary frames — one-shot or chunked over a streaming session —
//! and the daemon classifies and HMM-simulates them through a batching
//! worker pool, answering per-instant estimates incrementally. One
//! readiness-driven event loop serves every connection. `RELOAD`
//! hot-swaps the registry atomically; `SHUTDOWN` (or SIGTERM) drains
//! in-flight work, flushes the telemetry report to stderr and exits 0.
//! See `psmctl` for the client.

use psmgen::serve::{PoolConfig, Server, ServerConfig, DEFAULT_ADDR};
use std::process::ExitCode;

const USAGE: &str = "\
usage: psmd --registry <dir> [options]

Options:
  --registry <dir>   model registry: a directory of psmgen artifacts
                     named <model>@<version>.json (required)
  --addr <ip:port>   listen address (default 127.0.0.1:7411; port 0
                     takes an ephemeral port, see --port-file)
  --workers <n>      estimation worker threads (default: CPU count, max 8)
  --queue <n>        queue slots before requests bounce BUSY (default 64)
  --batch <n>        max same-model estimates one worker answers per
                     turn (default 8)
  --port-file <path> write the bound address to <path> once listening
  -h, --help         show this help

Shutdown: the SHUTDOWN opcode (psmctl shutdown) or SIGTERM. Both drain
queued estimates, flush the stats report to stderr and exit 0.";

struct Options {
    registry: String,
    addr: String,
    pool: PoolConfig,
    port_file: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut registry = None;
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut pool = PoolConfig::default();
    let mut port_file = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--registry" => {
                registry = Some(it.next().ok_or("--registry needs a directory")?.clone())
            }
            "--addr" => addr = it.next().ok_or("--addr needs ip:port")?.clone(),
            "--workers" => {
                pool.workers = parse_count(it.next().ok_or("--workers needs a number")?)?;
            }
            "--queue" => {
                pool.queue_capacity = parse_count(it.next().ok_or("--queue needs a number")?)?;
            }
            "--batch" => {
                pool.max_batch = parse_count(it.next().ok_or("--batch needs a number")?)?;
            }
            "--port-file" => {
                port_file = Some(it.next().ok_or("--port-file needs a path")?.clone());
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Options {
        registry: registry.ok_or("--registry is required")?.to_owned(),
        addr,
        pool,
        port_file,
    })
}

fn parse_count(text: &str) -> Result<usize, String> {
    text.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("`{text}` is not a positive number"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("psmd: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let workers = opts.pool.workers;
    let server = match Server::bind(ServerConfig {
        addr: opts.addr,
        registry_dir: opts.registry.clone().into(),
        pool: opts.pool,
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("psmd: {e}");
            return ExitCode::from(2);
        }
    };
    let addr = server.local_addr();
    if let Some(path) = &opts.port_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("psmd: cannot write port file {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let handle = server.handle();
    if let Err(e) = psmgen::serve::signals::on_sigterm(move || handle.shutdown()) {
        eprintln!("psmd: cannot install SIGTERM handler: {e}");
        return ExitCode::from(2);
    }
    eprintln!(
        "psmd: serving registry {} at {addr} ({workers} worker(s))",
        opts.registry
    );

    match server.run() {
        Ok(report) => {
            eprintln!("psmd: shut down cleanly; final stats:");
            eprintln!("{}", report.text());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("psmd: {e}");
            ExitCode::FAILURE
        }
    }
}
