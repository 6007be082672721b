//! `comet-serve` — run the explanation service.
//!
//! ```text
//! comet-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!             [--event-threads N] [--shard I/M]
//!             [--model crude|crude-skylake|uica] [--epsilon F]
//!             [--deadline-ms MS] [--batch N] [--search-pool N]
//!             [--idle-timeout-ms MS] [--admission-target-ms MS]
//!             [--registry DIR] [--probation-requests N]
//!             [--store PATH]
//!             [--supervised] [--chaos-seed N] [--chaos-panic-rate F]
//!             [--force-scalar]
//! ```
//!
//! `--event-threads N` sets the reactor (epoll event-loop) thread
//! count; `--shard I/M` makes this process shard `I` of an `M`-shard
//! fleet, enforcing consistent-hash block ownership (misrouted blocks
//! get 409 naming the true owner — put `comet-router` in front).
//!
//! `--store PATH` serves precomputed explanations from a `comet-store
//! build` output (a `.comets` file, or a directory holding
//! `store.comets`) as the top tier of the explain ladder, and enables
//! the `GET /analytics/*` rollup endpoints.
//!
//! The binary serves until Ctrl-C or SIGTERM (graceful drain; a
//! second Ctrl-C aborts). `--supervised` makes stdin EOF a third drain
//! trigger, which is how `comet-supervisor` asks its children to drain
//! without signals. The `--chaos-*` flags enable seeded in-server fault
//! injection (worker panics) for the chaos harness — never use them in
//! real serving.

use std::io::Read;

use comet_core::cancel::{install_sigint, install_sigterm};
use comet_serve::route::ShardSpec;
use comet_serve::{ChaosConfig, ModelKind, ServeConfig, Server};

struct Args {
    config: ServeConfig,
    model: ModelKind,
    supervised: bool,
    chaos_seed: u64,
    chaos_panic_rate: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: comet-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
         \x20                  [--event-threads N] [--shard I/M]\n\
         \x20                  [--model crude|crude-skylake|uica] [--epsilon F] [--deadline-ms MS]\n\
         \x20                  [--batch N] [--search-pool N] [--idle-timeout-ms MS]\n\
         \x20                  [--admission-target-ms MS] [--supervised]\n\
         \x20                  [--registry DIR] [--probation-requests N] [--store PATH]\n\
         \x20                  [--chaos-seed N] [--chaos-panic-rate F] [--force-scalar]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        config: ServeConfig::default(),
        model: ModelKind::CrudeHaswell,
        supervised: false,
        chaos_seed: 0,
        chaos_panic_rate: 0.0,
    };
    // ε 0 means "use the model's paper default" (filled in by start()).
    args.config.epsilon = 0.0;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| -> String {
            argv.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => args.config.addr = value("--addr"),
            "--workers" => args.config.workers = parse_or_usage(&value("--workers")),
            "--queue-depth" => args.config.queue_depth = parse_or_usage(&value("--queue-depth")),
            "--event-threads" => {
                args.config.event_threads = parse_or_usage(&value("--event-threads"))
            }
            "--shard" => {
                let spec = value("--shard");
                args.config.shard = Some(ShardSpec::parse(&spec).unwrap_or_else(|| {
                    eprintln!("error: --shard wants I/M with I < M (e.g. 0/2), got `{spec}`");
                    usage()
                }));
            }
            "--epsilon" => args.config.epsilon = parse_or_usage(&value("--epsilon")),
            "--deadline-ms" => args.config.deadline_ms = parse_or_usage(&value("--deadline-ms")),
            "--batch" => args.config.batch = parse_or_usage(&value("--batch")),
            "--search-pool" => args.config.search_pool = parse_or_usage(&value("--search-pool")),
            "--idle-timeout-ms" => {
                args.config.idle_timeout_ms = parse_or_usage(&value("--idle-timeout-ms"))
            }
            "--admission-target-ms" => {
                let target_ms: u64 = parse_or_usage(&value("--admission-target-ms"));
                args.config.admission.target_delay_us = target_ms.saturating_mul(1_000);
                args.config.admission.interval_us =
                    args.config.admission.target_delay_us.saturating_mul(4).max(1_000);
            }
            "--registry" => args.config.registry_dir = Some(value("--registry")),
            "--store" => args.config.store_path = Some(value("--store")),
            "--probation-requests" => {
                args.config.probation_requests = parse_or_usage(&value("--probation-requests"))
            }
            "--supervised" => args.supervised = true,
            "--force-scalar" => {
                let _ = comet_nn::kernel::force_scalar();
            }
            "--chaos-seed" => args.chaos_seed = parse_or_usage(&value("--chaos-seed")),
            "--chaos-panic-rate" => {
                args.chaos_panic_rate = parse_or_usage(&value("--chaos-panic-rate"))
            }
            "--model" => {
                let name = value("--model");
                args.model = ModelKind::parse(&name).unwrap_or_else(|| {
                    eprintln!("error: unknown model `{name}`");
                    usage()
                });
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
            }
        }
    }
    args
}

fn parse_or_usage<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: cannot parse `{s}`");
        usage()
    })
}

fn main() {
    let mut args = parse_args();
    if args.chaos_panic_rate > 0.0 {
        args.config.chaos =
            Some(ChaosConfig { worker_panic_rate: args.chaos_panic_rate, seed: args.chaos_seed });
    }
    let server = match Server::start(args.model, args.config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.config.addr);
            std::process::exit(1);
        }
    };
    install_sigint(server.ctx().cancel_token().clone());
    install_sigterm(server.ctx().cancel_token().clone());
    if args.supervised {
        // Under a supervisor, stdin EOF is the drain request: the
        // supervisor holds our stdin pipe and closes it to drain us
        // without signals.
        let token = server.ctx().cancel_token().clone();
        std::thread::Builder::new()
            .name("comet-serve-stdin-watch".into())
            .spawn(move || {
                let mut sink = Vec::new();
                let _ = std::io::stdin().lock().read_to_end(&mut sink);
                eprintln!("[comet-serve] stdin closed: draining");
                token.cancel();
            })
            .expect("spawn stdin watcher");
    }
    eprintln!(
        "[comet-serve] listening on {} ({} workers, queue depth {}); Ctrl-C drains, twice aborts",
        server.addr(),
        args.config.workers,
        args.config.queue_depth
    );
    server.join();
    eprintln!("[comet-serve] drained, bye");
}
