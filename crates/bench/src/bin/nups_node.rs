//! One OS process per NuPS node, connected over real TCP sockets.
//!
//! Two modes:
//!
//! * **Node mode** (`--node-id K`): join the cluster. The process binds a
//!   data listener, rendezvouses on the coordinator address, runs the
//!   drift workload on its own node's workers, and participates in the
//!   distributed finalize protocol. Node 0 doubles as the coordinator and
//!   writes the assembled final model (`--model-out`) plus its own run
//!   times and counters as `name value` lines (`--report`).
//! * **Launcher mode** (`--launch`): spawn the whole local process group
//!   for a loopback run — one child per node, all flags forwarded — and
//!   wait for every child to exit cleanly.
//!
//! Usage:
//!
//! ```text
//! # whole cluster on loopback, one process per node
//! nups-node --launch --nodes 2 --workers 2 --scale tiny --model-out model.txt
//!
//! # or each node by hand (e.g. across machines)
//! nups-node --node-id 0 --nodes 2 --workers 2 --scale tiny \
//!           --coordinator 127.0.0.1:4800 --model-out model.txt
//! nups-node --node-id 1 --nodes 2 --workers 2 --scale tiny \
//!           --coordinator 127.0.0.1:4800
//! ```
//!
//! Every process derives the identical workload, technique assignment and
//! initial model from (scale, topology) alone, so nothing but protocol
//! traffic ever crosses the wire. The final model node 0 writes is
//! bit-identical to an in-process run of the same scale and topology —
//! `crates/bench/tests/execution_modes.rs` holds it to exactly that.

use std::net::{SocketAddr, TcpListener};
use std::process::{Command, Stdio};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use nups_bench::drift_bench::{
    self, adaptive_ps_config, init_value, model_bits, ps_config, render_model, workload_for,
    NodeReport,
};
use nups_bench::Args;
use nups_core::runtime::Backend;
use nups_core::system::FinalizeOutcome;
use nups_core::{Deployment, ParameterServer};
use nups_net::{connect_cluster, ClusterOptions};
use nups_sim::metrics::ClusterMetrics;
use nups_sim::topology::NodeId;
use nups_sim::trace::Observability;

const FINALIZE_TIMEOUT: Duration = Duration::from_secs(60);

/// This process's observability bundle, reachable from the panic hook.
static OBS: OnceLock<Arc<Observability>> = OnceLock::new();

/// Install a panic hook that dumps the flight record (last events +
/// histogram snapshot) before the default hook prints the panic itself —
/// a crashed node leaves its last moments on stderr.
fn install_flight_recorder_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(obs) = OBS.get() {
            eprintln!("{}", obs.flight_record("panic"));
        }
        default(info);
    }));
}

fn main() {
    let args = Args::parse();
    install_flight_recorder_hook();
    let code = if args.get_flag("launch") { launch(&args) } else { run_node(&args) };
    std::process::exit(code);
}

/// Spawn one child process per node on loopback and await them all.
fn launch(args: &Args) -> i32 {
    let topo = args.topology();
    // Reserve an ephemeral rendezvous port. Binding and dropping has a
    // tiny reuse race, acceptable for loopback runs; explicit
    // `--coordinator` avoids it entirely.
    let coordinator = match args.get("coordinator") {
        Some(a) => a.to_string(),
        None => {
            let l = TcpListener::bind("127.0.0.1:0").expect("reserve rendezvous port");
            l.local_addr().expect("local addr").to_string()
        }
    };
    let exe = std::env::current_exe().expect("own executable path");
    let mut children = Vec::new();
    for node in topo.nodes() {
        let mut cmd = Command::new(&exe);
        cmd.arg("--node-id")
            .arg(node.0.to_string())
            .arg("--nodes")
            .arg(topo.n_nodes.to_string())
            .arg("--workers")
            .arg(topo.workers_per_node.to_string())
            .arg("--scale")
            .arg(args.scale().name())
            .arg("--coordinator")
            .arg(&coordinator)
            .stdin(Stdio::null());
        if args.get_flag("adaptive") {
            cmd.arg("--adaptive");
        }
        // Every node journals its own timeline; suffix the trace path so
        // the processes never race on one file.
        if let Some(path) = args.get("trace") {
            cmd.arg("--trace").arg(format!("{path}.node{}", node.0));
        }
        if node == NodeId(0) {
            if let Some(path) = args.get("model-out") {
                cmd.arg("--model-out").arg(path);
            }
            if let Some(path) = args.get("report") {
                cmd.arg("--report").arg(path);
            }
        }
        match cmd.spawn() {
            Ok(child) => children.push((node, child)),
            Err(e) => {
                eprintln!("[nups-node] failed to spawn node {node}: {e}");
                for (_, mut c) in children {
                    let _ = c.kill();
                }
                return 1;
            }
        }
    }

    // Babysit the group: if any child fails or the deadline passes, kill
    // the rest so a wedged cluster cannot outlive the launcher.
    let deadline = Instant::now() + Duration::from_secs(args.get_usize("timeout-secs", 300) as u64);
    let mut failed = false;
    while !children.is_empty() {
        let mut still_running = Vec::new();
        for (node, mut child) in children {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {}
                Ok(Some(status)) => {
                    eprintln!("[nups-node] node {node} exited with {status}");
                    failed = true;
                }
                Ok(None) => still_running.push((node, child)),
                Err(e) => {
                    eprintln!("[nups-node] wait for node {node} failed: {e}");
                    failed = true;
                }
            }
        }
        children = still_running;
        if (failed || Instant::now() >= deadline) && !children.is_empty() {
            if !failed {
                eprintln!("[nups-node] launch timed out; killing the process group");
            }
            for (_, child) in children.iter_mut() {
                let _ = child.kill();
            }
            for (_, mut child) in children {
                let _ = child.wait();
            }
            return 1;
        }
        if !children.is_empty() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    if failed {
        1
    } else {
        0
    }
}

/// Run one node of the cluster to completion.
fn run_node(args: &Args) -> i32 {
    let topo = args.topology();
    let scale = args.scale();
    let me = NodeId(args.get_u16("node-id", u16::MAX));
    if me.0 >= topo.n_nodes {
        eprintln!("[nups-node] --node-id must be in 0..{} (got {})", topo.n_nodes, me.0);
        return 2;
    }
    let coordinator: SocketAddr = match args.get("coordinator").map(str::parse) {
        Some(Ok(a)) => a,
        _ => {
            eprintln!("[nups-node] --coordinator HOST:PORT is required in node mode");
            return 2;
        }
    };

    let workload = workload_for(scale);
    let adaptive = args.get_flag("adaptive");
    let cfg =
        if adaptive { adaptive_ps_config(topo, &workload) } else { ps_config(topo, &workload) }
            .with_backend(Backend::WallClock);
    let metrics = Arc::new(ClusterMetrics::new(topo.n_nodes as usize));
    // One observability bundle for the whole process: the fabric's wire
    // histograms, the server's event journal, and the panic hook all
    // share it.
    let obs = Arc::new(Observability::new());
    let _ = OBS.set(Arc::clone(&obs));

    eprintln!(
        "[nups-node {me}] joining {}x{} cluster via {coordinator}",
        topo.n_nodes, topo.workers_per_node
    );
    let fabric = match connect_cluster(
        &ClusterOptions::new(me, topo, coordinator),
        Arc::clone(&metrics),
        Arc::clone(&obs),
    ) {
        Ok(f) => Arc::new(f),
        Err(e) => {
            eprintln!("[nups-node {me}] bootstrap failed: {e}");
            eprintln!("{}", obs.flight_record(&format!("bootstrap failed: {e}")));
            return 1;
        }
    };
    let ps = ParameterServer::deploy(
        cfg,
        fabric,
        metrics,
        Arc::clone(&obs),
        Deployment::SingleNode(me),
        init_value,
    );

    let start = Instant::now();
    let run = drift_bench::run_phases_timed(&ps, &workload);
    let elapsed = start.elapsed();
    eprintln!("[nups-node {me}] workload done in {elapsed:?}; finalizing");

    let outcome = ps.finalize_distributed(FINALIZE_TIMEOUT);
    if let Some(path) = args.get("trace") {
        std::fs::write(path, ps.observability().chrome_trace()).expect("write trace");
        eprintln!("[nups-node {me}] wrote trace to {path}");
    }
    let code = match outcome {
        FinalizeOutcome::Model(model) => {
            let bits = model_bits(model);
            if let Some(path) = args.get("model-out") {
                std::fs::write(path, render_model(&bits)).expect("write model");
                eprintln!("[nups-node {me}] wrote final model to {path}");
            }
            if let Some(path) = args.get("report") {
                let report = NodeReport::render(
                    elapsed,
                    &run,
                    &ps.metrics_of(me),
                    &ps.observability().hists.snapshot(),
                );
                std::fs::write(path, report.0).expect("write report");
                eprintln!("[nups-node {me}] wrote {path}");
            }
            0
        }
        FinalizeOutcome::Released => 0,
        FinalizeOutcome::TimedOut => {
            eprintln!("[nups-node {me}] finalize timed out");
            1
        }
    };
    ps.shutdown();
    eprintln!("[nups-node {me}] done");
    code
}
