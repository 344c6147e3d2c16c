//! Throughput across execution modes: the same skewed minibatch workload
//! on the deterministic virtual-time simulator, on the in-process
//! wall-clock backend, and (with `--fabric tcp`) across real OS processes
//! connected by loopback TCP sockets.
//!
//! All modes must also *agree*: with integer-valued deltas every partial
//! sum is exact, so the final model is identical bit-for-bit no matter how
//! real scheduling interleaved the updates or which fabric carried them.
//! `cargo test -p nups-bench --test execution_modes` holds the tiny 4×2
//! run to that.
//!
//! Usage: cargo run --release -p nups-bench --bin throughput -- \
//!   [--scale tiny|small|medium] [--nodes 4] [--workers 2] \
//!   [--backend sim|wall|both] [--fabric tcp] [--adaptive] \
//!   [--trace PATH]
//!
//! `--trace` exports each mode's event journal as Chrome trace-event JSON
//! (`PATH.sim`, `PATH.wall`, and `PATH.tcp.node<K>` per tcp process) —
//! load them in Perfetto / `chrome://tracing`. The sim-backend export is
//! deterministic: byte-identical across runs of the same scale/topology.
//!
//! `--adaptive` turns on the adaptive technique manager in every mode:
//! in-process runs adapt at the merge gate, the multi-process run uses the
//! leader-driven epoch protocol over the sockets. Adaptation moves keys,
//! it never loses deltas, so the final models still agree bit for bit.
//!
//! `--fabric tcp` spawns the `nups-node` binary in launcher mode (one OS
//! process per node, rendezvous + full-mesh handshake on loopback) and
//! folds the multi-process run into the table.

use nups_bench::drift_bench::{
    run_cluster, run_in_process, sibling_node_bin, total_accesses, workload_for, ModeRun,
};
use nups_bench::report::print_table;
use nups_bench::Args;
use nups_core::runtime::Backend;
use nups_sim::time::SimDuration;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    let topology = args.topology();
    let workload = workload_for(scale);

    let backends: Vec<Backend> = match args.get("backend") {
        None | Some("both") => vec![Backend::Virtual, Backend::WallClock],
        Some(s) => match Backend::parse(s) {
            Some(b) => vec![b],
            None => {
                eprintln!("unknown --backend {s:?} (expected sim, wall or both)");
                std::process::exit(2);
            }
        },
    };
    let with_tcp = match args.get("fabric") {
        None | Some("channel") | Some("sim") => false,
        Some("tcp") => true,
        Some(other) => {
            eprintln!("unknown --fabric {other:?} (expected tcp)");
            std::process::exit(2);
        }
    };

    let adaptive = args.get_flag("adaptive");
    let trace = args.get("trace");
    let label = if adaptive { " (adaptive)" } else { "" };

    let mut runs: Vec<ModeRun> = backends
        .iter()
        .map(|&b| {
            eprintln!("[throughput] running {} backend{label}", b.name());
            run_in_process(&workload, topology, b, adaptive, trace)
        })
        .collect();
    if with_tcp {
        eprintln!(
            "[throughput] running tcp multi-process deployment ({} processes on loopback){label}",
            topology.n_nodes
        );
        let trace = trace.map(|path| format!("{path}.tcp"));
        let tcp = run_cluster(&sibling_node_bin(), scale, topology, adaptive, trace.as_deref())
            .unwrap_or_else(|e| fail(&e));
        runs.push(ModeRun {
            mode: "tcp",
            elapsed: SimDuration(tcp.report.get("elapsed_us") * 1_000),
            epoch_times: Vec::new(),
            msgs: tcp.report.get("msgs_sent"),
            p50_op_us: tcp.report.get("p50_op_us"),
            p99_op_us: tcp.report.get("p99_op_us"),
            model: tcp.model,
        });
    }

    let accesses = total_accesses(&workload, topology);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let mean_epoch = match r.epoch_times.len() as u64 {
                0 => "-".to_string(),
                n => (r.epoch_times.iter().copied().sum::<SimDuration>() / n).to_string(),
            };
            vec![
                r.mode.to_string(),
                r.elapsed.to_string(),
                mean_epoch,
                format!("{accesses}"),
                format!("{:.0}", accesses as f64 / r.elapsed.as_secs_f64().max(1e-9)),
                format!("{}/{}", r.p50_op_us, r.p99_op_us),
                // The tcp row only sees the coordinator process's
                // counters; the other nodes' totals live in their own
                // processes. Label it so the column is not misread as a
                // cluster-wide comparison.
                if r.mode == "tcp" {
                    format!("{} (node 0 only)", r.msgs)
                } else {
                    format!("{}", r.msgs)
                },
            ]
        })
        .collect();
    print_table(
        &format!(
            "Throughput — same workload per execution mode ({} epochs, {} keys)",
            workload.config().phases,
            workload.config().n_keys
        ),
        &["mode", "run time", "mean epoch", "accesses", "keys/sec", "p50/p99 op µs", "messages"],
        &rows,
    );
}
