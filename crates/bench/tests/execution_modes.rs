//! One protocol, three execution modes, one model. The drift workload runs
//! on the virtual-time simulator, on the in-process wall clock, and across
//! one `nups-node` process per node over loopback TCP. Its deltas are
//! integers, so every partial sum is exact: the final models must be
//! identical bit for bit however the threads and sockets interleaved —
//! with the static technique assignment, and with the adaptive manager
//! promoting and demoting keys mid-run (over the sockets, by the
//! leader-driven epoch protocol).

use std::path::Path;
use std::sync::{Mutex, PoisonError};

use nups_bench::drift_bench::{
    model_mismatch, run_cluster, run_in_process, workload_for, NodeReport,
};
use nups_bench::Scale;
use nups_core::runtime::Backend;
use nups_sim::topology::Topology;

/// Each cluster run starts five processes; one at a time, so the two
/// tests do not slow each other's clusters down on a small host.
static CLUSTER: Mutex<()> = Mutex::new(());

/// Run all three modes at tiny scale on 4 nodes × 2 workers and assert one
/// model; returns node 0's report of the TCP run.
fn three_modes_agree(adaptive: bool, trace: Option<&str>) -> NodeReport {
    let topology = Topology::new(4, 2);
    let workload = workload_for(Scale::Tiny);
    let sim = run_in_process(&workload, topology, Backend::Virtual, adaptive, None);
    let wall = run_in_process(&workload, topology, Backend::WallClock, adaptive, None);
    let tcp = {
        let _one_cluster = CLUSTER.lock().unwrap_or_else(PoisonError::into_inner);
        let node_bin = Path::new(env!("CARGO_BIN_EXE_nups-node"));
        run_cluster(node_bin, Scale::Tiny, topology, adaptive, trace)
            .unwrap_or_else(|e| panic!("{e}"))
    };
    assert_eq!(sim.model.len() as u64, workload.config().n_keys);
    assert_eq!(model_mismatch(&sim.model, &wall.model), None, "wall vs sim");
    assert_eq!(model_mismatch(&sim.model, &tcp.model), None, "tcp vs sim");
    tcp.report
}

#[test]
fn static_assignment_gives_one_model_on_sim_wall_and_tcp() {
    let report = three_modes_agree(false, None);
    assert!(report.get("msgs_sent") > 0, "node 0 sent nothing over the sockets");
    assert_eq!(report.get("adaptation_rounds"), 0);
}

#[test]
fn adaptive_assignment_gives_one_model_on_sim_wall_and_tcp() {
    let dir = std::env::temp_dir().join(format!("nups-execution-modes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the temp dir");
    let prefix = dir.join("trace").to_str().expect("utf-8 temp path").to_string();
    let report = three_modes_agree(true, Some(&prefix));
    assert!(report.get("adaptation_rounds") > 0, "the leader never ran an adaptation round");
    // Every node process exported its own journal, bootstrap to finalize.
    for node in 0..4 {
        let path = format!("{prefix}.node{node}");
        let trace = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for event in ["bootstrap_done", "finalize_start"] {
            assert!(trace.contains(&format!("\"name\":\"{event}\"")), "{path} lacks {event}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove the temp dir");
}
