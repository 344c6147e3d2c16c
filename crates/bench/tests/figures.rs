//! The figures' own numbers, pinned: the Figure 3 access statistics are a
//! pure function of the seeded traces, and the static-vs-adaptive
//! drifting-hot-set comparison runs on the virtual-time backend. Plus the
//! `figures` binary itself: it lists every figure and runs one by name.

use std::process::Command;

use nups_bench::figures::{
    drifting_hot_set, kge_access_trace, run_drift, wv_access_trace, FIGURES,
};
use nups_bench::Scale;
use nups_sim::topology::Topology;
use nups_workloads::trace::AccessTrace;

/// total accesses, then the sampling share and the shares of the hottest
/// 0.02 % and 1 % of keys, in parts per million.
fn skew(trace: &AccessTrace) -> [u64; 4] {
    let ppm = |share: f64| (1e6 * share).round() as u64;
    [
        trace.total_direct() + trace.total_sampling(),
        ppm(trace.sampling_share()),
        ppm(trace.share_of_top(0.0002)),
        ppm(trace.share_of_top(0.01)),
    ]
}

#[test]
fn figure_3_access_statistics_are_pinned() {
    assert_eq!(skew(&kge_access_trace(Scale::Tiny)), [84_000, 571_429, 32_095, 143_833]);
    assert_eq!(skew(&wv_access_trace(Scale::Tiny)), [297_600, 500_000, 25_659, 180_390]);
}

/// Fails unless `got` is within `pct` percent of `want`.
fn assert_near(what: &str, got: u64, want: u64, pct: u64) {
    let slack = want * pct / 100;
    assert!(
        got.abs_diff(want) <= slack,
        "{what}: {got}, expected {want} ± {pct} % ({}..={})",
        want - slack,
        want + slack
    );
}

/// The virtual backend still runs real threads, so counters that depend
/// on when a migration lands relative to a worker's access can move
/// between runs. On an idle host they read the values below; under load
/// (up to 8 copies at once on 2 vCPUs, 1 060 runs) they stayed within
/// −4 %/+18 % of them (adaptive remote accesses 2 616–3 172, messages
/// 3 256–3 700, sync rounds 72–88, virtual time 12.49–13.81 ms), and
/// static virtual time within −0.4 %/+0.2 %. Those are held to a band
/// around the idle value that covers that spread; everything the workload
/// alone decides is exact.
#[test]
fn adaptive_assignment_beats_static_on_a_drifting_hot_set() {
    let drift = drifting_hot_set(Scale::Tiny);
    let topology = Topology::new(4, 2);
    let stat = run_drift(&drift, topology, false);
    let adap = run_drift(&drift, topology, true);

    let s = &stat.metrics;
    assert_eq!(
        (stat.msgs(), stat.bytes(), stat.remote_accesses(), s.relocations, s.sync_rounds),
        (7_492, 528_792, 7_898, 0, 24),
        "static run: msgs, bytes, remote accesses, relocations, sync rounds"
    );
    assert_eq!((s.promotions, s.demotions, s.adaptation_rounds), (0, 0, 0));
    assert_near("static virtual time (µs)", stat.time.as_nanos() / 1_000, 24_994, 1);

    let a = &adap.metrics;
    assert_eq!((a.relocations, a.promotions, a.demotions), (0, 8, 8), "adaptive migrations");
    assert_near("adaptive msgs", adap.msgs(), 3_324, 20);
    assert_near("adaptive bytes", adap.bytes(), 230_928, 20);
    assert_near("adaptive remote accesses", adap.remote_accesses(), 2_702, 20);
    assert_near("adaptive sync rounds", a.sync_rounds, 80, 20);
    assert_near("adaptive virtual time (µs)", adap.time.as_nanos() / 1_000, 12_644, 20);
    // Adaptation pays for itself: at most two thirds of static's messages
    // and virtual run time (measured: 44–49 % and 51–55 %).
    assert!(3 * adap.msgs() <= 2 * stat.msgs(), "msgs {} vs static {}", adap.msgs(), stat.msgs());
    assert!(
        3 * adap.time.as_nanos() <= 2 * stat.time.as_nanos(),
        "virtual time {} vs static {}",
        adap.time,
        stat.time
    );
    assert!(adap.remote_accesses() < stat.remote_accesses());
}

#[test]
fn the_figures_binary_lists_every_figure_and_runs_one_by_name() {
    let figures = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("run figures")
    };
    let list = figures(&[]);
    assert!(list.status.success());
    let listing = String::from_utf8_lossy(&list.stdout);
    for f in FIGURES {
        assert!(listing.contains(f.name), "{} missing from:\n{listing}", f.name);
    }
    assert_eq!(figures(&["fig99"]).status.code(), Some(2), "an unknown name is an error");

    let fig3 = figures(&["fig3", "--scale", "tiny", "--task", "wv"]);
    assert!(fig3.status.success());
    let out = String::from_utf8_lossy(&fig3.stdout);
    assert!(out.contains("Figure 3 — WV") && out.contains("total accesses: 297600"), "{out}");
    assert!(!out.contains("KGE"), "--task wv runs WV only:\n{out}");
}
