//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their bounds, per-layer metrics — and the report that holds a run's
//! values. `BENCHMARK.json` at the repository root is
//! [`benchmark_json`] verbatim; a test holds the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`--seconds`); the driver passes it back.
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "uniform_remote_tcp",
        why: "classic PS, uniform keys over 2 loopback TCP nodes: every step is two blocking round trips, so codec, frame, fabric, server and store do the work and replication does none",
    },
    WorkloadDecl {
        name: "skew_replicated_wall",
        why: "90% of accesses to 64 replicated hot keys, tail at home, in process: no message is sent, so routing, replica sets, store latches and the 1 ms sync gate are the whole cost",
    },
    WorkloadDecl {
        name: "drift_adaptive_tcp",
        why: "rotating hot set with the adaptive manager and localize-ahead over TCP: one-way bulk deltas, transfers and plans instead of request/reply, and finalize under churn",
    },
    WorkloadDecl {
        name: "kge_sampling_wall",
        why: "the paper's KGE task with negative sampling, in process: the only workload where sampling, ML compute and relocation dominate, with real float gradients",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "keys_per_s", unit: "keys/s", better: Higher, bound: 0.10 },
    EndToEnd { name: "pull_p50_us", unit: "us", better: Lower, bound: 0.10 },
    EndToEnd { name: "push_p50_us", unit: "us", better: Lower, bound: 0.10 },
    EndToEnd { name: "cpu_us_per_kkey", unit: "us/kkey", better: Lower, bound: 0.10 },
    EndToEnd { name: "modelled_keys_per_s", unit: "keys/s", better: Higher, bound: 0.05 },
    EndToEnd { name: "wire_bytes_per_key", unit: "B/key", better: Lower, bound: 0.05 },
    EndToEnd { name: "msgs_per_kkey", unit: "msgs/kkey", better: Lower, bound: 0.05 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 78] = [
    // messages
    pl("messages.encode_ns.pull_batch_req", "ns", Lower),
    pl("messages.encode_ns.pull_batch_resp", "ns", Lower),
    pl("messages.encode_ns.push_batch_req", "ns", Lower),
    pl("messages.encode_ns.transfer", "ns", Lower),
    pl("messages.encode_ns.replica_deltas", "ns", Lower),
    pl("messages.decode_ns.pull_batch_req", "ns", Lower),
    pl("messages.decode_ns.pull_batch_resp", "ns", Lower),
    pl("messages.decode_ns.push_batch_req", "ns", Lower),
    pl("messages.decode_ns.transfer", "ns", Lower),
    pl("messages.decode_ns.replica_deltas", "ns", Lower),
    // frame
    pl("frame.write_batch_ns.1", "ns", Lower),
    pl("frame.write_batch_ns.16", "ns", Lower),
    pl("frame.write_batch_ns.64x1k", "ns", Lower),
    pl("frame.read_frame_pooled_ns", "ns", Lower),
    // pool
    pl("pool.take_put_ns", "ns", Lower),
    pl("pool.hit_ratio", "ratio", Higher),
    // fabric
    pl("fabric.rtt_us", "us", Lower),
    pl("fabric.oneway_frames_per_s", "frames/s", Higher),
    pl("fabric.frames_per_write", "frames/write", Higher),
    pl("fabric.writes_per_kkey", "writes/kkey", Lower),
    pl("fabric.writer_wakeups_per_kframe", "wakeups/kframe", Lower),
    pl("fabric.queue_wait_p50_us", "us", Lower),
    pl("fabric.flush_p50_us", "us", Lower),
    // runtime
    pl("runtime.simfabric_rtt_us", "us", Lower),
    pl("runtime.sim_real_keys_per_s", "keys/s", Higher),
    // server
    pl("server.remote_pull_us", "us", Lower),
    pl("server.dispatch_us", "us", Lower),
    // store
    pl("store.with_local_ns", "ns", Lower),
    pl("store.server_pull_batch_ns", "ns", Lower),
    pl("store.server_push_batch_ns", "ns", Lower),
    pl("store.take_install_ns", "ns", Lower),
    pl("store.seed_ns_per_key", "ns", Lower),
    // replication
    pl("replication.push_ns", "ns", Lower),
    pl("replication.pull_ns", "ns", Lower),
    pl("replication.sync_once_us", "us", Lower),
    pl("replication.sync_rounds_per_s", "1/s", Higher),
    pl("replication.sync_bytes_per_round", "B", Lower),
    pl("replication.sync_round_p50_us", "us", Lower),
    pl("replication.merge_p50_us", "us", Lower),
    // syncgate, technique
    pl("syncgate.rendezvous_us", "us", Lower),
    pl("technique.route_ns", "ns", Lower),
    // adaptive
    pl("adaptive.record_access_ns", "ns", Lower),
    pl("adaptive.rounds", "count", Lower),
    pl("adaptive.promotions", "count", Lower),
    pl("adaptive.demotions", "count", Lower),
    pl("adaptive.migration_bytes_per_kkey", "B/kkey", Lower),
    // worker
    pl("worker.share.pull", "ratio", Lower),
    pl("worker.share.push", "ratio", Lower),
    pl("worker.share.localize", "ratio", Lower),
    pl("worker.share.prepare_sample", "ratio", Lower),
    pl("worker.share.pull_sample", "ratio", Lower),
    pl("worker.share.charge_compute", "ratio", Lower),
    pl("worker.share.app", "ratio", Higher),
    pl("worker.pull_p99_us", "us", Lower),
    pl("worker.pull_p999_us", "us", Lower),
    pl("worker.push_p99_us", "us", Lower),
    pl("worker.localize_p50_us", "us", Lower),
    pl("worker.local_ratio", "ratio", Higher),
    pl("worker.keys_per_batch_msg", "keys/msg", Higher),
    pl("worker.relocation_conflicts_per_kkey", "1/kkey", Lower),
    // sampling
    pl("sampling.alias_sample_ns", "ns", Lower),
    pl("sampling.prepare_pull_us", "us", Lower),
    pl("sampling.postponed_ratio", "ratio", Lower),
    pl("sampling.remote_ratio", "ratio", Lower),
    // ml
    pl("ml.step_compute_us", "us", Lower),
    pl("ml.sim_final_loss", "loss", Lower),
    // workloads, system
    pl("workloads.generate_ms", "ms", Lower),
    pl("system.bootstrap_ms", "ms", Lower),
    pl("system.deploy_ms", "ms", Lower),
    pl("system.finalize_ms", "ms", Lower),
    pl("system.shutdown_ms", "ms", Lower),
    // obs
    pl("obs.hist_record_ns", "ns", Lower),
    pl("obs.trace_event_ns", "ns", Lower),
    pl("obs.trace_overhead_pct", "%", Lower),
    // alloc
    pl("alloc.allocs_per_key", "allocs/key", Lower),
    pl("alloc.bytes_per_key", "B/key", Lower),
    // budget
    pl("budget.remote_pull.explained_us", "us", Higher),
    pl("budget.remote_pull.unexplained_us", "us", Lower),
];

/// Which declared set a report must cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    EndToEnd,
    PerLayer,
}

/// The declared `(name, unit)` of the metric called `name`.
fn declared(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
}

/// The values of one run, by metric name.
#[derive(Default)]
pub struct Report {
    /// Declared metrics: name → (value, unit).
    values: BTreeMap<&'static str, (f64, &'static str)>,
    /// Everything else worth printing (`<metric>.spread`, sample counts,
    /// `ops_attempted`…): `(name, value, unit)` in insertion order.
    pub extras: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record a declared metric. An undeclared name is a bug in the
    /// harness, not in the program under test.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, unit) =
            declared(name).unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        self.values.insert(name, (value, unit));
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push((name.into(), value, unit));
    }

    /// Declared metrics of `section`, in declaration order, with those a
    /// run failed to produce (or produced as a non-number) listed apart.
    pub fn section(
        &self,
        section: Section,
    ) -> (Vec<(&'static str, f64, &'static str)>, Vec<&'static str>) {
        let names: Vec<&'static str> = match section {
            Section::EndToEnd => END_TO_END.iter().map(|m| m.name).collect(),
            Section::PerLayer => PER_LAYER.iter().map(|m| m.name).collect(),
        };
        let mut present = Vec::new();
        let mut missing = Vec::new();
        for name in names {
            match self.values.get(name) {
                Some(&(v, unit)) if v.is_finite() => present.push((name, v, unit)),
                _ => missing.push(name),
            }
        }
        (present, missing)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, …}` with every digit of `v`.
pub fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(n), json_str(u)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"bench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"bench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.label())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{} [{}]", m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{} [{}]", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        for shape in crate::ladder::MSG_SHAPES {
            for dir in ["encode", "decode"] {
                let name = format!("messages.{dir}_ns.{shape}");
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} not declared");
            }
        }
    }

    #[test]
    fn benchmark_json_at_the_repository_root_is_the_declared_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `nups-ledger --print-benchmark-json`"
        );
        assert!(on_disk.len() <= 64 << 10);
    }

    #[test]
    fn a_report_knows_which_declared_metrics_it_lacks() {
        let mut r = Report::default();
        for m in &END_TO_END {
            r.set(m.name, 1.5);
        }
        let (present, missing) = r.section(Section::EndToEnd);
        assert_eq!(present.len(), END_TO_END.len());
        assert!(missing.is_empty());
        assert_eq!(present[0], ("keys_per_s", 1.5, "keys/s"));
        let (present, missing) = r.section(Section::PerLayer);
        assert!(present.is_empty());
        assert_eq!(missing.len(), PER_LAYER.len());
        // A value that is not a number counts as not produced.
        r.set("setup_s", f64::NAN);
        assert_eq!(r.section(Section::EndToEnd).1, vec!["setup_s"]);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        Report::default().set("made_up", 1.0);
    }

    #[test]
    fn json_helpers_escape_and_keep_every_digit() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let j = metrics_json(&[("x", 1.2034567891234, "ms")]);
        assert_eq!(j, "{\"x\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}}");
    }
}
