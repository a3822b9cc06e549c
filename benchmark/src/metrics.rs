//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics, and the per-workload report that
//! holds measured values.  `BENCHMARK.json` at the repository root names
//! the same things; a test keeps the two in step.

/// Workload names (permanent) and why each exists, in run order.
pub const WORKLOADS: [(&str, &str); 7] = [
    ("join_uniform", "in-process 256Ki x 512Ki join on uniform distinct keys: the native kernel's worst case, one Vec per key, build+probe+teardown all on the path"),
    ("join_dup_heavy", "same sizes with 90% duplicate keys: the same kernel on long rid runs; a table layout that helps join_uniform predicts little change here"),
    ("cached_probe", "64Ki probes of a registered 256Ki table by 2 clients: build is bypassed, so probe loop, pool dispatch and per-request engine overhead do all the work"),
    ("spill_quarter", "256Ki x 512Ki join under a memory budget of a quarter of its input: run-file I/O, broker grants and re-partitioning, which in-memory workloads bypass"),
    ("wire_closed", "2 TCP connections, closed loop, 8Ki x 16Ki inline with 16Ki pairs streamed back: service capacity of the encode/frame/checksum/socket path"),
    ("wire_open", "same requests at a fixed 250 req/s on seeded independent arrivals, latency from due time: queueing and tail behaviour a closed loop hides"),
    ("sim_paper", "the paper's SHJ/PHJ x CPU-only/GPU-only/DD/OL/PL on the coupled simulator plus discrete PHJ-DD: simulator host speed, simulated times that must repeat exactly"),
];

/// How far an end-to-end metric may worsen before it counts as a
/// regression (and how far two runs of the same code may disagree).
///
/// The timing bounds are as wide as they are because this 2-vCPU host is
/// that noisy: ten 10 s runs of unchanged code spread (first to third
/// quartile) by up to 12 % of their median, whatever statistic is taken —
/// even the fastest single join of a run moves by 4–7 %.  See the README.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the first value.
    Rel(f64),
    /// Absolute difference, in the metric's unit.
    Abs(f64),
    /// Whichever of the two allows more.
    RelOrAbs(f64, f64),
}

impl Bound {
    /// Whether `second` is within this bound of `first`.
    pub fn admits(self, first: f64, second: f64) -> bool {
        let diff = (second - first).abs();
        match self {
            Bound::Rel(share) => diff <= share * first.abs(),
            Bound::Abs(limit) => diff <= limit,
            Bound::RelOrAbs(share, limit) => diff <= (share * first.abs()).max(limit),
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Rel(share) => write!(f, "{}%", share * 100.0),
            Bound::Abs(limit) => write!(f, "{limit} abs"),
            Bound::RelOrAbs(share, limit) => write!(f, "{}% or {limit} abs", share * 100.0),
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Bound,
    /// Reported by every workload and never zero, so `BENCHMARK.json` can
    /// list it under `end_to_end`; the others apply to one workload (or
    /// read zero when all is well) and appear there under `per_layer`.
    pub every_workload: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: Bound::RelOrAbs(0.25, 0.10),
        every_workload: true,
    },
    EndToEnd {
        name: "joins_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: Bound::Rel(0.25),
        every_workload: true,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: Bound::Rel(0.25),
        every_workload: true,
    },
    EndToEnd {
        name: "within_slo_pct",
        unit: "%",
        higher_is_better: true,
        bound: Bound::Abs(3.0),
        every_workload: false,
    },
    EndToEnd {
        name: "failed_pct",
        unit: "%",
        higher_is_better: false,
        bound: Bound::Abs(0.0),
        every_workload: false,
    },
    EndToEnd {
        name: "cache_bytes_per_tuple",
        unit: "B/tuple",
        higher_is_better: false,
        bound: Bound::Rel(0.01),
        every_workload: false,
    },
    EndToEnd {
        name: "spill_bytes_per_input_byte",
        unit: "B/B",
        higher_is_better: false,
        bound: Bound::Rel(0.01),
        every_workload: false,
    },
];

/// Per-layer metrics: `(name, unit)`, the layer being the name's prefix.
/// Units `sim_ms` are *simulated* time; every other time is host
/// wall-clock.  A workload that does not exercise a layer reports 0.
pub const PER_LAYER: [(&str, &str); 79] = [
    ("datagen.generate_ms", "ms"),
    ("engine.new_ms", "ms"),
    ("engine.submit_ms_mean", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.peak_in_flight", "count"),
    ("engine.rejected_saturated", "count"),
    ("engine.requests_failed", "count"),
    ("kernel.build_ms", "ms"),
    ("kernel.probe_ms", "ms"),
    ("kernel.build_ns_per_tuple", "ns/tuple"),
    ("kernel.probe_ns_per_tuple", "ns/tuple"),
    ("pipeline.tasks_per_join", "count"),
    ("pipeline.steals_per_join", "count"),
    ("pipeline.busy_share", "ratio"),
    ("pipeline.dispatch_us", "us"),
    ("cached.register_ms", "ms"),
    ("cached.first_build_ms", "ms"),
    ("cached.hit_ratio", "ratio"),
    ("cached.resident_bytes", "B"),
    ("cached.evictions", "count"),
    ("spill.bytes_spilled_per_join", "B"),
    ("spill.bytes_restored_per_join", "B"),
    ("spill.partitions_per_join", "count"),
    ("spill.recursion_depth_max", "count"),
    ("spill.fallback_joins", "count"),
    ("spill.grant_denials", "count"),
    ("spill.io_ms", "ms"),
    ("spill.run_write_mb_per_s", "MB/s"),
    ("spill.run_read_mb_per_s", "MB/s"),
    ("spill.live_files_after", "count"),
    ("spill.granted_bytes_after", "B"),
    ("message.request_encode_us", "us"),
    ("message.request_decode_us", "us"),
    ("message.chunk_encode_us", "us"),
    ("message.chunk_decode_us", "us"),
    ("frame.write_us", "us"),
    ("frame.read_us", "us"),
    ("wire.request_bytes", "B"),
    ("wire.reply_bytes", "B"),
    ("admission.admit_complete_ns", "ns"),
    ("admission.shed_deadline", "count"),
    ("admission.shed_quota", "count"),
    ("admission.shed_queue_budget", "count"),
    ("admission.shed_saturated", "count"),
    ("admission.batches", "count"),
    ("admission.batched_requests", "count"),
    ("serve.start_ms", "ms"),
    ("serve.connect_us", "us"),
    ("serve.roundtrip_ms_p50", "ms"),
    ("serve.wire_overhead_ms", "ms"),
    ("client.latency_p95_ms", "ms"),
    ("client.latency_tail_ms", "ms"),
    ("client.tail_percentile", "%"),
    ("client.samples", "count"),
    ("client.late_p99_ms", "ms"),
    ("client.offered_per_s", "1/s"),
    ("client.attempted", "count"),
    ("client.failed", "count"),
    ("sim.shj_cpu_only_ms", "sim_ms"),
    ("sim.shj_gpu_only_ms", "sim_ms"),
    ("sim.shj_dd_ms", "sim_ms"),
    ("sim.shj_ol_ms", "sim_ms"),
    ("sim.shj_pl_ms", "sim_ms"),
    ("sim.phj_cpu_only_ms", "sim_ms"),
    ("sim.phj_gpu_only_ms", "sim_ms"),
    ("sim.phj_dd_ms", "sim_ms"),
    ("sim.phj_ol_ms", "sim_ms"),
    ("sim.phj_pl_ms", "sim_ms"),
    ("sim.discrete_phj_dd_ms", "sim_ms"),
    ("sim.pl_gain_vs_cpu_only_pct", "%"),
    ("sim.pl_gain_vs_gpu_only_pct", "%"),
    ("sim.pl_gain_vs_dd_pct", "%"),
    ("sim.host_ms_per_join", "ms"),
    ("costmodel.calibrate_ms", "ms"),
    ("costmodel.tune_ms", "ms"),
    ("sim.phj_pl_tuned_ms", "sim_ms"),
    ("metrics.render_us", "us"),
    ("metrics.trace_dropped", "count"),
    ("bench.trace_overhead_pct", "%"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing (printed beside it).
    pub samples: Option<u64>,
}

/// Everything one workload run measured, in the order it was set.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run does not count (wrong result, leak, late generator).
    pub invalid: Vec<String>,
    /// What a reader must know beside the numbers.
    pub notes: Vec<String>,
    values: Vec<Value>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            ..Report::default()
        }
    }

    /// Sets (or replaces) `name`; panics on a name outside the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, value, None);
    }

    /// As [`set`](Self::set), for a timing backed by `samples` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: u64) {
        self.put(name, value, Some(samples));
    }

    fn put(&mut self, name: &'static str, value: f64, samples: Option<u64>) {
        assert!(value.is_finite(), "metric {name} measured {value}");
        let entry = Value {
            name,
            value,
            unit: unit_of(name),
            samples,
        };
        match self.values.iter_mut().find(|v| v.name == name) {
            Some(slot) => *slot = entry,
            None => self.values.push(entry),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    /// The result line of the builder's contract.  `trace` selects the
    /// metric set: `Some(false)` the every-workload end-to-end metrics,
    /// `Some(true)` every other catalogued metric (0 where the workload
    /// does not exercise the layer), `None` whatever was measured.
    pub fn result_json(&self, trace: Option<bool>) -> String {
        let every: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.every_workload)
            .map(|m| m.name)
            .collect();
        let listed: Vec<(&str, f64, &str)> = match trace {
            None => self
                .values
                .iter()
                .map(|v| (v.name, v.value, v.unit))
                .collect(),
            Some(false) => every
                .iter()
                .map(|&name| (name, self.get(name).unwrap_or(0.0), unit_of(name)))
                .collect(),
            Some(true) => END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(PER_LAYER)
                .filter(|(name, _)| !every.contains(name))
                .map(|(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
                .collect(),
        };
        let metrics: Vec<String> = listed
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{unit}"
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(END_TO_END.iter().all(|m| match m.bound {
            Bound::Rel(s) | Bound::RelOrAbs(s, _) => s <= 0.25,
            Bound::Abs(_) => true,
        }));
    }

    /// Every quoted string that follows a `"name":` key in `text`.
    fn names_in(text: &str) -> Vec<&str> {
        text.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name"))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| {
            let from = text.find(&format!("\"{key}\"")).expect(key);
            let to = text.find(&format!("\"{next}\"")).expect(next);
            names_in(&text[from..to])
        };
        let workloads = section("workloads", "end_to_end");
        let end_to_end = section("end_to_end", "per_layer");
        let per_layer = names_in(&text[text.find("\"per_layer\"").unwrap()..]);

        assert_eq!(workloads, WORKLOADS.map(|w| w.0));
        let every: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.every_workload)
            .map(|m| m.name)
            .collect();
        assert_eq!(end_to_end, every);
        let rest: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| !m.every_workload)
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(per_layer, rest);
        for m in END_TO_END.iter().filter(|m| m.every_workload) {
            let share = match m.bound {
                Bound::Rel(s) | Bound::RelOrAbs(s, _) => s,
                Bound::Abs(_) => unreachable!("driver bounds are relative"),
            };
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {share}}}",
                m.name, m.unit
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
    }

    #[test]
    fn bounds_admit_what_they_say() {
        assert!(Bound::Rel(0.10).admits(100.0, 109.9));
        assert!(!Bound::Rel(0.10).admits(100.0, 89.0));
        assert!(Bound::Abs(0.0).admits(0.0, 0.0));
        assert!(!Bound::Abs(0.0).admits(0.0, 0.1));
        assert!(Bound::RelOrAbs(0.25, 0.10).admits(0.2, 0.29));
        assert!(!Bound::RelOrAbs(0.25, 0.10).admits(2.0, 2.6));
    }

    #[test]
    fn result_json_follows_the_trace_switch() {
        let mut report = Report::new("join_uniform");
        report.attempted = 3;
        report.set("setup_s", 0.5);
        report.set("joins_per_s", 16.25);
        report.set_n("latency_p50_ms", 61.5, 3);
        report.set("kernel.build_ms", 20.0);
        let timed = report.result_json(Some(false));
        assert!(timed.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(timed.contains("\"joins_per_s\": {\"value\": 16.25, \"unit\": \"1/s\"}"));
        assert!(!timed.contains("kernel.build_ms"));
        let traced = report.result_json(Some(true));
        assert!(traced.contains("\"kernel.build_ms\": {\"value\": 20, \"unit\": \"ms\"}"));
        assert!(traced.contains("\"spill.io_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(traced.contains("\"failed_pct\"") && !traced.contains("\"setup_s\""));
        report.invalid.push("leak".into());
        assert!(report.result_json(None).starts_with("{\"correct\": false"));
    }
}
