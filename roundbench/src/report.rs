//! Metric names and units, and the result printed by every run.

use crate::gate::Check;

/// A metric's name and unit, as `BENCHMARK.json` declares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Metrics a user of the federation sees, printed by untraced runs.
pub const END_TO_END: [Def; 7] = [
    def("round_s", "s"),
    def("client_crypto_s", "s"),
    def("upload_bytes", "B"),
    def("accuracy", "fraction"),
    def("setup_s", "s"),
    def("rss_peak_mb", "MiB"),
    def("upload_ok_ratio", "fraction"),
];

/// Per-layer metrics, printed by traced runs. Times are per call
/// unless the note printed beside them says otherwise.
pub const PER_LAYER: [Def; 40] = [
    def("data.generate_s", "s"),
    def("hdc.prepare_s", "s"),
    def("hdc.train_s", "s"),
    def("hdc.eval_s", "s"),
    def("fhe.encode_s", "s"),
    def("fhe.noise_s", "s"),
    def("fhe.encrypt_s", "s"),
    def("fhe.encrypt_symmetric_s", "s"),
    def("fhe.decrypt_s", "s"),
    def("fhe.crt_s", "s"),
    def("fhe.ntt_fwd_s", "s"),
    def("fhe.ntt_inv_s", "s"),
    def("fhe.pointwise_s", "s"),
    def("fhe.serialize_s", "s"),
    def("fhe.deserialize_s", "s"),
    def("fhe.fold_view_s", "s"),
    def("fhe.cts_per_upload", "count"),
    def("core.encrypt_model_s", "s"),
    def("core.aggregate_s", "s"),
    def("core.fold_upload_s", "s"),
    def("core.decrypt_model_s", "s"),
    def("net.encode_upload_s", "s"),
    def("net.parse_upload_s", "s"),
    def("net.encode_broadcast_s", "s"),
    def("net.decode_broadcast_s", "s"),
    def("net.client_busy_s", "s"),
    def("net.client_wait_s", "s"),
    def("net.server_aggregate_s", "s"),
    def("net.bytes_tx", "B"),
    def("net.bytes_rx", "B"),
    def("net.retries", "count"),
    def("net.nacks", "count"),
    def("net.dropped", "count"),
    def("par.degree", "count"),
    def("par.encrypt_speedup", "ratio"),
    def("par.decrypt_speedup", "ratio"),
    def("trace.overhead", "ratio"),
    def("trace.unattributed_s", "s"),
    def("round_tail_s", "s"),
    def("fail_ratio", "fraction"),
];

/// One reported metric; `None` means the layer does not run on this
/// workload (printed as "not run", 0 in the JSON line, as is a
/// non-finite value, which also fails the gate).
#[derive(Debug, Clone)]
pub struct Metric {
    pub def: Def,
    pub value: Option<f64>,
    pub note: String,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Free-form lines printed before the metrics (run, env, notes).
    pub header: Vec<String>,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// True when at least one check ran and every check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// The metric named `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.def.name == name)
    }

    /// The human-readable lines followed by the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.header {
            out.push_str(line);
            out.push('\n');
        }
        for m in &self.metrics {
            let value = m.value.map_or_else(|| "not run".to_string(), |v| format!("{v:.6e}"));
            out.push_str(&format!(
                "metric {:<26} {:>13} {:<8} {}\n",
                m.def.name, value, m.def.unit, m.note
            ));
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            out.push_str(&format!("check {verdict} {:<30} {}\n", c.name, c.detail));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.def.name,
                    m.value.filter(|v| v.is_finite()).unwrap_or(0.0),
                    m.def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
