//! Benchmark-side spans for the traced replay.
//!
//! The program's own telemetry stays off: spans are opened here, around
//! each call into a layer's public API, and kept in memory until the
//! run ends.

use std::time::Instant;

use crate::stats::Samples;

/// One closed span: a layer call inside a round, or the round itself.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    round: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Name of the enclosing per-round span.
pub const ROUND: &str = "round";

/// In-memory span recorder with one clock origin.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    /// Opens a span: its start time, to pass to [`Tracer::finish`].
    pub fn start(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes the span opened at `start_ns`.
    pub fn finish(&mut self, name: &'static str, round: usize, start_ns: u64) {
        let end_ns = self.start();
        self.spans.push(Span { name, round, start_ns, end_ns });
    }

    /// Runs `f` inside a span named `name`, attributed to `round`.
    pub fn time<T>(&mut self, name: &'static str, round: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.start();
        let out = f();
        self.finish(name, round, start_ns);
        out
    }

    /// Every span's duration in seconds, pushed under its own name.
    pub fn export(&self, samples: &mut Samples) {
        for s in &self.spans {
            samples.push(s.name, (s.end_ns - s.start_ns) as f64 * 1e-9);
        }
    }

    /// Checks that each round's layer spans lie inside its round span
    /// without overlapping, and returns per round
    /// `(round_ns, layers_ns, remainder_ns)` with
    /// `layers_ns + remainder_ns == round_ns` exactly.
    ///
    /// # Errors
    ///
    /// Describes the first round whose spans do not nest.
    pub fn reconcile(&self) -> Result<Vec<(u64, u64, u64)>, String> {
        let mut out = Vec::new();
        for round in self.spans.iter().filter(|s| s.name == ROUND) {
            let mut layers: Vec<&Span> =
                self.spans.iter().filter(|s| s.round == round.round && s.name != ROUND).collect();
            layers.sort_by_key(|s| s.start_ns);
            let mut cursor = round.start_ns;
            let mut layers_ns = 0u64;
            for s in layers {
                if s.start_ns < cursor || s.end_ns > round.end_ns {
                    return Err(format!(
                        "round {}: span {} [{}, {}] overlaps or leaves the round [{}, {}]",
                        round.round, s.name, s.start_ns, s.end_ns, round.start_ns, round.end_ns
                    ));
                }
                cursor = s.end_ns;
                layers_ns += s.end_ns - s.start_ns;
            }
            let round_ns = round.end_ns - round.start_ns;
            let remainder_ns = round_ns - layers_ns;
            debug_assert_eq!(layers_ns + remainder_ns, round_ns);
            out.push((round_ns, layers_ns, remainder_ns));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_reconcile_to_the_nanosecond() {
        let mut t = Tracer::default();
        let round = t.start();
        t.time("a", 0, || std::hint::black_box(1 + 1));
        t.time("b", 0, || std::hint::black_box(2 + 2));
        t.finish(ROUND, 0, round);
        let rows = t.reconcile().expect("nested");
        assert_eq!(rows.len(), 1);
        let (round_ns, layers_ns, rem) = rows[0];
        assert_eq!(layers_ns + rem, round_ns);
    }

    #[test]
    fn overlapping_spans_are_rejected() {
        let mut t = Tracer::default();
        t.spans.push(Span { name: ROUND, round: 0, start_ns: 0, end_ns: 100 });
        t.spans.push(Span { name: "a", round: 0, start_ns: 10, end_ns: 60 });
        t.spans.push(Span { name: "b", round: 0, start_ns: 50, end_ns: 90 });
        assert!(t.reconcile().is_err());
    }
}
