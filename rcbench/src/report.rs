//! Run results: named metrics with units and sample counts, the
//! generated inputs they were measured on, and the result line.

use crate::check::Failures;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// Builds metric lists tersely.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        // Non-finite values (empty ratios) and -0.0 (an empty f64 sum)
        // print as 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (jobs or requests) plus output checks made.
    pub attempted: u64,
    pub failures: Failures,
    pub metrics: Metrics,
    /// The generated inputs, one line each, in the order they were made.
    pub inputs: Vec<String>,
    /// Jobs whose allocation search hit its enumeration cap.
    pub cap_hit_points: usize,
}

impl Outcome {
    pub fn input_fingerprint(&self) -> u64 {
        crate::util::fingerprint(self.inputs.iter().map(String::as_str))
    }

    /// Prints the human-readable table, then the result line last.
    pub fn print(&self, workload: &str, seed: u64) {
        println!(
            "workload {workload} seed {seed}: {} generated inputs, fingerprint {:016x}, {} alloc_cap_hit points",
            self.inputs.len(),
            self.input_fingerprint(),
            self.cap_hit_points
        );
        for m in &self.metrics.0 {
            println!(
                "  {:<26} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "  {:<26} {:>16.6} {:<6} n={}",
            "error_ratio",
            crate::util::ratio(self.failures.count as f64, self.attempted as f64),
            "ratio",
            self.attempted
        );
        for f in &self.failures.first {
            println!("  FAILED: {f}");
        }
        println!("{}", self.result_line());
    }

    fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.0.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.count == 0,
            self.attempted.max(1),
            self.failures.count
        )
    }

    /// Records the run — inputs, fingerprint, cap-hit count, metrics with
    /// sample counts, failures — as one JSON document.
    pub fn write(
        &self,
        path: &Path,
        workload: &str,
        seed: u64,
        trace: bool,
    ) -> std::io::Result<()> {
        let quote = |s: &str| serde_json::to_string(&s.to_owned()).expect("strings serialize");
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n\"workload\": {},\n\"seed\": {seed},\n\"trace\": {trace},\n\"input_fingerprint\": \"{:016x}\",\n\
             \"alloc_cap_hit_points\": {},\n\"attempted\": {},\n\"failed\": {},\n\"failures\": [{}],\n\"metrics\": {{",
            quote(workload),
            self.input_fingerprint(),
            self.cap_hit_points,
            self.attempted,
            self.failures.count,
            self.failures.first.iter().map(|f| quote(f)).collect::<Vec<_>>().join(", ")
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\n  \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out.push_str("\n},\n\"inputs\": [");
        for (i, line) in self.inputs.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\n  {}", quote(line));
        }
        out.push_str("\n]\n}\n");
        std::fs::write(path, out)
    }
}
