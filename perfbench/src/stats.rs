//! Sample summaries and the result line.

/// Nearest-rank quantile `q` of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A named metric with its unit, in output order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The run's result: printed as a table for people, then as the one-line
/// JSON object that ends standard output.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metrics that go into the JSON line.
    pub metrics: Vec<Metric>,
    /// Metrics printed by name and unit but left out of the JSON line.
    pub diagnostics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn diagnostic(&mut self, name: &str, value: f64, unit: &'static str) {
        self.diagnostics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for m in &self.diagnostics {
            println!(
                "  {:<32} {:>14.4} {}   (diagnostic)",
                m.name, m.value, m.unit
            );
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
