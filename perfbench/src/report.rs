//! One workload's outcome: counts, metrics, and the human-readable report.

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were shed, or missed their deadline.
    pub failed: u64,
    /// End-to-end metrics (the untraced run's JSON line).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (the traced run's JSON line).
    pub per_layer: Vec<Metric>,
    /// Workload-specific metrics printed by name but not part of the
    /// JSON line (they do not apply to every workload).
    pub extra: Vec<Metric>,
    /// Free-form detail rows (per shape, per stage).
    pub details: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, line: String) {
        self.details.push(line);
    }

    fn headline(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Prints the human-readable report (everything before the JSON line).
    pub fn print_text(&self, workload: &str, trace: bool) {
        let kind = if trace { "traced" } else { "untraced" };
        println!("== {workload} ({kind}) ==");
        for line in &self.details {
            println!("  {line}");
        }
        for m in self.headline(trace).iter().chain(&self.extra) {
            println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  attempted {} operations, {} failed",
            self.attempted, self.failed
        );
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// Reaching this point means every reference check passed.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation completed in the measured phase".into());
        }
        let mut parts = Vec::new();
        for m in self.headline(trace) {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}
