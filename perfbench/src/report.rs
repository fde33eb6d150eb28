//! The run's result: metrics by name with units, operation counts, and
//! the one-line JSON summary printed last on standard output.

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations whose output was produced (and checked).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
}

impl Report {
    /// Record a metric; a later value under the same name replaces it.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => {
                m.1 = value;
                m.2 = unit;
            }
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// Count one checked operation; `ok == false` counts it as failed
    /// and keeps `what` for the failure list.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Human-readable table of the chosen metrics (standard error).
    pub fn print_table(&self, names: &[&str]) {
        for n in names {
            if let Some(m) = self.metrics.iter().find(|m| m.0 == *n) {
                eprintln!("  {:<28} {:>16.6} {}", m.0, m.1, m.2);
            }
        }
    }

    /// The summary line with exactly the named metrics. A metric the run
    /// did not produce, or a non-finite value, is a benchmark bug.
    pub fn json(&self, names: &[&str]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for n in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.0 == *n)
                .ok_or_else(|| format!("metric {n} was not measured"))?;
            if !m.1.is_finite() {
                return Err(format!("metric {n} is not finite: {}", m.1));
            }
            parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(n),
                m.1,
                json_string(m.2)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
