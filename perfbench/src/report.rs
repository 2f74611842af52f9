//! The result line every run ends with, its parser, and the order
//! statistics the workloads report.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": bool, "attempted": n, "failed": n, "metrics": {name:
//! {"value": x, "unit": u}}}`. [`Summary::from_json`] reads it back, so
//! tests can check that what a run prints is what it measured.

use bmhive_telemetry::export::{json_escape, json_f64};
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit (`1/s`, `s`, `MiB`, `count`, `ns`, `share`, ...).
    pub unit: String,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Every output check passed.
    pub correct: bool,
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Operations that failed (see [`crate::Outcome`]).
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Summary {
    /// Renders the result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_escape(&m.name),
                    json_f64(m.value),
                    json_escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a result line produced by [`Summary::to_json`]. Metrics
    /// come back sorted by name.
    ///
    /// # Errors
    ///
    /// Describes the first way `line` is not a well-formed result.
    pub fn from_json(line: &str) -> Result<Summary, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        let Json::Obj(top) = v else {
            return Err("result is not an object".into());
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let Some(Json::Bool(correct)) = top.get("correct") else {
            return Err("`correct` is not a bool".into());
        };
        let count = |k: &str| match top.get(k) {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("`{k}` is not a whole number")),
        };
        let Some(Json::Obj(ms)) = top.get("metrics") else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in ms {
            let Json::Obj(m) = m else {
                return Err(format!("metric {name} is not an object"));
            };
            let (Some(Json::Num(value)), Some(Json::Str(unit)), 2) =
                (m.get("value"), m.get("unit"), m.len())
            else {
                return Err(format!("metric {name} needs exactly a value and a unit"));
            };
            metrics.push(Metric::new(name.clone(), *value, unit));
        }
        Ok(Summary {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[derive(Debug)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(BTreeMap<String, Json>),
}

/// A parser for the JSON subset [`Summary::to_json`] writes: objects,
/// strings without escapes other than `\"` and `\\`, numbers, bools.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') | Some(b'f') => self.word(),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            if map.insert(key.clone(), v).is_some() {
                return Err(format!("duplicate key {key}"));
            }
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    match self.s.get(self.i + 1) {
                        Some(&c @ (b'"' | b'\\')) => out.push(c),
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    }
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn word(&mut self) -> Result<Json, String> {
        for (w, v) in [("true", true), ("false", false)] {
            if self.s[self.i..].starts_with(w.as_bytes()) {
                self.i += w.len();
                return Ok(Json::Bool(v));
            }
        }
        Err(format!("bad literal at byte {}", self.i))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// The `p`-th percentile (0–100) of `values` by nearest rank; 0 for an
/// empty slice. Sorts `values` in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values` (the mean of the middle pair for an even
/// count); 0 for an empty slice. Sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
    }

    #[test]
    fn malformed_results_are_rejected() {
        for bad in [
            "",
            "[]",
            "{\"correct\": true}",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1}}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x",
        ] {
            assert!(Summary::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
