//! Lint-level policy (`psmlint.toml`) and baseline suppression.
//!
//! Both mechanisms exist so strict linting can be adopted incrementally:
//! a [`LintConfig`] re-levels or silences individual codes (the
//! `allow`/`warn`/`deny` model of `rustc` lints), and a [`Baseline`]
//! suppresses the findings a previous `psmlint --json` run already
//! recorded, leaving only *new* findings to gate on.

use crate::verify::VerifyConfig;
use crate::{AnalysisReport, Diagnostic, Severity};
use psm_persist::JsonValue;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Per-code policy override, mirroring compiler lint levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintLevel {
    /// Drop every diagnostic with this code.
    Allow,
    /// Report the code at [`Severity::Warn`] regardless of its default.
    Warn,
    /// Report the code at [`Severity::Error`] regardless of its default.
    Deny,
}

impl LintLevel {
    /// Parses the `psmlint.toml` spelling of a level.
    pub fn parse(text: &str) -> Option<LintLevel> {
        match text {
            "allow" => Some(LintLevel::Allow),
            "warn" => Some(LintLevel::Warn),
            "deny" => Some(LintLevel::Deny),
            _ => None,
        }
    }
}

/// Per-code lint levels and verification knobs, parsed from a
/// `psmlint.toml` file.
///
/// The accepted grammar is the TOML subset the tool needs — `#` comments,
/// an optional `[levels]` section header with `CODE = "allow" | "warn" |
/// "deny"` entries (bare entries before any section header are treated as
/// levels too), and an optional `[verify]` section tuning the bounded
/// model checker:
///
/// ```toml
/// # Quieten the dead-cone heuristic, make stuck outputs fatal.
/// [levels]
/// NL004 = "allow"
/// NL009 = "deny"
///
/// [verify]
/// depth = 12       # unroll bound (0 disables the pass)
/// enum_bits = 8    # exhaustive-mode input-width budget
/// max_states = 1024
/// samples = 0      # optional concrete random runs
/// seed = 7
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    levels: BTreeMap<String, LintLevel>,
    verify: Option<VerifyConfig>,
}

impl LintConfig {
    /// An empty configuration (every code keeps its catalogue severity).
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Sets the level of one code, returning the updated configuration.
    pub fn with_level(mut self, code: impl Into<String>, level: LintLevel) -> Self {
        self.levels.insert(code.into(), level);
        self
    }

    /// The configured level of `code`, if any.
    pub fn level(&self, code: &str) -> Option<LintLevel> {
        self.levels.get(code).copied()
    }

    /// The `[verify]` overrides, if the file carried that section.
    pub fn verify(&self) -> Option<&VerifyConfig> {
        self.verify.as_ref()
    }

    /// `true` when no override is configured.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty() && self.verify.is_none()
    }

    /// Parses the `psmlint.toml` grammar.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered message for unknown sections, malformed
    /// entries and unknown level names.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut config = LintConfig::default();
        let mut in_verify = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let name = section
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unterminated section `{raw}`", i + 1))?
                    .trim();
                match name {
                    "levels" => in_verify = false,
                    "verify" => {
                        in_verify = true;
                        config.verify.get_or_insert_with(VerifyConfig::default);
                    }
                    _ => return Err(format!("line {}: unknown section `[{name}]`", i + 1)),
                }
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("line {}: expected `CODE = \"level\"`, got `{raw}`", i + 1)
            })?;
            let key = key.trim();
            let value = value.trim().trim_matches('"');
            if in_verify {
                let verify = config.verify.as_mut().expect("section opened above");
                let number: u64 = value.parse().map_err(|_| {
                    format!(
                        "line {}: `[verify]` values are integers, got `{value}`",
                        i + 1
                    )
                })?;
                match key {
                    "depth" => verify.depth = number as usize,
                    "enum_bits" => {
                        // Exhaustive mode packs one input assignment into
                        // a u64; 64+ bits would overflow the enumeration
                        // (and 2^64 branches per cycle is no budget).
                        if number >= 64 {
                            return Err(format!(
                                "line {}: `enum_bits` must be below 64, got {number}",
                                i + 1
                            ));
                        }
                        verify.enum_bits = number as usize;
                    }
                    "max_states" => verify.max_states = number as usize,
                    "samples" => verify.samples = number as usize,
                    "seed" => verify.seed = number,
                    _ => return Err(format!("line {}: unknown `[verify]` key `{key}`", i + 1)),
                }
            } else {
                let level = LintLevel::parse(value)
                    .ok_or_else(|| format!("line {}: unknown lint level `{value}`", i + 1))?;
                config.levels.insert(key.to_owned(), level);
            }
        }
        Ok(config)
    }

    /// Applies the configured levels to a report: `allow`ed codes are
    /// dropped, `warn`/`deny` re-level the surviving diagnostics.
    pub fn apply(&self, report: AnalysisReport) -> AnalysisReport {
        if self.is_empty() {
            return report;
        }
        let mut out = AnalysisReport::new(report.artifact().to_owned());
        for d in report.diagnostics() {
            match self.level(d.code) {
                Some(LintLevel::Allow) => {}
                Some(LintLevel::Warn) => out.push(Diagnostic {
                    severity: Severity::Warn,
                    ..d.clone()
                }),
                Some(LintLevel::Deny) => out.push(Diagnostic {
                    severity: Severity::Error,
                    ..d.clone()
                }),
                None => out.push(d.clone()),
            }
        }
        out
    }
}

/// A set of previously recorded findings to suppress.
///
/// Built from the JSON document a prior `psmlint --json` run printed;
/// a finding is suppressed when the same `(file, code, location)` triple
/// was already present. Messages are deliberately not compared, so
/// reworded diagnostics do not resurface old findings.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    keys: BTreeSet<String>,
}

impl Baseline {
    /// The suppression key of one finding.
    fn key(file: &str, code: &str, location: &str) -> String {
        format!("{file}\u{1f}{code}\u{1f}{location}")
    }

    /// Parses a `psmlint --json` document (`psmlint/v1` schema or the
    /// legacy envelope without a `schema` field).
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not valid JSON or lacks the
    /// expected `reports` array.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("baseline is not JSON: {e}"))?;
        let reports = doc
            .arr_field("reports")
            .map_err(|e| format!("baseline has no reports array: {e}"))?;
        let mut keys = BTreeSet::new();
        for entry in reports {
            let file = entry
                .str_field("file")
                .map_err(|e| format!("baseline report entry without file: {e}"))?;
            let report = entry
                .field("report")
                .map_err(|e| format!("baseline report entry without report: {e}"))?;
            let diags = report
                .arr_field("diagnostics")
                .map_err(|e| format!("baseline report without diagnostics: {e}"))?;
            for d in diags {
                let code = d
                    .str_field("code")
                    .map_err(|e| format!("baseline diagnostic without code: {e}"))?;
                let location = d
                    .str_field("location")
                    .map_err(|e| format!("baseline diagnostic without location: {e}"))?;
                keys.insert(Baseline::key(file, code, location));
            }
        }
        Ok(Baseline { keys })
    }

    /// Number of suppressed findings the baseline carries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the baseline suppresses nothing.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// `true` when `diagnostic` in `file` matches a recorded finding.
    pub fn contains(&self, file: &str, diagnostic: &Diagnostic) -> bool {
        self.keys
            .contains(&Baseline::key(file, diagnostic.code, &diagnostic.location))
    }

    /// Splits a report into (new, suppressed-count) under this baseline.
    pub fn filter(&self, file: &str, report: AnalysisReport) -> (AnalysisReport, usize) {
        if self.is_empty() {
            return (report, 0);
        }
        let mut out = AnalysisReport::new(report.artifact().to_owned());
        let mut suppressed = 0usize;
        for d in report.diagnostics() {
            if self.contains(file, d) {
                suppressed += 1;
            } else {
                out.push(d.clone());
            }
        }
        (out, suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes;

    fn sample_report() -> AnalysisReport {
        let mut r = AnalysisReport::new("netlist `x`");
        r.push(Diagnostic::new(&codes::NL002, "net n7", "two drivers"));
        r.push(Diagnostic::new(&codes::NL004, "net n9", "dead cone"));
        r
    }

    #[test]
    fn parses_levels_section() {
        let config = LintConfig::parse(
            "# policy\n[levels]\nNL004 = \"deny\"  # escalate\nNL002 = \"allow\"\n",
        )
        .unwrap();
        assert_eq!(config.level("NL004"), Some(LintLevel::Deny));
        assert_eq!(config.level("NL002"), Some(LintLevel::Allow));
        assert_eq!(config.level("NL001"), None);
    }

    #[test]
    fn rejects_unknown_sections_and_levels() {
        assert!(LintConfig::parse("[output]\n").is_err());
        assert!(LintConfig::parse("NL004 = \"fatal\"\n").is_err());
        assert!(LintConfig::parse("NL004\n").is_err());
    }

    #[test]
    fn parses_verify_section() {
        let config = LintConfig::parse(
            "[levels]\nNL004 = \"allow\"\n[verify]\ndepth = 12\nenum_bits = 4\nsamples = 3\n",
        )
        .unwrap();
        let verify = config.verify().expect("section parsed");
        assert_eq!(verify.depth, 12);
        assert_eq!(verify.enum_bits, 4);
        assert_eq!(verify.samples, 3);
        // Unset keys keep their defaults.
        assert_eq!(verify.max_states, VerifyConfig::default().max_states);
        // Levels before and after still apply.
        assert_eq!(config.level("NL004"), Some(LintLevel::Allow));
        assert!(LintConfig::parse("[verify]\ndepth = \"lots\"\n").is_err());
        assert!(LintConfig::parse("[verify]\nbananas = 3\n").is_err());
        // 64+ would overflow the packed-u64 input enumeration.
        assert!(LintConfig::parse("[verify]\nenum_bits = 64\n").is_err());
        assert!(LintConfig::parse("[verify]\nenum_bits = 63\n").is_ok());
        assert!(LintConfig::parse("x\n").is_err());
        assert!(LintConfig::parse("").unwrap().verify().is_none());
    }

    #[test]
    fn apply_drops_and_relevels() {
        let config = LintConfig::new()
            .with_level("NL002", LintLevel::Warn)
            .with_level("NL004", LintLevel::Allow);
        let out = config.apply(sample_report());
        assert_eq!(out.diagnostics().len(), 1);
        assert_eq!(out.diagnostics()[0].code, "NL002");
        assert_eq!(out.diagnostics()[0].severity, Severity::Warn);
        assert!(!out.has_errors());
    }

    #[test]
    fn baseline_suppresses_known_findings() {
        let report = sample_report();
        let json = format!(
            "{{\"reports\":[{{\"file\":\"x.v\",\"report\":{}}}],\"errors\":1,\"warnings\":1}}",
            report.to_json().render()
        );
        let baseline = Baseline::parse(&json).unwrap();
        assert_eq!(baseline.len(), 2);
        let (new, suppressed) = baseline.filter("x.v", sample_report());
        assert_eq!(suppressed, 2);
        assert!(new.is_clean());
        // A different file does not match the recorded keys.
        let (new, suppressed) = baseline.filter("y.v", sample_report());
        assert_eq!(suppressed, 0);
        assert_eq!(new.diagnostics().len(), 2);
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{\"no_reports\":1}").is_err());
    }
}
