//! `lint.toml` — which crates get which rule families.
//!
//! The parser handles the small TOML subset the config actually uses
//! (tables, string keys, string and string-array values, `#` comments);
//! anything else is a hard error so a typo cannot silently drop a crate
//! from the gate.

use std::collections::BTreeMap;
use std::fmt;

/// One `[crates.<name>]` entry.
#[derive(Debug, Clone, Default)]
pub struct CrateRules {
    /// Crate root relative to the workspace root (e.g. `crates/core`).
    pub path: String,
    /// Rule families to apply (`determinism`, `sans_io`,
    /// `protocol_shape`, `error_discipline`).
    pub rules: Vec<String>,
}

/// The `[flow]` section: which crates play which role in the
/// cross-file flow analysis (see `crate::flow`).
#[derive(Debug, Clone, Default)]
pub struct FlowConfig {
    /// Flow rule families/ids to enable (`handler_coverage`,
    /// `lock_order`).
    pub rules: Vec<String>,
    /// Enums whose variants need construction + core-handler coverage.
    pub handler_enums: Vec<String>,
    /// The crate defining the protocol enums (handlers live here).
    pub core: String,
    /// Crates whose lock acquisition orders are checked pairwise.
    pub lock_order: Vec<String>,
}

/// The parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crate name → rules, in file order.
    pub crates: BTreeMap<String, CrateRules>,
    /// Enum names whose matches must be exhaustive (no `_ =>`).
    pub watched_enums: Vec<String>,
    /// Cross-file flow analysis configuration.
    pub flow: FlowConfig,
}

/// A parse failure with its line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl Config {
    /// Parse the configuration text.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section: Option<String> = None;
        let lines: Vec<&str> = src.lines().collect();
        let mut idx = 0usize;
        while idx < lines.len() {
            let lineno = idx + 1;
            let mut line = strip_comment(lines[idx]).trim().to_string();
            // Multi-line array: accumulate until the closing bracket.
            while line.contains('[')
                && !line.starts_with('[')
                && !line.contains(']')
                && idx + 1 < lines.len()
            {
                idx += 1;
                line.push(' ');
                line.push_str(strip_comment(lines[idx]).trim());
            }
            idx += 1;
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = Some(name.trim().to_string());
                if let Some(krate) = name.trim().strip_prefix("crates.") {
                    cfg.crates.entry(krate.to_string()).or_default();
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `key = value` or `[section]`, got `{line}`"),
                });
            };
            let key = key.trim();
            let value = value.trim();
            match section.as_deref() {
                Some("protocol") if key == "watched_enums" => {
                    cfg.watched_enums = parse_string_array(value, lineno)?;
                }
                Some("flow") => match key {
                    "rules" => cfg.flow.rules = parse_string_array(value, lineno)?,
                    "handler_enums" => cfg.flow.handler_enums = parse_string_array(value, lineno)?,
                    "core" => cfg.flow.core = parse_string(value, lineno)?,
                    "lock_order" => cfg.flow.lock_order = parse_string_array(value, lineno)?,
                    other => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown flow key `{other}`"),
                        })
                    }
                },
                Some(s) if s.starts_with("crates.") => {
                    let krate = s.trim_start_matches("crates.").to_string();
                    let entry = cfg.crates.entry(krate).or_default();
                    match key {
                        "path" => entry.path = parse_string(value, lineno)?,
                        "rules" => entry.rules = parse_string_array(value, lineno)?,
                        other => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("unknown crate key `{other}`"),
                            })
                        }
                    }
                }
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("key `{key}` outside a recognized section"),
                    })
                }
            }
        }
        for (name, entry) in &cfg.crates {
            if entry.path.is_empty() {
                return Err(ConfigError {
                    line: 0,
                    message: format!("[crates.{name}] is missing `path`"),
                });
            }
        }
        Ok(cfg)
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` only starts a comment outside quotes; the config's values
    // never contain `#`, so a simple scan suffices.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, line: usize) -> Result<String, ConfigError> {
    value.strip_prefix('"').and_then(|v| v.strip_suffix('"')).map(str::to_string).ok_or_else(|| {
        ConfigError { line, message: format!("expected a quoted string, got `{value}`") }
    })
}

fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let inner = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')).ok_or_else(|| {
        ConfigError { line, message: format!("expected an array, got `{value}`") }
    })?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, line)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = Config::parse(
            r#"
# comment
[protocol]
watched_enums = ["Message", "FaultEvent"]

[crates.vsr-core]
path = "crates/core"
rules = ["determinism", "sans_io"]
"#,
        )
        .expect("parses");
        assert_eq!(cfg.watched_enums, ["Message", "FaultEvent"]);
        let core = &cfg.crates["vsr-core"];
        assert_eq!(core.path, "crates/core");
        assert_eq!(core.rules, ["determinism", "sans_io"]);
    }

    #[test]
    fn missing_path_is_an_error() {
        let err = Config::parse("[crates.x]\nrules = [\"determinism\"]\n").expect_err("rejects");
        assert!(err.message.contains("missing `path`"));
    }

    #[test]
    fn multi_line_arrays_parse() {
        let cfg = Config::parse(
            "[protocol]\nwatched_enums = [\n    \"Message\",  # trailing comment\n    \"Status\",\n]\n",
        )
        .expect("parses");
        assert_eq!(cfg.watched_enums, ["Message", "Status"]);
    }

    #[test]
    fn junk_is_an_error() {
        assert!(Config::parse("wat\n").is_err());
        assert!(Config::parse("[crates.x]\npath = unquoted\n").is_err());
    }

    #[test]
    fn parses_flow_section() {
        let cfg = Config::parse(
            "[flow]\nrules = [\"handler_coverage\", \"lock_order\"]\n\
             handler_enums = [\"Message\", \"Timer\"]\ncore = \"vsr-core\"\n\
             lock_order = [\"vsr-runtime\", \"vsr-net\"]\n",
        )
        .expect("parses");
        assert_eq!(cfg.flow.rules, ["handler_coverage", "lock_order"]);
        assert_eq!(cfg.flow.core, "vsr-core");
        assert_eq!(cfg.flow.lock_order, ["vsr-runtime", "vsr-net"]);
    }

    #[test]
    fn unknown_flow_key_is_an_error() {
        let err = Config::parse("[flow]\ncores = \"x\"\n").expect_err("rejects");
        assert!(err.message.contains("unknown flow key"));
    }
}
