//! `lint.toml` — which crates play which role in the cross-file rules —
//! and the one-line TOML values it shares with the Cargo.toml lookups.
//!
//! The parser handles the small TOML subset the config actually uses
//! (one `[flow]` table, one-line string and string-array values, `#`
//! comment lines); anything else is a hard error so a typo cannot
//! silently drop a rule from the gate.

/// The parsed `[flow]` table (see `crate::flow`).
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Flow rule families/ids to enable (`handler_coverage`,
    /// `lock_order`).
    pub rules: Vec<String>,
    /// Enums whose variants must each be constructed outside tests.
    pub handler_enums: Vec<String>,
    /// The crate defining the handler enums.
    pub core: String,
    /// Crates whose lock acquisition orders are checked pairwise.
    pub lock_order: Vec<String>,
}

impl Config {
    /// Parse the configuration text. Errors name the offending line.
    pub fn parse(src: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut in_flow = false;
        for (idx, line) in src.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[flow]" {
                in_flow = true;
                continue;
            }
            let at = |e: String| format!("lint.toml:{}: {e}", idx + 1);
            let Some((key, value)) = line.split_once('=').filter(|_| in_flow) else {
                return Err(at(format!("expected `key = value` under [flow], got `{line}`")));
            };
            let value = value.trim();
            match key.trim() {
                "rules" => cfg.rules = string_array(value).map_err(at)?,
                "handler_enums" => cfg.handler_enums = string_array(value).map_err(at)?,
                "core" => cfg.core = string(value).map_err(at)?,
                "lock_order" => cfg.lock_order = string_array(value).map_err(at)?,
                other => return Err(at(format!("unknown flow key `{other}`"))),
            }
        }
        Ok(cfg)
    }
}

/// A quoted string value, unquoted.
pub fn string(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{value}`"))
}

/// A one-line array of quoted strings.
pub fn string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected a one-line array, got `{value}`"))?;
    inner.split(',').map(str::trim).filter(|p| !p.is_empty()).map(string).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flow_section() {
        let cfg = Config::parse(
            "# comment\n[flow]\nrules = [\"handler_coverage\", \"lock_order\"]\n\
             handler_enums = [\"Message\", \"Timer\"]\ncore = \"vsr-core\"\n\
             lock_order = [\"vsr-runtime\", \"vsr-net\",]\n",
        )
        .expect("parses");
        assert_eq!(cfg.rules, ["handler_coverage", "lock_order"]);
        assert_eq!(cfg.handler_enums, ["Message", "Timer"]);
        assert_eq!(cfg.core, "vsr-core");
        assert_eq!(cfg.lock_order, ["vsr-runtime", "vsr-net"]);
    }

    #[test]
    fn junk_is_an_error() {
        assert!(Config::parse("wat\n").is_err());
        assert!(Config::parse("[flow]\ncore = unquoted\n").is_err());
        assert!(Config::parse("[flow]\nlock_order = [\n    \"vsr-net\",\n]\n").is_err());
        let err = Config::parse("[crates.x]\npath = \"x\"\n").expect_err("rejects");
        assert!(err.contains("lint.toml:1:") && err.contains("under [flow]"), "{err}");
    }

    #[test]
    fn unknown_flow_key_is_an_error() {
        let err = Config::parse("[flow]\ncores = \"x\"\n").expect_err("rejects");
        assert!(err.contains("unknown flow key"));
    }
}
