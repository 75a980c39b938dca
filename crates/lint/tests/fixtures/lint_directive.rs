// Fixture: triggers exactly one `lint_directive` diagnostic — the
// allow below suppresses nothing, and stale suppressions are findings
// in their own right.

// vsr-lint: allow(expect_used, reason = "stale: the expect this covered is gone")
pub fn nothing_to_suppress() {}
