// Fixture: lints clean under every rule family. Exercises the three
// sanctioned escape hatches: an `invariant:`-prefixed expect, a
// reasoned allow directive, and test-only code (ignored wholesale).

pub fn primary_id(primary: Option<u32>) -> u32 {
    primary.expect("invariant: a formed view always has a primary")
}

pub fn bind(addr: Result<u32, String>) -> u32 {
    // vsr-lint: allow(expect_used, reason = "fixture: demonstrates a reasoned suppression")
    addr.expect("startup misconfiguration")
}

#[cfg(test)]
mod tests {
    #[test]
    fn expect_is_fine_in_tests() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.expect("present"), 1);
    }
}
