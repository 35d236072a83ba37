// L004 fixture: cache-key formatting outside cache.rs.

fn ad_hoc_format(seed: u64) -> String {
    format!("v2|w=rogue|seed={seed:016x}") // fire: line 4
}

fn ad_hoc_fingerprint(fp: u64) -> String {
    format!("|fp={fp:016x}") // fire: line 8
}

fn waived(seed: u64) -> String {
    // lint:allow(L004): fixture demonstrating the suppression path
    format!("v2|w=waived|seed={seed:016x}") // suppressed
}

fn unrelated_pipe_string() -> &'static str {
    "a|b|c" // clean: no key-segment marker
}

#[cfg(test)]
mod tests {
    fn asserts_on_canon() {
        assert!(canon.ends_with("|seed=0000000000000007")); // clean: test code
    }
}
