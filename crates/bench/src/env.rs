//! The bench targets' environment reader. The library crates take every
//! setting as a value; only these harnesses read `NEUROCUBE_*` variables
//! (the scene scale and the CSV directory).
//!
//! Unset, empty or non-UTF-8 values read as `None`, and the caller applies
//! its default. The path-valued `NEUROCUBE_CSV` stays on
//! `std::env::var_os` at its call sites, since a path may legitimately be
//! non-UTF-8.

/// String value: `None` when unset, empty, or not valid UTF-8.
#[must_use]
pub(crate) fn env_str(name: &str) -> Option<String> {
    std::env::var_os(name)
        .filter(|v| !v.is_empty())?
        .into_string()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global environment: the test uses variable names no other
    // test touches, so the suite stays order- and thread-independent.

    #[cfg(unix)]
    #[test]
    fn non_utf8_values_read_as_none() {
        use std::os::unix::ffi::OsStringExt;
        let bad = std::ffi::OsString::from_vec(vec![0xFF, 0xFE]);
        std::env::set_var("NC_TEST_NON_UTF8", &bad);
        assert_eq!(env_str("NC_TEST_NON_UTF8"), None);
        std::env::set_var("NC_TEST_EMPTY", "");
        assert_eq!(env_str("NC_TEST_EMPTY"), None);
        std::env::set_var("NC_TEST_SET", "full");
        assert_eq!(env_str("NC_TEST_SET").as_deref(), Some("full"));
    }
}
