//! The bench targets' environment readers. The library crates take every
//! setting as a value; only these harnesses read `NEUROCUBE_*` variables
//! (output paths, the scene scale, repetition counts and gate floors).
//!
//! Unset, empty, unparseable or non-UTF-8 values read as `None`, and the
//! caller applies its default. Path-valued variables stay on
//! `std::env::var_os` at their call sites, since a path may legitimately
//! be non-UTF-8.

/// String value: `None` when unset, empty, or not valid UTF-8.
#[must_use]
pub(crate) fn env_str(name: &str) -> Option<String> {
    std::env::var_os(name)
        .filter(|v| !v.is_empty())?
        .into_string()
        .ok()
}

/// Unsigned integer value: `None` when unset, empty, or unparseable.
#[must_use]
pub fn env_u64(name: &str) -> Option<u64> {
    env_str(name)?.trim().parse().ok()
}

/// Floating-point value: `None` when unset, empty, or unparseable.
#[must_use]
pub fn env_f64(name: &str) -> Option<f64> {
    env_str(name)?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global environment: each test uses a distinct variable name
    // so the suite stays order- and thread-independent.

    #[test]
    fn numeric_values_parse_or_none() {
        std::env::set_var("NC_TEST_U64", " 42 ");
        assert_eq!(env_u64("NC_TEST_U64"), Some(42));
        std::env::set_var("NC_TEST_U64_BAD", "4x2");
        assert_eq!(env_u64("NC_TEST_U64_BAD"), None);
        std::env::set_var("NC_TEST_F64", "1e-7");
        assert_eq!(env_f64("NC_TEST_F64"), Some(1e-7));
        std::env::set_var("NC_TEST_F64_ZERO", "0");
        assert_eq!(env_f64("NC_TEST_F64_ZERO"), Some(0.0));
        std::env::set_var("NC_TEST_EMPTY", "");
        assert_eq!(env_str("NC_TEST_EMPTY"), None);
        assert_eq!(env_f64("NC_TEST_F64_UNSET_XYZ"), None);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_values_read_as_none() {
        use std::os::unix::ffi::OsStringExt;
        let bad = std::ffi::OsString::from_vec(vec![0xFF, 0xFE]);
        std::env::set_var("NC_TEST_NON_UTF8", &bad);
        assert_eq!(env_str("NC_TEST_NON_UTF8"), None);
        assert_eq!(env_u64("NC_TEST_NON_UTF8"), None);
    }
}
