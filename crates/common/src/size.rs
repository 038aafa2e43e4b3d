//! Byte-size constants and human-readable formatting.

/// One kibibyte.
pub(crate) const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;
/// One tebibyte.
pub(crate) const TIB: u64 = 1024 * GIB;

/// Format a byte count with a binary-unit suffix (e.g. `1.50 GiB`).
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [(&str, u64); 4] = [("TiB", TIB), ("GiB", GIB), ("MiB", MIB), ("KiB", KIB)];
    for (suffix, unit) in UNITS {
        if bytes >= unit {
            return format!("{:.2} {suffix}", bytes as f64 / unit as f64);
        }
    }
    format!("{bytes} B")
}

/// Integer ceiling division, used for block/stripe rounding everywhere.
pub fn div_ceil(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_powers_of_1024() {
        assert_eq!(MIB, 1_048_576);
        assert_eq!(GIB, 1_073_741_824);
        assert_eq!(TIB / GIB, 1024);
    }

    #[test]
    fn human_formatting_picks_largest_unit() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(KIB), "1.00 KiB");
        assert_eq!(human_bytes(3 * MIB / 2), "1.50 MiB");
        assert_eq!(human_bytes(2 * TIB), "2.00 TiB");
    }

    #[test]
    fn div_ceil_rounds_up() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(4, 4), 1);
        assert_eq!(div_ceil(5, 4), 2);
    }
}
